//! # qonductor-circuit
//!
//! Quantum-circuit intermediate representation and benchmark-circuit
//! generators for the Qonductor orchestrator (SC '25 reproduction).
//!
//! The crate provides:
//! * a flat, allocation-light circuit IR ([`Circuit`], [`Gate`], [`Instruction`]),
//! * a dependency DAG ([`dag::CircuitDag`]) used by the transpiler and estimator,
//! * content digests ([`Circuit::content_digest`], [`ContentHasher`]) for
//!   memoising per-circuit computations,
//! * structural metrics ([`metrics::CircuitMetrics`]) — the feature vector the
//!   resource estimator regresses on,
//! * generators for the standard algorithm families (GHZ, QFT, QAOA, VQE,
//!   Grover, W-state, random) in [`generators`],
//! * an MQT-Bench-style [`workload::WorkloadGenerator`] reproducing the paper's
//!   benchmark sampling model (§8.1/§8.2),
//! * the workspace's one parallel executor ([`par`]), here because this is
//!   the lowest crate every user of a second core shares.

#![warn(missing_docs)]

pub mod circuit;
pub mod dag;
pub mod digest;
pub mod gate;
pub mod generators;
pub mod metrics;
pub mod par;
pub mod workload;

pub use circuit::Circuit;
pub use dag::CircuitDag;
pub use digest::ContentHasher;
pub use gate::{Gate, Instruction, NO_OPERAND};
pub use generators::Algorithm;
pub use metrics::CircuitMetrics;
pub use workload::{WorkloadConfig, WorkloadGenerator};
