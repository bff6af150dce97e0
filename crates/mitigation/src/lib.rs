//! # qonductor-mitigation
//!
//! Quantum error-mitigation substrate for the Qonductor orchestrator (§2.1,
//! §6): zero-noise extrapolation (gate folding + extrapolation factories),
//! readout error mitigation (tensored confusion-matrix inversion), dynamical
//! decoupling (idle-window pulse insertion), Pauli twirling, probabilistic
//! error cancellation, and circuit knitting (wire/gate cutting with classical
//! reconstruction). Each technique exposes a [`technique::MitigationCost`]
//! profile — circuit multiplicity, quantum/classical overheads, accelerator
//! speed-up, and error-reduction factor — which the resource estimator uses to
//! build fidelity-vs-cost resource plans.

#![warn(missing_docs)]

mod dd;
pub mod knitting;
mod pec;
pub mod rem;
pub mod stack;
mod technique;
mod twirling;
pub mod zne;

pub use dd::{insert_dd, DdResult, DdSequence};
pub use knitting::{cut_in_half, CutResult, ReconstructionCost};
pub use pec::{PecConfig, PecSample};
pub use rem::{QubitConfusion, ReadoutMitigator};
pub use stack::{candidate_stacks, MitigationStack};
pub use technique::{ErrorChannel, MitigationCost, Technique};
pub use twirling::twirl_circuit;
pub use zne::{extrapolate, fold_circuit, ExtrapolationFactory, ZneConfig};
