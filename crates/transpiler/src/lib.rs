//! # qonductor-transpiler
//!
//! Circuit compilation substrate for the Qonductor orchestrator: basis-gate
//! translation, noise-aware initial layout, shortest-path SWAP routing, and
//! ASAP scheduling with calibrated gate durations. The transpiler produces the
//! post-compilation circuit features (depth, two-qubit count, duration) that
//! the resource estimator (§6) regresses on, and is used both against concrete
//! QPUs and against the model-averaged *template QPUs*.

#![warn(missing_docs)]

pub mod basis;
pub mod layout;
mod pipeline;
pub mod routing;
mod scheduling;

pub use basis::{translate, BasisSet};
pub use layout::{select_layout, Layout, LayoutPolicy};
pub use pipeline::{TranspiledCircuit, Transpiler, TranspilerOptions};
pub use routing::{route, RoutedCircuit};
pub use scheduling::{asap_schedule, IdleWindow, Schedule, ScheduledOp};
