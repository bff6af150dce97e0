//! # qonductor-backend
//!
//! QPU device substrate for the Qonductor orchestrator: calibration data and
//! its drift over calibration cycles, qubit-connectivity topologies, QPU and
//! template-QPU models, calibration-derived noise models, a noisy circuit
//! simulator (statevector + Monte-Carlo Pauli trajectories, plus an analytic
//! estimated-success-probability path for wide circuits), Hellinger fidelity,
//! per-QPU job queues with simulated time, and named device fleets replicating
//! the IBM devices used by the paper's evaluation.

#![warn(missing_docs)]

pub mod calibration;
pub mod fleet;
mod hellinger;
mod math;
pub mod noise;
pub mod qpu;
pub mod queue;
pub mod simulator;
mod topology;

pub use calibration::{
    CalibrationClock, CalibrationData, CalibrationGenerator, EdgeCalibration, QubitCalibration,
};
pub use fleet::{Fleet, FleetMember};
pub use hellinger::{hellinger_fidelity, Distribution};
pub use noise::NoiseModel;
pub use qpu::{MaintenanceWindow, Qpu, QpuModel, QpuTechnology, ResourceClass, TemplateQpu};
pub use queue::{CompletedJob, JobQueue};
pub use simulator::{ExecutionResult, Simulator, Statevector};
pub use topology::CouplingMap;
