//! # qonductor-core
//!
//! The Qonductor control plane and data plane (§4, §5): the hardware-agnostic
//! user API of Table 2 (`create_workflow`, `deploy`, `invoke`,
//! `workflow_results`, image listing, resource estimation, scheduling), the
//! workflow manager (hybrid DAGs of classical and quantum steps), the workflow
//! registry (hybrid workflow images), deployment configuration (Listing 1
//! analogue), the system monitor, the consensus-backed replication of the job
//! state, and the orchestrator that wires the resource estimator,
//! hybrid scheduler, QPU fleet, and classical nodes into an end-to-end
//! execution engine.
//!
//! The job state — the batch engine ([`jobmanager::JobManager`]) and the
//! tenant queues ([`submission::SubmissionService`]) — is read-only outside
//! this crate. [`replication::ReplicatedControlPlane`] is its only writer: an
//! operation decides a journal event without writing anything, journals it,
//! and applies it through the same function a failover replays the journal
//! with, so a control-plane failover loses no pending jobs and rebuilds the
//! live state byte for byte.

#![warn(missing_docs)]
#![warn(clippy::let_underscore_must_use)]

pub mod autoscaler;
pub mod config;
pub mod digest;
mod estimate_cache;
pub mod federation;
mod fleetlease;
pub mod jobmanager;
pub mod monitor;
pub mod orchestrator;
mod registry;
mod replication;
pub mod sharding;
pub mod submission;
pub mod workflow;

pub use autoscaler::{Autoscaler, AutoscalerConfig, ScalingDecision};
pub use config::{DeploymentConfig, Priority};
pub use estimate_cache::{EstimateCacheStats, ProductStats};
pub use federation::FederatedFleet;
pub use fleetlease::{FleetAllocator, LeaseConflict, ReleaseError};
pub use jobmanager::{
    BatchRecord, CalibrationPolicy, CompletedExecution, JobId, JobSpec, PendingJob, TenantId,
    DEFAULT_TENANT,
};
pub use monitor::{BatchObservation, ReestimationObservation, SystemMonitor, WorkflowStatus};
pub use orchestrator::{
    ClassicalStepResult, Orchestrator, OrchestratorError, QuantumStepResult, WorkflowResult,
};
pub use registry::ImageId;
pub use replication::{
    ControlPlaneEvent, DispatchOutcome, FailoverError, ReplicatedControlPlane, ReplicationError,
};
pub use sharding::{shard_of_global, GlobalTicket, ShardedControlPlane};
pub use submission::{
    JobTicket, RejectReason, SloClass, SubmissionError, TenantConfig, TenantStats, TicketStatus,
};
pub use workflow::{
    mitigated_execution_workflow, ClassicalKind, ClassicalStep, QuantumStep, Step, Workflow,
};
