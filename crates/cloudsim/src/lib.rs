//! # qonductor-cloudsim
//!
//! Quantum-cloud simulation environment replicating the paper's evaluation
//! methodology (§8.2): a diurnal Poisson load generator calibrated to the
//! measured IBM Quantum arrival rates (1100–2050 jobs/hour, mean 1500),
//! synthetic hybrid applications (benchmark circuits + optional error
//! mitigation), closed-form per-QPU fidelity/runtime estimates, and a
//! discrete-time simulation engine that drives the Qonductor scheduler (or the
//! FCFS / least-busy baselines) against the modelled QPU fleet's job queues
//! while collecting the end-to-end metrics of §8.1.
//!
//! ## One kernel, many scenarios
//!
//! Like the paper, which evaluates every policy, load and fleet in one
//! simulation environment, every simulation here is a *scenario* driven by
//! the single event loop of the crate-private `kernel` module over a
//! [`qonductor_core::sharding::ShardedControlPlane`] of N ≥ 1 shards — the
//! plane type the orchestrator runs:
//!
//! | scenario | entry point | RNG streams it owns |
//! |---|---|---|
//! | single tenant, Qonductor / FCFS / least-busy (also [`drift`], [`federation`]) | [`CloudSimulation`] | arrivals `seed ^ 0x0A2217A1`, drift `seed ^ 0x00D81F7C`, jitter `seed` |
//! | weighted tenants, one shard | [`MultiTenantSimulation`] | one stream `seed`: advance → per-completion jitter → arrivals |
//! | heavy + light tenant per shard, N shards | [`ShardedSimulation`] | as multi-tenant (it *is* that scenario plus a shard count) |
//! | bursty deadline tenant, two arms | [`run_slo_arm`] | advance `seed`, offered load `seed ^ 0xA11A`, elastic devices `seed ^ 0xE1A5` |
//!
//! The kernel owns the step order, the snapshot cadence and the chaos
//! bookkeeping. For each `(t, t_next]` of `step_s` seconds it
//!
//! 0. injects every [`FailurePlan`] crash due in the step (every shard's
//!    leader dies; each shard fails over from `snapshot + log replay`),
//! 1. advances the fleet's queues (and calibration drift) to `t_next` and
//!    drains completions onto the shard that dispatched them,
//! 2. submits the arrivals of `[t, t_next)` — *after* the advance, so an
//!    arrival is enqueued at `t_next` at the earliest and no job can start
//!    before it was submitted,
//! 3. runs the scenario's `before_admit` hook, weighted-fair admission on
//!    every shard, and the `after_admit` hook,
//! 4. dispatches one NSGA-II + MCDM batch on every shard whose trigger
//!    fires, checkpointing all shards every
//!    [`FailurePlan::snapshot_every_batches`]-th batch (also in failure-free
//!    runs: snapshots are behaviour-neutral and bound the journal),
//! 5. runs the scenario's `end_of_step` hook.
//!
//! The kernel draws no random number: every draw happens on a
//! scenario-owned stream, so a report depends on the scenario's seed alone
//! and not on how the kernel evolves. A new scenario implements the
//! crate-private `kernel::Scenario` trait, embeds [`RunParams`] in its
//! config, and gets fault injection ([`FailurePlan`] → [`ChaosReport`]) for
//! free.

#![warn(missing_docs)]

pub mod drift;
pub mod estimates;
pub mod failover;
pub mod federation;
mod kernel;
pub mod load;
mod multitenant;
pub mod sharded;
pub mod sim;
pub mod slo;

pub use drift::{
    run_drift_comparison, run_penalty_comparison, DriftComparison, DriftConfig, PenaltyComparison,
};
pub use estimates::{estimate, FastEstimate};
pub use failover::{ChaosReport, CrashRecord, FailurePlan, ShardRecovery};
pub use federation::{
    federated_heterogeneous, run_federation_comparison, FederationComparison, FederationConfig,
    PlacementArm,
};
pub use kernel::RunParams;
pub use load::{ArrivalConfig, HybridApplication, LoadGenerator, TenantArrivalConfig};
pub use multitenant::{
    BatchComposition, MultiTenantConfig, MultiTenantReport, MultiTenantSimulation,
    TenantCompletion, TenantLoad, TenantOutcome,
};
pub use sharded::{ShardedSimConfig, ShardedSimulation};
pub use sim::{
    CloudSimulation, CompletedApp, CycleRecord, DispatchRecord, Policy, SimulationConfig,
    SimulationReport, TimePoint,
};
pub use slo::{
    run_slo_arm, run_slo_comparison, SloArmOutcome, SloArmReport, SloComparison, SloCompletion,
    SloConfig,
};
