//! Fault injection for every simulation scenario: a seeded crash schedule
//! ([`FailurePlan`]) kills every control-plane shard's leader at simulated
//! instants mid-run; the kernel fails each shard over to a replica rebuilt
//! from the replicated `snapshot + log replay` and keeps going. The
//! [`ChaosReport`] wraps the scenario's ordinary report with, per crash,
//! whether each shard's rebuilt job state matched its pre-crash state byte
//! for byte, plus the loss/duplication invariants the chaos matrix asserts
//! (no ticket lost, no job dispatched twice, no QPU lease leaked).

use qonductor_core::jobmanager::JobId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Checkpoint cadence (batches per snapshot) of a failure-free run.
/// Checkpointing even without crashes is behaviour-neutral (the chaos matrix
/// proves fault-injected and failure-free runs equal) and keeps the journal
/// bounded over long figure-generating runs.
pub(crate) const DEFAULT_SNAPSHOT_EVERY_BATCHES: usize = 8;

/// A seeded crash schedule for one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct FailurePlan {
    /// Simulated instants at which the control-plane leaders crash,
    /// ascending.
    pub crash_times_s: Vec<f64>,
    /// Install a snapshot (and compact the journal) every this many
    /// dispatched batches; `0` disables checkpointing, so every failover
    /// replays the journal from genesis.
    pub snapshot_every_batches: usize,
}

impl FailurePlan {
    /// The failure-free plan: no crash, the default checkpoint cadence.
    pub fn none() -> Self {
        FailurePlan {
            crash_times_s: Vec::new(),
            snapshot_every_batches: DEFAULT_SNAPSHOT_EVERY_BATCHES,
        }
    }

    /// Derive a crash schedule from a seed: `num_crashes` leader kills spread
    /// over the middle 90% of the simulated duration, plus one snapshot per
    /// three batches (denser than the default cadence,
    /// `DEFAULT_SNAPSHOT_EVERY_BATCHES`, of one per eight).
    pub fn from_seed(seed: u64, duration_s: f64, num_crashes: usize) -> Self {
        let mut rng = StdRng::seed_from_u64(seed ^ 0xFA11_0E25);
        let mut crash_times_s: Vec<f64> =
            (0..num_crashes).map(|_| rng.gen_range(0.05..0.95) * duration_s).collect();
        crash_times_s.sort_by(f64::total_cmp);
        FailurePlan { crash_times_s, snapshot_every_batches: 3 }
    }
}

/// One shard's recovery from an injected crash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ShardRecovery {
    /// The leader that was killed.
    pub old_leader: usize,
    /// The leader elected by the failover.
    pub new_leader: usize,
    /// `true` iff the shard's rebuilt job state was byte-for-byte identical
    /// to its pre-crash state.
    pub digest_matched: bool,
}

/// One injected whole-plane crash (every shard's leader killed) and its
/// per-shard recovery.
#[derive(Debug, Clone, PartialEq)]
pub struct CrashRecord {
    /// Simulated time of the crash.
    pub t_s: f64,
    /// Journal entries replayed on top of the latest snapshots to rebuild,
    /// summed over the shards.
    pub replayed_events: u64,
    /// Per-shard recovery, in shard order (one entry on a one-shard plane).
    pub shards: Vec<ShardRecovery>,
    /// `true` iff the fleet allocator rebuilt from the per-shard journaled
    /// lease sets with no QPU leaked or double-granted.
    pub allocator_consistent: bool,
}

/// Outcome of a (possibly fault-injected) run of any scenario: the
/// scenario's ordinary report plus what the kernel observed of the control
/// plane around it.
#[derive(Debug, Clone)]
pub struct ChaosReport<R> {
    /// The scenario's ordinary report.
    pub report: R,
    /// One record per injected crash, in schedule order (empty without a
    /// failure plan).
    pub crashes: Vec<CrashRecord>,
    /// Snapshots installed (journal compactions) during the run.
    pub snapshots_installed: u64,
    /// Per-tenant accounting imbalance, summed over every registered tenant:
    /// |submitted − (queued + in flight + completed + rejected)|. Zero iff
    /// every ledger balances exactly — both a lost ticket and a
    /// double-resolved one (a replay bug completing the same ticket twice)
    /// make this non-zero.
    pub lost_tickets: u64,
    /// `(shard, job id)` pairs a batch enqueued onto a QPU more than once
    /// (job ids are shard-local, so the pair is the unique key). Empty iff
    /// no job was dispatched twice.
    pub double_dispatched: Vec<(usize, JobId)>,
    /// Per-shard byte-for-byte encoded states at the end of the run (the
    /// `encode_state` oracle) — fault-injected and failure-free runs of the
    /// same configuration must produce equal bytes, regardless of when each
    /// run snapshotted.
    pub final_states: Vec<String>,
}

impl<R> ChaosReport<R> {
    /// `true` iff every shard's failover rebuilt its pre-crash state byte
    /// for byte, every time.
    pub fn all_digests_matched(&self) -> bool {
        self.crashes.iter().all(|c| c.shards.iter().all(|s| s.digest_matched))
    }

    /// `true` iff the allocator rebuilt conflict-free after every crash.
    pub fn allocator_always_consistent(&self) -> bool {
        self.crashes.iter().all(|c| c.allocator_consistent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failure_plans_are_seed_deterministic_sorted_and_in_range() {
        let a = FailurePlan::from_seed(9, 600.0, 4);
        let b = FailurePlan::from_seed(9, 600.0, 4);
        assert_eq!(a, b);
        assert_eq!(a.crash_times_s.len(), 4);
        assert!(a.crash_times_s.windows(2).all(|w| w[0] <= w[1]));
        assert!(a.crash_times_s.iter().all(|&t| t > 0.0 && t < 600.0));
        let c = FailurePlan::from_seed(10, 600.0, 4);
        assert_ne!(a, c, "different seeds give different schedules");
    }
}
