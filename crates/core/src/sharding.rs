//! The sharded control plane: tenants are partitioned by hash across N
//! independent [`ReplicatedControlPlane`] shards, each owning its own
//! journal, [`JobManager`](crate::jobmanager::JobManager),
//! [`SubmissionService`](crate::submission::SubmissionService), and
//! `ScheduleTrigger`, and leasing exclusive QPU capacity from the shared
//! [`FleetAllocator`].
//!
//! The single `ReplicatedControlPlane` is a global serialization point: one
//! journal quorum carries every submission, and one DRR admission pass walks
//! every registered tenant (O(T) per pass). Sharding divides both by N —
//! each shard journals and admits only its `T/N` tenants — which is what
//! lets throughput scale ~linearly in shard count at 10⁵–10⁶ registered
//! tenants (qbench `controlplane-drain`: `core.shards{1,2}_jobs_per_s`).
//!
//! Invariants:
//! - **Routing is pure.** [`shard_of_global`] maps a global tenant id to its
//!   shard by FNV-1a hash; callers can precompute where the *next* tenant
//!   will land ([`ShardedControlPlane::next_shard`]).
//! - **Leases are journaled on the granting shard.** A shard journals
//!   `LeaseGranted` *before* using the QPU, so its `failover()` replays the
//!   lease set byte-for-byte and [`ShardedControlPlane::rebuild_allocator`]
//!   over the per-shard sets proves capacity is neither leaked nor
//!   double-granted.
//! - **Specs are masked to owned capacity.** A submission routed to a shard
//!   has its estimate table masked to the shard's leased QPUs plus the
//!   elastic QPUs it provisioned (fidelity 0, exec ∞ elsewhere), so the
//!   shard's scheduler can only place jobs on capacity the shard owns. A shard leasing the whole fleet (the single-shard
//!   default) keeps specs untouched — bit-identical to the unsharded plane.
//! - **Completions route by lease owner.** Per-shard job ids collide across
//!   shards, so drained completions are attributed to the shard leasing the
//!   QPU they ran on — which is exactly the shard that dispatched them.

use crate::digest::Fnv64;
use crate::fleetlease::{FleetAllocator, LeaseConflict, ReleaseError};
use crate::jobmanager::{CalibrationPolicy, CompletedExecution, JobId, JobSpec, TenantId};
use crate::replication::{
    DispatchOutcome, FailoverError, ReplicatedControlPlane, ReplicationError,
};
use crate::submission::{JobTicket, TenantConfig, TenantStats, TicketStatus};
use qonductor_backend::Fleet;
use qonductor_circuit::par;
use qonductor_scheduler::{HybridScheduler, ScheduleTrigger};
use std::collections::HashMap;

/// A ticket qualified by the shard that issued it: per-shard ticket and job
/// ids are only unique within their shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GlobalTicket {
    /// The shard the job was routed to.
    pub shard: usize,
    /// The shard-local ticket.
    pub ticket: JobTicket,
}

impl GlobalTicket {
    /// Canonical text encoding `shard:tenant:ticket` — what a client stores
    /// to poll across sessions. `decode(encode(t)) == t` exactly.
    pub fn encode(&self) -> String {
        format!("{}:{}:{}", self.shard, self.ticket.tenant, self.ticket.ticket)
    }

    /// Decode a ticket produced by [`GlobalTicket::encode`]. Returns `None`
    /// on any malformed input (wrong field count, non-numeric fields,
    /// trailing garbage).
    pub fn decode(encoded: &str) -> Option<GlobalTicket> {
        let mut fields = encoded.split(':');
        let shard = fields.next()?.parse().ok()?;
        let tenant = fields.next()?.parse().ok()?;
        let ticket = fields.next()?.parse().ok()?;
        if fields.next().is_some() {
            return None;
        }
        Some(GlobalTicket { shard, ticket: JobTicket { tenant, ticket } })
    }
}

/// Pure shard router: FNV-1a over the global tenant id's little-endian
/// bytes, mod the shard count. Deterministic and stateless, so any layer
/// (submission routing, scenario builders, benches) computes the same
/// placement.
pub fn shard_of_global(global: TenantId, num_shards: usize) -> usize {
    let mut hash = Fnv64::new();
    hash.absorb(&global.to_le_bytes());
    (hash.value() % num_shards as u64) as usize
}

/// N control-plane shards behind one façade (see the module docs).
#[derive(Debug)]
pub struct ShardedControlPlane {
    shards: Vec<ReplicatedControlPlane>,
    allocator: FleetAllocator,
    /// Next global tenant id (global ids are assigned sequentially).
    next_global: TenantId,
    /// `placement[global] = (shard, local id)`.
    placement: Vec<(usize, TenantId)>,
    /// Reverse map: `(shard, local id) → global id`.
    global_of: HashMap<(usize, TenantId), TenantId>,
}

impl ShardedControlPlane {
    /// A sharded plane of `num_shards` shards over a `num_qpus` fleet. Each
    /// shard gets its own journal store of `2f + 1` replicas, an independent
    /// copy of `trigger`, and the calibration `policy`; QPU `i` is leased to
    /// shard `i % num_shards` (round-robin), journaled on the holding shard.
    /// (`_seed` is unused, as in [`ReplicatedControlPlane::new`], and kept
    /// only because callers pass it.)
    ///
    /// # Panics
    ///
    /// Unless `1 <= num_shards <= num_qpus`: every shard must hold a QPU.
    pub fn new(
        num_shards: usize,
        num_qpus: usize,
        trigger: ScheduleTrigger,
        policy: CalibrationPolicy,
        fault_tolerance: usize,
        _seed: u64,
    ) -> Self {
        assert!(num_shards > 0, "a sharded plane needs at least one shard");
        assert!(
            num_shards <= num_qpus,
            "a sharded plane needs at most one shard per QPU ({num_shards} shards over {num_qpus} QPUs): a shard without a QPU never dispatches"
        );
        let shards: Vec<ReplicatedControlPlane> = (0..num_shards)
            .map(|_| ReplicatedControlPlane::with_policy(trigger, policy, fault_tolerance))
            .collect();
        let mut plane = ShardedControlPlane {
            shards,
            allocator: FleetAllocator::new(num_qpus),
            next_global: 0,
            placement: Vec::new(),
            global_of: HashMap::new(),
        };
        for qpu_index in 0..num_qpus {
            let shard = qpu_index % num_shards;
            plane.lease_qpu(shard, qpu_index).expect("fresh stores have quorums");
        }
        plane
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Number of QPUs in the shared fleet.
    pub fn num_qpus(&self) -> usize {
        self.allocator.num_qpus()
    }

    /// One shard, read-only.
    pub fn shard(&self, index: usize) -> &ReplicatedControlPlane {
        &self.shards[index]
    }

    /// All shards, read-only.
    pub fn shards(&self) -> &[ReplicatedControlPlane] {
        &self.shards
    }

    /// All shards, mutable — for callers driving shards from parallel
    /// threads over disjoint sub-fleets (the throughput bench). The lease
    /// partition is what makes that safe: shards share no QPU.
    pub fn shards_mut(&mut self) -> &mut [ReplicatedControlPlane] {
        &mut self.shards
    }

    /// The live lease bookkeeping.
    pub fn allocator(&self) -> &FleetAllocator {
        &self.allocator
    }

    /// The shard the *next* registered tenant will land on (registration
    /// assigns global ids sequentially; the router is pure).
    pub fn next_shard(&self) -> usize {
        shard_of_global(self.next_global, self.num_shards())
    }

    /// Where a registered global tenant lives: `(shard, shard-local id)`.
    pub fn placement_of(&self, global: TenantId) -> Option<(usize, TenantId)> {
        self.placement.get(global as usize).copied()
    }

    /// The global id of a shard-local tenant.
    pub fn global_of(&self, shard: usize, local: TenantId) -> Option<TenantId> {
        self.global_of.get(&(shard, local)).copied()
    }

    /// Register a tenant (journaled on its home shard). Returns the global
    /// tenant id.
    pub fn register_tenant(&mut self, weight: u32) -> Result<TenantId, ReplicationError> {
        self.register_tenant_with(TenantConfig::weighted(weight))
    }

    /// [`Self::register_tenant`] with an explicit configuration.
    pub fn register_tenant_with(
        &mut self,
        config: TenantConfig,
    ) -> Result<TenantId, ReplicationError> {
        self.register_tenant_inner(config, None)
    }

    /// [`Self::register_tenant_with`] plus an SLO class: the class is
    /// journaled on the tenant's home shard (it rides the registration
    /// event), so the shard's escalation lane and failover replay see it.
    pub fn register_tenant_with_slo(
        &mut self,
        config: TenantConfig,
        slo: crate::submission::SloClass,
    ) -> Result<TenantId, ReplicationError> {
        self.register_tenant_inner(config, Some(slo))
    }

    fn register_tenant_inner(
        &mut self,
        config: TenantConfig,
        slo: Option<crate::submission::SloClass>,
    ) -> Result<TenantId, ReplicationError> {
        let global = self.next_global;
        let shard = shard_of_global(global, self.num_shards());
        let local = match slo {
            Some(slo) => self.shards[shard].register_tenant_with_slo(config, slo)?,
            None => self.shards[shard].register_tenant_with(config)?,
        };
        self.next_global += 1;
        self.placement.push((shard, local));
        self.global_of.insert((shard, local), global);
        Ok(global)
    }

    /// Every registered tenant's `(global id, config)`, in global-id order —
    /// what a rebuild-with-different-shape constructor re-registers.
    pub(crate) fn tenant_configs_global(&self) -> Vec<(TenantId, TenantConfig)> {
        self.placement
            .iter()
            .enumerate()
            .map(|(global, &(shard, local))| {
                let config = self.shards[shard]
                    .submissions()
                    .tenant_configs()
                    .into_iter()
                    .find(|(id, _)| *id == local)
                    .map(|(_, config)| config)
                    .expect("placement tracks registered tenants");
                (global as TenantId, config)
            })
            .collect()
    }

    /// Submit a job for a global tenant: route to its shard, mask the spec
    /// to the shard's leased QPUs, journal on that shard. The returned
    /// ticket is shard-qualified.
    pub fn submit(
        &mut self,
        global: TenantId,
        spec: JobSpec,
        now_s: f64,
    ) -> Result<GlobalTicket, ReplicationError> {
        let (shard, local) = self
            .placement_of(global)
            .ok_or(ReplicationError::Submission(crate::SubmissionError::UnknownTenant(global)))?;
        let masked = self.mask_spec(shard, spec);
        let ticket = self.shards[shard].submit(local, masked, now_s)?;
        Ok(GlobalTicket { shard, ticket })
    }

    /// Observe a ticket's progress on its shard.
    pub fn poll(&self, ticket: GlobalTicket) -> Option<TicketStatus> {
        self.shards.get(ticket.shard)?.poll(ticket.ticket)
    }

    /// One weighted-fair admission pass per shard (each shard walks only its
    /// own *active* tenants — the O(T/N) win). Admission touches nothing but
    /// the shard's own journaled state (the shared fleet enters only at
    /// dispatch), so the shards are data-disjoint: contiguous groups of them
    /// are admitted by a [`par::team`] of `min(host_cores(), shards)`
    /// members, and a single shard is admitted inline. Results merge in
    /// shard order, so the returned sequence is identical to the serial
    /// walk. Returns all admitted tickets, shard-qualified.
    pub fn admit(&mut self, now_s: f64) -> Result<Vec<(GlobalTicket, JobId)>, ReplicationError> {
        let group = self.shards.len().div_ceil(par::host_cores().min(self.shards.len()));
        let per_group = par::team(self.shards.chunks_mut(group).collect(), |shards, _| {
            shards.iter_mut().map(|plane| plane.admit(now_s)).collect::<Vec<_>>()
        });
        let mut admitted = Vec::new();
        for (shard, result) in per_group.into_iter().flatten().enumerate() {
            for (ticket, job_id) in result? {
                admitted.push((GlobalTicket { shard, ticket }, job_id));
            }
        }
        Ok(admitted)
    }

    /// One trigger-gated scheduling cycle per shard. Each shard schedules
    /// against the full fleet topology but its masked specs only place jobs
    /// on QPUs it leases. Returns `(shard, outcome)` for every shard whose
    /// trigger fired.
    pub fn try_dispatch(
        &mut self,
        now_s: f64,
        scheduler: &HybridScheduler,
        fleet: &mut Fleet,
    ) -> Result<Vec<(usize, DispatchOutcome)>, ReplicationError> {
        let mut outcomes = Vec::new();
        for (shard, plane) in self.shards.iter_mut().enumerate() {
            if let Some(outcome) = plane.try_dispatch(now_s, scheduler, fleet)? {
                outcomes.push((shard, outcome));
            }
        }
        Ok(outcomes)
    }

    /// Drain fleet completions once and account each on the shard owning
    /// the QPU it ran on — its lease holder, or for an elastic QPU the shard
    /// that provisioned it (per-shard job ids collide; only the owner can
    /// have dispatched onto the QPU). Returns shard-qualified `(ticket,
    /// completion)` pairs.
    pub fn drain_and_note(
        &mut self,
        fleet: &mut Fleet,
    ) -> Result<Vec<(GlobalTicket, CompletedExecution)>, ReplicationError> {
        let drained = self.shards[0].drain_completions(fleet);
        let mut per_shard: Vec<Vec<CompletedExecution>> = vec![Vec::new(); self.shards.len()];
        for completion in drained {
            let qpu = completion.qpu_index;
            let provisioner = || self.shards.iter().position(|s| s.elastic().contains(&qpu));
            let owner = self.allocator.owner(qpu).or_else(provisioner).unwrap_or(0);
            per_shard[owner].push(completion);
        }
        let mut resolved = Vec::new();
        for (shard, completions) in per_shard.iter().enumerate() {
            if completions.is_empty() {
                continue;
            }
            for (ticket, completion) in self.shards[shard].note_completions(completions)? {
                resolved.push((GlobalTicket { shard, ticket }, completion));
            }
        }
        Ok(resolved)
    }

    /// Earliest next completion across the fleet (fleet state is shared, so
    /// any shard's engine computes the same answer).
    pub fn next_event_s(&self, fleet: &Fleet) -> Option<f64> {
        self.shards[0].next_event_s(fleet)
    }

    /// Earliest instant any shard's trigger can fire.
    pub fn next_trigger_s(&self) -> Option<f64> {
        self.shards.iter().filter_map(|s| s.next_trigger_s()).min_by(f64::total_cmp)
    }

    /// Pending jobs with stale estimates across all shards, shard-qualified.
    pub fn stale_pending_all(&self, fleet_epoch: u64) -> Vec<(usize, JobId)> {
        self.shards
            .iter()
            .enumerate()
            .flat_map(|(shard, plane)| {
                plane.stale_pending(fleet_epoch).into_iter().map(move |job| (shard, job))
            })
            .collect()
    }

    /// A shard's pending job by id.
    #[cfg(test)]
    fn pending_job(&self, shard: usize, job_id: JobId) -> Option<&crate::PendingJob> {
        self.shards[shard].pending_job(job_id)
    }

    /// The shard-qualified ticket admitted as `job_id` on `shard`.
    pub fn admitted_ticket(&self, shard: usize, job_id: JobId) -> Option<GlobalTicket> {
        let ticket = self.shards[shard].submissions().admitted_ticket(job_id)?;
        Some(GlobalTicket { shard, ticket })
    }

    /// Re-estimate a shard's pending job (the fresh spec is re-masked to the
    /// shard's leases before journaling, like a submission).
    pub fn reestimate_job(
        &mut self,
        shard: usize,
        job_id: JobId,
        spec: JobSpec,
    ) -> Result<bool, ReplicationError> {
        let masked = self.mask_spec(shard, spec);
        self.shards[shard].reestimate_job(job_id, masked)
    }

    /// A global tenant's admission statistics.
    pub fn tenant_stats(&self, global: TenantId) -> Option<TenantStats> {
        let (shard, local) = self.placement_of(global)?;
        self.shards[shard].submissions().tenant_stats(local)
    }

    /// Every tenant's statistics keyed by *global* id, in global-id order.
    pub fn snapshot_stats(&self) -> Vec<(TenantId, TenantStats)> {
        self.placement
            .iter()
            .enumerate()
            .filter_map(|(global, &(shard, local))| {
                let stats = self.shards[shard].submissions().tenant_stats(local)?;
                Some((global as TenantId, stats))
            })
            .collect()
    }

    /// Grant `qpu_index` to `shard`: the allocator checks exclusivity, then
    /// the shard journals the grant (write-ahead) before any use.
    pub fn lease_qpu(&mut self, shard: usize, qpu_index: usize) -> Result<bool, ReplicationError> {
        if self.allocator.owner(qpu_index).is_some_and(|owner| owner != shard) {
            return Ok(false);
        }
        if !self.shards[shard].lease_qpu(qpu_index)? {
            return Ok(false);
        }
        let granted = self.allocator.try_grant(shard, qpu_index);
        debug_assert!(granted, "allocator agreed above");
        Ok(true)
    }

    /// Release `shard`'s lease on `qpu_index`. The outer `Result` is journal
    /// plumbing; the inner one is the domain answer — `Ok(())` on release, or
    /// the typed refusal: [`ReleaseError::NotOwner`] for an ownership
    /// mismatch, [`ReleaseError::QueueBusy`] while the QPU's queue still
    /// holds the shard's dispatched work (releasing mid-execution would
    /// re-route those completions to the next lease holder).
    pub fn release_qpu(
        &mut self,
        shard: usize,
        qpu_index: usize,
        fleet: &Fleet,
    ) -> Result<Result<(), ReleaseError>, ReplicationError> {
        let pending_jobs = fleet.members()[qpu_index].queue.pending_len();
        if let Err(refusal) = self.allocator.check_release(shard, qpu_index, pending_jobs) {
            return Ok(Err(refusal));
        }
        if !self.shards[shard].release_qpu(qpu_index)? {
            // Ownership was verified against the live allocator, so the
            // journaled lease set disagreeing means the lease is not ours.
            return Ok(Err(ReleaseError::NotOwner {
                qpu_index,
                requested_by: shard,
                held_by: self.allocator.owner(qpu_index),
            }));
        }
        let released = self.allocator.release(shard, qpu_index, pending_jobs);
        debug_assert!(released.is_ok(), "allocator ownership checked above");
        Ok(Ok(()))
    }

    /// Checkpoint every shard (snapshot + journal compaction). Returns the
    /// per-shard first-uncovered indices.
    pub fn snapshot_all(&self) -> Result<Vec<u64>, ReplicationError> {
        self.shards.iter().map(|s| s.snapshot()).collect()
    }

    /// Per-shard state digests (incremental fingerprints), in shard order.
    /// Per-shard equality is the failover-exactness criterion; suites that
    /// assert byte exactness compare each shard's
    /// [`ReplicatedControlPlane::encode_state`] oracle directly.
    pub fn state_digests(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.state_digest()).collect()
    }

    /// All shards' digests joined into one string (shard-separated), for
    /// whole-plane equality checks.
    pub fn combined_digest(&self) -> String {
        self.state_digests().join("\n--shard--\n")
    }

    /// Per-shard byte-for-byte encoded states, in shard order — the
    /// `encode_state` oracle for cross-run comparisons where the incremental
    /// digests are not comparable (different snapshot schedules).
    pub fn encoded_states(&self) -> Vec<String> {
        self.shards.iter().map(|s| s.encode_state()).collect()
    }

    /// Crash one shard's leader (volatile state dies; journal survives).
    pub fn crash_leader(&mut self, shard: usize) {
        self.shards[shard].crash_leader();
    }

    /// Fail over one shard, then re-derive the allocator from every shard's
    /// journaled lease set — proving the replay neither leaked nor
    /// double-granted capacity.
    pub fn failover(&mut self, shard: usize) -> Result<(), FailoverError> {
        self.shards[shard].failover()?;
        self.allocator = self.rebuild_allocator().map_err(|_| FailoverError::CorruptState)?;
        Ok(())
    }

    /// Crash every shard's leader.
    pub fn crash_all_leaders(&mut self) {
        for shard in 0..self.shards.len() {
            self.crash_leader(shard);
        }
    }

    /// Fail over every shard (see [`Self::failover`]).
    pub fn failover_all(&mut self) -> Result<(), FailoverError> {
        for plane in &mut self.shards {
            plane.failover()?;
        }
        self.allocator = self.rebuild_allocator().map_err(|_| FailoverError::CorruptState)?;
        Ok(())
    }

    /// Reconstruct the allocator from the shards' journaled lease sets,
    /// failing on any double grant.
    pub fn rebuild_allocator(&self) -> Result<FleetAllocator, LeaseConflict> {
        let sets: Vec<_> = self.shards.iter().map(|s| s.leases().clone()).collect();
        FleetAllocator::rebuild(&sets, self.allocator.num_qpus())
    }

    /// Mask a full-fleet spec to the capacity a shard owns — the QPUs it
    /// leases plus the elastic QPUs it provisioned (journaled in `elastic()`,
    /// never in the lease set): every other entry gets fidelity 0 and
    /// infinite execution time, the same "cannot run here" encoding the
    /// estimator uses for infeasible devices. A shard leasing the whole fleet
    /// passes specs through untouched, keeping the single-shard plane
    /// bit-identical to the unsharded one.
    fn mask_spec(&self, shard: usize, mut spec: JobSpec) -> JobSpec {
        let leased = self.shards[shard].leases();
        if leased.len() >= spec.fidelity_per_qpu.len() {
            return spec;
        }
        let elastic = self.shards[shard].elastic();
        for qpu in 0..spec.fidelity_per_qpu.len() {
            if !leased.contains(&qpu) && !elastic.contains(&qpu) {
                spec.fidelity_per_qpu[qpu] = 0.0;
                spec.exec_time_per_qpu[qpu] = f64::INFINITY;
            }
        }
        spec
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qonductor_scheduler::{Nsga2Config, SchedulerConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_fleet(seed: u64) -> Fleet {
        let mut rng = StdRng::seed_from_u64(seed);
        Fleet::ibm_default(&mut rng)
    }

    fn scheduler() -> HybridScheduler {
        HybridScheduler::new(SchedulerConfig {
            nsga2: Nsga2Config {
                population_size: 16,
                max_generations: 8,
                max_evaluations: 800,
                num_threads: 1,
                ..Nsga2Config::default()
            },
            ..SchedulerConfig::default()
        })
    }

    fn spec(fleet: &Fleet, qubits: u32, exec_s: f64) -> JobSpec {
        JobSpec {
            qubits,
            shots: 1000,
            fidelity_per_qpu: fleet
                .members()
                .iter()
                .map(|m| if m.qpu.num_qubits() >= qubits { 0.9 } else { 0.0 })
                .collect(),
            exec_time_per_qpu: fleet
                .members()
                .iter()
                .map(|m| if m.qpu.num_qubits() >= qubits { exec_s } else { f64::INFINITY })
                .collect(),
            estimate_epoch: fleet.calibration_epoch(),
        }
    }

    fn plane(num_shards: usize, num_qpus: usize) -> ShardedControlPlane {
        ShardedControlPlane::new(
            num_shards,
            num_qpus,
            ScheduleTrigger::new(1, 30.0),
            CalibrationPolicy::Naive,
            1,
            7,
        )
    }

    #[test]
    fn the_shard_router_is_pure_and_covers_every_shard() {
        for tenant in 0..64u32 {
            let first = shard_of_global(tenant, 4);
            assert_eq!(first, shard_of_global(tenant, 4), "routing is deterministic");
            assert!(first < 4);
        }
        let hit: std::collections::BTreeSet<usize> =
            (0..64u32).map(|t| shard_of_global(t, 4)).collect();
        assert_eq!(hit.len(), 4, "64 sequential tenants should touch all 4 shards");
        assert_eq!(shard_of_global(9, 1), 0, "a single shard absorbs everything");
    }

    /// Pins the router's placements for ids 0..16 over 1..16 shards as one
    /// FNV-1a fold, so a change of its hash implementation cannot move a
    /// tenant to another shard.
    #[test]
    fn shard_placements_for_small_ids_and_counts_are_pinned() {
        let mut fold = Fnv64::new();
        for num_shards in 1..16usize {
            for tenant in 0..16u32 {
                fold.absorb(&(shard_of_global(tenant, num_shards) as u64).to_le_bytes());
            }
        }
        assert_eq!(fold.value(), 0x7214_9404_2262_09c6);
    }

    /// With more shards than QPUs some shard would lease nothing, and the
    /// jobs of tenants homed there could never dispatch.
    #[test]
    #[should_panic(expected = "at most one shard per QPU")]
    fn more_shards_than_qpus_is_refused() {
        plane(9, 8);
    }

    #[test]
    fn construction_partitions_the_fleet_round_robin() {
        let plane = plane(3, 8);
        for qpu in 0..8 {
            assert_eq!(plane.allocator().owner(qpu), Some(qpu % 3));
        }
        for shard in 0..3 {
            let journaled = plane.shard(shard).leases();
            let live: std::collections::BTreeSet<usize> =
                plane.allocator().leased_by(shard).into_iter().collect();
            assert_eq!(journaled, &live, "journaled and live lease sets agree");
        }
        assert!(plane.rebuild_allocator().is_ok());
    }

    #[test]
    fn registration_routes_by_the_pure_router_and_round_trips_ids() {
        let mut plane = plane(4, 8);
        for _ in 0..32 {
            let expected_shard = plane.next_shard();
            let global = plane.register_tenant(1).unwrap();
            let (shard, local) = plane.placement_of(global).unwrap();
            assert_eq!(shard, expected_shard);
            assert_eq!(shard, shard_of_global(global, 4));
            assert_eq!(plane.global_of(shard, local), Some(global));
        }
        let configs = plane.tenant_configs_global();
        assert_eq!(configs.len(), 32);
        assert!(configs.iter().enumerate().all(|(i, (id, _))| *id == i as TenantId));
    }

    #[test]
    fn submissions_are_masked_to_the_shard_lease() {
        let mut plane = plane(2, 8);
        let fleet = small_fleet(3);
        let tenant = plane.register_tenant(1).unwrap();
        let (shard, _) = plane.placement_of(tenant).unwrap();
        let ticket = plane.submit(tenant, spec(&fleet, 5, 30.0), 0.0).unwrap();
        assert_eq!(ticket.shard, shard);
        let admitted = plane.admit(1.0).unwrap();
        assert_eq!(admitted.len(), 1);
        let (_, job_id) = admitted[0];
        let pending = plane.pending_job(shard, job_id).unwrap();
        let leased = plane.shard(shard).leases();
        for (qpu, (&fid, &exec)) in pending
            .spec
            .fidelity_per_qpu
            .iter()
            .zip(pending.spec.exec_time_per_qpu.iter())
            .enumerate()
        {
            if !leased.contains(&qpu) {
                assert_eq!(fid, 0.0, "non-leased QPU {qpu} must be masked out");
                assert!(exec.is_infinite());
            }
        }
        assert!(
            leased.iter().any(|&q| pending.spec.fidelity_per_qpu[q] > 0.0),
            "the job must stay feasible on the shard's own lease"
        );
    }

    /// Elastic capacity is owned capacity: an autoscaler-provisioned QPU is
    /// journaled in the provisioning shard's `elastic()` set, not leased, and
    /// must stay schedulable there — and only there — across a failover.
    #[test]
    fn elastic_qpus_stay_unmasked_on_the_provisioning_shard_only() {
        use qonductor_backend::ResourceClass;
        let fleet = small_fleet(3);
        let mut wide = spec(&fleet, 5, 30.0);
        wide.fidelity_per_qpu.push(0.8);
        wide.exec_time_per_qpu.push(12.0);

        let mut one = plane(1, 8);
        assert!(one.shards_mut()[0].provision_qpu(1.0, 8, ResourceClass::Simulator).unwrap());
        let masked = one.mask_spec(0, wide.clone());
        assert_eq!(masked, wide, "a one-shard plane owns its leases and its elastic QPU");

        let mut two = plane(2, 8);
        assert!(two.shards_mut()[1].provision_qpu(1.0, 8, ResourceClass::Simulator).unwrap());
        let digests = two.state_digests();
        two.crash_all_leaders();
        two.failover_all().unwrap();
        assert_eq!(two.state_digests(), digests, "the provisioning replays byte for byte");
        let own = two.mask_spec(1, wide.clone());
        assert_eq!((own.fidelity_per_qpu[8], own.exec_time_per_qpu[8]), (0.8, 12.0));
        let other = two.mask_spec(0, wide);
        assert_eq!(other.fidelity_per_qpu[8], 0.0, "another shard's elastic QPU is masked");
        assert!(other.exec_time_per_qpu[8].is_infinite());
    }

    /// An SLO class registered through the sharded front door lands on the
    /// tenant's home shard: the escalation lane fires there, and the shard's
    /// crash + failover replays it byte-for-byte.
    #[test]
    fn slo_classes_route_to_the_home_shard_and_survive_its_failover() {
        use crate::submission::SloClass;
        let mut plane = ShardedControlPlane::new(
            2,
            8,
            ScheduleTrigger::new(100, 30.0),
            CalibrationPolicy::Naive,
            1,
            7,
        );
        let fleet = small_fleet(3);
        let tenant = plane
            .register_tenant_with_slo(TenantConfig::weighted(1), SloClass::with_deadline(20.0))
            .unwrap();
        let (shard, local) = plane.placement_of(tenant).unwrap();
        assert_eq!(
            plane.shard(shard).submissions().tenant_slo(local).map(|s| s.deadline_s),
            Some(20.0)
        );
        let ticket = plane.submit(tenant, spec(&fleet, 5, 10.0), 1.0).unwrap();
        // interval+margin horizon (32 s) overshoots the deadline at 21: the
        // shard-local escalation lane admits it despite queue_limit 100.
        let admitted = plane.admit(2.0).unwrap();
        assert_eq!(admitted.len(), 1);
        assert_eq!(admitted[0].0, ticket);
        assert_eq!(plane.shard(shard).submissions().tenant_stats(local).unwrap().escalated, 1);
        let digest = plane.shard(shard).state_digest();
        plane.shards_mut()[shard].crash_leader();
        plane.shards_mut()[shard].failover().expect("failover succeeds");
        assert_eq!(plane.shard(shard).state_digest(), digest, "escalation replays on the shard");
    }

    /// `admit` steps groups of shards on a team; it must answer what a
    /// serial walk over the shards answers — tickets in shard order, every
    /// shard's encoded state byte for byte — pass after pass, with plain and
    /// SLO tenants and submissions in between.
    #[test]
    fn a_parallel_admission_pass_equals_the_shards_admitted_one_by_one() {
        use crate::submission::SloClass;
        let fleet = small_fleet(3);
        let build = || {
            let trigger = ScheduleTrigger::new(100, 30.0);
            let mut plane = ShardedControlPlane::new(3, 8, trigger, CalibrationPolicy::Naive, 1, 7);
            let tenants: Vec<TenantId> = (0..9u32)
                .map(|i| {
                    let config = TenantConfig::weighted(1 + i % 3);
                    let deadline = SloClass::with_deadline(20.0 + f64::from(i));
                    match i % 3 {
                        0 => plane.register_tenant_with_slo(config, deadline),
                        _ => plane.register_tenant_with(config),
                    }
                    .unwrap()
                })
                .collect();
            (plane, tenants)
        };
        let (mut parallel, tenants) = build();
        let (mut serial, _) = build();
        for pass in 0..4 {
            let now = 1.0 + 10.0 * pass as f64;
            for (k, &tenant) in tenants.iter().enumerate() {
                for j in 0..=(k + pass) % 3 {
                    let job = spec(&fleet, 5, 10.0 + j as f64);
                    let ticket = parallel.submit(tenant, job.clone(), now).unwrap();
                    assert_eq!(ticket, serial.submit(tenant, job, now).unwrap());
                }
            }
            let admitted = parallel.admit(now + 1.0).unwrap();
            let mut one_by_one = Vec::new();
            for (shard, plane) in serial.shards_mut().iter_mut().enumerate() {
                for (ticket, job_id) in plane.admit(now + 1.0).unwrap() {
                    one_by_one.push((GlobalTicket { shard, ticket }, job_id));
                }
            }
            let shards: std::collections::BTreeSet<usize> =
                admitted.iter().map(|(ticket, _)| ticket.shard).collect();
            assert_eq!(shards.len(), 3, "pass {pass}: every shard admits");
            assert_eq!(admitted, one_by_one, "pass {pass}");
            assert_eq!(parallel.encoded_states(), serial.encoded_states(), "pass {pass}");
        }
    }

    #[test]
    fn a_single_shard_plane_matches_the_unsharded_plane_byte_for_byte() {
        let trigger = ScheduleTrigger::new(1, 30.0);
        let mut sharded = ShardedControlPlane::new(1, 8, trigger, CalibrationPolicy::Naive, 1, 7);
        let mut flat = ReplicatedControlPlane::with_policy(trigger, CalibrationPolicy::Naive, 1);
        let mut fleet_a = small_fleet(3);
        let mut fleet_b = small_fleet(3);
        let scheduler = scheduler();

        let t_sharded = sharded.register_tenant(2).unwrap();
        let t_flat = flat.register_tenant(2).unwrap();
        for i in 0..3 {
            sharded.submit(t_sharded, spec(&fleet_a, 5, 30.0 + i as f64), 1.0).unwrap();
            flat.submit(t_flat, spec(&fleet_b, 5, 30.0 + i as f64), 1.0).unwrap();
        }
        sharded.admit(2.0).unwrap();
        flat.admit(2.0).unwrap();
        let out_a = sharded.try_dispatch(31.0, &scheduler, &mut fleet_a).unwrap();
        let out_b = flat.try_dispatch(31.0, &scheduler, &mut fleet_b).unwrap();
        assert_eq!(out_a.len(), 1);
        assert!(out_b.is_some());

        // Compare the encode_state oracle (real bytes — the hash digests
        // would differ here because the sharded plane journals lease
        // events). The unsharded encoding has no lease section; strip the
        // sharded plane's full-fleet lease line before comparing.
        let encoded = sharded.shard(0).encode_state();
        let encoded =
            encoded.lines().filter(|l| !l.starts_with("lease ")).collect::<Vec<_>>().join("\n");
        assert_eq!(encoded, flat.encode_state());
    }

    #[test]
    fn completions_route_to_the_leasing_shard() {
        let mut plane = plane(2, 8);
        let mut fleet = small_fleet(3);
        let scheduler = scheduler();
        let mut tenants = Vec::new();
        for _ in 0..4 {
            tenants.push(plane.register_tenant(1).unwrap());
        }
        let mut tickets = Vec::new();
        for &tenant in &tenants {
            tickets.push(plane.submit(tenant, spec(&fleet, 5, 25.0), 1.0).unwrap());
        }
        plane.admit(2.0).unwrap();
        let outcomes = plane.try_dispatch(31.0, &scheduler, &mut fleet).unwrap();
        assert!(!outcomes.is_empty(), "at least one shard dispatched");

        let horizon = plane.next_event_s(&fleet).expect("work is running");
        let mut rng = StdRng::seed_from_u64(9);
        fleet.advance_to(horizon + 1.0, &mut rng);
        let resolved = plane.drain_and_note(&mut fleet).unwrap();
        assert!(!resolved.is_empty());
        for (ticket, completion) in &resolved {
            assert_eq!(
                plane.allocator().owner(completion.qpu_index),
                Some(ticket.shard),
                "a completion must be credited to the shard leasing its QPU"
            );
            assert!(
                matches!(plane.poll(*ticket), Some(TicketStatus::Completed { .. })),
                "the shard that dispatched the job resolves its ticket"
            );
        }
    }

    /// An elastic QPU is in no lease set, so its completions route by the
    /// provisioning shard's journaled `elastic()` set — not to shard 0, where
    /// the colliding shard-local job id belongs to a different ticket.
    #[test]
    fn completions_on_an_elastic_qpu_route_to_the_provisioning_shard() {
        use qonductor_backend::{FleetMember, JobQueue, Qpu, QpuModel, ResourceClass};
        let mut plane = plane(2, 8);
        let mut fleet = small_fleet(3);
        let mut rng = StdRng::seed_from_u64(9);
        let elastic = fleet.push_member(FleetMember {
            qpu: Qpu::new("elastic_sim_0", QpuModel::falcon_27(), 1.3, &mut rng)
                .with_resource_class(ResourceClass::Simulator),
            queue: JobQueue::new(),
        });
        assert_eq!(elastic, 8);
        assert!(plane.shards_mut()[1]
            .provision_qpu(0.5, elastic, ResourceClass::Simulator)
            .unwrap());

        let tenants: Vec<TenantId> = (0..4).map(|_| plane.register_tenant(1).unwrap()).collect();
        let on = |shard| *tenants.iter().find(|&&t| shard_of_global(t, 2) == shard).unwrap();
        // Shard 0: a long job on its own lease. Shard 1: a short job feasible
        // on the elastic QPU alone. Both are job 0 of their shard.
        let long = plane.submit(on(0), spec(&fleet, 5, 500.0), 1.0).unwrap();
        let mut only_elastic = spec(&fleet, 5, 10.0);
        for qpu in 0..elastic {
            only_elastic.fidelity_per_qpu[qpu] = 0.0;
            only_elastic.exec_time_per_qpu[qpu] = f64::INFINITY;
        }
        let short = plane.submit(on(1), only_elastic, 1.0).unwrap();
        let admitted = plane.admit(2.0).unwrap();
        assert_eq!(admitted.iter().map(|&(_, job)| job).collect::<Vec<_>>(), vec![0, 0]);
        let outcomes = plane.try_dispatch(31.0, &scheduler(), &mut fleet).unwrap();
        assert_eq!(outcomes.len(), 2, "both shards dispatch");

        fleet.advance_to(100.0, &mut rng);
        let resolved = plane.drain_and_note(&mut fleet).unwrap();
        assert_eq!(resolved.len(), 1, "only the short job has finished");
        assert_eq!((resolved[0].0, resolved[0].1.qpu_index), (short, elastic));
        assert!(matches!(plane.poll(short), Some(TicketStatus::Completed { .. })));
        assert!(
            !matches!(plane.poll(long), Some(TicketStatus::Completed { .. })),
            "shard 0's job 0 is still running"
        );
    }

    #[test]
    fn per_shard_failover_is_byte_exact_and_rebuilds_the_allocator() {
        let mut plane = plane(2, 8);
        let fleet = small_fleet(3);
        let mut tenants = Vec::new();
        for weight in [2u32, 1, 2, 1] {
            tenants.push(plane.register_tenant(weight).unwrap());
        }
        for &tenant in &tenants {
            plane.submit(tenant, spec(&fleet, 5, 20.0), 1.0).unwrap();
        }
        plane.admit(2.0).unwrap();

        let before = plane.state_digests();
        plane.crash_all_leaders();
        plane.failover_all().unwrap();
        assert_eq!(plane.state_digests(), before, "each shard replays to its exact digest");

        let rebuilt = plane.rebuild_allocator().unwrap();
        assert_eq!(&rebuilt, plane.allocator(), "the live allocator matches the journals");
    }

    #[test]
    fn releases_are_refused_while_the_qpu_queue_is_busy() {
        let mut plane = plane(2, 8);
        let mut fleet = small_fleet(3);
        let scheduler = scheduler();
        let tenant = plane.register_tenant(1).unwrap();
        let (shard, _) = plane.placement_of(tenant).unwrap();
        plane.submit(tenant, spec(&fleet, 5, 40.0), 1.0).unwrap();
        plane.admit(2.0).unwrap();
        let outcomes = plane.try_dispatch(31.0, &scheduler, &mut fleet).unwrap();
        assert!(outcomes.iter().any(|(s, _)| *s == shard), "the home shard dispatched");

        let busy_qpu = fleet
            .members()
            .iter()
            .position(|m| m.queue.pending_len() > 0)
            .expect("the dispatched job occupies a queue");
        assert_eq!(plane.allocator().owner(busy_qpu), Some(shard));
        let pending_jobs = fleet.members()[busy_qpu].queue.pending_len();
        assert_eq!(
            plane.release_qpu(shard, busy_qpu, &fleet).unwrap(),
            Err(ReleaseError::QueueBusy { qpu_index: busy_qpu, pending_jobs }),
            "a lease with in-flight work refuses release with the typed reason"
        );
        let other = (shard + 1) % 2;
        assert_eq!(
            plane.release_qpu(other, busy_qpu, &fleet).unwrap(),
            Err(ReleaseError::NotOwner {
                qpu_index: busy_qpu,
                requested_by: other,
                held_by: Some(shard)
            }),
            "a non-owner release reports the actual holder"
        );

        // Drain the work; the release then goes through and the QPU can move.
        let horizon = plane.next_event_s(&fleet).expect("work is running");
        let mut rng = StdRng::seed_from_u64(9);
        fleet.advance_to(horizon + 1.0, &mut rng);
        plane.drain_and_note(&mut fleet).unwrap();
        assert_eq!(plane.release_qpu(shard, busy_qpu, &fleet).unwrap(), Ok(()));
        assert_eq!(plane.allocator().owner(busy_qpu), None);
        assert!(plane.lease_qpu(other, busy_qpu).unwrap());
        assert_eq!(plane.allocator().owner(busy_qpu), Some(other));
        assert!(plane.rebuild_allocator().is_ok(), "journals stay conflict-free after a move");
    }

    #[test]
    fn the_router_balances_a_large_tenant_population() {
        // Satellite check: FNV-1a over 10⁵ sequential tenant ids must spread
        // evenly — the heaviest shard may not carry more than 1.1× the
        // lightest (the hash is uniform; sequential ids are the worst
        // realistic input since registration assigns them in order).
        const TENANTS: u32 = 100_000;
        for num_shards in [2usize, 4, 8, 16] {
            let mut load = vec![0u32; num_shards];
            for tenant in 0..TENANTS {
                load[shard_of_global(tenant, num_shards)] += 1;
            }
            let max = *load.iter().max().unwrap();
            let min = *load.iter().min().unwrap();
            assert!(min > 0, "no shard may be starved at {num_shards} shards");
            let ratio = f64::from(max) / f64::from(min);
            assert!(
                ratio < 1.1,
                "shard load imbalance {ratio:.3} at {num_shards} shards (max {max}, min {min})"
            );
        }
    }

    #[test]
    fn global_tickets_roundtrip_through_their_text_encoding() {
        let tickets = [
            GlobalTicket { shard: 0, ticket: JobTicket { tenant: 0, ticket: 0 } },
            GlobalTicket { shard: 7, ticket: JobTicket { tenant: 42, ticket: 9_001 } },
            GlobalTicket {
                shard: usize::MAX,
                ticket: JobTicket { tenant: u32::MAX, ticket: u64::MAX },
            },
        ];
        for ticket in tickets {
            let encoded = ticket.encode();
            assert_eq!(GlobalTicket::decode(&encoded), Some(ticket), "roundtrip of {encoded}");
        }
        for bad in ["", "1", "1:2", "1:2:3:4", "x:2:3", "1:-2:3", "1:2:3 "] {
            assert_eq!(GlobalTicket::decode(bad), None, "malformed input {bad:?} must be rejected");
        }
    }
}
