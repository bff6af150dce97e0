//! Shared fleet allocator for the sharded control plane: QPU capacity is
//! handed to shards as exclusive *leases*. The allocator itself is volatile
//! bookkeeping — the durable record of every grant/release is the
//! [`ControlPlaneEvent::LeaseGranted`] / [`ControlPlaneEvent::LeaseReleased`]
//! journal entries on the *granting* shard — so after any number of shard
//! failovers the allocator is reconstructed from the per-shard lease sets
//! with [`FleetAllocator::rebuild`], which enforces the no-double-grant
//! invariant: two shards claiming the same QPU is a replay bug, not a state
//! to silently merge.
//!
//! [`ControlPlaneEvent::LeaseGranted`]: crate::replication::ControlPlaneEvent::LeaseGranted
//! [`ControlPlaneEvent::LeaseReleased`]: crate::replication::ControlPlaneEvent::LeaseReleased

use std::collections::BTreeSet;
use std::fmt;

/// A QPU claimed by more than one shard's journal — capacity would be
/// double-granted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaseConflict {
    /// The doubly-claimed QPU.
    pub qpu_index: usize,
    /// The shard that already held the lease.
    pub held_by: usize,
    /// The shard whose claim collided.
    pub claimed_by: usize,
}

/// Why a lease release was refused — typed like [`LeaseConflict`] so callers
/// can tell an ownership bug apart from a transiently busy queue instead of
/// collapsing both into a silent `false`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReleaseError {
    /// The releasing shard does not hold the lease.
    NotOwner {
        /// The QPU whose release was requested.
        qpu_index: usize,
        /// The shard that asked.
        requested_by: usize,
        /// The actual holder, if any.
        held_by: Option<usize>,
    },
    /// The QPU's queue still holds dispatched work; releasing mid-execution
    /// would re-route those completions to the next lease holder.
    QueueBusy {
        /// The QPU whose release was requested.
        qpu_index: usize,
        /// Jobs still pending on its queue.
        pending_jobs: usize,
    },
}

impl fmt::Display for ReleaseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReleaseError::NotOwner { qpu_index, requested_by, held_by } => write!(
                f,
                "shard {requested_by} does not hold the lease on QPU {qpu_index} (holder: {held_by:?})"
            ),
            ReleaseError::QueueBusy { qpu_index, pending_jobs } => write!(
                f,
                "QPU {qpu_index} still has {pending_jobs} pending job(s); release refused"
            ),
        }
    }
}

impl std::error::Error for ReleaseError {}

/// Exclusive-lease bookkeeping over the shared QPU fleet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetAllocator {
    /// `owner_of[qpu] = Some(shard)` while leased.
    owner_of: Vec<Option<usize>>,
}

impl FleetAllocator {
    /// An allocator over `num_qpus` unleased QPUs.
    pub fn new(num_qpus: usize) -> Self {
        FleetAllocator { owner_of: vec![None; num_qpus] }
    }

    /// Number of QPUs under management.
    pub fn num_qpus(&self) -> usize {
        self.owner_of.len()
    }

    /// Grant `qpu_index` to `shard` if it is free (or already held by the
    /// same shard — grants are idempotent per owner). Returns whether the
    /// shard holds the lease afterwards.
    pub(crate) fn try_grant(&mut self, shard: usize, qpu_index: usize) -> bool {
        match self.owner_of[qpu_index] {
            None => {
                self.owner_of[qpu_index] = Some(shard);
                true
            }
            Some(owner) => owner == shard,
        }
    }

    /// Whether [`FleetAllocator::release`] would succeed for this request —
    /// the shard holds the lease and the queue is empty — without mutating.
    /// Lets a write-ahead caller validate before journaling the release.
    pub(crate) fn check_release(
        &self,
        shard: usize,
        qpu_index: usize,
        pending_jobs: usize,
    ) -> Result<(), ReleaseError> {
        if self.owner_of.get(qpu_index).copied().flatten() != Some(shard) {
            return Err(ReleaseError::NotOwner {
                qpu_index,
                requested_by: shard,
                held_by: self.owner(qpu_index),
            });
        }
        if pending_jobs > 0 {
            return Err(ReleaseError::QueueBusy { qpu_index, pending_jobs });
        }
        Ok(())
    }

    /// Release `qpu_index` if `shard` holds it and the QPU's queue is idle
    /// (`pending_jobs` is the caller-observed queue depth). A release by a
    /// non-owner or on a busy queue is refused with the exact typed reason,
    /// never absorbed.
    pub(crate) fn release(
        &mut self,
        shard: usize,
        qpu_index: usize,
        pending_jobs: usize,
    ) -> Result<(), ReleaseError> {
        self.check_release(shard, qpu_index, pending_jobs)?;
        self.owner_of[qpu_index] = None;
        Ok(())
    }

    /// Current lease holder of `qpu_index`.
    pub fn owner(&self, qpu_index: usize) -> Option<usize> {
        self.owner_of.get(qpu_index).copied().flatten()
    }

    /// QPU indices leased by `shard`, ascending.
    #[cfg(test)]
    pub(crate) fn leased_by(&self, shard: usize) -> Vec<usize> {
        self.owner_of
            .iter()
            .enumerate()
            .filter_map(|(qpu, owner)| (*owner == Some(shard)).then_some(qpu))
            .collect()
    }

    /// Reconstruct the allocator from the per-shard journaled lease sets
    /// (`shard_leases[s]` = the QPU indices shard `s` holds after replay).
    /// Fails with the exact conflict if two shards claim one QPU — the
    /// invariant a crash mid-lease must not break.
    pub(crate) fn rebuild(
        shard_leases: &[BTreeSet<usize>],
        num_qpus: usize,
    ) -> Result<Self, LeaseConflict> {
        let mut allocator = FleetAllocator::new(num_qpus);
        for (shard, held) in shard_leases.iter().enumerate() {
            for &qpu_index in held {
                if let Some(held_by) = allocator.owner(qpu_index) {
                    return Err(LeaseConflict { qpu_index, held_by, claimed_by: shard });
                }
                allocator.owner_of[qpu_index] = Some(shard);
            }
        }
        Ok(allocator)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grants_are_exclusive_and_idempotent_per_owner() {
        let mut alloc = FleetAllocator::new(4);
        assert!(alloc.try_grant(0, 2));
        assert!(alloc.try_grant(0, 2), "re-grant to the owner is idempotent");
        assert!(!alloc.try_grant(1, 2), "a held QPU is refused to another shard");
        assert_eq!(alloc.owner(2), Some(0));
        assert_eq!(alloc.leased_by(0), vec![2]);
        assert_eq!(alloc.leased_by(1), Vec::<usize>::new());
    }

    #[test]
    fn release_is_owner_gated_with_typed_errors() {
        let mut alloc = FleetAllocator::new(2);
        alloc.try_grant(0, 1);
        assert_eq!(
            alloc.release(1, 1, 0),
            Err(ReleaseError::NotOwner { qpu_index: 1, requested_by: 1, held_by: Some(0) }),
            "a non-owner release reports the actual holder"
        );
        assert_eq!(alloc.owner(1), Some(0));
        assert_eq!(alloc.release(0, 1, 0), Ok(()));
        assert_eq!(alloc.owner(1), None);
        assert_eq!(
            alloc.release(0, 1, 0),
            Err(ReleaseError::NotOwner { qpu_index: 1, requested_by: 0, held_by: None }),
            "double release reports the lease as free"
        );
        assert!(alloc.try_grant(1, 1), "a released QPU is grantable again");
    }

    #[test]
    fn busy_queue_release_is_a_typed_error() {
        let mut alloc = FleetAllocator::new(2);
        alloc.try_grant(0, 0);
        assert_eq!(
            alloc.release(0, 0, 3),
            Err(ReleaseError::QueueBusy { qpu_index: 0, pending_jobs: 3 }),
            "a busy queue refuses release with the observed depth"
        );
        assert_eq!(alloc.owner(0), Some(0), "the refused release left the lease in place");
        assert_eq!(alloc.check_release(0, 0, 0), Ok(()));
        assert_eq!(alloc.release(0, 0, 0), Ok(()));
    }

    #[test]
    fn rebuild_reconstructs_ownership_and_rejects_double_grants() {
        let shard0: BTreeSet<usize> = [0, 2].into_iter().collect();
        let shard1: BTreeSet<usize> = [1, 3].into_iter().collect();
        let alloc = FleetAllocator::rebuild(&[shard0.clone(), shard1], 4).unwrap();
        assert_eq!(alloc.owner(0), Some(0));
        assert_eq!(alloc.owner(1), Some(1));
        assert_eq!(alloc.leased_by(0), vec![0, 2]);

        let overlapping: BTreeSet<usize> = [2, 3].into_iter().collect();
        assert_eq!(
            FleetAllocator::rebuild(&[shard0, overlapping], 4),
            Err(LeaseConflict { qpu_index: 2, held_by: 0, claimed_by: 1 })
        );
    }
}
