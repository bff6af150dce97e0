//! Leader election *inside* the replicated store: the leader lease is a
//! typed `(node, term)` record in the quorum store, acquired with a
//! compare-and-swap.
//!
//! An election quorum separate from the journal quorum would be a second
//! fault domain: it could elect a leader while the data replicas have lost
//! their majority (or vice versa), a split-brain window where "who leads" and
//! "what is committed" disagree. Here a campaign is a CAS against the same
//! replica set the journal commits to, so leadership exists **iff** the data
//! quorum does. Losing the store majority revokes the ability to elect; a
//! control-plane node crash is tracked as a volatile liveness flag and merely
//! invalidates the lease until the next campaign.
//!
//! Campaigns are deterministic (the lowest live node wins), matching the
//! deterministic simulation style of the rest of the crate: what is being
//! modeled is the *fault-domain coupling*, not timeout randomization.

use crate::kvstore::{ReplicatedStore, StoreError};

/// Deterministic leader election whose lease record lives in the replicated
/// store itself.
#[derive(Debug, Clone)]
pub struct StoreElection {
    store: ReplicatedStore,
    /// Volatile liveness of each electable control-plane node.
    crashed: Vec<bool>,
}

impl StoreElection {
    /// Create an election over `num_nodes` electable nodes whose lease lives
    /// in `store`. No campaign is run; call [`StoreElection::campaign`].
    pub fn new(store: ReplicatedStore, num_nodes: usize) -> Self {
        assert!(num_nodes > 0, "an election needs at least one node");
        StoreElection { store, crashed: vec![false; num_nodes] }
    }

    /// Number of electable nodes.
    pub fn len(&self) -> usize {
        self.crashed.len()
    }

    /// `true` if there are no electable nodes (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.crashed.is_empty()
    }

    /// `true` while `id` is crashed.
    pub fn is_crashed(&self, id: usize) -> bool {
        self.crashed[id]
    }

    /// Crash node `id`. If it holds the lease, the lease is implicitly
    /// invalid until the next [`StoreElection::campaign`].
    pub fn crash(&mut self, id: usize) {
        self.crashed[id] = true;
    }

    /// Recover node `id`. A recovered ex-leader does **not** reclaim the
    /// lease: it rejoins as a follower and only leads again if a later
    /// campaign elects it.
    pub fn recover(&mut self, id: usize) {
        self.crashed[id] = false;
    }

    /// The current leader: the live lease holder, or `None` when the lease is
    /// absent, held by a crashed node, or unreadable (every store replica
    /// down). No side effects — reading never campaigns.
    pub fn leader(&self) -> Option<usize> {
        let (id, _) = self.store.lease()?;
        (id < self.len() && !self.crashed[id]).then_some(id)
    }

    /// Term of the current lease record (0 before the first campaign).
    pub fn current_term(&self) -> u64 {
        self.store.lease().map_or(0, |(_, term)| term)
    }

    /// Run a campaign: if the lease holder is alive it is confirmed;
    /// otherwise the lowest live node takes the lease at `term + 1` via CAS
    /// against the store quorum.
    ///
    /// Returns the leader after the campaign, `Ok(None)` when every node is
    /// crashed, and `Err(NoQuorum)` when the store majority is down — with
    /// the lease in the data quorum, no journal majority means no election.
    pub fn campaign(&mut self) -> Result<Option<usize>, StoreError> {
        if let Some(leader) = self.leader() {
            return Ok(Some(leader));
        }
        let Some(candidate) = self.crashed.iter().position(|&c| !c) else {
            return Ok(None);
        };
        let lease = self.store.lease();
        let term = lease.map_or(0, |(_, term)| term);
        // Single-writer in this deterministic simulation: the CAS can only
        // fail if someone raced us, and then the winner's lease is the answer.
        if self.store.compare_and_swap_lease(lease, (candidate, term + 1))? {
            Ok(Some(candidate))
        } else {
            Ok(self.leader())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn election() -> StoreElection {
        StoreElection::new(ReplicatedStore::new(1), 3)
    }

    #[test]
    fn first_campaign_elects_the_lowest_live_node() {
        let mut e = election();
        assert_eq!(e.leader(), None, "no lease before the first campaign");
        assert_eq!(e.campaign(), Ok(Some(0)));
        assert_eq!(e.leader(), Some(0));
        assert_eq!(e.current_term(), 1);
        // A repeat campaign confirms the live holder without a new term.
        assert_eq!(e.campaign(), Ok(Some(0)));
        assert_eq!(e.current_term(), 1);
    }

    #[test]
    fn crashed_leader_is_replaced_and_does_not_reclaim_the_lease() {
        let mut e = election();
        e.campaign().unwrap();
        e.crash(0);
        assert_eq!(e.leader(), None, "a crashed holder invalidates the lease");
        assert_eq!(e.campaign(), Ok(Some(1)));
        assert_eq!(e.current_term(), 2);
        e.recover(0);
        assert_eq!(e.leader(), Some(1), "the recovered ex-leader rejoins as follower");
        assert_eq!(e.campaign(), Ok(Some(1)));
    }

    #[test]
    fn all_nodes_crashed_means_no_leader() {
        let mut e = election();
        e.campaign().unwrap();
        for id in 0..e.len() {
            e.crash(id);
        }
        assert_eq!(e.leader(), None);
        assert_eq!(e.campaign(), Ok(None));
    }

    /// The fault-domain coupling this module exists for: once the *store*
    /// majority is gone, no leader can be elected — leadership cannot outlive
    /// the data quorum it journals to.
    #[test]
    fn losing_the_store_quorum_blocks_elections() {
        let store = ReplicatedStore::new(1);
        let mut e = StoreElection::new(store.clone(), 3);
        e.campaign().unwrap();
        e.crash(0);
        store.crash_replica(0);
        store.crash_replica(1);
        assert_eq!(e.campaign(), Err(StoreError::NoQuorum));
        store.recover_replica(0);
        assert_eq!(e.campaign(), Ok(Some(1)), "election resumes with the quorum");
    }

    #[test]
    fn a_single_node_is_elected_by_its_first_campaign() {
        let mut e = StoreElection::new(ReplicatedStore::new(0), 1);
        assert_eq!(e.campaign(), Ok(Some(0)));
        assert_eq!((e.leader(), e.current_term()), (Some(0), 1));
    }

    /// Five nodes over an `f = 2` store: each leader crash hands the lease to
    /// the next live node at a higher term. The only quorum is the store's —
    /// two live nodes of five still elect — so what ends elections is losing
    /// the store majority (`NoQuorum`) or the last live node (`Ok(None)`).
    #[test]
    fn five_nodes_survive_two_leader_crashes_until_a_majority_is_gone() {
        let store = ReplicatedStore::new(2);
        let mut e = StoreElection::new(store.clone(), 5);
        assert_eq!(e.campaign(), Ok(Some(0)));
        for (crashed, next) in [(0, 1), (1, 2)] {
            let term = e.current_term();
            e.crash(crashed);
            assert_eq!(e.campaign(), Ok(Some(next)));
            assert_eq!(e.current_term(), term + 1);
        }
        e.crash(2);
        // Two of five store replicas down is still a majority: node 3 wins.
        store.crash_replica(0);
        store.crash_replica(1);
        assert_eq!(e.campaign(), Ok(Some(3)));
        e.crash(3);
        store.crash_replica(2);
        assert_eq!(e.campaign(), Err(StoreError::NoQuorum));
        assert_eq!(e.leader(), None);
        store.recover_replica(2);
        e.crash(4);
        assert_eq!(e.campaign(), Ok(None), "no live node is left to elect");
    }

    #[test]
    fn lease_is_shared_between_clones_of_the_store() {
        let store = ReplicatedStore::new(1);
        let mut a = StoreElection::new(store.clone(), 3);
        let b = StoreElection::new(store, 3);
        a.campaign().unwrap();
        assert_eq!(b.leader(), Some(0), "the lease record is in the shared quorum store");
    }

    /// The whole store goes down after a campaign that only replicas 1 and 2
    /// applied, and comes back one replica at a time, starting with the
    /// stale one: once a majority is live again, it serves that lease.
    #[test]
    fn the_committed_lease_survives_a_full_outage_with_staggered_recovery() {
        let store = ReplicatedStore::new(1);
        let mut e = StoreElection::new(store.clone(), 3);
        assert_eq!(e.campaign(), Ok(Some(0)));
        store.crash_replica(0);
        e.crash(0);
        assert_eq!(e.campaign(), Ok(Some(1)));
        store.crash_replica(1);
        store.crash_replica(2);
        store.recover_replica(0);
        store.recover_replica(1);
        assert_eq!((e.leader(), e.current_term()), (Some(1), 2));
        e.recover(0);
        assert_eq!(e.campaign(), Ok(Some(1)), "the holder is confirmed, not replaced");
        assert_eq!(e.current_term(), 2);
    }
}
