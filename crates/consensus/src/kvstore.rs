//! Replicated store backing the control plane (§4): the journal of job and
//! tenant state, its snapshot and the leader lease are persisted on a quorum
//! of 2f+1 replicas; writes commit once a majority of live replicas
//! acknowledge them.
//!
//! Each replica holds exactly what the control plane journals, committed
//! through the same quorum and the same write counter, so election and data
//! share one fault domain:
//! - one [`Journal`]: its lines in index order, the index of the first line
//!   it still holds, and the installed snapshot, which covers every index
//!   below that one. An append is one committed write that pushes its lines
//!   onto every live replica; a snapshot install is one committed write that
//!   sets the snapshot at the journal's end and drops every line;
//! - the leader lease `(node, term)`, written by a compare-and-swap.
//!
//! Stored lines and snapshots are immutable shared strings (`Arc<str>`): a
//! write makes one copy of each and hands every live replica a pointer to it,
//! so a multi-megabyte snapshot is held once however many replicas apply it,
//! and compaction frees each line once. Replicas stay independent all the
//! same — nothing writes through a shared value; a replica changes only by
//! pointing at another value or dropping its pointer.
//!
//! A crashed replica keeps what it held. When one rejoins, every live replica
//! catches up to the freshest live one by the index of its last applied
//! write. Each committed write reached a majority, so once a majority is live
//! the freshest live replica holds every committed write — also after the
//! whole store went down and comes back one replica at a time.

use parking_lot::RwLock;
use std::collections::VecDeque;
use std::sync::Arc;

/// The leader lease: `(node id, term)`.
pub(crate) type Lease = (usize, u64);

/// The journal on one replica.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Journal {
    /// Index of `lines[0]`; the snapshot covers every index below it.
    pub(crate) first: u64,
    /// The retained lines, in index order.
    pub(crate) lines: VecDeque<Arc<str>>,
    /// The latest installed snapshot.
    pub(crate) snapshot: Option<Arc<str>>,
}

impl Journal {
    /// The index the next appended line receives.
    pub(crate) fn end(&self) -> u64 {
        self.first + self.lines.len() as u64
    }
}

/// A single replica's storage.
#[derive(Debug, Default)]
struct Replica {
    journal: Journal,
    lease: Option<Lease>,
    /// Index of the last applied write.
    applied_index: u64,
    /// `true` while the replica is down.
    crashed: bool,
}

/// Everything behind the store's one lock.
#[derive(Debug, Default)]
struct Replicas {
    replicas: Vec<Replica>,
    /// Number of committed writes (the replication log length).
    committed: u64,
}

impl Replicas {
    fn has_quorum(&self) -> bool {
        self.replicas.iter().filter(|r| !r.crashed).count() * 2 > self.replicas.len()
    }

    /// The most up-to-date live replica — the one reads are served from.
    fn freshest(&self) -> Option<&Replica> {
        self.replicas.iter().filter(|r| !r.crashed).max_by_key(|r| r.applied_index)
    }

    /// Commit one write: refused without a quorum (no replica changes),
    /// otherwise applied by `write` to every live replica under one new
    /// committed index.
    fn commit(&mut self, mut write: impl FnMut(&mut Replica)) -> Result<(), StoreError> {
        if !self.has_quorum() {
            return Err(StoreError::NoQuorum);
        }
        self.committed += 1;
        for r in self.replicas.iter_mut().filter(|r| !r.crashed) {
            write(r);
            r.applied_index = self.committed;
        }
        Ok(())
    }
}

/// Errors returned by the replicated store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Fewer than a majority of replicas are alive: writes cannot commit.
    NoQuorum,
}

/// A majority-quorum replicated store holding one journal and the leader
/// lease.
///
/// Thread-safe: the store can be shared across the control-plane threads
/// (API server, job manager, scheduler) via `clone()`; all clones view the
/// same replicated state.
#[derive(Debug, Clone, Default)]
pub struct ReplicatedStore {
    state: Arc<RwLock<Replicas>>,
}

impl ReplicatedStore {
    /// Create a store replicated over `2f + 1` replicas.
    pub fn new(fault_tolerance: usize) -> Self {
        let replicas = (0..2 * fault_tolerance + 1).map(|_| Replica::default()).collect();
        ReplicatedStore { state: Arc::new(RwLock::new(Replicas { replicas, committed: 0 })) }
    }

    /// Number of replicas (2f + 1).
    #[cfg(test)]
    pub(crate) fn replica_count(&self) -> usize {
        self.state.read().replicas.len()
    }

    /// `true` if a write quorum (majority of all replicas) is available.
    pub fn has_quorum(&self) -> bool {
        self.state.read().has_quorum()
    }

    /// Crash one replica (its data is retained but it stops acknowledging writes).
    pub fn crash_replica(&self, index: usize) {
        self.state.write().replicas[index].crashed = true;
    }

    /// Recover a crashed replica with the state it retained, then catch every
    /// live replica up to the freshest live one (a copy of its journal and
    /// lease: the stored strings themselves are shared).
    pub fn recover_replica(&self, index: usize) {
        let replicas = &mut self.state.write().replicas;
        replicas[index].crashed = false;
        let freshest = replicas
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.crashed)
            .max_by_key(|(_, r)| r.applied_index)
            .map_or(index, |(i, _)| i);
        let source = &replicas[freshest];
        let (journal, lease, applied) =
            (source.journal.clone(), source.lease, source.applied_index);
        for r in replicas.iter_mut().filter(|r| !r.crashed && r.applied_index < applied) {
            r.journal.clone_from(&journal);
            r.lease = lease;
            r.applied_index = applied;
        }
    }

    /// Number of committed writes (the replication log length).
    pub fn committed_writes(&self) -> u64 {
        self.state.read().committed
    }

    /// The committed leader lease, read from the freshest live replica;
    /// `None` before the first one is written or while every replica is
    /// down.
    pub(crate) fn lease(&self) -> Option<Lease> {
        self.state.read().freshest()?.lease
    }

    /// Atomic compare-and-swap of the leader lease: write `new` only if the
    /// committed lease currently equals `expected` (`None` = no lease yet).
    ///
    /// Returns `Ok(true)` if the swap committed, `Ok(false)` if the committed
    /// lease did not match `expected` (nothing is written), and
    /// `Err(NoQuorum)` when a write quorum is unavailable — a CAS is a write
    /// and must never "succeed" against a minority. The read and the
    /// conditional write happen under the same store lock, so two racing
    /// campaigns cannot both acquire the lease.
    pub(crate) fn compare_and_swap_lease(
        &self,
        expected: Option<Lease>,
        new: Lease,
    ) -> Result<bool, StoreError> {
        let mut state = self.state.write();
        if !state.has_quorum() {
            return Err(StoreError::NoQuorum);
        }
        if state.freshest().and_then(|r| r.lease) != expected {
            return Ok(false);
        }
        state.commit(|r| r.lease = Some(new))?;
        Ok(true)
    }

    /// Append `lines` to the journal as one committed write: every live
    /// replica gets a pointer to each line, or (without a quorum) no replica
    /// changes. Returns the index of the first line.
    pub(crate) fn append_lines(&self, lines: &[Arc<str>]) -> Result<u64, StoreError> {
        let mut first = 0;
        self.state.write().commit(|r| {
            first = r.journal.end();
            r.journal.lines.extend(lines.iter().cloned());
        })?;
        Ok(first)
    }

    /// Install `payload` as the snapshot covering the whole journal and drop
    /// every line, as one committed write (or, without a quorum, none: no
    /// replica changes). Returns the journal's end, the first index the
    /// snapshot does not cover.
    pub(crate) fn install_snapshot(&self, payload: Arc<str>) -> Result<u64, StoreError> {
        let mut end = 0;
        self.state.write().commit(|r| {
            let journal = &mut r.journal;
            end = journal.end();
            journal.lines.clear();
            journal.first = end;
            journal.snapshot = Some(Arc::clone(&payload));
        })?;
        Ok(end)
    }

    /// `visit` the journal as the freshest live replica holds it, in place
    /// (under the store's read lock, so `visit` must not call back into the
    /// store); `None` when every replica is down.
    pub(crate) fn with_journal<R>(&self, visit: impl FnOnce(&Journal) -> R) -> Option<R> {
        self.state.read().freshest().map(|newest| visit(&newest.journal))
    }
}

/// Per-replica views for the store's own tests and the log's: what one
/// replica holds, crashed or not, with the shared values themselves.
#[cfg(test)]
impl ReplicatedStore {
    pub(crate) fn replica_journal(&self, index: usize) -> Journal {
        self.state.read().replicas[index].journal.clone()
    }

    pub(crate) fn replica_lease(&self, index: usize) -> Option<Lease> {
        self.state.read().replicas[index].lease
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lines(values: &[&str]) -> Vec<Arc<str>> {
        values.iter().map(|&value| value.into()).collect()
    }

    /// The journal's lines as the freshest live replica serves them.
    fn served(store: &ReplicatedStore) -> Vec<Arc<str>> {
        store.with_journal(|j| j.lines.iter().cloned().collect()).unwrap_or_default()
    }

    #[test]
    fn writes_survive_single_replica_failure() {
        let store = ReplicatedStore::new(1);
        store.append_lines(&lines(&["a"])).unwrap();
        store.crash_replica(0);
        assert!(store.has_quorum());
        store.append_lines(&lines(&["b"])).unwrap();
        assert_eq!(served(&store), lines(&["a", "b"]));
    }

    #[test]
    fn losing_the_majority_blocks_writes() {
        let store = ReplicatedStore::new(1);
        store.append_lines(&lines(&["a"])).unwrap();
        store.crash_replica(0);
        store.crash_replica(1);
        assert!(!store.has_quorum());
        assert_eq!(store.append_lines(&lines(&["b"])), Err(StoreError::NoQuorum));
        // Reads from the surviving replica still work.
        assert_eq!(served(&store), lines(&["a"]));
    }

    #[test]
    fn recovered_replica_catches_up() {
        let store = ReplicatedStore::new(1);
        store.append_lines(&lines(&["a"])).unwrap();
        store.crash_replica(2);
        store.append_lines(&lines(&["b"])).unwrap();
        assert_eq!(store.compare_and_swap_lease(None, (0, 1)), Ok(true));
        store.recover_replica(2);
        // Crash the other two: replica 2 must now serve the latest state alone.
        store.crash_replica(0);
        store.crash_replica(1);
        assert_eq!(served(&store), lines(&["a", "b"]));
        assert_eq!(store.lease(), Some((0, 1)));
    }

    /// The whole store goes down after a write that only replicas 1 and 2
    /// applied, and comes back one replica at a time, starting with the
    /// stale one: once a majority is live again, it serves that write.
    #[test]
    fn a_committed_line_survives_a_full_outage_with_staggered_recovery() {
        let store = ReplicatedStore::new(1);
        store.append_lines(&lines(&["a"])).unwrap();
        store.crash_replica(0);
        store.append_lines(&lines(&["b"])).unwrap();
        store.crash_replica(1);
        store.crash_replica(2);
        store.recover_replica(0);
        assert_eq!(served(&store), lines(&["a"]), "alone, replica 0 serves what it retained");
        store.recover_replica(1);
        assert_eq!(served(&store), lines(&["a", "b"]));
        for replica in 0..2 {
            assert_eq!(store.replica_journal(replica).lines, lines(&["a", "b"]), "{replica}");
        }
        assert_eq!(store.append_lines(&lines(&["c"])), Ok(2));
    }

    #[test]
    fn compare_and_swap_is_conditional_on_the_committed_value() {
        let store = ReplicatedStore::new(1);
        // No lease yet: only the None-expectation succeeds.
        assert_eq!(store.compare_and_swap_lease(Some((0, 1)), (1, 2)), Ok(false));
        assert_eq!(store.lease(), None);
        assert_eq!(store.compare_and_swap_lease(None, (0, 1)), Ok(true));
        assert_eq!(store.lease(), Some((0, 1)));
        // A lease is held: a stale expectation loses, the current lease wins.
        assert_eq!(store.compare_and_swap_lease(None, (9, 9)), Ok(false));
        assert_eq!(store.compare_and_swap_lease(Some((0, 1)), (1, 2)), Ok(true));
        assert_eq!(store.lease(), Some((1, 2)));
        assert_eq!(store.committed_writes(), 2, "a lost compare writes nothing");
    }

    #[test]
    fn compare_and_swap_requires_a_quorum() {
        let store = ReplicatedStore::new(1);
        store.compare_and_swap_lease(None, (0, 1)).unwrap();
        store.crash_replica(0);
        store.crash_replica(1);
        assert_eq!(store.compare_and_swap_lease(Some((0, 1)), (1, 2)), Err(StoreError::NoQuorum));
        // The surviving minority still serves the old lease.
        assert_eq!(store.lease(), Some((0, 1)));
    }

    /// A journal of six lines, `e0`..`e5`, with the lease `(0, 1)`.
    fn journal_shaped_store() -> ReplicatedStore {
        let store = ReplicatedStore::new(1);
        store.append_lines(&lines(&["e0", "e1", "e2", "e3", "e4", "e5"])).unwrap();
        store.compare_and_swap_lease(None, (0, 1)).unwrap();
        store
    }

    /// What each replica holds, crashed or live.
    fn replicas(store: &ReplicatedStore) -> Vec<(Journal, Option<Lease>)> {
        (0..store.replica_count())
            .map(|r| (store.replica_journal(r), store.replica_lease(r)))
            .collect()
    }

    #[test]
    fn append_lines_commits_the_whole_batch_as_one_write() {
        let store = ReplicatedStore::new(1);
        assert_eq!(store.append_lines(&lines(&["a", "b"])), Ok(0));
        assert_eq!(store.committed_writes(), 1, "a batch is one committed write");
        assert_eq!(store.append_lines(&lines(&["c"])), Ok(2));
        assert_eq!(store.committed_writes(), 2);
        let held = store.with_journal(|j| (j.first, j.end(), j.lines.clone()));
        assert_eq!(held, Some((0, 3, lines(&["a", "b", "c"]).into())));
    }

    /// A refused batch — a journal append of several lines, as well as a
    /// lease CAS — applies nothing to any replica, crashed or live: no line,
    /// no lease, and no committed write.
    #[test]
    fn put_all_without_a_quorum_applies_nothing() {
        let store = journal_shaped_store();
        store.crash_replica(0);
        store.crash_replica(1);
        let (before, writes) = (replicas(&store), store.committed_writes());
        assert_eq!(store.append_lines(&lines(&["lost", "too"])), Err(StoreError::NoQuorum));
        assert_eq!(store.compare_and_swap_lease(Some((0, 1)), (1, 2)), Err(StoreError::NoQuorum));
        assert_eq!(store.committed_writes(), writes, "a refused write commits nothing");
        assert_eq!(replicas(&store), before);
        store.recover_replica(0);
        assert_eq!(store.with_journal(Journal::end), Some(6));
        assert_eq!(store.lease(), Some((0, 1)));
    }

    /// A refused compaction — a snapshot install — drops no line and sets no
    /// snapshot on any replica, crashed or live, and commits nothing.
    #[test]
    fn delete_range_without_a_quorum_removes_nothing() {
        let store = journal_shaped_store();
        store.crash_replica(0);
        store.crash_replica(1);
        let (before, writes) = (replicas(&store), store.committed_writes());
        assert_eq!(store.install_snapshot("state".into()), Err(StoreError::NoQuorum));
        assert_eq!(store.committed_writes(), writes, "a refused compaction commits nothing");
        assert_eq!(replicas(&store), before);
        store.recover_replica(0);
        let held = store.with_journal(|j| (j.first, j.lines.len(), j.snapshot.clone()));
        assert_eq!(held, Some((0, 6, None)), "the minority still has every line");
    }

    #[test]
    fn install_snapshot_drops_exactly_the_covered_prefix_in_one_write() {
        let store = journal_shaped_store();
        let before = store.committed_writes();
        assert_eq!(store.install_snapshot("state".into()), Ok(6), "the snapshot covers the end");
        assert_eq!(store.committed_writes(), before + 1, "a snapshot install is one write");
        let held = store.with_journal(Journal::clone).unwrap();
        assert_eq!((held.first, held.end()), (6, 6), "every line is covered and dropped");
        assert_eq!(held.snapshot, Some("state".into()));
        assert_eq!(store.lease(), Some((0, 1)), "the lease is untouched");
        // Lines appended later keep their indices, and the next snapshot
        // covers them: the next index never moves.
        assert_eq!(store.append_lines(&lines(&["e6"])), Ok(6));
        assert_eq!(store.install_snapshot("later".into()), Ok(7));
        assert_eq!(store.install_snapshot("again".into()), Ok(7));
        let held = store.with_journal(|j| (j.first, j.end(), j.snapshot.clone()));
        assert_eq!(held, Some((7, 7, Some("again".into()))));
        assert_eq!(store.committed_writes(), before + 4);
    }

    /// A replica down while a compaction (a snapshot install) commits serves
    /// the compacted journal alone once it has recovered.
    #[test]
    fn a_replica_down_during_delete_range_catches_up_on_recovery() {
        let store = journal_shaped_store();
        store.crash_replica(2);
        store.install_snapshot("state".into()).unwrap();
        store.append_lines(&lines(&["e6"])).unwrap();
        store.recover_replica(2);
        // Replica 2 must now serve the compacted state alone.
        store.crash_replica(0);
        store.crash_replica(1);
        let held = store.with_journal(Journal::clone).unwrap();
        assert_eq!((held.first, held.end()), (6, 7));
        assert_eq!(held.lines, lines(&["e6"]));
        assert_eq!(held.snapshot, Some("state".into()));
        assert_eq!(store.lease(), Some((0, 1)));
    }

    #[test]
    fn clones_share_state_across_threads() {
        let store = ReplicatedStore::new(2);
        assert_eq!(store.replica_count(), 5);
        let clone = store.clone();
        let handle = std::thread::spawn(move || {
            clone.append_lines(&lines(&["written from a thread"])).unwrap();
        });
        handle.join().unwrap();
        assert_eq!(served(&store), lines(&["written from a thread"]));
        assert_eq!(store.committed_writes(), 1);
    }

    /// One write, one allocation: every live replica points at the same
    /// journal lines and the same snapshot — a megabyte one included — and a
    /// recovered replica copies pointers.
    #[test]
    fn live_replicas_share_one_allocation_per_written_value() {
        let store = ReplicatedStore::new(2);
        store.append_lines(&lines(&["a", "b"])).unwrap();
        store.crash_replica(4);
        store.install_snapshot("x".repeat(1 << 20).into()).unwrap();
        store.append_lines(&lines(&["c", "d"])).unwrap();
        store.recover_replica(4);
        let journals: Vec<Journal> = (0..5).map(|r| store.replica_journal(r)).collect();
        for pair in journals.windows(2) {
            assert_eq!(pair[0].lines.len(), 2);
            assert!(pair[0].lines.iter().zip(&pair[1].lines).all(|(a, b)| Arc::ptr_eq(a, b)));
            let (a, b) = (pair[0].snapshot.as_ref().unwrap(), pair[1].snapshot.as_ref().unwrap());
            assert!(Arc::ptr_eq(a, b), "one stored snapshot");
        }
        // A new snapshot points every replica at the new value; the old one
        // is no longer held by any of them.
        let old = journals[0].snapshot.clone().unwrap();
        drop(journals);
        store.install_snapshot("y".into()).unwrap();
        assert_eq!(Arc::strong_count(&old), 1, "only this test still holds the old snapshot");
    }

    /// A replica that is down while a lease CAS, a journal append or a
    /// snapshot install commits sees none of it — its journal and lease are
    /// exactly what they were — until `recover_replica`, which makes it equal
    /// to the freshest replica.
    #[test]
    fn a_replica_down_during_a_write_sees_none_of_it_until_recovery() {
        type Write = fn(&ReplicatedStore);
        let writes: [(&str, Write); 3] = [
            ("compare_and_swap_lease", |store| {
                assert_eq!(store.compare_and_swap_lease(Some((0, 1)), (1, 2)), Ok(true));
            }),
            ("append_lines", |store| {
                store.append_lines(&lines(&["e6", "e7"])).unwrap();
            }),
            ("install_snapshot", |store| {
                store.install_snapshot("state".into()).unwrap();
            }),
        ];
        for (name, write) in writes {
            let store = journal_shaped_store();
            store.crash_replica(1);
            let before = replicas(&store).swap_remove(1);
            write(&store);
            let now = replicas(&store);
            assert_ne!(now[0], before, "{name}: the write committed");
            assert_eq!(now[1], before, "{name}: the crashed replica saw it");
            store.recover_replica(1);
            let (caught_up, freshest) = (store.replica_journal(1), store.replica_journal(0));
            assert_eq!(caught_up, freshest, "{name}: recovery must equal the freshest replica");
            assert_eq!(store.replica_lease(1), store.replica_lease(0), "{name}: the lease too");
            assert!(caught_up.lines.iter().zip(&freshest.lines).all(|(a, b)| Arc::ptr_eq(a, b)));
        }
    }
}
