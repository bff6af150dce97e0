//! Replicated store backing the control plane (§4): the journal of job and
//! tenant state, its snapshots and the leader lease are persisted on a quorum
//! of 2f+1 replicas; writes commit once a majority of live replicas
//! acknowledge them.
//!
//! Each replica holds two kinds of state, committed through the same quorum
//! and the same write counter, so they share one fault domain:
//! - a key-value map (the leader lease lives there), and
//! - one [`Journal`] per opened log: its lines in index order, the index of
//!   the first line it still holds, and the installed snapshot. An append is
//!   one committed write that pushes its lines onto every live replica; a
//!   snapshot install is one committed write that sets the snapshot and drops
//!   the lines it covers.
//!
//! Stored keys, values and lines are immutable shared strings (`Arc<str>`): a
//! write makes one copy of each and hands every live replica a pointer to it,
//! so a multi-megabyte snapshot is held once however many replicas apply it,
//! and compaction frees each line once. Replicas stay independent all the
//! same — nothing writes through a shared value; a replica changes only by
//! pointing at another value or dropping its pointer.

use parking_lot::RwLock;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;

/// One log's journal on one replica.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Journal {
    /// Index of `lines[0]`; every index below it is compacted away.
    pub(crate) first: u64,
    /// The retained lines, in index order.
    pub(crate) lines: VecDeque<Arc<str>>,
    /// The latest installed snapshot: `(first index not covered, payload)`.
    pub(crate) snapshot: Option<(u64, Arc<str>)>,
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
    data: BTreeMap<Arc<str>, Arc<str>>,
    /// One journal per opened log, indexed by journal id.
    journals: Vec<Journal>,
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
    /// The name each journal id was opened under.
    journal_names: Vec<String>,
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
    /// The requested key does not exist.
    KeyNotFound,
}

/// A majority-quorum replicated store: a key-value map plus the journals of
/// the logs opened on it.
///
/// Thread-safe: the store can be shared across the control-plane threads
/// (API server, job manager, scheduler) via `clone()`; all clones view the
/// same replicated state.
#[derive(Debug, Clone, Default)]
pub struct ReplicatedKvStore {
    state: Arc<RwLock<Replicas>>,
}

impl ReplicatedKvStore {
    /// Create a store replicated over `2f + 1` replicas.
    pub fn new(fault_tolerance: usize) -> Self {
        let replicas = (0..2 * fault_tolerance + 1).map(|_| Replica::default()).collect();
        ReplicatedKvStore {
            state: Arc::new(RwLock::new(Replicas { replicas, ..Replicas::default() })),
        }
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

    /// Recover a crashed replica and catch it up from a live majority replica
    /// (a copy of its map and its journals: the stored strings themselves are
    /// shared).
    pub fn recover_replica(&self, index: usize) {
        let replicas = &mut self.state.write().replicas;
        // Find the most up-to-date live replica to copy state from.
        let best = replicas
            .iter()
            .enumerate()
            .filter(|(i, r)| *i != index && !r.crashed)
            .max_by_key(|(_, r)| r.applied_index)
            .map(|(i, _)| i);
        if let Some(src) = best {
            let src = &replicas[src];
            let (data, journals, applied) =
                (src.data.clone(), src.journals.clone(), src.applied_index);
            let target = &mut replicas[index];
            target.data = data;
            target.journals = journals;
            target.applied_index = applied;
        }
        replicas[index].crashed = false;
    }

    /// Write a key. Succeeds once a majority of replicas apply it. The key
    /// and the value are copied once, into shared allocations every live
    /// replica points at.
    pub fn put(
        &self,
        key: impl Into<Arc<str>>,
        value: impl Into<Arc<str>>,
    ) -> Result<(), StoreError> {
        let (key, value) = (key.into(), value.into());
        self.state.write().commit(|r| {
            r.data.insert(Arc::clone(&key), Arc::clone(&value));
        })
    }

    /// Read a key from any live, up-to-date replica.
    pub fn get(&self, key: &str) -> Result<String, StoreError> {
        let state = self.state.read();
        let newest = state.freshest().ok_or(StoreError::NoQuorum)?;
        newest.data.get(key).map(|value| value.to_string()).ok_or(StoreError::KeyNotFound)
    }

    /// Atomic compare-and-swap: write `new` under `key` only if the committed
    /// value currently equals `expected` (`None` = the key must be absent).
    ///
    /// Returns `Ok(true)` if the swap committed, `Ok(false)` if the committed
    /// value did not match `expected` (nothing is written), and
    /// `Err(NoQuorum)` when a write quorum is unavailable — a CAS is a write
    /// and must never "succeed" against a minority.
    ///
    /// This is the linearization primitive the in-store leader election
    /// ([`crate::lease::StoreElection`]) builds on: the read of the committed
    /// value and the conditional write happen under the same store lock, so
    /// two racing campaigns cannot both acquire the lease.
    pub(crate) fn compare_and_swap(
        &self,
        key: &str,
        expected: Option<&str>,
        new: impl Into<Arc<str>>,
    ) -> Result<bool, StoreError> {
        let mut state = self.state.write();
        if !state.has_quorum() {
            return Err(StoreError::NoQuorum);
        }
        let current = state.freshest().and_then(|r| r.data.get(key));
        if current.map(|value| &**value) != expected {
            return Ok(false);
        }
        let (key, value): (Arc<str>, Arc<str>) = (key.into(), new.into());
        state.commit(|r| {
            r.data.insert(Arc::clone(&key), Arc::clone(&value));
        })?;
        Ok(true)
    }

    /// Number of committed writes (the replication log length).
    pub fn committed_writes(&self) -> u64 {
        self.state.read().committed
    }

    /// The id of the journal named `name`, opened empty on every replica
    /// (crashed ones included) the first time the name is asked for. Opening
    /// is bookkeeping, not a committed write.
    pub(crate) fn open_journal(&self, name: &str) -> usize {
        let mut state = self.state.write();
        if let Some(id) = state.journal_names.iter().position(|n| n == name) {
            return id;
        }
        state.journal_names.push(name.to_string());
        for r in &mut state.replicas {
            r.journals.push(Journal::default());
        }
        state.journal_names.len() - 1
    }

    /// Append `lines` to a journal as one committed write: every live
    /// replica gets a pointer to each line, or (without a quorum) no replica
    /// changes. Returns the index of the first line.
    pub(crate) fn append_lines(
        &self,
        journal: usize,
        lines: &[Arc<str>],
    ) -> Result<u64, StoreError> {
        let mut first = 0;
        self.state.write().commit(|r| {
            let journal = &mut r.journals[journal];
            first = journal.end();
            journal.lines.extend(lines.iter().cloned());
        })?;
        Ok(first)
    }

    /// Install `payload` as a journal's snapshot covering every index below
    /// `upto`, and drop the lines it covers, as one committed write (or,
    /// without a quorum, none: no replica changes).
    pub(crate) fn install_snapshot(
        &self,
        journal: usize,
        payload: Arc<str>,
        upto: u64,
    ) -> Result<(), StoreError> {
        self.state.write().commit(|r| {
            let journal = &mut r.journals[journal];
            let covered = upto.saturating_sub(journal.first).min(journal.lines.len() as u64);
            journal.lines.drain(..covered as usize);
            journal.first += covered;
            journal.snapshot = Some((upto, Arc::clone(&payload)));
        })
    }

    /// `visit` a journal as the freshest live replica holds it, in place
    /// (under the store's read lock, so `visit` must not call back into the
    /// store); `None` when every replica is down.
    pub(crate) fn with_journal<R>(
        &self,
        journal: usize,
        visit: impl FnOnce(&Journal) -> R,
    ) -> Option<R> {
        let state = self.state.read();
        state.freshest().map(|newest| visit(&newest.journals[journal]))
    }
}

/// Per-replica views for the store's own tests and the log's: what one
/// replica holds, crashed or not, with the shared values themselves.
#[cfg(test)]
impl ReplicatedKvStore {
    pub(crate) fn replica_data(&self, index: usize) -> BTreeMap<Arc<str>, Arc<str>> {
        self.state.read().replicas[index].data.clone()
    }

    pub(crate) fn replica_journal(&self, index: usize, journal: usize) -> Journal {
        self.state.read().replicas[index].journals[journal].clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let store = ReplicatedKvStore::new(1);
        assert_eq!(store.replica_count(), 3);
        store.put("qpu/ibm_cairo/queue", "17").unwrap();
        assert_eq!(store.get("qpu/ibm_cairo/queue").unwrap(), "17");
        assert_eq!(store.get("missing"), Err(StoreError::KeyNotFound));
    }

    #[test]
    fn writes_survive_single_replica_failure() {
        let store = ReplicatedKvStore::new(1);
        store.put("a", "1").unwrap();
        store.crash_replica(0);
        assert!(store.has_quorum());
        store.put("b", "2").unwrap();
        assert_eq!(store.get("a").unwrap(), "1");
        assert_eq!(store.get("b").unwrap(), "2");
    }

    #[test]
    fn losing_the_majority_blocks_writes() {
        let store = ReplicatedKvStore::new(1);
        store.put("a", "1").unwrap();
        store.crash_replica(0);
        store.crash_replica(1);
        assert!(!store.has_quorum());
        assert_eq!(store.put("b", "2"), Err(StoreError::NoQuorum));
        // Reads from the surviving replica still work.
        assert_eq!(store.get("a").unwrap(), "1");
    }

    #[test]
    fn recovered_replica_catches_up() {
        let store = ReplicatedKvStore::new(1);
        store.put("a", "1").unwrap();
        store.crash_replica(2);
        store.put("b", "2").unwrap();
        store.put("a", "updated").unwrap();
        store.recover_replica(2);
        // Crash the other two: replica 2 must now serve the latest state alone.
        store.crash_replica(0);
        store.crash_replica(1);
        assert_eq!(store.get("a").unwrap(), "updated");
        assert_eq!(store.get("b").unwrap(), "2");
    }

    #[test]
    fn compare_and_swap_is_conditional_on_the_committed_value() {
        let store = ReplicatedKvStore::new(1);
        // Absent key: only the None-expectation succeeds.
        assert_eq!(store.compare_and_swap("leader", Some("0 1"), "1 2"), Ok(false));
        assert_eq!(store.compare_and_swap("leader", None, "0 1"), Ok(true));
        assert_eq!(store.get("leader").unwrap(), "0 1");
        // Present key: a stale expectation loses, the current value wins.
        assert_eq!(store.compare_and_swap("leader", None, "9 9"), Ok(false));
        assert_eq!(store.compare_and_swap("leader", Some("0 1"), "1 2"), Ok(true));
        assert_eq!(store.get("leader").unwrap(), "1 2");
    }

    #[test]
    fn compare_and_swap_requires_a_quorum() {
        let store = ReplicatedKvStore::new(1);
        store.put("leader", "0 1").unwrap();
        store.crash_replica(0);
        store.crash_replica(1);
        assert_eq!(store.compare_and_swap("leader", Some("0 1"), "1 2"), Err(StoreError::NoQuorum));
        // The surviving minority still serves the old value.
        assert_eq!(store.get("leader").unwrap(), "0 1");
    }

    fn lines(values: &[&str]) -> Vec<Arc<str>> {
        values.iter().map(|&value| value.into()).collect()
    }

    /// A journal of six lines, `e0`..`e5`, with a bystander journal and a
    /// lease key beside it.
    fn journal_shaped_store() -> (ReplicatedKvStore, usize) {
        let store = ReplicatedKvStore::new(1);
        let journal = store.open_journal("ctl");
        let bystander = store.open_journal("other");
        store.append_lines(journal, &lines(&["e0", "e1", "e2", "e3", "e4", "e5"])).unwrap();
        store.append_lines(bystander, &lines(&["neighbour"])).unwrap();
        store.put("ctl/leader", "0 1").unwrap();
        (store, journal)
    }

    #[test]
    fn append_lines_commits_the_whole_batch_as_one_write() {
        let store = ReplicatedKvStore::new(1);
        let journal = store.open_journal("log");
        assert_eq!(store.open_journal("log"), journal, "a name opens one journal");
        assert_eq!(store.append_lines(journal, &lines(&["a", "b"])), Ok(0));
        assert_eq!(store.committed_writes(), 1, "a batch is one committed write");
        assert_eq!(store.append_lines(journal, &lines(&["c"])), Ok(2));
        assert_eq!(store.committed_writes(), 2);
        let held = store.with_journal(journal, |j| (j.first, j.end(), j.lines.clone()));
        assert_eq!(held, Some((0, 3, lines(&["a", "b", "c"]).into())));
    }

    /// A refused batch — a journal append of several lines, as well as a
    /// put or a CAS — applies nothing to any replica, crashed or live: no
    /// line, no key, and no committed write.
    #[test]
    fn put_all_without_a_quorum_applies_nothing() {
        let (store, journal) = journal_shaped_store();
        store.crash_replica(0);
        store.crash_replica(1);
        let before: Vec<Journal> = (0..3).map(|r| store.replica_journal(r, journal)).collect();
        let writes = store.committed_writes();
        assert_eq!(
            store.append_lines(journal, &lines(&["lost", "too"])),
            Err(StoreError::NoQuorum)
        );
        assert_eq!(store.put("k", "v"), Err(StoreError::NoQuorum));
        assert_eq!(
            store.compare_and_swap("ctl/leader", Some("0 1"), "1 2"),
            Err(StoreError::NoQuorum)
        );
        assert_eq!(store.committed_writes(), writes, "a refused write commits nothing");
        for (r, journal_before) in before.iter().enumerate() {
            assert_eq!(&store.replica_journal(r, journal), journal_before, "replica {r}");
        }
        store.recover_replica(0);
        assert_eq!(store.with_journal(journal, Journal::end), Some(6));
        assert_eq!(store.get("k"), Err(StoreError::KeyNotFound));
        assert_eq!(store.get("ctl/leader").unwrap(), "0 1");
    }

    /// A refused compaction — a snapshot install — drops no line and sets no
    /// snapshot on any replica, crashed or live, and commits nothing.
    #[test]
    fn delete_range_without_a_quorum_removes_nothing() {
        let (store, journal) = journal_shaped_store();
        store.crash_replica(0);
        store.crash_replica(1);
        let before: Vec<Journal> = (0..3).map(|r| store.replica_journal(r, journal)).collect();
        let writes = store.committed_writes();
        assert_eq!(store.install_snapshot(journal, "state".into(), 4), Err(StoreError::NoQuorum));
        assert_eq!(store.committed_writes(), writes, "a refused compaction commits nothing");
        for (r, journal_before) in before.iter().enumerate() {
            assert_eq!(&store.replica_journal(r, journal), journal_before, "replica {r}");
        }
        store.recover_replica(0);
        let held = store.with_journal(journal, |j| (j.first, j.lines.len(), j.snapshot.clone()));
        assert_eq!(held, Some((0, 6, None)), "the minority still has every line");
    }

    #[test]
    fn install_snapshot_drops_exactly_the_covered_prefix_in_one_write() {
        let (store, journal) = journal_shaped_store();
        let before = store.committed_writes();
        store.install_snapshot(journal, "state".into(), 4).unwrap();
        assert_eq!(store.committed_writes(), before + 1, "a snapshot install is one write");
        let held = store.with_journal(journal, Journal::clone).unwrap();
        assert_eq!((held.first, held.end()), (4, 6), "`upto` itself and what follows survive");
        assert_eq!(held.lines, VecDeque::from(lines(&["e4", "e5"])));
        assert_eq!(held.snapshot, Some((4, "state".into())));
        // The other journal and the map are untouched.
        assert_eq!(store.with_journal(1, |j| j.lines.len()), Some(1));
        assert_eq!(store.get("ctl/leader").unwrap(), "0 1");
        // An older or equal `upto` drops nothing more, and one past the end
        // drops everything: the next index never moves.
        store.install_snapshot(journal, "older".into(), 2).unwrap();
        assert_eq!(store.with_journal(journal, |j| (j.first, j.end())), Some((4, 6)));
        store.install_snapshot(journal, "past".into(), 9).unwrap();
        assert_eq!(store.with_journal(journal, |j| (j.first, j.end())), Some((6, 6)));
        assert_eq!(store.committed_writes(), before + 3);
    }

    /// A replica down while a compaction (a snapshot install) commits serves
    /// the compacted journal alone once it has recovered.
    #[test]
    fn a_replica_down_during_delete_range_catches_up_on_recovery() {
        let (store, journal) = journal_shaped_store();
        store.crash_replica(2);
        store.install_snapshot(journal, "state".into(), 4).unwrap();
        store.recover_replica(2);
        // Replica 2 must now serve the compacted state alone.
        store.crash_replica(0);
        store.crash_replica(1);
        let held = store.with_journal(journal, Journal::clone).unwrap();
        assert_eq!((held.first, held.end()), (4, 6));
        assert_eq!(held.lines, VecDeque::from(lines(&["e4", "e5"])));
        assert_eq!(held.snapshot, Some((4, "state".into())));
        assert_eq!(store.get("ctl/leader").unwrap(), "0 1");
    }

    #[test]
    fn clones_share_state_across_threads() {
        let store = ReplicatedKvStore::new(2);
        assert_eq!(store.replica_count(), 5);
        let clone = store.clone();
        let handle = std::thread::spawn(move || {
            clone.put("written/from/thread", "yes").unwrap();
        });
        handle.join().unwrap();
        assert_eq!(store.get("written/from/thread").unwrap(), "yes");
        assert_eq!(store.committed_writes(), 1);
    }

    /// One write, one allocation: every live replica points at the same key
    /// and value — for `put` and `compare_and_swap` alike, a megabyte value
    /// included — and at the same journal lines and snapshot; a recovered
    /// replica copies pointers.
    #[test]
    fn live_replicas_share_one_allocation_per_written_value() {
        let store = ReplicatedKvStore::new(2);
        let journal = store.open_journal("log");
        store.put("single", "1").unwrap();
        store.put("snapshot", "s".repeat(1 << 20)).unwrap();
        store.append_lines(journal, &lines(&["a", "b"])).unwrap();
        assert_eq!(store.compare_and_swap("leader", None, "0 1"), Ok(true));
        store.crash_replica(4);
        store.put("late", "written while replica 4 was down").unwrap();
        store.append_lines(journal, &lines(&["c"])).unwrap();
        store.install_snapshot(journal, "x".repeat(1 << 20).into(), 1).unwrap();
        store.recover_replica(4);
        let shared = |key: &str| {
            let copies: Vec<(Arc<str>, Arc<str>)> = (0..store.replica_count())
                .map(|r| {
                    let data = store.replica_data(r);
                    let (k, v) = data.get_key_value(key).expect("every replica holds the key");
                    (Arc::clone(k), Arc::clone(v))
                })
                .collect();
            copies
                .windows(2)
                .all(|w| Arc::ptr_eq(&w[0].0, &w[1].0) && Arc::ptr_eq(&w[0].1, &w[1].1))
        };
        for key in ["single", "snapshot", "leader", "late"] {
            assert!(shared(key), "{key}: one allocation for all five replicas");
        }
        let journals: Vec<Journal> = (0..5).map(|r| store.replica_journal(r, journal)).collect();
        for pair in journals.windows(2) {
            assert_eq!(pair[0].lines.len(), 2);
            assert!(pair[0].lines.iter().zip(&pair[1].lines).all(|(a, b)| Arc::ptr_eq(a, b)));
            let (a, b) = (pair[0].snapshot.as_ref().unwrap(), pair[1].snapshot.as_ref().unwrap());
            assert!(Arc::ptr_eq(&a.1, &b.1), "one stored snapshot");
        }
        // An overwrite points every replica at the new value; the old one is
        // no longer held by any of them.
        let old = store.replica_data(0)["single"].clone();
        store.put("single", "2").unwrap();
        assert!(shared("single"));
        assert_eq!(Arc::strong_count(&old), 1, "only this test still holds the old value");
    }

    /// A replica that is down while a `put`, a journal append or a snapshot
    /// install commits sees none of it — its map and journals are exactly
    /// what they were — until `recover_replica`, which makes it equal to the
    /// freshest replica.
    #[test]
    fn a_replica_down_during_a_write_sees_none_of_it_until_recovery() {
        type Write = fn(&ReplicatedKvStore, usize);
        let writes: [(&str, Write); 3] = [
            ("put", |store, _| store.put("ctl/leader", "1 2").unwrap()),
            ("append_lines", |store, journal| {
                store.append_lines(journal, &lines(&["e6", "e7"])).unwrap();
            }),
            ("install_snapshot", |store, journal| {
                store.install_snapshot(journal, "state".into(), 4).unwrap()
            }),
        ];
        for (name, write) in writes {
            let (store, journal) = journal_shaped_store();
            store.crash_replica(1);
            let before = (store.replica_data(1), store.replica_journal(1, journal));
            write(&store, journal);
            let after = (store.replica_data(0), store.replica_journal(0, journal));
            assert_ne!(after, before, "{name}: the write committed");
            let crashed = (store.replica_data(1), store.replica_journal(1, journal));
            assert_eq!(crashed, before, "{name}: the crashed replica saw it");
            store.recover_replica(1);
            let (caught_up, freshest) = (store.replica_data(1), store.replica_data(0));
            assert_eq!(caught_up, freshest, "{name}: recovery must equal the freshest replica");
            assert!(caught_up.values().zip(freshest.values()).all(|(a, b)| Arc::ptr_eq(a, b)));
            let (caught_up, freshest) =
                (store.replica_journal(1, journal), store.replica_journal(0, journal));
            assert_eq!(caught_up, freshest, "{name}: the journal caught up too");
            assert!(caught_up.lines.iter().zip(&freshest.lines).all(|(a, b)| Arc::ptr_eq(a, b)));
        }
    }
}
