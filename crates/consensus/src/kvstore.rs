//! Replicated key-value store backing the control plane (§4): the journal of
//! job and tenant state, its snapshots and the leader lease are persisted on
//! a quorum of 2f+1 replicas; writes commit once a majority of live replicas
//! acknowledge them.
//!
//! Stored keys and values are immutable shared strings (`Arc<str>`): a write
//! makes one copy of its key and value and hands every live replica a pointer
//! to it, so a multi-megabyte snapshot is held once however many replicas
//! apply it, and compaction frees each entry once. Replicas stay independent
//! all the same — nothing writes through a shared value; a replica changes
//! only by pointing a key at another value.

use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

/// A single replica's storage.
#[derive(Debug, Default)]
struct Replica {
    data: BTreeMap<Arc<str>, Arc<str>>,
    /// Index of the last applied write.
    applied_index: u64,
    /// `true` while the replica is down.
    crashed: bool,
}

/// The most up-to-date live replica — the one reads are served from.
fn freshest(replicas: &[Replica]) -> Option<&Replica> {
    replicas.iter().filter(|r| !r.crashed).max_by_key(|r| r.applied_index)
}

/// Errors returned by the replicated store.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Fewer than a majority of replicas are alive: writes cannot commit.
    NoQuorum,
    /// The requested key does not exist.
    KeyNotFound,
}

/// A majority-quorum replicated key-value store.
///
/// Thread-safe: the store can be shared across the control-plane threads
/// (API server, job manager, scheduler) via `clone()`; all clones view the
/// same replicated state.
#[derive(Debug, Clone, Default)]
pub struct ReplicatedKvStore {
    replicas: Arc<RwLock<Vec<Replica>>>,
    log_length: Arc<RwLock<u64>>,
}

impl ReplicatedKvStore {
    /// Create a store replicated over `2f + 1` replicas.
    pub fn new(fault_tolerance: usize) -> Self {
        let replica_count = 2 * fault_tolerance + 1;
        ReplicatedKvStore {
            replicas: Arc::new(RwLock::new(
                (0..replica_count).map(|_| Replica::default()).collect(),
            )),
            log_length: Arc::new(RwLock::new(0)),
        }
    }

    /// Number of replicas (2f + 1).
    pub(crate) fn replica_count(&self) -> usize {
        self.replicas.read().len()
    }

    /// Number of currently live replicas.
    pub(crate) fn live_replicas(&self) -> usize {
        self.replicas.read().iter().filter(|r| !r.crashed).count()
    }

    /// `true` if a write quorum (majority of all replicas) is available.
    pub fn has_quorum(&self) -> bool {
        self.live_replicas() * 2 > self.replica_count()
    }

    /// Crash one replica (its data is retained but it stops acknowledging writes).
    pub fn crash_replica(&self, index: usize) {
        self.replicas.write()[index].crashed = true;
    }

    /// Recover a crashed replica and catch it up from a live majority replica
    /// (a copy of its map: the stored strings themselves are shared).
    pub fn recover_replica(&self, index: usize) {
        let mut replicas = self.replicas.write();
        // Find the most up-to-date live replica to copy state from.
        let best = replicas
            .iter()
            .enumerate()
            .filter(|(i, r)| *i != index && !r.crashed)
            .max_by_key(|(_, r)| r.applied_index)
            .map(|(i, _)| i);
        if let Some(src) = best {
            let (data, applied) = (replicas[src].data.clone(), replicas[src].applied_index);
            let target = &mut replicas[index];
            target.data = data;
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
        if !self.has_quorum() {
            return Err(StoreError::NoQuorum);
        }
        let (key, value) = (key.into(), value.into());
        let mut log_length = self.log_length.write();
        *log_length += 1;
        let index = *log_length;
        let mut replicas = self.replicas.write();
        for r in replicas.iter_mut().filter(|r| !r.crashed) {
            r.data.insert(Arc::clone(&key), Arc::clone(&value));
            r.applied_index = index;
        }
        Ok(())
    }

    /// Write a batch of keys atomically: one quorum check, one lock
    /// acquisition, one committed write index for the whole batch. Either
    /// every pair is applied on every live replica or (without a quorum)
    /// none is — the group-commit primitive the journaling layer's
    /// `ReplicatedLog::append_all_with` builds on. The replicas share the
    /// caller's keys and values.
    pub(crate) fn put_all(&self, pairs: &[(Arc<str>, Arc<str>)]) -> Result<(), StoreError> {
        if !self.has_quorum() {
            return Err(StoreError::NoQuorum);
        }
        if pairs.is_empty() {
            return Ok(());
        }
        let mut log_length = self.log_length.write();
        *log_length += 1;
        let index = *log_length;
        let mut replicas = self.replicas.write();
        for r in replicas.iter_mut().filter(|r| !r.crashed) {
            for (key, value) in pairs {
                r.data.insert(Arc::clone(key), Arc::clone(value));
            }
            r.applied_index = index;
        }
        Ok(())
    }

    /// Read a key from any live, up-to-date replica.
    pub fn get(&self, key: &str) -> Result<String, StoreError> {
        self.read(key, str::to_owned)
    }

    /// [`Self::get`] without the copy: `visit` borrows the value in place
    /// (under the store's read lock, so it must not call back into the
    /// store) and its result is returned.
    pub fn read<R>(&self, key: &str, visit: impl FnOnce(&str) -> R) -> Result<R, StoreError> {
        let replicas = self.replicas.read();
        let newest = freshest(&replicas).ok_or(StoreError::NoQuorum)?;
        newest.data.get(key).map(|value| visit(value)).ok_or(StoreError::KeyNotFound)
    }

    /// Delete every key in `[from, to)` atomically: one quorum check, one
    /// lock acquisition, one committed write index for the whole range.
    /// Either the range is removed on every live replica or (without a
    /// quorum) nothing is — the compaction primitive
    /// `ReplicatedLog::install_snapshot` builds on. An empty interval
    /// (`from >= to`) writes nothing.
    pub(crate) fn delete_range(&self, from: &str, to: &str) -> Result<(), StoreError> {
        if !self.has_quorum() {
            return Err(StoreError::NoQuorum);
        }
        if from >= to {
            return Ok(());
        }
        let mut log_length = self.log_length.write();
        *log_length += 1;
        let index = *log_length;
        let mut replicas = self.replicas.write();
        for r in replicas.iter_mut().filter(|r| !r.crashed) {
            // Two O(log n) splits cut the range out; what follows it is
            // stitched back on.
            let mut doomed = r.data.split_off(from);
            r.data.append(&mut doomed.split_off(to));
            r.applied_index = index;
        }
        Ok(())
    }

    /// Visit every `(key, value)` with key in `[from, to)` on the freshest
    /// live replica, in ascending key order, without copying either (under
    /// the store's read lock, so `visit` must not call back into the store).
    pub(crate) fn scan(&self, from: &str, to: &str, mut visit: impl FnMut(&str, &str)) {
        if from >= to {
            return;
        }
        let replicas = self.replicas.read();
        if let Some(newest) = freshest(&replicas) {
            let range = (Bound::Included(from), Bound::Excluded(to));
            for (key, value) in newest.data.range::<str, _>(range) {
                visit(key, value);
            }
        }
    }

    /// List all keys with the given prefix (from the freshest live replica),
    /// in ascending lexicographic order.
    ///
    /// The ordering is a contract: log replay and snapshot enumeration in
    /// [`crate::log`] depend on it. It falls out of the replicas' ordered
    /// maps — the listing is a range scan from `prefix`, not a filter over
    /// every key.
    pub fn keys_with_prefix(&self, prefix: &str) -> Vec<String> {
        let replicas = self.replicas.read();
        freshest(&replicas).map_or_else(Vec::new, |newest| {
            let range = (Bound::Included(prefix), Bound::Unbounded);
            newest
                .data
                .range::<str, _>(range)
                .take_while(|(key, _)| key.starts_with(prefix))
                .map(|(key, _)| key.to_string())
                .collect()
        })
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
    /// value and the conditional write happen under the same store locks, so
    /// two racing campaigns cannot both acquire the lease.
    pub(crate) fn compare_and_swap(
        &self,
        key: &str,
        expected: Option<&str>,
        new: impl Into<Arc<str>>,
    ) -> Result<bool, StoreError> {
        if !self.has_quorum() {
            return Err(StoreError::NoQuorum);
        }
        let mut log_length = self.log_length.write();
        let mut replicas = self.replicas.write();
        let current = freshest(&replicas).and_then(|r| r.data.get(key));
        if current.map(|value| &**value) != expected {
            return Ok(false);
        }
        *log_length += 1;
        let index = *log_length;
        let (key, value): (Arc<str>, Arc<str>) = (key.into(), new.into());
        for r in replicas.iter_mut().filter(|r| !r.crashed) {
            r.data.insert(Arc::clone(&key), Arc::clone(&value));
            r.applied_index = index;
        }
        Ok(true)
    }

    /// Number of committed writes (the replication log length).
    pub fn committed_writes(&self) -> u64 {
        *self.log_length.read()
    }
}

/// Per-replica views for the store's own tests and the log's: what one
/// replica holds, crashed or not, with the shared values themselves.
#[cfg(test)]
impl ReplicatedKvStore {
    pub(crate) fn replica_data(&self, index: usize) -> BTreeMap<Arc<str>, Arc<str>> {
        self.replicas.read()[index].data.clone()
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
    fn prefix_listing_and_delete() {
        let store = ReplicatedKvStore::new(1);
        store.put("qpu/cairo/queue", "3").unwrap();
        store.put("qpu/hanoi/queue", "9").unwrap();
        store.put("workflow/42/status", "running").unwrap();
        let qpu_keys = store.keys_with_prefix("qpu/");
        assert_eq!(qpu_keys.len(), 2);
        store.delete_range("qpu/cairo/", "qpu/hanoi/").unwrap();
        assert_eq!(store.keys_with_prefix("qpu/").len(), 1);
        assert_eq!(store.get("qpu/cairo/queue"), Err(StoreError::KeyNotFound));
    }

    /// Regression: prefix enumeration is sorted regardless of insertion
    /// order, and stays sorted when served by a recovered replica — log
    /// replay and snapshot enumeration depend on this determinism.
    #[test]
    fn prefix_listing_is_sorted_regardless_of_insertion_order() {
        let store = ReplicatedKvStore::new(1);
        for key in ["log/entry/0000000007", "log/entry/0000000001", "log/entry/0000000003"] {
            store.put(key, "x").unwrap();
        }
        let keys = store.keys_with_prefix("log/entry/");
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(
            keys,
            vec![
                "log/entry/0000000001".to_string(),
                "log/entry/0000000003".to_string(),
                "log/entry/0000000007".to_string(),
            ]
        );
        // A crash + catch-up recovery must serve the same sorted view.
        store.crash_replica(0);
        store.put("log/entry/0000000002", "y").unwrap();
        store.recover_replica(0);
        store.crash_replica(1);
        store.crash_replica(2);
        let keys = store.keys_with_prefix("log/entry/");
        assert_eq!(keys.len(), 4);
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "sorted after recovery: {keys:?}");
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

    #[test]
    fn put_all_commits_the_whole_batch_as_one_write() {
        let store = ReplicatedKvStore::new(1);
        store
            .put_all(&[
                ("log/entry/0".into(), "a".into()),
                ("log/entry/1".into(), "b".into()),
                ("log/len".into(), "2".into()),
            ])
            .unwrap();
        assert_eq!(store.get("log/entry/0").unwrap(), "a");
        assert_eq!(store.get("log/entry/1").unwrap(), "b");
        assert_eq!(store.get("log/len").unwrap(), "2");
        assert_eq!(store.committed_writes(), 1, "a batch is one committed write");
        assert_eq!(store.put_all(&[]), Ok(()));
        assert_eq!(store.committed_writes(), 1, "an empty batch writes nothing");
    }

    #[test]
    fn put_all_without_a_quorum_applies_nothing() {
        let store = ReplicatedKvStore::new(1);
        store.put("a", "1").unwrap();
        store.crash_replica(0);
        store.crash_replica(1);
        assert_eq!(
            store.put_all(&[("a".into(), "overwritten".into()), ("b".into(), "2".into()),]),
            Err(StoreError::NoQuorum)
        );
        // The surviving minority serves the pre-batch state: no partial batch.
        assert_eq!(store.get("a").unwrap(), "1");
        assert_eq!(store.get("b"), Err(StoreError::KeyNotFound));
    }

    /// A journal-shaped key space: two logs' entries plus their `len` and
    /// `snapshot` keys, which sort *after* the entries they neighbour.
    fn journal_shaped_store() -> ReplicatedKvStore {
        let store = ReplicatedKvStore::new(1);
        for i in 0..6 {
            store.put(format!("ctl/entry/{i:016}"), format!("e{i}")).unwrap();
        }
        store.put("ctl/len", "6").unwrap();
        store.put("ctl/snapshot", "0\nstate").unwrap();
        store.put("ctk/entry/0000000000000001", "left neighbour").unwrap();
        store.put("ctm/entry/0000000000000001", "right neighbour").unwrap();
        store
    }

    #[test]
    fn delete_range_removes_exactly_the_half_open_range_in_one_write() {
        let store = journal_shaped_store();
        let before = store.committed_writes();
        store.delete_range("ctl/entry/0000000000000000", "ctl/entry/0000000000000004").unwrap();
        assert_eq!(store.committed_writes(), before + 1, "a range is one committed write");
        assert_eq!(
            store.keys_with_prefix("ctl/entry/"),
            vec!["ctl/entry/0000000000000004", "ctl/entry/0000000000000005"],
            "`to` itself and everything after it survive"
        );
        // Keys outside the range — the log's own bookkeeping and other
        // logs' entries on either side — are untouched.
        assert_eq!(store.get("ctl/len").unwrap(), "6");
        assert_eq!(store.get("ctl/snapshot").unwrap(), "0\nstate");
        assert_eq!(store.get("ctk/entry/0000000000000001").unwrap(), "left neighbour");
        assert_eq!(store.get("ctm/entry/0000000000000001").unwrap(), "right neighbour");
        // An empty interval writes nothing; an interval holding no key is
        // still a committed (no-op) write, like deleting a missing key.
        store.delete_range("ctl/entry/0000000000000005", "ctl/entry/0000000000000005").unwrap();
        store.delete_range("ctl/entry/9", "ctl/entry/0").unwrap();
        assert_eq!(store.committed_writes(), before + 1);
        store.delete_range("a", "b").unwrap();
        assert_eq!(store.committed_writes(), before + 2);
        assert_eq!(store.keys_with_prefix("ct").len(), 6);
    }

    #[test]
    fn delete_range_without_a_quorum_removes_nothing() {
        let store = journal_shaped_store();
        let before = store.committed_writes();
        store.crash_replica(0);
        store.crash_replica(1);
        assert_eq!(store.delete_range("ctl/entry/", "ctl/entry0"), Err(StoreError::NoQuorum));
        assert_eq!(store.committed_writes(), before, "a refused range delete commits nothing");
        assert_eq!(store.keys_with_prefix("ctl/entry/").len(), 6, "the minority still has it all");
        store.recover_replica(0);
        assert_eq!(store.keys_with_prefix("ctl/entry/").len(), 6);
    }

    #[test]
    fn a_replica_down_during_delete_range_catches_up_on_recovery() {
        let store = journal_shaped_store();
        store.crash_replica(2);
        store.delete_range("ctl/entry/", "ctl/entry0").unwrap();
        store.recover_replica(2);
        // Replica 2 must now serve the compacted state alone.
        store.crash_replica(0);
        store.crash_replica(1);
        assert!(store.keys_with_prefix("ctl/entry/").is_empty());
        assert_eq!(store.get("ctl/len").unwrap(), "6");
    }

    #[test]
    fn scan_and_read_borrow_in_place_in_key_order() {
        let store = journal_shaped_store();
        let mut seen = Vec::new();
        store.scan("ctl/entry/0000000000000002", "ctl/entry/0000000000000005", |key, value| {
            seen.push((key.to_string(), value.to_string()));
        });
        assert_eq!(
            seen,
            vec![
                ("ctl/entry/0000000000000002".into(), "e2".into()),
                ("ctl/entry/0000000000000003".into(), "e3".into()),
                ("ctl/entry/0000000000000004".into(), "e4".into()),
            ]
        );
        store.scan("z", "a", |_, _| panic!("an empty interval visits nothing"));
        assert_eq!(store.read("ctl/len", |len| len.parse::<u64>().ok()), Ok(Some(6)));
        assert_eq!(store.read("missing", str::len), Err(StoreError::KeyNotFound));
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
    /// and value — for `put`, `put_all` and `compare_and_swap` alike, a
    /// megabyte value included — and a recovered replica copies pointers.
    #[test]
    fn live_replicas_share_one_allocation_per_written_value() {
        let store = ReplicatedKvStore::new(2);
        store.put("single", "1").unwrap();
        store.put("snapshot", "s".repeat(1 << 20)).unwrap();
        store.put_all(&[("batch/0".into(), "a".into()), ("batch/1".into(), "b".into())]).unwrap();
        assert_eq!(store.compare_and_swap("leader", None, "0 1"), Ok(true));
        store.crash_replica(4);
        store.put("late", "written while replica 4 was down").unwrap();
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
        for key in ["single", "snapshot", "batch/0", "batch/1", "leader", "late"] {
            assert!(shared(key), "{key}: one allocation for all five replicas");
        }
        // An overwrite points every replica at the new value; the old one is
        // no longer held by any of them.
        let old = store.replica_data(0)["single"].clone();
        store.put("single", "2").unwrap();
        assert!(shared("single"));
        assert_eq!(Arc::strong_count(&old), 1, "only this test still holds the old value");
    }

    /// A replica that is down while a `put`, `put_all` or `delete_range`
    /// commits sees none of it — its map is exactly what it was — until
    /// `recover_replica`, which makes it equal to the freshest replica.
    #[test]
    fn a_replica_down_during_a_write_sees_none_of_it_until_recovery() {
        type Write = fn(&ReplicatedKvStore);
        let writes: [(&str, Write); 3] = [
            ("put", |store| store.put("ctl/len", "7").unwrap()),
            ("put_all", |store| {
                let pairs = [
                    ("ctl/entry/0000000000000006".into(), "e6".into()),
                    ("ctl/len".into(), "7".into()),
                ];
                store.put_all(&pairs).unwrap()
            }),
            ("delete_range", |store| {
                store.delete_range("ctl/entry/", "ctl/entry/0000000000000004").unwrap()
            }),
        ];
        for (name, write) in writes {
            let store = journal_shaped_store();
            store.crash_replica(1);
            let before = store.replica_data(1);
            write(&store);
            assert_ne!(store.replica_data(0), before, "{name}: the write committed");
            assert_eq!(store.replica_data(1), before, "{name}: the crashed replica saw it");
            store.recover_replica(1);
            let (caught_up, freshest) = (store.replica_data(1), store.replica_data(0));
            assert_eq!(caught_up, freshest, "{name}: recovery must equal the freshest replica");
            assert!(caught_up.values().zip(freshest.values()).all(|(a, b)| Arc::ptr_eq(a, b)));
        }
    }
}
