//! Replicated append-only log over the quorum [`ReplicatedKvStore`] (§4): the
//! journaling substrate of the control plane. Every control-plane state
//! transition is appended as one *typed* entry under majority quorum; a fresh
//! replica rebuilds the exact state by restoring the latest snapshot and
//! replaying the suffix of the log. Snapshot installation doubles as log
//! compaction: entries covered by the snapshot are deleted from the store in
//! one atomic range delete — a snapshot costs two committed writes however
//! long the journal it covers.
//!
//! The log is deliberately simple — strictly monotonic indices assigned by the
//! appender, text-encoded entries (entry types bring their own line codec via
//! [`LogEntry`]) — but its durability model is the store's: an append that
//! returns `Ok` has been applied by a majority of replicas and survives any
//! minority failure.

use crate::kvstore::{ReplicatedKvStore, StoreError};
use std::marker::PhantomData;
use std::sync::Arc;

/// A typed log entry with a self-contained, single-line text codec.
///
/// Implementations must guarantee `decode(encode(e)) == Some(e)` and that the
/// encoded form contains no `'\n'` (entries are stored one per key, but the
/// invariant keeps dumps and snapshots greppable).
pub trait LogEntry: Sized {
    /// Encode the entry as a single line.
    fn encode(&self) -> String;
    /// Decode an entry previously produced by [`LogEntry::encode`].
    fn decode(line: &str) -> Option<Self>;
}

/// A typed, append-only, quorum-replicated log with snapshot compaction.
///
/// Keys written under `prefix`:
/// - `{prefix}/entry/{index:016}` — one encoded entry per index,
/// - `{prefix}/len` — number of committed entries (next index),
/// - `{prefix}/snapshot` — `"{first index not covered}\n{payload}"`,
///   committed as one key so index and payload can never tear apart.
///
/// The fixed-width index makes key order equal index order, so replay
/// ([`Self::entries_from`]) and compaction ([`Self::install_snapshot`]) are
/// range operations on the store's ordered keys, not filters over every key.
#[derive(Debug, Clone)]
pub struct ReplicatedLog<E> {
    store: ReplicatedKvStore,
    /// `{prefix}/entry/` — an entry key is this plus the 16-digit index.
    entry_prefix: String,
    len_key: String,
    snapshot_key: String,
    _entries: PhantomData<fn() -> E>,
}

impl<E: LogEntry> ReplicatedLog<E> {
    /// A log journaling under `prefix` in the given store.
    pub fn new(store: ReplicatedKvStore, prefix: impl Into<String>) -> Self {
        let prefix = prefix.into();
        ReplicatedLog {
            store,
            entry_prefix: format!("{prefix}/entry/"),
            len_key: format!("{prefix}/len"),
            snapshot_key: format!("{prefix}/snapshot"),
            _entries: PhantomData,
        }
    }

    /// The backing replicated store.
    pub fn store(&self) -> &ReplicatedKvStore {
        &self.store
    }

    fn entry_key(&self, index: u64) -> String {
        format!("{}{index:016}", self.entry_prefix)
    }

    /// Number of entries ever appended (compacted entries included); the next
    /// entry receives this index.
    pub fn len(&self) -> u64 {
        self.store.read(&self.len_key, |len| len.parse().ok()).ok().flatten().unwrap_or(0)
    }

    /// `true` if nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one entry under quorum. Returns the entry's index.
    ///
    /// The entry key is written before the length key; an entry whose length
    /// update failed (the append returned an error) is a *phantom*: readers
    /// never observe it, because [`ReplicatedLog::entries_from`] bounds
    /// enumeration by the committed length, and a retried append simply
    /// overwrites the phantom key at the same index.
    pub fn append(&self, entry: &E) -> Result<u64, StoreError> {
        self.append_with(entry, |_| {})
    }

    /// [`Self::append`], handing the entry's encoded line to `staged` before
    /// it is written — so a caller fingerprinting its journal hashes the
    /// very bytes the store receives instead of encoding the entry again.
    /// `staged` runs whether or not the write then commits: discard what it
    /// computed when this returns an error.
    pub fn append_with(&self, entry: &E, staged: impl FnOnce(&str)) -> Result<u64, StoreError> {
        let index = self.len();
        let line = entry.encode();
        staged(&line);
        self.store.put(self.entry_key(index), line)?;
        self.store.put(self.len_key.as_str(), (index + 1).to_string())?;
        Ok(index)
    }

    /// Append a batch of entries in one quorum round
    /// (`ReplicatedKvStore::put_all`): every entry key *and* the length
    /// key commit atomically. Unlike a sequence of [`Self::append`] calls, a
    /// quorum loss mid-batch cannot leave a committed prefix of the batch
    /// behind — readers observe the whole batch or none of it, and a failed
    /// batch leaves the log at its pre-batch state. The keys, indices, and
    /// entry bytes written are identical to appending the entries one by
    /// one, so replay cannot distinguish the two paths. Each encoded line is
    /// handed to `staged` in order before the batch is written (see
    /// [`Self::append_with`]). Returns the index of the first appended entry
    /// (`len()` unchanged for an empty batch).
    pub fn append_all_with(
        &self,
        entries: &[E],
        mut staged: impl FnMut(&str),
    ) -> Result<u64, StoreError> {
        let index = self.len();
        if entries.is_empty() {
            return Ok(index);
        }
        let mut pairs: Vec<(Arc<str>, Arc<str>)> = Vec::with_capacity(entries.len() + 1);
        for (i, entry) in entries.iter().enumerate() {
            let line = entry.encode();
            staged(&line);
            pairs.push((self.entry_key(index + i as u64).into(), line.into()));
        }
        let len = (index + entries.len() as u64).to_string();
        pairs.push((self.len_key.as_str().into(), len.into()));
        self.store.put_all(&pairs)?;
        Ok(index)
    }

    /// All retained entries with index ≥ `from`, in index order. Entries
    /// compacted away by [`ReplicatedLog::install_snapshot`] are not
    /// returned, and neither is a phantom entry from a torn append (only
    /// indices below the committed length count).
    pub fn entries_from(&self, from: u64) -> Vec<(u64, E)> {
        let mut entries = Vec::new();
        self.store.scan(&self.entry_key(from), &self.entry_key(self.len()), |key, line| {
            let index = key.strip_prefix(self.entry_prefix.as_str()).and_then(|i| i.parse().ok());
            if let (Some(index), Some(entry)) = (index, E::decode(line)) {
                entries.push((index, entry));
            }
        });
        entries
    }

    /// Install a snapshot covering every entry with index < `upto`, then
    /// compact: the covered entries are deleted from the store. `upto` is
    /// typically [`ReplicatedLog::len`] at snapshot time.
    ///
    /// Index and payload are committed as *one* key (one quorum write), so a
    /// torn install can never pair a new baseline index with stale data (or
    /// vice versa) — the store either serves the old snapshot or the new one.
    /// Compaction is one more write, an atomic range delete
    /// (`ReplicatedKvStore::delete_range`): the covered entries go together
    /// or — if the quorum is lost between the two writes — stay together,
    /// where [`ReplicatedLog::entries_from`] callers starting at the snapshot
    /// index never see them.
    ///
    /// The payload is taken by value: the index line is spliced in front of
    /// a `String` handed over in place, and the result is copied once, into
    /// the one allocation every replica shares — a multi-megabyte state is
    /// held once, not once per replica.
    pub fn install_snapshot(
        &self,
        payload: impl Into<String>,
        upto: u64,
    ) -> Result<(), StoreError> {
        let mut value = payload.into();
        value.insert_str(0, &format!("{upto}\n"));
        self.store.put(self.snapshot_key.as_str(), value)?;
        self.store.delete_range(&self.entry_key(0), &self.entry_key(upto))
    }

    /// The latest installed snapshot as `(first index not covered, payload)`,
    /// or `None` if no snapshot was ever installed.
    pub fn snapshot(&self) -> Option<(u64, String)> {
        self.with_snapshot(|index, payload| (index, payload.to_string()))
    }

    /// [`Self::snapshot`] without copying the payload: `visit` borrows it in
    /// place (under the store's read lock, so it must not call back into the
    /// store or this log).
    pub fn with_snapshot<R>(&self, visit: impl FnOnce(u64, &str) -> R) -> Option<R> {
        self.store
            .read(&self.snapshot_key, |value| {
                let (index, payload) = value.split_once('\n')?;
                Some(visit(index.parse().ok()?, payload))
            })
            .ok()
            .flatten()
    }

    /// Number of entries currently retained in the store (not compacted).
    pub fn retained_len(&self) -> usize {
        self.store.keys_with_prefix(&self.entry_prefix).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Note(String);

    impl LogEntry for Note {
        fn encode(&self) -> String {
            self.0.clone()
        }
        fn decode(line: &str) -> Option<Self> {
            Some(Note(line.to_string()))
        }
    }

    #[test]
    fn append_and_replay_in_order() {
        let log: ReplicatedLog<Note> = ReplicatedLog::new(ReplicatedKvStore::new(1), "t");
        assert!(log.is_empty());
        for i in 0..12 {
            assert_eq!(log.append(&Note(format!("e{i}"))).unwrap(), i);
        }
        assert_eq!(log.len(), 12);
        let entries = log.entries_from(0);
        assert_eq!(entries.len(), 12);
        for (i, (index, note)) in entries.iter().enumerate() {
            assert_eq!(*index, i as u64);
            assert_eq!(note.0, format!("e{i}"));
        }
        let suffix = log.entries_from(9);
        assert_eq!(suffix.len(), 3);
        assert_eq!(suffix[0].0, 9);
    }

    #[test]
    fn snapshot_compacts_covered_entries() {
        let log: ReplicatedLog<Note> = ReplicatedLog::new(ReplicatedKvStore::new(1), "t");
        for i in 0..10 {
            log.append(&Note(format!("e{i}"))).unwrap();
        }
        log.install_snapshot("state-at-7", 7).unwrap();
        assert_eq!(log.snapshot(), Some((7, "state-at-7".to_string())));
        assert_eq!(log.retained_len(), 3, "entries 0..7 are compacted away");
        let entries = log.entries_from(7);
        assert_eq!(entries.iter().map(|(i, _)| *i).collect::<Vec<_>>(), vec![7, 8, 9]);
        // Appending continues from the pre-compaction length.
        assert_eq!(log.append(&Note("e10".into())).unwrap(), 10);
        assert_eq!(log.len(), 11);
    }

    /// Compaction is a range operation: whatever `upto`, it costs the same
    /// two committed writes, removes exactly the covered entries, and leaves
    /// the suffix — and the log's length — as they were.
    #[test]
    fn install_snapshot_compacts_in_one_write_and_keeps_the_suffix() {
        for upto in [0u64, 1, 7, 40] {
            let log: ReplicatedLog<Note> = ReplicatedLog::new(ReplicatedKvStore::new(1), "t");
            let other: ReplicatedLog<Note> = ReplicatedLog::new(log.store().clone(), "u");
            for i in 0..40 {
                log.append(&Note(format!("e{i}"))).unwrap();
            }
            other.append(&Note("bystander".into())).unwrap();
            let suffix = log.entries_from(upto);
            let writes = log.store().committed_writes();
            log.install_snapshot("state", upto).unwrap();
            let compaction = u64::from(upto > 0);
            assert_eq!(log.store().committed_writes(), writes + 1 + compaction, "upto {upto}");
            assert_eq!(log.len(), 40, "compaction never moves the next index");
            assert_eq!(log.retained_len() as u64, log.len() - upto);
            assert_eq!(log.entries_from(upto), suffix);
            assert_eq!(log.entries_from(0), suffix, "nothing below `upto` is left to replay");
            assert_eq!(log.snapshot(), Some((upto, "state".to_string())));
            assert_eq!(log.with_snapshot(|index, payload| (index, payload.len())), Some((upto, 5)));
            assert_eq!(other.entries_from(0).len(), 1, "another log's entries are not ours");
        }
    }

    /// `append_with` / `append_all_with` hand over exactly the bytes they
    /// store, in order — what lets a caller fingerprint its journal without
    /// encoding every entry twice.
    #[test]
    fn staged_lines_are_the_stored_bytes() {
        let log: ReplicatedLog<Note> = ReplicatedLog::new(ReplicatedKvStore::new(1), "t");
        let mut staged = Vec::new();
        log.append_with(&Note("a".into()), |line| staged.push(line.to_string())).unwrap();
        let batch = [Note("b".into()), Note("c".into())];
        log.append_all_with(&batch, |line| staged.push(line.to_string())).unwrap();
        let stored: Vec<String> = log.entries_from(0).into_iter().map(|(_, note)| note.0).collect();
        assert_eq!(staged, stored);
        // Lines are staged before the write: a refused write has staged them
        // too, and the caller discards what it computed.
        log.store().crash_replica(0);
        log.store().crash_replica(1);
        let mut refused = 0;
        assert_eq!(log.append_with(&Note("d".into()), |_| refused += 1), Err(StoreError::NoQuorum));
        assert_eq!(refused, 1);
        assert_eq!(log.len(), 3);
    }

    #[test]
    fn entries_survive_minority_replica_failure() {
        let log: ReplicatedLog<Note> = ReplicatedLog::new(ReplicatedKvStore::new(1), "t");
        log.append(&Note("a".into())).unwrap();
        log.store().crash_replica(0);
        log.append(&Note("b".into())).unwrap();
        assert_eq!(log.entries_from(0).len(), 2);
        // Without a quorum, appends fail and the log is unchanged.
        log.store().crash_replica(1);
        assert_eq!(log.append(&Note("c".into())), Err(StoreError::NoQuorum));
        assert_eq!(log.len(), 2);
    }

    /// Regression: an entry key whose length update never committed (a torn
    /// append) is a phantom — replay must not observe it, and a retried
    /// append overwrites it at the same index.
    #[test]
    fn torn_append_leaves_no_phantom_entry_in_replay() {
        let store = ReplicatedKvStore::new(1);
        let log: ReplicatedLog<Note> = ReplicatedLog::new(store.clone(), "t");
        log.append(&Note("committed".into())).unwrap();
        // Simulate the torn second append: entry key written, len key not.
        store.put("t/entry/0000000000000001", "phantom").unwrap();
        assert_eq!(log.len(), 1);
        let entries = log.entries_from(0);
        assert_eq!(entries.len(), 1, "phantom entry must not replay");
        assert_eq!(entries[0].1 .0, "committed");
        // A retried append claims the same index, replacing the phantom.
        assert_eq!(log.append(&Note("retried".into())).unwrap(), 1);
        let entries = log.entries_from(0);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[1].1 .0, "retried");
    }

    /// Group commit writes the same keys, indices, and bytes as per-entry
    /// appends — replay cannot tell which path journaled an entry.
    #[test]
    fn append_all_is_byte_identical_to_per_entry_appends() {
        let per_event: ReplicatedLog<Note> = ReplicatedLog::new(ReplicatedKvStore::new(1), "t");
        let grouped: ReplicatedLog<Note> = ReplicatedLog::new(ReplicatedKvStore::new(1), "t");
        let batch: Vec<Note> = (0..5).map(|i| Note(format!("e{i}"))).collect();
        per_event.append(&batch[0]).unwrap();
        grouped.append(&batch[0]).unwrap();
        for entry in &batch[1..] {
            per_event.append(entry).unwrap();
        }
        assert_eq!(grouped.append_all_with(&batch[1..], |_| {}).unwrap(), 1);
        assert_eq!(grouped.len(), per_event.len());
        for log in [&per_event, &grouped] {
            for (i, (index, note)) in log.entries_from(0).iter().enumerate() {
                assert_eq!(*index, i as u64);
                assert_eq!(note.0, format!("e{i}"));
            }
        }
        // The stored bytes match key for key.
        for key in per_event.store().keys_with_prefix("t/") {
            assert_eq!(per_event.store().get(&key), grouped.store().get(&key), "key {key}");
        }
        assert_eq!(
            grouped.append_all_with(&[], |_| {}).unwrap(),
            5,
            "empty batch returns the next index"
        );
        assert_eq!(grouped.len(), 5, "an empty batch writes nothing");
    }

    /// A quorum loss mid-batch commits *nothing*: no prefix of the batch, no
    /// phantom entries, length unchanged — the crash-between-stage-and-commit
    /// case replays to the pre-batch state.
    #[test]
    fn a_failed_group_commit_leaves_the_log_at_its_pre_batch_state() {
        let store = ReplicatedKvStore::new(1);
        let log: ReplicatedLog<Note> = ReplicatedLog::new(store.clone(), "t");
        log.append(&Note("durable".into())).unwrap();
        store.crash_replica(0);
        store.crash_replica(1);
        let batch: Vec<Note> = (0..3).map(|i| Note(format!("lost{i}"))).collect();
        assert_eq!(log.append_all_with(&batch, |_| {}), Err(StoreError::NoQuorum));
        store.recover_replica(0);
        store.recover_replica(1);
        assert_eq!(log.len(), 1, "the failed batch committed nothing");
        let entries = log.entries_from(0);
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].1 .0, "durable");
        assert_eq!(log.retained_len(), 1, "no phantom batch entries linger");
        // A retried batch lands at the same indices.
        assert_eq!(log.append_all_with(&batch, |_| {}).unwrap(), 1);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn logs_with_distinct_prefixes_do_not_interfere() {
        let store = ReplicatedKvStore::new(1);
        let a: ReplicatedLog<Note> = ReplicatedLog::new(store.clone(), "a");
        let b: ReplicatedLog<Note> = ReplicatedLog::new(store, "b");
        a.append(&Note("x".into())).unwrap();
        assert_eq!(b.len(), 0);
        assert!(b.entries_from(0).is_empty());
        assert_eq!(a.entries_from(0).len(), 1);
    }

    /// Compaction reaches every replica: after a snapshot install no replica
    /// holds an entry the snapshot covers — one that was down during the
    /// install included, once recovered — and every replica shares the one
    /// stored snapshot value.
    #[test]
    fn install_snapshot_leaves_no_covered_entry_on_any_replica() {
        let store = ReplicatedKvStore::new(2);
        let log: ReplicatedLog<Note> = ReplicatedLog::new(store.clone(), "t");
        for i in 0..30 {
            log.append(&Note(format!("e{i}"))).unwrap();
        }
        store.crash_replica(3);
        log.install_snapshot("x".repeat(4096), 20).unwrap();
        let covered = |replica: usize| {
            let data = store.replica_data(replica);
            let from = log.entry_key(0);
            let to = log.entry_key(20);
            data.keys().filter(|key| (from.as_str()..to.as_str()).contains(&&***key)).count()
        };
        assert_eq!(covered(3), 20, "the crashed replica missed the compaction");
        store.recover_replica(3);
        let snapshots: Vec<Arc<str>> = (0..store.replica_count())
            .map(|replica| {
                assert_eq!(covered(replica), 0, "replica {replica} kept a covered entry");
                Arc::clone(&store.replica_data(replica)["t/snapshot"])
            })
            .collect();
        assert!(snapshots.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])), "one stored copy");
        assert_eq!(log.entries_from(0).len(), 10);
    }
}
