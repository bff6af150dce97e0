//! Replicated append-only log on the quorum [`ReplicatedKvStore`] (§4): the
//! journaling substrate of the control plane. Every control-plane state
//! transition is appended as one *typed* entry under majority quorum; a fresh
//! replica rebuilds the exact state by restoring the latest snapshot and
//! replaying the suffix of the log.
//!
//! Each replica keeps the log as a journal: its lines in index order, the
//! index of the first line it still holds, and the installed snapshot. An
//! append — one entry or a batch — is one committed write that pushes the
//! encoded lines onto every live replica or, without a quorum, onto none.
//! Snapshot installation doubles as log compaction: one committed write sets
//! the snapshot and drops the lines it covers, however long the journal.
//!
//! The log is deliberately simple — strictly monotonic indices assigned by the
//! store, text-encoded entries (entry types bring their own line codec via
//! [`LogEntry`]) — but its durability model is the store's: an append that
//! returns `Ok` has been applied by a majority of replicas and survives any
//! minority failure.

use crate::kvstore::{ReplicatedKvStore, StoreError};
use std::marker::PhantomData;
use std::sync::Arc;

/// A typed log entry with a self-contained, single-line text codec.
///
/// Implementations must guarantee `decode(encode(e)) == Some(e)` and that the
/// encoded form contains no `'\n'` (the invariant keeps dumps and snapshots
/// greppable).
pub trait LogEntry: Sized {
    /// Encode the entry as a single line.
    fn encode(&self) -> String;
    /// Decode an entry previously produced by [`LogEntry::encode`].
    fn decode(line: &str) -> Option<Self>;
}

/// A typed, append-only, quorum-replicated log with snapshot compaction.
///
/// The log is the store's journal named by its prefix: two logs opened under
/// one prefix in one store are the same log, and logs under distinct
/// prefixes never see each other's entries.
#[derive(Debug, Clone)]
pub struct ReplicatedLog<E> {
    store: ReplicatedKvStore,
    /// The store's id for this log's journal.
    journal: usize,
    _entries: PhantomData<fn() -> E>,
}

impl<E: LogEntry> ReplicatedLog<E> {
    /// A log journaling under `prefix` in the given store.
    pub fn new(store: ReplicatedKvStore, prefix: impl Into<String>) -> Self {
        let journal = store.open_journal(&prefix.into());
        ReplicatedLog { store, journal, _entries: PhantomData }
    }

    /// The backing replicated store.
    pub fn store(&self) -> &ReplicatedKvStore {
        &self.store
    }

    /// Number of entries ever appended (compacted entries included); the next
    /// entry receives this index. 0 while every replica is down.
    pub fn len(&self) -> u64 {
        self.store.with_journal(self.journal, |journal| journal.end()).unwrap_or(0)
    }

    /// `true` if nothing was ever appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append one entry under quorum. Returns the entry's index.
    pub fn append(&self, entry: &E) -> Result<u64, StoreError> {
        self.append_with(entry, |_| {})
    }

    /// [`Self::append`], handing the entry's encoded line to `staged` before
    /// it is written — so a caller fingerprinting its journal hashes the
    /// very bytes the store receives instead of encoding the entry again.
    /// `staged` runs whether or not the write then commits: discard what it
    /// computed when this returns an error.
    pub fn append_with(&self, entry: &E, staged: impl FnOnce(&str)) -> Result<u64, StoreError> {
        let line: Arc<str> = entry.encode().into();
        staged(&line);
        self.store.append_lines(self.journal, std::slice::from_ref(&line))
    }

    /// Append a batch of entries as one committed write: readers observe the
    /// whole batch or none of it, so a quorum loss mid-batch leaves the log
    /// at its pre-batch state. The indices and lines stored are identical to
    /// appending the entries one by one, so replay cannot distinguish the two
    /// paths. Each encoded line is handed to `staged` in order before the
    /// batch is written (see [`Self::append_with`]). Returns the index of the
    /// first appended entry (`len()`, and nothing written, for an empty
    /// batch).
    pub fn append_all_with(
        &self,
        entries: &[E],
        mut staged: impl FnMut(&str),
    ) -> Result<u64, StoreError> {
        if entries.is_empty() {
            return Ok(self.len());
        }
        let lines: Vec<Arc<str>> = entries
            .iter()
            .map(|entry| {
                let line: Arc<str> = entry.encode().into();
                staged(&line);
                line
            })
            .collect();
        self.store.append_lines(self.journal, &lines)
    }

    /// All retained entries with index ≥ `from`, in index order, decoded from
    /// the lines where the store holds them. Entries compacted away by
    /// [`ReplicatedLog::install_snapshot`] are not returned.
    pub fn entries_from(&self, from: u64) -> Vec<(u64, E)> {
        self.store
            .with_journal(self.journal, |journal| {
                let skip = from.saturating_sub(journal.first).min(journal.lines.len() as u64);
                let lines = journal.lines.range(skip as usize..);
                (journal.first + skip..)
                    .zip(lines)
                    .filter_map(|(index, line)| Some((index, E::decode(line)?)))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Install a snapshot covering every entry with index < `upto`, then
    /// compact: the covered entries are dropped. `upto` is typically
    /// [`ReplicatedLog::len`] at snapshot time.
    ///
    /// Install and compaction are *one* committed write, so a torn install
    /// can never pair a new baseline index with stale data (or vice versa),
    /// nor leave covered entries behind: the store serves the old snapshot
    /// and journal or the new ones.
    ///
    /// The payload is copied once, into the one allocation every replica
    /// shares — a multi-megabyte state is held once, not once per replica.
    pub fn install_snapshot(
        &self,
        payload: impl Into<Arc<str>>,
        upto: u64,
    ) -> Result<(), StoreError> {
        self.store.install_snapshot(self.journal, payload.into(), upto)
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
            .with_journal(self.journal, |journal| {
                journal.snapshot.as_ref().map(|(upto, payload)| visit(*upto, payload))
            })
            .flatten()
    }

    /// Number of entries currently retained in the store (not compacted).
    pub fn retained_len(&self) -> usize {
        self.store.with_journal(self.journal, |journal| journal.lines.len()).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kvstore::Journal;
    use std::collections::BTreeMap;

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

    /// Whatever `upto`, a snapshot install is one committed write: it
    /// removes exactly the covered entries and leaves the suffix — and the
    /// log's length — as they were.
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
            assert_eq!(log.store().committed_writes(), writes + 1, "upto {upto}");
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

    /// Every replica's journal for `log`, crashed ones included.
    fn journals(log: &ReplicatedLog<Note>) -> Vec<Journal> {
        (0..log.store().replica_count())
            .map(|replica| log.store().replica_journal(replica, log.journal))
            .collect()
    }

    /// A refused append — one entry or a batch — leaves no trace on any
    /// replica, live or crashed, so nothing of it can ever replay; a retried
    /// append claims the same index.
    #[test]
    fn a_refused_append_leaves_no_trace_on_any_replica() {
        let store = ReplicatedKvStore::new(1);
        let log: ReplicatedLog<Note> = ReplicatedLog::new(store.clone(), "t");
        log.append(&Note("committed".into())).unwrap();
        store.crash_replica(0);
        store.crash_replica(1);
        let before = journals(&log);
        assert_eq!(log.append(&Note("refused".into())), Err(StoreError::NoQuorum));
        let batch = [Note("x".into()), Note("y".into())];
        assert_eq!(log.append_all_with(&batch, |_| {}), Err(StoreError::NoQuorum));
        assert_eq!(journals(&log), before, "no replica holds a refused line");
        store.recover_replica(0);
        assert_eq!(log.append(&Note("retried".into())).unwrap(), 1);
        let notes: Vec<String> = log.entries_from(0).into_iter().map(|(_, note)| note.0).collect();
        assert_eq!(notes, ["committed", "retried"]);
    }

    /// Group commit stores the same indices and lines as per-entry appends,
    /// on every replica — replay cannot tell which path journaled an entry.
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
        // The stored lines match replica for replica.
        assert_eq!(journals(&per_event), journals(&grouped));
        let writes = grouped.store().committed_writes();
        assert_eq!(
            grouped.append_all_with(&[], |_| {}).unwrap(),
            5,
            "empty batch returns the next index"
        );
        assert_eq!(grouped.len(), 5, "an empty batch writes nothing");
        assert_eq!(grouped.store().committed_writes(), writes);
    }

    /// A quorum loss mid-batch commits *nothing*: no prefix of the batch,
    /// length unchanged — the crash-between-stage-and-commit case replays to
    /// the pre-batch state.
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
        assert_eq!(log.retained_len(), 1, "no batch entry lingers");
        // A retried batch lands at the same indices.
        assert_eq!(log.append_all_with(&batch, |_| {}).unwrap(), 1);
        assert_eq!(log.len(), 4);
    }

    #[test]
    fn logs_with_distinct_prefixes_do_not_interfere() {
        let store = ReplicatedKvStore::new(1);
        let a: ReplicatedLog<Note> = ReplicatedLog::new(store.clone(), "a");
        let b: ReplicatedLog<Note> = ReplicatedLog::new(store.clone(), "b");
        a.append(&Note("x".into())).unwrap();
        assert_eq!(b.len(), 0);
        assert!(b.entries_from(0).is_empty());
        assert_eq!(a.entries_from(0).len(), 1);
        let again: ReplicatedLog<Note> = ReplicatedLog::new(store, "a");
        assert_eq!(again.entries_from(0), a.entries_from(0), "one prefix, one log");
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
        let covered = |journal: &Journal| 20u64.saturating_sub(journal.first) as usize;
        assert_eq!(covered(&store.replica_journal(3, log.journal)), 20, "replica 3 was down");
        store.recover_replica(3);
        let snapshots: Vec<Arc<str>> = journals(&log)
            .into_iter()
            .enumerate()
            .map(|(replica, journal)| {
                assert_eq!(covered(&journal), 0, "replica {replica} kept a covered entry");
                assert_eq!(journal.lines.len(), 10, "replica {replica}");
                journal.snapshot.expect("every replica holds the snapshot").1
            })
            .collect();
        assert!(snapshots.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])), "one stored copy");
        assert_eq!(log.entries_from(0).len(), 10);
    }

    /// The keyed journal the log replaced, as a plain single-copy model: one
    /// key per entry (`t/entry/{index:016}`), a `t/len` key with the next
    /// index, and a `t/snapshot` key holding `"{upto}\n{payload}"`, whose
    /// install range-deletes the covered entry keys.
    #[derive(Default)]
    struct KeyedModel {
        data: BTreeMap<String, String>,
    }

    impl KeyedModel {
        fn entry_key(index: u64) -> String {
            format!("t/entry/{index:016}")
        }

        fn len(&self) -> u64 {
            self.data.get("t/len").map_or(0, |len| len.parse().unwrap())
        }

        fn append(&mut self, lines: &[String]) {
            let first = self.len();
            for (index, line) in (first..).zip(lines) {
                self.data.insert(Self::entry_key(index), line.clone());
            }
            self.data.insert("t/len".into(), (first + lines.len() as u64).to_string());
        }

        fn install_snapshot(&mut self, payload: &str, upto: u64) {
            self.data.insert("t/snapshot".into(), format!("{upto}\n{payload}"));
            let (from, to) = (Self::entry_key(0), Self::entry_key(upto));
            self.data.retain(|key, _| !(from.as_str()..to.as_str()).contains(&key.as_str()));
        }

        fn entries_from(&self, from: u64) -> Vec<(u64, String)> {
            if from >= self.len() {
                return Vec::new();
            }
            let (from, to) = (Self::entry_key(from), Self::entry_key(self.len()));
            self.data
                .range(from..to)
                .map(|(key, line)| (key["t/entry/".len()..].parse().unwrap(), line.clone()))
                .collect()
        }

        fn retained_len(&self) -> usize {
            self.data.keys().filter(|key| key.starts_with("t/entry/")).count()
        }

        fn snapshot(&self) -> Option<(u64, String)> {
            let (upto, payload) = self.data.get("t/snapshot")?.split_once('\n')?;
            Some((upto.parse().unwrap(), payload.to_string()))
        }
    }

    /// Seeded random runs of appends, batches, snapshot installs, replica
    /// crashes and recoveries — quorum loss included — against the keyed
    /// model. After every step the log's length, replay from every index,
    /// retained count and snapshot equal the model's; a refused write leaves
    /// every replica as it was; and the live replicas hold equal journals
    /// that share one allocation per line and per snapshot (a recovered
    /// replica included).
    #[test]
    fn random_runs_match_the_keyed_journal_model() {
        // (refused writes, snapshot installs, recoveries) over every seed.
        let mut seen = (0, 0, 0);
        for seed in 1..=8u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = |bound: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % bound
            };
            let fault_tolerance = 1 + (seed % 2) as usize;
            let store = ReplicatedKvStore::new(fault_tolerance);
            let replicas = store.replica_count();
            let log: ReplicatedLog<Note> = ReplicatedLog::new(store.clone(), "t");
            let mut model = KeyedModel::default();
            let mut crashed = vec![false; replicas];
            for step in 0..100 {
                let quorum = crashed.iter().filter(|&&c| !c).count() * 2 > replicas;
                let before = journals(&log);
                let what = format!("seed {seed} step {step}");
                let written = match next(10) {
                    0..=3 => {
                        let line = format!("e{step}");
                        let result = log.append(&Note(line.clone()));
                        if quorum {
                            assert_eq!(result, Ok(model.len()), "{what}");
                            model.append(&[line]);
                        }
                        Some(result.is_ok())
                    }
                    4 | 5 => {
                        let lines: Vec<String> =
                            (0..next(4)).map(|i| format!("b{step}.{i}")).collect();
                        let notes: Vec<Note> = lines.iter().cloned().map(Note).collect();
                        let result = log.append_all_with(&notes, |_| {});
                        if quorum || lines.is_empty() {
                            assert_eq!(result, Ok(model.len()), "{what}");
                            model.append(&lines);
                        }
                        Some(result.is_ok())
                    }
                    6 => {
                        let (payload, upto) = (format!("s{step}"), next(model.len() + 3));
                        let result = log.install_snapshot(payload.as_str(), upto);
                        if quorum {
                            model.install_snapshot(&payload, upto);
                            seen.1 += 1;
                        }
                        Some(result.is_ok())
                    }
                    7 => {
                        // Crash a live replica, but never the last one: a
                        // down store serves nothing to compare.
                        let live: Vec<usize> = (0..replicas).filter(|&r| !crashed[r]).collect();
                        if live.len() > 1 {
                            let replica = live[next(live.len() as u64) as usize];
                            store.crash_replica(replica);
                            crashed[replica] = true;
                        }
                        None
                    }
                    _ => {
                        let down: Vec<usize> = (0..replicas).filter(|&r| crashed[r]).collect();
                        if !down.is_empty() {
                            let replica = down[next(down.len() as u64) as usize];
                            store.recover_replica(replica);
                            crashed[replica] = false;
                            seen.2 += 1;
                        }
                        None
                    }
                };
                if let Some(committed) = written {
                    assert!(committed || !quorum, "{what}: a write with a quorum was refused");
                    if !committed {
                        assert_eq!(journals(&log), before, "{what}: a refused write left a trace");
                        seen.0 += 1;
                    }
                }
                assert_eq!(log.len(), model.len(), "{what}");
                for from in 0..=model.len() + 1 {
                    let replayed: Vec<(u64, String)> =
                        log.entries_from(from).into_iter().map(|(i, note)| (i, note.0)).collect();
                    assert_eq!(replayed, model.entries_from(from), "{what}: from {from}");
                }
                assert_eq!(log.retained_len(), model.retained_len(), "{what}");
                assert_eq!(log.snapshot(), model.snapshot(), "{what}");
                let now = journals(&log);
                let live: Vec<&Journal> =
                    (0..replicas).filter(|&r| !crashed[r]).map(|r| &now[r]).collect();
                for pair in live.windows(2) {
                    assert_eq!(pair[0], pair[1], "{what}: live replicas differ");
                    let shared = pair[0].lines.iter().zip(&pair[1].lines);
                    assert!(shared.into_iter().all(|(a, b)| Arc::ptr_eq(a, b)), "{what}");
                    if let (Some(a), Some(b)) = (&pair[0].snapshot, &pair[1].snapshot) {
                        assert!(Arc::ptr_eq(&a.1, &b.1), "{what}: snapshot copied");
                    }
                }
            }
        }
        assert!(seen.0 > 0 && seen.1 > 0 && seen.2 > 0, "every kind of step ran: {seen:?}");
    }
}
