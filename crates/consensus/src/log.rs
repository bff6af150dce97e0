//! Replicated append-only log on the quorum [`ReplicatedStore`] (§4): the
//! journaling substrate of the control plane. Every control-plane state
//! transition is appended as one *typed* entry under majority quorum; a fresh
//! replica rebuilds the exact state by restoring the latest snapshot and
//! replaying the suffix of the log.
//!
//! The log is the store's one journal: its lines in index order, the index of
//! the first line each replica still holds, and the installed snapshot, which
//! covers every index below that one. An append — one entry or a batch — is
//! one committed write that pushes the encoded lines onto every live replica
//! or, without a quorum, onto none. Snapshot installation doubles as log
//! compaction: one committed write sets the snapshot at the journal's end and
//! drops every line, so the snapshot and the retained lines never leave a
//! gap between them.
//!
//! The log is deliberately simple — strictly monotonic indices assigned by the
//! store, text-encoded entries (entry types bring their own line codec via
//! [`LogEntry`]) — but its durability model is the store's: an append that
//! returns `Ok` has been applied by a majority of replicas and survives any
//! minority failure.

use crate::kvstore::{ReplicatedStore, StoreError};
use std::marker::PhantomData;
use std::sync::Arc;

/// A typed log entry with a self-contained, single-line text codec.
///
/// Implementations must guarantee `decode(encode(e)) == Some(e)` and that the
/// encoded form contains no `'\n'` (the invariant keeps dumps and snapshots
/// greppable). A stored line that `decode` refuses is corrupt: replay
/// ([`ReplicatedLog::entries_from`]) stops there with its index.
pub trait LogEntry: Sized {
    /// Encode the entry as a single line.
    fn encode(&self) -> String;
    /// Decode an entry previously produced by [`LogEntry::encode`]; `None`
    /// for a line that no entry encodes to.
    fn decode(line: &str) -> Option<Self>;
}

/// A typed, append-only, quorum-replicated log with snapshot compaction: the
/// journal of its store (two logs on one store are the same log).
#[derive(Debug, Clone)]
pub struct ReplicatedLog<E> {
    store: ReplicatedStore,
    _entries: PhantomData<fn() -> E>,
}

impl<E: LogEntry> ReplicatedLog<E> {
    /// The log journaling in the given store.
    pub fn new(store: ReplicatedStore) -> Self {
        ReplicatedLog { store, _entries: PhantomData }
    }

    /// The backing replicated store.
    pub fn store(&self) -> &ReplicatedStore {
        &self.store
    }

    /// Number of entries ever appended (compacted entries included); the next
    /// entry receives this index. 0 while every replica is down.
    pub fn len(&self) -> u64 {
        self.store.with_journal(|journal| journal.end()).unwrap_or(0)
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
        self.store.append_lines(std::slice::from_ref(&line))
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
        self.store.append_lines(&lines)
    }

    /// All retained entries with index ≥ `from`, in index order, decoded from
    /// the lines where the store holds them; each decoded entry's stored
    /// line is handed to `read` in the same order, so a caller
    /// fingerprinting its journal hashes the very bytes the store holds
    /// instead of encoding the entry again. Entries compacted away by
    /// [`ReplicatedLog::install_snapshot`] are not returned.
    ///
    /// A line that does not decode stops the read: the result is `Err` with
    /// that line's index, and no later line reaches `read` — a replay must
    /// not skip a transition and apply the ones after it.
    pub fn entries_from(
        &self,
        from: u64,
        mut read: impl FnMut(&str),
    ) -> Result<Vec<(u64, E)>, u64> {
        self.store
            .with_journal(|journal| {
                let skip = from.saturating_sub(journal.first).min(journal.lines.len() as u64);
                let lines = journal.lines.range(skip as usize..);
                (journal.first + skip..)
                    .zip(lines)
                    .map(|(index, line)| {
                        let entry = E::decode(line).ok_or(index)?;
                        read(line);
                        Ok((index, entry))
                    })
                    .collect()
            })
            .unwrap_or(Ok(Vec::new()))
    }

    /// Install a snapshot covering every entry appended so far, then compact:
    /// every retained entry is dropped. Returns the first index the snapshot
    /// does not cover — the log's length, read under the same store lock as
    /// the write, so no entry can fall between the snapshot and the journal.
    ///
    /// Install and compaction are *one* committed write, so a torn install
    /// can never pair a new baseline with stale data (or vice versa), nor
    /// leave covered entries behind: the store serves the old snapshot and
    /// journal or the new ones.
    ///
    /// The payload is copied once, into the one allocation every replica
    /// shares — a multi-megabyte state is held once, not once per replica.
    pub fn install_snapshot(&self, payload: impl Into<Arc<str>>) -> Result<u64, StoreError> {
        self.store.install_snapshot(payload.into())
    }

    /// `visit` the latest installed snapshot's payload in place (under the
    /// store's read lock, so it must not call back into the store or this
    /// log); `None` if no snapshot was ever installed. The snapshot covers
    /// every entry below the first retained one.
    pub fn with_snapshot<R>(&self, visit: impl FnOnce(&str) -> R) -> Option<R> {
        self.store.with_journal(|journal| journal.snapshot.as_deref().map(visit)).flatten()
    }

    /// Number of entries currently retained in the store (not compacted).
    pub fn retained_len(&self) -> usize {
        self.store.with_journal(|journal| journal.lines.len()).unwrap_or(0)
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

    fn log(fault_tolerance: usize) -> ReplicatedLog<Note> {
        ReplicatedLog::new(ReplicatedStore::new(fault_tolerance))
    }

    /// Replay from `from` as `(index, line)` pairs.
    fn replay(log: &ReplicatedLog<Note>, from: u64) -> Vec<(u64, String)> {
        let entries = log.entries_from(from, |_| {}).expect("every note decodes");
        entries.into_iter().map(|(index, note)| (index, note.0)).collect()
    }

    #[test]
    fn append_and_replay_in_order() {
        let log = log(1);
        assert!(log.is_empty());
        for i in 0..12 {
            assert_eq!(log.append(&Note(format!("e{i}"))).unwrap(), i);
        }
        assert_eq!(log.len(), 12);
        let entries = replay(&log, 0);
        assert_eq!(entries.len(), 12);
        for (i, (index, line)) in entries.iter().enumerate() {
            assert_eq!(*index, i as u64);
            assert_eq!(*line, format!("e{i}"));
        }
        let suffix = replay(&log, 9);
        assert_eq!(suffix.len(), 3);
        assert_eq!(suffix[0].0, 9);
    }

    #[test]
    fn snapshot_compacts_covered_entries() {
        let log = log(1);
        for i in 0..10 {
            log.append(&Note(format!("e{i}"))).unwrap();
        }
        assert_eq!(log.install_snapshot("state-at-10"), Ok(10));
        assert_eq!(log.with_snapshot(str::to_string), Some("state-at-10".to_string()));
        assert_eq!(log.retained_len(), 0, "entries 0..10 are compacted away");
        assert!(replay(&log, 0).is_empty());
        // Appending continues from the pre-compaction length.
        assert_eq!(log.append(&Note("e10".into())).unwrap(), 10);
        assert_eq!(log.len(), 11);
        assert_eq!(replay(&log, 0), [(10, "e10".to_string())]);
    }

    /// Whatever the journal's length, a snapshot install is one committed
    /// write: it covers every entry, keeps the log's length, and what is
    /// appended after it is exactly the suffix replay returns.
    #[test]
    fn install_snapshot_compacts_in_one_write_and_keeps_the_suffix() {
        for len in [0u64, 1, 7, 40] {
            let log = log(1);
            for i in 0..len {
                log.append(&Note(format!("e{i}"))).unwrap();
            }
            let writes = log.store().committed_writes();
            assert_eq!(log.install_snapshot("state"), Ok(len));
            assert_eq!(log.store().committed_writes(), writes + 1, "len {len}");
            assert_eq!(log.len(), len, "compaction never moves the next index");
            assert_eq!(log.retained_len(), 0);
            let suffix: Vec<(u64, String)> = (len..len + 3).map(|i| (i, format!("s{i}"))).collect();
            for (_, line) in &suffix {
                log.append(&Note(line.clone())).unwrap();
            }
            assert_eq!(replay(&log, 0), suffix, "nothing the snapshot covers is left to replay");
            assert_eq!(replay(&log, len + 1), suffix[1..]);
            assert_eq!(log.with_snapshot(str::len), Some(5));
        }
    }

    /// `append_with` / `append_all_with` hand over exactly the bytes they
    /// store, in order, and `entries_from` hands back exactly those bytes —
    /// what lets a caller fingerprint its journal without encoding every
    /// entry twice.
    #[test]
    fn staged_lines_are_the_stored_bytes() {
        let log = log(1);
        let mut staged = Vec::new();
        log.append_with(&Note("a".into()), |line| staged.push(line.to_string())).unwrap();
        let batch = [Note("b".into()), Note("c".into())];
        log.append_all_with(&batch, |line| staged.push(line.to_string())).unwrap();
        let mut read = Vec::new();
        let stored: Vec<String> = log
            .entries_from(0, |line| read.push(line.to_string()))
            .expect("every note decodes")
            .into_iter()
            .map(|(_, note)| note.0)
            .collect();
        assert_eq!(staged, stored);
        assert_eq!(read, stored);
        // Lines are staged before the write: a refused write has staged them
        // too, and the caller discards what it computed.
        log.store().crash_replica(0);
        log.store().crash_replica(1);
        let mut refused = 0;
        assert_eq!(log.append_with(&Note("d".into()), |_| refused += 1), Err(StoreError::NoQuorum));
        assert_eq!(refused, 1);
        assert_eq!(log.len(), 3);
    }

    /// An entry type whose decoder refuses lines: a single decimal digit.
    #[derive(Debug, PartialEq)]
    struct Digit(u8);

    impl LogEntry for Digit {
        fn encode(&self) -> String {
            self.0.to_string()
        }
        fn decode(line: &str) -> Option<Self> {
            line.parse().ok().filter(|&digit| digit < 10).map(Digit)
        }
    }

    /// A retained line that does not decode stops replay with its index:
    /// nothing after it is returned or handed to `read`. Replay from past
    /// it, or once a snapshot covers it, reads on.
    #[test]
    fn replay_stops_at_a_corrupt_middle_line() {
        let digits: ReplicatedLog<Digit> = ReplicatedLog::new(ReplicatedStore::new(1));
        let notes: ReplicatedLog<Note> = ReplicatedLog::new(digits.store().clone());
        digits.append(&Digit(1)).unwrap();
        notes.append(&Note("not a digit".into())).unwrap();
        digits.append(&Digit(3)).unwrap();
        let mut read = Vec::new();
        assert_eq!(digits.entries_from(0, |line| read.push(line.to_string())), Err(1));
        assert_eq!(read, ["1"], "no line after the corrupt one is read");
        assert_eq!(digits.entries_from(1, |_| {}), Err(1));
        assert_eq!(digits.entries_from(2, |_| {}), Ok(vec![(2, Digit(3))]));
        digits.install_snapshot("covers the corrupt line").unwrap();
        digits.append(&Digit(4)).unwrap();
        assert_eq!(digits.entries_from(0, |_| {}), Ok(vec![(3, Digit(4))]));
    }

    #[test]
    fn entries_survive_minority_replica_failure() {
        let log = log(1);
        log.append(&Note("a".into())).unwrap();
        log.store().crash_replica(0);
        log.append(&Note("b".into())).unwrap();
        assert_eq!(replay(&log, 0).len(), 2);
        // Without a quorum, appends fail and the log is unchanged.
        log.store().crash_replica(1);
        assert_eq!(log.append(&Note("c".into())), Err(StoreError::NoQuorum));
        assert_eq!(log.len(), 2);
    }

    /// Every replica's journal, crashed ones included.
    fn journals(log: &ReplicatedLog<Note>) -> Vec<Journal> {
        (0..log.store().replica_count())
            .map(|replica| log.store().replica_journal(replica))
            .collect()
    }

    /// A refused append — one entry or a batch — leaves no trace on any
    /// replica, live or crashed, so nothing of it can ever replay; a retried
    /// append claims the same index.
    #[test]
    fn a_refused_append_leaves_no_trace_on_any_replica() {
        let log = log(1);
        let store = log.store();
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
        assert_eq!(replay(&log, 0), [(0, "committed".to_string()), (1, "retried".to_string())]);
    }

    /// Group commit stores the same indices and lines as per-entry appends,
    /// on every replica — replay cannot tell which path journaled an entry.
    #[test]
    fn append_all_is_byte_identical_to_per_entry_appends() {
        let (per_event, grouped) = (log(1), log(1));
        let batch: Vec<Note> = (0..5).map(|i| Note(format!("e{i}"))).collect();
        per_event.append(&batch[0]).unwrap();
        grouped.append(&batch[0]).unwrap();
        for entry in &batch[1..] {
            per_event.append(entry).unwrap();
        }
        assert_eq!(grouped.append_all_with(&batch[1..], |_| {}).unwrap(), 1);
        assert_eq!(grouped.len(), per_event.len());
        for log in [&per_event, &grouped] {
            for (i, (index, line)) in replay(log, 0).iter().enumerate() {
                assert_eq!(*index, i as u64);
                assert_eq!(*line, format!("e{i}"));
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
        let log = log(1);
        let store = log.store();
        log.append(&Note("durable".into())).unwrap();
        store.crash_replica(0);
        store.crash_replica(1);
        let batch: Vec<Note> = (0..3).map(|i| Note(format!("lost{i}"))).collect();
        assert_eq!(log.append_all_with(&batch, |_| {}), Err(StoreError::NoQuorum));
        store.recover_replica(0);
        store.recover_replica(1);
        assert_eq!(log.len(), 1, "the failed batch committed nothing");
        assert_eq!(replay(&log, 0), [(0, "durable".to_string())]);
        assert_eq!(log.retained_len(), 1, "no batch entry lingers");
        // A retried batch lands at the same indices.
        assert_eq!(log.append_all_with(&batch, |_| {}).unwrap(), 1);
        assert_eq!(log.len(), 4);
    }

    /// Compaction reaches every replica: after a snapshot install no replica
    /// holds an entry the snapshot covers — one that was down during the
    /// install included, once recovered — and every replica shares the one
    /// stored snapshot value.
    #[test]
    fn install_snapshot_leaves_no_covered_entry_on_any_replica() {
        let log = log(2);
        let store = log.store();
        for i in 0..30 {
            log.append(&Note(format!("e{i}"))).unwrap();
        }
        store.crash_replica(3);
        assert_eq!(log.install_snapshot("x".repeat(4096)), Ok(30));
        for i in 30..40 {
            log.append(&Note(format!("e{i}"))).unwrap();
        }
        assert_eq!(store.replica_journal(3).lines.len(), 30, "replica 3 was down");
        store.recover_replica(3);
        let snapshots: Vec<Arc<str>> = journals(&log)
            .into_iter()
            .enumerate()
            .map(|(replica, journal)| {
                assert_eq!(journal.first, 30, "replica {replica} kept a covered entry");
                assert_eq!(journal.lines.len(), 10, "replica {replica}");
                journal.snapshot.expect("every replica holds the snapshot")
            })
            .collect();
        assert!(snapshots.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])), "one stored copy");
        assert_eq!(replay(&log, 0).len(), 10);
    }

    /// The keyed journal the log replaced, as a plain single-copy model: one
    /// key per entry (`t/entry/{index:016}`), a `t/len` key with the next
    /// index, and a `t/snapshot` key holding `"{upto}\n{payload}"`, whose
    /// install at the journal's end range-deletes every entry key.
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

        fn install_snapshot(&mut self, payload: &str) -> u64 {
            let upto = self.len();
            self.data.insert("t/snapshot".into(), format!("{upto}\n{payload}"));
            let (from, to) = (Self::entry_key(0), Self::entry_key(upto));
            self.data.retain(|key, _| !(from.as_str()..to.as_str()).contains(&key.as_str()));
            upto
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
    /// crashes and recoveries — quorum loss and the whole store going down
    /// included — against the keyed model. After every step the live
    /// replicas hold equal journals that share one allocation per line and
    /// per snapshot (a recovered replica included), and a refused write
    /// leaves every replica as it was. While a majority is live, the log's
    /// length, replay from every index, retained count and snapshot equal the
    /// model's, and the snapshot and the retained entries leave no gap: the
    /// snapshot covers exactly the indices below the first retained entry.
    #[test]
    fn random_runs_match_the_keyed_journal_model() {
        // (refused writes, snapshot installs, recoveries, full outages) over
        // every seed.
        let mut seen = (0, 0, 0, 0);
        for seed in 1..=8u64 {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            let mut next = |bound: u64| {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng % bound
            };
            let fault_tolerance = 1 + (seed % 2) as usize;
            let log = log(fault_tolerance);
            let store = log.store().clone();
            let replicas = store.replica_count();
            let mut model = KeyedModel::default();
            let mut crashed = vec![false; replicas];
            for step in 0..150 {
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
                        if quorum && !lines.is_empty() {
                            assert_eq!(result, Ok(model.len()), "{what}");
                            model.append(&lines);
                        }
                        Some(result.is_ok())
                    }
                    6 => {
                        let payload = format!("s{step}");
                        let result = log.install_snapshot(payload.as_str());
                        if quorum {
                            assert_eq!(result, Ok(model.install_snapshot(&payload)), "{what}");
                            seen.1 += 1;
                        }
                        Some(result.is_ok())
                    }
                    7 => {
                        // Crash a live replica, the last one included.
                        let live: Vec<usize> = (0..replicas).filter(|&r| !crashed[r]).collect();
                        if !live.is_empty() {
                            let replica = live[next(live.len() as u64) as usize];
                            store.crash_replica(replica);
                            crashed[replica] = true;
                            seen.3 += usize::from(live.len() == 1);
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
                let now = journals(&log);
                let live: Vec<&Journal> =
                    (0..replicas).filter(|&r| !crashed[r]).map(|r| &now[r]).collect();
                for pair in live.windows(2) {
                    assert_eq!(pair[0], pair[1], "{what}: live replicas differ");
                    let shared = pair[0].lines.iter().zip(&pair[1].lines);
                    assert!(shared.into_iter().all(|(a, b)| Arc::ptr_eq(a, b)), "{what}");
                    if let (Some(a), Some(b)) = (&pair[0].snapshot, &pair[1].snapshot) {
                        assert!(Arc::ptr_eq(a, b), "{what}: snapshot copied");
                    }
                }
                // A minority serves what it retained, which may be stale.
                if live.len() * 2 <= replicas {
                    continue;
                }
                assert_eq!(log.len(), model.len(), "{what}");
                for from in 0..=model.len() + 1 {
                    assert_eq!(replay(&log, from), model.entries_from(from), "{what}: from {from}");
                }
                assert_eq!(log.retained_len(), model.retained_len(), "{what}");
                let first = log.len() - log.retained_len() as u64;
                let snapshot = log.with_snapshot(|payload| (first, payload.to_string()));
                assert_eq!(snapshot, model.snapshot(), "{what}");
                let indices: Vec<u64> = replay(&log, first).into_iter().map(|(i, _)| i).collect();
                assert_eq!(indices, (first..log.len()).collect::<Vec<_>>(), "{what}: a gap");
                assert!(snapshot.is_some() || first == 0, "{what}: entries lost uncovered");
            }
        }
        assert!(
            seen.0 > 0 && seen.1 > 0 && seen.2 > 0 && seen.3 > 0,
            "every kind of step ran: {seen:?}"
        );
    }
}
