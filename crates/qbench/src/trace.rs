//! Spans recorded from outside the library, around the calls into each
//! crate's public functions. A span is `{name, start_ns, end_ns, parent,
//! round, job}`; spans stay in memory and are written out as JSON lines when
//! the workload ends. A layer's *self time* is its span's duration minus the
//! part of that interval its child spans cover.
//!
//! Time the library reports about itself (`journal_nanos()`,
//! `scheduling_nanos()`, `StageTimings`) enters as *synthetic* child spans:
//! the delta of the counter across a call becomes a child of that call's
//! span, laid end to end from the parent's start, so the parent's self time
//! excludes it exactly like a measured child.

use crate::json;
use std::collections::BTreeMap;
use std::time::Instant;

/// Handle of an open or closed span (index into the tracer's span list).
pub type SpanId = u32;

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `<layer>.<operation>`, e.g. `transpiler.transpile`.
    pub name: &'static str,
    /// Start, nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Benchmark round the span belongs to.
    pub round: u32,
    /// Job (or call) index within the round; spans of one job share it.
    pub job: u32,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// In-memory span recorder. Disabled (the default for untraced rounds) it
/// reads no clock and stores nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<SpanId>,
    /// Where the next synthetic child of each parent starts.
    synthetic_cursor: BTreeMap<SpanId, u64>,
    round: u32,
    job: u32,
}

impl Tracer {
    /// A disabled tracer.
    pub fn new() -> Self {
        Tracer {
            enabled: false,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            synthetic_cursor: BTreeMap::new(),
            round: 0,
            job: 0,
        }
    }

    /// Switch recording on or off (between rounds, never inside a span).
    pub fn set_enabled(&mut self, enabled: bool) {
        debug_assert!(self.open.is_empty(), "toggled inside an open span");
        self.enabled = enabled;
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Tag subsequent spans with a round.
    pub fn set_round(&mut self, round: usize) {
        self.round = round as u32;
    }

    /// Tag subsequent spans with a job index.
    pub fn set_job(&mut self, job: usize) {
        self.job = job as u32;
    }

    /// Number of spans recorded so far.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span.
    pub fn begin(&mut self, name: &'static str) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        let id = self.spans.len() as SpanId;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.open.last().copied(),
            round: self.round,
            job: self.job,
        });
        self.open.push(id);
        Some(id)
    }

    /// Close a span opened by [`Self::begin`].
    pub fn end(&mut self, id: Option<SpanId>) {
        let Some(id) = id else { return };
        let now = self.now_ns();
        let top = self.open.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = now;
    }

    /// Run `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.begin(name);
        let out = f(self);
        self.end(id);
        out
    }

    /// Attach `duration_ns` of library-reported time to `parent` as a
    /// synthetic child span (see the module docs). The child is clipped to
    /// the parent's interval. Returns the child so stage splits can nest.
    pub fn synthetic_child(
        &mut self,
        parent: Option<SpanId>,
        name: &'static str,
        duration_ns: u64,
    ) -> Option<SpanId> {
        let parent = parent?;
        if duration_ns == 0 {
            return None;
        }
        let (p_start, p_end, round, job) = {
            let p = &self.spans[parent as usize];
            (p.start_ns, p.end_ns, p.round, p.job)
        };
        let cursor = self.synthetic_cursor.entry(parent).or_insert(p_start);
        let start = (*cursor).min(p_end);
        let end = start.saturating_add(duration_ns).min(p_end);
        *cursor = end;
        let id = self.spans.len() as SpanId;
        self.spans.push(Span {
            name,
            start_ns: start,
            end_ns: end,
            parent: Some(parent),
            round,
            job,
        });
        Some(id)
    }

    /// Self time per span: duration minus the union of its direct children's
    /// intervals (clipped to the span), in nanoseconds.
    pub fn self_times_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent as usize].push((span.start_ns, span.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(span, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                for &(start, end) in kids.iter() {
                    let start = start.max(reach);
                    let end = end.min(span.end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                span.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// The name of the outermost ancestor of a span (its phase: timed round,
    /// replay, probe or set-up).
    fn root_name(&self, mut id: SpanId) -> &'static str {
        while let Some(parent) = self.spans[id as usize].parent {
            id = parent;
        }
        self.spans[id as usize].name
    }

    /// Per span name: (count, summed self seconds, per-span durations in
    /// seconds), restricted to spans whose outermost ancestor is one of
    /// `roots`.
    pub fn summarize(&self, roots: &[&str]) -> BTreeMap<&'static str, NameSummary> {
        let self_ns = self.self_times_ns();
        let mut out: BTreeMap<&'static str, NameSummary> = BTreeMap::new();
        for (id, span) in self.spans.iter().enumerate() {
            if !roots.contains(&self.root_name(id as SpanId)) {
                continue;
            }
            let entry = out.entry(span.name).or_default();
            entry.count += 1;
            entry.self_s += self_ns[id] as f64 * 1e-9;
            entry.durations_s.push(span.duration_ns() as f64 * 1e-9);
        }
        out
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(self.spans.len() * 96);
        for (id, span) in self.spans.iter().enumerate() {
            out.push_str(&format!(
                "{{\"id\":{id},\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"round\":{},\"job\":{}}}\n",
                json::quote(span.name),
                span.start_ns,
                span.end_ns,
                span.parent.map_or("null".to_string(), |p| p.to_string()),
                span.round,
                span.job
            ));
        }
        out
    }

    #[cfg(test)]
    fn push_raw(&mut self, name: &'static str, start: u64, end: u64, parent: Option<SpanId>) {
        self.spans.push(Span { name, start_ns: start, end_ns: end, parent, round: 0, job: 0 });
    }
}

/// Aggregate of all spans sharing a name.
#[derive(Debug, Default, Clone)]
pub struct NameSummary {
    /// Number of spans.
    pub count: usize,
    /// Summed self time in seconds.
    pub self_s: f64,
    /// Each span's full duration in seconds.
    pub durations_s: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let mut t = Tracer::new();
        t.push_raw("root", 0, 100, None); // 0
        t.push_raw("a", 10, 30, Some(0)); // 1: child
        t.push_raw("b", 30, 50, Some(0)); // 2: adjacent child
        t.push_raw("a.inner", 12, 20, Some(1)); // 3: grandchild, not subtracted from root
        t.push_raw("c", 45, 60, Some(0)); // 4: overlaps b by 5
        t.push_raw("d", 90, 140, Some(0)); // 5: runs past the parent, clipped
        let own = t.self_times_ns();
        // root: 100 − (20 + 20 + 10 + 10) = 40
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 12);
        assert_eq!(own[2], 20);
        assert_eq!(own[3], 8);
        let by_name = t.summarize(&["root"]);
        assert_eq!(by_name["a"].count, 1);
        assert!((by_name["root"].self_s - 40e-9).abs() < 1e-15);
        assert!(t.summarize(&["other"]).is_empty());
        assert_eq!(by_name.len(), 6);
    }

    #[test]
    fn synthetic_children_tile_the_parent_and_clip() {
        let mut t = Tracer::new();
        t.set_enabled(true);
        t.push_raw("call", 1_000, 2_000, None);
        let a = t.synthetic_child(Some(0), "journal", 300);
        let b = t.synthetic_child(Some(0), "nsga2", 900);
        assert_eq!(t.synthetic_child(Some(0), "none", 0), None);
        assert_eq!(t.synthetic_child(None, "none", 5), None);
        let (a, b) = (a.unwrap() as usize, b.unwrap() as usize);
        assert_eq!((t.spans[a].start_ns, t.spans[a].end_ns), (1_000, 1_300));
        // The second child is clipped at the parent's end.
        assert_eq!((t.spans[b].start_ns, t.spans[b].end_ns), (1_300, 2_000));
        assert_eq!(t.self_times_ns()[0], 0);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new();
        let id = t.begin("x");
        assert_eq!(id, None);
        t.end(id);
        assert_eq!(t.span("y", |_| 7), 7);
        assert_eq!(t.len(), 0);
        t.set_enabled(true);
        t.set_round(3);
        t.set_job(9);
        t.span("outer", |t| t.span("inner", |_| ()));
        assert_eq!(t.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!((t.spans[1].round, t.spans[1].job), (3, 9));
        let lines = t.to_jsonl();
        assert_eq!(lines.lines().count(), 2);
        assert!(lines.contains("\"name\":\"inner\"") && lines.contains("\"parent\":0"));
    }
}
