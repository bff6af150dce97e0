//! # qonductor-bench
//!
//! The harness that reproduces the paper's evaluation (§8). Each figure of
//! [`figures`] runs one experiment at paper scale and returns typed
//! [`FigureRow`]s, one per claim, each over the same ten [`SEEDS`]; the
//! `repro` binary writes them to `REPRO.json` and prints the README table.
//! The `micro_scheduler` and `fig9c_stage_runtime` bench targets time the
//! scheduler's hot path and stages on the host's clock.

pub mod figures;

use qonductor_scheduler::{JobRequest, QpuState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// The seeds every figure runs over.
pub const SEEDS: [u64; 10] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10];

/// A row holds when the paper's direction holds in at least this many of
/// the ten seeds.
pub const HOLDS_IN: usize = 8;

/// The per-seed condition under which a claim holds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Direction {
    /// The value is strictly greater than the bound.
    Above(f64),
    /// The value is strictly less than the bound.
    Below(f64),
}

impl Direction {
    fn holds(self, value: f64) -> bool {
        match self {
            Direction::Above(bound) => value > bound,
            Direction::Below(bound) => value < bound,
        }
    }

    fn label(self) -> String {
        match self {
            Direction::Above(bound) => format!("> {bound}"),
            Direction::Below(bound) => format!("< {bound}"),
        }
    }
}

/// What a row claims, before any seed has run.
#[derive(Debug, Clone, Copy)]
pub struct Claim {
    pub figure: &'static str,
    pub claim: &'static str,
    pub paper_value: &'static str,
    pub direction: Direction,
}

/// One claim of the paper measured over a seed set.
#[derive(Debug, Clone, PartialEq)]
pub struct FigureRow {
    pub figure: &'static str,
    pub claim: &'static str,
    pub paper_value: &'static str,
    pub direction: Direction,
    /// One value per seed, rounded to four decimals.
    pub values: Vec<f64>,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// Seeds whose value satisfies `direction`.
    pub holds_in: usize,
    /// `holds_in >= HOLDS_IN`.
    pub holds: bool,
}

impl FigureRow {
    pub fn new(claim: Claim, values: Vec<f64>) -> Self {
        let values: Vec<f64> = values.into_iter().map(|v| (v * 1e4).round() / 1e4).collect();
        let (q1, median, q3) = quartiles(&values);
        let holds_in = values.iter().filter(|v| claim.direction.holds(**v)).count();
        FigureRow {
            figure: claim.figure,
            claim: claim.claim,
            paper_value: claim.paper_value,
            direction: claim.direction,
            values,
            median,
            q1,
            q3,
            holds_in,
            holds: holds_in >= HOLDS_IN,
        }
    }
}

/// First quartile, median and third quartile by the exclusive method
/// (Python's `statistics.quantiles(values, n=4)`); a single value is all
/// three.
fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len();
    if m < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v, v);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

fn json_string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => write!(out, "\\u{:04x}", u32::from(c)).unwrap(),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `REPRO.json`: the seeds, the threshold and one line per row.
pub fn to_json(rows: &[FigureRow]) -> String {
    let list = |v: &[f64]| v.iter().map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(", ");
    let mut out = format!(
        "{{\n  \"seeds\": {SEEDS:?},\n  \"holds_in_at_least\": {HOLDS_IN},\n  \"rows\": [\n"
    );
    for (i, r) in rows.iter().enumerate() {
        let _ = writeln!(
            out,
            "    {{\"figure\": {}, \"claim\": {}, \"paper_value\": {}, \"direction\": {}, \
             \"values\": [{}], \"median\": {:.4}, \"q1\": {:.4}, \"q3\": {:.4}, \
             \"holds_in\": {}, \"holds\": {}}}{}",
            json_string(r.figure),
            json_string(r.claim),
            json_string(r.paper_value),
            json_string(&r.direction.label()),
            list(&r.values),
            r.median,
            r.q1,
            r.q3,
            r.holds_in,
            r.holds,
            if i + 1 < rows.len() { "," } else { "" }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// The README table of the rows.
pub fn to_markdown(rows: &[FigureRow]) -> String {
    let mut out = String::from(
        "| figure | claim | paper | holds when | median [q1, q3] | holds in | holds |\n\
         |---|---|---|---|---|---|---|\n",
    );
    for r in rows {
        let _ = writeln!(
            out,
            "| {} | {} | {} | {} | {:.3} [{:.3}, {:.3}] | {}/{} | {} |",
            r.figure,
            r.claim,
            r.paper_value,
            r.direction.label(),
            r.median,
            r.q1,
            r.q3,
            r.holds_in,
            r.values.len(),
            if r.holds { "yes" } else { "**no**" }
        );
    }
    out
}

/// Generate a synthetic batch of scheduling jobs and QPU states (used by the
/// scheduler-facing figures and the ablations).
pub fn synthetic_problem(
    num_jobs: usize,
    num_qpus: usize,
    seed: u64,
) -> (Vec<JobRequest>, Vec<QpuState>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let qpus: Vec<QpuState> = (0..num_qpus)
        .map(|i| QpuState {
            name: format!("qpu{i:02}"),
            num_qubits: 27,
            waiting_time_s: rng.gen_range(0.0..600.0),
            calibration_epoch: 0,
        })
        .collect();
    let jobs: Vec<JobRequest> = (0..num_jobs)
        .map(|i| {
            let base_fid: f64 = rng.gen_range(0.55..0.95);
            JobRequest {
                job_id: i as u64,
                qubits: rng.gen_range(2..=27),
                shots: rng.gen_range(1000..8000),
                fidelity_per_qpu: (0..num_qpus)
                    .map(|_| (base_fid + rng.gen_range(-0.15..0.15)).clamp(0.05, 0.99))
                    .collect(),
                exec_time_per_qpu: (0..num_qpus).map(|_| rng.gen_range(5.0..120.0)).collect(),
            }
        })
        .collect();
    (jobs, qpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    const CLAIM: Claim = Claim {
        figure: "Fig. X",
        claim: "a \"quoted\" claim\\",
        paper_value: "1 %",
        direction: Direction::Above(0.0),
    };

    #[test]
    fn synthetic_problem_shapes() {
        let (jobs, qpus) = synthetic_problem(20, 4, 1);
        assert_eq!(jobs.len(), 20);
        assert_eq!(qpus.len(), 4);
        assert!(jobs.iter().all(|j| j.fidelity_per_qpu.len() == 4));
    }

    #[test]
    fn the_summary_uses_the_exclusive_quartile_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let row = FigureRow::new(CLAIM, vec![10.0, 2.0, 3.0, 1.0, 5.0, 6.0, 7.0, 8.0, 9.0, 4.0]);
        assert_eq!((row.q1, row.median, row.q3), (2.75, 5.5, 8.25));
        assert_eq!(FigureRow::new(CLAIM, vec![0.5]).q3, 0.5);
    }

    #[test]
    fn holds_needs_eight_of_ten_seeds_in_either_direction() {
        let seven = vec![1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, -1.0, -1.0, 0.0];
        let row = FigureRow::new(CLAIM, seven.clone());
        assert_eq!((row.holds_in, row.holds), (7, false));
        let below = Claim { direction: Direction::Below(0.0), ..CLAIM };
        let negated: Vec<f64> = seven.iter().map(|v| -v).collect();
        assert_eq!(FigureRow::new(below, negated).holds_in, 7);
        let mut eight = seven;
        eight[9] = 0.5;
        let row = FigureRow::new(CLAIM, eight.clone());
        assert_eq!((row.holds_in, row.holds), (8, true));
        let negated: Vec<f64> = eight.iter().map(|v| -v).collect();
        assert!(FigureRow::new(below, negated).holds);
    }

    #[test]
    fn the_json_escapes_claims() {
        let json = to_json(&[FigureRow::new(CLAIM, vec![0.25, 1.0 / 3.0])]);
        assert!(json.contains(r#""claim": "a \"quoted\" claim\\""#), "{json}");
        assert!(json.contains(r#""values": [0.2500, 0.3333]"#), "{json}");
        assert!(json.contains(r#""direction": "> 0""#), "{json}");
        assert_eq!(json_string("tab\there\u{1}"), r#""tab\u0009here\u0001""#);
    }
}
