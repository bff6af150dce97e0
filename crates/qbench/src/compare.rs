//! `qbench --compare base.jsonl [new.jsonl]`: read the records `--out`
//! appended (one JSON line per run), group them by (workload, metric), and
//! print per pair the ratio with its base. An end-to-end metric outside its
//! bound is flagged; inside the bound it is `unchanged` only when the
//! run-to-run inter-quartile spread is itself within the bound, otherwise
//! `unresolved`. With one file the report is the spread alone.

use crate::json::{self, Value};
use crate::metrics::{self, Better};
use crate::stats;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Values of one metric on one workload across the runs of a file.
type Table = BTreeMap<(String, String), Vec<f64>>;

/// Parse a file of record lines into a table; blank lines are skipped.
pub fn read_records(text: &str) -> Result<Table, String> {
    let mut table = Table::new();
    for (number, line) in text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty()) {
        let record = json::parse(line).map_err(|e| format!("line {}: {e}", number + 1))?;
        let field = |key: &str| record.get(key).ok_or(format!("line {}: no `{key}`", number + 1));
        let workload = field("workload")?.as_str().ok_or("`workload` is not a string")?;
        for (name, metric) in field("metrics")?.as_obj().ok_or("`metrics` is not an object")? {
            let value = metric
                .get("value")
                .and_then(Value::as_f64)
                .ok_or(format!("line {}: metric {name} has no value", number + 1))?;
            table.entry((workload.to_string(), name.clone())).or_default().push(value);
        }
    }
    Ok(table)
}

fn spread_text(values: &[f64]) -> String {
    match stats::iqr_share(values) {
        Some(share) => format!("n={} iqr {:.1}%", values.len(), share * 100.0),
        None => format!("n={}", values.len()),
    }
}

/// The verdict on one end-to-end metric: `worse_by` is the share of the base
/// by which the new median is worse (negative when better).
pub fn verdict(worse_by: f64, spread: f64, bound: f64) -> &'static str {
    if worse_by > bound {
        "REGRESSED"
    } else if worse_by < -bound {
        "improved"
    } else if spread > bound {
        "unresolved"
    } else {
        "unchanged"
    }
}

/// The report for one file (spread) or two (comparison).
pub fn report(base: &Table, new: Option<&Table>) -> String {
    let mut out = String::new();
    match new {
        None => {
            let _ = writeln!(
                out,
                "{:<20} {:<34} {:>16} {:<6} run-to-run spread (IQR / median) vs bound",
                "workload", "metric", "median", "unit"
            );
        }
        Some(_) => {
            let _ = writeln!(
                out,
                "{:<20} {:<34} {:>14} {:>14} {:>8}  verdict (base spread | new spread)",
                "workload", "metric", "base median", "new median", "new/base"
            );
        }
    }
    for ((workload, name), base_values) in base {
        let def = metrics::find(name);
        let unit = def.map_or("", |d| d.unit);
        let bound = def.and_then(|d| d.bound);
        let base_median = stats::median(base_values);
        let Some(new) = new else {
            let flag = match (stats::iqr_share(base_values), bound) {
                (Some(share), Some(bound)) if share > bound => "  TOO WIDE",
                (Some(share), Some(bound)) if share > bound / 3.0 => "  within bound",
                (Some(_), Some(_)) => "  steady",
                _ => "",
            };
            let bound = bound.map_or(String::new(), |b| format!(" (bound {:.0}%)", b * 100.0));
            let _ = writeln!(
                out,
                "{workload:<20} {name:<34} {base_median:>16.6} {unit:<6} {}{bound}{flag}",
                spread_text(base_values)
            );
            continue;
        };
        let Some(new_values) = new.get(&(workload.clone(), name.clone())) else { continue };
        let new_median = stats::median(new_values);
        let ratio = if base_median != 0.0 { new_median / base_median } else { 0.0 };
        let verdict = match (def, bound) {
            (Some(def), Some(bound)) if base_median != 0.0 => {
                let worse_by = match def.better {
                    Better::Lower => ratio - 1.0,
                    Better::Higher => 1.0 - ratio,
                };
                let spread = stats::iqr_share(base_values)
                    .unwrap_or(0.0)
                    .max(stats::iqr_share(new_values).unwrap_or(0.0));
                verdict(worse_by, spread, bound)
            }
            _ => "",
        };
        let _ = writeln!(
            out,
            "{workload:<20} {name:<34} {base_median:>14.6} {new_median:>14.6} {ratio:>8.4}  {verdict} ({} | {})",
            spread_text(base_values),
            spread_text(new_values)
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(workload: &str, jobs_per_s: f64, layer: f64) -> String {
        format!(
            "{{\"workload\":\"{workload}\",\"seed\":1,\"metrics\":{{\"jobs_per_s\":{{\"value\":{jobs_per_s},\"unit\":\"1/s\"}},\"transpiler.busy_s\":{{\"value\":{layer},\"unit\":\"s\"}}}}}}"
        )
    }

    #[test]
    fn verdict_flags_bounds_and_unresolved_spread() {
        assert_eq!(verdict(0.12, 0.01, 0.10), "REGRESSED");
        assert_eq!(verdict(0.10, 0.01, 0.10), "unchanged");
        assert_eq!(verdict(-0.12, 0.01, 0.10), "improved");
        assert_eq!(verdict(0.05, 0.01, 0.10), "unchanged");
        assert_eq!(verdict(0.05, 0.20, 0.10), "unresolved");
    }

    #[test]
    fn compares_medians_per_workload_and_metric() {
        let base: String =
            [100.0, 101.0, 99.0, 100.5].iter().map(|v| record("w", *v, 1.0) + "\n").collect();
        let slow: String =
            [70.0, 71.0, 69.0, 70.5].iter().map(|v| record("w", *v, 2.0) + "\n").collect();
        let noisy: String =
            [100.0, 140.0, 60.0, 99.0].iter().map(|v| record("w", *v, 1.0) + "\n").collect();
        let (base, slow, noisy) = (
            read_records(&base).unwrap(),
            read_records(&slow).unwrap(),
            read_records(&noisy).unwrap(),
        );
        assert_eq!(base[&("w".to_string(), "jobs_per_s".to_string())].len(), 4);

        let text = report(&base, Some(&slow));
        let line = text.lines().find(|l| l.contains("jobs_per_s")).unwrap();
        assert!(line.contains("REGRESSED") && line.contains("0.70"), "{line}");
        // Per-layer metrics have no bound, so no verdict — only the ratio.
        let line = text.lines().find(|l| l.contains("transpiler.busy_s")).unwrap();
        assert!(line.contains("2.0000") && !line.contains("REGRESSED"), "{line}");

        let text = report(&base, Some(&noisy));
        assert!(
            text.lines().any(|l| l.contains("jobs_per_s") && l.contains("unresolved")),
            "{text}"
        );
        let text = report(&base, Some(&base));
        assert!(
            text.lines().any(|l| l.contains("jobs_per_s") && l.contains("unchanged")),
            "{text}"
        );

        let alone = report(&noisy, None);
        assert!(
            alone.lines().any(|l| l.contains("jobs_per_s") && l.contains("TOO WIDE")),
            "{alone}"
        );
        assert!(report(&base, None)
            .lines()
            .any(|l| l.contains("jobs_per_s") && l.contains("steady")));
    }

    #[test]
    fn malformed_records_are_reported_with_their_line() {
        assert!(read_records("{\"workload\":\"w\"}\n").unwrap_err().contains("line 1"));
        assert!(read_records("\n\nnot json\n").unwrap_err().contains("line 3"));
        assert!(read_records("").unwrap().is_empty());
    }
}
