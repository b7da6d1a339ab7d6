//! `stat-benchmark compare <a.json> <b.json>`: apply the regression bounds to
//! every (end-to-end metric × workload) pair of two result files written by
//! `stat-benchmark all`.
//!
//! Every metric is better when lower.  For a bounded metric, with `a` the
//! parent and `b` the change, each holding one value per run:
//!
//! * **unresolved** when the two sides' interquartile ranges overlap by more
//!   than the bound (as a share of `a`'s median): the runs cannot tell the two
//!   sides apart to within the bound, so neither "unchanged" nor a gain is
//!   claimed;
//! * otherwise **regressed** / **improved** when `b`'s median is worse / better
//!   than `a`'s by more than the bound, else **unchanged**.
//!
//! `ops_failed_frac` must stay 0 and `verdict_latency_waves` may not increase
//! (`Kind::NoRise`); both are 0 on a healthy baseline, so they have no relative
//! bound.  Each side holds one value per run, traced and untraced alike, and the
//! **worst** run speaks for the side: a median would hide the one run in which
//! an operation failed.

use std::collections::BTreeMap;
use std::fmt;

use crate::json::Json;
use crate::metrics::{def, median, quartiles, Kind};

/// The verdict on one (metric × workload) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// Better by more than the bound.
    Improved,
    /// Within the bound either way.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The run-to-run spread is wider than the bound.
    Unresolved,
}

impl fmt::Display for Outcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Outcome::Improved => "improved",
            Outcome::Unchanged => "unchanged",
            Outcome::Regressed => "regressed",
            Outcome::Unresolved => "unresolved",
        })
    }
}

/// One row of the comparison.
#[derive(Clone, Debug)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Side `a`: the median over its runs, or the worst run when there is no
    /// bound.
    pub a: f64,
    /// Side `b`, likewise.
    pub b: f64,
    /// The bound applied (`None` for a `Kind::NoRise` metric).
    pub bound: Option<f64>,
    /// The verdict.
    pub outcome: Outcome,
}

/// The value that speaks for one side: the median of its runs under a bound,
/// the worst run without one.
fn summary(values: &[f64], bound: Option<f64>) -> f64 {
    match bound {
        Some(_) => median(values),
        None => values.iter().copied().fold(0.0, f64::max),
    }
}

/// Judge one pair of run sets.
pub fn judge(a: &[f64], b: &[f64], bound: Option<f64>) -> Outcome {
    let (side_a, side_b) = (summary(a, bound), summary(b, bound));
    let Some(bound) = bound.filter(|_| side_a > 0.0) else {
        return match side_b.total_cmp(&side_a) {
            std::cmp::Ordering::Greater => Outcome::Regressed,
            std::cmp::Ordering::Less => Outcome::Improved,
            std::cmp::Ordering::Equal => Outcome::Unchanged,
        };
    };
    let ((q1_a, q3_a), (q1_b, q3_b)) = (quartiles(a), quartiles(b));
    let overlap = (q3_a.min(q3_b) - q1_a.max(q1_b)) / side_a;
    let change = (side_b - side_a) / side_a;
    if overlap > bound {
        Outcome::Unresolved
    } else if change > bound {
        Outcome::Regressed
    } else if change < -bound {
        Outcome::Improved
    } else {
        Outcome::Unchanged
    }
}

/// The `end_to_end` bounds of a `BENCHMARK.json`, by metric name.
pub fn bounds_of(benchmark: &Json) -> Result<BTreeMap<String, f64>, String> {
    let entries = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|entry| {
            let name = entry.get("name").and_then(Json::as_str);
            let bound = entry.get("bound").and_then(Json::as_f64);
            name.zip(bound)
                .map(|(n, b)| (n.to_string(), b))
                .ok_or_else(|| "an end_to_end entry lacks a name or a bound".to_string())
        })
        .collect()
}

fn values_of(metric: &Json) -> Option<Vec<f64>> {
    metric
        .get("values")?
        .as_arr()?
        .iter()
        .map(Json::as_f64)
        .collect()
}

/// Compare two result files.  Every (end-to-end metric × workload) pair of `a`
/// gets a row; a pair `b` lacks, or a metric that has no bound and is not
/// `Kind::NoRise`, is an error — a comparison that silently skipped a
/// row would read as "no regression".
pub fn compare(a: &Json, b: &Json, bounds: &BTreeMap<String, f64>) -> Result<Vec<Row>, String> {
    let workloads = a
        .get("workloads")
        .and_then(Json::as_obj)
        .ok_or("the first file has no workloads")?;
    let mut rows = Vec::new();
    for (workload, sides) in workloads {
        let metrics = sides
            .get("end_to_end")
            .and_then(Json::as_obj)
            .ok_or_else(|| format!("{workload}: no end_to_end metrics"))?;
        for (metric, a_entry) in metrics {
            let b_entry = b
                .get("workloads")
                .and_then(|w| w.get(workload))
                .and_then(|w| w.get("end_to_end"))
                .and_then(|m| m.get(metric))
                .ok_or_else(|| format!("{workload}/{metric}: missing from the second file"))?;
            let (a_values, b_values) = values_of(a_entry)
                .zip(values_of(b_entry))
                .ok_or_else(|| format!("{workload}/{metric}: malformed values"))?;
            let bound = match bounds.get(metric) {
                Some(&bound) => Some(bound),
                None if def(metric).is_some_and(|m| m.kind == Kind::NoRise) => None,
                None => return Err(format!("{metric}: no bound in BENCHMARK.json")),
            };
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.clone(),
                a: summary(&a_values, bound),
                b: summary(&b_values, bound),
                bound,
                outcome: judge(&a_values, &b_values, bound),
            });
        }
    }
    Ok(rows)
}

/// The rows as an aligned table.
pub fn table(rows: &[Row]) -> String {
    let mut out = format!(
        "{:<16} {:<22} {:>14} {:>14} {:>9} {:>7}  {}\n",
        "workload", "metric", "a", "b", "change", "bound", "verdict"
    );
    for row in rows {
        let change = if row.a > 0.0 {
            format!("{:+.2}%", (row.b - row.a) / row.a * 100.0)
        } else {
            format!("{:+}", row.b - row.a)
        };
        let bound = row
            .bound
            .map_or_else(|| "no rise".to_string(), |b| format!("{:.0}%", b * 100.0));
        out.push_str(&format!(
            "{:<16} {:<22} {:>14.4} {:>14.4} {:>9} {:>7}  {}\n",
            row.workload, row.metric, row.a, row.b, change, bound, row.outcome
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let tight = [100.0, 101.0, 99.0, 100.5];
        assert_eq!(judge(&tight, &tight, Some(0.1)), Outcome::Unchanged);
        assert_eq!(
            judge(&tight, &[120.0, 121.0, 119.0, 120.0], Some(0.1)),
            Outcome::Regressed
        );
        assert_eq!(
            judge(&tight, &[80.0, 81.0, 79.0, 80.0], Some(0.1)),
            Outcome::Improved
        );
        // Both sides spread over ±30 %: a 10 % bound cannot be resolved.
        let noisy = [70.0, 100.0, 130.0, 85.0, 115.0];
        assert_eq!(judge(&noisy, &noisy, Some(0.1)), Outcome::Unresolved);
        // Exact counts, and metrics that may not rise: one bad run is enough.
        assert_eq!(
            judge(&[496_173.0], &[496_173.0], Some(0.01)),
            Outcome::Unchanged
        );
        assert_eq!(judge(&[0.0, 0.0], &[0.0, 0.0], None), Outcome::Unchanged);
        assert_eq!(
            judge(&[0.0, 0.0, 0.0], &[0.0, 0.0, 0.1], None),
            Outcome::Regressed
        );
    }
}
