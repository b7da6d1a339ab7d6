//! `stat-benchmark all`: every workload, untraced then traced, each run in a
//! fresh child process (so that `peak_rss_mb` and allocator state do not leak
//! from one run into the next), gathered into one result file that
//! `stat-benchmark compare` reads.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

use crate::json::Json;
use crate::metrics::{def, median, quartiles, Kind};
use crate::report::environment;
use crate::workloads::Workload;

/// What `all` runs.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The workloads to run.
    pub workloads: Vec<Workload>,
    /// Seed of the first run; run `i` uses `seed + i`, so that two sets with
    /// the same base seed see the same inputs.
    pub seed: u64,
    /// Runs per workload and kind.
    pub runs: u32,
    /// `--seconds` of every run.
    pub seconds: f64,
}

/// One metric over the runs of a set: each run's value, and how many samples
/// (operations, mostly) that value summarises — a run is as long as
/// `--seconds`, so the counts follow the machine's speed and are recorded.
#[derive(Clone, Debug, Default)]
struct Runs {
    values: Vec<f64>,
    samples: Vec<f64>,
}

/// The metrics of one workload and side, by metric name.
type Series = BTreeMap<String, Runs>;

/// The run records of a set, gathered per workload into one series per metric.
#[derive(Clone, Debug, Default)]
pub struct ResultSet {
    /// Per workload name: `(end-to-end series, per-layer series)`.
    workloads: BTreeMap<String, (Series, Series)>,
}

impl ResultSet {
    /// Add one run record (as `report::run_record` writes it).  Returns whether
    /// the run's outputs were correct.
    pub fn absorb(&mut self, record: &Json) -> Result<bool, String> {
        let workload = record
            .get("workload")
            .and_then(Json::as_str)
            .ok_or("a run record names no workload")?;
        let metrics = record
            .get("metrics")
            .and_then(Json::as_obj)
            .ok_or("a run record holds no metrics")?;
        let sides = self.workloads.entry(workload.to_string()).or_default();
        for (name, entry) in metrics {
            let value = entry
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{workload}/{name}: not a number"))?;
            let samples = entry.get("samples").and_then(Json::as_f64).unwrap_or(1.0);
            // `Kind::NoRise` metrics are end to end whichever run measured
            // them: every run of the set, untraced and traced, adds its value.
            let end_to_end = record.get("traced") == Some(&Json::Bool(false))
                || def(name).is_some_and(|m| m.kind == Kind::NoRise);
            let series = if end_to_end {
                &mut sides.0
            } else {
                &mut sides.1
            };
            let runs = series.entry(name.clone()).or_default();
            runs.values.push(value);
            runs.samples.push(samples);
        }
        Ok(record.get("correct") == Some(&Json::Bool(true)))
    }

    /// The `workloads` member of a result file: per workload and side, per
    /// metric, every run's value and sample count with the median and quartiles
    /// over runs.
    pub fn to_json(&self) -> Json {
        let side = |series: &Series| {
            Json::obj(series.iter().map(|(name, runs)| {
                let (q1, q3) = quartiles(&runs.values);
                let entry = Json::obj([
                    ("unit", Json::Str(def(name).map_or("", |m| m.unit).into())),
                    ("values", Json::nums(&runs.values)),
                    ("samples", Json::nums(&runs.samples)),
                    ("median", Json::Num(median(&runs.values))),
                    ("q1", Json::Num(q1)),
                    ("q3", Json::Num(q3)),
                ]);
                (name.clone(), entry)
            }))
        };
        Json::obj(
            self.workloads
                .iter()
                .map(|(workload, (end_to_end, per_layer))| {
                    let sides = Json::obj([
                        ("end_to_end", side(end_to_end)),
                        ("per_layer", side(per_layer)),
                    ]);
                    (workload.clone(), sides)
                }),
        )
    }

    /// Every metric by name with its unit: median and quartiles over runs, and
    /// the fewest samples any run's value stands on.
    pub fn listing(&self) -> String {
        let mut out = String::new();
        for (workload, (end_to_end, per_layer)) in &self.workloads {
            for (title, series) in [("end to end", end_to_end), ("per layer", per_layer)] {
                out.push_str(&format!(
                    "\n{workload} — {title}: median [q1 .. q3] over runs\n"
                ));
                for (name, runs) in series {
                    let (q1, q3) = quartiles(&runs.values);
                    let unit = def(name).map_or("", |m| m.unit);
                    let fewest = runs.samples.iter().copied().fold(f64::INFINITY, f64::min);
                    out.push_str(&format!(
                        "  {name:<42} {:>14.4} [{q1:.4} .. {q3:.4}] {unit} (runs={}, n>={fewest})\n",
                        median(&runs.values),
                        runs.values.len()
                    ));
                }
            }
        }
        out
    }
}

fn child_record(
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
    records: &Path,
) -> Result<Json, String> {
    let trace = if traced { "1" } else { "0" };
    let record = records.join(format!("{}-seed{seed}-trace{trace}.json", workload.name()));
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let out = Command::new(exe)
        .args(["run", "--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", trace])
        .arg("--out")
        .arg(&record)
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{} seed {seed} exited with {}: {}",
            workload.name(),
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    let text = std::fs::read_to_string(&record).map_err(|e| format!("no run record: {e}"))?;
    Json::parse(&text)
}

/// Run the plan and return `(result file, whether every run was correct)`.
/// Progress and the final listing go to standard output; `records` is the
/// directory the child runs write their records into, one file a run.
pub fn run_all(plan: &Plan, records: &Path) -> Result<(Json, bool), String> {
    let mut all_correct = true;
    let mut set = ResultSet::default();
    for &workload in &plan.workloads {
        for run in 0..plan.runs {
            let seed = plan.seed + u64::from(run);
            for traced in [false, true] {
                let record = child_record(workload, seed, plan.seconds, traced, records)?;
                let correct = set.absorb(&record)?;
                all_correct &= correct;
                println!(
                    "{:<16} seed {seed} {} {}",
                    workload.name(),
                    if traced { "traced  " } else { "untraced" },
                    if correct { "ok" } else { "INCORRECT" }
                );
            }
        }
    }
    print!("{}", set.listing());
    let file = Json::obj([
        ("environment", environment()),
        ("seed", Json::Num(plan.seed as f64)),
        ("runs", Json::Num(f64::from(plan.runs))),
        ("seconds", Json::Num(plan.seconds)),
        ("workloads", set.to_json()),
    ]);
    Ok((file, all_correct))
}
