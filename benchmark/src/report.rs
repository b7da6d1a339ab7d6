//! What a run prints and writes: the driver's one-line result, the
//! human-readable metric listing, the per-run record and the environment stamp.

use std::process::Command;

use crate::json::Json;
use crate::metrics::{def, METRICS};
use crate::workloads::{Budget, RunResult, Scale};

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics`, the latter holding **every** metric `BENCHMARK.json` lists for
/// this kind of run — the driver wants one fixed set of names per run, so a
/// metric that is not defined on this workload reads 0.
pub fn driver_line(result: &RunResult, traced: bool) -> Json {
    let in_line = METRICS.iter().filter(|m| m.kind.in_driver_line(traced));
    let metrics = in_line.map(|m| {
        let value = result.metrics.get(m.name).unwrap_or(0.0);
        let entry = Json::obj([
            ("value", Json::Num(value)),
            ("unit", Json::Str(m.unit.into())),
        ]);
        (m.name, entry)
    });
    Json::obj([
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// Every measured metric by name, with its unit and sample count, one a line.
pub fn listing(result: &RunResult) -> String {
    let mut out = String::new();
    for measured in &result.metrics.0 {
        let unit = def(measured.name).map_or("", |m| m.unit);
        out.push_str(&format!(
            "{:<44} {:>16.4} {:<6} n={}\n",
            measured.name, measured.value, unit, measured.samples
        ));
    }
    out
}

/// The full record of one run, written with `--out`: the metrics where they are
/// defined (with sample counts), the failure accounting, each traced
/// operation's spans summed by name, and how the run was configured.
pub fn run_record(
    result: &RunResult,
    seed: u64,
    traced: bool,
    budget: Budget,
    scale: Scale,
) -> Json {
    let metrics = result.metrics.0.iter().map(|m| {
        let unit = def(m.name).map_or("", |d| d.unit);
        let entry = Json::obj([
            ("value", Json::Num(m.value)),
            ("unit", Json::Str(unit.into())),
            ("samples", Json::Num(m.samples as f64)),
        ]);
        (m.name, entry)
    });
    let ops = result.ops.iter().map(|op| {
        let stages = op.stages.iter().map(|(name, (calls, ms))| {
            let stage = Json::obj([
                ("calls", Json::Num(f64::from(*calls))),
                ("ms", Json::Num(*ms)),
            ]);
            (*name, stage)
        });
        Json::obj([
            ("op", Json::Num(f64::from(op.op))),
            ("wall_ms", Json::Num(op.wall_ms)),
            ("self_ms", Json::Num(op.self_ms())),
            ("spans", Json::obj(stages)),
        ])
    });
    let (seconds, reps) = match budget {
        Budget::Seconds(s) => (Json::Num(s), Json::Null),
        Budget::Reps(n) => (Json::Null, Json::Num(f64::from(n))),
    };
    Json::obj([
        ("workload", Json::Str(result.workload.name().into())),
        ("seed", Json::Num(seed as f64)),
        ("traced", Json::Bool(traced)),
        ("seconds", seconds),
        ("reps", reps),
        ("scale", Json::Str(scale.name().into())),
        ("correct", Json::Bool(result.correct)),
        ("attempted", Json::Num(result.attempted as f64)),
        ("failed", Json::Num(result.failed as f64)),
        ("metrics", Json::obj(metrics)),
        ("ops", Json::Arr(ops.collect())),
        ("setups_s", Json::nums(&result.setups_s)),
        ("op_walls_ms", Json::nums(&result.op_walls_ms)),
        ("active_walls_ms", Json::nums(&result.active_walls_ms)),
    ])
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// Where and with what the numbers were taken.  The CPU counts are recorded
/// because of the honesty rule: no parallel speed-up is claimed beyond them.
pub fn environment() -> Json {
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let nproc = cpuinfo
        .lines()
        .filter(|l| l.starts_with("processor"))
        .count();
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        // The commit this source was built from, wherever the caller stands.
        // A driver checkout is not a git repository; the sha is then unknown.
        (
            "git_sha",
            Json::Str(command_line(
                "git",
                &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
            )),
        ),
        ("rustc", Json::Str(command_line("rustc", &["--version"]))),
        ("nproc", Json::Num(nproc as f64)),
        ("available_parallelism", Json::Num(parallelism as f64)),
        (
            "profile",
            Json::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ])
}
