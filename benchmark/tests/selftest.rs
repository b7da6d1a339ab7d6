//! The benchmark's self-test: all four workloads at 1,024 tasks with 2
//! repetitions, traced and untraced.  It checks the benchmark, not the library:
//! that every catalogued metric is emitted exactly once where it is defined, is
//! finite and well named; that the driver's result line carries one fixed set of
//! names; that `BENCHMARK.json` lists what the catalogue lists; and that a result
//! file compares against itself as all-`unchanged`.

use std::collections::BTreeSet;
use std::time::Instant;

use stat_benchmark::compare::{bounds_of, compare, Outcome};
use stat_benchmark::json::Json;
use stat_benchmark::metrics::{def, Kind, METRICS};
use stat_benchmark::report::{driver_line, run_record};
use stat_benchmark::run_workload;
use stat_benchmark::suite::ResultSet;
use stat_benchmark::workloads::{Budget, Scale, Workload, DEFAULT_SECONDS};

const SEED: u64 = 11;
const BUDGET: Budget = Budget::Reps(2);

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json is readable")).unwrap()
}

fn names(list: &Json) -> Vec<(String, String)> {
    list.as_arr()
        .unwrap()
        .iter()
        .map(|entry| {
            let field = |key| entry.get(key).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let doc = benchmark_json();
    for (key, traced) in [("end_to_end", false), ("per_layer", true)] {
        let catalogue: Vec<(String, String)> = METRICS
            .iter()
            .filter(|m| m.kind.in_driver_line(traced))
            .map(|m| (m.name.to_string(), m.unit.to_string()))
            .collect();
        assert_eq!(names(doc.get(key).unwrap()), catalogue, "{key}");
    }
    assert_eq!(
        doc.get("run_seconds").and_then(Json::as_f64),
        Some(DEFAULT_SECONDS)
    );
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
        .collect();
    let ours: Vec<String> = Workload::ALL.iter().map(|w| w.name().to_string()).collect();
    assert_eq!(workloads, ours);
    for name in workloads {
        assert_eq!(
            Workload::from_name(&name).map(Workload::name),
            Some(name.as_str())
        );
    }
}

#[test]
fn every_workload_emits_its_metrics_once_and_compares_equal_to_itself() {
    let mut set = ResultSet::default();
    for workload in Workload::ALL {
        for traced in [false, true] {
            let result = run_workload(workload, Scale::Smoke, SEED, BUDGET, traced, Instant::now())
                .unwrap_or_else(|e| panic!("{} failed: {e}", workload.name()));
            assert!(result.correct, "{} traced={traced}", workload.name());
            assert_eq!(result.failed, 0);
            assert!(result.attempted >= 2);

            let expected: BTreeSet<&str> = METRICS
                .iter()
                .filter(|m| m.kind.measured_by(traced) && m.applies_to(workload))
                .map(|m| m.name)
                .collect();
            let emitted: Vec<&str> = result.metrics.0.iter().map(|m| m.name).collect();
            let unique: BTreeSet<&str> = emitted.iter().copied().collect();
            assert_eq!(
                emitted.len(),
                unique.len(),
                "a metric was emitted twice: {emitted:?}"
            );
            assert_eq!(unique, expected, "{} traced={traced}", workload.name());
            for measured in &result.metrics.0 {
                assert!(
                    measured.value.is_finite(),
                    "{} is not finite",
                    measured.name
                );
                assert!(measured.samples >= 1);
                assert!(measured
                    .name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            }
            // A traced run has spans; each op's children never outlast it by
            // more than the clock's resolution.
            assert_eq!(result.ops.is_empty(), !traced);
            for op in &result.ops {
                assert!(op.self_ms() > -0.01 * op.wall_ms.max(1.0), "{op:?}");
            }

            // The driver's line: one fixed name set per kind of run, whatever the
            // workload.
            let line = Json::parse(&driver_line(&result, traced).to_line()).unwrap();
            let keys: Vec<&String> = line.as_obj().unwrap().keys().collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            let listed: Vec<&str> = METRICS
                .iter()
                .filter(|m| m.kind.in_driver_line(traced))
                .map(|m| m.name)
                .collect();
            let in_line: Vec<&String> = line
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .keys()
                .collect();
            assert_eq!(in_line.len(), listed.len());
            assert!(listed
                .iter()
                .all(|name| line.get("metrics").unwrap().get(name).is_some()));

            let record = run_record(&result, SEED, traced, BUDGET, Scale::Smoke);
            let reparsed = Json::parse(&record.to_line()).unwrap();
            assert!(set.absorb(&reparsed).unwrap());
        }
    }

    // The gathered file round-trips through text and compares equal to itself.
    let file = Json::obj([("workloads", set.to_json())]);
    let file = Json::parse(&file.to_line()).unwrap();
    let rows = compare(&file, &file, &bounds_of(&benchmark_json()).unwrap()).unwrap();
    let per_workload = METRICS.iter().filter(|m| m.kind == Kind::EndToEnd).count();
    // Five bounded metrics everywhere, ops_failed_frac everywhere, and
    // verdict_latency_waves on the stream.
    assert_eq!(rows.len(), 4 * (per_workload + 1) + 1);
    for row in &rows {
        assert_eq!(row.outcome, Outcome::Unchanged, "{row:?}");
        let no_rise = def(&row.metric).unwrap().kind == Kind::NoRise;
        assert_eq!(row.bound.is_none(), no_rise);
    }
    // The no-rise metrics hold one value per run, untraced and traced.
    let workloads = file.get("workloads").unwrap();
    for workload in Workload::ALL {
        let failed = workloads
            .get(workload.name())
            .and_then(|w| w.get("end_to_end"))
            .and_then(|m| m.get("ops_failed_frac"))
            .and_then(|m| m.get("values"))
            .and_then(Json::as_arr)
            .unwrap();
        assert_eq!(failed.len(), 2, "{}", workload.name());
    }
}
