//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! These are not figures from the paper; they isolate individual design decisions —
//! tree depth/fan-out, task-set representation, the `strcat` process-table packing,
//! and the Section VII threading projection — so that each lesson can be examined on
//! its own rather than only in the composed end-to-end experiments.

use appsim::{FrameVocabulary, RingHangApp};
use launch::{pack_indexed, pack_naive, ProcessTable};
use machine::cluster::{BglMode, Cluster};
use simkit::stats::SeriesTable;
use stat_core::prelude::*;
use tbon::cost::{price_reduction, Labels, TreePayload};
use tbon::topology::TreeShape;

/// Sweep tree depth (1–6 levels of balanced fan-out) at a fixed job size and report
/// the estimated merge time and front-end byte load for each.
pub fn ablation_topology(tasks: u64) -> SeriesTable {
    let cluster = Cluster::bluegene_l(BglMode::CoProcessor);
    let shape = cluster.job(tasks);
    let payload =
        TreePayload::ring_hang(shape.tasks, shape.tasks_per_daemon as u64, Labels::JobWide);
    let mut table = SeriesTable::new(
        format!("Ablation: tree depth at {tasks} tasks (original bit vector)"),
        "tree depth",
        "seconds / bytes",
    );
    for depth in 1..=6u32 {
        let spec = TreeShape::balanced(shape.daemons, depth);
        let cost = price_reduction(&cluster, &spec, &payload);
        table.push("merge seconds", depth as u64, cost.critical_path.as_secs());
        table.push(
            "front-end megabytes in",
            depth as u64,
            cost.frontend_bytes_in as f64 / 1.0e6,
        );
        table.push("max fan-out", depth as u64, spec.max_fanout() as f64);
    }
    table.note(format!(
        "job shape: {} daemons, {} tasks",
        shape.daemons, shape.tasks
    ));
    table
}

/// Sweep the task-set representation against job size and report both modelled merge
/// time and *real* serialised packet sizes from real daemon-local trees.
pub fn ablation_bitvector() -> SeriesTable {
    let cluster = Cluster::bluegene_l(BglMode::VirtualNode);
    let mut table = SeriesTable::new(
        "Ablation: task-set representation (2-deep BG/L VN)",
        "tasks",
        "seconds / bytes",
    );
    for representation in [
        Representation::GlobalBitVector,
        Representation::HierarchicalTaskList,
    ] {
        let estimator = PhaseEstimator::new(cluster.clone(), representation);
        for tasks in [8_192u64, 32_768, 131_072, 212_992] {
            let est = estimator.merge_estimate(tasks, 2);
            table.push(
                format!("{} merge seconds", representation.label()),
                tasks,
                est.cost.critical_path.as_secs(),
            );
            table.push(
                format!("{} front-end MB", representation.label()),
                tasks,
                est.cost.frontend_bytes_in as f64 / 1.0e6,
            );
        }
    }
    // Real packet sizes from one daemon's locally merged trees (the largest scale
    // is shrunk under `STATBENCH_FAST`).
    for tasks in [8_192u64, 32_768, crate::scaled(131_072, 65_536)] {
        let app = RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
        let dict = stackwalk::FrameDictionary::negotiate(appsim::Application::frame_hints(&app));
        let daemons = StatDaemon::partition(tasks, cluster.daemons_for(tasks));
        let daemon = &daemons[0];
        let dense =
            daemon.contribute::<DenseBitVector>(&app, 3, tbon::packet::EndpointId(1), &dict);
        let hier =
            daemon.contribute::<SubtreeTaskList>(&app, 3, tbon::packet::EndpointId(1), &dict);
        table.push(
            "real daemon packet bytes (original)",
            tasks,
            dense.tree_3d.size_bytes() as f64,
        );
        table.push(
            "real daemon packet bytes (optimized)",
            tasks,
            hier.tree_3d.size_bytes() as f64,
        );
    }
    table.note("real packet sizes come from serialising one daemon's actual 3D tree".to_string());
    table
}

/// The `strcat` pathology measured on real data: wall-clock time of the naive versus
/// indexed process-table packers.
pub fn ablation_proctable() -> SeriesTable {
    let mut table = SeriesTable::new(
        "Ablation: process-table packing (real execution)",
        "entries",
        "milliseconds",
    );
    // The largest (quadratic-cost) point is dropped under `STATBENCH_FAST`; the
    // slope is still unmistakable from the remaining decade and a half.
    let mut scales = vec![1_000u64, 4_000, 16_000];
    if !crate::fast_mode() {
        scales.push(64_000);
    }
    for entries in scales {
        let pt = ProcessTable::synthetic(entries, 64, "/g/g0/user/ring_test_bgl");
        let start = std::time::Instant::now();
        let naive = pack_naive(&pt);
        let naive_ms = start.elapsed().as_secs_f64() * 1e3;
        let start = std::time::Instant::now();
        let indexed = pack_indexed(&pt);
        let indexed_ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(naive, indexed);
        table.push("strcat-style (unpatched)", entries, naive_ms);
        table.push("indexed append (patched)", entries, indexed_ms);
    }
    if let (Some(n), Some(i)) = (
        table.loglog_slope("strcat-style (unpatched)"),
        table.loglog_slope("indexed append (patched)"),
    ) {
        table.note(format!(
            "log-log slopes: strcat {n:.2} (≈2 = quadratic), indexed {i:.2} (≈1 = linear)"
        ));
    }
    table
}

/// The Section VII threading projection: measured per-daemon data growth plus
/// projected sampling and merge times as threads per task increase.
pub fn ablation_threads() -> SeriesTable {
    let cluster = Cluster::bluegene_l(BglMode::CoProcessor);
    let mut table = SeriesTable::new(
        "Ablation: threads per task (Section VII projection)",
        "threads per task",
        "mixed units",
    );
    let worker_threads = [0u32, 1, 3, 7, 15];
    for m in measure_thread_scaling(8, &worker_threads, 3) {
        table.push(
            "real traces per daemon",
            m.threads_per_task as u64,
            m.traces_gathered as f64,
        );
        table.push(
            "real tree bytes per daemon",
            m.threads_per_task as u64,
            m.tree_bytes as f64,
        );
    }
    let counts: Vec<u32> = worker_threads.iter().map(|w| w + 1).collect();
    for p in project_thread_counts(&cluster, 65_536, &counts, 5) {
        table.push(
            "projected sampling seconds",
            p.threads_per_task as u64,
            p.sampling.as_secs(),
        );
        table.push(
            "projected merge seconds",
            p.threads_per_task as u64,
            p.merge.as_secs(),
        );
    }
    table.note(
        "sampling grows roughly linearly with threads (constant per-thread cost); the merge \
         grows far more slowly because the TBON absorbs the extra volume"
            .to_string(),
    );
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deeper_trees_reduce_frontend_load() {
        let table = ablation_topology(65_536);
        let flat_mb = table.value_at("front-end megabytes in", 1).unwrap();
        let deep_mb = table.value_at("front-end megabytes in", 3).unwrap();
        assert!(flat_mb > deep_mb);
        let flat_fanout = table.value_at("max fan-out", 1).unwrap();
        let deep_fanout = table.value_at("max fan-out", 3).unwrap();
        assert!(flat_fanout > deep_fanout);
    }

    #[test]
    fn representation_ablation_shows_the_gap_in_real_packets() {
        let table = ablation_bitvector();
        let largest = crate::scaled(131_072, 65_536);
        let dense = table
            .value_at("real daemon packet bytes (original)", largest)
            .unwrap();
        let hier = table
            .value_at("real daemon packet bytes (optimized)", largest)
            .unwrap();
        assert!(dense / hier > 50.0, "got {dense} vs {hier}");
    }

    #[test]
    fn proctable_ablation_measures_a_quadratic() {
        let table = ablation_proctable();
        let slope_note = table
            .notes()
            .iter()
            .find(|n| n.contains("log-log slopes"))
            .expect("slope note present");
        assert!(slope_note.contains("strcat"));
    }

    #[test]
    fn thread_ablation_covers_measured_and_projected_series() {
        let table = ablation_threads();
        assert!(table.value_at("real traces per daemon", 8).unwrap() > 0.0);
        assert!(table.value_at("projected merge seconds", 8).unwrap() > 0.0);
    }
}
