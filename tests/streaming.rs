//! The streaming acceptance suite: continuous sessions driving wave after wave
//! of the real pipeline, with faults that first appear mid-stream.
//!
//! What this suite pins down:
//!
//! * **verdict latency** — for every catalogue scenario scheduled to strike at
//!   wave *k*, the per-wave verdict judges every pre-fault wave healthy and
//!   converges to the scenario's ground-truth verdict within bounded waves of
//!   the fault appearing (and *stays* converged through the observation
//!   window);
//! * **temporal-merge equivalence** — the front end's incrementally folded
//!   resident tree equals one batched merge of every surviving daemon's full
//!   cumulative tree, at every wave, under both task-set representations;
//! * **mid-stream daemon loss** — a daemon lost between waves drops out of all
//!   subsequent waves with exact per-wave coverage accounting
//!   (`covered + lost = tasks`), and a prune that leaves no viable session is
//!   the typed `StatError::SessionNotViable`, not a wrong answer;
//! * **byte accounting** — every wave reports its leaf ingress
//!   (`packet_bytes`), the pure delta-path volume (`delta_bytes` vs. what
//!   shipping full cumulative trees would have cost), and post-prune re-seed
//!   traffic in its own `reseed_bytes` column — never folded into the delta
//!   column.
//!
//! Scales: 1,024 tasks always; 65,536 (BG/L co-processor) and the 212,992-task
//! ring hang (BG/L virtual-node, the paper's 208K headline) are skipped under
//! `STATBENCH_FAST=1` so the fast CI lane stays fast.

use appsim::scenario::{catalogue, OverlayFault};
use appsim::{FaultSchedule, FrameVocabulary};
use machine::cluster::{BglMode, Cluster};
use stat_core::prelude::*;
use statbench::stable_wave;
use tbon::topology::TreeShape;

/// Same convention as `stat_bench::fast_mode`: set (non-empty, non-`"0"`)
/// `STATBENCH_FAST` skips the large-scale points.
fn fast_mode() -> bool {
    std::env::var("STATBENCH_FAST")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Wave the catalogue faults first appear at, and how long the stream is
/// observed after that.
const FAULT_WAVE: u32 = 2;
const WINDOW: u32 = 3;

/// Stream every requested catalogue scenario at one scale: healthy verdicts
/// before the fault wave, convergence to the scenario's own truth within two
/// waves of it, exact coverage accounting and populated byte columns on every
/// wave.
fn catalogue_converges_at(cluster: Cluster, tasks: u64, samples: u32, names: Option<&[&str]>) {
    let scenarios = catalogue(tasks, FrameVocabulary::BlueGeneL);
    let mut streamed = 0usize;
    for scenario in &scenarios {
        if let Some(filter) = names {
            if !filter.contains(&scenario.name.as_str()) {
                continue;
            }
        }
        if scenario.is_corrupting() {
            continue;
        }
        let reports = Session::builder(cluster.clone())
            .samples_per_task(samples)
            .build()
            .stream_scenario(scenario, FrameVocabulary::BlueGeneL, FAULT_WAVE, WINDOW)
            .unwrap_or_else(|e| panic!("`{}` stream failed: {e}", scenario.name));
        assert_eq!(reports.len(), (FAULT_WAVE + WINDOW) as usize);

        for report in &reports[..FAULT_WAVE as usize] {
            assert!(
                report.verdict.passed(),
                "`{}` wave {} (pre-fault) must judge healthy:\n{}",
                scenario.name,
                report.wave,
                report.verdict
            );
        }
        let stable = stable_wave(&reports, FAULT_WAVE).unwrap_or_else(|| {
            panic!(
                "`{}` never converged to its ground truth after the wave-{FAULT_WAVE} fault",
                scenario.name
            )
        });
        assert!(
            stable - FAULT_WAVE <= 2,
            "`{}` took {} waves to stabilise",
            scenario.name,
            stable - FAULT_WAVE
        );
        for report in &reports {
            assert!(report.packet_bytes > 0, "`{}` empty wave", scenario.name);
            assert_eq!(
                report.covered_tasks + report.lost_tasks,
                tasks,
                "`{}` wave {} coverage accounting",
                scenario.name,
                report.wave
            );
        }
        streamed += 1;
    }
    assert!(streamed > 0, "no scenarios streamed at {tasks} tasks");
}

#[test]
fn every_catalogue_fault_schedule_converges_at_1k() {
    catalogue_converges_at(Cluster::test_cluster(128, 8), 1_024, 2, None);
}

#[test]
fn every_catalogue_fault_schedule_converges_at_64k() {
    if fast_mode() {
        eprintln!("STATBENCH_FAST set: skipping the 65,536-task streams");
        return;
    }
    catalogue_converges_at(Cluster::bluegene_l(BglMode::CoProcessor), 65_536, 1, None);
}

#[test]
fn the_208k_ring_hang_develops_mid_stream() {
    if fast_mode() {
        eprintln!("STATBENCH_FAST set: skipping the 212,992-task stream");
        return;
    }
    let cluster = Cluster::bluegene_l(BglMode::VirtualNode);
    assert_eq!(cluster.max_tasks(), 212_992);
    catalogue_converges_at(cluster, 212_992, 1, Some(&["ring_hang"]));
}

/// A wave-2 ring-hang schedule at 1,024 tasks on the paper-default overlay.
fn ring_stream(representation: Representation) -> StreamingSession {
    let scenario = catalogue(1_024, FrameVocabulary::BlueGeneL)
        .into_iter()
        .find(|s| s.name == "ring_hang")
        .expect("the catalogue always carries ring_hang");
    Session::builder(Cluster::test_cluster(128, 8))
        .representation(representation)
        .streaming(2)
        .open(Box::new(FaultSchedule::new(
            scenario,
            FrameVocabulary::BlueGeneL,
            FAULT_WAVE,
        )))
        .expect("the stream opens")
}

#[test]
fn incremental_fold_equals_batched_merge_at_every_wave() {
    for representation in [
        Representation::HierarchicalTaskList,
        Representation::GlobalBitVector,
    ] {
        let mut stream = ring_stream(representation);
        for wave in 0..(FAULT_WAVE + WINDOW) {
            stream.advance().expect("the wave advances");
            let incremental = stream.incremental_canonical();
            assert!(!incremental.is_empty(), "wave {wave} folded nothing");
            assert_eq!(
                incremental,
                stream.batched_canonical(),
                "wave {wave} diverged under {representation:?}"
            );
        }
    }
}

#[test]
fn quiescent_waves_ship_deltas_not_trees() {
    // Post-fault, a hung job's behaviour classes stop changing: from the second
    // post-fault wave on, the delta path ships far less than re-sending every
    // daemon's full cumulative tree would.
    let mut stream = ring_stream(Representation::HierarchicalTaskList);
    let mut last = None;
    for _ in 0..(FAULT_WAVE + WINDOW) {
        last = Some(stream.advance().expect("the wave advances"));
    }
    let last = last.expect("at least one wave ran");
    assert!(
        last.delta_bytes < last.full_packet_bytes,
        "late-wave deltas ({}) must undercut full cumulative trees ({})",
        last.delta_bytes,
        last.full_packet_bytes
    );
}

#[test]
fn a_daemon_lost_mid_stream_drops_out_with_exact_accounting() {
    let scenario = catalogue(1_024, FrameVocabulary::BlueGeneL)
        .into_iter()
        .find(|s| s.name == "ring_hang")
        .expect("the catalogue always carries ring_hang");
    let mut stream = Session::builder(Cluster::test_cluster(128, 8))
        .streaming(2)
        .overlay_fault_at(1, OverlayFault::BackendFromEnd(0))
        .open(Box::new(FaultSchedule::new(
            scenario,
            FrameVocabulary::BlueGeneL,
            FAULT_WAVE,
        )))
        .expect("the stream opens");

    let wave0 = stream.advance().expect("wave 0");
    assert_eq!(wave0.lost_tasks, 0);
    assert!(!wave0.reseeded);
    assert_eq!(wave0.reseed_bytes, 0, "no prune, no re-seed traffic");
    assert!(wave0.verdict.passed(), "{}", wave0.verdict);

    // Wave 1: the last daemon dies; its 8 ranks leave coverage, the overlay is
    // rebuilt and re-seeded, and the (still healthy) verdict survives the loss.
    // The re-seed cost lands in its own column; `delta_bytes` stays the pure
    // steady-state delta traffic.
    let wave1 = stream.advance().expect("wave 1");
    assert!(wave1.reseeded);
    assert!(
        wave1.reseed_bytes > 0,
        "the post-prune re-seed must be accounted in its own column"
    );
    assert_eq!(wave1.lost_tasks, 8);
    assert_eq!(wave1.covered_tasks + wave1.lost_tasks, 1_024);
    assert_eq!(stream.lost_ranks(), (1_016..1_024).collect::<Vec<_>>());
    assert!(wave1.verdict.passed(), "{}", wave1.verdict);
    assert_eq!(stream.incremental_canonical(), stream.batched_canonical());

    // Waves 2..: the hang appears; the degraded stream still converges, and the
    // coverage split stays exact on every wave.
    for wave in FAULT_WAVE..(FAULT_WAVE + WINDOW) {
        let report = stream.advance().expect("post-fault wave");
        assert!(!report.reseeded);
        assert_eq!(report.reseed_bytes, 0, "re-seeds only follow prunes");
        assert_eq!(report.covered_tasks + report.lost_tasks, 1_024);
        assert_eq!(report.lost_tasks, 8);
        assert!(
            report.verdict.passed(),
            "degraded wave {wave}:\n{}",
            report.verdict
        );
        assert_eq!(stream.incremental_canonical(), stream.batched_canonical());
    }
}

#[test]
fn a_prune_that_kills_the_session_mid_stream_is_typed() {
    let scenario = catalogue(1_024, FrameVocabulary::BlueGeneL)
        .into_iter()
        .find(|s| s.name == "ring_hang")
        .expect("the catalogue always carries ring_hang");
    // A pinned 2-comm overlay: losing both communication processes at wave 1
    // orphans all eight daemons.
    let mut stream = Session::builder(Cluster::test_cluster(128, 8))
        .topology(TreeShape::two_deep(8, 2))
        .streaming(1)
        .overlay_fault_at(1, OverlayFault::CommProcessFromEnd(0))
        .overlay_fault_at(1, OverlayFault::CommProcessFromEnd(1))
        .open(Box::new(FaultSchedule::new(
            scenario,
            FrameVocabulary::BlueGeneL,
            FAULT_WAVE,
        )))
        .expect("the stream opens");
    stream.advance().expect("wave 0 is healthy");
    let err = stream.advance().expect_err("wave 1 must refuse to run");
    assert!(
        matches!(err, StatError::SessionNotViable { .. }),
        "expected SessionNotViable, got {err:?}"
    );
    let message = err.to_string();
    assert!(
        message.contains("no degraded session"),
        "unhelpful error: {message}"
    );
}
