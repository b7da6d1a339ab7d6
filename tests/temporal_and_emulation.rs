//! Integration tests for the time-evolving workloads (where the 2D and 3D analyses
//! genuinely disagree), the report/pruning operations, and the STATBench emulation
//! layer driving the real tool.

use appsim::{Application, CheckpointStormApp, FrameVocabulary, IterativeSolverApp, StragglerApp};
use machine::Cluster;
use stat_core::prelude::*;
use statbench::{SyntheticApp, TraceShape};

fn run(app: &dyn Application, samples: u32) -> SessionReport {
    Session::builder(Cluster::test_cluster(64, 8))
        .representation(Representation::HierarchicalTaskList)
        .samples_per_task(samples)
        .build()
        .attach(app)
        .expect("the session merges cleanly")
}

#[test]
fn healthy_solver_looks_different_in_3d_than_in_2d() {
    let app = IterativeSolverApp::new(256, 1, FrameVocabulary::Linux);
    let result = run(&app, 9);
    // A single snapshot (2D) splits the job into whichever phases the ranks happened
    // to be in at that instant: several classes, each covering only a slice of the
    // job.
    let classes_2d = equivalence_classes(&result.gather.tree_2d);
    assert!(classes_2d.len() >= 2, "a snapshot shows several phases");
    let largest_2d = classes_2d.iter().map(EquivalenceClass::size).max().unwrap();
    assert!(
        largest_2d < 200,
        "no single phase holds the whole job in a snapshot"
    );
    // Over time (3D) every task visits every phase, so each class covers the whole
    // job — the signature of "working", as opposed to "stuck somewhere".
    assert!(result.gather.classes.iter().all(|c| c.size() == 256));
}

#[test]
fn stragglers_are_singled_out_for_the_debugger() {
    let app = StragglerApp::new(512, 3, FrameVocabulary::Linux);
    let result = run(&app, 4);
    let compute_class = result
        .gather
        .classes
        .iter()
        .find(|c| {
            c.path_string(&result.gather.frames)
                .contains("compute_interior")
        })
        .expect("straggler class exists");
    assert_eq!(compute_class.tasks, app.stragglers().to_vec());
    // The attach set stays tiny even though the job has 512 tasks.
    assert!(result.gather.attach_set().len() <= 4);
}

#[test]
fn checkpoint_storm_separates_writers_from_waiters() {
    let app = CheckpointStormApp::new(400, 0.9, FrameVocabulary::Linux);
    let result = run(&app, 3);
    let writer_class = result
        .gather
        .classes
        .iter()
        .find(|c| {
            c.path_string(&result.gather.frames)
                .contains("MPI_File_write_all")
        })
        .expect("writer class exists");
    assert_eq!(writer_class.size(), 40);
}

#[test]
fn report_operations_work_on_real_session_output() {
    let app = StragglerApp::new(256, 2, FrameVocabulary::Linux);
    let result = run(&app, 4);

    let text = render_text_tree(&result.gather.tree_3d, &result.gather.frames);
    assert!(text.contains("timestep_loop"));
    assert_eq!(text.lines().count(), result.gather.tree_3d.node_count());

    let summary = session_summary(&result.gather, 256);
    assert!(summary.contains("behaviour classes"));

    // Pruning away small populations hides the stragglers; focusing finds them again.
    let pruned = prune_by_population(&result.gather.tree_3d, 10);
    assert!(pruned.node_count() < result.gather.tree_3d.node_count());
    let focused = focus_on_path(
        &result.gather.tree_3d,
        &result.gather.frames,
        &["_start", "main", "timestep_loop", "compute_interior"],
    );
    let focused_classes = equivalence_classes(&focused);
    assert!(focused_classes
        .iter()
        .any(|c| c.tasks == app.stragglers().to_vec()));
}

#[test]
fn emulated_jobs_and_real_apps_share_the_same_pipeline() {
    // The STATBench emulation and a real (simulated) application must exercise the
    // same machinery and produce structurally comparable results.
    let shape = TraceShape {
        classes: 3,
        ..TraceShape::typical()
    };
    let emulated = run(&SyntheticApp::new(1_024, shape), 10);
    assert_eq!(emulated.gather.classes.len(), 3);
    // The compression the tool achieved: emulated tasks per behaviour class.
    assert!(1_024.0 / emulated.gather.classes.len() as f64 > 300.0);

    let app = appsim::RingHangApp::new(1_024, FrameVocabulary::BlueGeneL);
    let real = run(&app, 5);
    assert_eq!(real.gather.classes.len(), 3);
    // Both paths end with a job-wide tree covering every task.
    assert_eq!(
        real.gather
            .tree_3d
            .tasks(real.gather.tree_3d.root())
            .count(),
        1_024
    );
}

#[test]
fn overlay_fault_handling_degrades_gracefully() {
    use appsim::scenario::{catalogue, OverlayFault};
    use tbon::topology::TreeShape;

    // Lose one of four communication processes mid-gather: its 8 daemons
    // disappear, the session survives, and the degraded gather over the
    // survivors still produces a coherent answer.
    let scenarios = catalogue(256, FrameVocabulary::Linux);
    let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
    let run = Session::builder(Cluster::test_cluster(64, 8))
        .topology(TreeShape::two_deep(32, 4))
        .samples_per_task(2)
        .build()
        .run_scenario(&ring.with_overlay(OverlayFault::CommProcessFromEnd(2)))
        .expect("the session survives the loss");
    assert_eq!(run.daemons, 32);
    assert_eq!(run.lost_backends, 8);
    // The second comm process's daemons covered ranks 64..128.
    assert_eq!(run.diagnosis.lost_ranks, (64..128).collect::<Vec<_>>());
    let mut covered: Vec<u64> = run
        .diagnosis
        .classes
        .iter()
        .flat_map(|c| c.ranks.iter().copied())
        .collect();
    covered.sort_unstable();
    covered.dedup();
    assert_eq!(
        covered.len(),
        24 * 8,
        "only the surviving daemons' tasks are covered"
    );
    assert!(run.verdict.passed(), "{}", run.verdict);
}
