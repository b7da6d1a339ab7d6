//! Cross-crate integration tests: whole STAT sessions over the simulated machines,
//! applications and overlay network, plus the interactions between the launcher,
//! SBRS and sampling models that the figures compose.

use appsim::workloads::{all_equivalent, compute_spread, deadlock_pair, threaded};
use appsim::{Application, FrameVocabulary, RingHangApp};
use launch::{
    BglCiodLauncher, CiodPatchLevel, LaunchMonLauncher, Launcher, RemoteShell, RshLauncher,
};
use machine::cluster::{BglMode, Cluster};
use machine::placement::PlacementPlan;
use stackwalk::sampler::{BinaryPlacement, SamplingCostModel};
use stat_core::prelude::*;
use tbon::topology::TreeShape;

/// Workspace-wiring smoke test: the umbrella crate's re-exports must resolve and
/// must be the same crates the rest of this file links against directly, and a
/// minimal attach → sample → merge → report pipeline must complete through them.
#[test]
fn umbrella_reexports_resolve_and_run_a_minimal_pipeline() {
    // Every `pub use` in `stat_repro`'s root is exercised by name.
    let app = stat_repro::appsim::RingHangApp::new(64, stat_repro::appsim::FrameVocabulary::Linux);
    let cluster = stat_repro::machine::Cluster::test_cluster(8, 8);
    let session = stat_repro::stat_core::prelude::Session::builder(cluster.clone()).build();
    let result = session.attach(&app).unwrap();
    assert_eq!(result.gather.classes.len(), 3);
    assert_eq!(result.gather.attach_set().len(), 3);

    // The re-exported crates are the very crates this test file imports directly:
    // a value built through one path must typecheck through the other.
    let direct: FrameVocabulary = stat_repro::appsim::FrameVocabulary::BlueGeneL;
    assert_eq!(direct, FrameVocabulary::BlueGeneL);
    let _shape: tbon::topology::TreeShape = stat_repro::tbon::topology::TreeShape::flat(4);
    let _planner: tbon::planner::TopologyPlanner =
        stat_repro::tbon::planner::TopologyPlanner::new(cluster.clone());
    let _walker: stackwalk::Walker = stat_repro::stackwalk::Walker::new();
    let _rng: simkit::rng::DeterministicRng = stat_repro::simkit::rng::DeterministicRng::new(1);
    let _shell: launch::RemoteShell = stat_repro::launch::RemoteShell::Rsh;
    let _interpose: sbrs::OpenInterposition = stat_repro::sbrs::OpenInterposition::new();
}

/// A session pinned to the placement-rule tree of `depth` edges for a job of
/// `tasks` tasks — the migration path for code that used to pick a `TopologyKind`.
fn session(cluster: Cluster, tasks: u64, depth: u32, representation: Representation) -> Session {
    let plan = PlacementPlan::for_job(&cluster, tasks);
    Session::builder(cluster)
        .topology(TreeShape::for_placement(&plan, depth))
        .representation(representation)
        .samples_per_task(3)
        .build()
}

#[test]
fn ring_hang_diagnosis_is_invariant_across_topology_and_representation() {
    let app = RingHangApp::new(512, FrameVocabulary::BlueGeneL);
    let mut baselines: Vec<Vec<Vec<u64>>> = Vec::new();
    for depth in [1u32, 2, 3, 4] {
        for representation in [
            Representation::GlobalBitVector,
            Representation::HierarchicalTaskList,
        ] {
            let session = session(Cluster::test_cluster(64, 8), 512, depth, representation);
            let result = session.attach(&app).unwrap();
            let mut class_members: Vec<Vec<u64>> = result
                .gather
                .classes
                .iter()
                .map(|c| c.tasks.iter().collect::<Vec<_>>())
                .collect();
            class_members.sort();
            baselines.push(class_members);
        }
    }
    for other in &baselines[1..] {
        assert_eq!(
            &baselines[0], other,
            "every topology/representation combination must produce identical classes"
        );
    }
}

#[test]
fn moving_the_injected_bug_moves_the_diagnosis() {
    for hung in [0u64, 17, 63] {
        let app = RingHangApp::new(64, FrameVocabulary::Linux).with_hung_rank(hung);
        let session = session(
            Cluster::test_cluster(8, 8),
            64,
            2,
            Representation::HierarchicalTaskList,
        );
        let result = session.attach(&app).unwrap();
        let singleton_classes: Vec<&EquivalenceClass> = result
            .gather
            .classes
            .iter()
            .filter(|c| c.size() == 1)
            .collect();
        let singles: Vec<u64> = singleton_classes
            .iter()
            .filter_map(|c| c.representative())
            .collect();
        assert!(
            singles.contains(&app.hung_rank()),
            "hung rank {} must be isolated, got {:?}",
            app.hung_rank(),
            singles
        );
        assert!(singles.contains(&app.victim_rank()));
    }
}

#[test]
fn all_equivalent_jobs_collapse_to_one_class() {
    let app = all_equivalent(1_024, FrameVocabulary::Linux);
    let session = session(
        Cluster::test_cluster(128, 8),
        1_024,
        3,
        Representation::HierarchicalTaskList,
    );
    let result = session.attach(&app).unwrap();
    assert_eq!(result.gather.classes.len(), 1);
    assert_eq!(result.gather.classes[0].size(), 1_024);
    assert_eq!(result.gather.attach_set(), vec![0]);
}

#[test]
fn compute_spread_produces_the_requested_number_of_classes() {
    let app = compute_spread(640, 5, FrameVocabulary::Linux);
    let session = session(
        Cluster::test_cluster(80, 8),
        640,
        2,
        Representation::GlobalBitVector,
    );
    let result = session.attach(&app).unwrap();
    assert_eq!(result.gather.classes.len(), 5);
    let total: usize = result
        .gather
        .classes
        .iter()
        .map(EquivalenceClass::size)
        .sum();
    assert_eq!(total, 640);
}

#[test]
fn deadlocked_pair_is_isolated_from_the_barrier_crowd() {
    let app = deadlock_pair(256, FrameVocabulary::Linux);
    let session = session(
        Cluster::test_cluster(32, 8),
        256,
        2,
        Representation::HierarchicalTaskList,
    );
    let result = session.attach(&app).unwrap();
    let recv_class = result
        .gather
        .classes
        .iter()
        .find(|c| c.path_string(&result.gather.frames).contains("PMPI_Recv"))
        .expect("a PMPI_Recv class exists");
    assert_eq!(recv_class.tasks.iter().collect::<Vec<_>>(), [0, 1]);
}

#[test]
fn bgl_daemon_fanin_matches_the_machine() {
    // On BG/L in CO mode a daemon serves 64 tasks, so a 1,024-task job uses 16
    // daemons; the resulting topology must agree with the machine model.
    let app = RingHangApp::new(1_024, FrameVocabulary::BlueGeneL);
    let session = session(
        Cluster::bluegene_l(BglMode::CoProcessor),
        1_024,
        2,
        Representation::HierarchicalTaskList,
    );
    let result = session.attach(&app).unwrap();
    assert_eq!(result.daemons, 16);
    assert_eq!(result.gather.classes.len(), 3);
}

#[test]
fn planner_chosen_topology_attaches_at_the_bgl_208k_point() {
    // The acceptance path for cost-model-driven planning: on the full BG/L in
    // virtual-node mode (212,992 tasks — the paper's 208K headline), the session
    // asks the TopologyPlanner for a shape and runs the real pipeline over it.
    let cluster = Cluster::bluegene_l(BglMode::VirtualNode);
    let tasks = cluster.max_tasks();
    assert_eq!(tasks, 212_992);
    let app = RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
    let session = Session::builder(cluster.clone())
        .plan_topology()
        .samples_per_task(1)
        .build();
    let report = session
        .attach(&app)
        .expect("the planned session merges cleanly");
    assert_eq!(report.daemons, 1_664);
    assert_eq!(report.traces_gathered, 212_992);
    // One sample per task keeps the tier-1 run cheap; the polling frames then
    // split the barrier crowd over a few classes, but the diagnosis holds: the
    // hung rank and its victim are isolated as singleton classes.
    let singles: Vec<u64> = report
        .gather
        .classes
        .iter()
        .filter(|c| c.size() == 1)
        .filter_map(|c| c.representative())
        .collect();
    assert!(singles.contains(&app.hung_rank()));
    assert!(singles.contains(&app.victim_rank()));
    // The planned shape respects the machine: at most 28 comm processes on BG/L,
    // and a deeper-than-flat tree (the paper saw flat fail at this scale).
    let budget = machine::placement::CommProcessBudget::for_cluster(&cluster);
    assert!(report.topology.comm_processes() <= budget.max_processes);
    assert!(report.topology.depth() >= 2);
    assert_eq!(report.topology, session.topology_for(tasks));
}

#[test]
fn startup_sampling_and_merge_compose_into_a_session_estimate() {
    // The full-scale path the figure generators use: every phase priceable at 208K.
    let cluster = Cluster::bluegene_l(BglMode::VirtualNode);
    let tasks = cluster.max_tasks();
    let plan = PlacementPlan::for_job(&cluster, tasks);
    let spec = TreeShape::for_placement(&plan, 2);

    let startup = BglCiodLauncher::new(CiodPatchLevel::Patched).startup(&cluster, tasks, &spec);
    assert!(startup.succeeded());

    let sampling =
        SamplingCostModel::new(cluster.clone()).estimate(tasks, BinaryPlacement::NfsHome, 9);
    let merge = PhaseEstimator::new(cluster.clone(), Representation::HierarchicalTaskList)
        .merge_estimate(tasks, 2);
    assert!(merge.failed.is_none());

    let merge_time = merge.cost.critical_path;
    let total = startup.total().as_secs() + sampling.total.as_secs() + merge_time.as_secs();
    assert!(total > 0.0);
    // Startup dominates the whole session at this scale — the paper's motivation for
    // Section IV.
    assert!(startup.total() > merge_time);
}

#[test]
fn rsh_fails_where_launchmon_succeeds_on_the_same_job() {
    let atlas = Cluster::atlas();
    let spec = TreeShape::flat(512);
    let rsh = RshLauncher::new(RemoteShell::Rsh).startup(&atlas, 4_096, &spec);
    let lm = LaunchMonLauncher::new().startup(&atlas, 4_096, &spec);
    assert!(!rsh.succeeded());
    assert!(lm.succeeded());
    assert!(lm.total().as_secs() < 10.0);
}

#[test]
fn sbrs_relocation_pays_for_itself_within_one_sampling_pass() {
    let atlas = Cluster::atlas();
    let service = sbrs::RelocationService::new(atlas.clone());
    let (plan, outcome) = service.relocate_working_set(512);
    assert!(!plan.relocate.is_empty());

    let sampling = SamplingCostModel::new(atlas);
    let before = sampling.estimate(4_096, BinaryPlacement::NfsHome, 3).total;
    let after = sampling
        .estimate(4_096, BinaryPlacement::RelocatedRamDisk, 3)
        .total;
    let saved = before.as_secs() - after.as_secs();
    assert!(
        outcome.total().as_secs() < saved,
        "relocation ({:.3} s) must cost less than it saves ({saved:.3} s)",
        outcome.total().as_secs()
    );
}

#[test]
fn interposition_redirects_every_shared_open_after_relocation() {
    let atlas = Cluster::atlas();
    let working_set = stackwalk::symtab::working_set_of(&atlas);
    let plan = sbrs::RelocationPlan::for_working_set(&atlas, &working_set);
    let mut table = plan.interposition();
    for image in &working_set {
        let resolved = table.resolve(&image.path);
        assert!(
            !atlas.mounts.is_shared(&resolved),
            "{} still resolves to a shared file system",
            image.path
        );
    }
    assert_eq!(
        table.misses(),
        (working_set.len() - plan.relocate.len()) as u64
    );
}

#[test]
fn threading_projection_is_consistent_with_real_data_growth() {
    // Section VII: threads are "a potentially unbounded multiplier" on the data
    // the tool collects.  One daemon over four tasks gathers one trace per thread.
    let daemon = StatDaemon::new(0, (0..4).collect(), 4);
    let gather = |workers| {
        let app = threaded(4, workers, FrameVocabulary::Linux);
        let dict = FrameDictionary::negotiate(app.frame_hints());
        daemon.contribute::<SubtreeTaskList>(&app, 2, tbon::packet::EndpointId(1), &dict)
    };
    let (one, four) = (gather(0), gather(3));
    assert_eq!(four.traces_gathered, 4 * one.traces_gathered);
    assert!(four.tree_3d.size_bytes() > one.tree_3d.size_bytes());
}
