//! The fault-scenario acceptance suite: every entry of the catalogue — the paper's
//! ring hang, the classic deadlock/straggler/storm workloads, the adversarial
//! I/O-storm / OS-noise / collective-mismatch / corrupted-stack workloads, and the
//! daemon-fault-degraded variants — is run through the full `Session` pipeline
//! (planner-chosen topology, real sampling, real single-pass TBON reduction) and
//! its diagnosis is judged against the scenario's machine-checkable ground truth.
//!
//! This is the suite that turns the repo's correctness story from "trees merge"
//! into "the tool finds the bug": a scenario fails if the merged tree does not
//! isolate exactly the injected ranks under the distinguishing frame, invents or
//! drops coverage, leaves the expected class band, or lets corrupted stacks poison
//! the healthy spine.
//!
//! Scales: 1,024 tasks always; 65,536 tasks and the full 212,992-task BG/L (the
//! paper's 208K headline) are skipped under `STATBENCH_FAST=1` so the fast CI lane
//! stays fast — the tier-1 run exercises all three.

use appsim::scenario::{catalogue, FaultScenario};
use appsim::FrameVocabulary;
use machine::cluster::{BglMode, Cluster};
use stat_core::prelude::*;

/// Same convention as `stat_bench::fast_mode`: set (non-empty, non-`"0"`)
/// `STATBENCH_FAST` skips the large-scale points.
fn fast_mode() -> bool {
    std::env::var("STATBENCH_FAST")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// A session over a planner-chosen topology, under the paper's default
/// (hierarchical) representation.
fn planned(cluster: &Cluster, samples: u32) -> Session {
    Session::builder(cluster.clone())
        .plan_topology()
        .samples_per_task(samples)
        .build()
}

/// Run every registered scenario at one scale and assert every verdict passes.
fn assert_catalogue_passes(cluster: &Cluster, tasks: u64, samples: u32) {
    let scenarios = catalogue(tasks, FrameVocabulary::BlueGeneL);
    assert!(scenarios.len() >= 8, "the registry shrank");
    let session = planned(cluster, samples);
    for scenario in &scenarios {
        let run = session
            .run_scenario(scenario)
            .unwrap_or_else(|e| panic!("scenario `{}` failed to run: {e}", scenario.name));
        assert!(
            run.verdict.passed(),
            "scenario `{}` at {} tasks was misdiagnosed:\n{}",
            scenario.name,
            tasks,
            run.verdict
        );
    }
}

#[test]
fn the_registry_covers_the_required_fault_space() {
    let scenarios = catalogue(1_024, FrameVocabulary::Linux);
    assert!(scenarios.len() >= 8);
    // All four new adversarial workloads are registered...
    for required in [
        "io_storm",
        "os_noise",
        "collective_mismatch",
        "corrupted_stacks",
    ] {
        let entry = scenarios
            .iter()
            .find(|s| s.name == required)
            .unwrap_or_else(|| panic!("scenario `{required}` missing from the registry"));
        assert_eq!(entry.app.name(), required);
    }
    // ...alongside the paper's ring hang and at least one daemon-fault variant.
    assert!(scenarios.iter().any(|s| s.name == "ring_hang"));
    let degraded: Vec<&FaultScenario> = scenarios.iter().filter(|s| s.is_degraded()).collect();
    assert!(!degraded.is_empty());
    // Every entry documents its fault and expected diagnosis for the gallery.
    for s in &scenarios {
        assert!(!s.fault.is_empty() && !s.expected.is_empty());
    }
}

#[test]
fn every_scenario_verdict_passes_at_1k() {
    assert_catalogue_passes(&Cluster::test_cluster(128, 8), 1_024, 3);
}

#[test]
fn every_scenario_verdict_passes_at_64k() {
    if fast_mode() {
        eprintln!("STATBENCH_FAST set: skipping the 65,536-task catalogue sweep");
        return;
    }
    // BG/L in co-processor mode: 64 tasks per I/O-node daemon, 1,024 daemons.
    assert_catalogue_passes(&Cluster::bluegene_l(BglMode::CoProcessor), 65_536, 2);
}

#[test]
fn the_ring_hang_scenario_passes_at_the_full_208k() {
    if fast_mode() {
        eprintln!("STATBENCH_FAST set: skipping the 212,992-task ring hang");
        return;
    }
    // The paper's headline configuration: the full BG/L in virtual-node mode.
    let cluster = Cluster::bluegene_l(BglMode::VirtualNode);
    let tasks = cluster.max_tasks();
    assert_eq!(tasks, 212_992);
    let scenarios = catalogue(tasks, FrameVocabulary::BlueGeneL);
    let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
    let run = planned(&cluster, 1)
        .run_scenario(ring)
        .expect("the 208K session merges cleanly");
    assert!(
        run.verdict.passed(),
        "the 208K ring hang was misdiagnosed:\n{}",
        run.verdict
    );
    assert_eq!(run.daemons, 1_664);
    // The diagnosis the verdict judged is the paper's: the hung rank and its
    // victim, alone, under their distinguishing frames.
    let hung_class = run
        .diagnosis
        .classes
        .iter()
        .find(|c| c.frames.iter().any(|f| f == "do_SendOrStall"))
        .expect("a do_SendOrStall class exists");
    assert_eq!(hung_class.ranks, vec![1]);
}

#[test]
fn degraded_scenarios_lose_coverage_but_not_the_diagnosis() {
    let scenarios = catalogue(1_024, FrameVocabulary::BlueGeneL);
    let session = planned(&Cluster::test_cluster(128, 8), 2);
    for scenario in scenarios.iter().filter(|s| s.is_degraded()) {
        let run = session
            .run_scenario(scenario)
            .unwrap_or_else(|e| panic!("degraded scenario `{}` failed: {e}", scenario.name));
        assert!(run.lost_backends > 0, "{} pruned nothing", scenario.name);
        assert!(!run.diagnosis.lost_ranks.is_empty());
        assert!(
            run.verdict.passed(),
            "degraded scenario `{}` was misdiagnosed:\n{}",
            scenario.name,
            run.verdict
        );
        // Coverage accounting is exact: covered + lost = the whole job.
        let covered: usize = {
            let mut all: Vec<u64> = run
                .diagnosis
                .classes
                .iter()
                .flat_map(|c| c.ranks.iter().copied())
                .collect();
            all.sort_unstable();
            all.dedup();
            all.len()
        };
        assert_eq!(covered + run.diagnosis.lost_ranks.len(), 1_024);
    }
}

#[test]
fn scenario_verdicts_are_representation_invariant_at_1k() {
    // The dense and hierarchical representations must reach the same verdicts —
    // the scenario layer is above the wire-format choice.
    let scenarios = catalogue(1_024, FrameVocabulary::Linux);
    let session = Session::builder(Cluster::test_cluster(128, 8))
        .representation(Representation::GlobalBitVector)
        .plan_topology()
        .samples_per_task(2)
        .build();
    for scenario in &scenarios {
        let dense = session.run_scenario(scenario).unwrap();
        assert!(
            dense.verdict.passed(),
            "scenario `{}` under the dense representation:\n{}",
            scenario.name,
            dense.verdict
        );
    }
}

/// The one place the pin test below reaches the scenario runner, so its literal
/// table survives a rename of the runner unedited.
fn run_pinned(session: &Session, scenario: &FaultScenario) -> Result<ScenarioRun, StatError> {
    session.run_scenario(scenario)
}

/// 64-bit FNV-1a over everything a scenario run reports that a refactor of the
/// runner could move.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    fn str(&mut self, s: &str) {
        self.bytes(s.as_bytes());
        self.bytes(&[0xff]);
    }
    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    fn outcome(&mut self, name: &str, outcome: &Result<ScenarioRun, StatError>) {
        self.str(name);
        match outcome {
            Ok(run) => {
                self.str(&run.scenario);
                self.u64(run.daemons as u64);
                self.u64(run.lost_backends as u64);
                self.u64(run.diagnosis.lost_ranks.len() as u64);
                run.diagnosis.lost_ranks.iter().for_each(|&r| self.u64(r));
                for class in &run.diagnosis.classes {
                    class.frames.iter().for_each(|f| self.str(f));
                    self.u64(class.ranks.len() as u64);
                    class.ranks.iter().for_each(|&r| self.u64(r));
                }
                for check in &run.verdict.checks {
                    self.str(check.name);
                    self.u64(check.passed as u64);
                }
            }
            Err(err) => self.str(&err.to_string()),
        }
    }
}

#[test]
fn scenario_runs_are_pinned_to_the_pre_unification_values() {
    use appsim::scenario::{MidTreeCorruption, MidTreeFault, OverlayFault};
    use appsim::FaultSchedule;
    use machine::placement::PlacementPlan;
    use tbon::topology::TreeShape;

    // Recorded at the commit before the scenario runner was unified (one body, one
    // `prune_overlay`); a runner refactor must reproduce them, never re-record them.
    const PINNED: [(&str, u32, [u64; 3]); 4] = [
        (
            "hier",
            2,
            [0x2164ed23059fb921, 0x866f0ff6a6c8e285, 0x994e6b5f9d85ca8e],
        ),
        (
            "hier",
            4,
            [0x76d8b06e002c7760, 0x0e3a872696e90188, 0x73138e4c9a95900c],
        ),
        (
            "dense",
            2,
            [0x2164ed23059fb921, 0x866f0ff6a6c8e285, 0x994e6b5f9d85ca8e],
        ),
        (
            "dense",
            4,
            [0x76d8b06e002c7760, 0x0e3a872696e90188, 0x73138e4c9a95900c],
        ),
    ];

    let cluster = Cluster::test_cluster(64, 8);
    let tasks = 512;
    let scenarios = catalogue(tasks, FrameVocabulary::BlueGeneL);
    let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
    // Three families: the catalogue as registered (degraded entries included),
    // every healthy entry with its last comm process killed, and the ring hang
    // with a corrupted interior filter — over the full tree and over a pruned one.
    let pruned: Vec<FaultScenario> = scenarios
        .iter()
        .filter(|s| !s.is_degraded())
        .map(|s| s.with_overlay(OverlayFault::CommProcessFromEnd(0)))
        .collect();
    let mut corrupting = Vec::new();
    for kind in [MidTreeCorruption::Garbage, MidTreeCorruption::Truncate] {
        for base in [
            ring.clone(),
            ring.with_overlay(OverlayFault::CommProcessFromEnd(0)),
        ] {
            let mut s = base;
            s.name = format!("{}_{kind:?}", s.name);
            s.mid_tree_faults = vec![MidTreeFault {
                comm_from_end: 0,
                kind,
            }];
            corrupting.push(s);
        }
    }

    // Two runs that must end in a typed error, pinned by its message.
    let mut wild = ring.with_overlay(OverlayFault::BackendFromEnd(999));
    wild.name = "ring_hang_wild_backend".into();
    corrupting.push(wild);
    let mut wild = ring.clone();
    wild.name = "ring_hang_wild_filter".into();
    wild.mid_tree_faults = vec![MidTreeFault {
        comm_from_end: 999,
        kind: MidTreeCorruption::Garbage,
    }];
    corrupting.push(wild);

    let representations = [
        ("hier", Representation::HierarchicalTaskList),
        ("dense", Representation::GlobalBitVector),
    ];
    let mut recorded = Vec::new();
    for (label, representation) in representations {
        for depth in [2, 4] {
            let shape = TreeShape::for_placement(&PlacementPlan::for_job(&cluster, tasks), depth);
            let session = Session::builder(cluster.clone())
                .representation(representation)
                .topology(shape)
                .samples_per_task(2)
                .build();
            let hashes = [&scenarios, &pruned, &corrupting].map(|family| {
                let mut fnv = Fnv::new();
                for scenario in family.iter() {
                    let outcome = run_pinned(&session, scenario);
                    fnv.outcome(&scenario.name, &outcome);
                }
                fnv.0
            });
            recorded.push((label, depth, hashes));
        }
    }
    assert_eq!(recorded, PINNED, "recorded: {recorded:#x?}");

    // A 6-wave stream with two successive prunes; the second fault indexes the
    // *already pruned* topology.  Per wave: covered, lost, re-seed bytes, classes,
    // level widths.
    type Wave = (u64, u64, u64, usize, &'static [u32]);
    const STREAM: [(&str, [Wave; 6]); 2] = [
        (
            "hier",
            [
                (512, 0, 0, 1, &[1, 8, 64]),
                (512, 0, 0, 4, &[1, 8, 64]),
                (504, 8, 4311, 4, &[1, 8, 63]),
                (504, 8, 0, 4, &[1, 8, 63]),
                (448, 64, 2969, 4, &[1, 7, 56]),
                (448, 64, 0, 4, &[1, 7, 56]),
            ],
        ),
        (
            "dense",
            [
                (512, 0, 0, 1, &[1, 8, 64]),
                (512, 0, 0, 4, &[1, 8, 64]),
                (504, 8, 13505, 4, &[1, 8, 63]),
                (504, 8, 0, 4, &[1, 8, 63]),
                (448, 64, 12080, 4, &[1, 7, 56]),
                (448, 64, 0, 4, &[1, 7, 56]),
            ],
        ),
    ];
    for ((label, representation), (pinned_label, pinned)) in representations.into_iter().zip(STREAM)
    {
        assert_eq!(label, pinned_label);
        let mut stream = Session::builder(cluster.clone())
            .representation(representation)
            .streaming(2)
            .overlay_fault_at(2, OverlayFault::BackendFromEnd(0))
            .overlay_fault_at(4, OverlayFault::CommProcessFromEnd(0))
            .open(Box::new(FaultSchedule::new(
                ring.clone(),
                FrameVocabulary::BlueGeneL,
                1,
            )))
            .unwrap();
        let got: Vec<(u64, u64, u64, usize, Vec<u32>)> = (0..pinned.len())
            .map(|_| {
                let report = stream.advance().unwrap();
                (
                    report.covered_tasks,
                    report.lost_tasks,
                    report.reseed_bytes,
                    report.classes,
                    stream.topology().level_widths.clone(),
                )
            })
            .collect();
        let pinned: Vec<_> = pinned
            .into_iter()
            .map(|(c, l, r, k, w)| (c, l, r, k, w.to_vec()))
            .collect();
        assert_eq!(got, pinned, "{label} stream: {got:?}");
    }
}
