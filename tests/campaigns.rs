//! The randomized fault-campaign acceptance suite: seeded campaigns sweep the
//! deterministic scenario catalogue *and* seed-derived randomized fault scenarios
//! across seeds × scales × overlay depths × healthy/degraded overlays, through the
//! real `Session::run_scenario` pipeline, and accumulate the verdicts into a
//! [`statbench::campaign::StabilitySurface`].
//!
//! What this suite pins down beyond `tests/scenarios.rs`:
//!
//! * **stability** — the catalogue's verdicts hold at every cell of the grid, not
//!   just at the hand-picked scale each scenario was written at;
//! * **randomization** — fault parameters drawn from a seeded RNG (which rank
//!   hangs, which flavor of fault, whether a daemon dies, whether an interior
//!   TBON node corrupts its filter output) still carry machine-checkable ground
//!   truths, and the same seed always reproduces the same surface;
//! * **mid-tree corruption** — scenarios that poison an interior node's merged
//!   packet are judged *inverted*, end to end: the cell passes only when the
//!   corruption is detected (failed verdict or typed decode error), never when
//!   the poisoned diagnosis sails through clean;
//! * **reporting** — a first-flip frontier, when one exists, appears in the
//!   surface's aggregate views instead of being silently dropped.
//!
//! Scales: 1,024 tasks always; 65,536 (BG/L co-processor) and the full 212,992
//! (BG/L virtual-node, the paper's 208K headline) are skipped under
//! `STATBENCH_FAST=1` so the fast CI lane stays fast.

use std::collections::BTreeSet;

use appsim::scenario::randomized_scenarios;
use appsim::FrameVocabulary;
use machine::cluster::{BglMode, Cluster};
use machine::placement::PlacementPlan;
use proptest::prelude::*;
use stat_core::prelude::{Representation, Session};
use statbench::campaign::{run_campaign, CampaignConfig, StabilitySurface};
use tbon::topology::TreeShape;

/// Same convention as `stat_bench::fast_mode`: set (non-empty, non-`"0"`)
/// `STATBENCH_FAST` skips the large-scale points.
fn fast_mode() -> bool {
    std::env::var("STATBENCH_FAST")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// The frontier must be *reported*, never silently dropped: surface it in the
/// test log and make sure every entry also appears in the markdown emission.
fn report_frontier(surface: &StabilitySurface, label: &str) {
    let frontier = surface.first_flip_frontier();
    if frontier.is_empty() {
        eprintln!("{label}: no flips — every verdict stable across the grid");
        assert!(surface.to_markdown().contains("No flips"));
        return;
    }
    let markdown = surface.to_markdown();
    for flip in &frontier {
        eprintln!(
            "{label}: FLIP {} (depth {}, degraded {}) first fails at {} tasks",
            flip.scenario, flip.depth, flip.degraded, flip.first_failing_tasks
        );
        assert!(
            markdown.contains(&flip.scenario),
            "frontier entry `{}` missing from the markdown report",
            flip.scenario
        );
    }
}

/// Every deterministic catalogue cell (the ones with no seed) must pass.
fn assert_catalogue_cells_pass(surface: &StabilitySurface, label: &str) {
    let catalogue_cells = surface.catalogue_cells();
    assert!(
        !catalogue_cells.is_empty(),
        "{label}: no catalogue cells ran"
    );
    let failed: Vec<String> = catalogue_cells
        .iter()
        .filter(|c| !c.passed)
        .map(|c| format!("{c:?}"))
        .collect();
    assert!(
        failed.is_empty(),
        "{label}: deterministic catalogue cells failed:\n{}",
        failed.join("\n")
    );
}

#[test]
fn seeded_campaign_covers_the_grid_at_1k() {
    let config = CampaignConfig {
        cluster: Cluster::test_cluster(128, 8),
        vocab: FrameVocabulary::BlueGeneL,
        seeds: vec![1, 2, 3],
        scales: vec![1_024],
        depths: vec![2, 3],
        samples_per_task: 2,
        randomized_per_seed: 2,
        include_degraded: true,
        include_catalogue: true,
        catalogue_filter: None,
        representation: Representation::HierarchicalTaskList,
        latency_waves: 2,
        latency_fault_wave: 1,
    };
    let surface = run_campaign(&config);

    // The grid is fully populated: both depths, all three seeds, healthy and
    // degraded overlays, and (with these seeds) mid-tree corruption cells.
    let depths: BTreeSet<u32> = surface.cells.iter().map(|c| c.depth).collect();
    assert_eq!(depths, BTreeSet::from([2, 3]));
    let seeds: BTreeSet<u64> = surface.cells.iter().filter_map(|c| c.seed).collect();
    assert_eq!(seeds, BTreeSet::from([1, 2, 3]));
    assert!(surface.cells.iter().any(|c| c.degraded));
    assert!(surface.cells.iter().any(|c| !c.degraded));
    assert!(
        surface.cells.iter().any(|c| c.corrupting),
        "seeds 1–3 draw mid-tree faults; none surfaced in the grid"
    );

    // Deterministic catalogue cells: 100% pass rate, at every depth and overlay.
    assert_catalogue_cells_pass(&surface, "1K grid");
    // At this scale the *whole* surface is stable — randomized and corrupting
    // cells included — and the campaign is deterministic, so pin it exactly.
    assert_eq!(
        surface.pass_rate(),
        1.0,
        "unstable cells at 1K:\n{:?}",
        surface
            .cells
            .iter()
            .filter(|c| !c.passed)
            .collect::<Vec<_>>()
    );
    report_frontier(&surface, "1K grid");
    assert!(surface.first_flip_frontier().is_empty());
    assert!(surface.check_failure_histogram().is_empty());

    // Verdict latency: every streamed (non-corrupting) cell stabilised inside
    // the observation window, and corrupting cells carry no latency.
    for cell in &surface.cells {
        if cell.corrupting {
            assert_eq!(cell.verdict_latency, None, "corrupting cell {cell:?}");
        } else {
            assert!(
                cell.verdict_latency.is_some(),
                "streamed cell never stabilised: {cell:?}"
            );
        }
    }
    assert!(!surface.verdict_latency_by_scale().is_empty());

    // The emissions carry one row per cell and the aggregate views.
    let csv = surface.to_csv();
    assert_eq!(csv.lines().count(), surface.cells.len() + 1);
    assert!(surface.to_markdown().contains("pass rate 100.0%"));
    assert!(csv.lines().next().unwrap().contains("verdict_latency"));
}

#[test]
fn a_flipped_verdict_lands_on_the_frontier_not_on_the_floor() {
    // Mis-wire a scenario's ground truth (run `stragglers`, judge it with
    // `deadlock_pair`'s truth) so one cell genuinely fails, then check the
    // failure is reported through every aggregate view.
    let scenarios = appsim::scenario::catalogue(256, FrameVocabulary::Linux);
    let stragglers = scenarios.iter().find(|s| s.name == "stragglers").unwrap();
    let deadlock = scenarios
        .iter()
        .find(|s| s.name == "deadlock_pair")
        .unwrap();
    let mut cross_wired = stragglers.clone();
    cross_wired.truth = deadlock.truth.clone();
    cross_wired.name = "cross_wired_stragglers".into();

    let run = Session::builder(Cluster::test_cluster(32, 8))
        .build()
        .run_scenario(&cross_wired)
        .expect("the pipeline itself runs");
    assert!(!run.verdict.passed());

    let cell = statbench::CampaignCell {
        scenario: cross_wired.name.clone(),
        seed: None,
        tasks: 256,
        depth: 2,
        samples: 2,
        degraded: false,
        corrupting: false,
        passed: false,
        failed_checks: run
            .verdict
            .failures()
            .iter()
            .map(|c| c.name.to_string())
            .collect(),
        error: None,
        verdict_latency: None,
    };
    let surface = StabilitySurface { cells: vec![cell] };

    let frontier = surface.first_flip_frontier();
    assert_eq!(frontier.len(), 1);
    assert_eq!(frontier[0].scenario, "cross_wired_stragglers");
    assert_eq!(frontier[0].first_failing_tasks, 256);
    report_frontier(&surface, "cross-wired");
    assert!(!surface.check_failure_histogram().is_empty());
    assert!(surface.to_csv().contains("cross_wired_stragglers"));
}

#[test]
fn mid_tree_corruption_is_judged_end_to_end() {
    // Seed 1 at 1K draws two mid-tree-corrupting scenarios (pinned by the
    // seed-determinism property).  Run them as their own campaign: every
    // corrupting cell must pass — meaning the poison was *detected* — and the
    // same scenarios stripped of their mid-tree faults must pass the ordinary
    // way, proving the detection is attributable to the injected corruption.
    let config = CampaignConfig {
        cluster: Cluster::test_cluster(128, 8),
        vocab: FrameVocabulary::BlueGeneL,
        seeds: vec![1],
        scales: vec![1_024],
        depths: vec![2, 3],
        samples_per_task: 2,
        randomized_per_seed: 2,
        include_degraded: false,
        include_catalogue: false,
        catalogue_filter: None,
        representation: Representation::HierarchicalTaskList,
        latency_waves: 0,
        latency_fault_wave: 0,
    };
    let surface = run_campaign(&config);
    let corrupting: Vec<_> = surface.cells.iter().filter(|c| c.corrupting).collect();
    assert!(
        !corrupting.is_empty(),
        "seed 1 must draw mid-tree faults; got {:?}",
        surface.cells
    );
    for cell in &corrupting {
        assert!(cell.passed, "mid-tree corruption went undetected: {cell:?}");
    }

    // Control: the stripped scenarios diagnose cleanly.
    let session = Session::builder(Cluster::test_cluster(128, 8))
        .samples_per_task(2)
        .build();
    for scenario in randomized_scenarios(1_024, FrameVocabulary::BlueGeneL, 1, 2) {
        assert!(scenario.is_corrupting(), "seed 1's draws changed");
        let mut stripped = scenario.clone();
        stripped.mid_tree_faults.clear();
        let run = session
            .run_scenario(&stripped)
            .expect("stripped scenario runs");
        assert!(
            run.verdict.passed(),
            "stripped `{}` must pass: {}",
            stripped.name,
            run.verdict
        );
    }
}

#[test]
fn degraded_coverage_accounting_holds_on_deep_trees() {
    // Pruned-shape coverage accounting at depth ≥ 4: daemon loss and
    // comm-process loss (which orphans a whole subtree of the 4-deep overlay)
    // must both keep covered + lost = tasks, with the verdict intact.
    let cluster = Cluster::test_cluster(128, 8);
    let deep = TreeShape::for_placement(&PlacementPlan::for_job(&cluster, 1_024), 4);
    let session = Session::builder(cluster)
        .topology(deep)
        .samples_per_task(2)
        .build();
    let scenarios = appsim::scenario::catalogue(1_024, FrameVocabulary::BlueGeneL);
    for name in ["ring_hang_daemon_loss", "deadlock_pair_comm_loss"] {
        let scenario = scenarios.iter().find(|s| s.name == name).unwrap();
        let run = session
            .run_scenario(scenario)
            .unwrap_or_else(|e| panic!("degraded scenario `{name}` failed: {e}"));
        assert!(run.lost_backends > 0, "`{name}` pruned nothing at depth 4");
        let covered = {
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
        assert_eq!(
            covered + run.diagnosis.lost_ranks.len(),
            1_024,
            "`{name}` coverage accounting broke on the 4-deep overlay"
        );
        assert!(run.verdict.passed(), "`{name}`:\n{}", run.verdict);
    }
}

#[test]
fn the_campaign_reaches_64k_with_the_full_catalogue() {
    if fast_mode() {
        eprintln!("STATBENCH_FAST set: skipping the 65,536-task campaign");
        return;
    }
    let config = CampaignConfig {
        cluster: Cluster::bluegene_l(BglMode::CoProcessor),
        vocab: FrameVocabulary::BlueGeneL,
        seeds: vec![1, 2, 3],
        scales: vec![65_536],
        depths: vec![2, 3],
        samples_per_task: 1,
        randomized_per_seed: 1,
        include_degraded: true,
        include_catalogue: true,
        catalogue_filter: None,
        representation: Representation::HierarchicalTaskList,
        // Streaming latency at 64K is covered by tests/streaming.rs; keep this
        // grid's runtime on the one-shot axis it pins.
        latency_waves: 0,
        latency_fault_wave: 0,
    };
    let surface = run_campaign(&config);
    assert_catalogue_cells_pass(&surface, "64K");
    assert_eq!(
        surface.pass_rate(),
        1.0,
        "unstable cells at 64K:\n{:?}",
        surface
            .cells
            .iter()
            .filter(|c| !c.passed)
            .collect::<Vec<_>>()
    );
    report_frontier(&surface, "64K");
}

#[test]
fn the_campaign_reaches_the_full_208k() {
    if fast_mode() {
        eprintln!("STATBENCH_FAST set: skipping the 212,992-task campaign");
        return;
    }
    // The paper's headline scale, with the catalogue subset that stays inside
    // the suite's runtime budget (the scale axis is the point here; the full
    // catalogue runs at 64K above and in tests/scenarios.rs).
    let cluster = Cluster::bluegene_l(BglMode::VirtualNode);
    assert_eq!(cluster.max_tasks(), 212_992);
    let config = CampaignConfig {
        cluster,
        vocab: FrameVocabulary::BlueGeneL,
        seeds: vec![1, 2, 3],
        scales: vec![212_992],
        depths: vec![2, 3],
        samples_per_task: 1,
        randomized_per_seed: 1,
        include_degraded: true,
        include_catalogue: true,
        catalogue_filter: Some(vec![
            "ring_hang".into(),
            "ring_hang_daemon_loss".into(),
            "stragglers".into(),
        ]),
        representation: Representation::HierarchicalTaskList,
        latency_waves: 0,
        latency_fault_wave: 0,
    };
    let surface = run_campaign(&config);
    assert!(surface.cells.iter().all(|c| c.tasks == 212_992));
    assert!(
        surface.cells.iter().any(|c| c.corrupting),
        "the randomized draws must exercise mid-tree corruption at 208K"
    );
    assert_catalogue_cells_pass(&surface, "208K");
    assert_eq!(
        surface.pass_rate(),
        1.0,
        "unstable cells at 208K:\n{:?}",
        surface
            .cells
            .iter()
            .filter(|c| !c.passed)
            .collect::<Vec<_>>()
    );
    report_frontier(&surface, "208K");
}

// ---------------------------------------------------------------------------------
// Properties (satellite): seed-determinism of the surface, soundness of the
// randomized ground truths.
// ---------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    // The same seed produces an identical stability surface, cell for cell —
    // the property that makes a campaign a *reproducible* experiment.
    #[test]
    fn same_seed_yields_an_identical_stability_surface(seed in 0u64..512) {
        let config = CampaignConfig {
            cluster: Cluster::test_cluster(16, 8),
            vocab: FrameVocabulary::Linux,
            seeds: vec![seed],
            scales: vec![128],
            depths: vec![2],
            samples_per_task: 1,
            randomized_per_seed: 2,
            include_degraded: true,
            include_catalogue: false,
            catalogue_filter: None,
            representation: Representation::HierarchicalTaskList,
            latency_waves: 1,
            latency_fault_wave: 1,
        };
        let first = run_campaign(&config);
        let second = run_campaign(&config);
        prop_assert!(!first.cells.is_empty());
        prop_assert_eq!(first, second);
    }

    // Every randomized scenario's ground truth judges its own fault-free run
    // as healthy: strip the overlay and mid-tree faults and the diagnosis of
    // the bare (application-level) fault must pass its verdict.
    #[test]
    fn randomized_truths_judge_their_fault_free_runs_healthy(seed in 0u64..u64::MAX) {
        let session = Session::builder(Cluster::test_cluster(16, 8))
            .samples_per_task(1)
            .build();
        for scenario in randomized_scenarios(128, FrameVocabulary::Linux, seed, 3) {
            let mut stripped = scenario.clone();
            stripped.overlay_faults.clear();
            stripped.mid_tree_faults.clear();
            let run = session
                .run_scenario(&stripped)
                .unwrap_or_else(|e| panic!("fault-free `{}` errored: {e}", stripped.name));
            prop_assert!(
                run.verdict.passed(),
                "fault-free `{}` judged unhealthy:\n{}",
                stripped.name,
                run.verdict
            );
        }
    }
}
