//! The fault-campaign artifacts: `results/CAMPAIGN.md` (the verdict-stability
//! surface plus the class-saturated depth-crossover study) and
//! `results/campaign_surface.csv` (one row per campaign cell).
//!
//! Everything here is deterministic — the campaign grid, the seeds, and the cost
//! model carry no wall-clock or host dependence — so the committed artifacts
//! reproduce bit-for-bit with:
//!
//! ```text
//! cargo run --release -p stat-bench -- campaign-surface
//! ```
//!
//! `STATBENCH_FAST=1` shrinks the grid (fewer seeds, one scale) for smoke runs;
//! the committed artifacts come from the full grid.

use std::fs;
use std::path::Path;

use appsim::FrameVocabulary;
use machine::cluster::{BglMode, Cluster};
use simkit::stats::SeriesTable;
use stat_core::prelude::Representation;
use statbench::campaign::{run_campaign, CampaignConfig};
use statbench::{out_line, sweep_tree_shapes, sweep_tree_shapes_saturated};

/// Minimum-cost series label at one scale of a tree-shape sweep.
fn winner(table: &SeriesTable, tasks: u64) -> (String, f64) {
    table
        .series_names()
        .iter()
        .filter_map(|name| table.value_at(name, tasks).map(|v| (name.to_string(), v)))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .expect("the sweep emitted rows at this scale")
}

/// Run the campaign grid and the depth-crossover study, write both artifacts
/// under `results/`, and return the markdown report.
pub(crate) fn campaign_surface() -> String {
    let fast = crate::fast_mode();
    let dir = Path::new("results");
    fs::create_dir_all(dir).expect("create results directory");

    // ---- the campaign grid -----------------------------------------------------
    let config = CampaignConfig {
        cluster: Cluster::test_cluster(512, 8),
        vocab: FrameVocabulary::BlueGeneL,
        seeds: if fast { vec![1] } else { vec![1, 2, 3] },
        scales: if fast {
            vec![1_024]
        } else {
            vec![1_024, 4_096]
        },
        depths: vec![2, 3],
        samples_per_task: 2,
        randomized_per_seed: 2,
        include_degraded: true,
        include_catalogue: true,
        catalogue_filter: None,
        representation: Representation::HierarchicalTaskList,
        latency_waves: 4,
        latency_fault_wave: 2,
    };
    let surface = run_campaign(&config);

    let csv_path = dir.join("campaign_surface.csv");
    fs::write(&csv_path, surface.to_csv()).expect("write campaign CSV");
    eprintln!("wrote {}", csv_path.display());

    // ---- the saturated depth-crossover study ------------------------------------
    let cluster = Cluster::bluegene_l(BglMode::VirtualNode);
    let knee = 4_194_304u64;
    let scales = [4_194_304u64, 16_777_216, 33_554_432, 67_108_864];
    let plain = sweep_tree_shapes(&cluster, &scales);
    let saturated = sweep_tree_shapes_saturated(&cluster, &scales, knee);

    let mut crossover = String::new();
    out_line!(
        crossover,
        "| tasks | unsaturated winner | predicted (s) | saturated winner | predicted (s) |"
    );
    out_line!(crossover, "|---|---|---|---|---|");
    for &tasks in &scales {
        let (p_label, p_cost) = winner(&plain, tasks);
        let (s_label, s_cost) = winner(&saturated, tasks);
        out_line!(
            crossover,
            "| {tasks} | {p_label} | {p_cost:.3} | {s_label} | {s_cost:.3} |"
        );
    }

    // ---- the report --------------------------------------------------------------
    let mut md = String::new();
    out_line!(md, "# Randomized fault campaigns\n");
    out_line!(
        md,
        "A campaign sweeps the deterministic fault-scenario catalogue *and* \
         seed-derived randomized scenarios (random fault ranks and flavors, random \
         daemon loss, random mid-tree filter corruption) across a grid of seeds × \
         scales × overlay depths × healthy/degraded overlays.  Every cell runs \
         through the real `Session::run_scenario` pipeline and is judged \
         against its machine-checkable ground truth; mid-tree corruption cells are \
         judged **inverted** — they pass only when the poison is *detected* (a \
         failed verdict or a typed decode error), never when the poisoned diagnosis \
         sails through clean.\n"
    );
    out_line!(md, "## Seed protocol\n");
    out_line!(
        md,
        "Randomized scenarios come from `appsim::randomized_scenarios(tasks, vocab, \
         seed, count)`: draw `i` forks a child RNG from the campaign seed \
         (`DeterministicRng::new(seed).fork(i)`), so scenario `i` is a pure function \
         of `(tasks, vocab, seed, i)` — prefix-stable, platform-independent, and \
         independent of how many scenarios the batch requests after it.  The same \
         `CampaignConfig` therefore reproduces the same `StabilitySurface` cell for \
         cell (a property pinned by `tests/campaigns.rs`).  This surface used seeds \
         {:?} over scales {:?}, depths {:?}, {} samples/task, {} randomized \
         scenarios per seed.\n",
        config.seeds,
        config.scales,
        config.depths,
        config.samples_per_task,
        config.randomized_per_seed
    );
    out_line!(md, "## Reproducing a cell\n");
    out_line!(
        md,
        "Each row of [`campaign_surface.csv`](campaign_surface.csv) names its \
         scenario, seed, scale, depth and overlay.  To re-run one cell: regenerate \
         the scenario (`randomized_scenarios(tasks, vocab, seed, i + 1)[i]`, or \
         `catalogue(tasks, vocab)` for seedless rows; the draw index `i` is the \
         number in the scenario name, e.g. `rand_stall_s2_0` is seed 2, draw 0), \
         re-derive the degraded variant with `with_overlay(BackendFromEnd(0))` if \
         the row says `degraded=true` and the name has no `_degraded` suffix, then \
         run it through `Session::builder(cluster).topology(TreeShape::for_placement(\
         &PlacementPlan::for_job(&cluster, tasks), depth)).samples_per_task(samples)\
         .build().run_scenario(..)`. \
         `cargo run --example campaign_runner -- <tasks>` replays a whole small \
         grid and prints every cell.\n"
    );
    md.push_str(&surface.to_markdown());
    out_line!(md, "## Depth crossover under class-saturated payloads\n");
    out_line!(
        md,
        "Under the unsaturated worst-case payload model, packets grow with subtree \
         task counts forever and the flat(ter) tree wins at every scale the front \
         end can still fan to.  With the class-saturated model (knee at {knee} \
         tasks: past the knee, a subtree's packet is bounded by its equivalence-\
         class population, not its task count), per-node ingest stops growing and \
         the per-level latency cost of depth is finally amortised — deep trees \
         overtake the flat-world winner past 16M simulated cores:\n"
    );
    md.push_str(&crossover);
    out_line!(
        md,
        "\nThe crossover is inside the swept range: at 16M tasks the saturated \
         model still agrees with the flat-world pick, at 33M it flips to a deep \
         tree (`tests` pin this in `statbench::sweep` and `tbon::planner`).  \
         Regenerate with `cargo run --release -p stat-bench -- campaign-surface`."
    );

    let md_path = dir.join("CAMPAIGN.md");
    fs::write(&md_path, &md).expect("write CAMPAIGN.md");
    eprintln!("wrote {}", md_path.display());
    md
}
