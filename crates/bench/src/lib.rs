//! # stat-bench — figure regenerators and benchmark harnesses
//!
//! One function per figure of the paper's evaluation, each returning a
//! [`simkit::stats::SeriesTable`] whose rows are the same series the paper plots.
//! The one binary, `stat_figures`, looks its subcommands up in [`EXPERIMENTS`] and
//! prints the table asked for (`all` writes every figure under `results/`), and
//! the Criterion benches in `benches/` measure the real data structures and
//! filters that the small-scale points of the figures execute.
//!
//! Absolute numbers are not expected to match the 2008 hardware; what the harness
//! checks — and what EXPERIMENTS.md records — is the *shape*: which configuration
//! wins, by roughly what factor, and where failures and crossovers occur.

#![warn(rust_2018_idioms)]

pub mod ablations;
mod campaign_surface;
pub mod figures;

/// True when the `STATBENCH_FAST` environment variable is set (to anything but
/// `0` or the empty string): the figure generators shrink their largest scales so
/// the unit-test suite fits in CI time instead of re-running the full 212,992-task
/// campaign.  `results/BENCH_merge.md` records the suite wall time both ways.
pub fn fast_mode() -> bool {
    std::env::var("STATBENCH_FAST")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// `full` normally, `fast` under [`fast_mode`] — the one-line knob the figure
/// generators scale themselves with.
pub fn scaled(full: u64, fast: u64) -> u64 {
    if fast_mode() {
        fast
    } else {
        full
    }
}

pub use figures::{
    fig01_prefix_tree, fig02_startup_atlas, fig03_startup_bgl, fig04_merge_atlas, fig05_merge_bgl,
    fig06_bitvector_demo, fig07_merge_optimized, fig08_sampling_atlas, fig09_sampling_bgl,
    fig10_sampling_sbrs,
};

pub use ablations::{ablation_bitvector, ablation_proctable, ablation_threads, ablation_topology};
use campaign_surface::campaign_surface;

/// One subcommand of the `stat_figures` binary: its name, whether `all`
/// regenerates it (into `results/<name>.txt`), and the generator of its text.
pub type Experiment = (&'static str, bool, fn() -> String);

/// Every experiment the harness can regenerate.  The figures and ablations are
/// what `all` loops over; the three longer studies run by name only.
pub const EXPERIMENTS: &[Experiment] = &[
    ("fig01_prefix_tree", true, || {
        let (dot, summary) = fig01_prefix_tree(1_024);
        format!("{summary}\n{dot}")
    }),
    ("fig02_startup_atlas", true, || {
        fig02_startup_atlas().to_string()
    }),
    ("fig03_startup_bgl", true, || {
        fig03_startup_bgl().to_string()
    }),
    ("fig04_merge_atlas", true, || {
        fig04_merge_atlas().to_string()
    }),
    ("fig05_merge_bgl", true, || fig05_merge_bgl().to_string()),
    ("fig06_bitvector_demo", true, || {
        fig06_bitvector_demo().to_string()
    }),
    ("fig07_merge_optimized", true, || {
        fig07_merge_optimized().to_string()
    }),
    ("fig08_sampling_atlas", true, || {
        fig08_sampling_atlas().to_string()
    }),
    ("fig09_sampling_bgl", true, || {
        fig09_sampling_bgl().to_string()
    }),
    ("fig10_sampling_sbrs", true, || {
        fig10_sampling_sbrs().to_string()
    }),
    ("ablation_topology", true, || {
        ablation_topology(65_536).to_string()
    }),
    ("ablation_bitvector", true, || {
        ablation_bitvector().to_string()
    }),
    ("ablation_proctable", true, || {
        ablation_proctable().to_string()
    }),
    ("ablation_threads", true, || ablation_threads().to_string()),
    ("campaign-surface", false, campaign_surface),
    ("statbench-sweep", false, statbench_sweep),
    ("statbench-classes", false, statbench_classes),
];

/// STATBench-style emulation sweeps: scaling over daemon counts and stress over
/// equivalence-class counts, with real merges behind synthetic traces — plus the
/// fan-in × depth tree-shape sweep the planner runs out past a million cores.
fn statbench_sweep() -> String {
    use machine::cluster::{BglMode, Cluster};
    let config = statbench::SweepConfig::new(Cluster::test_cluster(1_024, 8));
    let scaling = statbench::sweep_daemon_counts(&config, &[512, 1_024, 2_048, 4_096, 8_192])
        .expect("emulated jobs merge cleanly");
    let classes = statbench::sweep_equivalence_classes(&config, 4_096, &[1, 4, 16, 64, 256])
        .expect("emulated jobs merge cleanly");
    // The cost-model sweep: the paper's measured scales, the 208K headline point,
    // and the extrapolated machine out to 16M simulated cores.
    let shapes = statbench::sweep_tree_shapes(
        &Cluster::bluegene_l(BglMode::VirtualNode),
        &[65_536, 212_992, 1_048_576, 4_194_304, 16_777_216],
    );
    format!("{scaling}\n{classes}\n{shapes}")
}

/// STATBench class-count stress sweep at a fixed job size (companion to
/// `statbench-sweep`, which sweeps the job size instead).
fn statbench_classes() -> String {
    let config = statbench::SweepConfig::new(machine::Cluster::test_cluster(1_024, 8));
    statbench::sweep_equivalence_classes(&config, 4_096, &[1, 4, 16, 64, 256, 1_024])
        .expect("emulated jobs merge cleanly")
        .to_string()
}
