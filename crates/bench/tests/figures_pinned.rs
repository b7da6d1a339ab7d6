//! Every figure and ablation `stat_figures all` regenerates is pinned in fast
//! mode: its text must equal `tests/golden/<name>.txt`, which is a copy of what
//! `STATBENCH_FAST=1 stat_figures all` writes to `results/<name>.txt`.  A change
//! that moves a modelled series on purpose copies the new files over the
//! goldens and says why.
//!
//! One output is timed on the host rather than modelled, so it is not
//! compared: `ablation_proctable` (a table of walls) is skipped by name.

use std::path::Path;

/// Wall-clock output: every experiment but this one is deterministic.
const TIMED: &str = "ablation_proctable";

#[test]
fn fast_figures_match_their_goldens() {
    std::env::set_var("STATBENCH_FAST", "1");
    let golden = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden");
    let pinned = stat_bench::EXPERIMENTS
        .iter()
        .filter(|(name, in_all, _)| *in_all && *name != TIMED);
    for (name, _, generate) in pinned {
        let path = golden.join(format!("{name}.txt"));
        let want =
            std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
        assert_eq!(generate(), want, "{name}");
    }
}
