//! # statbench — tool emulation for scalability studies without an application
//!
//! The paper's prior work (reference \[9\], "Benchmarking the Stack Trace Analysis Tool
//! for BlueGene/L", ParCo 2007) built **STATBench**, an emulation infrastructure that
//! lets the STAT developers evaluate the tool's scalability *without* having to run —
//! or even possess — a full-scale application: emulated daemons generate synthetic
//! stack traces with a controllable shape (depth, branching, number of equivalence
//! classes, tasks per daemon) and drive the real merging machinery with them.
//!
//! This crate reproduces that infrastructure on top of the reproduction's own real
//! machinery:
//!
//! * [`generator`] — parameterised synthetic trace generation (the knob set of the
//!   STATBench paper: trace depth, branch width, equivalence-class count, and how
//!   classes are spread over tasks);
//! * [`sweep`] — scalability sweeps over daemon counts and trace shapes that produce
//!   the same [`simkit::stats::SeriesTable`]s the figure generators use;
//! * [`campaign`] — randomized fault campaigns: the scenario catalogue plus
//!   seed-derived randomized faults swept over seeds × scales × overlay depths ×
//!   degraded overlays, accumulated into a verdict [`campaign::StabilitySurface`]
//!   (pass rate, first-flip frontier, check-level failure histogram).
//!
//! There is no emulator layer between these and the tool: an emulated job is a
//! [`SyntheticApp`] attached through a plain `stat_core` `Session` over the
//! placement-rule overlay, so the measured quantities — packet sizes, filter work,
//! tree shapes, wall time — come from the real local-merge, serialisation and
//! TBON-merge code, and the emulation cannot drift from the tool:
//!
//! ```
//! use machine::{Cluster, PlacementPlan};
//! use stat_core::prelude::*;
//! use statbench::{SyntheticApp, TraceShape};
//! use tbon::topology::TreeShape;
//!
//! let (cluster, tasks) = (Cluster::test_cluster(64, 8), 512);
//! let shape = TraceShape { classes: 6, ..TraceShape::typical() };
//! let report = Session::builder(cluster.clone())
//!     .topology(TreeShape::for_placement(&PlacementPlan::for_job(&cluster, tasks), 3))
//!     .build()
//!     .attach(&SyntheticApp::new(tasks, shape))
//!     .expect("the emulation merges cleanly");
//! assert_eq!(report.gather.classes.len(), 6);
//! ```
//!
//! STATBench matters for the reproduction because it is how the original authors
//! explored the regime *between* what they could run interactively and the full
//! machine — exactly the regime this reproduction lives in.

#![warn(rust_2018_idioms)]

/// `writeln!` into a report `String` without a `Result` to discard (appending
/// to a `String` cannot fail; the per-line `format!` allocation is noise next
/// to running a campaign).
#[macro_export]
macro_rules! out_line {
    ($out:expr) => {
        $out.push('\n')
    };
    ($out:expr, $($arg:tt)*) => {{
        $out.push_str(&format!($($arg)*));
        $out.push('\n');
    }};
}

pub mod campaign;
pub mod generator;
pub mod sweep;

pub use campaign::{
    run_campaign, stable_wave, CampaignCell, CampaignConfig, FlipFrontier, StabilitySurface,
};
pub use generator::{SyntheticApp, TraceShape};
pub use sweep::{
    sweep_daemon_counts, sweep_equivalence_classes, sweep_tree_shapes, sweep_tree_shapes_saturated,
    SweepConfig,
};
