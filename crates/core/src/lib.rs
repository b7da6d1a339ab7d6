//! # stat-core — the Stack Trace Analysis Tool, reproduced in Rust
//!
//! This crate is the paper's primary contribution: STAT itself.  It gathers stack
//! traces from every task of a parallel job, merges them — inside a tree-based
//! overlay network — into 2D (trace/space) and 3D (trace/space/time) call-graph
//! prefix trees, and reports the job's *process equivalence classes* so a heavyweight
//! debugger can be pointed at one representative of each behaviour instead of at
//! hundreds of thousands of processes.
//!
//! The crate also contains the three scalability lessons the paper teaches:
//!
//! 1. **Scalable startup** is delegated to the `launch` crate (LaunchMON vs. rsh vs.
//!    the BG/L system software), which prices it as a phase.
//! 2. **Hierarchical data structures**: [`taskset`] implements both the original
//!    job-wide bit vectors and the optimised subtree task lists, [`graph`] implements
//!    the prefix tree generically over them, and [`strategy`] folds everything that
//!    varies with the representation into one sealed dispatch point.
//! 3. **Scalable access to static data** is delegated to the `sbrs` crate;
//!    `stackwalk`'s `SamplingCostModel` prices its effect on the sampling phase.
//!
//! The tool is driven through one front door: [`session::Session`], a builder-style
//! API whose [`session::Session::attach`] runs sampling → local merge → single-pass
//! multi-channel TBON reduction → remap → classification as one pipeline and reports
//! per-phase metrics, and whose [`session::Session::run_scenario`] runs a catalogued
//! fault — with whatever daemon losses and mid-tree corruption it carries — through
//! that same pipeline and judges the diagnosis against the fault's ground truth.
//! The two share one gather body: `attach` is a scenario run with no faults, so a
//! fault mode, a report column or a span hook goes in one place.  The streaming
//! driver ([`streaming::StreamingSession`]) prunes its overlay and corrupts its
//! interior filters through the same functions, on both of its walks.
//!
//! ## Quick start
//!
//! ```
//! use appsim::{FrameVocabulary, RingHangApp};
//! use machine::Cluster;
//! use stat_core::prelude::*;
//!
//! // A 256-task MPI ring test in which rank 1 hangs before its send.
//! let app = RingHangApp::new(256, FrameVocabulary::Linux);
//! let session = Session::builder(Cluster::test_cluster(32, 8)).build();
//! let report = session.attach(&app).expect("the session merges cleanly");
//!
//! // The 256 tasks collapse into three behaviour classes...
//! assert_eq!(report.gather.classes.len(), 3);
//! // ...so a heavyweight debugger only needs to attach to three ranks.
//! assert_eq!(report.gather.attach_set().len(), 3);
//!
//! // The same fault from the scenario catalogue, with the last tool daemon lost
//! // mid-gather: still diagnosed, and the daemon's eight ranks reported uncovered.
//! let scenarios = appsim::scenario::catalogue(256, FrameVocabulary::Linux);
//! let degraded = scenarios.iter().find(|s| s.name == "ring_hang_daemon_loss").unwrap();
//! let run = session.run_scenario(degraded).expect("the survivors merge cleanly");
//! assert!(run.verdict.passed(), "{}", run.verdict);
//! assert_eq!((run.lost_backends, run.diagnosis.lost_ranks.len()), (1, 8));
//! ```

#![warn(rust_2018_idioms)]

pub mod daemon;
pub mod dot;
pub mod equivalence;
pub mod error;
pub mod filter;
pub mod frontend;
pub mod graph;
pub mod scenario;
pub mod serialize;
pub mod session;
pub mod strategy;
pub mod streaming;
pub mod taskset;

/// The most commonly used types, re-exported.
pub mod prelude {
    pub use crate::daemon::{DaemonContribution, StatDaemon};
    pub use crate::dot::to_dot;
    pub use crate::equivalence::{equivalence_classes, EquivalenceClass};
    pub use crate::error::{MergeChannel, StatError};
    pub use crate::filter::{RankMapFilter, StatMergeFilter};
    pub use crate::frontend::{GatherResult, MergeMetrics, Representation};
    pub use crate::graph::{GlobalPrefixTree, PrefixTree, SubtreePrefixTree};
    pub use crate::scenario::{diagnose, ScenarioRun};
    pub use crate::serialize::{
        decode_tree, encode_merged_tree, encode_tree, DecodeError, WireFrames,
    };
    pub use crate::session::{
        MergeEstimate, PhaseEstimator, PhaseTimings, Session, SessionBuilder, SessionReport,
    };
    pub use crate::strategy::{MergedTrees, RepresentationStrategy};
    pub use crate::streaming::{CanonicalTree, StreamingBuilder, StreamingSession, WaveReport};
    pub use crate::taskset::{
        format_rank_ranges, DenseBitVector, MemberIter, RankRuns, SubtreeTaskList, TaskSetOps,
    };
    pub use stackwalk::FrameDictionary;
}

pub use prelude::*;
