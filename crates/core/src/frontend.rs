//! Front-end artifacts: the representation choice, merge metrics and final result.
//!
//! The front end drives the session: it owns the overlay network, broadcasts control
//! requests downward, and receives exactly one merged tree back per channel
//! regardless of how many daemons exist.  The *machinery* that does this lives in
//! [`crate::session::Session`] (the pipeline) and [`crate::strategy`] (the
//! per-representation dispatch); this module defines what the front end produces —
//! [`GatherResult`] — and the byte-flow accounting — [`MergeMetrics`] — that the
//! paper's Section V figures are built from.

use std::time::Duration;

use stackwalk::FrameTable;
use tbon::network::ReductionOutcome;

use crate::dot::to_dot;
use crate::equivalence::EquivalenceClass;
use crate::graph::GlobalPrefixTree;

/// Which task-set representation a session uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Representation {
    /// The original job-wide bit vectors.
    GlobalBitVector,
    /// The optimised hierarchical (subtree) task lists with a front-end remap.
    HierarchicalTaskList,
}

impl Representation {
    /// Series label used in Figure 7.
    pub fn label(self) -> &'static str {
        match self {
            Representation::GlobalBitVector => "original bit vector",
            Representation::HierarchicalTaskList => "optimized bit vector",
        }
    }
}

/// Byte-flow and timing metrics of one merge, combining every channel (2D tree,
/// 3D tree and — for the hierarchical representation — the rank map) that rode the
/// overlay.
#[derive(Clone, Debug, Default)]
pub struct MergeMetrics {
    /// Elapsed wall-clock time of the overlay reduction walk(s).
    pub merge_wall: Duration,
    /// Cumulative time spent inside reduction filters, summed across channels and
    /// tree nodes.  Filter invocations run concurrently under the default
    /// level-parallel execution, so this CPU-style total can exceed `merge_wall`.
    /// Only filters that ran count: a 2D tree that is the 3D tree merges once.
    pub filter_wall: Duration,
    /// Wall-clock time of the front-end remap step (zero for the global
    /// representation, which needs none).
    pub remap_wall: Duration,
    /// Bytes received by the front end across all channels.
    pub frontend_bytes_in: u64,
    /// Largest number of bytes any single tree node received on one channel.
    pub max_node_bytes_in: u64,
    /// Total bytes that crossed overlay links.
    pub total_link_bytes: u64,
    /// Filter invocations executed across all channels (only those that ran).
    pub filter_invocations: usize,
    /// Bottom-up level walks of the overlay that were executed, counted once per
    /// [`MergeMetrics::absorb_walk`] call.  The single-pass session pipeline invokes
    /// the network once per gather however many channels it merges, so this reads 1;
    /// a pipeline that fell back to per-channel reductions would accumulate one per
    /// channel.
    pub tree_walks: usize,
}

impl MergeMetrics {
    /// Fold one overlay walk's per-channel reduction accounting into the totals.
    ///
    /// `elapsed` is the measured wall-clock time of the walk.  Each call counts as
    /// one walk of the overlay — the session calls this exactly once per gather.
    pub fn absorb_walk(&mut self, outcomes: &[ReductionOutcome], elapsed: Duration) {
        self.tree_walks += 1;
        self.merge_wall += elapsed;
        for outcome in outcomes {
            self.filter_wall += outcome.filter_time;
            self.frontend_bytes_in += outcome.frontend_bytes_in;
            self.max_node_bytes_in = self.max_node_bytes_in.max(outcome.max_node_bytes_in);
            self.total_link_bytes += outcome.total_link_bytes;
            self.filter_invocations += outcome.filter_invocations;
        }
    }
}

/// The merged result as the user sees it.
#[derive(Clone, Debug)]
pub struct GatherResult {
    /// The job-wide 2D (trace/space) tree, in MPI rank order.
    pub tree_2d: GlobalPrefixTree,
    /// The job-wide 3D (trace/space/time) tree, in MPI rank order.
    pub tree_3d: GlobalPrefixTree,
    /// Frame names referenced by the trees.
    pub frames: FrameTable,
    /// Behaviour classes extracted from the 3D tree.
    pub classes: Vec<EquivalenceClass>,
    /// Byte-flow and timing metrics.
    pub metrics: MergeMetrics,
}

impl GatherResult {
    /// Render the 3D tree as DOT (the Figure 1 reproduction).
    pub fn to_dot(&self) -> String {
        to_dot(&self.tree_3d, &self.frames)
    }

    /// The ranks a heavyweight debugger should attach to: one representative per
    /// class — the "reduce the problem search space to a manageable subset of
    /// tasks" step of the paper's petascale debugging strategy.  Ascending, and a
    /// rank that represents several classes is listed once.
    pub fn attach_set(&self) -> Vec<u64> {
        let mut reps: Vec<u64> = self
            .classes
            .iter()
            .filter_map(EquivalenceClass::representative)
            .collect();
        reps.sort_unstable();
        reps.dedup();
        reps
    }
}
