//! Analytic cost model for tree reductions: what a packet costs and how a
//! reduction is priced.
//!
//! The merge-time figures (4, 5 and 7) are fundamentally about *how many bytes pass
//! through which node*.  With the original representation every edge label is a bit
//! vector sized for the whole job, so packet sizes grow linearly with the total task
//! count no matter where a node sits in the tree — and the tree's logarithmic depth
//! cannot save the front end (or the I/O nodes) from linear data growth.  With the
//! hierarchical representation a node's packet only describes the tasks in its own
//! subtree, so per-node data volume is bounded by subtree size and the critical path
//! really is logarithmic.
//!
//! [`TreePayload`] is the one model of the bytes an overlay node emits, and
//! [`price_reduction`] the one entry point that turns a machine, a tree shape and
//! that payload into a critical-path estimate — the planner, the figure
//! estimators and the ablations all price through it:
//!
//! * every internal node must receive one packet from each child over its incoming
//!   link (fan-in serialises at the receiving NIC),
//! * then run its filter, whose cost is affine in the bytes received,
//! * nodes at the same level proceed in parallel,
//! * and the critical path is the sum over levels of the slowest node at that level.

use machine::cluster::Cluster;
use machine::network::{Interconnect, LinkClass};
use simkit::time::SimDuration;

use crate::topology::{Topology, TreeNodeRole, TreeShape};

/// Filter compute cost per byte of input on a 2.4 GHz reference core: merging
/// serialised prefix trees costs a few ns per byte of input on a 2008-era core
/// (the filter walks both inputs once).
const FILTER_SECS_PER_BYTE: f64 = 6.0e-9;
/// Fixed filter invocation overhead on a reference core, in microseconds.
const FILTER_BASE_MICROS: f64 = 150.0;
/// Sender-side packing cost per byte on a reference core.
const PACK_SECS_PER_BYTE: f64 = 0.5e-9;

/// Where the tree runs and how fast its hosts and links are.
struct ReductionCostModel<'a> {
    topology: &'a Topology,
    interconnect: &'a Interconnect,
    /// Link class used by leaf daemons to reach their parents.
    daemon_uplink: LinkClass,
    /// Link class used between communication processes and the front end.
    upper_link: LinkClass,
    /// Slowdown factor of the hosts running communication processes / the front end.
    comm_host_slowdown: f64,
    /// Slowdown factor of the hosts running the leaf daemons (used for their send-side
    /// packing cost).
    daemon_host_slowdown: f64,
}

/// The result of evaluating a reduction.
#[derive(Clone, Debug)]
pub struct ReductionCost {
    /// End-to-end critical-path time from "all daemons have their local result" to
    /// "the front end holds the merged result".
    pub critical_path: SimDuration,
    /// Time attributed to each internal level, root level first.
    pub per_level: Vec<SimDuration>,
    /// Bytes arriving at the front end.
    pub frontend_bytes_in: u64,
    /// Largest number of bytes received by any single node.
    pub max_node_bytes_in: u64,
    /// Total bytes crossing links (each packet counted once per hop).
    pub total_link_bytes: u64,
}

/// Price an upward reduction of `payload` over `shape` on `cluster`.
///
/// Any [`TreeShape`] can be priced, including depths the paper never measured.
/// Here a depth-4 tree beats the flat tree at 4,096 daemons, because the fan-in
/// serialising at the front end's NIC is 8 instead of 4,096:
///
/// ```
/// use machine::cluster::Cluster;
/// use tbon::cost::{price_reduction, Labels, TreePayload};
/// use tbon::topology::TreeShape;
///
/// let atlas = Cluster::atlas();
/// // Four levels of fan-out 8: 1 -> 8 -> 64 -> 512 -> 4,096.
/// let deep = TreeShape::uniform_with_depth(4_096, 8, 4);
/// assert_eq!(deep.level_widths, vec![1, 8, 64, 512, 4_096]);
/// let flat = TreeShape::flat(4_096);
///
/// // Classes saturate within one daemon's 8 tasks, so every node emits the
/// // same packet however many daemons fed it.
/// let payload = TreePayload {
///     saturation_tasks: Some(8),
///     ..TreePayload::ring_hang(32_768, 8, Labels::Subtree)
/// };
/// let deep_cost = price_reduction(&atlas, &deep, &payload);
/// let flat_cost = price_reduction(&atlas, &flat, &payload);
///
/// assert!(deep_cost.critical_path < flat_cost.critical_path);
/// // One per-level time per internal level of the deep tree.
/// assert_eq!(deep_cost.per_level.len(), 4);
/// ```
pub fn price_reduction(
    cluster: &Cluster,
    shape: &TreeShape,
    payload: &TreePayload,
) -> ReductionCost {
    let topology = Topology::build(shape.clone());
    ReductionCostModel::standard(
        &topology,
        &cluster.interconnect,
        cluster.login_host_slowdown(),
        cluster.daemon_host_slowdown(),
    )
    .reduce(&|subtree_backends| payload.bytes(subtree_backends))
}

impl<'a> ReductionCostModel<'a> {
    /// A model with link classes appropriate for the given interconnect.
    fn standard(
        topology: &'a Topology,
        interconnect: &'a Interconnect,
        comm_host_slowdown: f64,
        daemon_host_slowdown: f64,
    ) -> Self {
        ReductionCostModel {
            topology,
            interconnect,
            daemon_uplink: interconnect.daemon_uplink(),
            upper_link: interconnect.frontend_uplink(),
            comm_host_slowdown,
            daemon_host_slowdown,
        }
    }

    /// Evaluate an upward reduction where a node whose subtree contains
    /// `subtree_backends` daemons emits `packet_bytes(subtree_backends)` bytes.
    fn reduce(&self, packet_bytes: &dyn Fn(u32) -> u64) -> ReductionCost {
        let topo = self.topology;
        let n = topo.len();

        // Bytes each node sends to its parent.
        let mut bytes_out = vec![0u64; n];
        for node in topo.nodes() {
            bytes_out[node.id.0 as usize] = packet_bytes(topo.subtree_backends(node.id));
        }
        let mut per_level = Vec::new();
        let mut frontend_bytes_in = 0u64;
        let mut max_node_bytes_in = 0u64;
        let mut total_link_bytes = 0u64;

        let levels = topo.levels();
        // Internal levels, processed leaf-most first; reported root-first at the end.
        let mut level_times_bottom_up = Vec::new();
        for level in (0..levels.len().saturating_sub(1)).rev() {
            let mut worst = SimDuration::ZERO;
            for &id in &levels[level] {
                let node = topo.node(id);
                if node.role == TreeNodeRole::BackEnd {
                    continue;
                }
                let mut bytes_in = 0u64;
                let mut recv = SimDuration::ZERO;
                for &child in &node.children {
                    let child_role = topo.node(child).role;
                    let link = if child_role == TreeNodeRole::BackEnd {
                        self.daemon_uplink
                    } else {
                        self.upper_link
                    };
                    let child_bytes = bytes_out[child.0 as usize];
                    bytes_in += child_bytes;
                    recv += self.interconnect.transfer(link, child_bytes);
                    // Sender-side packing cost on the child's host.
                    let pack_slowdown = if child_role == TreeNodeRole::BackEnd {
                        self.daemon_host_slowdown
                    } else {
                        self.comm_host_slowdown
                    };
                    recv += SimDuration::from_secs(
                        child_bytes as f64 * PACK_SECS_PER_BYTE * pack_slowdown,
                    );
                }
                total_link_bytes += bytes_in;
                max_node_bytes_in = max_node_bytes_in.max(bytes_in);
                if id == topo.frontend() {
                    frontend_bytes_in = bytes_in;
                }
                let filter = (SimDuration::from_micros(FILTER_BASE_MICROS)
                    + SimDuration::from_secs(bytes_in as f64 * FILTER_SECS_PER_BYTE))
                .mul_f64(self.comm_host_slowdown);
                let node_time = recv + filter;
                worst = worst.max(node_time);
            }
            level_times_bottom_up.push(worst);
        }

        let critical_path = level_times_bottom_up.iter().copied().sum();
        level_times_bottom_up.reverse();
        per_level.extend(level_times_bottom_up);

        ReductionCost {
            critical_path,
            per_level,
            frontend_bytes_in,
            max_node_bytes_in,
            total_link_bytes,
        }
    }
}

// ---------------------------------------------------------------------------
// Wire-format v2 packet arithmetic
// ---------------------------------------------------------------------------
//
// `TreePayload` prices packets with the same arithmetic the v2 encoder uses, so
// the cost model's byte terms are fed by real encoded sizes rather than
// string-era estimates.  `stat_core::serialize` pins these helpers against the
// actual encoder in its tests.

/// Bytes an LEB128 varint takes to encode `value` (1 for values below 128,
/// up to 10 for the full 64-bit range).
pub fn varint_len(value: u64) -> u64 {
    u64::from((64 - value.leading_zeros()).max(1).div_ceil(7))
}

/// Per-node framing overhead of a v2 tree record: the parent-delta varint and
/// the global frame-id varint.  Both are one byte for small trees; the model
/// prices two bytes each so deep trees and incremental frame ids stay covered.
pub const V2_NODE_OVERHEAD: u64 = 4;

/// Bytes one node of a *dense* (job-wide) v2 task set costs when `member_tasks`
/// of `total_tasks` are present: occupied words ship as up-to-10-byte varints,
/// every empty word still costs one byte.  Linear in the job by design — this
/// is the Section V scaling problem the dense representation demonstrates.
pub fn dense_node_bytes(total_tasks: u64, member_tasks: u64) -> u64 {
    let words = total_tasks.div_ceil(64);
    let occupied = member_tasks.div_ceil(64).min(words);
    V2_NODE_OVERHEAD + occupied * 10 + (words - occupied)
}

/// Worst-case bytes one node of a *subtree* (hierarchical) v2 task set costs
/// for a subtree of `subtree_tasks`: one literal-run token plus the raw words.
/// Saturated sets run-length collapse far below this, so it is a safe upper
/// bound for planning.
pub fn subtree_node_bytes(subtree_tasks: u64) -> u64 {
    let words = subtree_tasks.div_ceil(64);
    V2_NODE_OVERHEAD + varint_len((words << 2) | 2) + words * 8
}

/// Edges of the locally merged 2D and 3D trees under the ring-hang calibration
/// every figure and the planner share (the 3D tree has more because sampling
/// over time fans the polling frames out).
const RING_HANG_EDGES: u64 = 24 + 60;
/// Bytes of incremental dictionary records (frame names the negotiated
/// dictionary did not cover) carried once per packet under wire format v2.
const FRAME_NAMES_BYTES: u64 = 420;

/// What the task set on every edge of a merged tree describes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Labels {
    /// The original representation: a bit vector sized for the whole job.
    JobWide,
    /// The hierarchical representation: only the tasks of the node's subtree.
    Subtree,
}

/// The one model of the bytes an overlay node emits: a merged prefix tree of
/// `edges` edges, each carrying a task-set label, plus the per-packet
/// dictionary records.
///
/// With [`Labels::Subtree`] the payload grows with the subtree's task count —
/// correct for pathological workloads where every rank is in its own
/// equivalence class, but the paper's whole point (Section V) is that real jobs
/// collapse into a handful of classes: once a subtree already contains one
/// representative of every class, merging more tasks adds *membership bits*,
/// not new edges.  `saturation_tasks` models that knee — past it, per-node
/// payloads stop growing with subtree size, deeper trees stop paying a depth
/// penalty for their smaller subtrees, and the depth crossover the unsaturated
/// model hides past 16M cores becomes visible.
///
/// ```
/// use tbon::cost::{Labels, TreePayload};
///
/// let payload = TreePayload {
///     saturation_tasks: Some(1 << 20), // classes saturate by 1M tasks
///     ..TreePayload::ring_hang(64 << 20, 64, Labels::Subtree) // a 67M-task job
/// };
/// // A subtree far past saturation costs the same as one at saturation...
/// assert_eq!(payload.bytes(1 << 18), payload.bytes(1 << 20));
/// // ...while a small subtree still pays proportionally to its own tasks.
/// assert!(payload.bytes(16) < payload.bytes(1 << 18));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TreePayload {
    /// Total tasks in the job (caps the subtree population).
    pub tasks: u64,
    /// Tasks represented by each leaf daemon.
    pub tasks_per_daemon: u64,
    /// Edges in the serialised 2D + 3D prefix trees.
    pub edges: u64,
    /// What each edge label describes.
    pub labels: Labels,
    /// Task count past which the class population stops growing: subtrees
    /// holding more tasks than this emit packets no larger than a subtree at
    /// exactly the knee.  `None` is the unsaturated worst case.  Job-wide labels
    /// are sized by the job whatever the classes, so the knee does not apply.
    pub saturation_tasks: Option<u64>,
}

impl TreePayload {
    /// The ring-hang calibration the figure generators and the planner share,
    /// for a job of `tasks` tasks spread `tasks_per_daemon` to a daemon.
    pub fn ring_hang(tasks: u64, tasks_per_daemon: u64, labels: Labels) -> Self {
        TreePayload {
            tasks,
            tasks_per_daemon,
            edges: RING_HANG_EDGES,
            labels,
            saturation_tasks: None,
        }
    }

    /// Packet bytes emitted by a node whose subtree holds `subtree_backends`
    /// leaf daemons, priced with the arithmetic the v2 wire format actually
    /// produces ([`dense_node_bytes`] / [`subtree_node_bytes`]), so estimates
    /// and real encoded sizes cannot drift.
    pub fn bytes(&self, subtree_backends: u32) -> u64 {
        let label_bytes = match self.labels {
            Labels::JobWide => dense_node_bytes(self.tasks, self.tasks),
            Labels::Subtree => {
                let subtree_tasks =
                    (subtree_backends as u64 * self.tasks_per_daemon).min(self.tasks);
                subtree_node_bytes(subtree_tasks.min(self.saturation_tasks.unwrap_or(u64::MAX)))
            }
        };
        self.edges * label_bytes + FRAME_NAMES_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::cluster::BglMode;
    use machine::placement::PlacementPlan;

    fn model<'a>(topo: &'a Topology, net: &'a Interconnect) -> ReductionCostModel<'a> {
        ReductionCostModel::standard(topo, net, 1.0, 1.0)
    }

    #[test]
    fn constant_payloads_favor_deeper_trees_at_scale() {
        let net = Interconnect::atlas();
        let per_leaf = |_subtree: u32| 64 * 1024u64;

        let flat = Topology::build(TreeShape::flat(512));
        let deep = Topology::build(TreeShape::two_deep(512, 23));
        let flat_cost = model(&flat, &net).reduce(&per_leaf);
        let deep_cost = model(&deep, &net).reduce(&per_leaf);
        // The flat front end absorbs 512 packets serially; the 2-deep tree spreads the
        // fan-in across 23 comm processes working in parallel.
        assert!(flat_cost.critical_path > deep_cost.critical_path);
        assert_eq!(flat_cost.frontend_bytes_in, 512 * 64 * 1024);
        assert_eq!(deep_cost.frontend_bytes_in, 23 * 64 * 1024);
    }

    #[test]
    fn global_vs_subtree_payloads_change_the_scaling_shape() {
        // This is the Section V mechanism in miniature: with payloads proportional to
        // the *whole job*, doubling the job doubles the merge time even on a 2-deep
        // tree; with payloads proportional to the subtree, the critical path grows far
        // more slowly.
        let net = Interconnect::bluegene_l();
        let bytes_per_task = 32u64;

        let time_for = |daemons: u32, global: bool| {
            let plan_tasks = daemons as u64 * 64;
            let topo = Topology::build(TreeShape::two_deep(daemons, 28));
            let m = model(&topo, &net);
            let cost = m.reduce(&|subtree| {
                if global {
                    bytes_per_task * plan_tasks
                } else {
                    bytes_per_task * subtree as u64 * 64
                }
            });
            cost.critical_path.as_secs()
        };

        let global_growth = time_for(1024, true) / time_for(128, true);
        let hier_growth = time_for(1024, false) / time_for(128, false);
        assert!(
            global_growth > 6.0,
            "global bit vectors should scale ~linearly, growth={global_growth}"
        );
        assert!(
            hier_growth < global_growth / 1.5,
            "hierarchical payloads should scale much better: {hier_growth} vs {global_growth}"
        );
    }

    #[test]
    fn per_level_times_sum_to_critical_path() {
        let net = Interconnect::atlas();
        let topo = Topology::build(TreeShape::three_deep(128, 4, 16));
        let cost = model(&topo, &net).reduce(&|subtree| subtree as u64 * 100);
        let sum: SimDuration = cost.per_level.iter().copied().sum();
        assert_eq!(sum, cost.critical_path);
        assert_eq!(cost.per_level.len(), 3);
    }

    #[test]
    fn slower_hosts_increase_filter_time() {
        let net = Interconnect::bluegene_l();
        let topo = Topology::build(TreeShape::two_deep(256, 16));
        let fast =
            ReductionCostModel::standard(&topo, &net, 1.0, 1.0).reduce(&|s| s as u64 * 1_000);
        let slow =
            ReductionCostModel::standard(&topo, &net, 3.4, 3.4).reduce(&|s| s as u64 * 1_000);
        assert!(slow.critical_path > fast.critical_path);
    }

    #[test]
    fn v2_packet_arithmetic_matches_the_wire_format() {
        assert_eq!(varint_len(0), 1);
        assert_eq!(varint_len(127), 1);
        assert_eq!(varint_len(128), 2);
        assert_eq!(varint_len(u64::MAX), 10);
        // A dense node pays for every word of the job: one byte per empty word,
        // up to ten per occupied word.
        assert_eq!(
            dense_node_bytes(8_192, 128),
            V2_NODE_OVERHEAD + 2 * 10 + 126
        );
        // A subtree node only pays for its own tasks.
        assert!(subtree_node_bytes(128) < dense_node_bytes(8_192, 128) / 5);
        // Both grow monotonically with what they must describe.
        assert!(dense_node_bytes(8_192, 512) > dense_node_bytes(8_192, 64));
        assert!(subtree_node_bytes(4_096) > subtree_node_bytes(64));
    }

    #[test]
    fn saturated_payloads_flatten_past_the_knee() {
        let p = TreePayload {
            saturation_tasks: Some(1 << 20),
            ..TreePayload::ring_hang(1 << 26, 64, Labels::Subtree)
        };
        // Below the knee the payload tracks the subtree linearly...
        assert!(p.bytes(64) < p.bytes(512));
        assert!(p.bytes(512) < p.bytes(4_096));
        // ...and above it every subtree emits the same saturated packet.
        let at_knee = p.bytes((1 << 20) / 64);
        assert_eq!(p.bytes(1 << 18), at_knee);
        assert_eq!(p.bytes(1 << 20), at_knee);
        // The job-size cap still applies when there is no knee.
        let small = TreePayload::ring_hang(1_024, 64, Labels::Subtree);
        assert_eq!(small.bytes(1 << 18), small.bytes(16));
        // Job-wide labels are sized by the job, wherever the node sits.
        let dense = TreePayload {
            labels: Labels::JobWide,
            ..p
        };
        assert_eq!(dense.bytes(1), dense.bytes(1 << 20));
        assert_eq!(
            dense.bytes(1),
            RING_HANG_EDGES * dense_node_bytes(1 << 26, 1 << 26) + FRAME_NAMES_BYTES
        );
    }

    #[test]
    fn saturation_reveals_the_depth_crossover() {
        // Under the unsaturated model the flat tree's frontend fan-in is painful
        // but its single level keeps the critical path competitive at moderate
        // scale; under saturation constant-size packets make fan-in the whole
        // story and depth wins decisively — the `price_reduction` doctest physics.
        let bgl = Cluster::bluegene_l(BglMode::VirtualNode);
        let daemons = 8_192u32;
        let p = TreePayload {
            saturation_tasks: Some(4_096),
            ..TreePayload::ring_hang(daemons as u64 * 128, 128, Labels::Subtree)
        };
        let shallow = price_reduction(&bgl, &TreeShape::two_deep(daemons, 64), &p);
        let deep = price_reduction(&bgl, &TreeShape::uniform_with_depth(daemons, 10, 4), &p);
        assert!(deep.critical_path < shallow.critical_path);
    }

    #[test]
    fn modelled_numbers_are_pinned_to_the_pre_refactor_values() {
        // Recorded at the parent commit (9759d71) through the three separate
        // pricing paths this module replaced: `PhaseEstimator::merge_estimate`
        // for both label kinds, and `ClassSaturatedPayload` over the scaled
        // placement shapes.  "Numbers unchanged" is this test, not a claim.
        let vn = Cluster::bluegene_l(BglMode::VirtualNode);
        let job = vn.job(212_992);
        let two_deep = TreeShape::for_placement(&PlacementPlan::for_job(&vn, 212_992), 2);
        let price = |labels| {
            let payload = TreePayload::ring_hang(job.tasks, job.tasks_per_daemon as u64, labels);
            let cost = price_reduction(&vn, &two_deep, &payload);
            (cost.critical_path.as_nanos(), cost.frontend_bytes_in)
        };
        assert_eq!(price(Labels::JobWide), (5_028_302_228, 78_295_728));
        assert_eq!(price(Labels::Subtree), (53_984_588, 2_262_288));

        let tasks = 33_554_432;
        let plan = PlacementPlan::for_scaled_job(&vn, tasks);
        let saturated = TreePayload {
            saturation_tasks: Some(1 << 20),
            ..TreePayload::ring_hang(tasks, plan.tasks_per_daemon as u64, Labels::Subtree)
        };
        for (depth, nanos, frontend) in [
            (2, 7_065_546_704, 352_794_624),
            (3, 3_380_310_080, 44_044_224),
        ] {
            let cost = price_reduction(&vn, &TreeShape::for_placement(&plan, depth), &saturated);
            assert_eq!(
                (cost.critical_path.as_nanos(), cost.frontend_bytes_in),
                (nanos, frontend),
                "saturated payload, placement {depth}-deep"
            );
        }
    }

    #[test]
    fn standard_model_uses_machine_appropriate_links() {
        let bgl = Cluster::bluegene_l(machine::cluster::BglMode::CoProcessor);
        let topo = Topology::build(TreeShape::two_deep(64, 8));
        let m = ReductionCostModel::standard(
            &topo,
            &bgl.interconnect,
            bgl.login_host_slowdown(),
            bgl.daemon_host_slowdown(),
        );
        assert_eq!(m.daemon_uplink, LinkClass::BglFunctional);
    }
}
