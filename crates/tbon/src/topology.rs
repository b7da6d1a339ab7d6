//! Tree shapes and balanced-tree construction.
//!
//! The paper tests three families of tree (Section III):
//!
//! * **1-deep (flat)** — the front end connects directly to every daemon;
//! * **2-deep** — one layer of communication processes; the fan-out from the front
//!   end is `sqrt(#daemons)`, capped at 28 on BG/L because communication processes
//!   can only live on the 14 dual-processor login nodes;
//! * **3-deep** — two layers; the front end fans out to 4 processes, the next level
//!   uses 16 or 24 processes depending on job scale.
//!
//! Those three were once a closed enum.  The paper's real question — *what shape
//! keeps the merge sub-second as core counts grow past 208K toward millions?* —
//! needs arbitrary shapes, so the family enum is gone: a [`TreeShape`] describes a
//! reduction tree of any depth (explicit per-level widths, or a uniform fan-in),
//! and the paper's families are merely constructors ([`TreeShape::flat`],
//! [`TreeShape::two_deep`], [`TreeShape::balanced`]; the placement rule
//! [`TreeShape::for_placement`] gives the 3-deep shape at depth 3).
//! [`Topology::build`] numbers a shape's endpoints level by level, balanced so that
//! every parent at a level has child counts differing by at most one: each node's
//! children are one contiguous run of the level below, so a [`Topology`] is its
//! level widths and a [`TreeNode`] is computed on demand, not stored.
//! [`crate::planner::TopologyPlanner`] searches candidate shapes with the
//! reduction cost model.

use std::ops::Range;

use machine::placement::PlacementPlan;

use crate::packet::EndpointId;

/// An arbitrary-depth description of a reduction tree: the width of every level
/// from the front end (width 1) down to the back-end daemons.
///
/// Construct one with the paper's family constructors ([`flat`](TreeShape::flat),
/// [`two_deep`](TreeShape::two_deep)), with the generalised rules
/// ([`balanced`](TreeShape::balanced), [`uniform_with_depth`](TreeShape::uniform_with_depth),
/// [`for_placement`](TreeShape::for_placement)) or from explicit widths
/// ([`from_level_widths`](TreeShape::from_level_widths)).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct TreeShape {
    /// Widths of each level, root first.  `level_widths[0]` is always 1 (the front
    /// end) and `level_widths.last()` is the number of back-end daemons.  Widths are
    /// non-decreasing from root to leaves.
    pub level_widths: Vec<u32>,
}

impl TreeShape {
    /// A shape from explicit level widths, sanitised: the root level is forced to
    /// width 1, the final width (the back-end daemon count) is authoritative, and
    /// interior widths are raised to at least 1, capped at the daemon count, and
    /// made non-decreasing from the root down (a level narrower than its parent
    /// level would leave parents childless, which no reduction tree can use).
    pub fn from_level_widths(widths: Vec<u32>) -> Self {
        if widths.len() <= 1 {
            return TreeShape {
                level_widths: vec![1, 1],
            };
        }
        let backends = widths.last().copied().unwrap_or(1).max(1);
        let mut level_widths = Vec::with_capacity(widths.len());
        level_widths.push(1u32);
        let mut floor = 1u32;
        for &w in &widths[1..widths.len() - 1] {
            floor = w.max(floor).min(backends).max(1);
            level_widths.push(floor);
        }
        level_widths.push(backends);
        TreeShape { level_widths }
    }

    /// A flat 1-to-N shape ("1-deep").
    pub fn flat(backends: u32) -> Self {
        TreeShape {
            level_widths: vec![1, backends.max(1)],
        }
    }

    /// A 2-deep shape with an explicit number of communication processes.
    pub fn two_deep(backends: u32, comm_processes: u32) -> Self {
        let backends = backends.max(1);
        let comm = comm_processes.clamp(1, backends);
        TreeShape {
            level_widths: vec![1, comm, backends],
        }
    }

    /// The paper's rule for a balanced `depth`-deep tree: the maximum fan-out is the
    /// `depth`-th root of the number of daemons (Section V-A), applied at any depth
    /// the caller asks for (clamped to 1..=8).
    pub fn balanced(backends: u32, depth: u32) -> Self {
        let backends = backends.max(1);
        let depth = depth.clamp(1, 8);
        if depth == 1 {
            return TreeShape::flat(backends);
        }
        // The smallest fan-out whose `depth`-th power reaches `backends`.  The float
        // root only seeds the search: `1.0 / 5.0` is inexact, so its `ceil` alone
        // overshoots every exact fifth power from 5^5 on.
        let mut fanout = ((backends as f64).powf(1.0 / depth as f64) as u64)
            .saturating_sub(1)
            .max(1);
        while fanout.saturating_pow(depth) < backends as u64 {
            fanout += 1;
        }
        let mut widths = vec![1u32];
        let mut width = 1u64;
        for _ in 1..depth {
            width = (width * fanout).min(backends as u64);
            widths.push(width as u32);
        }
        widths.push(backends);
        TreeShape {
            level_widths: widths,
        }
    }

    /// A shape of exactly `depth` edges whose upper levels grow geometrically by
    /// `fan_in`; the leaf level is pinned to `backends`, so the last fan-out absorbs
    /// whatever the chosen fan-in cannot reach.  This is the candidate family the
    /// fan-in × depth sweeps and the planner enumerate.
    pub fn uniform_with_depth(backends: u32, fan_in: u32, depth: u32) -> Self {
        let backends = backends.max(1);
        let fan_in = fan_in.max(2);
        let depth = depth.clamp(1, 16);
        let mut widths = vec![1u32];
        let mut width = 1u64;
        for _ in 1..depth {
            width = (width * fan_in as u64).min(backends as u64);
            widths.push(width as u32);
        }
        widths.push(backends);
        TreeShape {
            level_widths: widths,
        }
    }

    /// The shape the paper's placement rules produce for a tree of `depth` edges on
    /// a given placement: flat for 1-deep, `min(sqrt(daemons), budget)` comm
    /// processes for 2-deep, fan-out 4 then 16/24 for 3-deep, and the budget-fitted
    /// nth-root generalisation beyond that (see [`PlacementPlan::level_widths`]).
    ///
    /// Migration note: `TopologySpec::for_placement(TopologyKind::TwoDeep, &plan)`
    /// from earlier revisions is now `TreeShape::for_placement(&plan, 2)`.
    pub fn for_placement(plan: &PlacementPlan, depth: u32) -> Self {
        TreeShape::from_level_widths(plan.level_widths(depth))
    }

    /// Number of back-end daemons.
    pub fn backends(&self) -> u32 {
        *self.level_widths.last().expect("shape always has levels")
    }

    /// Number of communication processes (all levels between the root and the leaves).
    pub fn comm_processes(&self) -> u32 {
        if self.level_widths.len() <= 2 {
            0
        } else {
            self.level_widths[1..self.level_widths.len() - 1]
                .iter()
                .sum()
        }
    }

    /// Tree depth measured in edges from the front end to a daemon.
    pub fn depth(&self) -> u32 {
        (self.level_widths.len() - 1) as u32
    }

    /// The largest fan-out any node in the tree will have.
    pub fn max_fanout(&self) -> u32 {
        self.level_widths
            .windows(2)
            .map(|w| w[1].div_ceil(w[0]))
            .max()
            .unwrap_or(1)
    }

    /// The series label used in the figures ("1-deep", "2-deep", ... "6-deep").
    pub fn label(&self) -> String {
        format!("{}-deep", self.depth())
    }
}

/// The role of a node in the tree.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum TreeNodeRole {
    /// The tool front end (tree root).
    FrontEnd,
    /// An intermediate communication process.
    CommProcess,
    /// A back-end tool daemon (tree leaf).
    BackEnd,
}

/// One node of a concrete tree.
#[derive(Clone, Debug, PartialEq)]
pub struct TreeNode {
    /// Stable endpoint id (0 is always the front end).
    pub id: EndpointId,
    /// Role in the tree.
    pub role: TreeNodeRole,
    /// Level: 0 for the front end, `depth` for the daemons.
    pub level: u32,
    /// Index of this node within its level.
    pub index_in_level: u32,
    /// Parent endpoint, `None` only for the front end.
    pub parent: Option<EndpointId>,
    /// Children, in ascending id order.
    pub children: Vec<EndpointId>,
}

/// A concrete, fully wired tree: its endpoint ids, numbered level by level from
/// the front end (id 0).  No per-endpoint table is kept: every node's children
/// are one contiguous run of the level below, so each relation is arithmetic.
#[derive(Clone, Debug)]
pub struct Topology {
    shape: TreeShape,
    levels: Vec<Vec<EndpointId>>,
}

impl Topology {
    /// Build a balanced tree from a shape.  Children are distributed contiguously so
    /// that sibling subtree sizes differ by at most one daemon.
    pub fn build(shape: TreeShape) -> Self {
        let mut next_id = 0u32;
        let levels = shape
            .level_widths
            .iter()
            .map(|&width| {
                let ids = (next_id..next_id + width).map(EndpointId).collect();
                next_id += width;
                ids
            })
            .collect();
        Topology { shape, levels }
    }

    /// The children of node `index` of `level`, as indices into `level + 1`: parent
    /// `j` of `p` over `c` has `⌈j·c/p⌉..⌈(j+1)·c/p⌉` (empty on the leaf level).
    /// `index` may be the level's width, whose run starts past the last child.
    pub(crate) fn children_run(&self, level: usize, index: usize) -> Range<usize> {
        let width = |level: usize| self.levels.get(level).map_or(0, Vec::len) as u64;
        let (p, c) = (width(level).max(1), width(level + 1));
        let first = |j: usize| (j as u64 * c).div_ceil(p) as usize;
        first(index)..first(index + 1)
    }

    /// The level of `id` and its index within that level.
    fn locate(&self, id: EndpointId) -> Option<(usize, usize)> {
        let mut index = id.0 as usize;
        for (level, ids) in self.levels.iter().enumerate() {
            if index < ids.len() {
                return Some((level, index));
            }
            index -= ids.len();
        }
        None
    }

    /// The parent of `id` (child `i` of `c` under parent `⌊i·p/c⌋` of `p`):
    /// `None` for the front end and for an id outside the tree.
    pub(crate) fn parent(&self, id: EndpointId) -> Option<EndpointId> {
        let (level, index) = self.locate(id)?;
        let above = self.levels.get(level.checked_sub(1)?)?;
        above
            .get(index * above.len() / self.levels[level].len())
            .copied()
    }

    /// The shape the tree was built from.
    pub fn shape(&self) -> &TreeShape {
        &self.shape
    }

    /// The front end's endpoint id.
    pub fn frontend(&self) -> EndpointId {
        EndpointId(0)
    }

    /// Endpoint ids of every back-end daemon, in rank order of their level index.
    pub fn backends(&self) -> &[EndpointId] {
        self.levels.last().expect("tree always has levels")
    }

    /// Endpoint ids of every communication process.
    pub fn comm_processes(&self) -> Vec<EndpointId> {
        let interior = self.levels.get(1..self.levels.len().saturating_sub(1));
        interior.unwrap_or_default().concat()
    }

    /// Node metadata, computed from the level widths.  Panics on an id outside
    /// the tree.
    pub fn node(&self, id: EndpointId) -> TreeNode {
        let (level, index) = self.locate(id).expect("endpoint id is in the tree");
        let role = match level {
            0 => TreeNodeRole::FrontEnd,
            l if l + 1 == self.levels.len() => TreeNodeRole::BackEnd,
            _ => TreeNodeRole::CommProcess,
        };
        let children = self
            .levels
            .get(level + 1)
            .map(|below| &below[self.children_run(level, index)]);
        TreeNode {
            id,
            role,
            level: level as u32,
            index_in_level: index as u32,
            parent: self.parent(id),
            children: children.unwrap_or_default().to_vec(),
        }
    }

    /// All nodes, in id order.
    pub fn nodes(&self) -> Vec<TreeNode> {
        self.levels
            .iter()
            .flatten()
            .map(|&id| self.node(id))
            .collect()
    }

    /// Endpoint ids level by level, root first.
    pub fn levels(&self) -> &[Vec<EndpointId>] {
        &self.levels
    }

    /// Tree depth in edges.
    pub fn depth(&self) -> u32 {
        self.shape.depth()
    }

    /// Total number of endpoints: the sum of the level widths.
    pub fn len(&self) -> usize {
        self.levels.iter().map(Vec::len).sum()
    }

    /// True only for a degenerate empty tree (never produced by [`Topology::build`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The number of back-end daemons in the subtree rooted at `id`: its run
    /// of indices carried down level by level to the leaves.
    pub fn subtree_backends(&self, id: EndpointId) -> u32 {
        let (level, index) = self.locate(id).expect("endpoint id is in the tree");
        let leaves = (level..self.levels.len() - 1).fold(index..index + 1, |run, level| {
            self.children_run(level, run.start).start..self.children_run(level, run.end).start
        });
        leaves.len() as u32
    }

    /// The largest fan-out actually present in the built tree: `⌈c/p⌉` over
    /// every pair of adjacent levels.
    pub fn max_fanout(&self) -> usize {
        self.levels
            .windows(2)
            .map(|pair| pair[1].len().div_ceil(pair[0].len().max(1)))
            .max()
            .unwrap_or(0)
    }

    /// Verify structural invariants; used by property tests.  Describes the
    /// first violation found, naming the invariant and the endpoint or level.
    pub fn validate(&self) -> Result<(), String> {
        self.validate_nodes(&self.nodes())
    }

    /// [`validate`](Topology::validate) as an oracle over an explicit node list
    /// (in id order), checked against this tree's levels and shape.
    fn validate_nodes(&self, nodes: &[TreeNode]) -> Result<(), String> {
        let node = |id: EndpointId| nodes.get(id.0 as usize);
        let Some(frontend) = node(self.frontend()) else {
            return Err("empty topology".to_string());
        };
        if let Some(parent) = frontend.parent {
            return Err(format!("front end has a parent ({parent})"));
        }
        let mut reachable_backends = 0u32;
        for n in nodes {
            let (id, level) = (n.id, n.level);
            if n.role == TreeNodeRole::FrontEnd {
                if level != 0 {
                    return Err(format!("front end at level {level}, not level 0"));
                }
                continue;
            }
            let Some(parent) = n.parent else {
                return Err(format!("{id} at level {level} has no parent"));
            };
            let Some(pnode) = node(parent) else {
                return Err(format!("{id} has parent {parent} outside the tree"));
            };
            if pnode.level + 1 != level {
                return Err(format!(
                    "{id} at level {level} has parent {parent} at level {}",
                    pnode.level
                ));
            }
            if !pnode.children.contains(&id) {
                return Err(format!("{id} missing from the child list of {parent}"));
            }
            if n.role == TreeNodeRole::BackEnd {
                if !n.children.is_empty() {
                    return Err(format!("backend {id} has {} children", n.children.len()));
                }
                reachable_backends += 1;
            }
        }
        let expected = self.shape.backends();
        if reachable_backends != expected {
            return Err(format!(
                "expected {expected} backends, found {reachable_backends}"
            ));
        }
        // Sibling balance: child counts at each level differ by at most one.
        let parent_levels = self.levels.len().saturating_sub(1);
        for (level, ids) in self.levels.iter().enumerate().take(parent_levels) {
            let counts = ids.iter().filter_map(|&id| Some(node(id)?.children.len()));
            if let (Some(min), Some(max)) = (counts.clone().min(), counts.max()) {
                if max - min > 1 {
                    return Err(format!(
                        "unbalanced level {level}: child counts range {min}..{max}"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::cluster::{BglMode, Cluster};

    #[test]
    fn flat_topology_connects_every_daemon_to_the_frontend() {
        let t = Topology::build(TreeShape::flat(16));
        assert_eq!(t.depth(), 1);
        assert_eq!(t.backends().len(), 16);
        assert_eq!(t.node(t.frontend()).children.len(), 16);
        assert_eq!(t.comm_processes().len(), 0);
        t.validate().unwrap();
    }

    #[test]
    fn two_deep_distributes_daemons_evenly() {
        let t = Topology::build(TreeShape::two_deep(100, 10));
        assert_eq!(t.depth(), 2);
        assert_eq!(t.comm_processes().len(), 10);
        for cp in t.comm_processes() {
            assert_eq!(t.node(cp).children.len(), 10);
        }
        t.validate().unwrap();
    }

    #[test]
    fn uneven_division_stays_balanced() {
        let t = Topology::build(TreeShape::two_deep(103, 10));
        let counts: Vec<usize> = t
            .comm_processes()
            .iter()
            .map(|&cp| t.node(cp).children.len())
            .collect();
        assert_eq!(counts.iter().sum::<usize>(), 103);
        assert!(counts.iter().max().unwrap() - counts.iter().min().unwrap() <= 1);
        t.validate().unwrap();
    }

    #[test]
    fn three_deep_has_two_comm_levels() {
        let t = Topology::build(TreeShape::from_level_widths(vec![1, 4, 16, 256]));
        assert_eq!(t.depth(), 3);
        assert_eq!(t.levels().len(), 4);
        assert_eq!(t.levels()[1].len(), 4);
        assert_eq!(t.levels()[2].len(), 16);
        assert_eq!(t.backends().len(), 256);
        t.validate().unwrap();
    }

    #[test]
    fn balanced_shape_uses_nth_root_fanout() {
        let s = TreeShape::balanced(256, 2);
        assert_eq!(s.level_widths, vec![1, 16, 256]);
        let s3 = TreeShape::balanced(512, 3);
        assert_eq!(s3.depth(), 3);
        assert!(
            s3.max_fanout() <= 9,
            "cube root of 512 is 8, fanout {}",
            s3.max_fanout()
        );
        let s1 = TreeShape::balanced(64, 1);
        assert_eq!(s1.depth(), 1);
    }

    #[test]
    fn balanced_fan_out_is_the_exact_integer_root() {
        // Every exact power that fits a daemon count, and its two neighbours.
        for depth in 2..=8u32 {
            for root in (2..=65_535u64).take_while(|f| f.pow(depth) <= u32::MAX as u64) {
                let power = root.pow(depth);
                let fan_out =
                    |backends: u64| TreeShape::balanced(backends as u32, depth).level_widths[1];
                assert_eq!(fan_out(power) as u64, root, "{root}^{depth}");
                assert_eq!(fan_out(power - 1) as u64, root, "{root}^{depth} - 1");
                if power < u32::MAX as u64 {
                    assert_eq!(fan_out(power + 1) as u64, root + 1, "{root}^{depth} + 1");
                }
            }
        }
        let s = TreeShape::balanced(32_768, 5);
        assert_eq!(s.level_widths, vec![1, 8, 64, 512, 4_096, 32_768]);
    }

    #[test]
    fn deep_shapes_the_old_enum_could_not_express() {
        // A 5-deep tree over 4,096 daemons: impossible to name under the closed
        // Flat/TwoDeep/ThreeDeep triple, routine for a TreeShape.
        let s = TreeShape::balanced(4_096, 5);
        assert_eq!(s.depth(), 5);
        let t = Topology::build(s);
        assert_eq!(t.backends().len(), 4_096);
        t.validate().unwrap();

        let u = TreeShape::uniform_with_depth(1_000, 10, 3);
        assert_eq!(u.level_widths, vec![1, 10, 100, 1_000]);
        // Even when fan_in^depth falls far short of the daemon count, the leaf
        // level stays pinned to the requested backend count.
        let huge = TreeShape::uniform_with_depth(1_048_576, 2, 15);
        assert_eq!(huge.backends(), 1_048_576);
        assert_eq!(huge.level_widths.len(), 16);
        let ud = TreeShape::uniform_with_depth(1_664, 4, 4);
        assert_eq!(ud.level_widths, vec![1, 4, 16, 64, 1_664]);
        Topology::build(ud).validate().unwrap();
    }

    #[test]
    fn from_level_widths_sanitises_degenerate_inputs() {
        // Root width forced to 1, zeros raised, non-monotone widths flattened.
        let s = TreeShape::from_level_widths(vec![7, 0, 4, 2, 8]);
        assert_eq!(s.level_widths, vec![1, 1, 4, 4, 8]);
        Topology::build(s).validate().unwrap();
        let empty = TreeShape::from_level_widths(Vec::new());
        assert_eq!(empty.level_widths, vec![1, 1]);
        // The leaf width is the daemon count and is authoritative: interior
        // levels wider than it clamp down rather than inflating the tree with
        // phantom backends.
        let s = TreeShape::from_level_widths(vec![1, 28, 8]);
        assert_eq!(s.level_widths, vec![1, 8, 8]);
        assert_eq!(s.backends(), 8);
        Topology::build(s).validate().unwrap();
    }

    #[test]
    fn placement_rules_match_paper_section_iii() {
        // BG/L full machine in VN mode: 1,664 daemons, 2-deep fanout capped at 28.
        let bgl = Cluster::bluegene_l(BglMode::VirtualNode);
        let plan = machine::placement::PlacementPlan::for_job(&bgl, 212_992);
        let shape = TreeShape::for_placement(&plan, 2);
        assert_eq!(shape.level_widths, vec![1, 28, 1_664]);

        let shape3 = TreeShape::for_placement(&plan, 3);
        assert_eq!(shape3.level_widths, vec![1, 4, 24, 1_664]);

        // 4-deep: the generalised rule fits every comm level inside the same
        // 28-process login-node budget the paper's 3-deep shape exhausts.
        let shape4 = TreeShape::for_placement(&plan, 4);
        assert_eq!(shape4.depth(), 4);
        assert!(shape4.comm_processes() <= plan.comm_budget.max_processes);

        // Atlas at 512 daemons: sqrt rule, no cap.
        let atlas = Cluster::atlas();
        let plan = machine::placement::PlacementPlan::for_job(&atlas, 4_096);
        let shape = TreeShape::for_placement(&plan, 2);
        assert_eq!(shape.level_widths[1], 23);
    }

    #[test]
    fn subtree_backend_counts_sum_to_total() {
        let t = Topology::build(TreeShape::from_level_widths(vec![1, 4, 16, 100]));
        let total: u32 = t
            .node(t.frontend())
            .children
            .iter()
            .map(|&c| t.subtree_backends(c))
            .sum();
        assert_eq!(total, 100);
        assert_eq!(t.subtree_backends(t.frontend()), 100);
        for &b in t.backends() {
            assert_eq!(t.subtree_backends(b), 1);
        }
    }

    #[test]
    fn degenerate_shapes_are_clamped() {
        let t = Topology::build(TreeShape::flat(0));
        assert_eq!(t.backends().len(), 1);
        let t = Topology::build(TreeShape::two_deep(4, 100));
        assert!(t.comm_processes().len() <= 4);
        t.validate().unwrap();
    }

    #[test]
    fn labels_match_figures() {
        assert_eq!(TreeShape::flat(64).label(), "1-deep");
        assert_eq!(TreeShape::two_deep(64, 8).label(), "2-deep");
        assert_eq!(
            TreeShape::from_level_widths(vec![1, 4, 16, 64]).label(),
            "3-deep"
        );
        assert_eq!(TreeShape::balanced(4_096, 5).label(), "5-deep");
    }

    #[test]
    fn validate_names_the_violating_endpoint_or_level() {
        // Corrupt a healthy tree's node list four ways; each is an error naming
        // where.
        let t = Topology::build(TreeShape::two_deep(8, 2));
        let mut nodes = t.nodes();
        nodes[3].children.push(EndpointId(1));
        assert_eq!(
            t.validate_nodes(&nodes).unwrap_err(),
            "backend ep3 has 1 children"
        );

        let t = Topology::build(TreeShape::flat(4));
        let mut nodes = t.nodes();
        nodes[2].parent = None;
        assert_eq!(
            t.validate_nodes(&nodes).unwrap_err(),
            "ep2 at level 1 has no parent"
        );

        // Rewire one daemon under a different comm process: siblings now have
        // child counts 2 and 4.
        let t = Topology::build(TreeShape::two_deep(9, 3));
        let mut nodes = t.nodes();
        let moved = t.levels()[2][0];
        nodes[moved.0 as usize].parent = Some(EndpointId(2));
        nodes[1].children.retain(|&c| c != moved);
        nodes[2].children.push(moved);
        assert_eq!(
            t.validate_nodes(&nodes).unwrap_err(),
            "unbalanced level 1: child counts range 2..4"
        );

        // A daemon that still names its parent but is gone from its child list.
        let t = Topology::build(TreeShape::two_deep(9, 3));
        let mut nodes = t.nodes();
        let dropped = t.levels()[2][4];
        let parent = nodes[dropped.0 as usize].parent.unwrap();
        nodes[parent.0 as usize].children.retain(|&c| c != dropped);
        assert_eq!(
            t.validate_nodes(&nodes).unwrap_err(),
            format!("{dropped} missing from the child list of {parent}")
        );
    }
}
