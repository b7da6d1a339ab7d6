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
//! [`TreeShape::two_deep`], [`TreeShape::three_deep`], [`TreeShape::balanced`]).
//! [`Topology::build`] turns a shape into a concrete tree with stable endpoint ids,
//! balanced so that every parent at a level has child counts differing by at most
//! one.  [`crate::planner::TopologyPlanner`] searches candidate shapes with the
//! reduction cost model.

use std::fmt;

use machine::placement::PlacementPlan;

use crate::packet::EndpointId;

/// An arbitrary-depth description of a reduction tree: the width of every level
/// from the front end (width 1) down to the back-end daemons.
///
/// Construct one with the paper's family constructors ([`flat`](TreeShape::flat),
/// [`two_deep`](TreeShape::two_deep), [`three_deep`](TreeShape::three_deep)), with
/// the generalised rules ([`balanced`](TreeShape::balanced),
/// [`uniform`](TreeShape::uniform),
/// [`uniform_with_depth`](TreeShape::uniform_with_depth),
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

    /// A 3-deep shape with explicit level widths.
    pub fn three_deep(backends: u32, first_level: u32, second_level: u32) -> Self {
        let backends = backends.max(1);
        let first = first_level.clamp(1, backends);
        let second = second_level.clamp(first, backends);
        TreeShape {
            level_widths: vec![1, first, second, backends],
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

    /// A shape in which every internal node has (up to) `fan_in` children: level
    /// widths grow geometrically by `fan_in` until they reach the backend count.
    /// The depth falls out of the fan-in rather than being chosen up front.
    pub fn uniform(backends: u32, fan_in: u32) -> Self {
        let backends = backends.max(1);
        let fan_in = fan_in.max(2);
        let mut widths = vec![1u32];
        let mut width = 1u64;
        // Grow by fan_in while a further level is still needed; the leaf level is
        // always pinned to `backends` (if the 15-level cap is hit first, the last
        // fan-out absorbs the remainder rather than dropping daemons).
        while width.saturating_mul(fan_in as u64) < backends as u64 && widths.len() < 15 {
            width *= fan_in as u64;
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

/// A structural invariant violation found by [`Topology::validate`].
///
/// Each variant carries the level, endpoint and expected/actual counts the caller
/// needs to localise the problem — the same typed-error convention `TbonError` and
/// `StatError` follow elsewhere in the workspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TopologyError {
    /// The topology contains no nodes at all.
    Empty,
    /// The front end (endpoint 0) has a parent.
    FrontEndHasParent {
        /// The parent it claims.
        parent: EndpointId,
    },
    /// A node with the front-end role sits below the root level.
    FrontEndOffRoot {
        /// The level it was found at.
        level: u32,
    },
    /// A non-root node has no parent link.
    MissingParent {
        /// The orphaned endpoint.
        endpoint: EndpointId,
        /// Its level.
        level: u32,
    },
    /// A node's parent does not sit exactly one level above it.
    LevelSkew {
        /// The child endpoint.
        endpoint: EndpointId,
        /// The child's level.
        level: u32,
        /// The parent endpoint.
        parent: EndpointId,
        /// The parent's level.
        parent_level: u32,
    },
    /// A node names a parent whose child list does not contain it.
    UnlinkedChild {
        /// The child endpoint.
        endpoint: EndpointId,
        /// The parent whose child list is missing it.
        parent: EndpointId,
    },
    /// A back-end daemon (tree leaf) has children.
    BackEndWithChildren {
        /// The offending endpoint.
        endpoint: EndpointId,
        /// How many children it has.
        children: u32,
    },
    /// The number of reachable back-end daemons disagrees with the shape.
    BackEndCount {
        /// Daemons the shape promises.
        expected: u32,
        /// Daemons actually present.
        actual: u32,
    },
    /// Sibling fan-outs at one level differ by more than one child.
    UnbalancedFanOut {
        /// The parent level whose children are skewed.
        level: u32,
        /// Smallest child count at that level.
        min_fanout: u32,
        /// Largest child count at that level.
        max_fanout: u32,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::Empty => write!(f, "empty topology"),
            TopologyError::FrontEndHasParent { parent } => {
                write!(f, "front end has a parent ({parent})")
            }
            TopologyError::FrontEndOffRoot { level } => {
                write!(f, "front end found at level {level}, expected level 0")
            }
            TopologyError::MissingParent { endpoint, level } => {
                write!(f, "{endpoint} at level {level} has no parent")
            }
            TopologyError::LevelSkew {
                endpoint,
                level,
                parent,
                parent_level,
            } => write!(
                f,
                "{endpoint} at level {level} has parent {parent} at level {parent_level}"
            ),
            TopologyError::UnlinkedChild { endpoint, parent } => {
                write!(f, "{endpoint} missing from the child list of {parent}")
            }
            TopologyError::BackEndWithChildren { endpoint, children } => {
                write!(f, "backend {endpoint} has {children} children")
            }
            TopologyError::BackEndCount { expected, actual } => {
                write!(f, "expected {expected} backends, found {actual}")
            }
            TopologyError::UnbalancedFanOut {
                level,
                min_fanout,
                max_fanout,
            } => write!(
                f,
                "unbalanced level {level}: child counts range {min_fanout}..{max_fanout}"
            ),
        }
    }
}

impl std::error::Error for TopologyError {}

/// A concrete, fully wired tree.
#[derive(Clone, Debug)]
pub struct Topology {
    shape: TreeShape,
    nodes: Vec<TreeNode>,
    levels: Vec<Vec<EndpointId>>,
}

impl Topology {
    /// Build a balanced tree from a shape.  Children are distributed contiguously so
    /// that sibling subtree sizes differ by at most one daemon.
    pub fn build(shape: TreeShape) -> Self {
        let mut nodes: Vec<TreeNode> = Vec::new();
        let mut levels: Vec<Vec<EndpointId>> = Vec::new();
        let depth = shape.depth();
        let mut next_id = 0u32;

        for (level, &width) in shape.level_widths.iter().enumerate() {
            let mut ids = Vec::with_capacity(width as usize);
            for index in 0..width {
                let id = EndpointId(next_id);
                next_id += 1;
                let role = if level == 0 {
                    TreeNodeRole::FrontEnd
                } else if level as u32 == depth {
                    TreeNodeRole::BackEnd
                } else {
                    TreeNodeRole::CommProcess
                };
                nodes.push(TreeNode {
                    id,
                    role,
                    level: level as u32,
                    index_in_level: index,
                    parent: None,
                    children: Vec::new(),
                });
                ids.push(id);
            }
            levels.push(ids);
        }

        // Wire each level to its parent level: child i of a level of width c attaches
        // to parent floor(i * p / c) of the level above (width p).  This spreads
        // children as evenly as possible and keeps rank ranges contiguous per subtree,
        // which is what the hierarchical task-list representation relies on.
        for level in 1..levels.len() {
            let parent_width = levels[level - 1].len() as u64;
            let child_width = levels[level].len() as u64;
            for (i, &child_id) in levels[level].iter().enumerate() {
                let parent_idx = (i as u64 * parent_width) / child_width;
                let parent_id = levels[level - 1][parent_idx as usize];
                nodes[child_id.0 as usize].parent = Some(parent_id);
                nodes[parent_id.0 as usize].children.push(child_id);
            }
        }

        Topology {
            shape,
            nodes,
            levels,
        }
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
        self.nodes
            .iter()
            .filter(|n| n.role == TreeNodeRole::CommProcess)
            .map(|n| n.id)
            .collect()
    }

    /// Node metadata.
    pub fn node(&self, id: EndpointId) -> &TreeNode {
        &self.nodes[id.0 as usize]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[TreeNode] {
        &self.nodes
    }

    /// Endpoint ids level by level, root first.
    pub fn levels(&self) -> &[Vec<EndpointId>] {
        &self.levels
    }

    /// Tree depth in edges.
    pub fn depth(&self) -> u32 {
        self.shape.depth()
    }

    /// Total number of endpoints.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True only for a degenerate empty tree (never produced by [`Topology::build`]).
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The number of back-end daemons in the subtree rooted at `id`.
    pub fn subtree_backends(&self, id: EndpointId) -> u32 {
        let node = self.node(id);
        match node.role {
            TreeNodeRole::BackEnd => 1,
            _ => node
                .children
                .iter()
                .map(|&c| self.subtree_backends(c))
                .sum(),
        }
    }

    /// The largest fan-out actually present in the built tree.
    pub fn max_fanout(&self) -> usize {
        self.nodes
            .iter()
            .map(|n| n.children.len())
            .max()
            .unwrap_or(0)
    }

    /// Verify structural invariants; used by property tests.  Returns a typed
    /// description of the first violation found, if any.
    pub fn validate(&self) -> Result<(), TopologyError> {
        if self.nodes.is_empty() {
            return Err(TopologyError::Empty);
        }
        if let Some(parent) = self.node(self.frontend()).parent {
            return Err(TopologyError::FrontEndHasParent { parent });
        }
        let mut reachable_backends = 0u32;
        for n in &self.nodes {
            match n.role {
                TreeNodeRole::FrontEnd => {
                    if n.level != 0 {
                        return Err(TopologyError::FrontEndOffRoot { level: n.level });
                    }
                }
                TreeNodeRole::CommProcess | TreeNodeRole::BackEnd => {
                    let parent = match n.parent {
                        Some(p) => p,
                        None => {
                            return Err(TopologyError::MissingParent {
                                endpoint: n.id,
                                level: n.level,
                            })
                        }
                    };
                    let pnode = self.node(parent);
                    if pnode.level + 1 != n.level {
                        return Err(TopologyError::LevelSkew {
                            endpoint: n.id,
                            level: n.level,
                            parent,
                            parent_level: pnode.level,
                        });
                    }
                    if !pnode.children.contains(&n.id) {
                        return Err(TopologyError::UnlinkedChild {
                            endpoint: n.id,
                            parent,
                        });
                    }
                    if n.role == TreeNodeRole::BackEnd {
                        if !n.children.is_empty() {
                            return Err(TopologyError::BackEndWithChildren {
                                endpoint: n.id,
                                children: n.children.len() as u32,
                            });
                        }
                        reachable_backends += 1;
                    }
                }
            }
        }
        if reachable_backends != self.shape.backends() {
            return Err(TopologyError::BackEndCount {
                expected: self.shape.backends(),
                actual: reachable_backends,
            });
        }
        // Sibling balance: child counts at each level differ by at most one.
        for level in 0..self.levels.len().saturating_sub(1) {
            let counts: Vec<usize> = self.levels[level]
                .iter()
                .map(|&id| self.node(id).children.len())
                .collect();
            if let (Some(&min), Some(&max)) = (counts.iter().min(), counts.iter().max()) {
                if max - min > 1 {
                    return Err(TopologyError::UnbalancedFanOut {
                        level: level as u32,
                        min_fanout: min as u32,
                        max_fanout: max as u32,
                    });
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
        let t = Topology::build(TreeShape::three_deep(256, 4, 16));
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

        let u = TreeShape::uniform(1_000, 10);
        assert_eq!(u.level_widths, vec![1, 10, 100, 1_000]);
        // Even when the level cap bites before fan_in^depth reaches the daemon
        // count, the leaf level stays pinned to the requested backend count.
        let huge = TreeShape::uniform(1_048_576, 2);
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
        let t = Topology::build(TreeShape::three_deep(100, 4, 16));
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
        assert_eq!(TreeShape::three_deep(64, 4, 16).label(), "3-deep");
        assert_eq!(TreeShape::balanced(4_096, 5).label(), "5-deep");
    }

    #[test]
    fn validate_reports_typed_violations() {
        // Corrupt a healthy tree and check the typed variants carry the context.
        let mut t = Topology::build(TreeShape::two_deep(8, 2));
        t.nodes[3].children.push(EndpointId(1));
        assert_eq!(
            t.validate(),
            Err(TopologyError::BackEndWithChildren {
                endpoint: EndpointId(3),
                children: 1,
            })
        );

        let mut t = Topology::build(TreeShape::flat(4));
        t.nodes[2].parent = None;
        assert_eq!(
            t.validate(),
            Err(TopologyError::MissingParent {
                endpoint: EndpointId(2),
                level: 1,
            })
        );

        let mut t = Topology::build(TreeShape::two_deep(9, 3));
        // Rewire one daemon under a different comm process: siblings now have
        // child counts 2 and 4.
        let moved = t.levels[2][0];
        t.nodes[moved.0 as usize].parent = Some(EndpointId(2));
        t.nodes[1].children.retain(|&c| c != moved);
        t.nodes[2].children.push(moved);
        assert_eq!(
            t.validate(),
            Err(TopologyError::UnbalancedFanOut {
                level: 1,
                min_fanout: 2,
                max_fanout: 4,
            })
        );
    }
}
