//! The call-graph prefix tree — STAT's central data structure.
//!
//! Every stack trace is a path from the process entry point down to a leaf frame.
//! Merging the traces of many tasks (and, for the 3D analysis, many samples per task)
//! into a single *prefix tree* groups tasks that behave alike: each tree node is a
//! frame reached by some set of tasks, and the edge into it is labelled with exactly
//! that task set.  Figure 1 of the paper is one of these trees for the 1,024-task
//! ring hang.
//!
//! The tree is generic over the task-set representation ([`TaskSetOps`]), because the
//! whole point of Section V is that the *same* merge algorithm behaves completely
//! differently at scale depending on whether edge labels are job-wide bit vectors or
//! subtree-local task lists.  The [`PrefixTree::merge`] operation does whichever the
//! label type's [`TaskSetOps::CONCATENATES`] states: a plain union for the global
//! representation, or the offset-and-concatenate ("hierarchical") merge for subtree
//! task lists.  The tree itself carries no representation flag — two trees that
//! merge have the same label type, so they cannot disagree about it.
//!
//! ## Merging
//!
//! [`PrefixTree::merge`] consumes the other tree by value: matched nodes union
//! their sets word by word ([`TaskSetOps::union_shifted`]) and unmatched subtrees
//! move across, so no tree is cloned; [`PrefixTree::merge_aligned`], the
//! streaming path's resident fold, is the same walk without the widening.  Child
//! lookup is a tree-wide `(parent, frame)` hash, and every traversal runs an
//! explicit worklist, so a pathologically deep trace cannot overflow the stack.
//! The TBON's merge filter builds no tree: it replays this walk on flat columns
//! read off the wire (`serialize::merge_bodies`), byte for byte.
//!
//! A daemon builds its local trees the other way round (`core::daemon`): its 2D
//! and 3D trees share one arena whose labels it keeps in rows of its own, each
//! trace marks its task only on the node it *ends* at, and one reverse pass over
//! the nodes the walk reached ORs the marks into the parents.  A walk descends
//! each distinct path it is lent once, by name from the root (`descend_named`).

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use stackwalk::{FrameId, FrameTable, StackTrace};

use crate::taskset::{DenseBitVector, RankRuns, SubtreeTaskList, TaskSetOps};

/// Index of a node within one tree.
pub type NodeIdx = usize;

/// A minimal FxHash-style hasher for the `(parent, frame)` child index: the keys are
/// small integers, so a multiply-xor mix beats the DoS-resistant default by a wide
/// margin on the merge hot path (and we vendor no external fast-hash crate).  The
/// wire merge keys whole packet bodies with it, mixed eight bytes at a time.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct ChildKeyHasher {
    hash: u64,
}

impl ChildKeyHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    fn mix(&mut self, value: u64) {
        self.hash = (self.hash.rotate_left(5) ^ value).wrapping_mul(Self::SEED);
    }
}

impl Hasher for ChildKeyHasher {
    fn finish(&self) -> u64 {
        self.hash
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0; 8];
            word.iter_mut().zip(chunk).for_each(|(w, &b)| *w = b);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, value: u32) {
        self.mix(value as u64);
    }

    fn write_usize(&mut self, value: usize) {
        self.mix(value as u64);
    }
}

type ChildIndex = HashMap<(NodeIdx, FrameId), NodeIdx, BuildHasherDefault<ChildKeyHasher>>;

/// The widest node [`PrefixTree::descend_named`] still scans sibling by sibling.
const SCAN_FANOUT: usize = 8;

#[derive(Clone, Debug)]
struct TreeEntry<S> {
    frame: Option<FrameId>,
    parent: Option<NodeIdx>,
    children: Vec<NodeIdx>,
    tasks: S,
}

/// A call-graph prefix tree with task-set edge labels.
#[derive(Clone, Debug)]
pub struct PrefixTree<S: TaskSetOps> {
    width: u64,
    nodes: Vec<TreeEntry<S>>,
    /// O(1) frame→child lookup: `(parent, frame) → child`, maintained by
    /// `add_child_with_tasks`.
    child_index: ChildIndex,
}

impl<S: TaskSetOps> PrefixTree<S> {
    /// An empty tree over a domain of `width` task positions (the whole job for
    /// the global representation, one daemon's or subtree's tasks for the
    /// hierarchical one).
    pub fn new(width: u64) -> Self {
        PrefixTree {
            width,
            nodes: vec![TreeEntry {
                frame: None,
                parent: None,
                children: Vec::new(),
                tasks: S::empty(width),
            }],
            child_index: ChildIndex::default(),
        }
    }

    /// The domain width (total tasks for global trees, subtree tasks for subtree
    /// trees).
    pub fn width(&self) -> u64 {
        self.width
    }

    /// Number of nodes, including the synthetic root.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The root node index.
    pub fn root(&self) -> NodeIdx {
        0
    }

    /// The arena accessor every traversal goes through.  `NodeIdx` values are
    /// minted by `add_child_with_tasks` against this same arena and nodes are
    /// never removed, so a stored index (parent link, child list, child-index
    /// probe, worklist entry) is always in range — the one place that invariant
    /// is relied on for indexing is here, not scattered across the file.
    fn entry(&self, node: NodeIdx) -> &TreeEntry<S> {
        // stat-analyzer: allow(hot-path-panic) — arena indices are minted by this tree and nodes are never removed
        &self.nodes[node]
    }

    /// Mutable twin of [`Self::entry`]; same invariant.
    fn entry_mut(&mut self, node: NodeIdx) -> &mut TreeEntry<S> {
        // stat-analyzer: allow(hot-path-panic) — arena indices are minted by this tree and nodes are never removed
        &mut self.nodes[node]
    }

    /// The frame of a node (`None` for the root).
    pub fn frame(&self, node: NodeIdx) -> Option<FrameId> {
        self.entry(node).frame
    }

    /// The parent of a node (`None` for the root).
    pub fn parent(&self, node: NodeIdx) -> Option<NodeIdx> {
        self.entry(node).parent
    }

    /// The children of a node.
    pub fn children(&self, node: NodeIdx) -> &[NodeIdx] {
        &self.entry(node).children
    }

    /// The task set labelling the edge into a node (for the root: every task seen).
    pub fn tasks(&self, node: NodeIdx) -> &S {
        &self.entry(node).tasks
    }

    /// The path of frames from the root to a node (outermost first).
    pub fn path_to(&self, node: NodeIdx) -> Vec<FrameId> {
        let mut path = Vec::new();
        let mut cur = Some(node);
        while let Some(idx) = cur {
            if let Some(frame) = self.entry(idx).frame {
                path.push(frame);
            }
            cur = self.entry(idx).parent;
        }
        path.reverse();
        path
    }

    fn child_with_frame(&self, node: NodeIdx, frame: FrameId) -> Option<NodeIdx> {
        self.child_index.get(&(node, frame)).copied()
    }

    fn add_child_with_tasks(&mut self, parent: NodeIdx, frame: FrameId, tasks: S) -> NodeIdx {
        let idx = self.nodes.len();
        self.nodes.push(TreeEntry {
            frame: Some(frame),
            parent: Some(parent),
            children: Vec::new(),
            tasks,
        });
        self.entry_mut(parent).children.push(idx);
        self.child_index.insert((parent, frame), idx);
        idx
    }

    /// Add one stack trace observed from task position `index` (a global rank for
    /// global trees, a subtree-local position for subtree trees): the task joins
    /// the label of every node on the trace's path, root included.
    pub fn add_trace(&mut self, trace: &StackTrace, index: u64) {
        let mut cur = Some(self.descend(trace.frames()));
        while let Some(node) = cur {
            self.mark(node, index);
            cur = self.entry(node).parent;
        }
    }

    /// The child of `node` for `frame`, created if it does not exist yet.
    fn child_or_new(&mut self, node: NodeIdx, frame: FrameId) -> NodeIdx {
        match self.child_with_frame(node, frame) {
            Some(child) => child,
            None => self.append_node(node, frame),
        }
    }

    /// Walk `frames` down from the root, creating the nodes that are missing, and
    /// return the node the path ends at.  No label is touched.
    pub(crate) fn descend(&mut self, frames: &[FrameId]) -> NodeIdx {
        let root = self.root();
        frames
            .iter()
            .fold(root, |cur, &f| self.child_or_new(cur, f))
    }

    /// [`Self::descend`] by frame *name*, on a daemon walk's first sighting of a
    /// lent path (`daemon::PathEnds`).  On a node of up to [`SCAN_FANOUT`] children
    /// names are compared directly; a wider node and a name with no node yet go
    /// through `table` and the `(parent, frame)` index, interning it on the way.
    pub(crate) fn descend_named(&mut self, table: &mut FrameTable, path: &[&str]) -> NodeIdx {
        path.iter().fold(self.root(), |cur, &name| {
            let children = self.children(cur);
            let named = |&c: &NodeIdx| self.frame(c).is_some_and(|f| table.name(f) == name);
            let narrow = children.len() <= SCAN_FANOUT;
            let scanned = narrow.then(|| children.iter().copied().find(named));
            scanned
                .flatten()
                .unwrap_or_else(|| self.child_or_new(cur, table.intern(name)))
        })
    }

    /// Record task position `index` on `node`'s label alone.
    pub(crate) fn mark(&mut self, node: NodeIdx, index: u64) {
        self.entry_mut(node).tasks.insert(index);
    }

    /// Widen every task set in place to `new_width` (the accumulated tree's side of
    /// a hierarchical merge: no per-member work, just word-vector growth).
    fn widen_all(&mut self, new_width: u64) {
        for node in &mut self.nodes {
            node.tasks.rebase(0, new_width);
        }
        self.width = new_width;
    }

    /// Merge another tree into this one, consuming it.
    ///
    /// * Global (dense) representation: both trees already describe the job-wide
    ///   domain, so matched edge labels are unioned in place and unmatched subtrees
    ///   *move* their labels across without a copy.
    /// * Hierarchical representation: the domains are concatenated — this tree keeps
    ///   positions `0..w₁`, the other tree's positions become `w₁..w₁+w₂` — exactly
    ///   the "combine the task lists of all children by simple concatenation" step of
    ///   Section V-B.  This tree widens in place and the other tree's labels are
    ///   shifted-OR'd ([`TaskSetOps::union_shifted`]) or moved-and-rebased in, so
    ///   nothing is cloned: the merge is O(matched words + moved nodes).
    ///
    /// Callers that need to keep the source tree pass `other.clone()`.
    pub fn merge(&mut self, other: PrefixTree<S>) {
        self.merge_walk(other, S::CONCATENATES);
    }

    /// Union another tree into this one **over the same domain** — no domain
    /// concatenation for either representation.  Matched edge labels union at
    /// offset zero and unmatched subtrees move their task sets across.
    ///
    /// This is the fold step of the streaming delta path's resident state: a
    /// delta describes the *same* task positions as the accumulated tree it folds
    /// into (one tree node's already-concatenated subtree domain, or a daemon's
    /// own local domain), so the hierarchical representation must not widen here
    /// the way [`PrefixTree::merge`] does.  A daemon folds its waves in its own
    /// arena instead; this walk and [`PrefixTree::delta_from`] are what its
    /// deltas are checked against.
    pub fn merge_aligned(&mut self, other: PrefixTree<S>) {
        self.merge_walk(other, false);
    }

    /// The one merge walk behind both entry points.  `concatenate` appends
    /// `other`'s domain after this tree's (widening in place); otherwise both
    /// trees must already share one domain and labels union at offset zero.
    ///
    /// The traversal is an explicit worklist: merging arbitrarily deep 3D traces
    /// cannot overflow the stack.
    fn merge_walk(&mut self, mut other: PrefixTree<S>, concatenate: bool) {
        let offset = if concatenate {
            let w1 = self.width;
            self.widen_all(w1 + other.width);
            w1
        } else {
            assert_eq!(
                self.width, other.width,
                "merging without concatenation requires one shared task domain"
            );
            0
        };
        let new_width = self.width;

        // One worklist of (self node, other node, grafted) triples.  A node of
        // `other` whose frame is new under its matched parent moves across
        // wholesale: its task set is taken (not cloned) and rebased word-level.
        // Below a grafted node every descendant is new by construction, so the
        // child-index probe (and the union — a fresh node already carries the moved
        // set) is skipped.
        let mut work: Vec<(NodeIdx, NodeIdx, bool)> = vec![(self.root(), other.root(), false)];
        while let Some((sn, on, grafted)) = work.pop() {
            if !grafted {
                self.entry_mut(sn)
                    .tasks
                    .union_shifted(&other.entry(on).tasks, offset);
            }
            // `other` is consumed, so its child lists can be taken wholesale —
            // this also keeps the loop free of index arithmetic.
            let other_children = std::mem::take(&mut other.entry_mut(on).children);
            for oc in other_children {
                // Only the root (never anyone's child) lacks a frame; a frameless
                // child would be malformed input, and skipping it is the
                // panic-free response on this hot path.
                let Some(frame) = other.entry(oc).frame else {
                    continue;
                };
                let matched = if grafted {
                    None
                } else {
                    self.child_with_frame(sn, frame)
                };
                match matched {
                    Some(sc) => work.push((sc, oc, false)),
                    None => {
                        let mut tasks =
                            std::mem::replace(&mut other.entry_mut(oc).tasks, S::empty(0));
                        if concatenate {
                            tasks.rebase(offset, new_width);
                        }
                        let sc = self.add_child_with_tasks(sn, frame, tasks);
                        work.push((sc, oc, true));
                    }
                }
            }
        }
    }

    /// The tree of members `self` adds over `prev`: every node of `self` is
    /// matched against `prev` by path, and the delta keeps exactly the nodes
    /// whose task sets carry members absent from the matched node (plus nodes
    /// with no match at all, and the ancestors needed to reach them), labelled
    /// with only those **new** members.
    ///
    /// Applying the result to `prev` with [`PrefixTree::merge_aligned`]
    /// reconstructs `prev ∪ self` — the streaming invariant the daemons rely on
    /// when they ship one delta per wave instead of the whole accumulated tree.
    /// A fully quiescent wave (`self ⊆ prev`) deltas to a lone empty root.  A
    /// streaming daemon computes the same bytes from the nodes its wave reached
    /// in the arena it keeps (`core::streaming`); this is the oracle its tests
    /// hold it to, and what the benchmark's delta replay times.
    pub fn delta_from(&self, prev: &PrefixTree<S>) -> PrefixTree<S> {
        assert_eq!(
            self.width, prev.width,
            "delta requires one shared task domain"
        );
        let n = self.nodes.len();

        // Pass 1, index order (parents precede children by construction): match
        // each node of `self` to its path-equivalent in `prev` and compute the
        // members it adds.
        let mut matched: Vec<Option<NodeIdx>> = Vec::with_capacity(n);
        let mut new_bits: Vec<S> = Vec::with_capacity(n);
        for (i, node) in self.nodes.iter().enumerate() {
            let prev_node = if i == 0 {
                Some(prev.root())
            } else {
                node.parent
                    .and_then(|p| matched.get(p).copied().flatten())
                    .and_then(|pp| node.frame.and_then(|f| prev.child_with_frame(pp, f)))
            };
            let mut bits = node.tasks.clone();
            if let Some(pn) = prev_node {
                bits.subtract(prev.tasks(pn));
            }
            matched.push(prev_node);
            new_bits.push(bits);
        }

        // Pass 2, reverse index order (children before parents): a node is kept
        // when it adds members, has no match in `prev` (new structure), or must
        // stay as scaffold above a kept descendant.
        let mut include: Vec<bool> = new_bits
            .iter()
            .zip(matched.iter())
            .map(|(bits, m)| !bits.is_empty_set() || m.is_none())
            .collect();
        for i in (1..n).rev() {
            if include.get(i).copied().unwrap_or(false) {
                if let Some(parent) = self.nodes.get(i).and_then(|node| node.parent) {
                    if let Some(slot) = include.get_mut(parent) {
                        *slot = true;
                    }
                }
            }
        }

        // Pass 3, index order again: build the delta tree (parents first, so the
        // parent's delta index always exists before its children need it).
        let mut out = PrefixTree::new(self.width);
        let mut out_idx: Vec<Option<NodeIdx>> = Vec::with_capacity(n);
        for (i, ((bits, &kept), node)) in new_bits
            .into_iter()
            .zip(include.iter())
            .zip(self.nodes.iter())
            .enumerate()
        {
            if i == 0 {
                let root = out.root();
                out.entry_mut(root).tasks = bits;
                out_idx.push(Some(root));
                continue;
            }
            if !kept {
                out_idx.push(None);
                continue;
            }
            let parent = node.parent.and_then(|p| out_idx.get(p).copied().flatten());
            let placed = match (parent, node.frame) {
                (Some(op), Some(frame)) => Some(out.add_child_with_tasks(op, frame, bits)),
                // Unreachable for a well-formed arena (ancestors of kept nodes
                // are kept); dropping the node is the panic-free fallback.
                _ => None,
            };
            out_idx.push(placed);
        }
        out
    }

    /// Replace the task set of a node wholesale (used by packet deserialisation).
    pub(crate) fn replace_tasks(&mut self, node: NodeIdx, tasks: S) {
        self.entry_mut(node).tasks = tasks;
    }

    /// Append a node under `parent` with an empty task set.
    pub(crate) fn append_node(&mut self, parent: NodeIdx, frame: FrameId) -> NodeIdx {
        self.add_child_with_tasks(parent, frame, S::empty(self.width))
    }

    /// Iterate `(node, frame, parent)` over non-root nodes in index order.
    // stat-analyzer: allow(hot-path-panic, fn) — index 0 (the only frameless, parentless node) is skipped; every non-root node is constructed with both
    pub fn iter_nodes(&self) -> impl Iterator<Item = (NodeIdx, FrameId, NodeIdx)> + '_ {
        self.nodes.iter().enumerate().skip(1).map(|(i, node)| {
            (
                i,
                node.frame.expect("non-root node has a frame"),
                node.parent.expect("non-root node has a parent"),
            )
        })
    }
}

/// A tree using the original, job-wide dense bit vectors.
pub type GlobalPrefixTree = PrefixTree<DenseBitVector>;

/// A tree using the optimised, subtree-local task lists.
pub type SubtreePrefixTree = PrefixTree<SubtreeTaskList>;

impl GlobalPrefixTree {
    /// An empty global tree for a job of `total_tasks` tasks.
    pub fn new_global(total_tasks: u64) -> Self {
        PrefixTree::new(total_tasks)
    }
}

impl SubtreePrefixTree {
    /// An empty subtree tree covering `local_tasks` task positions.
    pub fn new_subtree(local_tasks: u64) -> Self {
        PrefixTree::new(local_tasks)
    }

    /// The front end's remap step: convert a fully merged subtree tree (whose
    /// positions are in daemon/TBON order) into a job-wide tree in MPI rank order,
    /// through the rank map gathered on the rank-map channel.
    ///
    /// Each edge label is translated by [`SubtreeTaskList::remap_to_dense`], which
    /// ORs every run's bit range into the dense set at the run's first rank, and
    /// the structure copy is an explicit worklist, so depth is bounded by memory,
    /// not the call stack.
    pub fn remap(&self, rank_map: &RankRuns, total_tasks: u64) -> GlobalPrefixTree {
        assert!(
            rank_map.count() >= self.width,
            "rank map must cover every position in the merged tree"
        );
        let mut out = GlobalPrefixTree::new_global(total_tasks);
        let out_root = out.root();
        out.entry_mut(out_root).tasks = self
            .tasks(self.root())
            .remap_to_dense(rank_map, total_tasks);
        let mut work: Vec<(NodeIdx, NodeIdx)> = vec![(self.root(), out_root)];
        while let Some((src_node, dst_node)) = work.pop() {
            for &child in self.children(src_node) {
                // Only the root lacks a frame; a frameless child is skipped, as
                // in `merge_walk`.
                let Some(frame) = self.frame(child) else {
                    continue;
                };
                let tasks = self.tasks(child).remap_to_dense(rank_map, total_tasks);
                let new_child = out.add_child_with_tasks(dst_node, frame, tasks);
                work.push((child, new_child));
            }
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Maximum depth (frames) of any path in the tree.  Iterative, so a
    /// pathologically deep trace cannot overflow the test's stack.
    pub(crate) fn depth<S: TaskSetOps>(tree: &PrefixTree<S>) -> usize {
        let mut deepest = 0;
        let mut work: Vec<(NodeIdx, usize)> = vec![(tree.root(), 0)];
        while let Some((node, depth)) = work.pop() {
            deepest = deepest.max(depth);
            work.extend(tree.children(node).iter().map(|&c| (c, depth + 1)));
        }
        deepest
    }

    /// `tasks(parent) |= tasks(child)` over the arena in reverse: end marks become
    /// edge labels (parents precede their children in index order).
    pub(crate) fn close_upward<S: TaskSetOps>(tree: &mut PrefixTree<S>) {
        for child in (1..tree.nodes.len()).rev() {
            let Some(parent) = tree.entry(child).parent else {
                continue;
            };
            let tasks = std::mem::replace(&mut tree.entry_mut(child).tasks, S::empty(0));
            tree.entry_mut(parent).tasks.union_in_place(&tasks);
            tree.entry_mut(child).tasks = tasks;
        }
    }

    /// Leaf node indices, in arena order.
    pub(crate) fn leaves<S: TaskSetOps>(tree: &PrefixTree<S>) -> Vec<NodeIdx> {
        (1..tree.node_count())
            .filter(|&n| tree.children(n).is_empty())
            .collect()
    }

    fn trace(table: &mut FrameTable, path: &[&str]) -> StackTrace {
        StackTrace::new(table.intern_path(path))
    }

    fn ring_like_global(table: &mut FrameTable, tasks: u64) -> GlobalPrefixTree {
        let barrier = trace(table, &["_start", "main", "MPI_Barrier", "progress"]);
        let waitall = trace(table, &["_start", "main", "MPI_Waitall", "progress"]);
        let stall = trace(table, &["_start", "main", "do_SendOrStall"]);
        let mut tree = GlobalPrefixTree::new_global(tasks);
        for rank in 0..tasks {
            let t = if rank == 1 {
                &stall
            } else if rank == 2 {
                &waitall
            } else {
                &barrier
            };
            tree.add_trace(t, rank);
        }
        tree
    }

    #[test]
    fn single_trace_builds_a_chain() {
        let mut table = FrameTable::new();
        let t = trace(&mut table, &["_start", "main", "MPI_Barrier"]);
        let mut tree = GlobalPrefixTree::new_global(8);
        tree.add_trace(&t, 3);
        assert_eq!(tree.node_count(), 4); // root + 3 frames
        assert_eq!(depth(&tree), 3);
        assert_eq!(leaves(&tree).len(), 1);
        let leaf = leaves(&tree)[0];
        assert_eq!(tree.tasks(leaf).members(), vec![3]);
        assert_eq!(tree.path_to(leaf).len(), 3);
    }

    #[test]
    fn shared_prefixes_are_not_duplicated() {
        let mut table = FrameTable::new();
        let tree = ring_like_global(&mut table, 64);
        // _start and main are shared; three branches below main; progress appears
        // twice (under Barrier and under Waitall).
        assert_eq!(depth(&tree), 4);
        assert_eq!(leaves(&tree).len(), 3);
        // root + _start + main + (Barrier + progress) + (Waitall + progress) + stall
        assert_eq!(tree.node_count(), 8);
        // Every task passes through main.
        let main_node = tree.children(tree.children(tree.root())[0])[0];
        assert_eq!(tree.tasks(main_node).count(), 64);
    }

    #[test]
    fn global_merge_unions_task_sets() {
        let mut table = FrameTable::new();
        let barrier = trace(&mut table, &["_start", "main", "MPI_Barrier"]);
        let stall = trace(&mut table, &["_start", "main", "do_SendOrStall"]);

        let mut left = GlobalPrefixTree::new_global(16);
        for rank in 0..8 {
            left.add_trace(if rank == 1 { &stall } else { &barrier }, rank);
        }
        let mut right = GlobalPrefixTree::new_global(16);
        for rank in 8..16 {
            right.add_trace(&barrier, rank);
        }
        left.merge(right);
        assert_eq!(left.tasks(left.root()).count(), 16);
        let leaves = leaves(&left);
        assert_eq!(leaves.len(), 2);
        let barrier_leaf = leaves
            .iter()
            .copied()
            .find(|&l| left.tasks(l).count() == 15)
            .expect("barrier leaf holds 15 tasks");
        assert!(left.tasks(barrier_leaf).contains(0));
        assert!(left.tasks(barrier_leaf).contains(15));
        assert!(!left.tasks(barrier_leaf).contains(1));
    }

    #[test]
    fn global_merge_is_commutative_in_content() {
        let mut table = FrameTable::new();
        let a = ring_like_global(&mut table, 32);
        let mut b = GlobalPrefixTree::new_global(32);
        let compute = trace(&mut table, &["_start", "main", "compute_interior"]);
        for rank in 0..32 {
            b.add_trace(&compute, rank);
        }
        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b.clone();
        ba.merge(a.clone());
        assert_eq!(ab.node_count(), ba.node_count());
        assert_eq!(ab.tasks(ab.root()).members(), ba.tasks(ba.root()).members());
        // Leaf task populations agree regardless of merge order.
        let mut ab_counts: Vec<u64> = leaves(&ab).iter().map(|&l| ab.tasks(l).count()).collect();
        let mut ba_counts: Vec<u64> = leaves(&ba).iter().map(|&l| ba.tasks(l).count()).collect();
        ab_counts.sort_unstable();
        ba_counts.sort_unstable();
        assert_eq!(ab_counts, ba_counts);
    }

    #[test]
    fn subtree_merge_concatenates_domains() {
        let mut table = FrameTable::new();
        let barrier = trace(&mut table, &["_start", "main", "MPI_Barrier"]);
        let stall = trace(&mut table, &["_start", "main", "do_SendOrStall"]);

        // Daemon 0 has 2 local tasks (positions 0, 1); daemon 1 likewise.
        let mut d0 = SubtreePrefixTree::new_subtree(2);
        d0.add_trace(&barrier, 0);
        d0.add_trace(&stall, 1);
        let mut d1 = SubtreePrefixTree::new_subtree(2);
        d1.add_trace(&barrier, 0);
        d1.add_trace(&barrier, 1);

        let mut merged = d0.clone();
        merged.merge(d1);
        assert_eq!(merged.width(), 4);
        assert_eq!(merged.tasks(merged.root()).count(), 4);
        let leaves = leaves(&merged);
        assert_eq!(leaves.len(), 2);
        let barrier_leaf = leaves
            .iter()
            .copied()
            .find(|&l| merged.tasks(l).count() == 3)
            .unwrap();
        // positions: d0 task0 = 0, d1 tasks = 2, 3
        assert_eq!(merged.tasks(barrier_leaf).members(), vec![0, 2, 3]);
    }

    /// Canonical content view: every node's interned path plus its members,
    /// sorted, so trees built in different orders compare structurally.
    fn shape_of<S: TaskSetOps>(tree: &PrefixTree<S>) -> Vec<(Vec<FrameId>, Vec<u64>)> {
        let mut shape: Vec<(Vec<FrameId>, Vec<u64>)> = (0..tree.node_count())
            .map(|node| (tree.path_to(node), tree.tasks(node).members()))
            .collect();
        shape.sort();
        shape
    }

    #[test]
    fn aligned_merge_unions_without_widening() {
        let mut table = FrameTable::new();
        let barrier = trace(&mut table, &["_start", "main", "MPI_Barrier"]);
        let stall = trace(&mut table, &["_start", "main", "do_SendOrStall"]);

        // Dense: two wave views of the same 16-task job.
        let mut acc = GlobalPrefixTree::new_global(16);
        for rank in 0..8 {
            acc.add_trace(&barrier, rank);
        }
        let mut wave = GlobalPrefixTree::new_global(16);
        for rank in 6..16 {
            wave.add_trace(if rank == 9 { &stall } else { &barrier }, rank);
        }
        acc.merge_aligned(wave);
        assert_eq!(acc.width(), 16, "aligned merge must not widen the domain");
        assert_eq!(acc.tasks(acc.root()).count(), 16);
        assert_eq!(leaves(&acc).len(), 2);

        // Hierarchical: same-domain union (a daemon folding wave trees locally).
        let mut sub_acc = SubtreePrefixTree::new_subtree(4);
        sub_acc.add_trace(&barrier, 0);
        let mut sub_wave = SubtreePrefixTree::new_subtree(4);
        sub_wave.add_trace(&barrier, 1);
        sub_wave.add_trace(&stall, 3);
        sub_acc.merge_aligned(sub_wave);
        assert_eq!(sub_acc.width(), 4);
        assert_eq!(sub_acc.tasks(sub_acc.root()).members(), vec![0, 1, 3]);
    }

    #[test]
    fn delta_applied_to_previous_reconstructs_the_union() {
        let mut table = FrameTable::new();
        let prev = ring_like_global(&mut table, 32);
        // The next wave keeps the old branches for some ranks and sends rank 7
        // somewhere new.
        let compute = trace(&mut table, &["_start", "main", "compute_interior"]);
        let mut wave = ring_like_global(&mut table, 32);
        wave.add_trace(&compute, 7);

        let delta = wave.delta_from(&prev);
        // Only the new chain (plus scaffold ancestors) rides the wire: the delta
        // is strictly smaller than the wave tree it summarises.
        assert!(delta.node_count() < wave.node_count());
        assert_eq!(delta.width(), 32);

        let mut expected = prev.clone();
        expected.merge(wave);
        let mut folded = prev.clone();
        folded.merge_aligned(delta);
        assert_eq!(shape_of(&folded), shape_of(&expected));
    }

    #[test]
    fn quiescent_wave_deltas_to_a_lone_empty_root() {
        let mut table = FrameTable::new();
        let prev = ring_like_global(&mut table, 64);
        let delta = prev.delta_from(&prev);
        assert_eq!(delta.node_count(), 1);
        assert!(delta.tasks(delta.root()).is_empty_set());

        let mut folded = prev.clone();
        folded.merge_aligned(delta);
        assert_eq!(shape_of(&folded), shape_of(&prev));
    }

    #[test]
    fn subtree_delta_round_trips_over_a_fixed_domain() {
        let mut table = FrameTable::new();
        let barrier = trace(&mut table, &["_start", "main", "MPI_Barrier"]);
        let stall = trace(&mut table, &["_start", "main", "do_SendOrStall"]);

        let mut prev = SubtreePrefixTree::new_subtree(8);
        for pos in 0..6 {
            prev.add_trace(&barrier, pos);
        }
        let mut wave = SubtreePrefixTree::new_subtree(8);
        for pos in 0..8 {
            wave.add_trace(if pos == 2 { &stall } else { &barrier }, pos);
        }

        let delta = wave.delta_from(&prev);
        let mut expected = prev.clone();
        expected.merge_aligned(wave);
        let mut folded = prev;
        folded.merge_aligned(delta);
        assert_eq!(shape_of(&folded), shape_of(&expected));
        assert_eq!(folded.width(), 8);
    }

    #[test]
    fn remap_restores_rank_order_at_the_front_end() {
        let mut table = FrameTable::new();
        let barrier = trace(&mut table, &["_start", "main", "MPI_Barrier"]);
        let stall = trace(&mut table, &["_start", "main", "do_SendOrStall"]);

        // Figure 6: daemon 0 debugs ranks {0, 2}; daemon 1 debugs ranks {1, 3}.
        let mut d0 = SubtreePrefixTree::new_subtree(2);
        d0.add_trace(&barrier, 0); // rank 0
        d0.add_trace(&stall, 1); // rank 2
        let mut d1 = SubtreePrefixTree::new_subtree(2);
        d1.add_trace(&barrier, 0); // rank 1
        d1.add_trace(&barrier, 1); // rank 3

        let mut merged = d0.clone();
        merged.merge(d1);
        let position_to_rank: RankRuns = [0u64, 2, 1, 3].into_iter().collect();
        let global = merged.remap(&position_to_rank, 4);

        let leaves = leaves(&global);
        let stall_leaf = leaves
            .iter()
            .copied()
            .find(|&l| global.tasks(l).count() == 1)
            .unwrap();
        assert_eq!(global.tasks(stall_leaf).members(), vec![2]);
        let barrier_leaf = leaves
            .iter()
            .copied()
            .find(|&l| global.tasks(l).count() == 3)
            .unwrap();
        assert_eq!(global.tasks(barrier_leaf).members(), vec![0, 1, 3]);
    }

    #[test]
    fn three_d_analysis_accumulates_all_samples() {
        let mut table = FrameTable::new();
        let shallow = trace(&mut table, &["_start", "main", "MPI_Barrier", "poll"]);
        let deep = trace(
            &mut table,
            &["_start", "main", "MPI_Barrier", "poll", "poll_inner"],
        );
        let mut tree_3d = GlobalPrefixTree::new_global(16);
        for t in [&shallow, &deep, &shallow] {
            tree_3d.add_trace(t, 5);
        }
        // Both the shallow and deep variants appear.
        assert_eq!(depth(&tree_3d), 5);

        let mut tree_2d = GlobalPrefixTree::new_global(16);
        tree_2d.add_trace(&shallow, 5);
        assert_eq!(depth(&tree_2d), 4);
    }

    #[test]
    fn end_marks_closed_upward_equal_per_frame_inserts() {
        // 40 tasks: the even ones each in a callee of their own under `dispatch`
        // (20 siblings, past SCAN_FANOUT), the odd ones on two shared paths, one of
        // which is a strict prefix of the other.
        let callees: Vec<String> = (0..20).map(|k| format!("callee_{k}")).collect();
        let path_of = |task: u64| -> Vec<&str> {
            match task % 4 {
                0 | 2 => vec!["main", "dispatch", &callees[(task / 2) as usize]],
                1 => vec!["main", "solve"],
                _ => vec!["main", "solve", "main"],
            }
        };
        let mut table = FrameTable::new();
        let mut by_name = SubtreePrefixTree::new_subtree(40);
        let mut by_id = SubtreePrefixTree::new_subtree(40);
        let mut reference = SubtreePrefixTree::new_subtree(40);
        for task in 0..40 {
            let path = path_of(task);
            let end = by_name.descend_named(&mut table, &path);
            by_name.mark(end, task);
            let frames = table.intern_path(&path);
            let end = by_id.descend(&frames);
            by_id.mark(end, task);
            reference.add_trace(&StackTrace::new(frames), task);
        }
        // 3 + 20 names, each interned once however often it was walked.
        assert_eq!(table.len(), 23);
        close_upward(&mut by_name);
        close_upward(&mut by_id);
        for tree in [&by_name, &by_id] {
            assert_eq!(tree.node_count(), reference.node_count());
            for node in 0..reference.node_count() {
                assert_eq!(tree.path_to(node), reference.path_to(node));
                assert_eq!(tree.tasks(node).members(), reference.tasks(node).members());
            }
        }
    }

    #[test]
    fn an_empty_accumulator_concatenates_from_position_zero() {
        let mut table = FrameTable::new();
        let barrier = trace(&mut table, &["_start", "main", "MPI_Barrier"]);
        let mut a = SubtreePrefixTree::new_subtree(2);
        a.add_trace(&barrier, 0);
        a.add_trace(&barrier, 1);
        let mut b = SubtreePrefixTree::new_subtree(3);
        b.add_trace(&barrier, 2);

        // A zero-width accumulator: the first merge lands at offset 0 with no
        // rebase to do, the second concatenates after it.
        let mut merged = SubtreePrefixTree::new_subtree(0);
        merged.merge(a);
        merged.merge(b);
        assert_eq!(merged.width(), 5);
        assert_eq!(merged.tasks(merged.root()).members(), vec![0, 1, 4]);
    }

    #[test]
    fn hierarchical_merge_is_word_level_across_unaligned_widths() {
        // Widths that are not multiples of 64 force the shifted-word path with a
        // carry; the result must match per-member expectations exactly.
        let mut table = FrameTable::new();
        let barrier = trace(&mut table, &["_start", "main", "MPI_Barrier"]);
        let mut acc = SubtreePrefixTree::new_subtree(0);
        let mut expected: Vec<u64> = Vec::new();
        let mut offset = 0u64;
        for local in [3u64, 70, 64, 129, 1] {
            let mut d = SubtreePrefixTree::new_subtree(local);
            for p in 0..local {
                if p % 3 != 1 {
                    d.add_trace(&barrier, p);
                    expected.push(offset + p);
                }
            }
            acc.merge(d);
            offset += local;
        }
        assert_eq!(acc.width(), offset);
        let leaf = leaves(&acc)[0];
        assert_eq!(acc.tasks(leaf).members(), expected);
    }

    #[test]
    fn pathologically_deep_traces_merge_and_remap_iteratively() {
        // 10,000 frames: the old recursive merge/depth/remap would overflow the
        // stack here (especially in debug builds); the worklist versions must not.
        let mut table = FrameTable::new();
        let names: Vec<String> = (0..10_000).map(|i| format!("f{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let deep = trace(&mut table, &name_refs);

        let mut d0 = SubtreePrefixTree::new_subtree(1);
        d0.add_trace(&deep, 0);
        assert_eq!(depth(&d0), 10_000);

        let mut d1 = SubtreePrefixTree::new_subtree(1);
        d1.add_trace(&deep, 0);
        d0.merge(d1);
        assert_eq!(depth(&d0), 10_000);
        assert_eq!(d0.node_count(), 10_001);
        assert_eq!(d0.width(), 2);

        let global = d0.remap(&[1u64, 0].into_iter().collect(), 2);
        assert_eq!(depth(&global), 10_000);
        let leaf = leaves(&global)[0];
        assert_eq!(global.tasks(leaf).members(), vec![0, 1]);
    }

    #[test]
    fn merge_moves_unmatched_subtrees_without_touching_matched_labels() {
        // A tree whose branches are disjoint from the accumulator's: after the
        // merge the grafted branch carries exactly the source's members, and the
        // shared spine carries the union.
        let mut table = FrameTable::new();
        let left = trace(&mut table, &["_start", "main", "left_branch", "leaf_a"]);
        let right = trace(&mut table, &["_start", "main", "right_branch", "leaf_b"]);
        let mut a = GlobalPrefixTree::new_global(16);
        for r in 0..8 {
            a.add_trace(&left, r);
        }
        let mut b = GlobalPrefixTree::new_global(16);
        for r in 8..16 {
            b.add_trace(&right, r);
        }
        a.merge(b);
        assert_eq!(a.tasks(a.root()).count(), 16);
        let leaves = leaves(&a);
        assert_eq!(leaves.len(), 2);
        for &leaf in &leaves {
            let members = a.tasks(leaf).members();
            assert!(
                members == (0..8).collect::<Vec<_>>() || members == (8..16).collect::<Vec<_>>()
            );
        }
        // And subsequent inserts through the child index still find every node.
        let mut c = GlobalPrefixTree::new_global(16);
        c.add_trace(&left, 3);
        c.add_trace(&right, 4);
        a.merge(c);
        assert_eq!(a.node_count(), 7); // root, _start, main, 2×(branch, leaf)
    }
}
