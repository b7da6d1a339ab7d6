//! Fault handling: what the overlay does when tool processes die.
//!
//! The paper's experiments met real failures — rsh giving out at 512 daemons, the
//! resource manager hanging at 208K, the flat tree collapsing at 256 I/O nodes — and
//! a tool running 1,664 daemons for an interactive session cannot treat a lost daemon
//! as fatal.  MRNet's answer (and the one a production STAT deployment relies on) is
//! to *prune*: a failed daemon's subtree is removed from the reduction, the session
//! continues over the survivors, and the front end reports which tasks are no longer
//! covered.  This module implements that bookkeeping over a [`Topology`].

use std::collections::BTreeSet;

use crate::filter::Filter;
use crate::packet::{EndpointId, Packet};
use crate::topology::{Topology, TreeShape};

/// Tracks which endpoints have failed and answers the two questions a degraded
/// gather asks: which daemons survive, and what tree do they merge over.
#[derive(Clone, Debug)]
pub struct FaultTracker {
    topology: Topology,
    failed: BTreeSet<EndpointId>,
}

impl FaultTracker {
    /// A tracker with no failures.
    pub fn new(topology: Topology) -> Self {
        FaultTracker {
            topology,
            failed: BTreeSet::new(),
        }
    }

    /// Record that an endpoint has failed (an endpoint the topology does not have
    /// is ignored).  Several calls model simultaneous failures, e.g. a login node
    /// taking all of its communication processes with it.
    pub fn fail(&mut self, endpoint: EndpointId) {
        if (endpoint.0 as usize) < self.topology.len() {
            self.failed.insert(endpoint);
        }
    }

    /// Whether an endpoint is (transitively) unusable: it failed, or an ancestor did.
    fn is_unreachable(&self, endpoint: EndpointId) -> bool {
        let mut cur = Some(endpoint);
        while let Some(e) = cur {
            if self.failed.contains(&e) {
                return true;
            }
            cur = self.topology.node(e).parent;
        }
        false
    }

    /// Indices (into the original backend order) of the backends still reachable:
    /// which daemons' task slices are still covered, in the order the pruned
    /// replacement topology expects their contributions.
    pub fn surviving_backend_indices(&self) -> Vec<usize> {
        self.topology
            .backends()
            .iter()
            .enumerate()
            .filter(|(_, &b)| !self.is_unreachable(b))
            .map(|(i, _)| i)
            .collect()
    }

    /// A pruned replacement [`TreeShape`] for merging the survivors: every level of
    /// the original shape shrunk to its surviving width (a failed communication
    /// process takes its whole subtree with it).  Returns `None` when the session
    /// is no longer viable — the front end died, or no backend survived.
    ///
    /// The survivors' contributions merge over the topology built from it.
    pub fn degraded_shape(&self) -> Option<TreeShape> {
        if self.failed.contains(&self.topology.frontend()) {
            return None;
        }
        let widths: Vec<u32> = self
            .topology
            .levels()
            .iter()
            .map(|level| level.iter().filter(|&&e| !self.is_unreachable(e)).count() as u32)
            .collect();
        if widths.last().copied().unwrap_or(0) == 0 {
            return None;
        }
        // `from_level_widths` re-sanitises: interior levels emptied by failures are
        // raised back to width 1 so the surviving daemons still have a route up.
        Some(TreeShape::from_level_widths(widths))
    }
}

/// How a faulty interior node corrupts the packet its filter emits.
///
/// Daemon loss (handled by [`FaultTracker`]) removes a subtree cleanly; the nastier
/// failure mode a production TBON meets is a *mid-tree* process whose filter state
/// has gone bad — it keeps participating in the reduction but forwards a damaged
/// merge of its subtree.  These are the corruption shapes the campaign suite
/// injects to check that the verdict machinery catches them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum FilterFaultKind {
    /// The node's output payload is replaced with garbage bytes (a wild write over
    /// the filter's output buffer).
    Garbage,
    /// The node's output payload is cut to its first half (a partial flush of the
    /// filter's output buffer).
    Truncate,
}

/// One injected mid-tree filter fault: *which* interior node misbehaves and *how*.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct FilterFault {
    /// The tree node whose filter output is corrupted.
    pub node: EndpointId,
    /// The corruption applied to that node's output packets.
    pub kind: FilterFaultKind,
}

/// A [`Filter`] wrapper that delegates to an inner filter and corrupts the output
/// of designated tree nodes — the TBON-side hook for mid-tree fault injection.
///
/// The wrapper is transparent at every healthy node, so a reduction with an empty
/// fault list is byte-identical to one without the wrapper.
///
/// ```
/// use tbon::fault::{CorruptingFilter, FilterFault, FilterFaultKind};
/// use tbon::filter::{Filter, IdentityFilter};
/// use tbon::packet::{EndpointId, Packet, PacketTag};
///
/// let faults = [FilterFault { node: EndpointId(1), kind: FilterFaultKind::Garbage }];
/// let filter = CorruptingFilter::new(&IdentityFilter, &faults);
/// let input = [Packet::new(PacketTag::Custom(0), EndpointId(2), vec![1, 2, 3])];
///
/// // A healthy node passes the inner filter's output through unchanged...
/// assert_eq!(filter.reduce(EndpointId(0), &input).payload, vec![1, 2, 3]);
/// // ...while the faulty node's output no longer resembles its inputs.
/// assert_ne!(filter.reduce(EndpointId(1), &input).payload, vec![1, 2, 3]);
/// ```
pub struct CorruptingFilter<'a> {
    inner: &'a dyn Filter,
    faults: &'a [FilterFault],
}

impl std::fmt::Debug for CorruptingFilter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CorruptingFilter")
            .field("inner", &self.inner.name())
            .field("faults", &self.faults)
            .finish()
    }
}

impl<'a> CorruptingFilter<'a> {
    /// Wrap `inner`, corrupting the output of every node named in `faults`.
    pub fn new(inner: &'a dyn Filter, faults: &'a [FilterFault]) -> Self {
        CorruptingFilter { inner, faults }
    }

    fn fault_at(&self, node: EndpointId) -> Option<FilterFaultKind> {
        self.faults.iter().find(|f| f.node == node).map(|f| f.kind)
    }
}

impl Filter for CorruptingFilter<'_> {
    fn reduce(&self, node: EndpointId, inputs: &[Packet]) -> Packet {
        let mut out = self.inner.reduce(node, inputs);
        match self.fault_at(node) {
            None => out,
            Some(FilterFaultKind::Garbage) => {
                // Keep the length plausible so the damage is semantic, not
                // structural: the parent sees a normal-looking packet whose
                // bytes decode to nonsense.
                let len = out.payload.len().max(8);
                let garbage: Vec<u8> = (0..len)
                    .map(|i| (i as u8).wrapping_mul(0xA5) ^ 0x5A)
                    .collect();
                out.payload = garbage.into();
                out
            }
            Some(FilterFaultKind::Truncate) => {
                let keep = out.payload.len() / 2;
                out.payload = out.payload.slice(0..keep);
                out
            }
        }
    }

    fn name(&self) -> &'static str {
        "corrupting"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{IdentityFilter, SumFilter};
    use crate::packet::PacketTag;
    use crate::topology::TreeShape;

    fn tracker(backends: u32, comm: u32) -> FaultTracker {
        FaultTracker::new(Topology::build(TreeShape::two_deep(backends, comm)))
    }

    #[test]
    fn failing_a_daemon_loses_only_that_daemon() {
        let mut t = tracker(64, 8);
        let victim = t.topology.backends()[10];
        t.fail(victim);
        let survivors: Vec<usize> = (0..64).filter(|&i| i != 10).collect();
        assert_eq!(t.surviving_backend_indices(), survivors);
        assert_eq!(t.degraded_shape().unwrap().level_widths, vec![1, 8, 63]);
    }

    #[test]
    fn failing_a_comm_process_orphans_its_subtree() {
        let mut t = tracker(64, 8);
        let cp = t.topology.comm_processes()[0];
        let orphans = t.topology.node(cp).children.len();
        t.fail(cp);
        // Exactly the first comm process's children are gone, nobody else.
        assert_eq!(
            t.surviving_backend_indices(),
            (orphans..64).collect::<Vec<_>>()
        );
        assert_eq!(
            t.degraded_shape().unwrap().level_widths,
            vec![1, 7, 64 - orphans as u32]
        );
    }

    #[test]
    fn unknown_endpoints_are_ignored() {
        let mut t = tracker(4, 2);
        t.fail(EndpointId(10_000));
        assert_eq!(t.surviving_backend_indices(), vec![0, 1, 2, 3]);
        assert_eq!(t.degraded_shape().unwrap().level_widths, vec![1, 2, 4]);
    }

    #[test]
    fn degraded_shape_shrinks_only_the_failed_levels() {
        let mut t = tracker(64, 8);
        let victim = t.topology.backends()[63];
        t.fail(victim);
        let shape = t.degraded_shape().unwrap();
        assert_eq!(shape.level_widths, vec![1, 8, 63]);
        assert_eq!(t.surviving_backend_indices(), (0..63).collect::<Vec<_>>());

        // A failed comm process takes its subtree: one fewer comm, 8 fewer daemons.
        let mut t = tracker(64, 8);
        let cp = t.topology.comm_processes()[7];
        let orphans = t.topology.node(cp).children.len() as u32;
        t.fail(cp);
        let shape = t.degraded_shape().unwrap();
        assert_eq!(shape.level_widths, vec![1, 7, 64 - orphans]);
        assert_eq!(t.surviving_backend_indices().len() as u32, 64 - orphans);
    }

    #[test]
    fn pruned_depth_four_shapes_account_for_every_backend() {
        // At depth ≥ 4 a mid-level comm-process failure orphans a whole
        // multi-level subtree; the pruned shape's daemons must be exactly the
        // surviving indices, and the two must still account for every original
        // daemon.
        let topo = Topology::build(TreeShape::uniform_with_depth(64, 4, 4));
        assert!(topo.levels().len() >= 5, "shape is not 4 deep");
        let mid = topo.levels()[2][0];
        let orphans = topo.subtree_backends(mid) as usize;
        assert!(orphans > 0, "a mid-level failure must orphan daemons");
        let mut t = FaultTracker::new(topo);
        t.fail(mid);

        let degraded = t.degraded_shape().expect("survivors remain");
        assert_eq!(degraded.backends() as usize + orphans, 64);
        assert_eq!(t.surviving_backend_indices().len() + orphans, 64);

        // The pruned shape still builds a valid topology of the same depth.
        let rebuilt = Topology::build(degraded);
        assert_eq!(rebuilt.backends().len() + orphans, 64);
        assert_eq!(rebuilt.depth(), 4);
    }

    #[test]
    fn degraded_shape_is_none_when_the_session_dies() {
        // The front end dies: every daemon is unreachable and nothing merges.
        let mut t = tracker(8, 2);
        t.fail(t.topology.frontend());
        assert!(t.degraded_shape().is_none());
        assert!(t.surviving_backend_indices().is_empty());

        // Every daemon fails, one by one (not via a comm cascade).
        let mut t = tracker(6, 3);
        for b in t.topology.backends().to_vec() {
            t.fail(b);
        }
        assert!(t.degraded_shape().is_none());
        assert!(t.surviving_backend_indices().is_empty());
    }

    #[test]
    fn degraded_shape_resanitises_down_to_a_single_survivor() {
        // Kill every backend but one: the pruned shape must still be a valid tree
        // with exactly one leaf, and the surviving index must be the survivor's.
        let mut t = tracker(8, 4);
        for &b in &t.topology.backends().to_vec()[..7] {
            t.fail(b);
        }
        let shape = t.degraded_shape().expect("one survivor keeps the session");
        assert_eq!(shape.backends(), 1);
        assert_eq!(*shape.level_widths.first().unwrap(), 1, "frontend intact");
        // Every interior level was re-sanitised to width >= 1 and never widens
        // on the way down — the shape builds into a real topology.
        for w in &shape.level_widths {
            assert!(*w >= 1);
        }
        let rebuilt = Topology::build(shape);
        assert_eq!(rebuilt.backends().len(), 1);
        assert_eq!(t.surviving_backend_indices(), vec![7]);
    }

    #[test]
    fn corrupting_filter_is_transparent_without_faults() {
        let inputs = [
            Packet::new(PacketTag::Custom(1), EndpointId(2), vec![1, 2]),
            Packet::new(PacketTag::Custom(1), EndpointId(3), vec![3]),
        ];
        let clean = IdentityFilter.reduce(EndpointId(0), &inputs);
        let wrapped = CorruptingFilter::new(&IdentityFilter, &[]).reduce(EndpointId(0), &inputs);
        assert_eq!(clean.payload, wrapped.payload);
        assert_eq!(clean.tag, wrapped.tag);
    }

    #[test]
    fn corrupting_filter_hits_only_the_designated_node() {
        let faults = [FilterFault {
            node: EndpointId(5),
            kind: FilterFaultKind::Garbage,
        }];
        let f = CorruptingFilter::new(&SumFilter, &faults);
        let inputs = [
            Packet::new(PacketTag::Custom(1), EndpointId(8), SumFilter::encode(40)),
            Packet::new(PacketTag::Custom(1), EndpointId(9), SumFilter::encode(2)),
        ];
        assert_eq!(SumFilter::decode(&f.reduce(EndpointId(4), &inputs)), 42);
        let corrupted = f.reduce(EndpointId(5), &inputs);
        assert_ne!(SumFilter::decode(&corrupted), 42);
        assert!(!corrupted.payload.is_empty());
    }

    #[test]
    fn truncation_halves_the_payload() {
        let faults = [FilterFault {
            node: EndpointId(1),
            kind: FilterFaultKind::Truncate,
        }];
        let f = CorruptingFilter::new(&IdentityFilter, &faults);
        let inputs = [Packet::new(
            PacketTag::Custom(1),
            EndpointId(2),
            vec![9; 10],
        )];
        assert_eq!(f.reduce(EndpointId(1), &inputs).payload.len(), 5);
        assert_eq!(f.name(), "corrupting");
    }

    #[test]
    fn degraded_shape_revives_an_emptied_comm_level() {
        // Kill every comm process but leave some backends' contributions needed:
        // all backends are orphaned, so the session is not viable...
        let mut t = tracker(8, 2);
        for cp in t.topology.comm_processes() {
            t.fail(cp);
        }
        assert!(t.degraded_shape().is_none(), "all backends orphaned");

        // ...but on a 3-deep tree, losing one mid-level node keeps the rest alive
        // and the sanitiser keeps every level at width >= 1.
        let topo = Topology::build(crate::topology::TreeShape::three_deep(27, 3, 9));
        let mut t = FaultTracker::new(topo.clone());
        let mid = topo.comm_processes()[0];
        t.fail(mid);
        let shape = t.degraded_shape().unwrap();
        assert_eq!(shape.depth(), 3);
        assert_eq!(
            shape.backends() as usize,
            t.surviving_backend_indices().len()
        );
    }
}
