//! Incremental (delta) reduction: fold per-wave deltas into the front end's
//! resident state instead of re-reducing every wave from scratch.
//!
//! A one-shot gather ships every daemon's whole local tree up the overlay each
//! time it runs.  A *streaming* session runs every few seconds for the life of
//! the job, and between waves almost nothing changes — most daemons' wave trees
//! are subsets of what the front end already knows.  The continuous-profiler
//! architecture (agents push small batches, the server folds them into a rolling
//! call tree) maps onto the TBON like this:
//!
//! * each daemon diffs its wave against the last acknowledged wave and ships a
//!   [`PacketTag::TreeDelta`] packet carrying only the *new* subtrees and
//!   task-set words;
//! * each interior node merges its children's deltas with the ordinary channel
//!   filter — the merge of deltas over disjoint child domains *is* the delta of
//!   the merge — and forwards the merged delta upward, holding nothing between
//!   waves;
//! * the front end alone folds the final delta into the job-wide resident tree,
//!   which therefore always equals what one batched merge of every wave would
//!   have produced (the equivalence property `tests/properties.rs` pins down).
//!
//! So a wave is one ordinary reduction of one channel, labelled `tree-delta`,
//! followed by one fold.  The reduction runs inline on the caller's thread
//! (one worker), deliberately: quiescent-wave deltas are root-only packets a
//! few dozen bytes long, and the interesting quantity is bytes moved and state
//! touched, not parallel throughput.  What this module owns is the front end's
//! resident state and the mapping of the walk's accounting onto a
//! [`WaveOutcome`].  `crates/bench/benches/streaming.rs` measures this path
//! against a full re-reduce at 64K endpoints.
//!
//! The crate knows nothing about prefix trees; resident state is abstracted
//! behind [`ResidentState`]/[`StateFactory`], which `stat-core` implements with
//! its serialised-tree fold.
//!
//! [`PacketTag::TreeDelta`]: crate::packet::PacketTag::TreeDelta

use std::time::{Duration, Instant};

use crate::filter::Filter;
use crate::network::{ChannelInput, InProcessTbon, TbonError};
use crate::packet::Packet;
use crate::topology::Topology;

/// Accumulated state the front end folds each wave's merged delta into.
pub trait ResidentState {
    /// Fold one merged delta packet into the state.  An `Err` message becomes
    /// [`TbonError::DeltaFold`] with the front end attached.
    fn fold(&mut self, delta: &Packet) -> Result<(), String>;

    /// Approximate resident footprint in bytes, for reporting.
    fn resident_bytes(&self) -> usize;
}

/// Builds the initial (empty) resident state.
pub trait StateFactory {
    /// The state type the front end holds.
    type State: ResidentState;

    /// A fresh, empty state.
    fn new_state(&self) -> Self::State;
}

/// What one [`IncrementalTbon::fold_wave`] walk produced.
#[derive(Clone, Debug)]
pub struct WaveOutcome {
    /// The merged delta that reached the front end (already folded into the
    /// front end's resident state).
    pub frontend_delta: Packet,
    /// Bytes of delta payload that crossed any link this wave (each
    /// child-to-parent packet counted once).
    pub delta_link_bytes: u64,
    /// The largest per-node input wave, in bytes — the hot-spot quantity.
    pub max_node_bytes_in: u64,
    /// Wall-clock spent in filter invocations and the front end's fold.
    pub fold_wall: Duration,
    /// Filter invocations performed (one per interior node and the front end).
    pub filter_invocations: u32,
}

/// A TBON whose front end holds resident state across waves; its interior
/// nodes merge and forward each wave's deltas and keep nothing.
///
/// Construct one per streaming session (and a fresh one after a mid-stream
/// topology rebuild — re-seed it by folding each survivor's full tree as a
/// delta against empty state).  [`Self::fold_wave`] then accepts one delta
/// packet per back-end daemon and returns the merged front-end delta plus the
/// byte/latency accounting for the wave.
pub struct IncrementalTbon<F: StateFactory> {
    network: InProcessTbon,
    factory: F,
    /// The front end's resident state; `None` until the first wave folds.
    state: Option<F::State>,
}

impl<F: StateFactory> IncrementalTbon<F> {
    /// A delta network over `topology` with empty resident state.
    pub fn new(topology: Topology, factory: F) -> Self {
        IncrementalTbon {
            network: InProcessTbon::new(topology).with_workers(1),
            factory,
            state: None,
        }
    }

    /// The topology the network folds over.
    pub fn topology(&self) -> &Topology {
        self.network.topology()
    }

    /// The front end's resident state — the rolling job-wide merge.  `None`
    /// until the first wave folds.
    pub fn frontend_state(&self) -> Option<&F::State> {
        self.state.as_ref()
    }

    /// The front end's resident footprint, in bytes (0 before the first fold).
    pub fn resident_bytes(&self) -> usize {
        self.state.as_ref().map_or(0, |s| s.resident_bytes())
    }

    /// Fold one wave of per-daemon deltas up the tree.
    ///
    /// `leaf_deltas` must supply exactly one packet per back-end daemon, in
    /// [`Topology::backends`] order (the same contract as `reduce`).  Every
    /// daemon reports every wave — a quiescent daemon ships its root-only empty
    /// delta, which keeps hierarchical domain offsets stable at every merge.
    pub fn fold_wave(
        &mut self,
        leaf_deltas: Vec<Packet>,
        filter: &dyn Filter,
    ) -> Result<WaveOutcome, TbonError> {
        let channel = ChannelInput::new("tree-delta", leaf_deltas);
        let outcome = self
            .network
            .reduce_channels(vec![channel], &[filter])?
            .pop()
            .ok_or(TbonError::WalkInvariant {
                context: "one channel in, one outcome out",
            })?;
        let start = Instant::now();
        let node = self.topology().frontend().0;
        self.state
            .get_or_insert_with(|| self.factory.new_state())
            .fold(&outcome.result)
            .map_err(|message| TbonError::DeltaFold { node, message })?;
        Ok(WaveOutcome {
            frontend_delta: outcome.result,
            delta_link_bytes: outcome.total_link_bytes,
            max_node_bytes_in: outcome.max_node_bytes_in,
            fold_wall: outcome.filter_time + start.elapsed(),
            filter_invocations: u32::try_from(outcome.filter_invocations).unwrap_or(u32::MAX),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::SumFilter;
    use crate::packet::{EndpointId, PacketTag};
    use crate::topology::TreeShape;

    /// Resident state that sums every byte folded into it.
    struct ByteSum(u64);
    impl ResidentState for ByteSum {
        fn fold(&mut self, delta: &Packet) -> Result<(), String> {
            self.0 += delta.payload.iter().map(|&b| b as u64).sum::<u64>();
            Ok(())
        }
        fn resident_bytes(&self) -> usize {
            8
        }
    }
    struct ByteSumFactory;
    impl StateFactory for ByteSumFactory {
        type State = ByteSum;
        fn new_state(&self) -> ByteSum {
            ByteSum(0)
        }
    }

    fn leaves(topology: &Topology, value: u8) -> Vec<Packet> {
        topology
            .backends()
            .iter()
            .map(|&ep| Packet::new(PacketTag::TreeDelta, ep, vec![value]))
            .collect()
    }

    #[test]
    fn folds_accumulate_across_waves_at_the_front_end() {
        let topology = Topology::build(TreeShape::two_deep(8, 2));
        let mut net = IncrementalTbon::new(topology, ByteSumFactory);
        let filter = SumFilter;

        for wave in 1..=3u64 {
            let leaf = leaves(net.topology(), 1);
            let outcome = net.fold_wave(leaf, &filter).unwrap();
            // 8 backends each contribute 1.
            assert_eq!(SumFilter::decode(&outcome.frontend_delta), 8);
            assert_eq!(outcome.filter_invocations, 3); // 2 comms + front end
                                                       // The front end folds one encode(8) packet per wave; ByteSum adds
                                                       // its payload bytes, which for a little-endian 8 is just 8.
            assert_eq!(net.frontend_state().unwrap().0, 8 * wave);
        }
        // The front end alone holds state; comms and backends hold none.
        assert_eq!(net.resident_bytes(), 8);
    }

    #[test]
    fn wrong_leaf_count_is_a_typed_error() {
        let topology = Topology::build(TreeShape::two_deep(8, 2));
        let mut net = IncrementalTbon::new(topology, ByteSumFactory);
        let err = net.fold_wave(vec![], &SumFilter).unwrap_err();
        assert!(matches!(
            err,
            TbonError::LeafCountMismatch {
                channel: "tree-delta",
                expected: 8,
                actual: 0,
            }
        ));
    }

    #[test]
    fn state_rejection_surfaces_the_folding_node() {
        struct Picky;
        impl ResidentState for Picky {
            fn fold(&mut self, _delta: &Packet) -> Result<(), String> {
                Err("wrong domain".to_string())
            }
            fn resident_bytes(&self) -> usize {
                0
            }
        }
        struct PickyFactory;
        impl StateFactory for PickyFactory {
            type State = Picky;
            fn new_state(&self) -> Picky {
                Picky
            }
        }
        let topology = Topology::build(TreeShape::flat(4));
        let mut net = IncrementalTbon::new(topology, PickyFactory);
        let leaf = leaves(net.topology(), 0);
        match net.fold_wave(leaf, &SumFilter).unwrap_err() {
            TbonError::DeltaFold { node, message } => {
                assert_eq!(node, 0); // flat tree: the front end folds directly
                assert_eq!(message, "wrong domain");
            }
            other => panic!("expected DeltaFold, got {other}"),
        }
    }

    #[test]
    fn a_panicking_filter_is_fenced_and_names_the_node() {
        /// Panics at one node, sums everywhere else.
        struct PanicsAt(EndpointId);
        impl Filter for PanicsAt {
            fn reduce(&self, node: EndpointId, inputs: &[Packet]) -> Packet {
                assert!(node != self.0, "malformed delta");
                SumFilter.reduce(node, inputs)
            }
        }
        let topology = Topology::build(TreeShape::two_deep(8, 2));
        let bad = topology.comm_processes()[1];
        let mut net = IncrementalTbon::new(topology, ByteSumFactory);
        let leaf = leaves(net.topology(), 1);
        match net.fold_wave(leaf, &PanicsAt(bad)).unwrap_err() {
            TbonError::FilterPanicked {
                node,
                channel,
                message,
            } => {
                assert_eq!(node, bad.0);
                assert_eq!(channel, 0);
                assert!(message.contains("malformed delta"), "{message}");
            }
            other => panic!("expected FilterPanicked, got {other}"),
        }
        // The walk stopped at the failing level: the front end never folded.
        assert!(net.frontend_state().is_none());
    }

    #[test]
    fn link_bytes_count_every_hop_once() {
        let topology = Topology::build(TreeShape::two_deep(8, 2));
        let mut net = IncrementalTbon::new(topology, ByteSumFactory);
        let leaf = leaves(net.topology(), 1);
        let outcome = net.fold_wave(leaf, &SumFilter).unwrap();
        // 8 backend→comm packets of 1 byte + 2 comm→frontend packets of 8 bytes
        // (SumFilter always emits an 8-byte little-endian sum).
        assert_eq!(outcome.delta_link_bytes, 8 + 16);
        // The front end's input wave (2 × 8 bytes) is the largest.
        assert_eq!(outcome.max_node_bytes_in, 16);
        let _ = EndpointId(0);
    }
}
