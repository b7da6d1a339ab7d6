//! An in-process, thread-parallel TBON that really executes reductions.
//!
//! The figure generators use the analytic [`crate::cost`] model to reason about
//! 212,992-task configurations, but the tool itself — and the integration tests, the
//! examples and the real-execution benchmarks — run their reductions through this
//! network: every communication process and daemon position in the topology is
//! materialised, every filter invocation really happens on real serialised payloads,
//! and nodes at the same tree level run concurrently — each level is one scoped
//! parallel map (`par_map`), whose join is the level barrier — mirroring how the
//! real MRNet processes run concurrently on different hosts.
//!
//! The paper's front end does not run its reductions one at a time: the 2D tree, the
//! 3D tree and the rank map all flow up the same physical tree in the same session.
//! [`InProcessTbon::reduce_channels`] models that directly — one bottom-up level walk
//! carries any number of tagged channels, each with its own filter, so a session pays
//! for exactly one traversal of the overlay however many data streams it merges.
//! [`InProcessTbon::reduce`] is the single-channel special case.
//!
//! The output includes the byte-flow accounting (bytes into the front end, the
//! heaviest node, total bytes crossing links) because those quantities, not wall-clock
//! time on a single workstation, are what distinguish the original global-bit-vector
//! representation from the hierarchical one at scale.

use std::fmt;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::filter::Filter;
use crate::packet::{EndpointId, Packet};
use crate::topology::{Topology, TreeNodeRole};

/// Errors the in-process network reports instead of panicking.
///
/// At 208K cores "the tool crashed" and "one daemon dropped out" are very
/// different diagnoses, so a mismatch between the caller's view of the job and the
/// topology comes back with its context instead of aborting the session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TbonError {
    /// A channel supplied a different number of leaf packets than the topology has
    /// back-end daemons.
    LeafCountMismatch {
        /// Label of the offending channel.
        channel: &'static str,
        /// Back-end daemons the topology expects one packet from.
        expected: usize,
        /// Leaf packets the channel actually supplied.
        actual: usize,
    },
    /// `reduce_channels` was called with no channels at all.
    NoChannels,
    /// The number of filters does not match the number of channels.
    FilterCountMismatch {
        /// Channels supplied.
        channels: usize,
        /// Filters supplied.
        filters: usize,
    },
    /// A worker of a level's parallel map died outside the `catch_unwind` fence
    /// around the filter.  The walk aborts with this instead of re-raising the
    /// worker's panic and taking the whole session down.
    PoolPoisoned {
        /// What the level was doing when the death surfaced.
        context: &'static str,
    },
    /// A user filter panicked during the walk.  The panic is caught at the
    /// invocation site and surfaced as this error so a bad filter can neither
    /// strand the level barrier nor abort the front end.
    FilterPanicked {
        /// The tree node whose invocation panicked.
        node: u32,
        /// Index of the channel whose filter panicked.
        channel: usize,
        /// The panic payload, when it was a string.
        message: String,
    },
    /// An internal invariant of the level walk failed (a packet slot that must
    /// be full was empty, or a result arrived for an unknown channel).
    WalkInvariant {
        /// The violated invariant.
        context: &'static str,
    },
    /// A node's resident state rejected a delta during an incremental fold
    /// (see [`crate::delta::IncrementalTbon`]) — e.g. the delta failed to
    /// decode or described a different task domain than the state holds.
    DeltaFold {
        /// The tree node whose fold failed.
        node: u32,
        /// What the resident state objected to.
        message: String,
    },
}

impl fmt::Display for TbonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TbonError::LeafCountMismatch {
                channel,
                expected,
                actual,
            } => write!(
                f,
                "channel `{channel}` supplied {actual} leaf packets but the topology \
                 has {expected} back-end daemons"
            ),
            TbonError::NoChannels => write!(f, "reduce_channels requires at least one channel"),
            TbonError::FilterCountMismatch { channels, filters } => write!(
                f,
                "{channels} channels were given {filters} filters; each channel needs \
                 exactly one"
            ),
            TbonError::PoolPoisoned { context } => {
                write!(f, "a reduction worker died while {context}")
            }
            TbonError::FilterPanicked {
                node,
                channel,
                message,
            } => write!(
                f,
                "filter for channel {channel} panicked at node {node}: {message}"
            ),
            TbonError::WalkInvariant { context } => {
                write!(f, "reduction walk invariant violated: {context}")
            }
            TbonError::DeltaFold { node, message } => {
                write!(f, "incremental fold failed at node {node}: {message}")
            }
        }
    }
}

impl std::error::Error for TbonError {}

/// One tagged data stream entering the overlay at the leaves.
///
/// A channel owns its leaf packets — the network consumes them rather than cloning
/// them, so handing three channels to [`InProcessTbon::reduce_channels`] moves the
/// daemons' serialised trees into the reduction instead of copying them per pass.
#[derive(Clone, Debug)]
pub struct ChannelInput {
    /// Human-readable channel label, carried into error context.
    pub label: &'static str,
    /// One packet per back-end daemon, in [`Topology::backends`] order.
    pub leaves: Vec<Packet>,
}

impl ChannelInput {
    /// A channel from owned leaf packets.
    pub fn new(label: &'static str, leaves: Vec<Packet>) -> Self {
        ChannelInput { label, leaves }
    }
}

/// The result of one upward reduction (of one channel).
#[derive(Clone, Debug)]
pub struct ReductionOutcome {
    /// The channel this outcome belongs to.
    pub channel: &'static str,
    /// The packet that arrived at the front end.
    pub result: Packet,
    /// Cumulative time spent inside this channel's filter invocations, summed
    /// across tree nodes.  With more than one worker, invocations run
    /// concurrently, so this is CPU-style accounting and can exceed the elapsed
    /// wall time of the walk — time the walk itself for wall-clock numbers.
    pub filter_time: Duration,
    /// Number of filter invocations performed (one per internal node, including the
    /// front end).
    pub filter_invocations: usize,
    /// Bytes received by the front end from its children.
    pub frontend_bytes_in: u64,
    /// The largest number of bytes received by any single node — the hot spot the
    /// paper's Section V is concerned with.
    pub max_node_bytes_in: u64,
    /// Total bytes that crossed tree links (every packet counted once per hop).
    pub total_link_bytes: u64,
}

/// Per-channel running totals while a level walk is in flight.
#[derive(Clone, Default)]
struct ChannelAccounting {
    filter_invocations: usize,
    max_node_bytes_in: u64,
    total_link_bytes: u64,
    frontend_bytes_in: u64,
    filter_wall: Duration,
}

/// What one node produced for one channel: the output packet, the bytes it received
/// from its children on that channel, and the time its filter invocation took.
type NodeChannelResult = (Packet, u64, Duration);

/// One unit of level work: a node, a channel, and the owned child packets to reduce.
type InputWave = (EndpointId, usize, Vec<Packet>);

/// An in-process TBON bound to a concrete topology.
#[derive(Clone, Debug)]
pub struct InProcessTbon {
    topology: Topology,
    workers: Option<usize>,
}

impl InProcessTbon {
    /// Create a network over a topology, sized to the machine's parallelism.
    pub fn new(topology: Topology) -> Self {
        InProcessTbon {
            topology,
            workers: None,
        }
    }

    /// Override the worker count (default: the machine's available
    /// parallelism).  One worker means the walk runs inline on the calling
    /// thread, in deterministic node-major order.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers.max(1));
        self
    }

    /// The topology the network is bound to.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Link bytes a store-and-forward broadcast of `payload_bytes` from the
    /// front end to every other endpoint costs: one copy per tree edge.  Used
    /// to account for the one-time frame-dictionary broadcast at session setup.
    pub fn broadcast_link_bytes(&self, payload_bytes: u64) -> u64 {
        payload_bytes.saturating_mul(self.topology.len().saturating_sub(1) as u64)
    }

    /// Perform one upward reduction of a single channel.
    ///
    /// `leaf_payloads` supplies one packet per back-end daemon, in the same order as
    /// [`Topology::backends`].  A count mismatch returns
    /// [`TbonError::LeafCountMismatch`] — the caller's view of the job does not match
    /// the topology, which at scale is a diagnosis, not a programming error to die on.
    pub fn reduce(
        &self,
        leaf_payloads: Vec<Packet>,
        filter: &dyn Filter,
    ) -> Result<ReductionOutcome, TbonError> {
        let mut outcomes =
            self.reduce_channels(vec![ChannelInput::new("default", leaf_payloads)], &[filter])?;
        outcomes.pop().ok_or(TbonError::WalkInvariant {
            context: "one channel in, one outcome out",
        })
    }

    /// Carry several tagged channels up the tree in **one** bottom-up level walk.
    ///
    /// Every internal node is visited exactly once; at each visit it runs each
    /// channel's filter over that channel's child packets.  This is how the session
    /// front end merges the 2D tree, the 3D tree and the rank map without paying for
    /// three traversals of the overlay, and the per-channel accounting in the returned
    /// [`ReductionOutcome`]s is what the byte-flow figures are built from.
    ///
    /// The channels are consumed: leaf packets move into the reduction, they are not
    /// cloned per channel or per pass.  Each level's node×channel waves run through
    /// one `par_map`; a failing level reports its earliest failure in node-major
    /// order, whatever the schedule was.
    pub fn reduce_channels(
        &self,
        channels: Vec<ChannelInput>,
        filters: &[&dyn Filter],
    ) -> Result<Vec<ReductionOutcome>, TbonError> {
        if channels.is_empty() {
            return Err(TbonError::NoChannels);
        }
        if channels.len() != filters.len() {
            return Err(TbonError::FilterCountMismatch {
                channels: channels.len(),
                filters: filters.len(),
            });
        }

        let workers = self.workers.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        });
        self.walk_levels(channels, &mut |items| {
            par_map(items, workers, &|(id, channel, inputs)| {
                let filter = *filters.get(channel).ok_or(TbonError::WalkInvariant {
                    context: "wave queued for a channel with no filter",
                })?;
                let r = Self::reduce_one_caught(id, channel, inputs, filter)?;
                Ok((id, channel, r))
            })
        })
    }

    /// The one bottom-up level walk of the overlay: take one
    /// packet per back-end daemon on every channel, then level by level (skipping
    /// the leaves) build each node's owned input waves, hand them to `dispatch`,
    /// and absorb the results into the slot table and the per-channel accounting
    /// before moving up a level.  `dispatch` decides what happens at a node — the
    /// one-shot reduction runs the channel's filter, the incremental fold
    /// ([`crate::delta::IncrementalTbon::fold_wave`]) also folds the output into
    /// the node's resident state.
    ///
    /// Work items are (node, channel) waves so that, at narrow levels — ultimately
    /// the single front-end node — the channels themselves still run concurrently.
    /// Each wave *moves* its child packets out of the slot table (every child has
    /// exactly one parent), so no packet is ever cloned on its way up the tree and
    /// peak memory stays proportional to one level.
    ///
    /// Any failure — a wrong leaf count, a dead worker, a panicking filter, an
    /// empty slot that must be full — aborts the walk with a typed error instead
    /// of panicking.
    pub(crate) fn walk_levels(
        &self,
        channels: Vec<ChannelInput>,
        dispatch: &mut dyn FnMut(WaveBatch) -> BatchOutcome,
    ) -> Result<Vec<ReductionOutcome>, TbonError> {
        let backends = self.topology.backends();
        for channel in &channels {
            if channel.leaves.len() != backends.len() {
                return Err(TbonError::LeafCountMismatch {
                    channel: channel.label,
                    expected: backends.len(),
                    actual: channel.leaves.len(),
                });
            }
        }

        let labels: Vec<&'static str> = channels.iter().map(|c| c.label).collect();
        // Current packet produced by each endpoint, per channel, indexed by
        // endpoint id.
        let mut produced: Vec<Vec<Option<Packet>>> = channels
            .into_iter()
            .map(|channel| {
                let mut slots: Vec<Option<Packet>> = vec![None; self.topology.len()];
                for (&backend, packet) in backends.iter().zip(channel.leaves) {
                    // Backend ids index the topology that minted them; if that
                    // ever breaks, the walk reports the empty slot as a typed
                    // WalkInvariant instead of panicking here.
                    if let Some(slot) = slots.get_mut(backend.0 as usize) {
                        *slot = Some(packet);
                    }
                }
                slots
            })
            .collect();
        let mut accounting = vec![ChannelAccounting::default(); labels.len()];

        let levels = self.topology.levels();
        for level in (0..levels.len().saturating_sub(1)).rev() {
            let node_ids: Vec<EndpointId> = levels
                .get(level)
                .map(|ids| ids.as_slice())
                .unwrap_or(&[])
                .iter()
                .copied()
                .filter(|&id| self.topology.node(id).role != TreeNodeRole::BackEnd)
                .collect();
            // Node-major order: every channel fires at a node before the next node.
            let mut items: Vec<InputWave> = Vec::with_capacity(node_ids.len() * labels.len());
            for &id in &node_ids {
                for channel in 0..labels.len() {
                    let kids = &self.topology.node(id).children;
                    let mut inputs: Vec<Packet> = Vec::with_capacity(kids.len());
                    for &c in kids {
                        let packet = produced
                            .get_mut(channel)
                            .and_then(|slots| slots.get_mut(c.0 as usize))
                            .and_then(|slot| slot.take())
                            .ok_or(TbonError::WalkInvariant {
                                context: "child must have produced a packet before its parent runs",
                            })?;
                        inputs.push(packet);
                    }
                    items.push((id, channel, inputs));
                }
            }

            for (id, channel, (packet, bytes_in, wall)) in dispatch(items)? {
                let acc = accounting
                    .get_mut(channel)
                    .ok_or(TbonError::WalkInvariant {
                        context: "result arrived for a channel with no accounting",
                    })?;
                acc.filter_invocations += 1;
                acc.max_node_bytes_in = acc.max_node_bytes_in.max(bytes_in);
                acc.total_link_bytes += bytes_in;
                acc.filter_wall += wall;
                if id == self.topology.frontend() {
                    acc.frontend_bytes_in = bytes_in;
                }
                let slot = produced
                    .get_mut(channel)
                    .and_then(|slots| slots.get_mut(id.0 as usize))
                    .ok_or(TbonError::WalkInvariant {
                        context: "result arrived for a node outside the topology",
                    })?;
                *slot = Some(packet);
            }
        }

        let frontend = self.topology.frontend().0 as usize;
        let mut outcomes = Vec::with_capacity(accounting.len());
        for (channel, (acc, label)) in accounting.into_iter().zip(labels).enumerate() {
            let result = produced
                .get_mut(channel)
                .and_then(|slots| slots.get_mut(frontend))
                .and_then(|slot| slot.take())
                .ok_or(TbonError::WalkInvariant {
                    context: "front end must have produced a result for every channel",
                })?;
            outcomes.push(ReductionOutcome {
                channel: label,
                result,
                filter_time: acc.filter_wall,
                filter_invocations: acc.filter_invocations,
                frontend_bytes_in: acc.frontend_bytes_in,
                max_node_bytes_in: acc.max_node_bytes_in,
                total_link_bytes: acc.total_link_bytes,
            });
        }
        Ok(outcomes)
    }

    /// Run one channel's filter at one node over its owned input wave, fenced by
    /// `catch_unwind`: a panicking user filter becomes
    /// [`TbonError::FilterPanicked`] instead of unwinding through the walk (or a
    /// level's worker thread).
    pub(crate) fn reduce_one_caught(
        id: EndpointId,
        channel: usize,
        inputs: Vec<Packet>,
        filter: &dyn Filter,
    ) -> Result<NodeChannelResult, TbonError> {
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let bytes_in: u64 = inputs.iter().map(|p| p.size_bytes() as u64).sum();
            let start = Instant::now();
            let packet = filter.reduce(id, &inputs);
            (packet, bytes_in, start.elapsed())
        }))
        .map_err(|payload| TbonError::FilterPanicked {
            node: id.0,
            channel,
            message: panic_message(payload.as_ref()),
        })
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One level's node×channel waves handed to a dispatch, and what comes back.
pub(crate) type WaveBatch = Vec<InputWave>;
type BatchResults = Vec<(EndpointId, usize, NodeChannelResult)>;
/// A level's outcome: the results in wave order, or the typed error of the
/// earliest wave that failed.
pub(crate) type BatchOutcome = Result<BatchResults, TbonError>;

/// Pull the next item off a shared iterator.  A function rather than a closure
/// at the call site so the guard is gone before the caller runs its step; a
/// poisoned lock (a sibling died mid-`next`) reads as "no more work".
fn take_next<I: Iterator>(queue: &Mutex<I>) -> Option<I::Item> {
    queue.lock().ok()?.next()
}

/// Map `step` over `items` on up to `workers` scoped threads and return the
/// results in item order, or the error of the earliest item that failed.
///
/// Workers pull one item at a time from a shared iterator, so a slow item
/// delays only the worker running it; the scope's join is the barrier.  A
/// worker stops at its first error — items are handed out in order, so every
/// earlier item is already running or done and the earliest failure is always
/// observed.  A worker that died (a panic in `step` itself) is
/// [`TbonError::PoolPoisoned`].  One worker or one item runs inline on the
/// caller, in item order.
fn par_map<T: Send, R: Send>(
    items: Vec<T>,
    workers: usize,
    step: &(dyn Fn(T) -> Result<R, TbonError> + Sync),
) -> Result<Vec<R>, TbonError> {
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.into_iter().map(step).collect();
    }
    let mut done = Vec::with_capacity(items.len());
    let queue = Mutex::new(items.into_iter().enumerate());
    let joined: Vec<_> = std::thread::scope(|scope| {
        let spawned: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut mine = Vec::new();
                    while let Some((index, item)) = take_next(&queue) {
                        let result = step(item);
                        let failed = result.is_err();
                        mine.push((index, result));
                        if failed {
                            break;
                        }
                    }
                    mine
                })
            })
            .collect();
        spawned.into_iter().map(|worker| worker.join()).collect()
    });
    for worker in joined {
        done.extend(worker.map_err(|_| TbonError::PoolPoisoned {
            context: "running a level's waves",
        })?);
    }
    done.sort_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{IdentityFilter, SumFilter};
    use crate::packet::PacketTag;
    use crate::topology::TreeShape;
    use std::sync::Mutex;

    fn leaf_packets(topology: &Topology, value_of: impl Fn(usize) -> u64) -> Vec<Packet> {
        topology
            .backends()
            .iter()
            .enumerate()
            .map(|(i, &id)| Packet::new(PacketTag::Custom(9), id, SumFilter::encode(value_of(i))))
            .collect()
    }

    #[test]
    fn sum_reduction_over_flat_tree() {
        let topo = Topology::build(TreeShape::flat(32));
        let net = InProcessTbon::new(topo);
        let leaves = leaf_packets(net.topology(), |i| i as u64);
        let out = net.reduce(leaves, &SumFilter).unwrap();
        assert_eq!(SumFilter::decode(&out.result), (0..32).sum::<u64>());
        assert_eq!(out.filter_invocations, 1);
        assert_eq!(out.frontend_bytes_in, 32 * 8);
    }

    #[test]
    fn sum_reduction_is_topology_invariant() {
        let expected: u64 = (0..100u64).map(|i| i * 3 + 1).sum();
        for spec in [
            TreeShape::flat(100),
            TreeShape::two_deep(100, 10),
            TreeShape::three_deep(100, 4, 16),
        ] {
            let net = InProcessTbon::new(Topology::build(spec));
            let leaves = leaf_packets(net.topology(), |i| i as u64 * 3 + 1);
            let out = net.reduce(leaves, &SumFilter).unwrap();
            assert_eq!(SumFilter::decode(&out.result), expected);
        }
    }

    #[test]
    fn inline_and_pooled_walks_agree() {
        let topo = Topology::build(TreeShape::two_deep(64, 8));
        let seq = InProcessTbon::new(topo.clone()).with_workers(1);
        let par = InProcessTbon::new(topo).with_workers(4);
        let leaves_a = leaf_packets(seq.topology(), |i| (i * i) as u64);
        let leaves_b = leaf_packets(par.topology(), |i| (i * i) as u64);
        let a = seq.reduce(leaves_a, &SumFilter).unwrap();
        let b = par.reduce(leaves_b, &SumFilter).unwrap();
        assert_eq!(SumFilter::decode(&a.result), SumFilter::decode(&b.result));
        assert_eq!(a.filter_invocations, b.filter_invocations);
        assert_eq!(a.total_link_bytes, b.total_link_bytes);
    }

    #[test]
    fn identity_filter_exposes_the_flat_tree_hotspot() {
        // With no aggregation, a deeper tree does not reduce what the front end sees,
        // but it does reduce what any single *intermediate* node must absorb relative
        // to the flat tree's front end when payloads are large.
        let payload = vec![7u8; 1024];
        let flat = InProcessTbon::new(Topology::build(TreeShape::flat(64)));
        let deep = InProcessTbon::new(Topology::build(TreeShape::two_deep(64, 8)));
        let flat_out = flat
            .reduce(
                flat.topology()
                    .backends()
                    .iter()
                    .map(|&id| Packet::new(PacketTag::Custom(0), id, payload.clone()))
                    .collect(),
                &IdentityFilter,
            )
            .unwrap();
        let deep_out = deep
            .reduce(
                deep.topology()
                    .backends()
                    .iter()
                    .map(|&id| Packet::new(PacketTag::Custom(0), id, payload.clone()))
                    .collect(),
                &IdentityFilter,
            )
            .unwrap();
        assert_eq!(flat_out.result.size_bytes(), 64 * 1024);
        assert_eq!(deep_out.result.size_bytes(), 64 * 1024);
        assert_eq!(flat_out.max_node_bytes_in, 64 * 1024);
        // In the 2-deep tree each comm process absorbs 8 KiB and the front end 64 KiB,
        // so the max is still the front end — but total link bytes doubled because the
        // data crossed two hops.  Both facts matter for the Section V argument.
        assert_eq!(deep_out.total_link_bytes, 2 * 64 * 1024);
        assert!(deep_out.filter_invocations > flat_out.filter_invocations);
    }

    #[test]
    fn mismatched_leaf_count_is_an_error_with_context() {
        let net = InProcessTbon::new(Topology::build(TreeShape::flat(4)));
        let err = net.reduce(vec![], &SumFilter).unwrap_err();
        assert_eq!(
            err,
            TbonError::LeafCountMismatch {
                channel: "default",
                expected: 4,
                actual: 0,
            }
        );
        assert!(err.to_string().contains("4 back-end daemons"));
    }

    #[test]
    fn channel_and_filter_counts_must_agree() {
        let net = InProcessTbon::new(Topology::build(TreeShape::flat(2)));
        assert_eq!(
            net.reduce_channels(vec![], &[]).unwrap_err(),
            TbonError::NoChannels
        );
        let leaves = leaf_packets(net.topology(), |i| i as u64);
        let err = net
            .reduce_channels(vec![ChannelInput::new("only", leaves)], &[])
            .unwrap_err();
        assert_eq!(
            err,
            TbonError::FilterCountMismatch {
                channels: 1,
                filters: 0,
            }
        );
    }

    #[test]
    fn single_backend_tree_works() {
        let net = InProcessTbon::new(Topology::build(TreeShape::flat(1)));
        let leaves = leaf_packets(net.topology(), |_| 41);
        let out = net.reduce(leaves, &SumFilter).unwrap();
        assert_eq!(SumFilter::decode(&out.result), 41);
    }

    #[test]
    fn multi_channel_reduction_matches_independent_reductions() {
        let topo = Topology::build(TreeShape::two_deep(48, 6));
        let net = InProcessTbon::new(topo);
        let a = leaf_packets(net.topology(), |i| i as u64);
        let b = leaf_packets(net.topology(), |i| i as u64 * 10);
        let c = leaf_packets(net.topology(), |i| 1 + (i as u64 % 3));

        let separate: Vec<u64> = [a.clone(), b.clone(), c.clone()]
            .into_iter()
            .map(|leaves| SumFilter::decode(&net.reduce(leaves, &SumFilter).unwrap().result))
            .collect();

        let outcomes = net
            .reduce_channels(
                vec![
                    ChannelInput::new("a", a),
                    ChannelInput::new("b", b),
                    ChannelInput::new("c", c),
                ],
                &[&SumFilter, &SumFilter, &SumFilter],
            )
            .unwrap();
        let combined: Vec<u64> = outcomes
            .iter()
            .map(|o| SumFilter::decode(&o.result))
            .collect();
        assert_eq!(separate, combined);
        assert_eq!(outcomes[0].channel, "a");
        assert_eq!(outcomes[2].channel, "c");
        // Per-channel accounting matches a standalone reduction: 6 comm processes
        // plus the front end.
        for outcome in &outcomes {
            assert_eq!(outcome.filter_invocations, 7);
            assert!(outcome.total_link_bytes > 0);
        }
    }

    /// A filter that records the (node, channel) order of its invocations.
    struct TracingFilter {
        channel: &'static str,
        log: &'static Mutex<Vec<(&'static str, u32)>>,
    }

    impl Filter for TracingFilter {
        fn reduce(&self, node: EndpointId, inputs: &[Packet]) -> Packet {
            self.log.lock().unwrap().push((self.channel, node.0));
            IdentityFilter.reduce(node, inputs)
        }
    }

    /// What a caller can observe of one outcome, `filter_time` aside.
    fn observable(o: &ReductionOutcome) -> (Packet, usize, u64, u64, u64) {
        (
            o.result.clone(),
            o.filter_invocations,
            o.frontend_bytes_in,
            o.max_node_bytes_in,
            o.total_link_bytes,
        )
    }

    #[test]
    fn every_schedule_yields_the_inline_outcomes_on_at_most_workers_threads() {
        use simkit::rng::DeterministicRng;
        use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

        /// Sums like `SumFilter`, after pausing for a seed-derived 0–200 µs per
        /// (node, channel) so that every seed is a different schedule, and
        /// tracks how many invocations are in flight at once.  The pause is a
        /// sleep, not a spin: it gives the CPU away, so on a host with fewer
        /// cores than workers every worker still gets an invocation in flight.
        struct JitteredSum<'a> {
            seed: u64,
            channel: u64,
            in_flight: &'a AtomicUsize,
            peak: &'a AtomicUsize,
        }
        impl Filter for JitteredSum<'_> {
            fn reduce(&self, node: EndpointId, inputs: &[Packet]) -> Packet {
                self.peak
                    .fetch_max(self.in_flight.fetch_add(1, SeqCst) + 1, SeqCst);
                let stream = (u64::from(node.0) << 1) | self.channel;
                let pause = DeterministicRng::new(self.seed)
                    .fork(stream)
                    .uniform_usize(0, 201);
                std::thread::sleep(Duration::from_micros(pause as u64));
                let out = SumFilter.reduce(node, inputs);
                self.in_flight.fetch_sub(1, SeqCst);
                out
            }
        }

        for shape in [
            TreeShape::uniform_with_depth(64, 2, 5),
            TreeShape::two_deep(64, 8),
        ] {
            let topo = Topology::build(shape);
            for seed in 0..16u64 {
                let run = |workers: usize| {
                    let (in_flight, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
                    let filter = |channel| JitteredSum {
                        seed,
                        channel,
                        in_flight: &in_flight,
                        peak: &peak,
                    };
                    let net = InProcessTbon::new(topo.clone()).with_workers(workers);
                    let outcomes = net
                        .reduce_channels(
                            vec![
                                ChannelInput::new("a", leaf_packets(&topo, |i| i as u64 + seed)),
                                ChannelInput::new("b", leaf_packets(&topo, |i| (i * i) as u64)),
                            ],
                            &[&filter(0), &filter(1)],
                        )
                        .unwrap();
                    let seen: Vec<_> = outcomes.iter().map(observable).collect();
                    (seen, peak.load(SeqCst))
                };
                let (expected, inline_peak) = run(1);
                assert_eq!(inline_peak, 1);
                for workers in [1usize, 2, 3, 8, 64] {
                    let (seen, peak) = run(workers);
                    assert_eq!(seen, expected, "seed {seed}, {workers} workers");
                    assert!(
                        peak <= workers,
                        "seed {seed}: {peak} invocations in flight on {workers} workers"
                    );
                }
            }
        }
    }

    #[test]
    fn the_earliest_failing_node_is_reported_whatever_the_schedule() {
        /// Panics at `late` after a pause and at `early` at once; sums elsewhere.
        struct TwoFailures {
            late: EndpointId,
            early: EndpointId,
        }
        impl Filter for TwoFailures {
            fn reduce(&self, node: EndpointId, inputs: &[Packet]) -> Packet {
                if node == self.late {
                    // The verdict below does not depend on this pause; it only
                    // makes sure the other failure has long been reported by
                    // the time this one is, on any host.
                    std::thread::sleep(Duration::from_millis(50));
                    panic!("first comm process");
                }
                if node == self.early {
                    panic!("last comm process");
                }
                SumFilter.reduce(node, inputs)
            }
        }

        let topo = Topology::build(TreeShape::two_deep(16, 4));
        let comm = topo.levels()[1].clone();
        let (first, last) = (comm[0], comm[comm.len() - 1]);
        for workers in [4usize, 1] {
            let net = InProcessTbon::new(topo.clone()).with_workers(workers);
            let filter = TwoFailures {
                late: first,
                early: last,
            };
            let err = net
                .reduce(leaf_packets(&topo, |i| i as u64), &filter)
                .unwrap_err();
            match err {
                TbonError::FilterPanicked { node, .. } => {
                    assert_eq!(node, first.0, "{workers} workers")
                }
                other => panic!("expected FilterPanicked, got {other:?}"),
            }
        }
    }

    #[test]
    fn results_land_in_item_order_whatever_the_interleaving() {
        use std::sync::atomic::{AtomicBool, Ordering::SeqCst};
        // Items 0 and 1 rendezvous, so they are on different workers; 0 then
        // waits for 2 to start and 2 for 3, which leaves one worker holding
        // [0, 3] and the other [1, 2] — neither join order is item order.
        let started: [AtomicBool; 4] = Default::default();
        let meet = std::sync::Barrier::new(2);
        let wait_for = |item: usize| {
            while !started[item].load(SeqCst) {
                std::thread::yield_now();
            }
        };
        let out = par_map(vec![0usize, 1, 2, 3], 2, &|item| {
            started[item].store(true, SeqCst);
            match item {
                0 => {
                    meet.wait();
                    wait_for(2);
                }
                1 => {
                    meet.wait();
                }
                2 => wait_for(3),
                _ => {}
            }
            Ok(item)
        });
        assert_eq!(out.unwrap(), [0, 1, 2, 3]);
    }

    #[test]
    fn a_worker_dying_outside_the_fence_is_a_typed_error() {
        let items = || (0..16u32).collect::<Vec<_>>();
        for workers in [2usize, 8] {
            let err = par_map(items(), workers, &|i| {
                if i == 5 {
                    panic!("step died");
                }
                Ok(i)
            })
            .unwrap_err();
            assert!(matches!(err, TbonError::PoolPoisoned { .. }), "{err:?}");
            // The caller's thread is intact: the next map runs and is in order.
            assert_eq!(par_map(items(), workers, &|i| Ok(i * 2)).unwrap()[15], 30);
        }
        for workers in [1usize, 2, 3, 8, 64] {
            let err = par_map(items(), workers, &|i| match i {
                3 | 11 => Err(TbonError::DeltaFold {
                    node: i,
                    message: String::new(),
                }),
                _ => Ok(i),
            })
            .unwrap_err();
            assert!(
                matches!(err, TbonError::DeltaFold { node: 3, .. }),
                "{workers} workers: {err:?}"
            );
        }
    }

    /// A filter that panics at every invocation.
    struct PanickingFilter;
    impl Filter for PanickingFilter {
        fn reduce(&self, _node: EndpointId, _inputs: &[Packet]) -> Packet {
            panic!("malformed wave");
        }
    }

    #[test]
    fn a_panicking_filter_surfaces_as_a_typed_error_from_the_pool() {
        // A filter that dies on a malformed wave must surface as Err from
        // reduce_channels — not strand the level barrier in a deadlock, and not
        // abort the front end by unwinding through it.  Forcing 4 workers
        // exercises the threaded path even on a single-CPU host.
        let net = InProcessTbon::new(Topology::build(TreeShape::two_deep(16, 4))).with_workers(4);
        let leaves = leaf_packets(net.topology(), |i| i as u64);
        let err = net
            .reduce(leaves, &PanickingFilter)
            .expect_err("the filter panic must surface as an error");
        match &err {
            TbonError::FilterPanicked {
                channel, message, ..
            } => {
                assert_eq!(*channel, 0);
                assert!(message.contains("malformed wave"), "{message}");
            }
            other => panic!("expected FilterPanicked, got {other:?}"),
        }
        assert!(err.to_string().contains("panicked at node"));
        // The network object is still usable afterwards: the failed level's
        // workers were joined and a fresh walk spawns its own.
        let leaves = leaf_packets(net.topology(), |i| i as u64);
        let out = net.reduce(leaves, &SumFilter).unwrap();
        assert_eq!(SumFilter::decode(&out.result), (0..16).sum::<u64>());
    }

    #[test]
    fn a_panicking_filter_surfaces_as_a_typed_error_inline() {
        // One worker runs inline on the caller; it must report the same typed
        // error, keeping the two paths behaviourally identical.
        let net = InProcessTbon::new(Topology::build(TreeShape::flat(4))).with_workers(1);
        let leaves = leaf_packets(net.topology(), |i| i as u64);
        let err = net.reduce(leaves, &PanickingFilter).unwrap_err();
        assert!(matches!(err, TbonError::FilterPanicked { .. }), "{err:?}");
    }

    #[test]
    fn one_bad_channel_does_not_take_down_its_siblings_diagnosis() {
        // Multi-channel walk where one channel's filter panics: the error names
        // the offending channel index, which at 208K cores is the difference
        // between "the tool crashed" and "channel 1's filter is broken".
        let net = InProcessTbon::new(Topology::build(TreeShape::two_deep(16, 4))).with_workers(2);
        let good = leaf_packets(net.topology(), |i| i as u64);
        let bad = leaf_packets(net.topology(), |i| i as u64);
        let err = net
            .reduce_channels(
                vec![
                    ChannelInput::new("good", good),
                    ChannelInput::new("bad", bad),
                ],
                &[&SumFilter, &PanickingFilter],
            )
            .unwrap_err();
        match err {
            TbonError::FilterPanicked { channel, .. } => assert_eq!(channel, 1),
            other => panic!("expected FilterPanicked, got {other:?}"),
        }
    }

    #[test]
    fn forced_worker_counts_agree_with_the_inline_walk() {
        let topo = Topology::build(TreeShape::two_deep(64, 8));
        let seq = InProcessTbon::new(topo.clone()).with_workers(1);
        let expected = {
            let leaves = leaf_packets(seq.topology(), |i| (i * 7) as u64);
            SumFilter::decode(&seq.reduce(leaves, &SumFilter).unwrap().result)
        };
        for workers in [1usize, 2, 3, 8, 64] {
            let net = InProcessTbon::new(topo.clone()).with_workers(workers);
            let leaves = leaf_packets(net.topology(), |i| (i * 7) as u64);
            let out = net.reduce(leaves, &SumFilter).unwrap();
            assert_eq!(
                SumFilter::decode(&out.result),
                expected,
                "{workers} workers"
            );
            assert_eq!(out.filter_invocations, 9);
        }
    }

    #[test]
    fn reduce_channels_performs_one_level_walk_for_all_channels() {
        // One worker gives a deterministic invocation order.  A single-pass walk
        // is node-major: every channel fires at a node before the walk moves to the
        // next node.  Three sequential `reduce` calls would instead be channel-major
        // (all of channel 0's nodes, then all of channel 1's...).
        static LOG: Mutex<Vec<(&'static str, u32)>> = Mutex::new(Vec::new());
        LOG.lock().unwrap().clear();

        let topo = Topology::build(TreeShape::two_deep(8, 2));
        let net = InProcessTbon::new(topo).with_workers(1);
        let make = || {
            net.topology()
                .backends()
                .iter()
                .map(|&id| Packet::new(PacketTag::Custom(0), id, vec![1u8]))
                .collect::<Vec<_>>()
        };
        let first = TracingFilter {
            channel: "first",
            log: &LOG,
        };
        let second = TracingFilter {
            channel: "second",
            log: &LOG,
        };
        net.reduce_channels(
            vec![
                ChannelInput::new("first", make()),
                ChannelInput::new("second", make()),
            ],
            &[&first, &second],
        )
        .unwrap();

        let log = LOG.lock().unwrap();
        // 3 internal nodes (2 comm processes + front end) × 2 channels.
        assert_eq!(log.len(), 6);
        for pair in log.chunks(2) {
            assert_eq!(
                pair[0].1, pair[1].1,
                "both channels must fire at a node before the walk moves on: {log:?}"
            );
            assert_eq!(pair[0].0, "first");
            assert_eq!(pair[1].0, "second");
        }
    }
}
