//! An in-process, thread-parallel TBON that really executes reductions.
//!
//! The figure generators use the analytic [`crate::cost`] model to reason about
//! 212,992-task configurations, but the tool itself — and the integration tests, the
//! examples and the real-execution benchmarks — run their reductions through this
//! network: every communication process and daemon position in the topology is
//! materialised, every filter invocation really happens on real serialised payloads,
//! and nodes at the same tree level run concurrently on a thread pool, mirroring how
//! the real MRNet processes run concurrently on different hosts.
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

use std::collections::VecDeque;
use std::fmt;
use std::sync::mpsc;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::filter::Filter;
use crate::packet::{EndpointId, Packet};
use crate::topology::{Topology, TreeNodeRole};

/// Errors the in-process network reports instead of panicking.
///
/// A mismatch between the caller's view of the job and the topology used to be an
/// `assert_eq!`; at 208K cores "the tool crashed" and "one daemon dropped out" are
/// very different diagnoses, so the network now returns the context instead.
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
    /// The reduction pool's queue lock or results channel was poisoned by a
    /// worker failure.  The walk aborts with this instead of unwrapping the
    /// poison and taking the whole session down.
    PoolPoisoned {
        /// What the pool was doing when the poisoning surfaced.
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
                write!(f, "reduction pool poisoned while {context}")
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

    /// Override the worker-pool size (default: the machine's available
    /// parallelism).  The pool is still capped at the widest level's wave count —
    /// more workers than waves can never help — and one worker means the walk runs
    /// inline on the calling thread, in deterministic node-major order.
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
    /// cloned per channel or per pass.
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

        // With more than one worker, one pool serves the entire walk: workers are
        // spawned once, each level's waves are queued as batches, and the per-level
        // barrier is the arrival of that level's results — no threads are spawned
        // (or joined) per level.  There is never a point in more workers than the
        // widest level has waves, and a single worker runs the walk inline without
        // the pool machinery.
        let widest_wave = self
            .topology
            .levels()
            .split_last()
            .map(|(_, above_leaves)| above_leaves)
            .unwrap_or(&[])
            .iter()
            .map(|ids| {
                ids.iter()
                    .filter(|&&id| self.topology.node(id).role != TreeNodeRole::BackEnd)
                    .count()
            })
            .max()
            .unwrap_or(0)
            * filters.len();
        let workers = self
            .workers
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            })
            .min(widest_wave);
        if workers > 1 {
            let queue = (Mutex::new(PoolQueue::default()), Condvar::new());
            std::thread::scope(|scope| {
                let pool = WorkerPool::spawn(scope, workers, filters, &queue);
                self.walk_levels(channels, &mut |items| pool.run_level(items))
            })
        } else {
            self.walk_levels(channels, &mut |items| reduce_batch(items, filters))
        }
    }

    /// The one bottom-up level walk of the overlay, pooled or inline: take one
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
    /// Any failure — a wrong leaf count, a poisoned pool, a panicking filter, an
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
    /// pooled worker).
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

/// A batch of node×channel waves queued for the pool, and what comes back.
pub(crate) type WaveBatch = Vec<InputWave>;
type BatchResults = Vec<(EndpointId, usize, NodeChannelResult)>;
/// A batch outcome: the results, or the typed error of the first wave that failed
/// (a panicking filter is caught in the worker and converted, so a bad filter can
/// neither strand the level barrier nor abort the process).
pub(crate) type BatchOutcome = Result<BatchResults, TbonError>;

/// Run every wave of a batch through its channel's filter, stopping at the first
/// failure — the one place a filter is invoked, inline or on a pooled worker.
fn reduce_batch(batch: WaveBatch, filters: &[&dyn Filter]) -> BatchOutcome {
    batch
        .into_iter()
        .map(|(id, channel, inputs)| {
            let filter = *filters.get(channel).ok_or(TbonError::WalkInvariant {
                context: "wave queued for a channel with no filter",
            })?;
            let r = InProcessTbon::reduce_one_caught(id, channel, inputs, filter)?;
            Ok((id, channel, r))
        })
        .collect()
}

/// The queue the pool's workers pull from.
#[derive(Default)]
struct PoolQueue {
    batches: VecDeque<WaveBatch>,
    shutdown: bool,
}

/// A pool of reduction workers serving every level of one reduction walk.
///
/// Workers are spawned once (scoped, so they may borrow the filters) and block on a
/// shared queue; [`WorkerPool::run_level`] enqueues one level's waves in batches and
/// waits for exactly that many result batches — the level barrier — leaving the
/// workers parked, not joined, for the next level.  Batching several node×channel
/// invocations per queue item keeps queue traffic low on wide levels.
struct WorkerPool<'scope> {
    queue: &'scope (Mutex<PoolQueue>, Condvar),
    results: mpsc::Receiver<BatchOutcome>,
    workers: usize,
}

impl<'scope> WorkerPool<'scope> {
    /// Spawn `workers` scoped workers that serve `filters` until the pool is
    /// dropped.  `queue` must be allocated outside the scope (it outlives the
    /// workers).
    fn spawn<'env>(
        scope: &'scope std::thread::Scope<'scope, 'env>,
        workers: usize,
        filters: &'env [&'env dyn Filter],
        queue: &'env (Mutex<PoolQueue>, Condvar),
    ) -> WorkerPool<'scope>
    where
        'env: 'scope,
    {
        let workers = workers.max(1);
        let (tx, rx) = mpsc::channel::<BatchOutcome>();
        for _ in 0..workers {
            let tx = tx.clone();
            scope.spawn(move || {
                let (lock, available) = queue;
                loop {
                    let batch = {
                        // A poisoned queue means another thread already failed;
                        // this worker just leaves — the caller observes the
                        // failure as PoolPoisoned when the level's results stop
                        // arriving, instead of a second panic here.
                        let Ok(mut q) = lock.lock() else { return };
                        loop {
                            if let Some(batch) = q.batches.pop_front() {
                                break batch;
                            }
                            if q.shutdown {
                                return;
                            }
                            let Ok(woken) = available.wait(q) else { return };
                            q = woken;
                        }
                    };
                    // Each wave's filter invocation is fenced by catch_unwind in
                    // reduce_one_caught: a panicking filter becomes a typed
                    // FilterPanicked error shipped back through the results
                    // channel, so the caller at the level barrier always hears
                    // the outcome.
                    if tx.send(reduce_batch(batch, filters)).is_err() {
                        return;
                    }
                }
            });
        }
        WorkerPool {
            queue,
            results: rx,
            workers,
        }
    }

    /// Reduce one level's waves on the pool and wait for all of them — the
    /// per-level barrier of the bottom-up walk.
    ///
    /// A failed wave (panicking filter, poisoned queue) surfaces as the typed
    /// error of the first failure; the remaining batches are still drained so no
    /// worker is left blocked on a channel nobody reads.
    fn run_level(&self, items: WaveBatch) -> BatchOutcome {
        if items.is_empty() {
            return Ok(Vec::new());
        }
        // A few batches per worker balances load without flooding the queue.
        let batch_size = items.len().div_ceil(self.workers * 4).max(1);
        let mut pending = 0usize;
        {
            let (lock, available) = self.queue;
            let mut q = lock.lock().map_err(|_| TbonError::PoolPoisoned {
                context: "enqueueing a level's waves",
            })?;
            let mut items = items.into_iter();
            loop {
                let batch: WaveBatch = items.by_ref().take(batch_size).collect();
                if batch.is_empty() {
                    break;
                }
                q.batches.push_back(batch);
                pending += 1;
            }
            drop(q);
            available.notify_all();
        }
        let mut out: BatchResults = Vec::new();
        let mut first_err: Option<TbonError> = None;
        for _ in 0..pending {
            match self.results.recv() {
                Ok(Ok(results)) => out.extend(results),
                Ok(Err(err)) => {
                    // Keep draining: the other batches are still in flight and
                    // their workers must not block on an abandoned channel.
                    first_err.get_or_insert(err);
                }
                Err(_) => {
                    // Every worker hung up mid-level: a thread died outside the
                    // catch_unwind fence (or the queue poisoned under it).
                    first_err.get_or_insert(TbonError::PoolPoisoned {
                        context: "waiting for a level's results",
                    });
                    break;
                }
            }
        }
        match first_err {
            Some(err) => Err(err),
            None => Ok(out),
        }
    }
}

impl Drop for WorkerPool<'_> {
    fn drop(&mut self) {
        let (lock, available) = self.queue;
        // Never panic in Drop: a poisoned queue still carries a usable shutdown
        // flag, so strip the poison and set it — the workers must be released
        // for the enclosing thread::scope to join them.
        let mut q = match lock.lock() {
            Ok(q) => q,
            Err(poisoned) => poisoned.into_inner(),
        };
        q.shutdown = true;
        drop(q);
        available.notify_all();
    }
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

    #[test]
    fn level_parallel_reuses_one_worker_pool_across_levels() {
        // A filter that records the thread of every invocation.  With one pool
        // reused for the whole walk, the set of distinct worker threads is bounded
        // by the machine's parallelism however many levels the tree has (and never
        // includes the caller); per-level spawning would parade fresh threads past
        // every level.
        struct ThreadRecorder {
            threads: &'static Mutex<Vec<std::thread::ThreadId>>,
        }
        impl Filter for ThreadRecorder {
            fn reduce(&self, node: EndpointId, inputs: &[Packet]) -> Packet {
                self.threads
                    .lock()
                    .unwrap()
                    .push(std::thread::current().id());
                SumFilter.reduce(node, inputs)
            }
        }
        static THREADS: Mutex<Vec<std::thread::ThreadId>> = Mutex::new(Vec::new());
        THREADS.lock().unwrap().clear();

        let topo = Topology::build(TreeShape::uniform_with_depth(64, 2, 5));
        let net = InProcessTbon::new(topo).with_workers(4);
        let leaves = leaf_packets(net.topology(), |i| i as u64);
        let recorder = ThreadRecorder { threads: &THREADS };
        let out = net.reduce(leaves, &recorder).unwrap();
        assert_eq!(SumFilter::decode(&out.result), (0..64).sum::<u64>());

        let threads: std::collections::HashSet<std::thread::ThreadId> =
            THREADS.lock().unwrap().iter().copied().collect();
        assert!(
            threads.len() <= 4,
            "expected at most 4 pooled workers, saw {} distinct threads",
            threads.len()
        );
        assert!(!threads.contains(&std::thread::current().id()));
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
        // exercises the pooled path even on a single-CPU host.
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
        // The network object is still usable afterwards: the pool shut down
        // cleanly and a fresh walk spawns a fresh pool.
        let leaves = leaf_packets(net.topology(), |i| i as u64);
        let out = net.reduce(leaves, &SumFilter).unwrap();
        assert_eq!(SumFilter::decode(&out.result), (0..16).sum::<u64>());
    }

    #[test]
    fn a_panicking_filter_surfaces_as_a_typed_error_inline() {
        // One worker takes the non-pooled dispatch path; it must report the same
        // typed error, keeping the two paths behaviourally identical.
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
