//! Continuous streaming sessions: wave-based delta gather and temporal merge.
//!
//! A one-shot [`Session::attach`] samples the job once and exits.  A *streaming*
//! session stays attached for the life of the job and samples in **waves**:
//! every wave each daemon gathers a fresh window of traces, reduces the wave's
//! view through the overlay for an up-to-date per-wave [`Diagnosis`], and ships
//! a [`PacketTag::TreeDelta`] — the difference between its wave tree and the
//! last acknowledged cumulative state — so the job-wide *temporal* 3D tree is
//! maintained incrementally instead of being re-reduced from scratch.
//!
//! Per-wave lifecycle (one [`StreamingSession::advance`] call):
//!
//! 1. **Faults due this wave** are applied first: pruned daemons drop out of all
//!    subsequent waves, the overlay is rebuilt over the survivors and their
//!    cumulative trees re-seed the fresh resident state.  A prune that leaves no
//!    viable session is a typed [`StatError::SessionNotViable`].
//! 2. **Gather**: the surviving daemons run side by side, through the one daemon
//!    map [`Session::attach`] runs: each samples its ranks at the global sample
//!    clock (`wave × samples_per_wave`) into its local trees, which it keeps
//!    from wave to wave: one arena every trace descends once, with a 2D and a 3D
//!    label column.  The wave opens an epoch, so the walk resets only the rows of
//!    the nodes it reaches and ships the packets fresh trees would.  The 3D
//!    nodes it reached then give the delta: those whose row has members the
//!    daemon's cumulative row lacks, or that the wave created, with the
//!    ancestors that reach them, labelled with the new members only; the fold
//!    ORs those members into the cumulative rows.  Nothing else of the arena is
//!    visited, and a quiescent wave re-encodes nothing.
//! 3. **Wave reduction**: the wave's 2D/3D trees (and rank map) ride the
//!    ordinary single-pass multi-channel reduction, producing the wave's
//!    [`GatherResult`]-derived diagnosis, behaviour-class count and phase
//!    timings.
//! 4. **Delta fold**: the per-daemon deltas ride the incremental path
//!    ([`tbon::delta::IncrementalTbon`]); interior nodes merge child deltas with
//!    the ordinary merge filter and forward the result, keeping nothing, and
//!    the front end alone folds it into its resident tree, which therefore
//!    always equals one batched merge of everything seen so far (the
//!    equivalence `tests/streaming.rs` pins down).  Each delta numbers its own
//!    frames past the negotiated base; the resident keeps the first delta's ids
//!    and brings each later delta's into them by name.
//!    A daemon's delta is byte for byte what [`PrefixTree::delta_from`] makes of
//!    a fresh wave tree against a cumulative tree built by
//!    [`PrefixTree::merge_aligned`]; that pair stays as the tests' oracle and the
//!    benchmark's replay.
//! 5. **Judgement**: the diagnosis is checked against the wave source's ground
//!    truth for that wave, giving verdict *latency* — the number of waves
//!    between a fault first appearing and a stable correct verdict — a
//!    machine-checkable meaning.
//!
//! A scenario's mid-tree faults ([`Session::stream_scenario`]) are aimed at the
//! current tree every wave and corrupt steps 1, 3 and 4 through the one
//! [`CorruptingFilter`] wrapper a one-shot gather uses.
//!
//! So a wave walks the overlay twice, and only the walk of step 3 — the wave's
//! *own* view — feeds the verdict.  The resident tree of step 4 cannot: it is
//! cumulative, so once a fault strikes it still holds the faulty ranks' paths
//! from the healthy waves, and those ranks show up in the healthy class as well
//! as their own.  (Probed: ring hang at wave 2, 64 tasks, dense — judged from
//! the resident tree, every post-fault wave fails `clean-separation`.)
//!
//! [`Session::attach`]: crate::session::Session::attach
//! [`Session::stream_scenario`]: crate::session::Session::stream_scenario
//! [`PacketTag::TreeDelta`]: tbon::packet::PacketTag::TreeDelta
//! [`GatherResult`]: crate::frontend::GatherResult

use std::marker::PhantomData;
use std::ops::Range;
use std::time::{Duration, Instant};

use appsim::scenario::{Diagnosis, MidTreeFault, OverlayFault, Verdict};
use appsim::{Application, WaveSource};
use stackwalk::{FrameDictionary, FrameId, FrameTable};
use tbon::delta::{IncrementalTbon, ResidentState, StateFactory, WaveOutcome};
use tbon::fault::CorruptingFilter;
use tbon::filter::Filter;
use tbon::network::{InProcessTbon, TbonError};
use tbon::packet::{Packet, PacketTag};
use tbon::topology::{Topology, TreeShape};

use crate::daemon::{map_daemons, DaemonContribution, LocalTrees, Rows, StatDaemon};
use crate::error::StatError;
use crate::frontend::Representation;
use crate::graph::PrefixTree;
use crate::scenario::{diagnose, prune_overlay, resolve_filter_faults};
use crate::serialize::{
    decode_named, decode_tree, encode_merged_tree, encode_ordered, links, Numbering, WireFrames,
    WireTaskSet,
};
use crate::session::{PhaseTimings, Session};
use crate::taskset::{DenseBitVector, SubtreeTaskList};

/// A tree reduced to a representation-independent, order-independent shape:
/// one `(path of frame names, member tasks)` entry per node, sorted.  Two trees
/// with equal canonical forms describe the same merged state even when their
/// arenas, frame ids or child orders differ.
pub type CanonicalTree = Vec<(Vec<String>, Vec<u64>)>;

fn canonical<'n, S: WireTaskSet>(
    tree: &PrefixTree<S>,
    name: impl Fn(FrameId) -> &'n str,
) -> CanonicalTree {
    let mut out: CanonicalTree = (0..tree.node_count())
        .map(|node| {
            let path: Vec<String> = tree
                .path_to(node)
                .into_iter()
                .map(|f| name(f).to_string())
                .collect();
            (path, tree.tasks(node).members())
        })
        .collect();
    out.sort();
    out
}

/// The front end's resident state: a rolling merged tree plus the names of
/// its frames past the negotiated base.  The first delta's ids are the
/// resident's; a later delta's own frames are brought into them by name
/// (`decode_named`), and base ids stay, so folding is id-aligned merging.
/// Public (opaque) so benchmarks can drive the production fold through
/// [`tbon::delta::IncrementalTbon`] directly.
pub struct TreeResident<S: WireTaskSet>(Option<(PrefixTree<S>, WireFrames)>);

impl<S: WireTaskSet> ResidentState for TreeResident<S> {
    fn fold(&mut self, delta: &Packet) -> Result<(), String> {
        let payload = &delta.payload;
        match self.0.as_mut() {
            // An empty control packet: nothing reached this node this wave.
            _ if payload.is_empty() => {}
            None => self.0 = Some(decode_tree(payload).map_err(|e| e.to_string())?),
            Some((tree, frames)) => {
                let base_len = frames.base_len();
                let decoded = decode_named::<S>(payload, base_len, |name| frames.id_of(name));
                let decoded = decoded.map_err(|e| e.to_string())?;
                if tree.width() != decoded.width() {
                    return Err(format!(
                        "delta domain {} does not match resident domain {}",
                        decoded.width(),
                        tree.width()
                    ));
                }
                tree.merge_aligned(decoded);
            }
        }
        Ok(())
    }

    fn resident_bytes(&self) -> usize {
        let resident = self.0.as_ref();
        resident.map_or(0, |(tree, frames)| encode_merged_tree(tree, frames).len())
    }
}

/// Factory handing [`TreeResident`] states to the incremental overlay — the
/// state every streaming session's [`tbon::delta::IncrementalTbon`] runs on.
pub struct TreeResidentFactory<S>(PhantomData<S>);

impl<S> TreeResidentFactory<S> {
    /// A new factory.
    pub fn new() -> Self {
        TreeResidentFactory(PhantomData)
    }
}

impl<S> Default for TreeResidentFactory<S> {
    fn default() -> Self {
        Self::new()
    }
}

impl<S: WireTaskSet> StateFactory for TreeResidentFactory<S> {
    type State = TreeResident<S>;
    fn new_state(&self) -> TreeResident<S> {
        TreeResident(None)
    }
}

/// One daemon's persistent streaming state: its rank slice; its local trees,
/// whose arena (with the frame table its ids index) holds every node any wave
/// reached and which each wave walks into under a new epoch; per arena node a
/// row of every task that has reached it so far (the cumulative tree its deltas
/// are computed against); and that tree's packet length, encoded again only
/// when a wave adds to it (0 before the first wave).
struct DaemonStream<S: WireTaskSet> {
    daemon: StatDaemon,
    trees: LocalTrees<S>,
    cumulative: Rows,
    full_bytes: u64,
}

impl<S: WireTaskSet> DaemonStream<S> {
    /// The cumulative tree's packet body over `dict`'s base: the arena in index
    /// order, each node labelled with every task that has reached it.
    fn encode_cumulative(&self, dict: &FrameDictionary) -> Vec<u8> {
        let (trees, rows) = (&self.trees, |node| self.cumulative.row(node));
        let (links, own) = (links(&trees.tree), &mut Numbering::default());
        encode_ordered::<S>(trees.width, links, rows, (&trees.table, dict), own)
    }

    /// Fold the wave's closed 3D tree into the cumulative rows, and encode its
    /// delta over `dict`'s base: in first-touch order, the root, every node the
    /// wave reached whose row adds members (and every node it created), and the
    /// ancestors that reach them, each labelled with only the members it adds,
    /// which is what [`PrefixTree::delta_from`] ships.  Returns the delta and
    /// whether it added anything.
    fn fold_delta(&mut self, dict: &FrameDictionary) -> (Vec<u8>, bool) {
        let (trees, cumulative) = (&self.trees, &mut self.cumulative);
        let column = trees.column_3d();
        // The members a reached node's wave row adds over its cumulative row.
        let added = |node| {
            let seen = cumulative.row(node).iter().chain(std::iter::repeat(&0));
            column.row(node).iter().zip(seen).map(|(w, s)| w & !s)
        };
        let adds = |node| node >= trees.fresh_from || added(node).any(|w| w != 0);
        let mut kept: Vec<bool> = column.touched.iter().map(|&node| adds(node)).collect();
        let changed = kept.contains(&true);
        // The root always ships, and (children first) a kept node keeps its parent.
        if let Some(root) = kept.first_mut() {
            *root = true;
        }
        for (at, &node) in column.touched.iter().enumerate().rev() {
            if kept.get(at) == Some(&true) {
                if let Some(parent) = kept.get_mut(column.link(&trees.tree, node).0) {
                    *parent = true;
                }
            }
        }
        // The kept nodes renumbered in first-touch order, with their links and rows.
        let (mut places, mut links, mut rows) = (Vec::new(), Vec::new(), Rows::new(trees.wps));
        for ((at, &node), &keep) in column.touched.iter().enumerate().zip(&kept) {
            places.push(rows.len());
            if keep {
                let (parent, frame) = column.link(&trees.tree, node);
                if at > 0 {
                    links.push((places.get(parent).copied().unwrap_or(0), frame));
                }
                rows.push(added(node));
            }
        }
        let (rows, own) = (|place| rows.row(place), &mut Numbering::default());
        let at = (&trees.table, dict);
        let delta = encode_ordered::<S>(trees.width, links.into_iter(), rows, at, own);

        cumulative.grow(trees.tree.node_count());
        for (&node, _) in column.touched.iter().zip(&kept).filter(|(_, &keep)| keep) {
            let wave = column.row(node).iter();
            cumulative
                .row_mut(node)
                .iter_mut()
                .zip(wave)
                .for_each(|(s, w)| *s |= w);
        }
        (delta, changed)
    }
}

/// What a [`StreamingSession`] asks of its representation-typed core.  The
/// representation is matched once, when [`StreamingBuilder::open`] boxes a
/// [`StreamCore`]; every wave after that goes through this object-safe surface.
trait WaveStream: Send + Sync {
    /// Drop the daemons whose surviving ordinal is not in `keep` (ascending),
    /// record their ranks as lost, and re-seed a fresh incremental overlay over
    /// `topology` by folding each survivor's full cumulative tree as a delta
    /// against empty state.  Returns the bytes the re-seed shipped at the leaves.
    fn rebuild(
        &mut self,
        keep: &[usize],
        lost_ranks: &mut Vec<u64>,
        topology: &Topology,
        filter: &dyn Filter,
    ) -> Result<u64, StatError>;

    /// Sample `window` on the survivors through the daemon map `attach` runs,
    /// each into its own local trees, and fold each wave into the daemon's
    /// cumulative tree: the contributions, the deltas and the bytes of the full
    /// cumulative trees.  Every survivor
    /// emits a delta (a quiescent daemon its root-only empty tree), which keeps
    /// hierarchical domain offsets stable at every merge above it.
    fn gather_wave(
        &mut self,
        app: &dyn Application,
        window: Range<u32>,
        net: &InProcessTbon,
    ) -> Result<(Vec<DaemonContribution>, Vec<Packet>, u64), TbonError>;

    /// Fold one wave of per-daemon deltas into the front end's resident state.
    fn fold_wave(
        &mut self,
        deltas: Vec<Packet>,
        filter: &dyn Filter,
    ) -> Result<WaveOutcome, TbonError>;

    fn resident_bytes(&self) -> usize;
    fn incremental_canonical(&self) -> CanonicalTree;
    fn batched_canonical(&self) -> CanonicalTree;
}

/// The representation-monomorphic core of a streaming session: one slot per
/// original daemon (`None` once lost) plus the incremental overlay state and
/// the session-global frame dictionary every wave encodes against.
struct StreamCore<S: WireTaskSet> {
    streams: Vec<Option<DaemonStream<S>>>,
    incremental: IncrementalTbon<TreeResidentFactory<S>>,
    dict: FrameDictionary,
}

impl<S: WireTaskSet> StreamCore<S> {
    fn new(daemons: Vec<StatDaemon>, topology: &Topology, dict: FrameDictionary) -> Self {
        let streams = daemons
            .into_iter()
            .map(|daemon| {
                let trees = LocalTrees::new(daemon.leaf_width::<S>(), dict.table());
                let mut cumulative = Rows::new(trees.wps);
                cumulative.grow(1);
                Some(DaemonStream {
                    cumulative,
                    trees,
                    daemon,
                    full_bytes: 0,
                })
            })
            .collect();
        StreamCore {
            streams,
            incremental: IncrementalTbon::new(topology.clone(), TreeResidentFactory(PhantomData)),
            dict,
        }
    }
}

impl<S: WireTaskSet + Send + Sync> WaveStream for StreamCore<S> {
    fn rebuild(
        &mut self,
        keep: &[usize],
        lost_ranks: &mut Vec<u64>,
        topology: &Topology,
        filter: &dyn Filter,
    ) -> Result<u64, StatError> {
        let survivors = self.streams.iter_mut().filter(|slot| slot.is_some());
        for (ordinal, slot) in survivors.enumerate() {
            if keep.binary_search(&ordinal).is_err() {
                if let Some(stream) = slot.take() {
                    lost_ranks.extend(&stream.daemon.ranks);
                }
            }
        }
        self.incremental = IncrementalTbon::new(topology.clone(), TreeResidentFactory(PhantomData));
        let packets: Vec<Packet> = self
            .streams
            .iter()
            .flatten()
            .zip(topology.backends().iter())
            .map(|(stream, &leaf)| {
                let payload = stream.encode_cumulative(&self.dict);
                Packet::new(PacketTag::TreeDelta, leaf, payload)
            })
            .collect();
        let reseed_bytes = packets.iter().map(|p| p.size_bytes() as u64).sum();
        self.incremental.fold_wave(packets, filter)?;
        Ok(reseed_bytes)
    }

    fn gather_wave(
        &mut self,
        app: &dyn Application,
        window: Range<u32>,
        net: &InProcessTbon,
    ) -> Result<(Vec<DaemonContribution>, Vec<Packet>, u64), TbonError> {
        let (leaves, dict) = (net.topology().backends().iter().copied(), &self.dict);
        let items = self.streams.iter_mut().flatten().zip(leaves).collect();
        let per_daemon = map_daemons::<S, _, _>(
            net,
            items,
            |(stream, leaf), _| {
                let trees = LocalTrees::new(0, FrameTable::new());
                (
                    &stream.daemon,
                    std::mem::replace(&mut stream.trees, trees),
                    *leaf,
                )
            },
            (app, window),
            dict,
            &|(stream, leaf), mut contribution, trees| {
                let delta_start = Instant::now();
                stream.trees = trees;
                stream.trees.release_2d();
                let (delta, added) = stream.fold_delta(dict);
                contribution.local_merge_wall += delta_start.elapsed();
                if added || stream.full_bytes == 0 {
                    stream.full_bytes = stream.encode_cumulative(dict).len() as u64;
                }
                let delta = Packet::new(PacketTag::TreeDelta, leaf, delta);
                (stream.full_bytes, contribution, delta)
            },
        )?;
        let full_packet_bytes = per_daemon.iter().map(|r| r.0).sum();
        let (contributions, deltas) = per_daemon.into_iter().map(|(_, c, d)| (c, d)).unzip();
        Ok((contributions, deltas, full_packet_bytes))
    }

    fn fold_wave(
        &mut self,
        deltas: Vec<Packet>,
        filter: &dyn Filter,
    ) -> Result<WaveOutcome, TbonError> {
        self.incremental.fold_wave(deltas, filter)
    }

    fn resident_bytes(&self) -> usize {
        self.incremental.resident_bytes()
    }

    fn incremental_canonical(&self) -> CanonicalTree {
        let (state, base) = (self.incremental.frontend_state(), self.dict.table());
        let resident = state.and_then(|state| state.0.as_ref());
        resident.map_or_else(Vec::new, |(tree, frames)| {
            canonical(tree, |id| {
                frames.name_of(id.0).unwrap_or_else(|| base.name(id))
            })
        })
    }

    fn batched_canonical(&self) -> CanonicalTree {
        let (mut merged, mut table) = (None::<PrefixTree<S>>, self.dict.table());
        for stream in self.streams.iter().flatten() {
            let payload = stream.encode_cumulative(&self.dict);
            let id_of = |name: &str| table.intern(name).0;
            let Ok(tree) = decode_named::<S>(&payload, self.dict.base_len(), id_of) else {
                return Vec::new();
            };
            match merged.as_mut() {
                None => merged = Some(tree),
                Some(acc) => acc.merge(tree),
            }
        }
        merged.map_or_else(Vec::new, |tree| canonical(&tree, |id| table.name(id)))
    }
}

/// What one wave of a streaming session produced.
#[derive(Clone, Debug)]
pub struct WaveReport {
    /// The wave index this report describes (0-based).
    pub wave: u32,
    /// Per-phase wall-clock breakdown of the wave's full-view pipeline, with
    /// `sample` / `local_merge` (the daemons' CPU sums) scaled to split
    /// `contribute`, so every phase and `fold_wall` lie end to end within `advance`'s wall.
    pub phases: PhaseTimings,
    /// Wall-clock the incremental path spent merging and folding deltas.
    pub fold_wall: Duration,
    /// Total bytes the wave's full-view reduction pushed into the TBON at the
    /// leaves (2D + 3D trees, plus the rank map when the representation ships
    /// one) — the same quantity as [`crate::session::SessionReport::packet_bytes`].
    pub packet_bytes: u64,
    /// Bytes of per-daemon delta packets entering the incremental path this
    /// wave.  Pure steady-state delta traffic: re-seed traffic after a
    /// mid-stream prune is reported separately in [`reseed_bytes`], so the
    /// delta column stays comparable wave over wave.
    ///
    /// [`reseed_bytes`]: WaveReport::reseed_bytes
    pub delta_bytes: u64,
    /// Bytes the overlay re-seed shipped at the leaves this wave: every
    /// survivor's full cumulative tree, re-folded as a delta against fresh
    /// state after a mid-stream prune.  Zero unless [`reseeded`] is set.
    ///
    /// [`reseeded`]: WaveReport::reseeded
    pub reseed_bytes: u64,
    /// What shipping every survivor's full cumulative 3D tree would have cost
    /// at the leaves instead — the delta path's savings baseline.
    pub full_packet_bytes: u64,
    /// Traces gathered across surviving daemons this wave.
    pub traces_gathered: u64,
    /// Behaviour classes the wave's 3D view produced.
    pub classes: usize,
    /// The wave's diagnosis: classes by frame name plus the ranks lost so far.
    pub diagnosis: Diagnosis,
    /// The wave source's ground truth judged against that diagnosis.
    pub verdict: Verdict,
    /// Tasks still covered by surviving daemons (covered + lost = job size).
    pub covered_tasks: u64,
    /// Tasks whose daemons have been lost so far.
    pub lost_tasks: u64,
    /// Whether a mid-stream prune rebuilt the overlay at the start of this wave.
    pub reseeded: bool,
}

/// Builder for a [`StreamingSession`]; obtained from
/// [`crate::session::SessionBuilder::streaming`].
pub struct StreamingBuilder {
    session: Session,
    scheduled: Vec<(u32, OverlayFault)>,
    /// Interior filters every wave corrupts (set by [`Session::stream_scenario`]).
    pub(crate) mid_tree_faults: Vec<MidTreeFault>,
}

impl StreamingBuilder {
    pub(crate) fn new(session: Session) -> Self {
        StreamingBuilder {
            session,
            scheduled: Vec::new(),
            mid_tree_faults: Vec::new(),
        }
    }

    /// Schedule an overlay fault to strike at the *start* of wave `wave`: the
    /// addressed endpoint (and everything it orphans) drops out of that wave
    /// and every later one, with per-wave coverage accounting in the reports.
    pub fn overlay_fault_at(mut self, wave: u32, fault: OverlayFault) -> Self {
        self.scheduled.push((wave, fault));
        self
    }

    /// Open the stream over a wave source.  The topology is resolved once from
    /// the source's job size (streaming jobs do not resize); waves are then
    /// driven explicitly with [`StreamingSession::advance`].
    pub fn open(self, source: Box<dyn WaveSource>) -> Result<StreamingSession, StatError> {
        let tasks = source.num_tasks();
        let spec = self.session.topology_for(tasks);
        let daemons = StatDaemon::partition(tasks, spec.backends());
        let topology = Topology::build(spec);
        let total_backends = daemons.len();
        // Wire-format v2: negotiate the session-global frame dictionary once,
        // at open, from the source's wave-0 application.  Later waves (fault
        // apps included) share the same vocabulary; any frame they introduce
        // anyway ships as an incremental dictionary record.
        let dict = FrameDictionary::negotiate(source.app_at(0).frame_hints());
        // The one place the representation is matched: every wave after this
        // goes through the boxed core.
        let state: Box<dyn WaveStream> =
            match self.session.representation() {
                Representation::GlobalBitVector => Box::new(StreamCore::<DenseBitVector>::new(
                    daemons,
                    &topology,
                    dict.clone(),
                )),
                Representation::HierarchicalTaskList => Box::new(
                    StreamCore::<SubtreeTaskList>::new(daemons, &topology, dict.clone()),
                ),
            };
        Ok(StreamingSession {
            session: self.session,
            source,
            tasks,
            wave: 0,
            topology,
            scheduled: self.scheduled,
            mid_tree_faults: self.mid_tree_faults,
            lost_ranks: Vec::new(),
            state,
            total_backends,
            dict,
        })
    }
}

/// A continuously-attached session driving wave after wave of the pipeline.
///
/// ```
/// use appsim::{catalogue, FaultSchedule, FrameVocabulary};
/// use machine::Cluster;
/// use stat_core::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The ring hang, scheduled to first appear at wave 2 of the stream.
/// let scenario = catalogue(64, FrameVocabulary::Linux)
///     .into_iter()
///     .find(|s| s.name == "ring_hang")
///     .ok_or("catalogue always has ring_hang")?;
/// let source = FaultSchedule::new(scenario, FrameVocabulary::Linux, 2);
///
/// let mut stream = Session::builder(Cluster::test_cluster(8, 8))
///     .streaming(2) // two trace samples per task, per wave
///     .open(Box::new(source))?;
///
/// let healthy = stream.advance()?; // wave 0: the job is still healthy
/// assert!(healthy.verdict.passed());
/// assert_eq!(healthy.classes, 1);
///
/// stream.advance()?; // wave 1: still healthy
/// let faulty = stream.advance()?; // wave 2: the hang has appeared
/// assert!(faulty.verdict.passed(), "{}", faulty.verdict);
/// assert!(faulty.classes > healthy.classes);
///
/// // Quiescent repeats ship far smaller deltas than full cumulative trees.
/// let repeat = stream.advance()?; // wave 3: same hang, nothing new
/// assert!(repeat.delta_bytes < repeat.full_packet_bytes);
/// # Ok(())
/// # }
/// ```
pub struct StreamingSession {
    session: Session,
    source: Box<dyn WaveSource>,
    tasks: u64,
    wave: u32,
    topology: Topology,
    scheduled: Vec<(u32, OverlayFault)>,
    mid_tree_faults: Vec<MidTreeFault>,
    lost_ranks: Vec<u64>,
    state: Box<dyn WaveStream>,
    total_backends: usize,
    dict: FrameDictionary,
}

impl StreamingSession {
    /// Run the next wave: apply any faults due, gather, reduce the wave's view,
    /// fold the deltas, and judge the diagnosis against the wave's truth.  An
    /// `Err` (a daemon whose walk panicked is [`TbonError::PoolPoisoned`]) leaves
    /// the per-daemon state part-way through the wave: the stream is over.
    pub fn advance(&mut self) -> Result<WaveReport, StatError> {
        let wave = self.wave;
        let strategy = self.session.representation().strategy();
        let merge_filter = strategy.merge_filter();

        // Overlay faults due this wave prune the *current* (possibly already
        // pruned) topology; the survivors re-seed a fresh incremental overlay.
        let due = self.scheduled.iter().filter(|(w, _)| *w == wave);
        let due: Vec<OverlayFault> = due.map(|(_, f)| *f).collect();
        let mut surviving = None;
        if !due.is_empty() {
            let (kept, topology) = prune_overlay(self.topology.clone(), &due, self.total_backends)?;
            self.topology = topology;
            surviving = Some(kept);
        }
        // Mid-tree faults hit the tree that merges this wave, on every walk.
        let filter_faults = resolve_filter_faults(&self.topology, &self.mid_tree_faults)?;
        let filter = CorruptingFilter::new(merge_filter.as_ref(), &filter_faults);
        let reseeded = surviving.is_some();
        let reseed_bytes = match surviving {
            Some(keep) => {
                self.state
                    .rebuild(&keep, &mut self.lost_ranks, &self.topology, &filter)?
            }
            None => 0,
        };

        let app = self.source.app_at(wave);
        let samples = self.session.samples_per_task();
        let base = wave.saturating_mul(samples);
        let window = base..base.saturating_add(samples);
        let net = InProcessTbon::new(self.topology.clone());
        let contribute_start = Instant::now();
        let (contributions, deltas, full_packet_bytes) =
            self.state.gather_wave(app.as_ref(), window, &net)?;
        let contribute = contribute_start.elapsed();
        let delta_bytes = deltas.iter().map(|p| p.size_bytes() as u64).sum();

        let (tasks, dict) = (self.tasks, &self.dict);
        let (gather, mut phases, leaf) =
            self.session
                .merge_through(&net, contributions, tasks, dict, &filter_faults)?;
        // The daemons' CPU sums split the map's wall (see `WaveReport::phases`).
        let cpu = (phases.sample + phases.local_merge).as_secs_f64();
        phases.sample = contribute.mul_f64(phases.sample.as_secs_f64() / cpu.max(1e-12));
        phases.local_merge = contribute.saturating_sub(phases.sample);
        phases.contribute = contribute;
        let fold = self.state.fold_wave(deltas, &filter)?;

        let diagnosis = diagnose(&gather, self.tasks, self.lost_ranks.clone());
        let verdict = self
            .source
            .truth_at(wave)
            .check(self.source.name(), &diagnosis);
        let lost_tasks = self.lost_ranks.len() as u64;

        self.wave = wave.saturating_add(1);
        Ok(WaveReport {
            wave,
            phases,
            fold_wall: fold.fold_wall,
            packet_bytes: leaf.packet_bytes,
            delta_bytes,
            reseed_bytes,
            full_packet_bytes,
            traces_gathered: leaf.traces_gathered,
            classes: gather.classes.len(),
            diagnosis,
            verdict,
            covered_tasks: self.tasks - lost_tasks,
            lost_tasks,
            reseeded,
        })
    }

    /// The wave source driving the stream.
    pub fn source(&self) -> &dyn WaveSource {
        self.source.as_ref()
    }

    /// The overlay shape currently in use (pruned after mid-stream faults).
    pub fn topology(&self) -> &TreeShape {
        self.topology.shape()
    }

    /// Ranks whose daemons have been lost so far, ascending per loss event.
    pub fn lost_ranks(&self) -> &[u64] {
        &self.lost_ranks
    }

    /// Resident footprint of the front end's incrementally folded tree, in bytes.
    pub fn resident_bytes(&self) -> usize {
        self.state.resident_bytes()
    }

    /// The front end's rolling incrementally-folded 3D tree, in canonical form.
    /// Empty before the first wave folds.  This is the verification surface the
    /// streaming test suite compares against [`batched_canonical`] at every
    /// wave.
    ///
    /// [`batched_canonical`]: StreamingSession::batched_canonical
    pub fn incremental_canonical(&self) -> CanonicalTree {
        self.state.incremental_canonical()
    }

    /// What one batched merge of every survivor's full cumulative tree produces,
    /// in canonical form — recomputed from scratch, independently of the
    /// incremental path.
    pub fn batched_canonical(&self) -> CanonicalTree {
        self.state.batched_canonical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::daemon::tests::{descended, payloads, Sleepy};
    use crate::serialize::encode_tree;
    use appsim::scenario::catalogue;
    use appsim::{FaultSchedule, FrameVocabulary, RingHangApp, SteadySource};
    use machine::cluster::Cluster;
    use std::sync::Arc;
    use tbon::topology::TreeShape;

    fn ring_schedule(tasks: u64, fault_wave: u32) -> FaultSchedule {
        let scenario = catalogue(tasks, FrameVocabulary::Linux)
            .into_iter()
            .find(|s| s.name == "ring_hang")
            .unwrap();
        FaultSchedule::new(scenario, FrameVocabulary::Linux, fault_wave)
    }

    fn stream_with(
        representation: Representation,
        source: Box<dyn WaveSource>,
    ) -> StreamingSession {
        Session::builder(Cluster::test_cluster(8, 8))
            .representation(representation)
            .streaming(2)
            .open(source)
            .unwrap()
    }

    #[test]
    fn healthy_waves_stay_healthy_and_quiescent_deltas_shrink() {
        let mut stream = stream_with(
            Representation::HierarchicalTaskList,
            Box::new(SteadySource::healthy(64, FrameVocabulary::Linux)),
        );
        let first = stream.advance().unwrap();
        assert!(first.verdict.passed(), "{}", first.verdict);
        assert_eq!(first.classes, 1);
        assert_eq!(first.covered_tasks, 64);
        assert_eq!(first.lost_tasks, 0);
        assert!(first.packet_bytes > 0);
        // No prune, no re-seed traffic.
        assert_eq!(first.reseed_bytes, 0);

        // The all-equivalent app never changes: wave 1's deltas are root-only.
        let second = stream.advance().unwrap();
        assert!(second.verdict.passed());
        assert!(
            second.delta_bytes < first.delta_bytes,
            "quiescent wave {} vs first wave {}",
            second.delta_bytes,
            first.delta_bytes
        );
        assert!(second.delta_bytes < second.full_packet_bytes);
    }

    #[test]
    fn the_fault_wave_flips_the_diagnosis_for_both_representations() {
        for representation in [
            Representation::HierarchicalTaskList,
            Representation::GlobalBitVector,
        ] {
            let mut stream = stream_with(representation, Box::new(ring_schedule(64, 2)));
            for wave in 0..2 {
                let report = stream.advance().unwrap();
                assert!(
                    report.verdict.passed(),
                    "pre-fault wave {wave} must judge healthy: {}",
                    report.verdict
                );
                assert_eq!(report.classes, 1);
            }
            let faulty = stream.advance().unwrap();
            assert!(faulty.verdict.passed(), "{}", faulty.verdict);
            assert!(faulty.classes >= 3);
        }
    }

    #[test]
    fn incremental_state_equals_batched_merge_at_every_wave() {
        for representation in [
            Representation::HierarchicalTaskList,
            Representation::GlobalBitVector,
        ] {
            let mut stream = stream_with(representation, Box::new(ring_schedule(64, 2)));
            for wave in 0..5 {
                stream.advance().unwrap();
                let incremental = stream.incremental_canonical();
                assert!(!incremental.is_empty());
                assert_eq!(
                    incremental,
                    stream.batched_canonical(),
                    "wave {wave} diverged under {representation:?}"
                );
            }
        }
    }

    #[test]
    fn mid_stream_daemon_loss_keeps_coverage_accounting_exact() {
        let mut stream = Session::builder(Cluster::test_cluster(8, 8))
            .streaming(2)
            .open(Box::new(ring_schedule(64, 1)))
            .unwrap();
        let healthy = stream.advance().unwrap();
        assert_eq!(healthy.covered_tasks + healthy.lost_tasks, 64);
        assert_eq!(healthy.lost_tasks, 0);
        assert!(!healthy.reseeded);

        // A control stream over the same schedule, with no overlay fault: its
        // wave-1 deltas are the eight daemons' pure steady-state traffic.
        let mut control = Session::builder(Cluster::test_cluster(8, 8))
            .streaming(2)
            .open(Box::new(ring_schedule(64, 1)))
            .unwrap();
        control.advance().unwrap();
        let control_wave1 = control.advance().unwrap();

        // Losing the last daemon mid-stream drops its 8 ranks from wave 1 on.
        let mut stream = Session::builder(Cluster::test_cluster(8, 8))
            .streaming(2)
            .overlay_fault_at(1, OverlayFault::BackendFromEnd(0))
            .open(Box::new(ring_schedule(64, 1)))
            .unwrap();
        let wave0 = stream.advance().unwrap();
        assert_eq!(wave0.lost_tasks, 0);
        assert_eq!(wave0.reseed_bytes, 0);
        let wave1 = stream.advance().unwrap();
        assert!(wave1.reseeded);
        assert_eq!(wave1.lost_tasks, 8);
        assert_eq!(wave1.covered_tasks + wave1.lost_tasks, 64);
        assert_eq!(stream.lost_ranks(), (56..64).collect::<Vec<_>>());
        // The three byte columns stay decoupled: the re-seed charges its own
        // column and the delta column stays pure steady-state traffic.  Seven
        // survivors ship content-identical deltas to the control stream's first
        // seven daemons, so the pruned wave must ship strictly *fewer* delta
        // bytes than the unpruned control — folding the re-seed into the delta
        // column (the old accounting) would reverse this inequality.
        assert!(wave1.reseed_bytes > 0);
        assert!(
            wave1.delta_bytes < control_wave1.delta_bytes,
            "pruned wave pure deltas ({}) must undercut the 8-daemon control ({})",
            wave1.delta_bytes,
            control_wave1.delta_bytes
        );
        // The verdict still passes: the hang (ranks 1 and 2) stayed covered and
        // the coverage check accepts the reported losses.
        assert!(wave1.verdict.passed(), "{}", wave1.verdict);
        // The pruned state still matches a batched merge of the survivors.
        assert_eq!(stream.incremental_canonical(), stream.batched_canonical());
        let wave2 = stream.advance().unwrap();
        assert!(!wave2.reseeded);
        assert_eq!(wave2.reseed_bytes, 0);
        assert_eq!(wave2.covered_tasks, 56);
        // Quiescent again: pure deltas shrink well below the full-tree baseline.
        assert!(wave2.delta_bytes < wave2.full_packet_bytes);
    }

    #[test]
    fn a_prune_that_kills_the_session_is_a_typed_error() {
        let mut builder = Session::builder(Cluster::test_cluster(8, 8)).streaming(1);
        // Losing every backend leaves nothing to gather from, whatever interior
        // shape the placement chose.
        for backend in 0..8 {
            builder = builder.overlay_fault_at(1, OverlayFault::BackendFromEnd(backend));
        }
        let mut stream = builder.open(Box::new(ring_schedule(64, 0))).unwrap();
        stream.advance().unwrap();
        let err = stream.advance().unwrap_err();
        assert!(
            matches!(err, StatError::SessionNotViable { .. }),
            "expected SessionNotViable, got {err:?}"
        );
    }

    /// Four waves of `StreamCore` over the sleepy ring hang, with the stall frames
    /// (and in the first case the barrier frame) left out of the negotiation, so
    /// that which daemon meets them first depends on the schedule: every worker
    /// count ships the contributions, deltas and full-tree bytes of one worker,
    /// which is a serial loop; and wave 0 ships the leaf packets `contribute_all`
    /// ships for the same daemons and window.
    fn stream_waves_match_the_serial_loop<S: WireTaskSet + Send + Sync>(
        representation: Representation,
    ) {
        let v = FrameVocabulary::BlueGeneL;
        // Rank 64 opens daemon 1, which walks the stall frame first and finishes
        // long before daemon 0 does.
        let sleepy = Sleepy(RingHangApp::new(1_024, v).with_hung_rank(64));
        let hints = sleepy.frame_hints();
        let topology = Topology::build(TreeShape::flat(16));
        let daemons = StatDaemon::partition(1_024, 16);
        let packets = |c: &DaemonContribution| {
            let packets = [&c.tree_2d, &c.tree_3d, &c.rank_map];
            (c.daemon_id, packets.map(|p| p.clone()))
        };
        for missed in [&[v.send_stall(), v.barrier()][..], &[v.send_stall()]] {
            let negotiate = || {
                let kept = hints.iter().copied().filter(|h| !missed.contains(h));
                FrameDictionary::negotiate(kept)
            };
            let run = |workers| {
                let net = InProcessTbon::new(topology.clone()).with_workers(workers);
                let mut core = StreamCore::<S>::new(daemons.clone(), &topology, negotiate());
                (0..4u32)
                    .map(|wave| {
                        let window = wave * 2..wave * 2 + 2;
                        let (contributions, deltas, full) = core
                            .gather_wave(&sleepy, window, &net)
                            .expect("no daemon dies");
                        (
                            contributions.iter().map(packets).collect::<Vec<_>>(),
                            deltas,
                            full,
                        )
                    })
                    .collect::<Vec<_>>()
            };
            let serial = run(1);
            for workers in [2, 3, 8, 64] {
                assert_eq!(run(workers), serial, "{missed:?} missed, {workers} workers");
            }
            // The stall frame really ships past the negotiation.
            let named_stall = |(_, [_, tree_3d, _]): &(u32, [Packet; 3])| {
                let (_, frames) = decode_tree::<S>(&tree_3d.payload).expect("the 3D body reads");
                let stall = frames.records().any(|(_, name)| name == v.send_stall());
                stall
            };
            assert!(serial[0].0.iter().any(named_stall));

            let dict = negotiate();
            let leaves = daemons.iter().zip(topology.backends().iter().copied());
            let net = InProcessTbon::new(topology.clone());
            let strategy = representation.strategy();
            let shipped = strategy.contribute_all(leaves.collect(), &sleepy, 2, &dict, &net);
            let shipped: Vec<_> = shipped
                .expect("no daemon dies")
                .iter()
                .map(packets)
                .collect();
            assert_eq!(
                shipped, serial[0].0,
                "wave 0 vs contribute_all, {missed:?} missed"
            );
        }
    }

    #[test]
    fn the_stream_ships_the_serial_waves_whatever_the_schedule() {
        stream_waves_match_the_serial_loop::<DenseBitVector>(Representation::GlobalBitVector);
        stream_waves_match_the_serial_loop::<SubtreeTaskList>(Representation::HierarchicalTaskList);
    }

    /// An application whose paths move between waves on every edge the warm 3D
    /// arena has: a `dispatch` node with more callees than `SCAN_FANOUT` that
    /// gains new ones as the sample clock shifts, paths from sample 4 on twice as
    /// deep as the first path walked, and from sample 10
    /// on a frame the negotiation never saw.
    struct Shifting(Vec<Vec<&'static str>>);

    impl Shifting {
        const CALLEES: [&'static str; 12] = [
            "callee_0",
            "callee_1",
            "callee_2",
            "callee_3",
            "callee_4",
            "callee_5",
            "callee_6",
            "callee_7",
            "callee_8",
            "callee_9",
            "callee_10",
            "callee_11",
        ];

        fn new() -> Self {
            let mut paths = vec![
                vec!["main", "solve", "wait"],
                vec![
                    "main", "solve", "wait", "poll", "main", "solve", "wait", "deep",
                ],
                vec!["main", "solve", "late_frame", "wait"],
            ];
            paths.extend(Self::CALLEES.map(|callee| vec!["main", "dispatch", callee]));
            Shifting(paths)
        }
    }

    impl Application for Shifting {
        fn name(&self) -> &str {
            "shifting"
        }
        fn num_tasks(&self) -> u64 {
            256
        }
        fn call_path(&self, rank: u64, _thread: u32, sample: u32) -> &[&'static str] {
            let sample = u64::from(sample);
            let pick = match rank % 3 {
                _ if sample >= 10 && rank.is_multiple_of(5) => 2,
                1 => 3 + (rank / 3 + sample) % 12,
                0 if sample >= 4 => 1,
                _ => 0,
            };
            &self.0[pick as usize]
        }
        fn frame_hints(&self) -> Vec<&'static str> {
            let names = self
                .0
                .iter()
                .flatten()
                .copied()
                .filter(|&n| n != "late_frame");
            let mut hints: Vec<&'static str> = names.collect();
            hints.sort_unstable();
            hints.dedup();
            hints
        }
    }

    /// What the stream's daemons ship each wave, built the way it was before the
    /// warm arena: a fresh 2D and 3D tree per daemon from the staged gather,
    /// encoded with one numbering as a daemon encodes them, the delta
    /// `delta_from` makes of the wave against a cumulative tree that
    /// `merge_aligned` folds, and that tree's content.
    struct Reference<S: WireTaskSet> {
        dict: FrameDictionary,
        daemons: Vec<(StatDaemon, FrameTable, PrefixTree<S>)>,
    }

    /// One wave as both sides see it: per daemon the 2D, 3D and delta payloads,
    /// and per daemon the cumulative tree's content.
    type Shipped = (Vec<[Vec<u8>; 3]>, Vec<CanonicalTree>);

    impl<S: WireTaskSet> Reference<S> {
        fn new(daemons: &[StatDaemon], hints: &[&'static str]) -> Self {
            let dict = FrameDictionary::negotiate(hints.iter().copied());
            let daemons = daemons.iter().map(|daemon| {
                let cumulative = PrefixTree::new(daemon.leaf_width::<S>());
                (daemon.clone(), dict.table(), cumulative)
            });
            let daemons = daemons.collect();
            Reference { dict, daemons }
        }

        fn wave(&mut self, app: &dyn Application, window: Range<u32>) -> Shipped {
            let dict = &self.dict;
            let per_daemon = self.daemons.iter_mut().map(|(daemon, table, cumulative)| {
                let count = window.end - window.start;
                let gathered = appsim::gather_samples_for_ranks_from(
                    app,
                    &daemon.ranks,
                    window.start,
                    count,
                    table,
                );
                let (tree_2d, tree_3d) = daemon.build_trees::<S>(&gathered);
                let own = &mut Numbering::default();
                let [packet_2d, packet_3d] = [&tree_2d, &tree_3d].map(|t| {
                    let row = |node| t.tasks(node).words();
                    encode_ordered::<S>(t.width(), links(t), row, (&*table, dict), own)
                });
                let delta = encode_tree(&tree_3d.delta_from(cumulative), table, dict);
                cumulative.merge_aligned(tree_3d);
                let names = |id| table.name(id);
                ([packet_2d, packet_3d, delta], canonical(cumulative, names))
            });
            per_daemon.unzip()
        }
    }

    /// Drive `StreamCore` through `apps` (one per wave, two samples a wave) on 8
    /// daemons at 1, 2 and 8 workers, against the reference: every wave ships the
    /// fresh walk's 2D and 3D packets and `delta_from`'s delta, byte for byte,
    /// the cumulative labels hold the reference's cumulative tree, and the cached
    /// full length is a fresh encode's.
    fn warm_waves_match_the_cold_reference<S: WireTaskSet + Send + Sync>(
        case: &str,
        apps: &[Arc<dyn Application>],
    ) {
        let tasks = apps[0].num_tasks();
        let hints = apps[0].frame_hints();
        let daemons = StatDaemon::partition(tasks, 8);
        let topology = Topology::build(TreeShape::flat(8));
        let mut reference = Reference::<S>::new(&daemons, &hints);
        let windows = (0u32..).map(|wave| wave * 2..wave * 2 + 2);
        let expected: Vec<Shipped> = apps
            .iter()
            .zip(windows.clone())
            .map(|(app, window)| reference.wave(app.as_ref(), window))
            .collect();
        for workers in [1, 2, 8] {
            let net = InProcessTbon::new(topology.clone()).with_workers(workers);
            let dict = FrameDictionary::negotiate(hints.iter().copied());
            let mut core = StreamCore::<S>::new(daemons.clone(), &topology, dict);
            for ((wave, app), window) in apps.iter().enumerate().zip(windows.clone()) {
                let at = format!("{case}, wave {wave}, {workers} workers");
                let (contributions, deltas, full) = core
                    .gather_wave(app.as_ref(), window, &net)
                    .expect("no daemon dies");
                let shipped = contributions
                    .iter()
                    .zip(&deltas)
                    .map(|(c, delta)| [&c.tree_2d, &c.tree_3d, delta].map(|p| p.payload.to_vec()));
                let streams = core.streams.iter().flatten();
                let cumulative = streams.clone().map(|stream| {
                    let (payload, mut table) =
                        (stream.encode_cumulative(&core.dict), core.dict.table());
                    let id_of = |name: &str| table.intern(name).0;
                    let tree = decode_named::<S>(&payload, core.dict.base_len(), id_of);
                    canonical(&tree.expect("the cumulative tree decodes"), |id| {
                        table.name(id)
                    })
                });
                let got: Shipped = (shipped.collect(), cumulative.collect());
                let (packets, trees) = &expected[wave];
                for (daemon, (got, want)) in got.0.iter().zip(packets).enumerate() {
                    for (channel, (got, want)) in
                        ["2D", "3D", "delta"].iter().zip(got.iter().zip(want))
                    {
                        assert!(
                            got == want,
                            "{at}, daemon {daemon}: the {channel} packet differs"
                        );
                    }
                }
                assert_eq!(&got.1, trees, "{at}: cumulative trees");
                let fresh = streams.map(|stream| stream.encode_cumulative(&core.dict).len() as u64);
                assert_eq!(full, fresh.sum::<u64>(), "{at}: cached full length");
            }
        }
    }

    #[test]
    fn every_warm_wave_ships_the_fresh_walk_and_delta_from_bytes() {
        let v = FrameVocabulary::BlueGeneL;
        let ring = ring_schedule(256, 3);
        let apps = |app: Arc<dyn Application>| vec![app; 9];
        let cases: [(&str, Vec<Arc<dyn Application>>); 4] = [
            (
                "ring hang from wave 3",
                (0..9).map(|wave| ring.app_at(wave)).collect(),
            ),
            (
                "threaded",
                apps(Arc::new(appsim::workloads::threaded(256, 3, v))),
            ),
            (
                "corrupted stacks",
                apps(Arc::new(appsim::workloads::corrupted_stacks(256, 9, v))),
            ),
            (
                "wide, deep and un-negotiated",
                apps(Arc::new(Shifting::new())),
            ),
        ];
        for (case, apps) in &cases {
            warm_waves_match_the_cold_reference::<DenseBitVector>(case, apps);
            warm_waves_match_the_cold_reference::<SubtreeTaskList>(case, apps);
        }
        // The last case really grows a node past the sibling scan and interns a
        // frame after the negotiation.
        let shifting = Shifting::new();
        let dict = FrameDictionary::negotiate(shifting.frame_hints());
        let mut table = dict.table();
        let samples = appsim::gather_samples_for_ranks_from(&shifting, 0..32, 16, 2, &mut table);
        let (_, tree_3d) =
            StatDaemon::new(0, (0..32).collect(), 256).build_trees::<DenseBitVector>(&samples);
        assert!((0..tree_3d.node_count()).any(|n| tree_3d.children(n).len() > 8));
        assert!(table.len() > dict.base_len() as usize);
    }

    /// Sixteen paths of five frames lent from rows the application rewrites in
    /// place: from its fault wave on, half the rows hold the stall path, so the
    /// same slices (address and length) lend other paths than before.
    struct Rewritten(Vec<Vec<&'static str>>);

    impl Rewritten {
        fn new() -> Self {
            Rewritten((0..16).map(|_| Vec::with_capacity(5)).collect())
        }

        /// The rows as wave `wave` sees them, rewritten within their capacity.
        fn at(&mut self, wave: u32) -> &Self {
            for (row, path) in self.0.iter_mut().enumerate() {
                let stalled = wave >= 2 && row % 2 == 1;
                let call = if stalled {
                    "do_SendOrStall"
                } else {
                    "MPI_Barrier"
                };
                let depth = ["poll", "wait"][row % 4 / 2];
                path.clear();
                path.extend(["_start", "main", call, "progress", depth]);
            }
            self
        }
    }

    impl Application for Rewritten {
        fn name(&self) -> &str {
            "rewritten"
        }
        fn num_tasks(&self) -> u64 {
            256
        }
        fn call_path(&self, rank: u64, _thread: u32, sample: u32) -> &[&'static str] {
            &self.0[((rank + u64::from(sample)) % 16) as usize]
        }
        fn frame_hints(&self) -> Vec<&'static str> {
            vec!["_start", "main", "MPI_Barrier", "progress", "poll", "wait"]
        }
    }

    /// Six two-sample waves of `StreamCore` on 8 daemons at workers 1, 2 and 8:
    /// each wave ships what a walk descending every trace of the wave's
    /// application into fresh arenas does (`descended`).
    fn waves_end_where_they_descend<S: WireTaskSet + Send + Sync>(
        case: &str,
        hints: &[&'static str],
        mut wave_app: impl FnMut(u32, &mut dyn FnMut(&dyn Application)),
    ) {
        let topology = Topology::build(TreeShape::flat(8));
        let daemons = StatDaemon::partition(256, 8);
        let leaves: Vec<_> = daemons
            .iter()
            .zip(topology.backends().iter().copied())
            .collect();
        for workers in [1usize, 2, 8] {
            let net = InProcessTbon::new(topology.clone()).with_workers(workers);
            let negotiate = || FrameDictionary::negotiate(hints.iter().copied());
            let (mut core, reference) = (
                StreamCore::<S>::new(daemons.clone(), &topology, negotiate()),
                negotiate(),
            );
            for wave in 0..6u32 {
                let at = format!("{case}, wave {wave}, {workers} workers");
                let window = wave * 2..wave * 2 + 2;
                wave_app(wave, &mut |app| {
                    let (walked, _, _) = core
                        .gather_wave(app, window.clone(), &net)
                        .expect("no daemon dies");
                    let want = descended::<S>(&leaves, app, window.clone(), &reference);
                    assert!(payloads(&walked) == payloads(&want), "{at}: packets differ");
                });
            }
        }
    }

    #[test]
    fn a_stream_whose_table_changes_ships_the_descended_waves() {
        let schedule = ring_schedule(256, 2);
        let hints = schedule.app_at(0).frame_hints();
        let mut rewritten = Rewritten::new();
        let addresses = |r: &Rewritten| r.0.iter().map(|row| row.as_ptr()).collect::<Vec<_>>();
        let before = addresses(rewritten.at(0));
        assert_eq!(addresses(rewritten.at(2)), before, "rewritten in place");
        let by_schedule =
            |wave, walk: &mut dyn FnMut(&dyn Application)| walk(schedule.app_at(wave).as_ref());
        let mut in_place = |wave, walk: &mut dyn FnMut(&dyn Application)| walk(rewritten.at(wave));
        waves_end_where_they_descend::<DenseBitVector>("fault schedule", &hints, by_schedule);
        waves_end_where_they_descend::<SubtreeTaskList>("fault schedule", &hints, by_schedule);
        let hints = Rewritten::new().frame_hints();
        waves_end_where_they_descend::<DenseBitVector>("rewritten in place", &hints, &mut in_place);
        waves_end_where_they_descend::<SubtreeTaskList>(
            "rewritten in place",
            &hints,
            &mut in_place,
        );
    }

    #[test]
    fn a_hung_stream_keeps_its_arena_flat_and_its_full_length_fresh() {
        fn run<S: WireTaskSet + Send + Sync>() {
            let schedule = ring_schedule(1_024, 2);
            let daemons = StatDaemon::partition(1_024, 16);
            let topology = Topology::build(TreeShape::flat(16));
            let dict = FrameDictionary::negotiate(schedule.app_at(0).frame_hints());
            let mut core = StreamCore::<S>::new(daemons, &topology, dict);
            let net = InProcessTbon::new(topology.clone());
            let mut hung = None;
            for wave in 0..12u32 {
                let window = wave * 2..wave * 2 + 2;
                let app = schedule.app_at(wave);
                let (_, _, full) = core.gather_wave(app.as_ref(), window, &net).unwrap();
                let streams = core.streams.iter().flatten();
                let fresh = streams
                    .clone()
                    .map(|s| s.encode_cumulative(&core.dict).len() as u64);
                assert_eq!(full, fresh.sum::<u64>(), "wave {wave}");
                let nodes: Vec<usize> = streams.map(|s| s.trees.tree.node_count()).collect();
                // Three waves after the onset the hang is all the job does.
                if wave >= 5 {
                    let first = hung.get_or_insert_with(|| nodes.clone());
                    assert_eq!(&nodes, first, "wave {wave}: the arena grew while hung");
                }
            }
        }
        run::<DenseBitVector>();
        run::<SubtreeTaskList>();
    }

    /// A ring hang whose stack walk of rank 12 dies from sample 2 on.
    struct DiesAtRank12(RingHangApp);

    impl Application for DiesAtRank12 {
        fn name(&self) -> &str {
            "dies_at_rank_12"
        }
        fn num_tasks(&self) -> u64 {
            self.0.num_tasks()
        }
        fn call_path(&self, rank: u64, thread: u32, sample: u32) -> &[&'static str] {
            assert!(rank != 12 || sample < 2, "the stack walk of rank 12 died");
            self.0.call_path(rank, thread, sample)
        }
        fn frame_hints(&self) -> Vec<&'static str> {
            self.0.frame_hints()
        }
    }

    #[test]
    fn a_panicking_daemon_is_a_typed_error_one_shot_and_streamed() {
        let app = Arc::new(DiesAtRank12(RingHangApp::new(64, FrameVocabulary::Linux)));
        let poisoned = |result: Result<_, StatError>| {
            let err = result.err();
            let typed = matches!(err, Some(StatError::Reduce(TbonError::PoolPoisoned { .. })));
            assert!(typed, "expected PoolPoisoned, got {err:?}");
        };
        let session = Session::builder(Cluster::test_cluster(8, 8))
            .samples_per_task(3)
            .build();
        poisoned(session.attach(app.as_ref()).map(|_| ()));

        // Wave 0 samples 0 and 1 and is whole; wave 1 reaches sample 2.
        let truth = ring_schedule(64, 0).truth_at(0).clone();
        let source = SteadySource::new(app, truth);
        let mut stream = stream_with(Representation::HierarchicalTaskList, Box::new(source));
        stream.advance().unwrap();
        poisoned(stream.advance().map(|_| ()));
    }

    #[test]
    fn session_report_packet_bytes_totals_every_leaf_channel() {
        let app = appsim::RingHangApp::new(64, FrameVocabulary::Linux);
        let hier = Session::builder(Cluster::test_cluster(8, 8))
            .samples_per_task(2)
            .build()
            .attach(&app)
            .unwrap();
        // Hierarchical sessions ship a rank map, so the leaf total exceeds the
        // per-daemon tree bytes alone.
        assert!(hier.packet_bytes > hier.mean_daemon_packet_bytes * hier.daemons as u64);
        let dense = Session::builder(Cluster::test_cluster(8, 8))
            .representation(Representation::GlobalBitVector)
            .samples_per_task(2)
            .build()
            .attach(&app)
            .unwrap();
        assert!(dense.packet_bytes >= dense.mean_daemon_packet_bytes * dense.daemons as u64);
    }
}
