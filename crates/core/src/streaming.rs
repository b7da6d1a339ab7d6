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
//! 2. **Gather**: every surviving daemon samples its ranks at the global sample
//!    clock (`wave × samples_per_wave`), builds its wave-local 2D/3D trees, and
//!    diffs the wave 3D tree against its cumulative local tree.
//! 3. **Wave reduction**: the wave's 2D/3D trees (and rank map) ride the
//!    ordinary single-pass multi-channel reduction, producing the wave's
//!    [`GatherResult`]-derived diagnosis, behaviour-class count and phase
//!    timings.
//! 4. **Delta fold**: the per-daemon deltas ride the incremental path
//!    ([`tbon::delta::IncrementalTbon`]); interior nodes merge child deltas with
//!    the ordinary merge filter and fold the result into their resident state,
//!    so the front end's resident tree always equals one batched merge of
//!    everything seen so far (the equivalence `tests/streaming.rs` pins down).
//! 5. **Judgement**: the diagnosis is checked against the wave source's ground
//!    truth for that wave, giving verdict *latency* — the number of waves
//!    between a fault first appearing and a stable correct verdict — a
//!    machine-checkable meaning.
//!
//! So a wave walks the overlay twice, and only the walk of step 3 — the wave's
//! *own* view — feeds the verdict.  The resident tree of step 4 cannot: it is
//! cumulative, so once a fault strikes it still holds the faulty ranks' paths
//! from the healthy waves, and those ranks show up in the healthy class as well
//! as their own.  (Probed: ring hang at wave 2, 64 tasks, dense — judged from
//! the resident tree, every post-fault wave fails `clean-separation`.)
//!
//! [`Session::attach`]: crate::session::Session::attach
//! [`PacketTag::TreeDelta`]: tbon::packet::PacketTag::TreeDelta
//! [`GatherResult`]: crate::frontend::GatherResult

use std::collections::BTreeSet;
use std::marker::PhantomData;
use std::time::{Duration, Instant};

use appsim::scenario::{Diagnosis, OverlayFault, Verdict};
use appsim::{Application, WaveSource};
use stackwalk::{FrameDictionary, FrameTable};
use tbon::delta::{IncrementalTbon, ResidentState, StateFactory, WaveOutcome};
use tbon::filter::Filter;
use tbon::network::TbonError;
use tbon::packet::{Packet, PacketTag};
use tbon::topology::{Topology, TreeShape};

use crate::daemon::{DaemonContribution, StatDaemon};
use crate::error::StatError;
use crate::frontend::Representation;
use crate::graph::PrefixTree;
use crate::scenario::{diagnose, prune_overlay};
use crate::serialize::{
    decode_tree, encode_tree, encoded_merged_tree_size, encoded_tree_size, WireFrames, WireTaskSet,
};
use crate::session::{PhaseTimings, Session};
use crate::taskset::{DenseBitVector, SubtreeTaskList};

/// A tree reduced to a representation-independent, order-independent shape:
/// one `(path of frame names, member tasks)` entry per node, sorted.  Two trees
/// with equal canonical forms describe the same merged state even when their
/// arenas, frame ids or child orders differ.
pub type CanonicalTree = Vec<(Vec<String>, Vec<u64>)>;

fn canonical<S: WireTaskSet>(tree: &PrefixTree<S>, table: &FrameTable) -> CanonicalTree {
    let mut out: CanonicalTree = (0..tree.node_count())
        .map(|node| {
            let path: Vec<String> = tree
                .path_to(node)
                .iter()
                .map(|&f| table.name(f).to_string())
                .collect();
            (path, tree.tasks(node).members())
        })
        .collect();
    out.sort();
    out
}

/// Per-node resident state of the incremental path: a rolling merged tree plus
/// the accumulated incremental dictionary records its deltas shipped.  Under
/// wire format v2 the resident never re-resolves a frame name: deltas carry
/// session-global ids, so folding is id-aligned merging plus a union of the
/// [`WireFrames`] records.  Public (opaque) so benchmarks can drive the
/// production fold through [`tbon::delta::IncrementalTbon`] directly.
pub struct TreeResident<S: WireTaskSet> {
    frames: Option<WireFrames>,
    tree: Option<PrefixTree<S>>,
}

impl<S: WireTaskSet> ResidentState for TreeResident<S> {
    fn fold(&mut self, delta: &Packet) -> Result<(), String> {
        if delta.payload.is_empty() {
            // An empty control packet: nothing reached this node this wave.
            return Ok(());
        }
        let (decoded, decoded_frames): (PrefixTree<S>, WireFrames) =
            decode_tree(&delta.payload).map_err(|e| e.to_string())?;
        match self.frames.as_mut() {
            None => self.frames = Some(decoded_frames),
            Some(frames) => frames.merge(&decoded_frames).map_err(|e| e.to_string())?,
        }
        match self.tree.as_mut() {
            None => self.tree = Some(decoded),
            Some(tree) => {
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
        match (self.tree.as_ref(), self.frames.as_ref()) {
            (Some(tree), Some(frames)) => encoded_merged_tree_size(tree, frames),
            _ => 0,
        }
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
        TreeResident {
            frames: None,
            tree: None,
        }
    }
}

/// One daemon's persistent streaming state: its rank slice, its frame table
/// (shared by every wave so frame ids stay stable across diffs) and the
/// cumulative local 3D tree its deltas are computed against.
struct DaemonStream<S: WireTaskSet> {
    daemon: StatDaemon,
    table: FrameTable,
    cum_3d: PrefixTree<S>,
}

/// Per-wave daemon-side accounting, summed over survivors.
#[derive(Default)]
struct WaveStats {
    sample: Duration,
    local_merge: Duration,
    packet_bytes: u64,
    delta_bytes: u64,
    full_packet_bytes: u64,
}

/// What a [`StreamingSession`] asks of its representation-typed core.  The
/// representation is matched once, when [`StreamingBuilder::open`] boxes a
/// [`StreamCore`]; every wave after that goes through this object-safe surface.
trait WaveStream: Send + Sync {
    /// Drop the daemons whose surviving ordinal is not in `keep`, record their
    /// ranks as lost, and re-seed a fresh incremental overlay over `topology`
    /// by folding each survivor's full cumulative tree as a delta against
    /// empty state.  Returns the bytes the re-seed shipped at the leaves.
    fn rebuild(
        &mut self,
        keep: &BTreeSet<usize>,
        lost_ranks: &mut Vec<u64>,
        topology: &Topology,
        filter: &dyn Filter,
    ) -> Result<u64, StatError>;

    /// Sample one wave on every surviving daemon: build the wave trees, encode
    /// the full-packet channels, diff the wave's 3D tree against the cumulative
    /// local tree and fold the wave in.  Every survivor always emits a delta —
    /// a quiescent daemon ships its root-only empty tree — which keeps
    /// hierarchical domain offsets stable at every merge above it.
    fn gather_wave(
        &mut self,
        app: &dyn Application,
        base: u32,
        samples: u32,
        topology: &Topology,
        needs_rank_map: bool,
    ) -> (Vec<DaemonContribution>, Vec<Packet>, u64, WaveStats);

    /// Fold one wave of per-daemon deltas into the overlay's resident state.
    fn fold_wave(
        &mut self,
        deltas: Vec<Packet>,
        filter: &dyn Filter,
    ) -> Result<WaveOutcome, TbonError>;

    fn covered_tasks(&self) -> u64;
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
                Some(DaemonStream {
                    // No samples yet: the empty tree over this daemon's leaf domain.
                    cum_3d: daemon.build_trees(&[]).1,
                    table: FrameTable::new(),
                    daemon,
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
        keep: &BTreeSet<usize>,
        lost_ranks: &mut Vec<u64>,
        topology: &Topology,
        filter: &dyn Filter,
    ) -> Result<u64, StatError> {
        let mut ordinal = 0usize;
        for slot in self.streams.iter_mut() {
            if slot.is_some() {
                let kept = keep.contains(&ordinal);
                ordinal += 1;
                if !kept {
                    if let Some(stream) = slot.take() {
                        lost_ranks.extend(stream.daemon.ranks.iter().copied());
                    }
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
                Packet::new(
                    PacketTag::TreeDelta,
                    leaf,
                    encode_tree(&stream.cum_3d, &stream.table, &self.dict),
                )
            })
            .collect();
        let reseed_bytes = packets.iter().map(|p| p.size_bytes() as u64).sum();
        self.incremental.fold_wave(packets, filter)?;
        Ok(reseed_bytes)
    }

    fn gather_wave(
        &mut self,
        app: &dyn Application,
        base: u32,
        samples: u32,
        topology: &Topology,
        needs_rank_map: bool,
    ) -> (Vec<DaemonContribution>, Vec<Packet>, u64, WaveStats) {
        let mut contributions = Vec::new();
        let mut deltas = Vec::new();
        let mut traces_total = 0u64;
        let mut stats = WaveStats::default();
        for (stream, &leaf) in self
            .streams
            .iter_mut()
            .flatten()
            .zip(topology.backends().iter())
        {
            let (mut contribution, wave_3d) = stream.daemon.contribute_from::<S>(
                app,
                base..base.saturating_add(samples),
                leaf,
                &mut stream.table,
                &self.dict,
            );
            let delta_start = Instant::now();
            let delta = wave_3d.delta_from(&stream.cum_3d);
            stream.cum_3d.merge_aligned(wave_3d);
            let delta_payload = encode_tree(&delta, &stream.table, &self.dict);
            contribution.local_merge_wall += delta_start.elapsed();

            traces_total += contribution.traces_gathered;
            stats.packet_bytes +=
                (contribution.tree_2d.size_bytes() + contribution.tree_3d.size_bytes()) as u64;
            if needs_rank_map {
                stats.packet_bytes += contribution.rank_map.size_bytes() as u64;
            }
            let delta_packet = Packet::new(PacketTag::TreeDelta, leaf, delta_payload);
            stats.delta_bytes += delta_packet.size_bytes() as u64;
            stats.full_packet_bytes +=
                encoded_tree_size(&stream.cum_3d, &stream.table, &self.dict) as u64;
            stats.sample += contribution.sample_wall;
            stats.local_merge += contribution.local_merge_wall;

            contributions.push(contribution);
            deltas.push(delta_packet);
        }
        (contributions, deltas, traces_total, stats)
    }

    fn fold_wave(
        &mut self,
        deltas: Vec<Packet>,
        filter: &dyn Filter,
    ) -> Result<WaveOutcome, TbonError> {
        self.incremental.fold_wave(deltas, filter)
    }

    fn covered_tasks(&self) -> u64 {
        self.streams
            .iter()
            .flatten()
            .map(|s| s.daemon.local_tasks())
            .sum()
    }

    fn resident_bytes(&self) -> usize {
        self.incremental.resident_bytes()
    }

    fn incremental_canonical(&self) -> CanonicalTree {
        // Frame ids in the resident tree are session-global, so the dictionary
        // snapshot — the same table every daemon encoded against — resolves
        // every name, including incrementally interned ones.
        match self.incremental.frontend_state() {
            Some(state) => match state.tree.as_ref() {
                Some(tree) => canonical(tree, &self.dict.snapshot()),
                None => Vec::new(),
            },
            None => Vec::new(),
        }
    }

    fn batched_canonical(&self) -> CanonicalTree {
        let mut merged: Option<PrefixTree<S>> = None;
        for stream in self.streams.iter().flatten() {
            let payload = encode_tree(&stream.cum_3d, &stream.table, &self.dict);
            let Ok((tree, _frames)) = decode_tree::<S>(&payload) else {
                return Vec::new();
            };
            match merged.as_mut() {
                None => merged = Some(tree),
                Some(acc) => acc.merge(tree),
            }
        }
        match merged {
            Some(tree) => canonical(&tree, &self.dict.snapshot()),
            None => Vec::new(),
        }
    }
}

/// What one wave of a streaming session produced.
#[derive(Clone, Debug)]
pub struct WaveReport {
    /// The wave index this report describes (0-based).
    pub wave: u32,
    /// Per-phase wall-clock breakdown of the wave's full-view pipeline.
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
}

impl StreamingBuilder {
    pub(crate) fn new(session: Session) -> Self {
        StreamingBuilder {
            session,
            scheduled: Vec::new(),
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
    lost_ranks: Vec<u64>,
    state: Box<dyn WaveStream>,
    total_backends: usize,
    dict: FrameDictionary,
}

impl StreamingSession {
    /// Run the next wave: apply any faults due, gather, reduce the wave's view,
    /// fold the deltas, and judge the diagnosis against the wave's truth.
    pub fn advance(&mut self) -> Result<WaveReport, StatError> {
        let wave = self.wave;
        let strategy = self.session.representation().strategy();
        let filter = strategy.merge_filter();

        let due: Vec<OverlayFault> = self
            .scheduled
            .iter()
            .filter(|(w, _)| *w == wave)
            .map(|(_, f)| *f)
            .collect();
        let mut reseeded = false;
        let mut reseed_bytes = 0u64;
        if !due.is_empty() {
            reseed_bytes = self.apply_faults(&due, filter.as_ref())?;
            reseeded = true;
        }

        let app = self.source.app_at(wave);
        let samples = self.session.samples_per_task();
        let base = wave.saturating_mul(samples);
        let (contributions, deltas, traces_gathered, stats) = self.state.gather_wave(
            app.as_ref(),
            base,
            samples,
            &self.topology,
            strategy.needs_rank_map(),
        );

        let (gather, mut phases) = self.session.merge_through(
            &self.topology,
            contributions,
            self.tasks,
            &self.dict,
            &[],
        )?;
        phases.sample = stats.sample;
        phases.local_merge = stats.local_merge;

        let fold = self.state.fold_wave(deltas, filter.as_ref())?;

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
            packet_bytes: stats.packet_bytes,
            delta_bytes: stats.delta_bytes,
            reseed_bytes,
            full_packet_bytes: stats.full_packet_bytes,
            traces_gathered,
            classes: gather.classes.len(),
            diagnosis,
            verdict,
            covered_tasks: self.tasks - lost_tasks,
            lost_tasks,
            reseeded,
        })
    }

    /// Apply overlay faults against the *current* (possibly already pruned)
    /// topology, rebuild over the survivors and re-seed the incremental state.
    fn apply_faults(
        &mut self,
        faults: &[OverlayFault],
        filter: &dyn Filter,
    ) -> Result<u64, StatError> {
        let (surviving, topology) =
            prune_overlay(self.topology.clone(), faults, self.total_backends)?;
        let keep: BTreeSet<usize> = surviving.into_iter().collect();
        self.topology = topology;
        self.state
            .rebuild(&keep, &mut self.lost_ranks, &self.topology, filter)
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

    /// Tasks still covered by surviving daemons.
    pub fn covered_tasks(&self) -> u64 {
        self.state.covered_tasks()
    }

    /// Total resident footprint of the incremental overlay state, in bytes.
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
    use appsim::scenario::catalogue;
    use appsim::{FaultSchedule, FrameVocabulary, SteadySource};
    use machine::cluster::Cluster;

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
        assert_eq!(stream.covered_tasks(), 56);
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
