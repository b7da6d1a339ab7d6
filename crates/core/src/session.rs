//! End-to-end STAT sessions.
//!
//! Two ways of "running STAT" coexist in the reproduction, mirroring the split the
//! rest of the code base makes between real algorithms and modelled environment:
//!
//! * [`Session`] actually runs the tool: it partitions the job over daemons, lets
//!   them gather stack traces from the (simulated) application with the real walker
//!   and build the real local trees side by side on the overlay's workers (the
//!   paper's daemons sample at once, and the front end waits for the slowest), and
//!   pushes the real serialised packets — 2D tree, 3D tree and rank map together,
//!   as channels of **one** overlay walk — through the real in-process TBON with
//!   the real merge filters.  [`Session::attach`] returns a
//!   [`SessionReport`] with the merged trees, behaviour classes, byte-flow metrics
//!   and a per-phase timing breakdown.  The examples, integration tests and
//!   real-execution benchmarks use this path.  `attach` is the fault-free case of
//!   the one gather body that [`Session::run_scenario`] also runs: a gather that
//!   lost daemons or carries a corrupted interior filter is the same code as a
//!   gather.
//!
//! * [`PhaseEstimator`] prices the merge phase the paper measures (and the
//!   front-end remap) for configurations as large as the full 212,992-task BG/L:
//!   [`PhaseEstimator::merge_estimate`] runs the reduction cost model's one entry
//!   point ([`tbon::cost::price_reduction`]) over the placement-rule shape of a
//!   depth; startup and sampling are priced by the `launch` crate and
//!   `stackwalk`'s `SamplingCostModel` directly.  The figure
//!   generators use this path, with the real path cross-checking the small-scale
//!   points.

use std::time::{Duration, Instant};

use appsim::scenario::{MidTreeFault, OverlayFault};
use appsim::Application;
use machine::cluster::Cluster;
use machine::placement::PlacementPlan;
use simkit::time::SimDuration;
use stackwalk::FrameDictionary;
use tbon::cost::{price_reduction, Labels, ReductionCost, TreePayload};
use tbon::fault::{CorruptingFilter, FilterFault};
use tbon::filter::Filter;
use tbon::network::{ChannelInput, InProcessTbon, TbonError};
use tbon::planner::TopologyPlanner;
use tbon::topology::{Topology, TreeShape};

use crate::daemon::{DaemonContribution, StatDaemon};
use crate::equivalence::equivalence_classes;
use crate::error::{MergeChannel, StatError};
use crate::filter::RankMapFilter;
use crate::frontend::{GatherResult, MergeMetrics, Representation};
use crate::scenario::{prune_overlay, resolve_filter_faults};
use crate::serialize::encode_dictionary;

/// Time spent in each phase of a real session, in pipeline order.
///
/// The paper's central observation is that sampling → local merge → reduction →
/// remap is *one* pipeline whose phases must be measured together; this struct is
/// how a [`SessionReport`] exposes that.
///
/// `contribute + reduce + remap + classify` are consecutive walls: their sum
/// reconciles with the `attach` (or wave) wall, less the session's own set-up.
#[derive(Clone, Copy, Debug, Default)]
pub struct PhaseTimings {
    /// The daemons' contribution, wall-clock: the side-by-side map over every
    /// daemon's walk → close → encode, one-shot and in every streaming wave.
    pub contribute: Duration,
    /// Walking the application tasks' call paths into the daemon-local prefix trees:
    /// the paths, their descent and the end marks.  A CPU-style sum over daemons,
    /// like `ReductionOutcome::filter_time`: the daemons run side by side, so it
    /// can exceed the wall ([`SessionReport::straggler`] is the slowest daemon).
    pub sample: Duration,
    /// Closing the daemon-local trees upward and serialising them (and a wave's
    /// delta): a sum over daemons, like `sample`.
    pub local_merge: Duration,
    /// The single multi-channel TBON reduction walk.
    pub reduce: Duration,
    /// The front-end remap into MPI rank order (zero for the global representation).
    pub remap: Duration,
    /// Extracting behaviour classes from the merged 3D tree.
    pub classify: Duration,
}

impl PhaseTimings {
    /// Every phase added up.  `sample` and `local_merge` are CPU-style sums over
    /// daemons that ran side by side, so the total can exceed the session's wall.
    pub fn total(&self) -> Duration {
        self.sample + self.local_merge + self.reduce + self.remap + self.classify
    }
}

/// The result of a real session: what the user sees plus how the pipeline behaved.
#[derive(Clone, Debug)]
pub struct SessionReport {
    /// The merged trees, classes and byte-flow metrics.
    pub gather: GatherResult,
    /// Number of daemons the planned topology started with.
    pub daemons: u32,
    /// The tree that actually merged: the planned shape, pruned by any daemon
    /// losses.
    pub topology: TreeShape,
    /// The ranks whose daemons were lost before they could contribute, ascending
    /// (empty for a healthy overlay).
    pub lost_ranks: Vec<u64>,
    /// Total traces gathered across all daemons.
    pub traces_gathered: u64,
    /// Per-phase breakdown.
    pub phases: PhaseTimings,
    /// The slowest daemon and its sample + local-merge wall: the one the front
    /// end waits for (`None` when no daemon contributed).
    pub straggler: Option<(u32, Duration)>,
    /// Total bytes that entered the TBON at the leaves: every daemon's serialised
    /// 2D and 3D trees plus — for representations that ship one — its rank-map
    /// packet.  This is the per-gather ingress volume streaming sessions compare
    /// their per-wave deltas against.
    pub packet_bytes: u64,
    /// Largest serialised contribution (2D + 3D trees) any single daemon produced.
    pub max_daemon_packet_bytes: u64,
    /// Mean serialised contribution (2D + 3D trees) across daemons.
    pub mean_daemon_packet_bytes: u64,
    /// Bytes spent broadcasting the negotiated frame dictionary down the overlay
    /// at session setup: the encoded dictionary payload once per overlay link.
    /// A one-time setup cost, kept separate from the per-gather `packet_bytes`
    /// so streaming sessions can amortise it across waves.
    pub dictionary_bytes: u64,
}

/// A gather's leaf side, summed once by `merge_through`: [`SessionReport`]'s fields.
pub(crate) struct LeafTotals {
    pub(crate) traces_gathered: u64,
    straggler: Option<(u32, Duration)>,
    pub(crate) packet_bytes: u64,
    max_daemon_packet_bytes: u64,
    mean_daemon_packet_bytes: u64,
}

/// How a session decides its overlay tree shape.
#[derive(Clone, Debug)]
enum TopologyChoice {
    /// The paper's default: the placement-rule 2-deep shape for the job size,
    /// resolved when the job size is known.
    PaperDefault,
    /// A caller-pinned shape — sweeps over a placement depth, tests that need an
    /// exact tree.
    Pinned(TreeShape),
    /// Let [`TopologyPlanner`] search candidate shapes with the cost model and use
    /// its cheapest feasible pick.
    Planned,
}

/// Builder for a real (in-process) STAT session.
///
/// Obtained from [`Session::builder`]; every knob has the defaults the paper's
/// experiments use (2-deep tree, hierarchical representation, 10 samples per task).
#[derive(Clone, Debug)]
pub struct SessionBuilder {
    cluster: Cluster,
    representation: Representation,
    samples_per_task: u32,
    topology: TopologyChoice,
}

impl SessionBuilder {
    /// Select the task-set representation.
    pub fn representation(mut self, representation: Representation) -> Self {
        self.representation = representation;
        self
    }

    /// Set how many stack-trace samples to gather per task.
    pub fn samples_per_task(mut self, samples: u32) -> Self {
        self.samples_per_task = samples;
        self
    }

    /// Pin an explicit tree shape instead of deriving one from the machine's
    /// placement rules — used by depth sweeps and by tests that need an exact tree.
    /// The placement-rule shape at a chosen depth is
    /// `TreeShape::for_placement(&PlacementPlan::for_job(&cluster, tasks), depth)`;
    /// [`plan_topology`](SessionBuilder::plan_topology) lets the cost model pick
    /// the depth instead.
    pub fn topology(mut self, shape: TreeShape) -> Self {
        self.topology = TopologyChoice::Pinned(shape);
        self
    }

    /// Let the [`TopologyPlanner`] pick the tree shape: when the job size is known
    /// (at [`Session::attach`] / [`Session::merge`] time), candidate shapes are
    /// priced with the reduction cost model under the machine's placement
    /// constraints, and the cheapest feasible one is used.
    pub fn plan_topology(mut self) -> Self {
        self.topology = TopologyChoice::Planned;
        self
    }

    /// Turn this configuration into a *streaming* session builder: instead of one
    /// attach-and-exit gather, the session will sample in waves of
    /// `samples_per_wave` traces per task, ship per-wave deltas through the
    /// overlay and maintain a rolling job-wide merge.  See
    /// [`crate::streaming::StreamingSession`].
    pub fn streaming(self, samples_per_wave: u32) -> crate::streaming::StreamingBuilder {
        crate::streaming::StreamingBuilder::new(self.samples_per_task(samples_per_wave).build())
    }

    /// Finish the builder.
    pub fn build(self) -> Session {
        Session {
            cluster: self.cluster,
            representation: self.representation,
            samples_per_task: self.samples_per_task,
            topology: self.topology,
        }
    }
}

/// A configured STAT session over a (simulated) machine.
///
/// ```
/// use appsim::{FrameVocabulary, RingHangApp};
/// use machine::Cluster;
/// use stat_core::prelude::*;
///
/// // A 256-task MPI ring test in which rank 1 hangs before its send.
/// let app = RingHangApp::new(256, FrameVocabulary::Linux);
/// let session = Session::builder(Cluster::test_cluster(32, 8))
///     .representation(Representation::HierarchicalTaskList)
///     .samples_per_task(3)
///     .build();
/// let report = session.attach(&app).expect("the session merges cleanly");
///
/// // The 256 tasks collapse into three behaviour classes...
/// assert_eq!(report.gather.classes.len(), 3);
/// // ...and the whole merge took exactly one walk of the overlay.
/// assert_eq!(report.gather.metrics.tree_walks, 1);
/// ```
#[derive(Clone, Debug)]
pub struct Session {
    cluster: Cluster,
    representation: Representation,
    samples_per_task: u32,
    topology: TopologyChoice,
}

impl Session {
    /// Start configuring a session on the given machine.
    pub fn builder(cluster: Cluster) -> SessionBuilder {
        SessionBuilder {
            cluster,
            representation: Representation::HierarchicalTaskList,
            samples_per_task: 10,
            topology: TopologyChoice::PaperDefault,
        }
    }

    /// The machine the session is modelled on.
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// The task-set representation in use.
    pub fn representation(&self) -> Representation {
        self.representation
    }

    /// Samples gathered per task.
    pub fn samples_per_task(&self) -> u32 {
        self.samples_per_task
    }

    /// The tree shape the session will use for a job of `tasks` tasks.
    pub fn topology_for(&self, tasks: u64) -> TreeShape {
        match &self.topology {
            TopologyChoice::Pinned(shape) => shape.clone(),
            TopologyChoice::Planned => TopologyPlanner::new(self.cluster.clone()).plan(tasks).shape,
            TopologyChoice::PaperDefault => {
                let plan = PlacementPlan::for_job(&self.cluster, tasks);
                TreeShape::for_placement(&plan, 2)
            }
        }
    }

    /// Attach to an application and run the full pipeline: sample every task, build
    /// the daemon-local trees, carry all channels up the overlay in one reduction
    /// walk, remap (if the representation needs it) and classify.
    pub fn attach(&self, app: &dyn Application) -> Result<SessionReport, StatError> {
        self.gather(app, &[], &[])
    }

    /// The one gather body, whatever faults it carries: plan the overlay, prune it
    /// by `overlay_faults` (the identity when there are none), aim
    /// `mid_tree_faults` at the tree that actually merges, negotiate the frame
    /// dictionary, let the surviving daemons contribute side by side, and reduce →
    /// remap → classify through [`merge_through`](Session::merge_through), all
    /// over one network.
    pub(crate) fn gather(
        &self,
        app: &dyn Application,
        overlay_faults: &[OverlayFault],
        mid_tree_faults: &[MidTreeFault],
    ) -> Result<SessionReport, StatError> {
        let tasks = app.num_tasks();
        let planned = self.topology_for(tasks);
        let total_backends = planned.backends();
        let daemons = StatDaemon::partition(tasks, total_backends);
        let (surviving, topology) =
            prune_overlay(Topology::build(planned), overlay_faults, daemons.len())?;
        // On a pruned overlay the corrupted comm process is one that survived and
        // still merges its (reduced) subtree.
        let filter_faults = resolve_filter_faults(&topology, mid_tree_faults)?;
        let strategy = self.representation.strategy();

        // Wire-format v2: the session-global frame dictionary is negotiated once,
        // before any daemon contributes; every packet then carries its base ids
        // and names its own frames past them.  Negotiation costs one broadcast of
        // the encoded dictionary down the overlay, priced per link.
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let dictionary_payload = encode_dictionary(&dict.negotiated_names()).len() as u64;
        let net = InProcessTbon::new(topology);
        let dictionary_bytes = net.broadcast_link_bytes(dictionary_payload);

        // Only the survivors spend sampling time — a dead daemon gathers nothing —
        // and they contribute side by side on the overlay's workers.
        let leaves = net.topology().backends().iter().copied();
        let survivors = surviving.iter().map(|&idx| &daemons[idx]).zip(leaves);
        let samples = self.samples_per_task;
        let contribute_start = Instant::now();
        let contributions =
            strategy.contribute_all(survivors.collect(), app, samples, &dict, &net)?;
        let contribute = contribute_start.elapsed();
        // `surviving` is ascending: it is a filter of the backend order.
        let lost_ranks: Vec<u64> = daemons
            .iter()
            .enumerate()
            .filter(|(idx, _)| surviving.binary_search(idx).is_err())
            .flat_map(|(_, d)| &d.ranks)
            .collect();

        let (gather, mut phases, leaf) =
            self.merge_through(&net, contributions, tasks, &dict, &filter_faults)?;
        phases.contribute = contribute;
        Ok(SessionReport {
            gather,
            daemons: total_backends,
            topology: net.topology().shape().clone(),
            lost_ranks,
            traces_gathered: leaf.traces_gathered,
            phases,
            straggler: leaf.straggler,
            packet_bytes: leaf.packet_bytes,
            max_daemon_packet_bytes: leaf.max_daemon_packet_bytes,
            mean_daemon_packet_bytes: leaf.mean_daemon_packet_bytes,
            dictionary_bytes,
        })
    }

    /// Merge already-gathered daemon contributions (one per topology leaf, in
    /// backend order) without re-sampling — the reduce → remap → classify tail of
    /// [`attach`](Session::attach) on its own.
    ///
    /// `dict` must be the frame dictionary the contributions were encoded against:
    /// its base ids mean one frame in every packet; each packet names the rest.
    pub fn merge(
        &self,
        contributions: Vec<DaemonContribution>,
        total_tasks: u64,
        dict: &FrameDictionary,
    ) -> Result<GatherResult, StatError> {
        let net = InProcessTbon::new(Topology::build(self.topology_for(total_tasks)));
        let (gather, _, _) = self.merge_through(&net, contributions, total_tasks, dict, &[])?;
        Ok(gather)
    }

    /// The single-pass reduce → remap → classify tail of the pipeline.  Shared
    /// with the streaming path, which reduces each wave's view through the same
    /// machinery over its (possibly pruned) current topology.
    ///
    /// The leaf side (traces, `sample` / `local_merge`, leaf bytes, straggler) is
    /// summed here, once, as the contributions split into channels; the caller
    /// times `phases.contribute`.
    ///
    /// `filter_faults` is the fault-campaign hook for "an interior node's filter
    /// state went bad": the named nodes still take part in the walk, but every
    /// packet they forward is corrupted through a [`CorruptingFilter`], and the
    /// test is whether the front end *detects* the damage.  Every filter goes
    /// through the wrapper; with no faults named it passes every packet through.
    ///
    /// When every daemon's 2D packet shares its 3D packet's buffer (each task
    /// gave one trace), the walk carries the 2D channel and the rank map only,
    /// and the 2D outcome serves as the 3D one: the merge filter, corrupted or
    /// not, gives a node the same output for the same inputs.  The wire still
    /// carries both trees, so the byte columns count both; only the filters that
    /// ran are timed and counted.  Errors read as the three-channel walk's.
    pub(crate) fn merge_through(
        &self,
        net: &InProcessTbon,
        contributions: Vec<DaemonContribution>,
        total_tasks: u64,
        dict: &FrameDictionary,
        filter_faults: &[FilterFault],
    ) -> Result<(GatherResult, PhaseTimings, LeafTotals), StatError> {
        let strategy = self.representation.strategy();

        // Split the contributions into the channels the walk carries (no 3D one when
        // every 2D packet shares its 3D buffer), moving the packets, never copying.
        let needs_map = strategy.needs_rank_map();
        let same = |c: &DaemonContribution| std::ptr::eq(&*c.tree_2d.payload, &*c.tree_3d.payload);
        let shared = contributions.iter().all(same);
        let daemons = contributions.len() as u64;
        let leaves = |wanted| Vec::with_capacity(if wanted { daemons as usize } else { 0 });
        let (mut leaves_2d, mut leaves_3d) = (leaves(true), leaves(!shared));
        let mut leaves_map = leaves(needs_map);
        let (mut phases, mut traces_gathered, mut straggler) = (PhaseTimings::default(), 0, None);
        // Per daemon, alive to the end: running sums instead move glibc's
        // dynamic mmap threshold and lift a 1M-task attach's peak RSS ~12 %.
        let mut tree_bytes = Vec::with_capacity(daemons as usize);
        for c in contributions {
            traces_gathered += c.traces_gathered;
            phases.sample += c.sample_wall;
            phases.local_merge += c.local_merge_wall;
            // The last of equally slow daemons, as `max_by_key` picks.
            let wall = c.sample_wall + c.local_merge_wall;
            straggler = straggler
                .filter(|&(_, slow)| slow > wall)
                .or(Some((c.daemon_id, wall)));
            tree_bytes.push((c.tree_2d.size_bytes() + c.tree_3d.size_bytes()) as u64);
            leaves_2d.push(c.tree_2d);
            leaves_3d.extend((!shared).then_some(c.tree_3d));
            leaves_map.extend(needs_map.then_some(c.rank_map));
        }
        let tree_total: u64 = tree_bytes.iter().sum();
        let map_total: u64 = leaves_map.iter().map(|p| p.size_bytes() as u64).sum();

        // Mid-tree fault injection: the designated interior nodes corrupt their
        // output on every channel they touch.
        let merge_filter = strategy.merge_filter();
        let merge = CorruptingFilter::new(merge_filter.as_ref(), filter_faults);
        let rank_map = CorruptingFilter::new(&RankMapFilter, filter_faults);
        let mut channels = vec![ChannelInput::new(MergeChannel::Tree2d.label(), leaves_2d)];
        let mut filters: Vec<&dyn Filter> = vec![&merge];
        if !shared {
            channels.push(ChannelInput::new(MergeChannel::Tree3d.label(), leaves_3d));
            filters.push(&merge);
        }
        if needs_map {
            channels.push(ChannelInput::new(MergeChannel::RankMap.label(), leaves_map));
            filters.push(&rank_map);
        }

        // The one bottom-up level walk that carries every channel.
        let reduce_start = Instant::now();
        let mut walked = net.reduce_channels(channels, &filters);
        phases.reduce = reduce_start.elapsed();
        // The rank map keeps its channel index when the 3D channel is left out.
        if let Err(TbonError::FilterPanicked { channel, .. }) = &mut walked {
            *channel += usize::from(shared && *channel > 0);
        }
        let mut outcomes = walked?;
        if shared {
            let mut ditto = outcomes[0].clone();
            (ditto.filter_time, ditto.filter_invocations) = (Duration::ZERO, 0);
            outcomes.insert(1, ditto);
        }

        let mut metrics = MergeMetrics::default();
        metrics.absorb_walk(&outcomes, phases.reduce);

        let merged = strategy.finish(
            &outcomes[0],
            &outcomes[1],
            outcomes.get(2),
            total_tasks,
            dict,
        )?;
        metrics.remap_wall = merged.remap_wall;
        phases.remap = merged.remap_wall;

        let classify_start = Instant::now();
        let classes = equivalence_classes(&merged.tree_3d);
        phases.classify = classify_start.elapsed();

        let gather = GatherResult {
            tree_2d: merged.tree_2d,
            tree_3d: merged.tree_3d,
            frames: merged.frames,
            classes,
            metrics,
        };
        let leaf = LeafTotals {
            traces_gathered,
            straggler,
            packet_bytes: tree_total + map_total,
            max_daemon_packet_bytes: tree_bytes.into_iter().max().unwrap_or(0),
            mean_daemon_packet_bytes: tree_total / daemons.max(1),
        };
        Ok((gather, phases, leaf))
    }
}

/// A merge-phase estimate for one configuration.
#[derive(Clone, Debug)]
pub struct MergeEstimate {
    /// The modelled reduction of both trees up to the front end: critical path
    /// and byte flow.
    pub cost: ReductionCost,
    /// `Some(reason)` if the configuration could not complete at all (the 1-deep tree
    /// on BG/L past 256 daemons, in the paper).
    pub failed: Option<String>,
}

/// Seconds per task of the front-end remap step (only paid by the hierarchical
/// representation; 0.66 s / 208K tasks in the paper).
const REMAP_SECONDS_PER_TASK: f64 = 3.1e-6;

/// Prices the paper's merge phase at arbitrary scale using the environment models,
/// under the ring-hang payload calibration.
#[derive(Clone, Debug)]
pub struct PhaseEstimator {
    /// The machine being modelled.
    pub cluster: Cluster,
    /// The task-set representation in use.
    pub representation: Representation,
}

impl PhaseEstimator {
    /// An estimator for the given machine and representation.
    pub fn new(cluster: Cluster, representation: Representation) -> Self {
        PhaseEstimator {
            cluster,
            representation,
        }
    }

    /// Estimate the merge phase (Figures 4, 5 and 7) over the placement-rule shape
    /// of the given depth (1 = flat, 2/3 = the paper's families, deeper = the
    /// generalised budget-fitted rule).
    pub fn merge_estimate(&self, tasks: u64, depth: u32) -> MergeEstimate {
        let spec = TreeShape::for_placement(&PlacementPlan::for_job(&self.cluster, tasks), depth);
        let job = self.cluster.job(tasks);
        let labels = match self.representation {
            Representation::GlobalBitVector => Labels::JobWide,
            Representation::HierarchicalTaskList => Labels::Subtree,
        };
        let payload = TreePayload::ring_hang(job.tasks, job.tasks_per_daemon as u64, labels);
        let cost = price_reduction(&self.cluster, &spec, &payload);

        // The paper's 1-deep tree on BG/L failed outright at 256 I/O-node daemons:
        // the front end cannot sustain that many direct connections each carrying
        // job-wide bit vectors.  The rule is shared with the planner's feasibility
        // check so the estimator and the planner cannot drift.
        let failed =
            if tbon::planner::flat_frontend_overloaded(&spec, self.cluster.daemons_on_io_nodes()) {
                Some(format!(
                    "1-deep topology failed: the front end cannot absorb {} direct daemon \
                 connections (the paper observed this failure at {} I/O nodes)",
                    spec.backends(),
                    tbon::planner::FLAT_FRONTEND_LIMIT
                ))
            } else {
                None
            };

        MergeEstimate { cost, failed }
    }

    /// Estimate the front-end remap cost (the 0.66 s figure in Section V-C).
    pub fn remap_estimate(&self, tasks: u64) -> SimDuration {
        match self.representation {
            Representation::GlobalBitVector => SimDuration::ZERO,
            Representation::HierarchicalTaskList => {
                SimDuration::from_secs(tasks as f64 * REMAP_SECONDS_PER_TASK)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::MergeChannel;
    use crate::taskset::{RankRuns, TaskSetOps};
    use appsim::{FrameVocabulary, RingHangApp};
    use machine::cluster::BglMode;
    use tbon::network::TbonError;
    use tbon::packet::{Packet, PacketTag};

    fn small_session(representation: Representation, nodes: u32) -> Session {
        Session::builder(Cluster::test_cluster(nodes, 8))
            .representation(representation)
            .samples_per_task(3)
            .build()
    }

    #[test]
    fn real_session_end_to_end_on_atlas_shape() {
        let app = RingHangApp::new(256, FrameVocabulary::Linux);
        let session = Session::builder(Cluster::test_cluster(64, 8)).build();
        let report = session.attach(&app).unwrap();
        assert_eq!(report.daemons, 32); // 256 tasks / 8 per node
        assert_eq!(report.gather.classes.len(), 3);
        assert_eq!(report.traces_gathered, 256 * 10);
        let mut attach = report.gather.attach_set();
        attach.sort_unstable();
        assert_eq!(attach, vec![0, 1, 2]);
        // The pipeline phases are all visible.
        assert!(report.phases.total() >= report.phases.reduce);
        assert!(report.max_daemon_packet_bytes >= report.mean_daemon_packet_bytes);
        // The negotiated dictionary was broadcast once per overlay link.
        assert!(report.dictionary_bytes > 0);
    }

    #[test]
    fn the_straggler_is_a_surviving_daemon_within_the_phase_sums() {
        // The last of 32 daemons is lost before it can contribute.
        let app = RingHangApp::new(256, FrameVocabulary::Linux);
        let report = small_session(Representation::HierarchicalTaskList, 32)
            .gather(&app, &[OverlayFault::BackendFromEnd(0)], &[])
            .unwrap();
        assert_eq!(report.lost_ranks, (248..256).collect::<Vec<u64>>());
        let (daemon, wall) = report.straggler.expect("31 daemons contributed");
        assert!(daemon < 31, "daemon {daemon} was lost");
        assert!(wall <= report.phases.sample + report.phases.local_merge);
    }

    #[test]
    fn the_phase_walls_reconcile_with_the_attach_wall() {
        let app = RingHangApp::new(1_024, FrameVocabulary::Linux);
        let session = small_session(Representation::HierarchicalTaskList, 64);
        let start = Instant::now();
        let report = session.attach(&app).unwrap();
        let attach_wall = start.elapsed();
        // A stream wave over the same job, timed around `advance`.
        let truth = app.ground_truth();
        let source = appsim::SteadySource::new(std::sync::Arc::new(app), truth);
        let mut stream = Session::builder(Cluster::test_cluster(64, 8))
            .streaming(3)
            .open(Box::new(source))
            .unwrap();
        let start = Instant::now();
        let wave = stream.advance().unwrap();
        let wave_wall = start.elapsed();
        // A wave's phases lie end to end within its wall, fold included.
        let p = wave.phases;
        assert!(p.sample + p.local_merge <= p.contribute, "{p:?}");
        assert!(
            p.total() + wave.fold_wall <= wave_wall,
            "{p:?} vs {wave_wall:?}"
        );
        for (p, wall) in [(report.phases, attach_wall), (wave.phases, wave_wall)] {
            assert!(p.contribute > Duration::ZERO);
            assert!(
                p.contribute + p.reduce + p.remap + p.classify <= wall,
                "{p:?} vs {wall:?}"
            );
        }
        // The straggler ran inside the daemon map.
        let (_, straggler) = report.straggler.expect("64 daemons contributed");
        assert!(straggler <= report.phases.contribute, "{straggler:?}");
    }

    #[test]
    fn both_representations_agree_end_to_end() {
        let app = RingHangApp::new(128, FrameVocabulary::BlueGeneL);
        let global = small_session(Representation::GlobalBitVector, 32)
            .attach(&app)
            .unwrap();
        let hier = small_session(Representation::HierarchicalTaskList, 32)
            .attach(&app)
            .unwrap();
        assert_eq!(global.gather.classes.len(), hier.gather.classes.len());
        for (g, h) in global.gather.classes.iter().zip(hier.gather.classes.iter()) {
            assert_eq!(g.tasks, h.tasks);
        }
        assert!(global.gather.metrics.total_link_bytes > hier.gather.metrics.total_link_bytes);
    }

    #[test]
    fn hierarchical_representation_moves_far_fewer_bytes() {
        // 2,048 tasks over 16 daemons: wide enough for the job-wide bit vectors to
        // visibly dominate the hierarchical lists.
        let app = RingHangApp::new(2_048, FrameVocabulary::BlueGeneL);
        let global = small_session(Representation::GlobalBitVector, 16)
            .attach(&app)
            .unwrap();
        let hier = small_session(Representation::HierarchicalTaskList, 16)
            .attach(&app)
            .unwrap();
        assert!(
            global.gather.metrics.total_link_bytes > 2 * hier.gather.metrics.total_link_bytes,
            "global {} vs hierarchical {}",
            global.gather.metrics.total_link_bytes,
            hier.gather.metrics.total_link_bytes
        );
        assert_eq!(global.gather.metrics.remap_wall, Duration::ZERO);
    }

    #[test]
    fn dot_output_of_the_final_result_names_the_culprit() {
        let app = RingHangApp::new(128, FrameVocabulary::BlueGeneL);
        let report = small_session(Representation::HierarchicalTaskList, 16)
            .attach(&app)
            .unwrap();
        let dot = report.gather.to_dot();
        assert!(dot.contains("do_SendOrStall"));
        assert!(dot.contains("1:[1]"));
    }

    #[test]
    fn single_pass_merge_accounts_every_channel_in_one_walk() {
        let app = RingHangApp::new(64, FrameVocabulary::BlueGeneL);
        let session = Session::builder(Cluster::test_cluster(8, 8))
            .representation(Representation::HierarchicalTaskList)
            .samples_per_task(3)
            .topology(TreeShape::two_deep(8, 4))
            .build();
        let report = session.attach(&app).unwrap();
        // 3 channels (2D, 3D, rank map) over a 2-deep tree with 4 comm processes:
        // (4 + 1) filter invocations each — but exactly ONE walk of the overlay.
        assert_eq!(report.gather.metrics.tree_walks, 1);
        assert_eq!(report.gather.metrics.filter_invocations, 3 * 5);
        assert!(report.gather.metrics.frontend_bytes_in > 0);
        assert!(report.gather.metrics.total_link_bytes >= report.gather.metrics.frontend_bytes_in);
    }

    #[test]
    fn leaf_count_mismatch_is_reported_with_channel_context() {
        let app = RingHangApp::new(64, FrameVocabulary::Linux);
        let session = Session::builder(Cluster::test_cluster(8, 8))
            .topology(TreeShape::two_deep(8, 4))
            .samples_per_task(1)
            .build();
        let report = session.attach(&app).unwrap();
        assert_eq!(report.daemons, 8);

        // Re-merge with one contribution missing: the overlay reports which channel
        // came up short instead of asserting.
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let daemons = StatDaemon::partition(64, 8);
        let topology = Topology::build(TreeShape::two_deep(8, 4));
        let mut contributions: Vec<DaemonContribution> = daemons
            .iter()
            .zip(topology.backends())
            .map(|(d, &leaf)| {
                Representation::HierarchicalTaskList
                    .strategy()
                    .contribute(d, &app, 1, leaf, &dict)
            })
            .collect();
        contributions.pop();
        let err = session.merge(contributions, 64, &dict).unwrap_err();
        assert_eq!(
            err,
            StatError::Reduce(TbonError::LeafCountMismatch {
                channel: "2d-tree",
                expected: 8,
                actual: 7,
            })
        );
    }

    fn corrupted_contributions(
        app: &RingHangApp,
        corrupt: impl Fn(&mut DaemonContribution),
    ) -> (Session, Vec<DaemonContribution>, FrameDictionary) {
        let session = Session::builder(Cluster::test_cluster(8, 8))
            .topology(TreeShape::two_deep(8, 4))
            .samples_per_task(1)
            .build();
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let daemons = StatDaemon::partition(app.num_tasks(), 8);
        let topology = Topology::build(TreeShape::two_deep(8, 4));
        let contributions = daemons
            .iter()
            .zip(topology.backends())
            .map(|(d, &leaf)| {
                let mut c = Representation::HierarchicalTaskList
                    .strategy()
                    .contribute(d, app, 1, leaf, &dict);
                corrupt(&mut c);
                c
            })
            .collect();
        (session, contributions, dict)
    }

    #[test]
    fn malformed_tree_channel_fails_with_decode_context() {
        let app = RingHangApp::new(64, FrameVocabulary::Linux);
        // Corrupt every daemon's 2D packet: the merge filter skips them all, so the
        // front end receives an empty control packet and reports the decode failure
        // with its channel.
        let (session, contributions, dict) = corrupted_contributions(&app, |c| {
            c.tree_2d = Packet::new(PacketTag::Merged2d, c.tree_2d.source, vec![9, 9, 9]);
        });
        let err = session.merge(contributions, 64, &dict).unwrap_err();
        match err {
            StatError::Decode { channel, .. } => assert_eq!(channel, MergeChannel::Tree2d),
            other => panic!("expected a 2d-tree decode error, got {other:?}"),
        }
    }

    #[test]
    fn malformed_3d_channel_reports_its_own_channel() {
        let app = RingHangApp::new(64, FrameVocabulary::Linux);
        let (session, contributions, dict) = corrupted_contributions(&app, |c| {
            c.tree_3d = Packet::new(PacketTag::Merged3d, c.tree_3d.source, vec![0]);
        });
        let err = session.merge(contributions, 64, &dict).unwrap_err();
        match err {
            StatError::Decode { channel, .. } => assert_eq!(channel, MergeChannel::Tree3d),
            other => panic!("expected a 3d-tree decode error, got {other:?}"),
        }
    }

    #[test]
    fn short_rank_map_fails_the_remap_instead_of_panicking() {
        let app = RingHangApp::new(64, FrameVocabulary::Linux);
        // Corrupt every daemon's rank map (bytes in no rank-map format): the
        // rank-map filter skips them all, the concatenated map is empty, and the
        // remap refuses to invent ranks.
        let (session, contributions, dict) = corrupted_contributions(&app, |c| {
            c.rank_map = Packet::new(PacketTag::RankMap, c.rank_map.source, vec![9, 9, 9]);
        });
        let err = session.merge(contributions, 64, &dict).unwrap_err();
        assert_eq!(
            err,
            StatError::RankMapMismatch {
                positions: 64,
                mapped: 0,
            }
        );
    }

    #[test]
    fn out_of_range_rank_map_fails_the_remap_instead_of_panicking() {
        let app = RingHangApp::new(64, FrameVocabulary::Linux);
        // A corrupted rank map can still be well-formed runs, naming ranks the
        // job does not have.  The remap must refuse with a typed error, not
        // index past the dense width.
        let (session, contributions, dict) = corrupted_contributions(&app, |c| {
            let ranks: RankRuns = crate::serialize::decode_rank_map(&c.rank_map.payload)
                .unwrap()
                .runs()
                .map(|run| run.start + 1_000_000..run.end + 1_000_000)
                .collect();
            c.rank_map = Packet::new(
                PacketTag::RankMap,
                c.rank_map.source,
                crate::serialize::encode_rank_map(&ranks),
            );
        });
        let err = session.merge(contributions, 64, &dict).unwrap_err();
        match err {
            StatError::Decode {
                channel,
                source: crate::serialize::DecodeError::RankOutOfRange { rank, tasks },
                ..
            } => {
                assert_eq!(channel, MergeChannel::RankMap);
                assert_eq!(tasks, 64);
                assert!(rank >= 1_000_000);
            }
            other => panic!("expected an out-of-range rank-map error, got {other:?}"),
        }
    }

    #[test]
    fn degraded_merge_over_a_pinned_topology() {
        // The fault-handling path: merge only 4 of 8 daemons' contributions over a
        // pruned replacement topology.
        let app = RingHangApp::new(64, FrameVocabulary::Linux);
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let daemons = StatDaemon::partition(64, 8);
        let full_topology = Topology::build(TreeShape::two_deep(8, 4));
        let contributions: Vec<DaemonContribution> = daemons
            .iter()
            .zip(full_topology.backends())
            .take(4)
            .map(|(d, &leaf)| {
                Representation::HierarchicalTaskList
                    .strategy()
                    .contribute(d, &app, 2, leaf, &dict)
            })
            .collect();
        let session = Session::builder(Cluster::test_cluster(8, 8))
            .topology(TreeShape::two_deep(4, 2))
            .build();
        let gather = session.merge(contributions, 64, &dict).unwrap();
        assert_eq!(gather.tree_3d.tasks(gather.tree_3d.root()).count(), 32);
    }

    #[test]
    fn merge_estimate_reproduces_the_representation_gap() {
        let bgl = Cluster::bluegene_l(BglMode::VirtualNode);
        let global = PhaseEstimator::new(bgl.clone(), Representation::GlobalBitVector);
        let hier = PhaseEstimator::new(bgl, Representation::HierarchicalTaskList);

        let growth = |est: &PhaseEstimator| {
            let small = est.merge_estimate(16_384, 2).cost.critical_path.as_secs();
            let large = est.merge_estimate(212_992, 2).cost.critical_path.as_secs();
            large / small
        };
        let g_growth = growth(&global);
        let h_growth = growth(&hier);
        assert!(
            g_growth > 6.0,
            "global bit vectors scale ~linearly: {g_growth}"
        );
        assert!(
            h_growth < g_growth / 2.0,
            "hierarchical lists scale much better: {h_growth} vs {g_growth}"
        );
    }

    #[test]
    fn one_deep_fails_on_bgl_at_256_daemons() {
        let bgl = Cluster::bluegene_l(BglMode::CoProcessor);
        let est = PhaseEstimator::new(bgl, Representation::GlobalBitVector);
        // 16,384 compute nodes in CO mode = 256 I/O-node daemons.
        let flat = est.merge_estimate(16_384, 1);
        assert!(flat.failed.is_some());
        let smaller = est.merge_estimate(8_192, 1);
        assert!(smaller.failed.is_none());
        let two_deep = est.merge_estimate(16_384, 2);
        assert!(two_deep.failed.is_none());
    }

    #[test]
    fn remap_estimate_matches_the_paper_calibration() {
        let bgl = Cluster::bluegene_l(BglMode::VirtualNode);
        let est = PhaseEstimator::new(bgl.clone(), Representation::HierarchicalTaskList);
        let remap = est.remap_estimate(208_000).as_secs();
        assert!((0.5..0.9).contains(&remap), "paper: 0.66 s, got {remap}");
        let global = PhaseEstimator::new(bgl, Representation::GlobalBitVector);
        assert_eq!(global.remap_estimate(208_000), SimDuration::ZERO);
    }

    #[test]
    fn estimator_uses_the_paper_topology_rules() {
        let bgl = Cluster::bluegene_l(BglMode::VirtualNode);
        let est = PhaseEstimator::new(bgl.clone(), Representation::GlobalBitVector);
        let estimate = est.merge_estimate(212_992, 2).cost;
        // The paper's two-deep BG/L tree: 1,664 I/O-node daemons under 28 CPs.
        let spec = TreeShape::from_level_widths(vec![1, 28, 1_664]);
        let job = bgl.job(212_992);
        let payload =
            TreePayload::ring_hang(job.tasks, job.tasks_per_daemon as u64, Labels::JobWide);
        let expected = price_reduction(&bgl, &spec, &payload);
        assert_eq!(estimate.per_level.len(), 2);
        assert_eq!(estimate.critical_path, expected.critical_path);
        assert_eq!(estimate.max_node_bytes_in, expected.max_node_bytes_in);
        assert_eq!(estimate.total_link_bytes, expected.total_link_bytes);
    }

    #[test]
    fn planned_topology_runs_a_real_session() {
        let app = RingHangApp::new(512, FrameVocabulary::Linux);
        let session = Session::builder(Cluster::test_cluster(64, 8))
            .plan_topology()
            .samples_per_task(2)
            .build();
        // The planner resolves the shape from the job size at attach time; the
        // chosen shape is feasible for the machine and is reported back.
        let report = session.attach(&app).unwrap();
        assert_eq!(report.daemons, 64);
        assert_eq!(report.gather.classes.len(), 3);
        assert_eq!(report.topology, session.topology_for(512));
        let budget =
            machine::placement::CommProcessBudget::for_cluster(session.cluster()).max_processes;
        assert!(report.topology.comm_processes() <= budget);
    }

    #[test]
    fn pinned_deep_shapes_merge_identically_to_the_paper_shapes() {
        // A 4-deep tree — inexpressible under the old closed enum — must produce
        // byte-identical analysis results to the default 2-deep tree.
        let app = RingHangApp::new(256, FrameVocabulary::Linux);
        let deep = Session::builder(Cluster::test_cluster(32, 8))
            .topology(TreeShape::uniform_with_depth(32, 2, 4))
            .samples_per_task(3)
            .build()
            .attach(&app)
            .unwrap();
        assert_eq!(deep.topology.depth(), 4);
        let default = small_session(Representation::HierarchicalTaskList, 32)
            .attach(&app)
            .unwrap();
        assert_eq!(deep.gather.classes.len(), default.gather.classes.len());
        for (d, f) in deep
            .gather
            .classes
            .iter()
            .zip(default.gather.classes.iter())
        {
            assert_eq!(d.tasks, f.tasks);
        }
    }

    /// What the oracle compares of a merge: both trees' encoded bytes, the
    /// classes, the diagnosis, `packet_bytes` and the three byte columns.
    type Merged = (
        [Vec<u8>; 2],
        Vec<crate::equivalence::EquivalenceClass>,
        appsim::Diagnosis,
        [u64; 4],
    );

    fn merged(gather: &GatherResult, tasks: u64, dict: &FrameDictionary, leaf: u64) -> Merged {
        let encode = |tree| crate::serialize::encode_tree(tree, &gather.frames, dict);
        let m = &gather.metrics;
        (
            [encode(&gather.tree_2d), encode(&gather.tree_3d)],
            gather.classes.clone(),
            crate::scenario::diagnose(gather, tasks, Vec::new()),
            [
                leaf,
                m.frontend_bytes_in,
                m.max_node_bytes_in,
                m.total_link_bytes,
            ],
        )
    }

    /// The merge as three channels, spelled out: every daemon's 2D tree, 3D tree
    /// and rank map up one walk, each tree finished on its own, then classified.
    /// Also the filter invocations the tree channels took, 2D and 3D.
    fn three_channel_merge(
        session: &Session,
        net: &InProcessTbon,
        contributions: Vec<DaemonContribution>,
        tasks: u64,
        dict: &FrameDictionary,
        faults: &[FilterFault],
    ) -> Result<(Merged, [usize; 2]), StatError> {
        let strategy = session.representation().strategy();
        let needs_map = strategy.needs_rank_map();
        let mut leaves = [Vec::new(), Vec::new(), Vec::new()];
        let mut packet_bytes = 0;
        for c in contributions {
            let map = needs_map.then_some(c.rank_map);
            packet_bytes += c.tree_2d.size_bytes() + c.tree_3d.size_bytes();
            packet_bytes += map.as_ref().map_or(0, Packet::size_bytes);
            leaves[0].push(c.tree_2d);
            leaves[1].push(c.tree_3d);
            leaves[2].extend(map);
        }
        let filter = strategy.merge_filter();
        let merge = CorruptingFilter::new(filter.as_ref(), faults);
        let rank_map = CorruptingFilter::new(&RankMapFilter, faults);
        let [l2d, l3d, lmap] = leaves;
        let mut channels = vec![
            ChannelInput::new("2d-tree", l2d),
            ChannelInput::new("3d-tree", l3d),
        ];
        let mut filters: Vec<&dyn Filter> = vec![&merge, &merge];
        if needs_map {
            channels.push(ChannelInput::new("rank-map", lmap));
            filters.push(&rank_map);
        }
        let outcomes = net.reduce_channels(channels, &filters)?;
        let map = outcomes.get(2);
        let alone = |o| strategy.finish(o, o, map, tasks, dict);
        let (tree_2d, tree_3d) = (alone(&outcomes[0])?, alone(&outcomes[1])?);
        let mut metrics = MergeMetrics::default();
        metrics.absorb_walk(&outcomes, Duration::ZERO);
        // Each tree finished alone names its frames in its own root's order:
        // its bytes are encoded against its own table.
        let tree_2d_bytes = crate::serialize::encode_tree(&tree_2d.tree_2d, &tree_2d.frames, dict);
        let gather = GatherResult {
            classes: equivalence_classes(&tree_3d.tree_3d),
            tree_2d: tree_2d.tree_2d,
            tree_3d: tree_3d.tree_3d,
            frames: tree_3d.frames,
            metrics,
        };
        let invocations = [0, 1].map(|c| outcomes[c].filter_invocations);
        let mut merged = merged(&gather, tasks, dict, packet_bytes as u64);
        merged.0[0] = tree_2d_bytes;
        Ok((merged, invocations))
    }

    /// One sample a task, over both representations and depths 2 and 3: the
    /// one-channel merge reads as the three-channel walk; threads, a daemon
    /// whose 2D packet is a copy or differs, and a corrupted interior filter
    /// take (or judge as) the full walk.
    fn one_trace_merges_as_three_channels<S: crate::serialize::WireTaskSet>(
        representation: Representation,
    ) {
        use appsim::scenario::{MidTreeCorruption, MidTreeFault};
        use machine::placement::PlacementPlan;
        let v = FrameVocabulary::BlueGeneL;
        let tasks = 256;
        let cluster = Cluster::test_cluster(32, 8);
        let ring = RingHangApp::new(tasks, v);
        let corrupted = appsim::workloads::corrupted_stacks(tasks, 9, v);
        let threaded = appsim::workloads::threaded(tasks, 3, v);
        let apps: [(&str, &dyn Application); 3] = [
            ("ring hang", &ring),
            ("corrupted stacks", &corrupted),
            ("threaded", &threaded),
        ];
        for depth in [2, 3] {
            let shape = TreeShape::for_placement(&PlacementPlan::for_job(&cluster, tasks), depth);
            let session = Session::builder(cluster.clone())
                .representation(representation)
                .topology(shape.clone())
                .samples_per_task(1)
                .build();
            let net = InProcessTbon::new(Topology::build(shape));
            let daemons = StatDaemon::partition(tasks, net.topology().backends().len() as u32);
            for (name, app) in apps {
                let one_trace = app.threads_per_task() == 1;
                let dict = FrameDictionary::negotiate(app.frame_hints());
                let leaves = daemons
                    .iter()
                    .zip(net.topology().backends().iter().copied());
                let strategy = representation.strategy();
                let contributions = strategy.contribute_all(leaves.collect(), app, 1, &dict, &net);
                let contributions = contributions.expect("no daemon panics");
                for (d, c) in daemons.iter().zip(&contributions) {
                    let shares = std::ptr::eq(&*c.tree_2d.payload, &*c.tree_3d.payload);
                    assert_eq!(shares, one_trace, "{name}, daemon {}", d.id);
                    // The one-column walk's 2D tree is the two-column walk's.
                    let mut table = dict.table();
                    let (tree_2d, _) = d.build_trees::<S>(&d.gather(app, 1, &mut table));
                    let two_column = crate::serialize::encode_tree(&tree_2d, &table, &dict);
                    assert_eq!(c.tree_2d.payload, two_column, "{name}, daemon {}", d.id);
                }
                // The contributions as walked, one daemon's 2D packet copied into a
                // buffer of its own, and one daemon's 2D packet differing.
                let mut copied = contributions.clone();
                let bytes = copied[3].tree_2d.payload.to_vec();
                copied[3].tree_2d =
                    Packet::new(PacketTag::Merged2d, copied[3].tree_2d.source, bytes);
                let mut differing = contributions.clone();
                differing[5].tree_2d = differing[0].tree_2d.clone();
                assert_ne!(differing[5].tree_2d.payload, differing[5].tree_3d.payload);
                let garbage = MidTreeCorruption::Garbage;
                let [truncating, garbling] = [MidTreeCorruption::Truncate, garbage].map(|kind| {
                    let fault = MidTreeFault {
                        comm_from_end: 0,
                        kind,
                    };
                    let resolved = crate::scenario::resolve_filter_faults(net.topology(), &[fault]);
                    resolved.expect("the tree has a communication process")
                });
                let cases = [
                    ("as walked", contributions.clone(), one_trace, Vec::new()),
                    ("a copied 2D buffer", copied, false, Vec::new()),
                    ("a differing 2D packet", differing, false, Vec::new()),
                    (
                        "a truncating interior filter",
                        contributions.clone(),
                        one_trace,
                        truncating,
                    ),
                    (
                        "a garbling interior filter",
                        contributions,
                        one_trace,
                        garbling,
                    ),
                ];
                let mut as_walked = None;
                for (case, contributions, shared, faults) in cases {
                    let at = format!("{name}, {case}, depth {depth}, {representation:?}");
                    let reference = three_channel_merge(
                        &session,
                        &net,
                        contributions.clone(),
                        tasks,
                        &dict,
                        &faults,
                    );
                    let got = session
                        .merge_through(&net, contributions, tasks, &dict, &faults)
                        .map(|(gather, _, leaf)| {
                            let merged = merged(&gather, tasks, &dict, leaf.packet_bytes);
                            (merged, gather.metrics.filter_invocations)
                        });
                    let result = got.as_ref().map(|(merged, _)| merged);
                    assert_eq!(result, reference.as_ref().map(|(merged, _)| merged), "{at}");
                    // A corrupted interior filter changes what the front end sees.
                    let owned = result.cloned().map_err(StatError::clone);
                    match &as_walked {
                        None => as_walked = Some(owned),
                        Some(walked) if !faults.is_empty() => assert_ne!(walked, &owned, "{at}"),
                        Some(_) => {}
                    }
                    // Only the filters that ran count: a shared walk skips the 3D channel's.
                    if let (Ok((_, got)), Ok((_, [_, skipped]))) = (&got, &reference) {
                        let channels = if S::CONCATENATES { 3 } else { 2 };
                        let all = channels * skipped;
                        assert_eq!(*got, if shared { all - skipped } else { all }, "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn a_one_trace_merge_reads_as_the_three_channel_walk() {
        use crate::taskset::{DenseBitVector, SubtreeTaskList};
        one_trace_merges_as_three_channels::<DenseBitVector>(Representation::GlobalBitVector);
        one_trace_merges_as_three_channels::<SubtreeTaskList>(Representation::HierarchicalTaskList);
    }
}
