//! The three one-shot workloads: `attach_208k`, `merge_wide_64kd`, `attach_1m`.
//!
//! The **untraced** operation is one call of the library's front door
//! (`Session::attach` + `diagnosis`, or `Session::merge`).  The **traced**
//! operation re-drives the same pipeline stage by stage through the layers'
//! public functions — the calls `Session::attach` makes, in its order — with a
//! span around each, and its output is compared with the untraced operation's.
//! **Kernel replays** then time single public functions over one operation's
//! own packets, to show what is inside the overlay reduction.

use std::time::Instant;

use appsim::scenario::GroundTruth;
use appsim::{Application, RingHangApp};
use machine::cluster::{BglMode, Cluster};
use stackwalk::{FrameDictionary, FrameTable};
use stat_core::prelude::*;
use stat_core::serialize::{decode_rank_map, encode_rank_map};
use tbon::filter::Filter;
use tbon::network::{ChannelInput, InProcessTbon};
use tbon::packet::{Packet, PacketTag};
use tbon::planner::TopologyPlanner;
use tbon::topology::{Topology, TreeNodeRole};

use crate::metrics::{median, quantile, MetricSet};
use crate::trace::Recorder;
use crate::workloads::{
    ms_since, negotiate, peak_rss_mb, repeated_set_up, ring_hang, time_ms, Budget, Observed,
    RunResult, Scale, Workload, MIN_TIMED_OPS, MIN_TRACED_PAIRS,
};

/// Times each kernel replay is repeated; the metric is the median.
const REPLAY_REPS: usize = 3;

/// Span names of the staged pipeline, in pipeline order.  Each is also the
/// name of the per-layer metric it feeds.
const STAGES: [&str; 10] = [
    TOPOLOGY,
    NEGOTIATE,
    SAMPLE,
    BUILD_TREES,
    ENCODE_LEAF,
    DROP,
    REDUCE,
    FINISH,
    CLASSIFY,
    DIAGNOSE,
];
const TOPOLOGY: &str = "tbon.topology.build_ms";
const NEGOTIATE: &str = "stackwalk.dictionary_negotiate_ms";
const SAMPLE: &str = "stackwalk.sample_ms";
const BUILD_TREES: &str = "core.daemon.build_trees_ms";
const ENCODE_LEAF: &str = "core.serialize.encode_leaf_ms";
const DROP: &str = "core.session.drop_ms";
const REDUCE: &str = "tbon.network.reduce_ms";
const FINISH: &str = "core.strategy.finish_ms";
const CLASSIFY: &str = "core.equivalence.classify_ms";
const DIAGNOSE: &str = "core.scenario.diagnose_ms";

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Op {
    /// `Session::attach` + `SessionReport::diagnosis`.
    Attach,
    /// `Session::merge` over contributions sampled during set-up.
    Merge,
}

/// A one-shot workload's shape.
#[derive(Clone, Debug)]
pub struct OneShot {
    workload: Workload,
    op: Op,
    cluster: Cluster,
    tasks: u64,
    samples: u32,
}

/// Daemon contributions sampled once, during set-up, and cloned per operation.
struct Presampled {
    dict: FrameDictionary,
    contributions: Vec<DaemonContribution>,
    leaf_bytes: u64,
    negotiate_ms: f64,
}

/// A finished set-up: everything an operation needs, plus the warm-up
/// operation's output, which every later operation must reproduce.
struct Ready {
    inputs: Inputs,
    reference: Observed,
}

struct Inputs {
    app: RingHangApp,
    truth: GroundTruth,
    session: Session,
    presampled: Option<Presampled>,
}

/// What one operation returned.
struct OpOut {
    wall_ms: f64,
    leaf_bytes: u64,
    observed: Observed,
}

/// Exact counts of one staged operation (they repeat for a given seed).
#[derive(Clone, Copy, Default)]
struct Counts {
    traces: u64,
    filter_invocations: usize,
    link_bytes: u64,
    max_node_bytes_in: u64,
    frontend_bytes_in: u64,
    classes: usize,
}

fn leaf_bytes(contributions: &[DaemonContribution]) -> u64 {
    contributions
        .iter()
        .map(|c| (c.tree_2d.size_bytes() + c.tree_3d.size_bytes() + c.rank_map.size_bytes()) as u64)
        .sum()
}

/// Every workload uses the paper's "after" design: hierarchical task lists.
fn strategy() -> &'static dyn RepresentationStrategy {
    Representation::HierarchicalTaskList.strategy()
}

impl OneShot {
    /// The shape of `workload` at `scale`; `None` for the streaming workload.
    pub fn new(workload: Workload, scale: Scale) -> Option<OneShot> {
        let full = scale == Scale::Full;
        let (op, cluster, tasks, samples) = match workload {
            Workload::Attach208k => (
                Op::Attach,
                Cluster::bluegene_l(BglMode::VirtualNode),
                if full { 212_992 } else { 1_024 },
                10,
            ),
            Workload::MergeWide64kd => {
                let daemons = if full { 65_536 } else { 1_024 };
                (
                    Op::Merge,
                    Cluster::test_cluster(daemons, 1),
                    u64::from(daemons),
                    1,
                )
            }
            Workload::Attach1m => {
                let nodes = if full { 16_384 } else { 16 };
                (
                    Op::Attach,
                    Cluster::test_cluster(nodes, 64),
                    u64::from(nodes) * 64,
                    1,
                )
            }
            Workload::Stream64kHang => return None,
        };
        Some(OneShot {
            workload,
            op,
            cluster,
            tasks,
            samples,
        })
    }

    /// Sample every daemon through the library's own contribution path.
    fn contributions(
        &self,
        app: &RingHangApp,
        session: &Session,
        dict: &FrameDictionary,
    ) -> Vec<DaemonContribution> {
        let spec = session.topology_for(self.tasks);
        let topology = Topology::build(spec.clone());
        StatDaemon::partition(self.tasks, spec.backends())
            .iter()
            .zip(topology.backends())
            .map(|(daemon, &leaf)| strategy().contribute(daemon, app, self.samples, leaf, dict))
            .collect()
    }

    /// Build the application and session (and, for the merge workload, sample
    /// the contributions), then run one warm-up operation.
    fn set_up(&self, seed: u64) -> Result<Ready, StatError> {
        let app = ring_hang(self.tasks, seed);
        // The session defaults are the paper's "after" design: hierarchical task
        // lists over the placement-rule 2-deep overlay.
        let session = Session::builder(self.cluster.clone())
            .samples_per_task(self.samples)
            .build();
        let presampled = (self.op == Op::Merge).then(|| {
            let ((dict, _), negotiate_ms) = time_ms(|| negotiate(app.frame_hints()));
            let contributions = self.contributions(&app, &session, &dict);
            Presampled {
                leaf_bytes: leaf_bytes(&contributions),
                dict,
                contributions,
                negotiate_ms,
            }
        });
        let inputs = Inputs {
            truth: app.ground_truth(),
            app,
            session,
            presampled,
        };
        let reference = self.untraced_op(&inputs)?.observed;
        Ok(Ready { inputs, reference })
    }

    fn untraced_op(&self, ready: &Inputs) -> Result<OpOut, StatError> {
        match &ready.presampled {
            None => {
                let start = Instant::now();
                let report = ready.session.attach(&ready.app)?;
                let diagnosis = report.diagnosis();
                let wall_ms = ms_since(start);
                Ok(OpOut {
                    wall_ms,
                    leaf_bytes: report.packet_bytes,
                    observed: Observed {
                        diagnosis,
                        nodes_3d: report.gather.tree_3d.node_count(),
                    },
                })
            }
            Some(pre) => {
                let contributions = pre.contributions.clone();
                let start = Instant::now();
                let gather = ready.session.merge(contributions, self.tasks, &pre.dict)?;
                let wall_ms = ms_since(start);
                Ok(OpOut {
                    wall_ms,
                    leaf_bytes: pre.leaf_bytes,
                    observed: Observed {
                        diagnosis: diagnose(&gather, self.tasks, Vec::new()),
                        nodes_3d: gather.tree_3d.node_count(),
                    },
                })
            }
        }
    }

    /// The same operation, stage by stage, with a span around every call into a
    /// layer.  Work between the spans (partitioning ranks, moving packets into
    /// channels, byte bookkeeping) is what `Session::attach` does there too, and
    /// shows up as the op span's self time.
    fn traced_op(
        &self,
        ready: &Inputs,
        rec: &mut Recorder,
        op_id: u32,
    ) -> Result<(OpOut, Counts), StatError> {
        let app = &ready.app;
        let strategy = strategy();
        // Cloned before the clock starts, as the untraced merge operation does.
        let presampled = ready
            .presampled
            .as_ref()
            .map(|p| (p.dict.clone(), p.contributions.clone()));
        let mut counts = Counts::default();

        let op = rec.open_op(op_id);
        let (spec, topology) = rec.time(TOPOLOGY, op, || {
            let spec = ready.session.topology_for(self.tasks);
            let topology = Topology::build(spec.clone());
            (spec, topology)
        });

        let mut leaves_2d = Vec::with_capacity(spec.backends() as usize);
        let mut leaves_3d = Vec::with_capacity(spec.backends() as usize);
        let mut leaves_map = Vec::with_capacity(spec.backends() as usize);
        let dict = match presampled {
            Some((dict, contributions)) => {
                for c in contributions {
                    leaves_2d.push(c.tree_2d);
                    leaves_3d.push(c.tree_3d);
                    leaves_map.push(c.rank_map);
                }
                dict
            }
            None => {
                let dict = rec.time(NEGOTIATE, op, || {
                    let (dict, payload) = negotiate(app.frame_hints());
                    // The broadcast is priced per overlay link, as `attach` does.
                    std::hint::black_box(
                        InProcessTbon::new(topology.clone()).broadcast_link_bytes(payload),
                    );
                    dict
                });
                let daemons = StatDaemon::partition(self.tasks, spec.backends());
                for (daemon, &leaf) in daemons.iter().zip(topology.backends()) {
                    let mut table = FrameTable::new();
                    let gathered =
                        rec.time(SAMPLE, op, || daemon.gather(app, self.samples, &mut table));
                    counts.traces += gathered
                        .iter()
                        .map(|t| t.sample_count() as u64)
                        .sum::<u64>();
                    let trees = rec.time(BUILD_TREES, op, || {
                        daemon.build_trees::<SubtreeTaskList>(&gathered)
                    });
                    let (p2d, p3d, pmap) = rec.time(ENCODE_LEAF, op, || {
                        (
                            Packet::new(
                                PacketTag::Merged2d,
                                leaf,
                                encode_tree(&trees.0, &table, &dict),
                            ),
                            Packet::new(
                                PacketTag::Merged3d,
                                leaf,
                                encode_tree(&trees.1, &table, &dict),
                            ),
                            Packet::new(PacketTag::RankMap, leaf, encode_rank_map(&daemon.ranks)),
                        )
                    });
                    rec.time(DROP, op, || drop((gathered, table, trees)));
                    leaves_2d.push(p2d);
                    leaves_3d.push(p3d);
                    leaves_map.push(pmap);
                }
                dict
            }
        };
        let leaf_bytes: u64 = [&leaves_2d, &leaves_3d, &leaves_map]
            .iter()
            .flat_map(|leaves| leaves.iter())
            .map(|p| p.size_bytes() as u64)
            .sum();

        let merge_filter = strategy.merge_filter();
        let channels = vec![
            ChannelInput::new(MergeChannel::Tree2d.label(), leaves_2d),
            ChannelInput::new(MergeChannel::Tree3d.label(), leaves_3d),
            ChannelInput::new(MergeChannel::RankMap.label(), leaves_map),
        ];
        let filters: [&dyn Filter; 3] =
            [merge_filter.as_ref(), merge_filter.as_ref(), &RankMapFilter];
        let net = InProcessTbon::new(topology.clone());
        let outcomes = rec.time(REDUCE, op, || net.reduce_channels(channels, &filters))?;
        for outcome in &outcomes {
            counts.filter_invocations += outcome.filter_invocations;
            counts.link_bytes += outcome.total_link_bytes;
            counts.frontend_bytes_in += outcome.frontend_bytes_in;
            counts.max_node_bytes_in = counts.max_node_bytes_in.max(outcome.max_node_bytes_in);
        }

        let merged = rec.time(FINISH, op, || {
            strategy.finish(
                &outcomes[0],
                &outcomes[1],
                outcomes.get(2),
                self.tasks,
                &dict,
            )
        })?;
        let classes = rec.time(CLASSIFY, op, || equivalence_classes(&merged.tree_3d));
        counts.classes = classes.len();
        let gather = GatherResult {
            tree_2d: merged.tree_2d,
            tree_3d: merged.tree_3d,
            frames: merged.frames,
            classes,
            metrics: MergeMetrics::default(),
        };
        // `attach` is timed together with `diagnosis()`; `merge` is not.
        let diagnosis = match self.op {
            Op::Attach => Some(rec.time(DIAGNOSE, op, || {
                let tasks = gather.tree_3d.tasks(gather.tree_3d.root()).count();
                diagnose(&gather, tasks, Vec::new())
            })),
            Op::Merge => None,
        };
        let wall_ms = rec.close(op);

        let diagnosis = diagnosis.unwrap_or_else(|| diagnose(&gather, self.tasks, Vec::new()));
        Ok((
            OpOut {
                wall_ms,
                leaf_bytes,
                observed: Observed {
                    diagnosis,
                    nodes_3d: gather.tree_3d.node_count(),
                },
            },
            counts,
        ))
    }

    /// Run one operation and judge its output; returns its wall and leaf bytes
    /// when it completed.
    fn judged(ready: &Ready, failed: &mut u64, op: Result<OpOut, StatError>) -> Option<(f64, u64)> {
        match op {
            Ok(out) => {
                if !out.observed.passes(&ready.inputs.truth, &ready.reference) {
                    *failed += 1;
                }
                Some((out.wall_ms, out.leaf_bytes))
            }
            Err(error) => {
                eprintln!("operation failed: {error}");
                *failed += 1;
                None
            }
        }
    }

    /// Run the workload once.  `process_start` is when the process started, so
    /// that the first set-up is measured from there.
    pub fn run(
        &self,
        seed: u64,
        budget: Budget,
        traced: bool,
        process_start: Instant,
    ) -> Result<RunResult, StatError> {
        if traced {
            return self.run_traced(seed, budget);
        }
        let (ready, setups_s) = repeated_set_up(process_start, || self.set_up(seed))?;

        let (mut walls, mut bytes, mut failed, mut attempted) = (Vec::new(), Vec::new(), 0, 0);
        let loop_start = Instant::now();
        while budget.wants_more(attempted, loop_start, MIN_TIMED_OPS) {
            attempted += 1;
            if let Some((wall, leaf)) =
                Self::judged(&ready, &mut failed, self.untraced_op(&ready.inputs))
            {
                walls.push(wall);
                bytes.push(leaf as f64);
            }
        }

        let mut metrics = MetricSet::default();
        metrics.put_n("setup_s", median(&setups_s), setups_s.len());
        metrics.put_n("op_p50_ms", median(&walls), walls.len());
        metrics.put_n("active_op_p50_ms", median(&walls), walls.len());
        metrics.put_n("leaf_bytes_per_op", median(&bytes), bytes.len());
        metrics.put("peak_rss_mb", peak_rss_mb());
        metrics.put_n(
            "ops_failed_frac",
            failed as f64 / f64::from(attempted),
            attempted as usize,
        );
        Ok(RunResult {
            workload: self.workload,
            attempted: u64::from(attempted),
            failed,
            correct: failed == 0 && !walls.is_empty(),
            metrics,
            ops: Vec::new(),
            setups_s,
            active_walls_ms: Vec::new(),
            op_walls_ms: walls,
        })
    }

    fn run_traced(&self, seed: u64, budget: Budget) -> Result<RunResult, StatError> {
        let ready = self.set_up(seed)?;
        let mut rec = Recorder::default();
        let (mut untraced, mut traced, mut failed, mut pairs) = (Vec::new(), Vec::new(), 0, 0);
        let mut counts = Counts::default();
        let mut leaf = 0;
        let loop_start = Instant::now();
        // Untraced and traced operations alternate, so that drift in the
        // machine's speed lands on both sides of `trace.overhead_frac`.
        while budget.wants_more(pairs, loop_start, MIN_TRACED_PAIRS) {
            pairs += 1;
            if let Some((wall, _)) =
                Self::judged(&ready, &mut failed, self.untraced_op(&ready.inputs))
            {
                untraced.push(wall);
            }
            let staged = self
                .traced_op(&ready.inputs, &mut rec, pairs)
                .map(|(out, c)| {
                    counts = c;
                    out
                });
            if let Some((wall, bytes)) = Self::judged(&ready, &mut failed, staged) {
                traced.push(wall);
                leaf = bytes;
            }
        }
        let ops = rec.per_op();
        let untraced_p50 = median(&untraced);

        let mut metrics = MetricSet::default();
        metrics.put_n(
            "ops_failed_frac",
            failed as f64 / f64::from(2 * pairs),
            2 * pairs as usize,
        );
        for stage in STAGES {
            if ops.iter().any(|o| o.stages.contains_key(stage)) {
                let per_op: Vec<f64> = ops.iter().map(|o| o.stage_ms(stage)).collect();
                metrics.put_n(stage, median(&per_op), per_op.len());
            }
        }
        if let Some(pre) = &ready.inputs.presampled {
            metrics.put("stackwalk.dictionary_negotiate_ms", pre.negotiate_ms);
        } else {
            metrics.put("stackwalk.traces", counts.traces as f64);
        }
        metrics.put("core.serialize.leaf_bytes", leaf as f64);
        metrics.put(
            "tbon.network.filter_invocations",
            counts.filter_invocations as f64,
        );
        metrics.put("tbon.network.link_bytes", counts.link_bytes as f64);
        metrics.put(
            "tbon.network.max_node_bytes_in",
            counts.max_node_bytes_in as f64,
        );
        metrics.put(
            "tbon.network.frontend_bytes_in",
            counts.frontend_bytes_in as f64,
        );
        metrics.put("core.equivalence.classes", counts.classes as f64);
        // Reconciliation: the share of a staged operation's wall that no span
        // covers.  Taken within each traced operation — the untraced median is a
        // different set of operations, and on this machine two medians of a
        // handful of operations differ by more than the few percent at stake.
        let unaccounted: Vec<f64> = ops.iter().map(|o| o.self_ms() / o.wall_ms).collect();
        metrics.put_n(
            "core.session.unaccounted_frac",
            median(&unaccounted),
            unaccounted.len(),
        );
        metrics.put_n(
            "core.session.op_p90_ms",
            quantile(&untraced, 0.9),
            untraced.len(),
        );
        metrics.put_n(
            "trace.overhead_frac",
            (median(&traced) - untraced_p50) / untraced_p50,
            traced.len(),
        );

        let plan_ms: Vec<f64> = (0..REPLAY_REPS)
            .map(|_| time_ms(|| TopologyPlanner::new(self.cluster.clone()).plan(self.tasks)).1)
            .collect();
        metrics.put_n("tbon.planner.plan_ms", median(&plan_ms), plan_ms.len());

        let replays_ok = self.replays(&ready, &mut metrics)?;
        Ok(RunResult {
            workload: self.workload,
            attempted: u64::from(2 * pairs),
            failed,
            correct: failed == 0 && replays_ok && !traced.is_empty(),
            metrics,
            ops,
            setups_s: Vec::new(),
            active_walls_ms: Vec::new(),
            op_walls_ms: untraced,
        })
    }

    /// Kernel replays: single public functions timed over one operation's own
    /// leaf packets.  Returns whether the replays reproduced the reduction's
    /// output (so that they are known to have measured the same program).
    fn replays(&self, ready: &Ready, metrics: &mut MetricSet) -> Result<bool, StatError> {
        let Inputs {
            app,
            session,
            presampled,
            ..
        } = &ready.inputs;
        let topology = Topology::build(session.topology_for(self.tasks));
        let contributions = match presampled {
            Some(pre) => pre.contributions.clone(),
            None => {
                let (dict, _) = negotiate(app.frame_hints());
                self.contributions(app, session, &dict)
            }
        };
        let mut leaves: [Vec<Packet>; 3] = Default::default();
        for c in contributions {
            leaves[0].push(c.tree_2d);
            leaves[1].push(c.tree_3d);
            leaves[2].push(c.rank_map);
        }
        let merge_filter = strategy().merge_filter();
        let filters: [&dyn Filter; 3] =
            [merge_filter.as_ref(), merge_filter.as_ref(), &RankMapFilter];

        // The real reduction, once, for the packets the front end decodes.
        let channels = [
            MergeChannel::Tree2d,
            MergeChannel::Tree3d,
            MergeChannel::RankMap,
        ]
        .iter()
        .zip(&leaves)
        .map(|(channel, packets)| ChannelInput::new(channel.label(), packets.clone()))
        .collect();
        let outcomes = InProcessTbon::new(topology.clone()).reduce_channels(channels, &filters)?;

        let mut ok = true;
        let (mut comm, mut frontend) = (Vec::new(), Vec::new());
        let (mut decode, mut fold, mut encode, mut remap) =
            (Vec::new(), Vec::new(), Vec::new(), Vec::new());
        for _ in 0..REPLAY_REPS {
            let walk = replay_filters(&topology, leaves.clone(), &filters);
            comm.push(walk.comm_ms);
            frontend.push(walk.frontend_ms);
            ok &= walk
                .roots
                .iter()
                .zip(&outcomes)
                .all(|(replayed, real)| replayed.payload == real.result.payload);

            let Some(kernels) = replay_kernels(&topology, &leaves[1]) else {
                ok = false;
                continue;
            };
            decode.push(kernels.decode_ms);
            fold.push(kernels.fold_ms);
            encode.push(kernels.encode_ms);

            let decoded = (
                decode_tree::<SubtreeTaskList>(&outcomes[0].result.payload),
                decode_tree::<SubtreeTaskList>(&outcomes[1].result.payload),
                decode_rank_map(&outcomes[2].result.payload),
            );
            let (Ok((sub_2d, _)), Ok((sub_3d, _)), Ok(map)) = decoded else {
                ok = false;
                continue;
            };
            ok &= kernels.root_nodes == sub_3d.node_count();
            let (remapped, ms) = time_ms(|| {
                (
                    sub_2d.remap(&map, self.tasks),
                    sub_3d.remap(&map, self.tasks),
                )
            });
            ok &= remapped.1.node_count() == ready.reference.nodes_3d;
            remap.push(ms);
        }

        let filter_ms = median(&comm) + median(&frontend);
        metrics.put_n("core.filter.comm_level_ms", median(&comm), comm.len());
        metrics.put_n("core.filter.frontend_ms", median(&frontend), frontend.len());
        if let Some(reduce_ms) = metrics.get("tbon.network.reduce_ms") {
            metrics.put("tbon.network.reduce_vs_filter_ratio", reduce_ms / filter_ms);
        }
        metrics.put_n(
            "core.serialize.decode_leaf_ms",
            median(&decode),
            decode.len(),
        );
        metrics.put_n("core.graph.merge_fold_ms", median(&fold), fold.len());
        metrics.put_n(
            "core.serialize.encode_merged_ms",
            median(&encode),
            encode.len(),
        );
        metrics.put_n("core.graph.remap_ms", median(&remap), remap.len());
        Ok(ok)
    }
}

struct FilterWalk {
    comm_ms: f64,
    frontend_ms: f64,
    /// The packet each channel delivered to the front end.
    roots: Vec<Packet>,
}

/// Walk the overlay bottom-up on this thread, calling each channel's filter at
/// every interior node over `Topology::levels()`, and split the time by level.
fn replay_filters(
    topology: &Topology,
    leaves: [Vec<Packet>; 3],
    filters: &[&dyn Filter; 3],
) -> FilterWalk {
    let mut produced: Vec<Vec<Option<Packet>>> = leaves
        .into_iter()
        .map(|packets| {
            let mut slots = vec![None; topology.len()];
            for (&backend, packet) in topology.backends().iter().zip(packets) {
                slots[backend.0 as usize] = Some(packet);
            }
            slots
        })
        .collect();
    let (mut comm_ms, mut frontend_ms) = (0.0, 0.0);
    for level in topology.levels().iter().rev() {
        for &id in level {
            let node = topology.node(id);
            if node.role == TreeNodeRole::BackEnd {
                continue;
            }
            for (slots, filter) in produced.iter_mut().zip(filters) {
                let inputs: Vec<Packet> = node
                    .children
                    .iter()
                    .filter_map(|child| slots[child.0 as usize].take())
                    .collect();
                let (out, ms) = time_ms(|| filter.reduce(id, &inputs));
                match node.role {
                    TreeNodeRole::FrontEnd => frontend_ms += ms,
                    _ => comm_ms += ms,
                }
                slots[id.0 as usize] = Some(out);
            }
        }
    }
    let root = topology.frontend().0 as usize;
    FilterWalk {
        comm_ms,
        frontend_ms,
        roots: produced
            .iter_mut()
            .filter_map(|slots| slots[root].take())
            .collect(),
    }
}

struct Kernels {
    decode_ms: f64,
    fold_ms: f64,
    encode_ms: f64,
    root_nodes: usize,
}

/// The three things a merge filter does, each on its own over the 3D channel:
/// decode every leaf packet, fold the decoded trees up the overlay with
/// `PrefixTree::merge`, and re-encode each node's merged tree.  `None` if a
/// packet does not decode.
fn replay_kernels(topology: &Topology, leaves_3d: &[Packet]) -> Option<Kernels> {
    let mut trees: Vec<Option<(SubtreePrefixTree, WireFrames)>> = Vec::new();
    trees.resize_with(topology.len(), || None);
    let start = Instant::now();
    for (&backend, packet) in topology.backends().iter().zip(leaves_3d) {
        trees[backend.0 as usize] = Some(decode_tree::<SubtreeTaskList>(&packet.payload).ok()?);
    }
    let decode_ms = ms_since(start);

    let (mut fold_ms, mut encode_ms) = (0.0, 0.0);
    for level in topology.levels().iter().rev() {
        for &id in level {
            let node = topology.node(id);
            if node.role == TreeNodeRole::BackEnd {
                continue;
            }
            let (merged, ms) = time_ms(|| {
                let mut merged: Option<(SubtreePrefixTree, WireFrames)> = None;
                for child in &node.children {
                    let Some((tree, frames)) = trees[child.0 as usize].take() else {
                        continue;
                    };
                    match merged.as_mut() {
                        None => merged = Some((tree, frames)),
                        Some((acc, acc_frames)) => {
                            if acc_frames.merge(&frames).is_ok() {
                                acc.merge(tree);
                            }
                        }
                    }
                }
                merged
            });
            fold_ms += ms;
            if let Some((tree, frames)) = &merged {
                encode_ms += time_ms(|| std::hint::black_box(encode_merged_tree(tree, frames))).1;
            }
            trees[id.0 as usize] = merged;
        }
    }
    let root_nodes = trees[topology.frontend().0 as usize]
        .as_ref()
        .map_or(0, |(tree, _)| tree.node_count());
    Some(Kernels {
        decode_ms,
        fold_ms,
        encode_ms,
        root_nodes,
    })
}
