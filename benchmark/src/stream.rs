//! The streaming workload, `stream_64k_hang`.
//!
//! One operation is one `StreamingSession::advance()` wave.  A session is 12
//! waves: wave 0 warms the session up, the ring hang strikes at wave 4, waves
//! 4–6 are **active** (deltas carry the new hang subtree) and waves 7–11 are
//! **hung-quiescent** (deltas are root stubs) — the steady state a real hang
//! lives in, and what `op_p50_ms` reports here.
//!
//! `advance()` cannot be staged from outside, so the traced run records the
//! phases the program reports about itself (`WaveReport::phases`, `fold_wall`;
//! labelled `_reported`) and then **replays** the delta path — `delta_from`,
//! `encode_tree`, `IncrementalTbon::fold_wave` — through public functions over
//! the same waves.

use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

use appsim::scenario::{Diagnosis, FaultScenario};
use appsim::{gather_samples_for_ranks_from, FaultSchedule, WaveSource};
use machine::cluster::{BglMode, Cluster};
use stackwalk::FrameTable;
use stat_core::prelude::*;
use stat_core::streaming::TreeResidentFactory;
use tbon::delta::IncrementalTbon;
use tbon::packet::{Packet, PacketTag};
use tbon::planner::TopologyPlanner;
use tbon::topology::Topology;

use crate::metrics::{median, quantile, MetricSet};
use crate::trace::Recorder;
use crate::workloads::{
    ms_since, negotiate, peak_rss_mb, repeated_set_up, ring_hang, time_ms, Budget, RunResult,
    Scale, Workload, MIN_TIMED_OPS, MIN_TRACED_PAIRS, VOCAB,
};

const WAVES: u32 = 12;
const FAULT_WAVE: u32 = 4;
const ACTIVE: Range<u32> = FAULT_WAVE..FAULT_WAVE + 3;
const QUIESCENT: Range<u32> = FAULT_WAVE + 3..WAVES;
const SAMPLES_PER_WAVE: u32 = 1;

const SAMPLE: &str = "core.streaming.sample_reported_ms";
const LOCAL_MERGE: &str = "core.streaming.local_merge_reported_ms";
const FULL_VIEW: &str = "core.streaming.full_view_ms";
const FOLD: &str = "core.streaming.fold_reported_ms";

/// The streaming workload's shape.
#[derive(Clone, Debug)]
pub struct Stream {
    cluster: Cluster,
    tasks: u64,
}

/// What one wave returned.
struct Wave {
    wall_ms: f64,
    reduce_ms: f64,
    delta_bytes: u64,
    full_packet_bytes: u64,
    classes: usize,
    passed: bool,
    diagnosis: Diagnosis,
}

/// One session's waves, up to the first that returned `Err`.
struct SessionOut {
    waves: Vec<Wave>,
    errored: bool,
    resident_bytes: usize,
}

/// Wave walls and failure counts accumulated over sessions.
#[derive(Default)]
struct Tally {
    sessions: u32,
    attempted: u64,
    failed: u64,
    worst_latency: u32,
    quiescent_ms: Vec<f64>,
    active_ms: Vec<f64>,
    quiescent_delta_bytes: Vec<f64>,
}

impl Tally {
    /// Judge one session against the reference session and fold its waves in.
    fn absorb(&mut self, session: &SessionOut, reference: &[Diagnosis]) {
        self.sessions += 1;
        self.attempted += session.waves.len() as u64 + u64::from(session.errored);
        self.failed += u64::from(session.errored);
        for (index, wave) in session.waves.iter().enumerate() {
            if !wave.passed || reference.get(index) != Some(&wave.diagnosis) {
                self.failed += 1;
            }
            let index = index as u32;
            if QUIESCENT.contains(&index) {
                self.quiescent_ms.push(wave.wall_ms);
                self.quiescent_delta_bytes.push(wave.delta_bytes as f64);
            } else if ACTIVE.contains(&index) {
                self.active_ms.push(wave.wall_ms);
            }
        }
        // Waves from the fault wave to the first wave from which the verdict
        // passes and stays passing; a session that never settles counts every
        // wave it had left.
        let stable_from = (FAULT_WAVE..WAVES)
            .rev()
            .take_while(|&w| {
                session
                    .waves
                    .get(w as usize)
                    .is_some_and(|wave| wave.passed)
            })
            .last()
            .unwrap_or(WAVES);
        self.worst_latency = self.worst_latency.max(stable_from - FAULT_WAVE);
    }

    /// The two `Kind::NoRise` metrics, over every session absorbed.
    fn put_no_rise(&self, metrics: &mut MetricSet) {
        metrics.put_n(
            "ops_failed_frac",
            self.failed as f64 / self.attempted as f64,
            self.attempted as usize,
        );
        metrics.put_n(
            "verdict_latency_waves",
            f64::from(self.worst_latency),
            self.sessions as usize,
        );
    }
}

impl Stream {
    /// The workload's shape at `scale`.
    pub fn new(scale: Scale) -> Stream {
        Stream {
            cluster: Cluster::bluegene_l(BglMode::CoProcessor),
            tasks: if scale == Scale::Full { 65_536 } else { 1_024 },
        }
    }

    /// The ring hang for `seed`, as a catalogue-style scenario a
    /// `FaultSchedule` can delay to wave 4.
    fn scenario(&self, seed: u64) -> FaultScenario {
        let ring = ring_hang(self.tasks, seed);
        FaultScenario {
            name: "ring_hang".into(),
            fault: format!("rank {} hangs before its send", ring.hung_rank()),
            expected: "the hung rank and its victim isolated from the barrier crowd".into(),
            truth: ring.ground_truth(),
            app: Arc::new(ring),
            overlay_faults: Vec::new(),
            mid_tree_faults: Vec::new(),
        }
    }

    fn session(&self) -> SessionBuilder {
        Session::builder(self.cluster.clone())
    }

    /// Open a session and advance it through every wave.  With a recorder each
    /// wave becomes an op span (ids from `first_op`) whose children are the
    /// phases the wave reported.
    fn run_session(
        &self,
        scenario: &FaultScenario,
        mut trace: Option<(&mut Recorder, u32)>,
    ) -> Result<SessionOut, StatError> {
        let source = FaultSchedule::new(scenario.clone(), VOCAB, FAULT_WAVE);
        let mut stream = self
            .session()
            .streaming(SAMPLES_PER_WAVE)
            .open(Box::new(source))?;
        let mut out = SessionOut {
            waves: Vec::with_capacity(WAVES as usize),
            errored: false,
            resident_bytes: 0,
        };
        for wave in 0..WAVES {
            let start = Instant::now();
            let span = trace
                .as_mut()
                .map(|(rec, first)| rec.open_op(*first + wave));
            let report = stream.advance();
            let wall_ms = match (trace.as_mut(), span) {
                (Some((rec, _)), Some(span)) => rec.close(span),
                _ => ms_since(start),
            };
            let report = match report {
                Ok(report) => report,
                Err(error) => {
                    eprintln!("wave {wave} failed: {error}");
                    out.errored = true;
                    break;
                }
            };
            let ms = |d: std::time::Duration| d.as_secs_f64() * 1e3;
            let phases = report.phases;
            if let (Some((rec, _)), Some(span)) = (trace.as_mut(), span) {
                let mut offset = 0.0;
                for (name, length) in [
                    (SAMPLE, ms(phases.sample)),
                    (LOCAL_MERGE, ms(phases.local_merge)),
                    (
                        FULL_VIEW,
                        ms(phases.reduce + phases.remap + phases.classify),
                    ),
                    (FOLD, ms(report.fold_wall)),
                ] {
                    rec.reported(name, span, offset, length);
                    offset += length;
                }
            }
            out.waves.push(Wave {
                wall_ms,
                reduce_ms: ms(phases.reduce),
                delta_bytes: report.delta_bytes,
                full_packet_bytes: report.full_packet_bytes,
                classes: report.classes,
                passed: report.verdict.passed(),
                diagnosis: report.diagnosis,
            });
        }
        out.resident_bytes = stream.resident_bytes();
        Ok(out)
    }

    /// Build the scenario and run one whole warm-up session; its per-wave
    /// diagnoses are the reference every later session must reproduce.
    fn set_up(&self, seed: u64) -> Result<(FaultScenario, Vec<Diagnosis>), StatError> {
        let scenario = self.scenario(seed);
        let warm_up = self.run_session(&scenario, None)?;
        let reference = warm_up.waves.into_iter().map(|w| w.diagnosis).collect();
        Ok((scenario, reference))
    }

    /// Run the workload once; see [`crate::oneshot::OneShot::run`].
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
        let ((scenario, reference), setups_s) =
            repeated_set_up(process_start, || self.set_up(seed))?;

        let mut tally = Tally::default();
        let loop_start = Instant::now();
        while budget.wants_more(tally.sessions, loop_start, MIN_TIMED_OPS) {
            tally.absorb(&self.run_session(&scenario, None)?, &reference);
        }

        let mut metrics = MetricSet::default();
        metrics.put_n("setup_s", median(&setups_s), setups_s.len());
        metrics.put_n(
            "op_p50_ms",
            median(&tally.quiescent_ms),
            tally.quiescent_ms.len(),
        );
        metrics.put_n(
            "active_op_p50_ms",
            median(&tally.active_ms),
            tally.active_ms.len(),
        );
        metrics.put_n(
            "leaf_bytes_per_op",
            median(&tally.quiescent_delta_bytes),
            tally.quiescent_delta_bytes.len(),
        );
        metrics.put("peak_rss_mb", peak_rss_mb());
        tally.put_no_rise(&mut metrics);
        Ok(RunResult {
            workload: Workload::Stream64kHang,
            attempted: tally.attempted,
            failed: tally.failed,
            correct: tally.failed == 0 && !tally.quiescent_ms.is_empty(),
            metrics,
            ops: Vec::new(),
            setups_s,
            op_walls_ms: tally.quiescent_ms,
            active_walls_ms: tally.active_ms,
        })
    }

    fn run_traced(&self, seed: u64, budget: Budget) -> Result<RunResult, StatError> {
        let (scenario, reference) = self.set_up(seed)?;
        let mut rec = Recorder::default();
        let (mut untraced, mut traced) = (Tally::default(), Tally::default());
        let mut last = None;
        let loop_start = Instant::now();
        // Untraced and traced sessions alternate; see `OneShot::run_traced`.
        while budget.wants_more(traced.sessions, loop_start, MIN_TRACED_PAIRS) {
            untraced.absorb(&self.run_session(&scenario, None)?, &reference);
            let first_op = traced.sessions * WAVES;
            let session = self.run_session(&scenario, Some((&mut rec, first_op)))?;
            traced.absorb(&session, &reference);
            last = Some(session);
        }
        let last = last.expect("at least one traced session ran");
        let ops = rec.per_op();
        let in_range = |range: &Range<u32>, op: u32| range.contains(&(op % WAVES));

        let mut metrics = MetricSet::default();
        let both = Tally {
            sessions: untraced.sessions + traced.sessions,
            attempted: untraced.attempted + traced.attempted,
            failed: untraced.failed + traced.failed,
            worst_latency: untraced.worst_latency.max(traced.worst_latency),
            ..Tally::default()
        };
        both.put_no_rise(&mut metrics);
        for stage in [SAMPLE, LOCAL_MERGE, FULL_VIEW, FOLD] {
            let per_wave: Vec<f64> = ops
                .iter()
                .filter(|o| in_range(&QUIESCENT, o.op))
                .map(|o| o.stage_ms(stage))
                .collect();
            metrics.put_n(stage, median(&per_wave), per_wave.len());
        }
        let unaccounted: Vec<f64> = ops
            .iter()
            .filter(|o| in_range(&QUIESCENT, o.op))
            .map(|o| o.self_ms() / o.wall_ms)
            .collect();
        metrics.put_n(
            "core.streaming.unaccounted_frac",
            median(&unaccounted),
            unaccounted.len(),
        );
        metrics.put_n(
            "core.streaming.wave_quiescent_p90_ms",
            quantile(&untraced.quiescent_ms, 0.9),
            untraced.quiescent_ms.len(),
        );
        metrics.put_n(
            "core.streaming.wave_active_p90_ms",
            quantile(&untraced.active_ms, 0.9),
            untraced.active_ms.len(),
        );
        metrics.put_n(
            "trace.overhead_frac",
            (median(&traced.quiescent_ms) - median(&untraced.quiescent_ms))
                / median(&untraced.quiescent_ms),
            traced.quiescent_ms.len(),
        );

        let over = |range: Range<u32>, value: fn(&Wave) -> f64| -> Vec<f64> {
            last.waves
                .iter()
                .enumerate()
                .filter(|(i, _)| range.contains(&(*i as u32)))
                .map(|(_, w)| value(w))
                .collect()
        };
        metrics.put(
            "tbon.network.reduce_ms",
            median(&over(QUIESCENT, |w| w.reduce_ms)),
        );
        metrics.put(
            "core.equivalence.classes",
            median(&over(QUIESCENT, |w| w.classes as f64)),
        );
        metrics.put(
            "core.streaming.delta_bytes_active",
            median(&over(ACTIVE, |w| w.delta_bytes as f64)),
        );
        metrics.put(
            "core.streaming.full_packet_bytes",
            median(&over(ACTIVE, |w| w.full_packet_bytes as f64)),
        );
        metrics.put("tbon.delta.resident_bytes", last.resident_bytes as f64);

        let hints = scenario.app.frame_hints();
        let negotiate_ms: Vec<f64> = (0..5)
            .map(|_| time_ms(|| negotiate(hints.clone())).1)
            .collect();
        metrics.put_n(
            "stackwalk.dictionary_negotiate_ms",
            median(&negotiate_ms),
            negotiate_ms.len(),
        );
        let plan_ms: Vec<f64> = (0..3)
            .map(|_| time_ms(|| TopologyPlanner::new(self.cluster.clone()).plan(self.tasks)).1)
            .collect();
        metrics.put_n("tbon.planner.plan_ms", median(&plan_ms), plan_ms.len());

        let replay = self.replay_delta_path(&scenario)?;
        for (name, values) in [
            ("core.graph.delta_from_ms", &replay.delta_from_active_ms),
            ("tbon.delta.fold_quiescent_ms", &replay.fold_quiescent_ms),
            ("tbon.delta.fold_active_ms", &replay.fold_active_ms),
            ("tbon.delta.delta_link_bytes", &replay.link_bytes_active),
        ] {
            metrics.put_n(name, median(values), values.len());
        }
        // The replay folded the same deltas if it ends with the same resident
        // state as the session did.
        let replay_ok = replay.resident_bytes == last.resident_bytes;

        Ok(RunResult {
            workload: Workload::Stream64kHang,
            attempted: both.attempted,
            failed: both.failed,
            correct: both.failed == 0 && replay_ok,
            metrics,
            ops,
            setups_s: Vec::new(),
            op_walls_ms: untraced.quiescent_ms,
            active_walls_ms: untraced.active_ms,
        })
    }

    /// Re-drive the delta path of one session through public functions: per
    /// daemon and wave, gather, build the wave trees, `delta_from` the
    /// cumulative tree, `merge_aligned`, `encode_tree`; per wave, one
    /// `IncrementalTbon::fold_wave` over resident `TreeResident` state.
    fn replay_delta_path(&self, scenario: &FaultScenario) -> Result<DeltaReplay, StatError> {
        let source = FaultSchedule::new(scenario.clone(), VOCAB, FAULT_WAVE);
        let spec = self.session().build().topology_for(self.tasks);
        let topology = Topology::build(spec.clone());
        let (dict, _) = negotiate(source.app_at(0).frame_hints());
        let filter = StatMergeFilter::<SubtreeTaskList>::new();
        let mut daemons: Vec<(StatDaemon, FrameTable, SubtreePrefixTree)> =
            StatDaemon::partition(self.tasks, spec.backends())
                .into_iter()
                .map(|daemon| {
                    let cumulative = SubtreePrefixTree::new_subtree(daemon.local_tasks());
                    (daemon, FrameTable::new(), cumulative)
                })
                .collect();
        let mut overlay = IncrementalTbon::new(
            topology.clone(),
            TreeResidentFactory::<SubtreeTaskList>::new(),
        );

        let mut replay = DeltaReplay::default();
        for wave in 0..WAVES {
            let app = source.app_at(wave);
            let mut delta_from_ms = 0.0;
            let mut deltas = Vec::with_capacity(daemons.len());
            for ((daemon, table, cumulative), &leaf) in daemons.iter_mut().zip(topology.backends())
            {
                let gathered = gather_samples_for_ranks_from(
                    app.as_ref(),
                    &daemon.ranks,
                    wave * SAMPLES_PER_WAVE,
                    SAMPLES_PER_WAVE,
                    table,
                );
                let (_, wave_3d) = daemon.build_trees::<SubtreeTaskList>(&gathered);
                let (delta, ms) = time_ms(|| wave_3d.delta_from(cumulative));
                delta_from_ms += ms;
                cumulative.merge_aligned(wave_3d);
                deltas.push(Packet::new(
                    PacketTag::TreeDelta,
                    leaf,
                    encode_tree(&delta, table, &dict),
                ));
            }
            let (outcome, fold_ms) = time_ms(|| overlay.fold_wave(deltas, &filter));
            let outcome = outcome?;
            if ACTIVE.contains(&wave) {
                replay.delta_from_active_ms.push(delta_from_ms);
                replay.fold_active_ms.push(fold_ms);
                replay
                    .link_bytes_active
                    .push(outcome.delta_link_bytes as f64);
            } else if QUIESCENT.contains(&wave) {
                replay.fold_quiescent_ms.push(fold_ms);
            }
        }
        replay.resident_bytes = overlay.resident_bytes();
        Ok(replay)
    }
}

#[derive(Default)]
struct DeltaReplay {
    delta_from_active_ms: Vec<f64>,
    fold_active_ms: Vec<f64>,
    fold_quiescent_ms: Vec<f64>,
    link_bytes_active: Vec<f64>,
    resident_bytes: usize,
}
