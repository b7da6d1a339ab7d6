//! Report → verdict helpers: running fault scenarios through the real pipeline.
//!
//! `appsim::scenario` defines *what* to inject and *what the tool must conclude*
//! ([`appsim::scenario::GroundTruth`]); this module supplies the missing middle.
//! [`Session::run_scenario`] runs a scenario's application through the session's
//! own pipeline (its topology choice, real daemons, real single-pass TBON
//! reduction), converts the resulting [`GatherResult`] into the
//! representation-agnostic [`Diagnosis`] the verdict checker understands, and
//! returns the [`Verdict`].
//!
//! There is one way to run a scenario, whatever faults it carries.  The paper's
//! operational lesson is that the tool's own processes fail first, so "a gather
//! that lost daemons" is the *same* code as "a gather": `prune_overlay` states
//! once which daemons are alive and what tree they merge over (the identity when
//! the scenario carries no [`OverlayFault`]), only the survivors sample, any
//! mid-tree corruption is aimed at the tree that actually merges, and the
//! diagnosis reports the ranks the lost daemons covered.  The streaming path
//! ([`Session::stream_scenario`], [`crate::streaming::StreamingSession`]) prunes
//! through the same function.
//!
//! ```
//! use appsim::scenario::catalogue;
//! use appsim::FrameVocabulary;
//! use machine::Cluster;
//! use stat_core::prelude::*;
//!
//! let scenarios = catalogue(64, FrameVocabulary::Linux);
//! let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
//! let session = Session::builder(Cluster::test_cluster(8, 8))
//!     .plan_topology()
//!     .samples_per_task(3)
//!     .build();
//! let run = session.run_scenario(ring).unwrap();
//! assert!(run.verdict.passed(), "{}", run.verdict);
//! ```

use appsim::scenario::{
    DiagnosedClass, Diagnosis, FaultScenario, MidTreeCorruption, MidTreeFault, OverlayFault,
    Verdict,
};
use appsim::{FaultSchedule, FrameVocabulary};
use stackwalk::FrameDictionary;
use tbon::fault::{FaultTracker, FilterFault, FilterFaultKind};
use tbon::packet::EndpointId;
use tbon::topology::Topology;

use crate::daemon::{DaemonContribution, StatDaemon};
use crate::error::StatError;
use crate::frontend::GatherResult;
use crate::session::{Session, SessionReport};
use crate::streaming::{StreamingBuilder, WaveReport};
use crate::taskset::TaskSetOps;

/// Convert a finished gather into the representation-agnostic [`Diagnosis`] the
/// scenario verdict checkers consume: classes by frame *name*, plus the ranks a
/// degraded gather lost.
pub fn diagnose(gather: &GatherResult, tasks: u64, lost_ranks: Vec<u64>) -> Diagnosis {
    let classes = gather
        .classes
        .iter()
        .map(|class| DiagnosedClass {
            frames: class
                .path
                .iter()
                .map(|&f| gather.frames.name(f).to_string())
                .collect(),
            ranks: class.tasks.clone(),
        })
        .collect();
    Diagnosis {
        tasks,
        lost_ranks,
        classes,
    }
}

impl SessionReport {
    /// The diagnosis this (non-degraded) session produced, ready for a
    /// [`appsim::scenario::GroundTruth::check`].
    pub fn diagnosis(&self) -> Diagnosis {
        let tasks = self
            .gather
            .tree_3d
            .tasks(self.gather.tree_3d.root())
            .count();
        diagnose(&self.gather, tasks, Vec::new())
    }
}

/// Everything one scenario run produced: the verdict plus enough context to
/// report *how* the pipeline got there.
#[derive(Clone, Debug)]
pub struct ScenarioRun {
    /// The scenario that ran.
    pub scenario: String,
    /// Daemons the planned topology started with.
    pub daemons: u32,
    /// Daemons lost to the scenario's overlay faults (0 for a healthy overlay).
    pub lost_backends: usize,
    /// The diagnosis the merged tree produced.
    pub diagnosis: Diagnosis,
    /// The ground truth's judgement of that diagnosis.
    pub verdict: Verdict,
}

impl Session {
    /// Run one scenario under this session's topology choice, representation and
    /// sampling depth, and judge the result against the scenario's ground truth.
    ///
    /// One body serves every scenario: plan the overlay, prune it by the
    /// scenario's overlay faults, let the surviving daemons contribute, aim the
    /// mid-tree faults at the tree that actually merges, reduce, diagnose, judge.
    pub fn run_scenario(&self, scenario: &FaultScenario) -> Result<ScenarioRun, StatError> {
        let app = scenario.app.as_ref();
        let tasks = app.num_tasks();
        let planned = Topology::build(self.topology_for(tasks));
        let total_backends = planned.backends().len();
        let (surviving, topology) =
            prune_overlay(planned, &scenario.overlay_faults, total_backends)?;
        // Mid-tree faults hit the tree that merges: on a pruned overlay the
        // corrupted comm process is one that survived and still merges its
        // (reduced) subtree.
        let filter_faults = resolve_filter_faults(&topology, &scenario.mid_tree_faults)?;

        // Only the survivors spend sampling time — a dead daemon gathers nothing —
        // and they all encode against one session-global dictionary.
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let strategy = self.representation().strategy();
        let daemons = StatDaemon::partition(tasks, total_backends as u32);
        let contributions: Vec<DaemonContribution> = surviving
            .iter()
            .zip(topology.backends())
            .map(|(&idx, &leaf)| {
                strategy.contribute(&daemons[idx], app, self.samples_per_task(), leaf, &dict)
            })
            .collect();
        // `surviving` is ascending: it is a filter of the backend order.
        let lost_ranks: Vec<u64> = daemons
            .iter()
            .enumerate()
            .filter(|(idx, _)| surviving.binary_search(idx).is_err())
            .flat_map(|(_, d)| d.ranks.iter().copied())
            .collect();

        let (gather, _) =
            self.merge_through(&topology, contributions, tasks, &dict, &filter_faults)?;
        let diagnosis = diagnose(&gather, tasks, lost_ranks);
        let verdict = scenario.truth.check(&scenario.name, &diagnosis);
        Ok(ScenarioRun {
            scenario: scenario.name.clone(),
            daemons: total_backends as u32,
            lost_backends: total_backends - surviving.len(),
            diagnosis,
            verdict,
        })
    }

    /// Run one scenario as a **continuous stream** sampling
    /// [`samples_per_task`](Session::samples_per_task) traces per task per wave:
    /// the job starts healthy, the scenario's fault first appears at wave
    /// `fault_wave`, and the stream is observed for `post_fault_waves` further
    /// waves (at least one).  The scenario's overlay faults are applied at wave
    /// 0, so a degraded overlay is degraded for the whole stream; its mid-tree
    /// faults are **ignored** — the streaming path does not corrupt filters yet.
    /// Returns every per-wave report, in wave order.
    pub fn stream_scenario(
        &self,
        scenario: &FaultScenario,
        vocab: FrameVocabulary,
        fault_wave: u32,
        post_fault_waves: u32,
    ) -> Result<Vec<WaveReport>, StatError> {
        let mut builder = StreamingBuilder::new(self.clone());
        for &fault in &scenario.overlay_faults {
            builder = builder.overlay_fault_at(0, fault);
        }
        let source = FaultSchedule::new(scenario.clone(), vocab, fault_wave);
        let mut stream = builder.open(Box::new(source))?;
        let total = fault_wave.saturating_add(post_fault_waves.max(1));
        (0..total).map(|_| stream.advance()).collect()
    }
}

/// Which daemons are alive and what tree do they merge over: apply `faults` to
/// `topology` and return the surviving backends' indices (into the backend order
/// of `topology`) with the pruned replacement tree — `topology` itself, with
/// every index, when there are no faults.  `total_backends` is the daemon count
/// the session started with, for the [`StatError::SessionNotViable`] a prune that
/// leaves no front end or no daemon reports.
pub(crate) fn prune_overlay(
    topology: Topology,
    faults: &[OverlayFault],
    total_backends: usize,
) -> Result<(Vec<usize>, Topology), StatError> {
    if faults.is_empty() {
        return Ok(((0..topology.backends().len()).collect(), topology));
    }
    let failed = faults
        .iter()
        .map(|&fault| resolve_fault(&topology, fault))
        .collect::<Result<Vec<_>, _>>()?;
    let mut tracker = FaultTracker::new(topology);
    for endpoint in failed {
        tracker.fail(endpoint);
    }
    let surviving = tracker.surviving_backend_indices();
    let degraded = tracker
        .degraded_shape()
        .ok_or(StatError::SessionNotViable {
            lost_backends: total_backends - surviving.len(),
            total_backends,
        })?;
    Ok((surviving, Topology::build(degraded)))
}

/// Resolve a scenario's abstract overlay fault to a concrete endpoint of the
/// planned topology.  An index past the addressed level's width is a
/// [`StatError::FaultOutOfRange`], never a silent clamp: the old clamping made
/// `BackendFromEnd(7)` on a 4-daemon tree indistinguishable from
/// `BackendFromEnd(3)`, so a campaign sweeping fault indices across scales
/// would quietly re-run the same fault.
fn resolve_fault(topology: &Topology, fault: OverlayFault) -> Result<EndpointId, StatError> {
    match fault {
        OverlayFault::BackendFromEnd(i) => {
            let backends = topology.backends();
            if i >= backends.len() {
                return Err(StatError::FaultOutOfRange {
                    kind: "backend",
                    index: i,
                    width: backends.len(),
                });
            }
            Ok(backends[backends.len() - 1 - i])
        }
        OverlayFault::CommProcessFromEnd(i) => {
            let comm = topology.comm_processes();
            if comm.is_empty() {
                // A flat tree has no comm processes to kill; degrade a daemon so
                // the scenario still exercises the pruned path.  (Documented
                // fallback — index 0 only, anything else is out of range.)
                if i > 0 {
                    return Err(StatError::FaultOutOfRange {
                        kind: "comm-process",
                        index: i,
                        width: 0,
                    });
                }
                let backends = topology.backends();
                Ok(backends[backends.len() - 1])
            } else if i >= comm.len() {
                Err(StatError::FaultOutOfRange {
                    kind: "comm-process",
                    index: i,
                    width: comm.len(),
                })
            } else {
                Ok(comm[comm.len() - 1 - i])
            }
        }
    }
}

/// Resolve a scenario's abstract mid-tree faults to concrete
/// [`FilterFault`]s against the tree that will actually merge.  Flat trees have
/// no communication processes, so *any* mid-tree fault on them is a
/// [`StatError::FaultOutOfRange`] — there is no interior filter state to
/// corrupt.
fn resolve_filter_faults(
    topology: &Topology,
    faults: &[MidTreeFault],
) -> Result<Vec<FilterFault>, StatError> {
    let comm = topology.comm_processes();
    faults
        .iter()
        .map(|fault| {
            if fault.comm_from_end >= comm.len() {
                return Err(StatError::FaultOutOfRange {
                    kind: "mid-tree filter",
                    index: fault.comm_from_end,
                    width: comm.len(),
                });
            }
            Ok(FilterFault {
                node: comm[comm.len() - 1 - fault.comm_from_end],
                kind: match fault.kind {
                    MidTreeCorruption::Garbage => FilterFaultKind::Garbage,
                    MidTreeCorruption::Truncate => FilterFaultKind::Truncate,
                },
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use appsim::scenario::catalogue;
    use appsim::FrameVocabulary;
    use machine::cluster::Cluster;

    use crate::frontend::Representation;

    fn cluster() -> Cluster {
        Cluster::test_cluster(32, 8)
    }

    /// A planner-chosen overlay under the paper's default representation.
    fn planned(samples: u32) -> Session {
        Session::builder(cluster())
            .plan_topology()
            .samples_per_task(samples)
            .build()
    }

    #[test]
    fn the_ring_hang_scenario_is_diagnosed_end_to_end() {
        let scenarios = catalogue(256, FrameVocabulary::BlueGeneL);
        let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
        let run = planned(3).run_scenario(ring).unwrap();
        assert!(run.verdict.passed(), "{}", run.verdict);
        assert_eq!(run.lost_backends, 0);
        // The checker saw the real classes, by name.
        assert!(run
            .diagnosis
            .classes
            .iter()
            .any(|c| c.frames.iter().any(|f| f == "do_SendOrStall")));
    }

    #[test]
    fn a_degraded_scenario_reports_its_lost_ranks_and_still_passes() {
        let scenarios = catalogue(256, FrameVocabulary::Linux);
        let degraded = scenarios
            .iter()
            .find(|s| s.name == "ring_hang_daemon_loss")
            .unwrap();
        let run = planned(2).run_scenario(degraded).unwrap();
        assert!(run.verdict.passed(), "{}", run.verdict);
        assert!(run.lost_backends > 0);
        assert!(!run.diagnosis.lost_ranks.is_empty());
        // The lost ranks are exactly the tail daemon's slice: high ranks, so the
        // injected bug (ranks 1 and 2) stayed covered.
        assert!(run.diagnosis.lost_ranks.iter().all(|&r| r > 2));
        let covered: u64 = run
            .diagnosis
            .classes
            .iter()
            .map(|c| c.ranks.len() as u64)
            .sum();
        assert!(covered >= 256 - run.diagnosis.lost_ranks.len() as u64);
    }

    #[test]
    fn both_representations_reach_the_same_verdicts() {
        let scenarios = catalogue(128, FrameVocabulary::Linux);
        for scenario in &scenarios {
            let hier = planned(3).run_scenario(scenario).unwrap();
            let dense = Session::builder(cluster())
                .representation(Representation::GlobalBitVector)
                .plan_topology()
                .samples_per_task(3)
                .build()
                .run_scenario(scenario)
                .unwrap();
            assert!(hier.verdict.passed(), "{}", hier.verdict);
            assert!(dense.verdict.passed(), "{}", dense.verdict);
            assert_eq!(hier.diagnosis.classes.len(), dense.diagnosis.classes.len());
        }
    }

    #[test]
    fn a_wrong_diagnosis_is_rejected_not_papered_over() {
        // Cross-wire a scenario: run the deadlock app against the ring hang's
        // ground truth.  The harness must say FAIL, not find a way to pass.
        let scenarios = catalogue(128, FrameVocabulary::Linux);
        let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
        let deadlock = scenarios
            .iter()
            .find(|s| s.name == "deadlock_pair")
            .unwrap();
        let mut crossed = deadlock.clone();
        crossed.truth = ring.truth.clone();
        let run = planned(3).run_scenario(&crossed).unwrap();
        assert!(!run.verdict.passed());
        assert!(run.verdict.failures().iter().any(|c| c.name == "isolation"));
    }

    #[test]
    fn out_of_range_backend_faults_are_typed_errors_not_silent_clamps() {
        let scenarios = catalogue(64, FrameVocabulary::Linux);
        let mut wild = scenarios
            .iter()
            .find(|s| s.name == "ring_hang")
            .unwrap()
            .clone();
        let backends = planned(1).topology_for(64).backends() as usize;
        wild.overlay_faults = vec![appsim::scenario::OverlayFault::BackendFromEnd(backends)];
        let err = planned(1).run_scenario(&wild).unwrap_err();
        assert_eq!(
            err,
            StatError::FaultOutOfRange {
                kind: "backend",
                index: backends,
                width: backends,
            }
        );
    }

    #[test]
    fn out_of_range_comm_faults_are_typed_errors_not_silent_clamps() {
        let scenarios = catalogue(64, FrameVocabulary::Linux);
        let mut wild = scenarios
            .iter()
            .find(|s| s.name == "deadlock_pair")
            .unwrap()
            .clone();
        wild.overlay_faults = vec![appsim::scenario::OverlayFault::CommProcessFromEnd(999)];
        let err = planned(1).run_scenario(&wild).unwrap_err();
        assert!(
            matches!(
                err,
                StatError::FaultOutOfRange {
                    kind: "comm-process",
                    index: 999,
                    ..
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn mid_tree_corruption_is_detected_not_papered_over() {
        // Corrupt one interior node's filter output: the parent merge drops the
        // corrupted subtree (or the front end refuses to decode), so the run
        // must surface the damage — a failed verdict or a pipeline error, never
        // a clean PASS.
        use appsim::scenario::{MidTreeCorruption, MidTreeFault};
        use tbon::topology::TreeShape;
        let scenarios = catalogue(256, FrameVocabulary::BlueGeneL);
        // Pin a 2-deep tree so the topology definitely has interior nodes.
        let session = Session::builder(cluster())
            .topology(TreeShape::two_deep(32, 4))
            .samples_per_task(2)
            .build();
        for kind in [MidTreeCorruption::Garbage, MidTreeCorruption::Truncate] {
            let mut corrupted = scenarios
                .iter()
                .find(|s| s.name == "ring_hang")
                .unwrap()
                .clone();
            corrupted.mid_tree_faults = vec![MidTreeFault {
                comm_from_end: 0,
                kind,
            }];
            assert!(corrupted.is_corrupting());
            match session.run_scenario(&corrupted) {
                Ok(run) => assert!(
                    !run.verdict.passed(),
                    "{kind:?} corruption produced a clean PASS:\n{}",
                    run.verdict
                ),
                Err(err) => assert!(
                    matches!(
                        err,
                        StatError::Decode { .. }
                            | StatError::RankMapMismatch { .. }
                            | StatError::Reduce(_)
                    ),
                    "unexpected error class for {kind:?}: {err}"
                ),
            }
        }
    }

    #[test]
    fn mid_tree_faults_on_a_flat_tree_are_out_of_range() {
        use appsim::scenario::{MidTreeCorruption, MidTreeFault};
        use tbon::topology::TreeShape;
        let scenarios = catalogue(64, FrameVocabulary::Linux);
        let mut corrupted = scenarios
            .iter()
            .find(|s| s.name == "ring_hang")
            .unwrap()
            .clone();
        corrupted.mid_tree_faults = vec![MidTreeFault {
            comm_from_end: 0,
            kind: MidTreeCorruption::Garbage,
        }];
        let session = Session::builder(cluster())
            .topology(TreeShape::flat(8))
            .samples_per_task(1)
            .build();
        let err = session.run_scenario(&corrupted).unwrap_err();
        assert_eq!(
            err,
            StatError::FaultOutOfRange {
                kind: "mid-tree filter",
                index: 0,
                width: 0,
            }
        );
    }

    #[test]
    fn losing_every_daemon_is_an_error_not_a_panic() {
        let scenarios = catalogue(64, FrameVocabulary::Linux);
        let mut doomed = scenarios
            .iter()
            .find(|s| s.name == "ring_hang")
            .unwrap()
            .clone();
        // More faults than the topology has backends: every daemon dies.
        let backends = planned(1).topology_for(64).backends() as usize;
        doomed.overlay_faults = (0..backends)
            .map(appsim::scenario::OverlayFault::BackendFromEnd)
            .collect();
        let err = planned(1).run_scenario(&doomed).unwrap_err();
        assert!(matches!(err, StatError::SessionNotViable { .. }));
        assert!(err.to_string().contains("no degraded session"));
    }

    #[test]
    fn run_scenario_honors_the_sessions_pinned_topology() {
        // The scenario must execute under the session's configured overlay, not
        // a planner pick: pin an unusual shape and check it is what actually ran.
        let scenarios = catalogue(256, FrameVocabulary::Linux);
        let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
        let run = Session::builder(cluster())
            .topology(tbon::topology::TreeShape::two_deep(16, 4))
            .build()
            .run_scenario(ring)
            .unwrap();
        assert_eq!(run.daemons, 16, "the pinned 16-daemon overlay must be used");
        assert!(run.verdict.passed(), "{}", run.verdict);
    }

    #[test]
    fn stream_scenario_watches_the_fault_develop() {
        let scenarios = catalogue(256, FrameVocabulary::Linux);
        let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
        let reports = Session::builder(cluster())
            .samples_per_task(2)
            .build()
            .stream_scenario(ring, FrameVocabulary::Linux, 2, 2)
            .expect("the stream advances");
        assert_eq!(reports.len(), 4);
        for report in &reports[..2] {
            assert!(report.verdict.passed(), "pre-fault: {}", report.verdict);
            assert_eq!(report.classes, 1);
        }
        for report in &reports[2..] {
            assert!(report.verdict.passed(), "post-fault: {}", report.verdict);
            assert!(report.classes >= 3);
        }
        // The leaf ingress column is populated on every wave.
        assert!(reports.iter().all(|r| r.packet_bytes > 0));
    }
}
