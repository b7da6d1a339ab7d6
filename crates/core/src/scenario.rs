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
//! There is one way to run a scenario, whatever faults it carries, and it is the
//! way [`Session::attach`] runs.  The paper's operational lesson is that the
//! tool's own processes fail first, so "a gather that lost daemons or has a bad
//! filter" is the *same* code as "a gather": one crate-private gather body plans
//! the overlay, `prune_overlay` states once which daemons are alive and what tree
//! they merge over (the identity when the scenario carries no
//! [`OverlayFault`]), only the survivors sample, `resolve_filter_faults` aims any
//! mid-tree corruption at the tree that actually merges, and the report's
//! diagnosis names the ranks the lost daemons covered.  `attach` is that body
//! with no faults.  The streaming path ([`Session::stream_scenario`],
//! [`crate::streaming::StreamingSession`]) prunes and aims its mid-tree faults
//! through the same two functions.
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
use tbon::fault::{FaultTracker, FilterFault, FilterFaultKind};
use tbon::packet::EndpointId;
use tbon::topology::Topology;

use crate::error::StatError;
use crate::frontend::GatherResult;
use crate::session::{Session, SessionReport};
use crate::streaming::{StreamingBuilder, WaveReport};

/// Convert a finished gather into the representation-agnostic [`Diagnosis`] the
/// scenario verdict checkers consume: classes by frame *name*, each with a copy
/// of its task set, plus the ranks a degraded gather lost.  Classes come
/// largest first, equal sizes in frame-name order, so the same job gives the
/// same diagnosis whatever ids its frames got.
pub fn diagnose(gather: &GatherResult, tasks: u64, lost_ranks: Vec<u64>) -> Diagnosis {
    let name = |&f| gather.frames.name(f).to_string();
    let named = gather.classes.iter().map(|class| {
        let (frames, ranks) = (class.path.iter().map(name).collect(), class.tasks.clone());
        DiagnosedClass { frames, ranks }
    });
    let mut classes: Vec<_> = named.collect();
    classes.sort_unstable_by(|a, b| (b.ranks.len(), &a.frames).cmp(&(a.ranks.len(), &b.frames)));
    Diagnosis {
        tasks,
        lost_ranks,
        classes,
    }
}

impl SessionReport {
    /// The diagnosis this session produced, ready for a
    /// [`appsim::scenario::GroundTruth::check`]: judged against the whole job
    /// and the ranks the lost daemons covered.  (Not against the ranks the merged
    /// tree happens to hold: a subtree a corrupted filter dropped would then
    /// vanish from both sides of the coverage check.)
    pub fn diagnosis(&self) -> Diagnosis {
        let gather = &self.gather;
        diagnose(gather, gather.tree_3d.width(), self.lost_ranks.clone())
    }
}

/// Everything one scenario run produced: the verdict plus enough context to
/// report *how* the pipeline got there.  Derived from the run's
/// [`SessionReport`].
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
    /// It is the gather [`attach`](Session::attach) runs, with the scenario's
    /// overlay and mid-tree faults, followed by the report's
    /// [`diagnosis`](SessionReport::diagnosis) and the ground truth's judgement.
    pub fn run_scenario(&self, scenario: &FaultScenario) -> Result<ScenarioRun, StatError> {
        let report = self.gather(
            scenario.app.as_ref(),
            &scenario.overlay_faults,
            &scenario.mid_tree_faults,
        )?;
        let diagnosis = report.diagnosis();
        let verdict = scenario.truth.check(&scenario.name, &diagnosis);
        Ok(ScenarioRun {
            scenario: scenario.name.clone(),
            daemons: report.daemons,
            lost_backends: (report.daemons - report.topology.backends()) as usize,
            diagnosis,
            verdict,
        })
    }

    /// Run one scenario as a **continuous stream** sampling
    /// [`samples_per_task`](Session::samples_per_task) traces per task per wave:
    /// the job starts healthy, the scenario's fault first appears at wave
    /// `fault_wave`, and the stream is observed for `post_fault_waves` further
    /// waves (at least one).  The scenario's overlay faults are applied at wave
    /// 0, so a degraded overlay is degraded for the whole stream.  Its mid-tree
    /// faults corrupt every wave, aimed at the tree that merges: both the wave's
    /// full-view reduction and the delta fold (re-seeds included) go through the
    /// corrupting filter.  Returns every per-wave report, in wave order.
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
        builder.mid_tree_faults = scenario.mid_tree_faults.clone();
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

/// The `index`-th endpoint from the end of `endpoints`.  An index past the end
/// is a [`StatError::FaultOutOfRange`], never a silent clamp: a clamp would make
/// `BackendFromEnd(7)` on a 4-daemon tree re-run `BackendFromEnd(3)`.
fn from_end(
    endpoints: &[EndpointId],
    index: usize,
    kind: &'static str,
) -> Result<EndpointId, StatError> {
    let width = endpoints.len();
    endpoints
        .iter()
        .rev()
        .nth(index)
        .copied()
        .ok_or(StatError::FaultOutOfRange { kind, index, width })
}

/// Resolve a scenario's abstract overlay fault to a concrete endpoint of the
/// topology it prunes.
fn resolve_fault(topology: &Topology, fault: OverlayFault) -> Result<EndpointId, StatError> {
    match fault {
        OverlayFault::BackendFromEnd(i) => from_end(topology.backends(), i, "backend"),
        OverlayFault::CommProcessFromEnd(i) => {
            let comm = topology.comm_processes();
            if comm.is_empty() && i == 0 {
                // A flat tree has no comm processes to kill; its last daemon
                // stands in (index 0 only) so the scenario still exercises the
                // pruned path.
                return from_end(topology.backends(), 0, "backend");
            }
            from_end(&comm, i, "comm-process")
        }
    }
}

/// Resolve a scenario's abstract mid-tree faults to concrete
/// [`FilterFault`]s against the tree that will actually merge.  Flat trees have
/// no communication processes, so *any* mid-tree fault on them is a
/// [`StatError::FaultOutOfRange`] — there is no interior filter state to
/// corrupt.
pub(crate) fn resolve_filter_faults(
    topology: &Topology,
    faults: &[MidTreeFault],
) -> Result<Vec<FilterFault>, StatError> {
    let comm = topology.comm_processes();
    faults
        .iter()
        .map(|fault| {
            Ok(FilterFault {
                node: from_end(&comm, fault.comm_from_end, "mid-tree filter")?,
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
    fn attach_is_the_fault_free_scenario_run() {
        // One gather body: a scenario with a healthy overlay and honest filters
        // diagnoses exactly as a plain attach of its application does.
        for representation in [
            Representation::HierarchicalTaskList,
            Representation::GlobalBitVector,
        ] {
            let session = Session::builder(cluster())
                .representation(representation)
                .samples_per_task(2)
                .build();
            for scenario in catalogue(256, FrameVocabulary::BlueGeneL)
                .iter()
                .filter(|s| !s.is_degraded())
            {
                let report = session.attach(scenario.app.as_ref()).unwrap();
                let run = session.run_scenario(scenario).unwrap();
                assert_eq!(report.diagnosis(), run.diagnosis, "{}", scenario.name);
                assert_eq!((run.daemons, run.lost_backends), (report.daemons, 0));
            }
        }
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
        let covered: u64 = run.diagnosis.classes.iter().map(|c| c.ranks.len()).sum();
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
    fn stream_scenario_detects_mid_tree_corruption() {
        // The streaming counterpart of the one-shot check above: the stream's
        // walks take the scenario's mid-tree faults too.  Interior nodes hold no
        // resident state, so the corrupted filter does not stop the stream in a
        // fold; the judged full view catches it, and every wave fails.
        use appsim::scenario::{MidTreeCorruption, MidTreeFault};
        let scenarios = catalogue(128, FrameVocabulary::Linux);
        let session = Session::builder(Cluster::test_cluster(16, 8))
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
            let passed: Result<Vec<bool>, _> = session
                .stream_scenario(&corrupted, FrameVocabulary::Linux, 1, 3)
                .map(|reports| reports.iter().map(|r| r.verdict.passed()).collect());
            assert_eq!(passed, Ok(vec![false; 4]), "{kind:?}");
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
