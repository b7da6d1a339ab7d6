//! Wave-emitting applications: what a continuously-running session observes.
//!
//! A one-shot session samples an application once and exits.  A *streaming*
//! session samples in **waves** — every few seconds, for the life of the job —
//! and the interesting case is a fault that develops mid-stream: waves before
//! the fault see a healthy job, waves after it see the hang.  [`WaveSource`]
//! is the small trait that models this: per wave it hands out the
//! [`Application`] whose behaviour that wave observes and the
//! [`GroundTruth`] a per-wave diagnosis should be judged against.
//!
//! [`FaultSchedule`] is the canonical source: any catalogue
//! [`FaultScenario`] wrapped so its fault first appears at wave *k*, with the
//! all-equivalent healthy baseline before it.  This is what gives *verdict
//! latency* — the number of waves between fault injection and a stable correct
//! diagnosis — a machine-checkable meaning.

use std::sync::Arc;

use crate::app::Application;
use crate::scenario::{FaultScenario, GroundTruth};
use crate::vocab::FrameVocabulary;
use crate::workloads::all_equivalent;

/// A source of per-wave application behaviour for a streaming session.
pub trait WaveSource: Send + Sync {
    /// Name used in reports.
    fn name(&self) -> &str;

    /// Number of MPI tasks (constant across waves — jobs do not resize).
    fn num_tasks(&self) -> u64;

    /// The application whose behaviour wave `wave` observes.
    fn app_at(&self, wave: u32) -> Arc<dyn Application>;

    /// The ground truth a diagnosis made *at* wave `wave` should be judged
    /// against.
    fn truth_at(&self, wave: u32) -> &GroundTruth;
}

/// A source that replays one application (and one truth) on every wave.
pub struct SteadySource {
    app: Arc<dyn Application>,
    truth: GroundTruth,
    name: String,
}

impl SteadySource {
    /// A steady source over one application.
    pub fn new(app: Arc<dyn Application>, truth: GroundTruth) -> Self {
        let name = format!("steady_{}", app.name());
        SteadySource { app, truth, name }
    }

    /// The healthy all-equivalent baseline: the whole job in one barrier,
    /// wave after wave.
    pub fn healthy(tasks: u64, vocab: FrameVocabulary) -> Self {
        let app = all_equivalent(tasks, vocab);
        let truth = app.ground_truth();
        SteadySource::new(Arc::new(app), truth)
    }
}

impl WaveSource for SteadySource {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_tasks(&self) -> u64 {
        self.app.num_tasks()
    }
    fn app_at(&self, _wave: u32) -> Arc<dyn Application> {
        Arc::clone(&self.app)
    }
    fn truth_at(&self, _wave: u32) -> &GroundTruth {
        &self.truth
    }
}

/// A catalogue scenario whose fault first appears at wave `fault_wave`.
///
/// Waves `0..fault_wave` observe the healthy all-equivalent baseline (judged
/// against its table's truth, the one the catalogue's `all_equivalent` scenario
/// carries); waves `fault_wave..` observe the scenario's
/// faulty application (judged against the scenario's own truth).  The faulty
/// application's sample clock still advances globally, so time-varying faults
/// keep evolving across post-fault waves.
pub struct FaultSchedule {
    scenario: FaultScenario,
    healthy: Arc<dyn Application>,
    healthy_truth: GroundTruth,
    fault_wave: u32,
    name: String,
}

impl FaultSchedule {
    /// Schedule `scenario`'s fault to first appear at wave `fault_wave`.
    pub fn new(scenario: FaultScenario, vocab: FrameVocabulary, fault_wave: u32) -> Self {
        let healthy = all_equivalent(scenario.app.num_tasks(), vocab);
        let name = format!("{}@wave{}", scenario.name, fault_wave);
        FaultSchedule {
            healthy_truth: healthy.ground_truth(),
            healthy: Arc::new(healthy),
            scenario,
            fault_wave,
            name,
        }
    }

    /// The wave at which the fault first appears.
    pub fn fault_wave(&self) -> u32 {
        self.fault_wave
    }

    /// The underlying catalogue scenario.
    pub fn scenario(&self) -> &FaultScenario {
        &self.scenario
    }
}

impl WaveSource for FaultSchedule {
    fn name(&self) -> &str {
        &self.name
    }
    fn num_tasks(&self) -> u64 {
        self.scenario.app.num_tasks()
    }
    fn app_at(&self, wave: u32) -> Arc<dyn Application> {
        if wave < self.fault_wave {
            Arc::clone(&self.healthy)
        } else {
            Arc::clone(&self.scenario.app)
        }
    }
    fn truth_at(&self, wave: u32) -> &GroundTruth {
        if wave < self.fault_wave {
            &self.healthy_truth
        } else {
            &self.scenario.truth
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::catalogue;

    #[test]
    fn fault_schedule_switches_behaviour_at_the_fault_wave() {
        let scenario = catalogue(64, FrameVocabulary::Linux)
            .into_iter()
            .find(|s| s.name == "ring_hang")
            .unwrap();
        let schedule = FaultSchedule::new(scenario, FrameVocabulary::Linux, 3);
        assert_eq!(schedule.num_tasks(), 64);
        assert_eq!(schedule.fault_wave(), 3);
        assert!(schedule.name().starts_with("ring_hang@wave3"));

        // Pre-fault waves: everyone in the barrier, judged healthy.
        for wave in 0..3 {
            assert_eq!(schedule.app_at(wave).name(), "all_equivalent");
            assert_eq!(schedule.truth_at(wave).class_count, (1, 1));
            assert!(schedule.truth_at(wave).isolations.is_empty());
        }
        // Post-fault waves: the ring hang, judged against its own truth.
        for wave in 3..6 {
            assert_eq!(schedule.app_at(wave).name(), "mpi_ring_hang");
            assert!(!schedule.truth_at(wave).isolations.is_empty());
        }
    }

    #[test]
    fn steady_source_replays_one_behaviour() {
        let source = SteadySource::healthy(128, FrameVocabulary::BlueGeneL);
        assert_eq!(source.num_tasks(), 128);
        for wave in [0u32, 1, 17] {
            assert_eq!(source.app_at(wave).name(), "all_equivalent");
            assert_eq!(source.truth_at(wave).class_count, (1, 1));
        }
    }
}
