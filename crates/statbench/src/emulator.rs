//! Emulated daemons driving the real merge machinery.
//!
//! STATBench's emulated daemons do exactly what real STAT daemons do *except* talk to
//! live processes: they fabricate the traces (here via [`crate::generator`]) and then
//! run the genuine local-merge, serialisation and TBON-merge code paths.  The value of
//! the emulation is that the measured quantities — packet sizes, filter work, tree
//! shapes, wall time — come from the real implementation, not a model, while the
//! "application" can be dialled to any size and shape.
//!
//! The emulation goes through [`Session`] — the same builder-style front end the real
//! tool uses — so the emulator and the tool *cannot* drift apart: there is no
//! emulator-local copy of the representation dispatch or the merge pipeline.

use appsim::scenario::FaultScenario;
use appsim::{FaultSchedule, FrameVocabulary};
use machine::cluster::Cluster;
use machine::placement::PlacementPlan;
use stat_core::prelude::*;
use tbon::topology::TreeShape;

use crate::generator::{SyntheticApp, TraceShape};

/// An emulated whole-job run: a synthetic application, a machine and a topology.
#[derive(Clone, Debug)]
pub struct EmulatedJob {
    /// Machine whose daemon fan-in and placement rules apply.
    pub cluster: Cluster,
    /// Number of MPI tasks to emulate.
    pub tasks: u64,
    /// Shape of the synthetic traces.
    pub shape: TraceShape,
    /// Depth (in edges) of the placement-rule overlay tree; ignored when a shape
    /// is pinned via [`EmulatedJob::with_topology`].
    pub tree_depth: u32,
    /// An explicit overlay tree shape, overriding `tree_depth`.
    pub pinned_topology: Option<TreeShape>,
    /// Task-set representation to exercise.
    pub representation: Representation,
    /// Samples per task.
    pub samples_per_task: u32,
}

impl EmulatedJob {
    /// An emulated job on the given cluster with typical STATBench parameters.
    pub fn new(cluster: Cluster, tasks: u64) -> Self {
        EmulatedJob {
            cluster,
            tasks,
            shape: TraceShape::typical(),
            tree_depth: 2,
            pinned_topology: None,
            representation: Representation::HierarchicalTaskList,
            samples_per_task: 10,
        }
    }

    /// Override the trace shape.
    pub fn with_shape(mut self, shape: TraceShape) -> Self {
        self.shape = shape;
        self
    }

    /// Override the representation.
    pub fn with_representation(mut self, representation: Representation) -> Self {
        self.representation = representation;
        self
    }

    /// Override the samples gathered per task.
    pub fn with_samples_per_task(mut self, samples: u32) -> Self {
        self.samples_per_task = samples.max(1);
        self
    }

    /// Use the placement-rule tree of the given depth for the overlay network.
    pub fn with_tree_depth(mut self, depth: u32) -> Self {
        self.tree_depth = depth.max(1);
        self.pinned_topology = None;
        self
    }

    /// Pin an explicit overlay tree shape.
    pub fn with_topology(mut self, shape: TreeShape) -> Self {
        self.pinned_topology = Some(shape);
        self
    }

    /// The overlay tree shape this job will emulate.
    pub fn topology(&self) -> TreeShape {
        match &self.pinned_topology {
            Some(shape) => shape.clone(),
            None => TreeShape::for_placement(
                &PlacementPlan::for_job(&self.cluster, self.tasks),
                self.tree_depth,
            ),
        }
    }

    /// Run one fault scenario from the `appsim::scenario` catalogue under this
    /// job's machine, representation, sampling depth *and* overlay topology
    /// (pinned via [`EmulatedJob::with_topology`] / [`EmulatedJob::with_tree_depth`],
    /// exactly as [`EmulatedJob::run`] resolves it), returning the pipeline's
    /// verdict against the scenario's ground truth.
    ///
    /// This is STATBench's "known answer" mode: where [`EmulatedJob::run`]
    /// measures the pipeline on dialled-up synthetic shapes, `run_scenario`
    /// checks it *diagnoses* a catalogued fault — through exactly the same
    /// `Session` machinery, so the emulator and the tool cannot drift.
    pub fn run_scenario(
        &self,
        scenario: &appsim::scenario::FaultScenario,
    ) -> Result<ScenarioRun, StatError> {
        let session = Session::builder(self.cluster.clone())
            .representation(self.representation)
            .topology(self.topology())
            .samples_per_task(self.samples_per_task)
            .build();
        run_scenario_in(&session, scenario)
    }

    /// Run one catalogue scenario as a **continuous stream**: the job starts
    /// healthy, the scenario's fault first appears at wave `fault_wave`, and the
    /// stream is observed for `post_fault_waves` further waves.  Any overlay
    /// faults the scenario carries are applied at wave 0, so a degraded overlay
    /// is degraded for the whole stream.  Returns every per-wave report, in
    /// wave order — the raw material for verdict-latency measurement (see
    /// [`crate::campaign::stable_wave`]).
    pub fn stream_scenario(
        &self,
        scenario: &FaultScenario,
        vocab: FrameVocabulary,
        fault_wave: u32,
        post_fault_waves: u32,
    ) -> Result<Vec<WaveReport>, StatError> {
        let mut builder = Session::builder(self.cluster.clone())
            .representation(self.representation)
            .topology(self.topology())
            .streaming(self.samples_per_task);
        for &fault in &scenario.overlay_faults {
            builder = builder.overlay_fault_at(0, fault);
        }
        let source = FaultSchedule::new(scenario.clone(), vocab, fault_wave);
        let mut stream = builder.open(Box::new(source))?;
        let total = fault_wave.saturating_add(post_fault_waves.max(1));
        let mut reports = Vec::with_capacity(total as usize);
        for _ in 0..total {
            reports.push(stream.advance()?);
        }
        Ok(reports)
    }

    /// Run the emulation and return the session's own report.
    ///
    /// The synthetic application is handed to the *real* session pipeline — daemon
    /// partitioning, representation dispatch, the single-pass multi-channel TBON
    /// reduction and the front-end remap are all the production code paths.
    pub fn run(&self) -> Result<SessionReport, StatError> {
        let app = SyntheticApp::new(self.tasks, self.shape);
        Session::builder(self.cluster.clone())
            .representation(self.representation)
            .topology(self.topology())
            .samples_per_task(self.samples_per_task)
            .build()
            .attach(&app)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cluster() -> Cluster {
        Cluster::test_cluster(64, 8)
    }

    #[test]
    fn emulation_recovers_the_requested_classes() {
        let job = EmulatedJob::new(small_cluster(), 512).with_shape(TraceShape {
            classes: 6,
            ..TraceShape::typical()
        });
        let report = job.run().expect("the emulation merges cleanly");
        // Temporal frames split each class across a few leaves but the terminal-node
        // class extraction reassembles them: 6 classes of tasks.
        assert_eq!(report.gather.classes.len(), 6);
        assert_eq!(report.daemons, 64);
        // The compression the tool achieved: emulated tasks per behaviour class.
        assert!(job.tasks as f64 / report.gather.classes.len() as f64 > 80.0);
    }

    #[test]
    fn representations_agree_on_classes_but_not_on_bytes() {
        let base = EmulatedJob::new(small_cluster(), 1_024).with_shape(TraceShape::typical());
        let dense = base
            .clone()
            .with_representation(Representation::GlobalBitVector)
            .run()
            .unwrap();
        let hier = base
            .with_representation(Representation::HierarchicalTaskList)
            .run()
            .unwrap();
        assert_eq!(dense.gather.classes.len(), hier.gather.classes.len());
        assert!(dense.gather.metrics.total_link_bytes > hier.gather.metrics.total_link_bytes);
        assert!(dense.max_daemon_packet_bytes > hier.max_daemon_packet_bytes);
    }

    #[test]
    fn best_case_merged_tree_is_one_path() {
        let job = EmulatedJob::new(small_cluster(), 256).with_shape(TraceShape::best_case(12));
        let report = job.run().unwrap();
        assert_eq!(report.gather.classes.len(), 1);
        // Root + 12 frames.
        assert_eq!(report.gather.tree_3d.node_count(), 13);
    }

    #[test]
    fn worst_case_merged_tree_grows_with_tasks() {
        let job = EmulatedJob::new(small_cluster(), 128)
            .with_shape(TraceShape::worst_case(10, 128))
            .with_tree_depth(3);
        let report = job.run().unwrap();
        assert_eq!(report.gather.classes.len(), 128);
        assert!(report.gather.tree_3d.node_count() > 128);
    }

    #[test]
    fn the_emulator_passes_the_whole_scenario_catalogue() {
        // The emulator's known-answer mode: every catalogued fault — including the
        // degraded variants — must be diagnosed under the dense representation too
        // (the scenarios' own suite exercises the hierarchical one).
        let job = EmulatedJob::new(small_cluster(), 512)
            .with_representation(Representation::GlobalBitVector);
        let scenarios = appsim::scenario::catalogue(512, appsim::FrameVocabulary::BlueGeneL);
        assert!(scenarios.len() >= 8);
        for scenario in &scenarios {
            let run = job.run_scenario(scenario).expect("scenario runs");
            assert!(
                run.verdict.passed(),
                "emulated scenario {} failed:\n{}",
                scenario.name,
                run.verdict
            );
        }
    }

    #[test]
    fn stream_scenario_watches_the_fault_develop() {
        let job = EmulatedJob::new(small_cluster(), 256).with_samples_per_task(2);
        let scenarios = appsim::scenario::catalogue(256, appsim::FrameVocabulary::Linux);
        let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
        let reports = job
            .stream_scenario(ring, appsim::FrameVocabulary::Linux, 2, 2)
            .expect("the stream advances");
        assert_eq!(reports.len(), 4);
        for report in &reports[..2] {
            assert!(
                report.verdict.passed(),
                "pre-fault wave: {}",
                report.verdict
            );
            assert_eq!(report.classes, 1);
        }
        for report in &reports[2..] {
            assert!(
                report.verdict.passed(),
                "post-fault wave: {}",
                report.verdict
            );
            assert!(report.classes >= 3);
        }
        // The leaf ingress column is populated on every wave.
        assert!(reports.iter().all(|r| r.packet_bytes > 0));
    }

    #[test]
    fn run_scenario_honors_the_jobs_pinned_topology() {
        // The scenario must execute under the emulator's configured overlay, not
        // a planner pick: pin an unusual shape and check it is what actually ran.
        let job = EmulatedJob::new(small_cluster(), 256).with_topology(TreeShape::two_deep(16, 4));
        let scenarios = appsim::scenario::catalogue(256, appsim::FrameVocabulary::Linux);
        let ring = scenarios.iter().find(|s| s.name == "ring_hang").unwrap();
        let run = job.run_scenario(ring).expect("scenario runs");
        assert_eq!(run.daemons, 16, "the pinned 16-daemon overlay must be used");
        assert!(run.verdict.passed(), "{}", run.verdict);
    }
}
