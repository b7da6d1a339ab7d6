//! The cold-dictionary property: a job whose frames the negotiation never saw
//! is judged exactly as one whose frames it all saw.
//!
//! The frame hints every catalogue application hands the session are the
//! simulator's gift; a real job cannot list its frames ahead of time.  With no
//! hints the negotiated base is empty, so every daemon's table overflows and
//! its packets number and name every frame themselves: the merge filter matches
//! them by name, and the front end names the root's.  Every
//! catalogue scenario at 1,024 tasks, in both vocabularies, must then reach the
//! same verdict and the same classes (frame-name paths and rank sets) as the
//! negotiated run: through `contribute_all` at 1, 2 and 8 workers, through
//! `Session::run_scenario`, and wave by wave in a streamed ring hang.

use std::sync::Arc;

use appsim::scenario::{catalogue, Diagnosis, FaultScenario, GroundTruth};
use appsim::{Application, FaultSchedule, FrameVocabulary, WaveSource};
use machine::cluster::Cluster;
use stat_core::prelude::*;
use tbon::network::InProcessTbon;
use tbon::topology::Topology;

/// `app` with its frame hints withheld.
struct Cold(Arc<dyn Application>);

impl Application for Cold {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn num_tasks(&self) -> u64 {
        self.0.num_tasks()
    }
    fn threads_per_task(&self) -> u32 {
        self.0.threads_per_task()
    }
    fn call_path(&self, rank: u64, thread: u32, sample: u32) -> &[&'static str] {
        self.0.call_path(rank, thread, sample)
    }
    fn frame_hints(&self) -> Vec<&'static str> {
        Vec::new()
    }
}

/// A wave source whose every wave's application withholds its hints.
struct ColdSource(FaultSchedule);

impl WaveSource for ColdSource {
    fn name(&self) -> &str {
        self.0.name()
    }
    fn num_tasks(&self) -> u64 {
        self.0.num_tasks()
    }
    fn app_at(&self, wave: u32) -> Arc<dyn Application> {
        Arc::new(Cold(self.0.app_at(wave)))
    }
    fn truth_at(&self, wave: u32) -> &GroundTruth {
        self.0.truth_at(wave)
    }
}

/// 1,024 tasks on 16 nodes of 64 cores, under a planned topology.
fn builder() -> SessionBuilder {
    Session::builder(Cluster::test_cluster(16, 64))
        .plan_topology()
        .samples_per_task(3)
}

fn session() -> Session {
    builder().build()
}

/// `diagnosis` with its classes in frame-name order: a class's place in the
/// list follows the frame ids, which the two dictionaries assign differently.
fn by_name(mut diagnosis: Diagnosis) -> Diagnosis {
    diagnosis.classes.sort_by(|a, b| a.frames.cmp(&b.frames));
    diagnosis
}

/// The verdict (passed, and its text) and the diagnosis of `app`'s
/// contributions from `contribute_all` at `workers`, merged by the session.
fn through_contribute_all(
    scenario: &FaultScenario,
    app: &dyn Application,
    workers: usize,
) -> (bool, String, Diagnosis) {
    let session = session();
    let tasks = app.num_tasks();
    let shape = session.topology_for(tasks);
    let daemons = StatDaemon::partition(tasks, shape.backends());
    let net = InProcessTbon::new(Topology::build(shape)).with_workers(workers);
    let leaves = daemons
        .iter()
        .zip(net.topology().backends().iter().copied());
    let dict = FrameDictionary::negotiate(app.frame_hints());
    let strategy = session.representation().strategy();
    let samples = session.samples_per_task();
    let contributions = strategy
        .contribute_all(leaves.collect(), app, samples, &dict, &net)
        .expect("no daemon dies");
    if app.frame_hints().is_empty() {
        // Each daemon's 3D packet names the frames it walked, in either
        // representation.
        let named = |c: &DaemonContribution| {
            let body = &c.tree_3d.payload;
            let hier = decode_tree::<SubtreeTaskList>(body).map(|(_, frames)| frames);
            let frames = hier.or_else(|_| decode_tree::<DenseBitVector>(body).map(|(_, f)| f));
            frames.map_or(0, |frames| frames.records().count())
        };
        assert!(
            contributions.iter().all(|c| named(c) > 0),
            "the packets name the walked frames"
        );
    }
    let gather = session
        .merge(contributions, tasks, &dict)
        .expect("the gather merges");
    let diagnosis = diagnose(&gather, tasks, Vec::new());
    let verdict = scenario.truth.check(&scenario.name, &diagnosis);
    (verdict.passed(), verdict.to_string(), by_name(diagnosis))
}

#[test]
fn a_cold_dictionary_judges_every_catalogue_scenario_as_the_negotiated_one() {
    for vocab in [FrameVocabulary::Linux, FrameVocabulary::BlueGeneL] {
        let scenarios = catalogue(1_024, vocab);
        assert!(scenarios.len() >= 8, "the registry shrank");
        for scenario in &scenarios {
            let at = format!("{} ({vocab:?})", scenario.name);
            assert!(!scenario.app.frame_hints().is_empty(), "{at}: hinted");
            let cold_app = Cold(Arc::clone(&scenario.app));
            for workers in [1, 2, 8] {
                let warm = through_contribute_all(scenario, scenario.app.as_ref(), workers);
                let cold = through_contribute_all(scenario, &cold_app, workers);
                assert_eq!(cold, warm, "{at}, contribute_all at {workers} workers");
            }
            let cold_scenario = FaultScenario {
                app: Arc::new(Cold(Arc::clone(&scenario.app))),
                ..scenario.clone()
            };
            let run = |scenario: &FaultScenario| {
                let run = session().run_scenario(scenario).expect("the scenario runs");
                (
                    run.verdict.passed(),
                    run.verdict.to_string(),
                    by_name(run.diagnosis),
                )
            };
            assert_eq!(run(&cold_scenario), run(scenario), "{at}, run_scenario");
        }
    }
}

#[test]
fn a_cold_ring_hang_stream_judges_every_wave_as_the_negotiated_one() {
    let vocab = FrameVocabulary::BlueGeneL;
    let ring = catalogue(1_024, vocab)
        .into_iter()
        .find(|s| s.name == "ring_hang")
        .expect("the catalogue always carries ring_hang");
    let waves = |source: Box<dyn WaveSource>| {
        let mut stream = builder()
            .streaming(2)
            .open(source)
            .expect("the stream opens");
        (0..6)
            .map(|_| {
                let wave = stream.advance().expect("the wave advances");
                (wave.verdict.passed(), wave.classes, by_name(wave.diagnosis))
            })
            .collect::<Vec<_>>()
    };
    let schedule = || FaultSchedule::new(ring.clone(), vocab, 2);
    let warm = waves(Box::new(schedule()));
    assert!(warm.iter().all(|(passed, ..)| *passed), "{warm:?}");
    assert_eq!(waves(Box::new(ColdSource(schedule()))), warm);
}
