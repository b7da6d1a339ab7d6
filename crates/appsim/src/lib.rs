//! # appsim — simulated MPI applications for the STAT reproduction
//!
//! STAT never looks inside an application's data; all it observes are call stacks.
//! That makes the application easy to substitute: anything that produces the right
//! *distribution of call paths over ranks and over time* exercises exactly the same
//! tool code paths as a real MPI job.  This crate provides those synthetic
//! applications:
//!
//! * [`ring`] — the paper's target application: an MPI ring test (Irecv from the
//!   previous rank, Isend to the next, Waitall, Barrier) with an injected bug that
//!   makes rank 1 hang before its send.  Its merged prefix tree is Figure 1.
//! * [`workloads`] — additional applications used by the wider test suite and the
//!   ablation benches: all-equivalent, multi-class compute, a deadlocked pair, a
//!   multithreaded variant for the Section VII threading projection, and the
//!   adversarial scenario workloads (shared-filesystem I/O storm, OS-noise jitter,
//!   collective mismatch, corrupted stacks).
//! * [`scenario`] — the fault-scenario catalogue: every workload bundled with an
//!   injected-fault description, a machine-checkable [`scenario::GroundTruth`] and
//!   a [`scenario::Verdict`] checker, so the test suite can assert that the tool
//!   *diagnoses* each fault instead of merely merging trees.
//! * [`streaming`] — wave-emitting sources for continuous sessions: a
//!   [`streaming::WaveSource`] hands out per-wave behaviour, and a
//!   [`streaming::FaultSchedule`] makes any catalogue fault first appear at
//!   wave *k*, so a hang can be watched *developing* mid-stream.
//! * [`app`] — the [`app::Application`] trait they all implement, plus helpers to
//!   gather [`stackwalk::TaskSamples`] from any application via the real walker.
//! * [`vocab`] — the frame vocabularies (Linux/Atlas vs. BG/L) so that traces look
//!   like the platform they were "collected" on, exactly as in Figure 1.

#![warn(rust_2018_idioms)]

pub mod app;
pub mod progress;
pub mod ring;
pub mod scenario;
pub mod streaming;
pub mod vocab;
pub mod workloads;

pub use app::{
    for_each_sampled_path, gather_samples, gather_samples_for_ranks, gather_samples_for_ranks_from,
    Application,
};
pub use progress::{CheckpointStormApp, IterativeSolverApp, StragglerApp};
pub use ring::RingHangApp;
pub use scenario::{
    catalogue, randomized_scenarios, Diagnosis, FaultScenario, GroundTruth, MidTreeCorruption,
    MidTreeFault, OverlayFault, Verdict,
};
pub use streaming::{healthy_truth, FaultSchedule, SteadySource, WaveSource};
pub use vocab::FrameVocabulary;
pub use workloads::{
    AllEquivalentApp, CollectiveMismatchApp, ComputeSpreadApp, CorruptedStackApp, DeadlockPairApp,
    IoStormApp, OsNoiseApp, RandomFaultApp, RandomFaultFlavor, ThreadedApp,
};
