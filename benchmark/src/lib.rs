//! # stat-benchmark — the repository's benchmark
//!
//! Four scale workloads drive the STAT reproduction through its public API
//! only.  An **untraced** run measures what a user of the tool sees
//! (end-to-end metrics); a **traced** run re-drives the same operation stage by
//! stage with an in-memory span around each call into a layer (per-layer
//! metrics).  Nothing under `crates/` is instrumented.  See `README.md` beside
//! this crate for the workloads, the metric table and how to run and compare.

#![warn(missing_docs)]
#![deny(unsafe_code)]

pub mod compare;
pub mod json;
pub mod metrics;
pub mod oneshot;
pub mod report;
pub mod stream;
pub mod suite;
pub mod trace;
pub mod workloads;

use std::time::Instant;

use stat_core::error::StatError;
use workloads::{Budget, RunResult, Scale, Workload};

/// Run one workload once.  `process_start` is when the process started: the
/// first of the repeated set-ups is measured from there.
pub fn run_workload(
    workload: Workload,
    scale: Scale,
    seed: u64,
    budget: Budget,
    traced: bool,
    process_start: Instant,
) -> Result<RunResult, StatError> {
    match oneshot::OneShot::new(workload, scale) {
        Some(one_shot) => one_shot.run(seed, budget, traced, process_start),
        None => stream::Stream::new(scale).run(seed, budget, traced, process_start),
    }
}
