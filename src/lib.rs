//! # stat-repro — workspace umbrella for the STAT 208K reproduction
//!
//! This crate exists to host the runnable examples (`examples/`) and the cross-crate
//! integration tests (`tests/`).  It re-exports the workspace crates so that examples
//! and downstream experiments can depend on a single name.
//!
//! See the individual crates for the substance:
//!
//! * [`stat_core`] — the Stack Trace Analysis Tool itself;
//! * [`tbon`] — the MRNet-style tree-based overlay network;
//! * [`appsim`] — the simulated MPI applications (including the paper's ring hang);
//! * [`stackwalk`] — stack traces, symbol tables and the sampling cost model;
//! * [`launch`] — rsh / LaunchMON / BG/L CIOD launcher models;
//! * [`sbrs`] — the Scalable Binary Relocation Service;
//! * [`machine`] — the Atlas and BlueGene/L machine models;
//! * [`simkit`] — virtual time, the seeded RNG and the result tables the models share.

#![warn(rust_2018_idioms)]

pub use appsim;
pub use launch;
pub use machine;
pub use sbrs;
pub use simkit;
pub use stackwalk;
pub use stat_core;
pub use tbon;
