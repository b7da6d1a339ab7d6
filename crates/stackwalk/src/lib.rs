//! # stackwalk — stack traces, symbol tables and the sampling cost model
//!
//! STAT gathers its raw data through the Dyninst StackWalker API: a lightweight,
//! third-party (out-of-process) stack walker that each tool daemon uses to sample the
//! call stacks of the application processes on its node.  This crate provides the
//! Rust equivalent for the reproduction:
//!
//! * [`frame`] — interned stack frames and the frame table shared by every trace;
//! * [`dictionary`] — the session-global frame dictionary wire format v2
//!   negotiates at session setup, so packets carry u32 ids instead of names;
//! * [`trace`] — stack traces and per-task sample series (the "space" and "time"
//!   dimensions of STAT's 2D and 3D prefix trees);
//! * [`RankSet`] — a set of tasks by rank, as packed words or a list, whichever
//!   is smaller: what a behaviour class holds;
//! * [`symtab`] — the binary images whose symbol tables a daemon reads
//!   before it can symbolise its first trace;
//! * [`sampler`] — the real walker that converts an application's in-memory stack
//!   into an interned [`trace::StackTrace`], plus the environment cost model that
//!   reproduces the paper's Section VI findings: symbol-table parsing against shared
//!   file systems is what makes "node-local" sampling scale badly.

#![warn(rust_2018_idioms)]

pub mod dictionary;
pub mod frame;
mod ranks;
pub mod sampler;
pub mod symtab;
pub mod trace;

pub use dictionary::FrameDictionary;
pub use frame::{FrameId, FrameTable};
pub use ranks::RankSet;
pub use sampler::{SamplingConfig, SamplingCostModel, SamplingEstimate, Walker};
pub use symtab::BinaryImage;
pub use trace::{StackTrace, TaskSamples};
