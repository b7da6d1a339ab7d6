//! # launch — tool daemon launching and resource-manager integration
//!
//! Section IV of the paper is about a cost that is easy to overlook: getting the tool
//! itself started.  An interactive debugger that needs thirty minutes to launch its
//! daemons is useless, and at BG/L scale even "launch 1,664 daemons" is a parallel
//! computing problem.  The paper contrasts three launching paths:
//!
//! * **MRNet's built-in spawner** — remote shells (`rsh`/`ssh`) invoked one at a time
//!   from the front end.  Linear in the number of daemons, and on Atlas it failed
//!   outright at 512 daemons when using `rsh`.
//! * **LaunchMON** — a portable daemon-spawning infrastructure that asks the native
//!   resource manager to bulk-launch the daemons, an order of magnitude faster
//!   (512 daemons in 5.6 s on Atlas).
//! * **BG/L system software (CIOD)** — on BG/L users cannot log in to I/O nodes, so
//!   the system software launches the daemons; its process-table generation used
//!   `strcat` (quadratic in the table size) and small buffers, which made startup
//!   dominate total tool time (86 % at 64K tasks) and caused an outright hang at
//!   208K processes until IBM's patches landed.
//!
//! This crate models all three, plus a real [`proctable`] implementation whose naive
//! and indexed packing routines let the ablation benchmarks demonstrate the `strcat`
//! pathology on real data rather than taking the paper's word for it.

#![warn(rust_2018_idioms)]

pub mod bgl;
pub mod launcher;
pub mod launchmon;
pub mod proctable;
pub mod rsh;

pub use bgl::{BglCiodLauncher, CiodPatchLevel};
pub use launcher::{Launcher, StartupEstimate, StartupFailure, StartupPhase};
pub use launchmon::LaunchMonLauncher;
pub use proctable::{pack_indexed, pack_naive, ProcessTable, ProcessTableEntry};
pub use rsh::{RemoteShell, RshLauncher};
