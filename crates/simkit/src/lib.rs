//! # simkit — virtual time, seeded randomness and result tables
//!
//! The STAT reproduction executes its *algorithms* (prefix-tree merging, task-set
//! algebra, filter reductions) for real, but the *environment* the original tool ran
//! in — a 104-rack BlueGene/L, an 1,152-node Infiniband cluster, NFS and Lustre file
//! servers, rsh daemons, resource managers — is modelled.  The models themselves live
//! with what they describe (`machine`, `launch`, `stackwalk`, `tbon::cost`); `simkit`
//! holds only the three things they all share:
//!
//! * [`time::SimDuration`] — spans of virtual time as integer nanoseconds, so that
//!   sums are associative and every operation saturates instead of wrapping;
//! * [`rng::DeterministicRng`] — the one seeded generator all jitter and every
//!   randomized campaign draws from, so a run is reproducible from the seed it prints;
//! * [`stats::SeriesTable`] — the scaling-curve table every figure generator emits.
//!
//! There is no event engine: the only queue the paper's figures need — daemons
//! serialising behind a shared file server — is a closed-form makespan owned by
//! `machine::filesystem`.
//!
//! ```
//! use simkit::prelude::*;
//!
//! let mut rng = DeterministicRng::new(42);
//! let per_daemon = SimDuration::from_millis(12.0).mul_f64(rng.jitter(0.2));
//! let mut table = SeriesTable::new("serialised parse", "daemons", "seconds");
//! for daemons in [64u64, 128, 256] {
//!     table.push("one server slot", daemons, (per_daemon * daemons).as_secs());
//! }
//! assert!(table.loglog_slope("one server slot").unwrap() > 0.95);
//! ```

#![warn(rust_2018_idioms)]

pub mod rng;
pub mod stats;
pub mod time;

/// Convenience re-exports used by nearly every consumer of the crate.
pub mod prelude {
    pub use crate::rng::DeterministicRng;
    pub use crate::stats::SeriesTable;
    pub use crate::time::SimDuration;
}

pub use prelude::*;
