//! # tbon — a tree-based overlay network (TBON), in the spirit of MRNet
//!
//! STAT's scalability rests on a tree-based overlay network: the front end talks to a
//! layer of communication processes, which talk to further layers, which talk to the
//! back-end daemons.  Data flowing up the tree passes through *filters* that aggregate
//! it, so the front end only ever sees one merged result no matter how many daemons
//! participate.  The original implementation is MRNet (Roth, Arnold & Miller, SC'03);
//! this crate is a from-scratch Rust workalike with the pieces STAT needs:
//!
//! * [`topology`] — arbitrary-depth [`TreeShape`]s (the paper's flat/1-deep,
//!   2-deep and 3-deep trees are shapes, not enum variants) and balanced-tree
//!   construction with structural validation;
//! * [`planner`] — cost-model-driven topology planning: enumerate candidate shapes
//!   for a cluster and job size, price them, rank them under placement constraints;
//! * [`packet`] — tagged, byte-serialised packets;
//! * [`filter`] — the filter trait plus simple built-in filters; STAT's merge filter
//!   lives in `stat-core` and plugs in through this trait;
//! * [`network`] — a real, threaded, channel-based in-process network that executes
//!   upward reductions through user filters (used by the examples, the integration
//!   tests and the real-execution benchmarks); reductions are the only traffic it
//!   carries — the one downward message of a session, the frame-dictionary
//!   broadcast, is priced by [`InProcessTbon::broadcast_link_bytes`];
//! * [`cost`] — the one payload model and the one pricing entry point for an upward
//!   reduction over a given machine and tree shape, used by the figure generators
//!   and the planner to model configurations with millions of endpoints;
//! * [`delta`] — the incremental path streaming sessions use: per-node resident
//!   state folded from per-wave `TreeDelta` packets instead of re-reducing every
//!   wave from scratch.

#![warn(rust_2018_idioms)]

pub mod cost;
pub mod delta;
pub mod fault;
pub mod filter;
pub mod network;
pub mod packet;
pub mod planner;
pub mod topology;

pub use cost::{price_reduction, Labels, ReductionCost, TreePayload};
pub use delta::{IncrementalTbon, ResidentState, StateFactory, WaveOutcome};
pub use fault::{CorruptingFilter, FaultTracker, FilterFault, FilterFaultKind};
pub use filter::{Filter, IdentityFilter, SumFilter};
pub use network::{ChannelInput, InProcessTbon, ReductionOutcome, TbonError};
pub use packet::{EndpointId, Packet, PacketTag};
pub use planner::{CandidateOrigin, PlanConstraint, PlannedTopology, TopologyPlanner};
pub use topology::{Topology, TreeNode, TreeNodeRole, TreeShape};
