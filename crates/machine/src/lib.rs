//! # machine — platform models for the STAT reproduction
//!
//! The paper evaluates STAT on two machines:
//!
//! * **Atlas** — an 1,152-node Linux cluster at LLNL.  Each node has four dual-core
//!   2.4 GHz Opterons (8 cores), nodes are connected with DDR Infiniband, and home
//!   directories live on NFS (with a Lustre scratch file system also available).
//!   One STAT daemon runs per compute node and debugs the 8 MPI tasks on that node.
//!   MRNet communication processes get their own allocation of compute nodes.
//!
//! * **BlueGene/L** — the 104-rack LLNL installation: 106,496 compute nodes (dual
//!   700 MHz PowerPC 440), one dedicated I/O node per 64 compute nodes (1,664 I/O
//!   nodes total), and 14 login nodes (2× 1.6 GHz Power5 each).  Tool daemons must run
//!   on the I/O nodes; in *co-processor* mode a daemon serves 64 MPI tasks, in
//!   *virtual node* mode 128.  Communication processes can only be placed on the login
//!   nodes, which caps usable TBON fan-in.
//!
//! This crate models both machines as data — node counts, placement rules,
//! network links and shared-file-system queueing servers — so that the launcher,
//! sampler and TBON models in the other crates can be written once and parameterised
//! by a [`cluster::Cluster`] value.  Nothing here executes "for real": the real
//! algorithmic work (prefix trees, task sets, filters) lives in `stat-core`.

#![warn(rust_2018_idioms)]

pub mod cluster;
pub mod filesystem;
pub mod network;
pub mod placement;

pub use cluster::{BglMode, Cluster, ClusterKind};
pub use filesystem::{FileAccessKind, FileSystem, FileSystemKind, MountTable};
pub use network::{Interconnect, LinkClass};
pub use placement::{CommProcessBudget, PlacementPlan};
