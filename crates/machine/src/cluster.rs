//! Cluster descriptions: Atlas and the LLNL BlueGene/L.
//!
//! A [`Cluster`] is a declarative description of a machine: how many nodes of each
//! class it has, where application tasks run, where tool daemons are allowed to run,
//! how many tasks each daemon serves, which interconnect links connect the pieces,
//! and what the default file-system layout looks like.  Everything downstream — the
//! launcher models, the sampler, the TBON topology builder, the figure generators —
//! is parameterised by one of these values plus a job size.

use crate::filesystem::MountTable;
use crate::network::Interconnect;

/// BlueGene/L operating modes (Section III of the paper).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BglMode {
    /// One MPI task per compute node; the second core offloads communication.
    /// Each I/O-node daemon serves 64 tasks.
    CoProcessor,
    /// One MPI task per core (two per node).  Each daemon serves 128 tasks.
    VirtualNode,
}

impl BglMode {
    /// Tasks per compute node in this mode.
    pub fn tasks_per_compute_node(self) -> u32 {
        match self {
            BglMode::CoProcessor => 1,
            BglMode::VirtualNode => 2,
        }
    }

    /// Short label used in figure series names ("CO" / "VN"), matching the paper.
    pub fn label(self) -> &'static str {
        match self {
            BglMode::CoProcessor => "CO",
            BglMode::VirtualNode => "VN",
        }
    }
}

/// Which family of machine a cluster is.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ClusterKind {
    /// A commodity Linux cluster (Atlas): daemons co-located with tasks on compute
    /// nodes, launched via remote-shell or the resource manager.
    LinuxCluster,
    /// BlueGene/L: daemons restricted to dedicated I/O nodes, launched by the
    /// system software (CIOD); comm processes restricted to login nodes.
    BlueGeneL {
        /// Operating mode of the job.
        mode: BglMode,
    },
}

/// A complete machine description.
#[derive(Clone, Debug)]
pub struct Cluster {
    /// Human-readable machine name.
    pub name: &'static str,
    /// Machine family and mode.
    pub kind: ClusterKind,
    /// Number of compute nodes in the full machine.
    pub compute_nodes: u32,
    /// Cores per compute node.
    pub cores_per_compute: u16,
    /// Compute-node clock in GHz.
    pub compute_clock_ghz: f64,
    /// Memory per compute node in MiB.
    pub compute_memory_mib: u32,
    /// Number of dedicated I/O nodes (0 on clusters without them).
    pub io_nodes: u32,
    /// Compute nodes served by each I/O node (64 on LLNL's BG/L).
    pub compute_per_io: u32,
    /// I/O-node clock in GHz.
    pub io_clock_ghz: f64,
    /// Number of login/front-end nodes available for tool processes.
    pub login_nodes: u32,
    /// Cores per login node.
    pub cores_per_login: u16,
    /// Login-node clock in GHz.
    pub login_clock_ghz: f64,
    /// Interconnect model.
    pub interconnect: Interconnect,
    /// Default file-system layout.
    pub mounts: MountTable,
    /// Executable layout of the target application on this machine: (path, bytes)
    /// for the base executable and each shared library a daemon must parse.
    pub binary_working_set: Vec<(String, u64)>,
}

impl Cluster {
    /// The Atlas cluster: 1,152 nodes × 8 Opteron cores, DDR Infiniband, NFS homes.
    ///
    /// The application working set matches Section VI-B: a small (10 KB) test
    /// executable, a 4 MB MPI library, and a few supporting shared libraries that the
    /// OS update mentioned in the paper moved to faster (node-local) file systems.
    pub fn atlas() -> Self {
        let mut mounts = MountTable::llnl_default();
        mounts.add("/opt", crate::filesystem::FileSystemKind::LocalDisk);
        Cluster {
            name: "atlas",
            kind: ClusterKind::LinuxCluster,
            compute_nodes: 1_152,
            cores_per_compute: 8,
            compute_clock_ghz: 2.4,
            compute_memory_mib: 16_384,
            io_nodes: 0,
            compute_per_io: 0,
            io_clock_ghz: 0.0,
            login_nodes: 4,
            cores_per_login: 8,
            login_clock_ghz: 2.4,
            interconnect: Interconnect::atlas(),
            mounts,
            binary_working_set: vec![
                ("/g/g0/user/ring_test".to_string(), 10 * 1024),
                ("/g/g0/user/lib/libmpi.so".to_string(), 4 * 1024 * 1024),
                ("/g/g0/user/lib/libopen-rte.so".to_string(), 768 * 1024),
                ("/usr/lib64/libc.so.6".to_string(), 1_700 * 1024),
                ("/usr/lib64/libpthread.so.0".to_string(), 140 * 1024),
            ],
        }
    }

    /// The LLNL BlueGene/L: 106,496 compute nodes, 1,664 I/O nodes (1:64), 14 login
    /// nodes with two Power5 processors each.  Applications are statically linked, so
    /// a daemon's symbol-table working set is a single (large) executable.
    pub fn bluegene_l(mode: BglMode) -> Self {
        Cluster {
            name: "bgl",
            kind: ClusterKind::BlueGeneL { mode },
            compute_nodes: 106_496,
            cores_per_compute: 2,
            compute_clock_ghz: 0.7,
            compute_memory_mib: 512,
            io_nodes: 1_664,
            compute_per_io: 64,
            io_clock_ghz: 0.7,
            login_nodes: 14,
            cores_per_login: 2,
            login_clock_ghz: 1.6,
            interconnect: Interconnect::bluegene_l(),
            mounts: MountTable::llnl_default(),
            binary_working_set: vec![
                // One statically linked executable staged on NFS.
                ("/g/g0/user/ring_test_bgl".to_string(), 12 * 1024 * 1024),
            ],
        }
    }

    /// A small synthetic cluster for unit tests: `nodes` compute nodes with
    /// `cores` cores each, Atlas-style placement rules.
    pub fn test_cluster(nodes: u32, cores: u16) -> Self {
        let mut c = Cluster::atlas();
        c.name = "testcluster";
        c.compute_nodes = nodes;
        c.cores_per_compute = cores;
        c
    }

    /// Whether tool daemons run on dedicated I/O nodes (BG/L) rather than sharing
    /// compute nodes with the application (Atlas).
    pub fn daemons_on_io_nodes(&self) -> bool {
        matches!(self.kind, ClusterKind::BlueGeneL { .. })
    }

    /// MPI tasks per compute node for the machine's configuration.
    pub fn tasks_per_compute_node(&self) -> u32 {
        match self.kind {
            ClusterKind::LinuxCluster => self.cores_per_compute as u32,
            ClusterKind::BlueGeneL { mode } => mode.tasks_per_compute_node(),
        }
    }

    /// MPI tasks served by one tool daemon.
    ///
    /// Atlas: one daemon per compute node ⇒ 8 tasks.  BG/L: one daemon per I/O node ⇒
    /// 64 tasks in co-processor mode, 128 in virtual-node mode.
    pub fn tasks_per_daemon(&self) -> u32 {
        match self.kind {
            ClusterKind::LinuxCluster => self.tasks_per_compute_node(),
            ClusterKind::BlueGeneL { mode } => self.compute_per_io * mode.tasks_per_compute_node(),
        }
    }

    /// Largest job (in MPI tasks) the machine supports.
    pub fn max_tasks(&self) -> u64 {
        self.compute_nodes as u64 * self.tasks_per_compute_node() as u64
    }

    /// Number of compute nodes needed for a job of `tasks` MPI tasks.
    pub fn compute_nodes_for(&self, tasks: u64) -> u32 {
        let per = self.tasks_per_compute_node() as u64;
        tasks.div_ceil(per).min(self.compute_nodes as u64) as u32
    }

    /// Number of tool daemons needed for a job of `tasks` MPI tasks.
    pub fn daemons_for(&self, tasks: u64) -> u32 {
        let per = self.tasks_per_daemon() as u64;
        let daemons = tasks.div_ceil(per);
        let cap = match self.kind {
            ClusterKind::LinuxCluster => self.compute_nodes as u64,
            ClusterKind::BlueGeneL { .. } => self.io_nodes as u64,
        };
        daemons.min(cap) as u32
    }

    /// The slowdown factor (relative to a 2.4 GHz reference core) of the nodes that
    /// host tool daemons.  BG/L's 700 MHz I/O nodes process filter code noticeably
    /// slower than Atlas's Opterons; the merge-time figures reflect that.
    pub fn daemon_host_slowdown(&self) -> f64 {
        let clock = if self.daemons_on_io_nodes() {
            self.io_clock_ghz
        } else {
            self.compute_clock_ghz
        };
        if clock <= 0.0 {
            1.0
        } else {
            (2.4 / clock).max(0.1)
        }
    }

    /// Slowdown factor of the nodes hosting communication processes and the front end.
    pub fn login_host_slowdown(&self) -> f64 {
        if self.login_clock_ghz <= 0.0 {
            1.0
        } else {
            (2.4 / self.login_clock_ghz).max(0.1)
        }
    }

    /// The shape of one concrete job on this machine.
    pub fn job(&self, tasks: u64) -> JobShape {
        let tasks = tasks.min(self.max_tasks()).max(1);
        let compute_nodes = self.compute_nodes_for(tasks);
        let daemons = self.daemons_for(tasks);
        JobShape {
            tasks,
            compute_nodes,
            daemons,
            tasks_per_daemon: (tasks.div_ceil(daemons as u64)) as u32,
        }
    }

    /// The standard task-count sweep used by the paper's figures on this machine.
    pub fn figure_scales(&self) -> Vec<u64> {
        match self.kind {
            ClusterKind::LinuxCluster => vec![64, 128, 256, 512, 1024, 2048, 4096, 8192],
            ClusterKind::BlueGeneL { mode } => {
                let per_node = mode.tasks_per_compute_node() as u64;
                // 1K, 2K, ..., 104K compute nodes in powers of two, expressed as tasks.
                let node_counts = [
                    1_024u64, 2_048, 4_096, 8_192, 16_384, 32_768, 65_536, 106_496,
                ];
                node_counts.iter().map(|n| n * per_node).collect()
            }
        }
    }
}

/// The shape of one job: how many tasks, nodes and daemons it uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobShape {
    /// MPI tasks in the job.
    pub tasks: u64,
    /// Compute nodes the job occupies.
    pub compute_nodes: u32,
    /// Tool daemons needed to debug it.
    pub daemons: u32,
    /// Tasks served by each daemon (last daemon may serve fewer).
    pub tasks_per_daemon: u32,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atlas_shape_matches_paper() {
        let atlas = Cluster::atlas();
        assert_eq!(atlas.tasks_per_daemon(), 8);
        assert_eq!(atlas.max_tasks(), 1_152 * 8);
        // 4,096 tasks → 512 daemons (the Figure 2/8 endpoints).
        let job = atlas.job(4_096);
        assert_eq!(job.daemons, 512);
        assert_eq!(job.compute_nodes, 512);
        // 1,024 tasks → 128 daemons (Figure 10).
        assert_eq!(atlas.job(1_024).daemons, 128);
    }

    #[test]
    fn bgl_shape_matches_paper() {
        let co = Cluster::bluegene_l(BglMode::CoProcessor);
        assert_eq!(co.tasks_per_daemon(), 64);
        assert_eq!(co.max_tasks(), 106_496);
        let vn = Cluster::bluegene_l(BglMode::VirtualNode);
        assert_eq!(vn.tasks_per_daemon(), 128);
        // Full machine in VN mode: 212,992 tasks and 1,664 daemons — the paper's 208K.
        assert_eq!(vn.max_tasks(), 212_992);
        assert_eq!(vn.daemons_for(212_992), 1_664);
        assert_eq!(co.daemons_for(106_496), 1_664);
        // 64K compute nodes in VN mode = 131,072 tasks on 1,024 I/O nodes.
        assert_eq!(vn.daemons_for(131_072), 1_024);
    }

    #[test]
    fn job_clamps_to_machine_capacity() {
        let atlas = Cluster::atlas();
        let job = atlas.job(10_000_000);
        assert_eq!(job.tasks, atlas.max_tasks());
        assert_eq!(job.compute_nodes, 1_152);
        let tiny = atlas.job(0);
        assert_eq!(tiny.tasks, 1);
        assert_eq!(tiny.daemons, 1);
    }

    #[test]
    fn daemon_host_slowdowns_differ_between_machines() {
        let atlas = Cluster::atlas();
        let bgl = Cluster::bluegene_l(BglMode::CoProcessor);
        assert!(atlas.daemon_host_slowdown() < 1.01);
        assert!(bgl.daemon_host_slowdown() > 3.0);
        assert!(bgl.login_host_slowdown() > 1.0);
    }

    #[test]
    fn working_set_reflects_linking_style() {
        let atlas = Cluster::atlas();
        let bgl = Cluster::bluegene_l(BglMode::CoProcessor);
        assert!(
            atlas.binary_working_set.len() > 1,
            "dynamic linking on Atlas"
        );
        assert_eq!(bgl.binary_working_set.len(), 1, "static linking on BG/L");
        assert!(
            atlas
                .binary_working_set
                .iter()
                .map(|(_, b)| *b)
                .sum::<u64>()
                > 4 << 20
        );
    }

    #[test]
    fn figure_scales_reach_the_paper_endpoints() {
        let vn = Cluster::bluegene_l(BglMode::VirtualNode);
        let scales = vn.figure_scales();
        assert_eq!(*scales.last().unwrap(), 212_992);
        let atlas = Cluster::atlas();
        assert!(atlas.figure_scales().contains(&4_096));
    }

    #[test]
    fn mode_labels_match_paper_vocabulary() {
        assert_eq!(BglMode::CoProcessor.label(), "CO");
        assert_eq!(BglMode::VirtualNode.label(), "VN");
    }
}
