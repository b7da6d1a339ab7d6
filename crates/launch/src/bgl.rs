//! The BG/L system-software launcher (CIOD / mpirun path).
//!
//! On BG/L, users cannot log into the I/O nodes, so the tool daemons are started by
//! the system software alongside the job.  The prototype STAT additionally only
//! supported debugging applications *launched under the tool's control*, so Figure 3's
//! startup time includes launching the application itself.  The paper attributes most
//! of the time to the system software: partition boot and job setup, and above all
//! generation and distribution of the MPIR process table, which the unpatched
//! resource manager packed with `strcat` (quadratic) into undersized buffers —
//! causing a hang at 208K processes.  IBM's patches (larger buffers, pointer-bump
//! packing) recovered more than a 2× startup improvement at 104K tasks.
//!
//! MRNet's communication processes are still launched by the MRNet remote-shell
//! spawner onto the login nodes, which is why even the BG/L startup model keeps a
//! serial per-comm-process term.

use machine::cluster::{Cluster, ClusterKind};
use machine::placement::CommProcessBudget;
use simkit::time::SimDuration;
use tbon::topology::TreeShape;

use crate::launcher::{Launcher, StartupEstimate, StartupFailure, StartupPhase};
use crate::rsh::RshLauncher;

/// Whether the IBM scalability patches are applied to the resource manager.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CiodPatchLevel {
    /// As first measured: `strcat` packing, small buffers, hang at 208K processes.
    Unpatched,
    /// After IBM's patches: linear packing, larger buffers, 208K runs succeed.
    Patched,
}

impl CiodPatchLevel {
    /// Label used in figure series.
    pub fn label(self) -> &'static str {
        match self {
            CiodPatchLevel::Unpatched => "unpatched",
            CiodPatchLevel::Patched => "patched",
        }
    }
}

/// The BG/L system-software launcher model.
#[derive(Clone, Debug)]
pub struct BglCiodLauncher {
    patch_level: CiodPatchLevel,
    /// Fixed partition-boot / job-setup cost (dominates small jobs; ≈90 s even at
    /// 1,024 compute nodes in Figure 3).
    partition_setup: SimDuration,
    /// Per-task cost of launching the application binary onto compute nodes.
    app_launch_per_task: SimDuration,
    /// Per-daemon cost of CIOD spawning the tool daemon on each I/O node.
    daemon_spawn_per_io_node: SimDuration,
    /// Per-comm-process cost of the MRNet spawner on the login nodes.
    comm_spawn: SimDuration,
    /// Per-connection cost when wiring the overlay.
    per_connect: SimDuration,
    /// Task count at which the unpatched resource manager hangs.
    unpatched_hang_threshold: u64,
}

impl BglCiodLauncher {
    /// A launcher at the given patch level with the default calibration.
    pub fn new(patch_level: CiodPatchLevel) -> Self {
        BglCiodLauncher {
            patch_level,
            partition_setup: SimDuration::from_secs(98.0),
            app_launch_per_task: SimDuration::from_millis(2.5),
            daemon_spawn_per_io_node: SimDuration::from_millis(9.0),
            comm_spawn: SimDuration::from_millis(260.0),
            per_connect: SimDuration::from_millis(6.0),
            unpatched_hang_threshold: 208_000,
        }
    }

    /// The patch level this launcher models.
    pub fn patch_level(&self) -> CiodPatchLevel {
        self.patch_level
    }

    /// The process-table generation cost for `tasks` entries.
    ///
    /// Unpatched: repeated `strcat` packing scans the growing buffer for every entry —
    /// quadratic work — plus the linear rendering cost.  Patched: linear packing only.
    pub fn process_table_cost(&self, tasks: u64) -> SimDuration {
        let linear = SimDuration::from_millis(200.0) + SimDuration::from_micros(120.0) * tasks;
        match self.patch_level {
            CiodPatchLevel::Patched => linear,
            CiodPatchLevel::Unpatched => {
                // ~40 ns of buffer scanning per (entry, prior entry) pair.
                let entries = tasks as f64;
                linear + SimDuration::from_nanos(40).mul_f64(entries * entries)
            }
        }
    }
}

impl Launcher for BglCiodLauncher {
    fn name(&self) -> &'static str {
        match self.patch_level {
            CiodPatchLevel::Unpatched => "BG/L system software (unpatched)",
            CiodPatchLevel::Patched => "BG/L system software (patched)",
        }
    }

    fn startup(&self, cluster: &Cluster, tasks: u64, topology: &TreeShape) -> StartupEstimate {
        let shape = cluster.job(tasks);
        let daemons = shape.daemons.min(topology.backends());
        let comm = topology.comm_processes();
        let mut est = StartupEstimate::new(daemons, comm);

        if !matches!(cluster.kind, ClusterKind::BlueGeneL { .. }) {
            est.fail(StartupFailure::TopologyUnplaceable {
                reason: format!(
                    "the CIOD launcher only exists on BG/L, not {}",
                    cluster.name
                ),
            });
            return est;
        }
        let budget = CommProcessBudget::for_cluster(cluster);
        if !budget.can_host(comm) {
            est.fail(StartupFailure::TopologyUnplaceable {
                reason: format!(
                    "{comm} communication processes requested but the login nodes host at most {}",
                    budget.max_processes
                ),
            });
            return est;
        }

        // The application is launched under the tool's control, so its cost counts.
        est.push(
            StartupPhase::ApplicationLaunch,
            self.app_launch_per_task * shape.tasks,
        );
        // System software: partition/job setup plus process-table generation and
        // distribution to the front end.
        est.push(
            StartupPhase::SystemSoftware,
            self.partition_setup + self.process_table_cost(shape.tasks),
        );
        // CIOD spawns one daemon per I/O node; the spawns proceed in parallel across
        // I/O nodes but the control traffic serialises per rack, giving a mild linear
        // term in the daemon count.
        est.push(
            StartupPhase::DaemonLaunch,
            self.daemon_spawn_per_io_node * daemons as u64,
        );
        // MRNet still launches the communication processes serially on login nodes.
        est.push(
            StartupPhase::CommProcessLaunch,
            self.comm_spawn * comm as u64,
        );
        est.push(
            StartupPhase::NetworkConnect,
            RshLauncher::connect_time(topology, self.per_connect),
        );

        if self.patch_level == CiodPatchLevel::Unpatched
            && shape.tasks >= self.unpatched_hang_threshold
        {
            // "...the BG/L resource manager also suffered from a scalability
            // correctness issue and caused an apparent run time failure (hang) at
            // 208K processes."
            est.fail(StartupFailure::ResourceManagerHang {
                at_tasks: shape.tasks,
            });
        }
        est
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::cluster::BglMode;
    use machine::placement::PlacementPlan;

    fn bgl_spec(cluster: &Cluster, tasks: u64, depth: u32) -> TreeShape {
        let plan = PlacementPlan::for_job(cluster, tasks);
        TreeShape::for_placement(&plan, depth)
    }

    #[test]
    fn startup_exceeds_100_seconds_even_at_1024_nodes() {
        let cluster = Cluster::bluegene_l(BglMode::CoProcessor);
        let launcher = BglCiodLauncher::new(CiodPatchLevel::Unpatched);
        let spec = bgl_spec(&cluster, 1_024, 2);
        let est = launcher.startup(&cluster, 1_024, &spec);
        assert!(est.succeeded());
        assert!(
            est.total().as_secs() > 100.0,
            "paper: >100 s at 1,024 compute nodes; got {}",
            est.total().as_secs()
        );
    }

    #[test]
    fn system_software_dominates_at_64k_virtual_node() {
        // "At 64K compute nodes in virtual node mode, the system software accounts
        // for over 86% of the startup time."
        let cluster = Cluster::bluegene_l(BglMode::VirtualNode);
        let launcher = BglCiodLauncher::new(CiodPatchLevel::Unpatched);
        let tasks = 65_536 * 2;
        let spec = bgl_spec(&cluster, tasks, 2);
        let est = launcher.startup(&cluster, tasks, &spec);
        let system = est.phase_fraction(StartupPhase::SystemSoftware)
            + est.phase_fraction(StartupPhase::ApplicationLaunch);
        assert!(
            system > 0.80,
            "system software + app launch should dominate, got {system}"
        );
    }

    #[test]
    fn unpatched_hangs_at_208k_processes() {
        let cluster = Cluster::bluegene_l(BglMode::VirtualNode);
        let unpatched = BglCiodLauncher::new(CiodPatchLevel::Unpatched);
        let patched = BglCiodLauncher::new(CiodPatchLevel::Patched);
        let spec = bgl_spec(&cluster, 212_992, 2);
        let bad = unpatched.startup(&cluster, 212_992, &spec);
        assert!(matches!(
            bad.failure,
            Some(StartupFailure::ResourceManagerHang { .. })
        ));
        let good = patched.startup(&cluster, 212_992, &spec);
        assert!(good.succeeded());
    }

    #[test]
    fn patches_give_better_than_2x_at_104k() {
        // "The drops in startup time ... show the performance improvement, with more
        // than a two fold speedup at 104K processes in the 2-deep CO case."
        let cluster = Cluster::bluegene_l(BglMode::CoProcessor);
        let tasks = 106_496;
        let spec = bgl_spec(&cluster, tasks, 2);
        let before = BglCiodLauncher::new(CiodPatchLevel::Unpatched)
            .startup(&cluster, tasks, &spec)
            .total()
            .as_secs();
        let after = BglCiodLauncher::new(CiodPatchLevel::Patched)
            .startup(&cluster, tasks, &spec)
            .total()
            .as_secs();
        assert!(
            before / after > 2.0,
            "expected >2x improvement, got {before:.1}s -> {after:.1}s"
        );
    }

    #[test]
    fn startup_grows_linearly_after_the_fixed_setup() {
        let cluster = Cluster::bluegene_l(BglMode::CoProcessor);
        let launcher = BglCiodLauncher::new(CiodPatchLevel::Patched);
        let t8k = launcher
            .startup(&cluster, 8_192, &bgl_spec(&cluster, 8_192, 2))
            .total()
            .as_secs();
        let t64k = launcher
            .startup(&cluster, 65_536, &bgl_spec(&cluster, 65_536, 2))
            .total()
            .as_secs();
        assert!(t64k > t8k, "bigger jobs take longer");
        // Subtracting the fixed setup, the remainder should be close to linear (8x).
        let fixed = 98.0;
        let growth = (t64k - fixed) / (t8k - fixed);
        assert!((4.0..12.0).contains(&growth), "growth {growth}");
    }

    #[test]
    fn rejects_non_bgl_clusters() {
        let atlas = Cluster::atlas();
        let launcher = BglCiodLauncher::new(CiodPatchLevel::Patched);
        let est = launcher.startup(&atlas, 1_024, &TreeShape::flat(128));
        assert!(!est.succeeded());
    }

    /// Recorded at the commit before the polynomial was written out in place of
    /// `simkit`'s `LinearCost` / `QuadraticCost`.
    #[test]
    fn process_table_cost_at_208k_is_pinned_to_the_pre_refactor_values() {
        let at = |level| {
            BglCiodLauncher::new(level)
                .process_table_cost(212_992)
                .as_nanos()
        };
        assert_eq!(at(CiodPatchLevel::Patched), 25_759_040_000);
        assert_eq!(at(CiodPatchLevel::Unpatched), 1_840_382_722_560);
    }

    #[test]
    fn process_table_cost_is_quadratic_only_when_unpatched() {
        let unpatched = BglCiodLauncher::new(CiodPatchLevel::Unpatched);
        let patched = BglCiodLauncher::new(CiodPatchLevel::Patched);
        let small = 10_000u64;
        let large = 100_000u64;
        let up_growth = unpatched.process_table_cost(large).as_secs()
            / unpatched.process_table_cost(small).as_secs();
        let p_growth = patched.process_table_cost(large).as_secs()
            / patched.process_table_cost(small).as_secs();
        assert!(
            up_growth > 20.0,
            "quadratic growth expected, got {up_growth}"
        );
        assert!(p_growth < 12.0, "linear growth expected, got {p_growth}");
    }
}
