//! One regenerator function per figure of the paper.

use appsim::{FrameVocabulary, RingHangApp};
use launch::{
    BglCiodLauncher, CiodPatchLevel, LaunchMonLauncher, Launcher, RemoteShell, RshLauncher,
};
use machine::cluster::{BglMode, Cluster};
use machine::placement::PlacementPlan;
use simkit::stats::SeriesTable;
use stackwalk::sampler::{BinaryPlacement, SamplingConfig, SamplingCostModel};
use stat_core::prelude::*;
use tbon::topology::TreeShape;

/// Figure 1: the 3D trace/space/time call-graph prefix tree of the 1,024-task ring
/// hang, rendered as DOT.  Returns the DOT text plus a one-paragraph summary of the
/// behaviour classes it contains.
pub fn fig01_prefix_tree(tasks: u64) -> (String, String) {
    let app = RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
    let session = Session::builder(Cluster::bluegene_l(BglMode::CoProcessor))
        .representation(Representation::HierarchicalTaskList)
        .samples_per_task(3)
        .build();
    let result = session.attach(&app).expect("the session merges cleanly");
    let dot = result.gather.to_dot();
    let mut summary = String::new();
    summary.push_str(&format!(
        "{} tasks merged into {} behaviour classes over {} daemons\n",
        tasks,
        result.gather.classes.len(),
        result.daemons
    ));
    for class in &result.gather.classes {
        summary.push_str(&format!(
            "  {}  <- {}\n",
            class.tasks_string(),
            class.path_string(&result.gather.frames)
        ));
    }
    (dot, summary)
}

/// Figure 2: STAT startup time on Atlas, LaunchMON versus MRNet's rsh-based spawner,
/// over a flat 1-to-N topology.
pub fn fig02_startup_atlas() -> SeriesTable {
    let atlas = Cluster::atlas();
    let mut table = SeriesTable::new(
        "Figure 2: STAT startup time on Atlas (flat topology)",
        "daemons",
        "seconds",
    );
    let rsh = RshLauncher::new(RemoteShell::Rsh);
    let launchmon = LaunchMonLauncher::new();
    for daemons in [4u32, 8, 16, 32, 64, 128, 256, 512] {
        let tasks = daemons as u64 * atlas.tasks_per_daemon() as u64;
        let spec = TreeShape::flat(daemons);
        let rsh_est = rsh.startup(&atlas, tasks, &spec);
        // The rsh spawner stops working at 512 daemons; the paper extrapolates its
        // linear trend, so we plot the projected time but note the failure.
        table.push("MRNet rsh", daemons as u64, rsh_est.total().as_secs());
        if !rsh_est.succeeded() {
            table.note(format!(
                "MRNet rsh failed outright at {daemons} daemons (paper: consistent failure at 512); \
                 the plotted value is the projected serial cost"
            ));
        }
        let lm_est = launchmon.startup(&atlas, tasks, &spec);
        table.push("LaunchMON", daemons as u64, lm_est.total().as_secs());
    }
    if let Some(t) = table.value_at("LaunchMON", 512) {
        table.note(format!(
            "LaunchMON launches 512 daemons in {t:.1} s (paper: 5.6 s)"
        ));
    }
    table
}

/// Figure 3: STAT startup time on BG/L for several topologies and modes, before and
/// after the IBM resource-manager patches.
pub fn fig03_startup_bgl() -> SeriesTable {
    let mut table = SeriesTable::new("Figure 3: STAT startup time on BG/L", "tasks", "seconds");
    let node_counts: [u64; 8] = [1_024, 2_048, 4_096, 8_192, 16_384, 32_768, 65_536, 106_496];
    for &mode in &[BglMode::CoProcessor, BglMode::VirtualNode] {
        let cluster = Cluster::bluegene_l(mode);
        for &depth in &[2u32, 3] {
            for &patch in &[CiodPatchLevel::Unpatched, CiodPatchLevel::Patched] {
                let launcher = BglCiodLauncher::new(patch);
                let series = format!("{depth}-deep {} {}", mode.label(), patch.label());
                for &nodes in &node_counts {
                    let tasks = nodes * mode.tasks_per_compute_node() as u64;
                    let plan = PlacementPlan::for_job(&cluster, tasks);
                    let spec = TreeShape::for_placement(&plan, depth);
                    let est = launcher.startup(&cluster, tasks, &spec);
                    if est.succeeded() {
                        table.push(series.clone(), tasks, est.total().as_secs());
                    } else {
                        table.note(format!(
                            "{series}: startup hang at {tasks} tasks (unpatched resource manager)"
                        ));
                    }
                }
            }
        }
    }
    // The headline comparisons the paper calls out.
    let co_tasks = 106_496;
    if let (Some(before), Some(after)) = (
        table.value_at("2-deep CO unpatched", co_tasks),
        table.value_at("2-deep CO patched", co_tasks),
    ) {
        table.note(format!(
            "IBM patches at 104K tasks (2-deep CO): {before:.0} s -> {after:.0} s ({:.1}x, paper: >2x)",
            before / after
        ));
    }
    table
}

fn merge_figure(
    title: &str,
    cluster_modes: &[(Cluster, &str)],
    scales_of: &dyn Fn(&Cluster) -> Vec<u64>,
    representation: Representation,
    depths: &[u32],
) -> SeriesTable {
    let mut table = SeriesTable::new(title, "tasks", "seconds");
    for (cluster, mode_label) in cluster_modes {
        let estimator = PhaseEstimator::new(cluster.clone(), representation);
        for &depth in depths {
            let series = if mode_label.is_empty() {
                format!("{depth}-deep")
            } else {
                format!("{depth}-deep {}", mode_label)
            };
            for tasks in scales_of(cluster) {
                let est = estimator.merge_estimate(tasks, depth);
                match est.failed {
                    None => table.push(series.clone(), tasks, est.cost.critical_path.as_secs()),
                    Some(reason) => table.note(format!("{series} at {tasks} tasks: {reason}")),
                }
            }
        }
    }
    table
}

/// Figure 4: merge time on Atlas with the original (global bit vector)
/// representation, for the three topology families.
pub fn fig04_merge_atlas() -> SeriesTable {
    merge_figure(
        "Figure 4: STAT merge time on Atlas (original bit vector)",
        &[(Cluster::atlas(), "")],
        &|c| {
            c.figure_scales()
                .into_iter()
                .filter(|&t| t <= 4_096)
                .collect()
        },
        Representation::GlobalBitVector,
        &[1, 2, 3],
    )
}

/// Figure 5: merge time on BG/L with the original representation; the 1-deep tree
/// fails past 256 I/O nodes and the deeper trees still scale linearly because every
/// edge label is a job-wide bit vector.
pub fn fig05_merge_bgl() -> SeriesTable {
    let mut table = merge_figure(
        "Figure 5: STAT merge time on BG/L (original bit vector)",
        &[
            (Cluster::bluegene_l(BglMode::CoProcessor), "CO"),
            (Cluster::bluegene_l(BglMode::VirtualNode), "VN"),
        ],
        &|c| c.figure_scales(),
        Representation::GlobalBitVector,
        &[1, 2, 3],
    );
    for kind in ["2-deep CO", "2-deep VN"] {
        if let Some(slope) = table.loglog_slope(kind) {
            table.note(format!(
                "{kind}: log-log slope {slope:.2} (≈1 means the linear scaling the paper observed)"
            ));
        }
    }
    table
}

/// Figure 6: the didactic 4-task / 2-daemon bit-vector example, as a table of bytes
/// rather than a drawing: what each daemon stores and sends under each
/// representation, and what the remap produces.
pub fn fig06_bitvector_demo() -> SeriesTable {
    use stat_core::taskset::{DenseBitVector, SubtreeTaskList, TaskSetOps};
    let mut table = SeriesTable::new(
        "Figure 6: original vs optimized task-set representation (4 tasks, 2 daemons)",
        "daemon",
        "bits per edge label (and useful bits among them)",
    );
    // Daemon 0 debugs ranks {0, 2}; daemon 1 debugs ranks {1, 3} (Figure 6's layout).
    for daemon in 0..2u64 {
        let mut original = DenseBitVector::empty(4);
        let mut optimized = SubtreeTaskList::empty(2);
        for local in 0..2u64 {
            let rank = daemon + 2 * local;
            original.insert(rank);
            optimized.insert(local);
        }
        table.push("original bits stored", daemon, original.width() as f64);
        table.push("original bits that matter", daemon, original.count() as f64);
        table.push("optimized bits stored", daemon, optimized.width() as f64);
        table.push(
            "optimized bits that matter",
            daemon,
            optimized.count() as f64,
        );
    }
    table.note(
        "original: every daemon stores one bit per task of the whole job (white boxes in \
         the paper's Figure 6 are wasted bits)"
            .to_string(),
    );
    table.note(
        "optimized: each daemon stores bits only for its own tasks; the front end remaps \
         concatenated positions [d0t0,d0t1,d1t0,d1t1] back to MPI ranks [0,2,1,3]"
            .to_string(),
    );
    table
}

/// Figure 7: merge time on BG/L with the optimised (hierarchical) representation
/// versus the original, plus the remap cost called out in Section V-C.
pub fn fig07_merge_optimized() -> SeriesTable {
    let mut table = SeriesTable::new(
        "Figure 7: optimized vs original bit vector merge time on BG/L (2-deep)",
        "tasks",
        "seconds",
    );
    for &mode in &[BglMode::CoProcessor, BglMode::VirtualNode] {
        let cluster = Cluster::bluegene_l(mode);
        for (representation, label) in [
            (Representation::GlobalBitVector, "original"),
            (Representation::HierarchicalTaskList, "optimized"),
        ] {
            let estimator = PhaseEstimator::new(cluster.clone(), representation);
            let series = format!("{label} {}", mode.label());
            for tasks in cluster.figure_scales() {
                let est = estimator.merge_estimate(tasks, 2);
                if est.failed.is_none() {
                    table.push(series.clone(), tasks, est.cost.critical_path.as_secs());
                }
            }
        }
    }
    for series in ["original VN", "optimized VN"] {
        if let Some(slope) = table.loglog_slope(series) {
            table.note(format!("{series}: log-log slope {slope:.2}"));
        }
    }
    // Remap cost: the model's estimate (`benches/taskset.rs` times the real one).
    let estimator = PhaseEstimator::new(
        Cluster::bluegene_l(BglMode::VirtualNode),
        Representation::HierarchicalTaskList,
    );
    table.note(format!(
        "remap estimate at 208K tasks: {:.2} s (paper: 0.66 s)",
        estimator.remap_estimate(208_000).as_secs()
    ));
    table
}

/// Figure 8: sampling time on Atlas with a flat topology and binaries on NFS, before
/// the OS update (the configuration the paper first measured).
pub fn fig08_sampling_atlas() -> SeriesTable {
    let mut table = SeriesTable::new(
        "Figure 8: STAT sampling time on Atlas (binaries on NFS, pre-OS-update)",
        "tasks",
        "seconds",
    );
    let cfg = SamplingConfig {
        pre_os_update: true,
        ..SamplingConfig::default()
    };
    let model = SamplingCostModel::new(Cluster::atlas()).with_config(cfg);
    for tasks in [64u64, 128, 256, 512, 1_024, 2_048, 4_096] {
        let est = model.estimate(tasks, BinaryPlacement::NfsHome, 42 + tasks);
        table.push("NFS (flat 1-to-N)", tasks, est.total.as_secs());
    }
    if let Some(slope) = table.loglog_slope("NFS (flat 1-to-N)") {
        table.note(format!(
            "log-log slope {slope:.2}: slightly worse than linear once the file server saturates"
        ));
    }
    table
}

/// Figure 9: sampling time on BG/L up to 212,992 tasks, with the run-to-run
/// variation the paper observed between nominally identical configurations.
pub fn fig09_sampling_bgl() -> SeriesTable {
    let mut table = SeriesTable::new("Figure 9: STAT sampling time on BG/L", "tasks", "seconds");
    for &mode in &[BglMode::CoProcessor, BglMode::VirtualNode] {
        let cluster = Cluster::bluegene_l(mode);
        let model = SamplingCostModel::new(cluster.clone());
        // The paper runs each topology as a separate job; the topology does not change
        // what the daemons do locally, but each run sees different file-server load,
        // which is where the >20% (occasionally 2x) spread comes from.  Different
        // seeds per series model exactly that.
        for (depth, seed) in [(2u32, 11u64), (3, 1215)] {
            let series = format!("{depth}-deep {}", mode.label());
            for tasks in cluster.figure_scales() {
                let est = model.estimate(tasks, BinaryPlacement::NfsHome, seed ^ tasks);
                table.push(series.clone(), tasks, est.total.as_secs());
            }
        }
    }
    let vn2 = table.value_at("2-deep VN", 212_992);
    let vn3 = table.value_at("3-deep VN", 212_992);
    if let (Some(a), Some(b)) = (vn2, vn3) {
        table.note(format!(
            "two nominally identical VN runs at 212,992 tasks differ by {:.2}x (paper saw >2x)",
            a.max(b) / a.min(b)
        ));
    }
    table
}

/// Figure 10: sampling time on Atlas with the SBRS prototype: NFS vs Lustre vs
/// binaries relocated to RAM disks, plus the measured relocation overhead.
pub fn fig10_sampling_sbrs() -> SeriesTable {
    let atlas = Cluster::atlas();
    let mut table = SeriesTable::new(
        "Figure 10: STAT sampling time on Atlas with the binary relocation service",
        "tasks",
        "seconds",
    );
    let model = SamplingCostModel::new(atlas.clone());
    for tasks in [64u64, 128, 256, 512, 1_024] {
        for placement in [
            BinaryPlacement::NfsHome,
            BinaryPlacement::LustreScratch,
            BinaryPlacement::RelocatedRamDisk,
        ] {
            let est = model.estimate(tasks, placement, 7 + tasks);
            table.push(placement.label(), tasks, est.total.as_secs());
        }
    }
    // The SBRS overhead itself, on the paper's exact configuration.
    let service = sbrs::RelocationService::new(atlas.clone());
    let two_files = vec![
        stackwalk::symtab::BinaryImage::new("/g/g0/user/ring_test", 10 * 1024),
        stackwalk::symtab::BinaryImage::new("/g/g0/user/lib/libmpi.so", 4 * 1024 * 1024),
    ];
    let plan = sbrs::RelocationPlan::for_working_set(&atlas, &two_files);
    let outcome = service.execute(&plan, 128);
    table.note(format!(
        "SBRS relocation of 10 KB + 4 MB to 128 nodes: {:.3} s (paper: 0.088 s)",
        outcome.relocation_overhead().as_secs()
    ));
    if let Some(g) = table.growth_factor("SBRS (RAM disk)") {
        table.note(format!(
            "relocated sampling grows only {g:.2}x from 64 to 1,024 tasks (paper: constant ≈2 s)"
        ));
    }
    table
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure_1_reproduces_the_ring_hang_classes() {
        let (dot, summary) = fig01_prefix_tree(256);
        assert!(dot.contains("do_SendOrStall"));
        assert!(summary.contains("3 behaviour classes"));
    }

    #[test]
    fn figure_2_shows_the_launchmon_win() {
        let table = fig02_startup_atlas();
        let rsh = table.value_at("MRNet rsh", 256).unwrap();
        let lm = table.value_at("LaunchMON", 256).unwrap();
        assert!(rsh / lm > 5.0);
        assert!(table
            .notes()
            .iter()
            .any(|n| n.contains("failed outright at 512")));
    }

    #[test]
    fn figure_4_and_5_shapes() {
        let atlas = fig04_merge_atlas();
        // 1-deep merge at 4,096 tasks stays under a second on Atlas (paper: <0.5 s).
        assert!(atlas.value_at("1-deep", 4_096).unwrap() < 1.0);
        let bgl = fig05_merge_bgl();
        // The 1-deep series stops before the largest scales (it fails at 256 daemons).
        assert!(bgl.value_at("1-deep CO", 106_496).is_none());
        assert!(bgl.value_at("2-deep CO", 106_496).is_some());
    }

    #[test]
    fn figure_7_optimized_beats_original_at_scale() {
        let table = fig07_merge_optimized();
        let orig = table.value_at("original VN", 212_992).unwrap();
        let opt = table.value_at("optimized VN", 212_992).unwrap();
        assert!(
            orig / opt > 3.0,
            "expected a large gap, got {orig} vs {opt}"
        );
    }

    #[test]
    fn figure_10_relocated_sampling_is_flat() {
        let table = fig10_sampling_sbrs();
        let g = table.growth_factor("SBRS (RAM disk)").unwrap();
        assert!(g < 1.6);
        let nfs = table.growth_factor("NFS").unwrap();
        assert!(nfs > 2.0);
    }
}
