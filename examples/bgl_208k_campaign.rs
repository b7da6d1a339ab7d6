//! Price a full debugging session at 208K tasks — the paper's headline scale — and
//! show how each of the three lessons changes the bill.
//!
//! Reproduces: the paper's title result — Sections IV (scalable startup), V
//! (hierarchical data structures) and VI (scalable access to static data) composed
//! into one 208K-task session, before vs. after the fixes.
//!
//! ```text
//! cargo run --release --example bgl_208k_campaign
//! ```
//!
//! For the full BlueGene/L in virtual-node mode (212,992 MPI tasks, 1,664 tool
//! daemons), this example prices every phase of a STAT session under the *original*
//! design (rsh-style launching where possible, job-wide bit vectors, binaries on NFS)
//! and under the *improved* design the paper arrives at (resource-manager launching
//! with the IBM patches, hierarchical task lists, SBRS-relocated binaries).

use launch::{BglCiodLauncher, CiodPatchLevel, Launcher};
use machine::cluster::{BglMode, Cluster};
use machine::placement::PlacementPlan;
use stackwalk::sampler::{BinaryPlacement, SamplingCostModel};
use stat_core::prelude::*;
use tbon::topology::TreeShape;

fn main() {
    let cluster = Cluster::bluegene_l(BglMode::VirtualNode);
    let tasks = cluster.max_tasks();
    let shape = cluster.job(tasks);
    println!(
        "BlueGene/L, virtual node mode: {} tasks on {} compute nodes, {} tool daemons\n",
        shape.tasks, shape.compute_nodes, shape.daemons
    );

    let plan = PlacementPlan::for_job(&cluster, tasks);
    let spec = TreeShape::for_placement(&plan, 2);

    // --- Startup ---------------------------------------------------------------
    println!(
        "== startup (2-deep tree, {} comm processes) ==",
        spec.comm_processes()
    );
    for patch in [CiodPatchLevel::Unpatched, CiodPatchLevel::Patched] {
        let launcher = BglCiodLauncher::new(patch);
        let est = launcher.startup(&cluster, tasks, &spec);
        match est.failure {
            Some(ref failure) => println!("  {:<40} FAILS: {failure:?}", launcher.name()),
            None => println!(
                "  {:<40} {:>8.1} s  (system software {:.0}%)",
                launcher.name(),
                est.total().as_secs(),
                100.0 * est.phase_fraction(launch::StartupPhase::SystemSoftware)
            ),
        }
    }

    // --- Sampling --------------------------------------------------------------
    println!("\n== stack-trace sampling (10 samples per task) ==");
    for (label, placement) in [
        ("binaries on NFS home directories", BinaryPlacement::NfsHome),
        (
            "binaries relocated by SBRS",
            BinaryPlacement::RelocatedRamDisk,
        ),
    ] {
        let est = SamplingCostModel::new(cluster.clone()).estimate(tasks, placement, 2024);
        println!(
            "  {label:<40} {:>8.1} s  (symbol tables {:.1} s, walking {:.1} s)",
            est.total.as_secs(),
            est.symbol_parse.as_secs(),
            est.trace_walk.as_secs()
        );
    }

    // --- Merge -----------------------------------------------------------------
    println!("\n== merge of the 2D and 3D prefix trees ==");
    for representation in [
        Representation::GlobalBitVector,
        Representation::HierarchicalTaskList,
    ] {
        let estimator = PhaseEstimator::new(cluster.clone(), representation);
        let est = estimator.merge_estimate(tasks, 2);
        println!(
            "  {:<40} {:>8.2} s  ({:.1} MB into the front end)",
            representation.label(),
            est.cost.critical_path.as_secs(),
            est.cost.frontend_bytes_in as f64 / 1.0e6
        );
        if representation == Representation::HierarchicalTaskList {
            println!(
                "  {:<40} {:>8.2} s",
                "  + front-end remap",
                estimator.remap_estimate(tasks).as_secs()
            );
        }
    }

    // --- What the user gets ------------------------------------------------------
    // Run the real tool at a reduced scale (same workload, 4,096 tasks) to show the
    // equivalence classes a user would see; the classes are scale-invariant.
    println!("\n== result (real run at 4,096 tasks; classes are the same at 208K) ==");
    let app = appsim::RingHangApp::new(4_096, appsim::FrameVocabulary::BlueGeneL);
    let session = Session::builder(Cluster::bluegene_l(BglMode::CoProcessor))
        .samples_per_task(3)
        .build();
    let result = session.attach(&app).expect("the session merges cleanly");
    for class in &result.gather.classes {
        println!(
            "  {:>18}  {}",
            class.tasks_string(),
            class.path_string(&result.gather.frames)
        );
    }
    println!(
        "\nattach a heavyweight debugger to ranks {:?} instead of all {} tasks",
        result.gather.attach_set(),
        tasks
    );
}
