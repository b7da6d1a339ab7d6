//! Explore how overlay-network tree shape and task-set representation interact,
//! and let the cost-model planner pick a shape.
//!
//! Reproduces: the Section V design space behind Figures 4–7 — tree depth
//! (flat/2-deep/3-deep, now any depth) crossed with task-set representation
//! (job-wide bit vectors vs. subtree task lists) — as one table for a chosen job
//! size, then goes where the paper could not: `TopologyPlanner` ranks the full
//! fan-in × depth candidate grid out past the paper's 208K cores.
//!
//! ```text
//! cargo run --release --example topology_explorer [tasks]
//! ```
//!
//! For a given job size on BG/L, prints a matrix of estimated merge times and
//! front-end byte loads for tree depth × representation, the planner's ranked
//! candidates, plus the real byte counts measured by pushing real serialised trees
//! through the real in-process TBON at a scaled-down daemon count.

use appsim::{FrameVocabulary, RingHangApp};
use machine::cluster::{BglMode, Cluster};
use machine::placement::PlacementPlan;
use stat_core::prelude::*;
use tbon::planner::TopologyPlanner;
use tbon::topology::TreeShape;

fn main() {
    let tasks: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(131_072);
    let cluster = Cluster::bluegene_l(BglMode::VirtualNode);
    let shape = cluster.job(tasks);

    println!(
        "modelled merge phase at {} tasks ({} daemons) on BG/L:\n",
        shape.tasks, shape.daemons
    );
    println!(
        "{:<12} {:<28} {:>12} {:>16}",
        "topology", "representation", "merge (s)", "front-end MB"
    );
    for depth in 1..=3u32 {
        for representation in [
            Representation::GlobalBitVector,
            Representation::HierarchicalTaskList,
        ] {
            let estimator = PhaseEstimator::new(cluster.clone(), representation);
            let est = estimator.merge_estimate(tasks, depth);
            let label = format!("{depth}-deep");
            match est.failed {
                Some(reason) => println!(
                    "{label:<12} {:<28} {:>12} {:>16}   ({reason})",
                    representation.label(),
                    "FAILS",
                    "-"
                ),
                None => println!(
                    "{label:<12} {:<28} {:>12.2} {:>16.1}",
                    representation.label(),
                    est.cost.critical_path.as_secs(),
                    est.cost.frontend_bytes_in as f64 / 1.0e6
                ),
            }
        }
    }

    // The planner's view of the same question: every fan-in × depth candidate,
    // priced and ranked under the machine's comm-process budget.
    println!("\nplanner ranking (hierarchical representation, top 8 of the candidate grid):\n");
    println!(
        "{:<22} {:>12} {:>12} {:>10}   constraint",
        "candidate", "merge (s)", "max fan-out", "comm"
    );
    let planner = TopologyPlanner::new(cluster.clone());
    for candidate in planner.rank(tasks).iter().take(8) {
        println!(
            "{:<22} {:>12.3} {:>12} {:>10}   {}",
            candidate.origin.label(),
            candidate.predicted.as_secs(),
            candidate.max_fanout,
            candidate.comm_processes,
            match (&candidate.feasible, &candidate.bound_by) {
                (false, Some(c)) => format!("INFEASIBLE: {c}"),
                (_, Some(c)) => format!("bound by {c}"),
                _ => "-".to_string(),
            }
        );
    }
    let pick = planner.plan(tasks);
    println!(
        "\nplanner pick: {} {:?} — what `Session::builder(cluster).plan_topology()` would use",
        pick.origin.label(),
        pick.shape.level_widths
    );

    // A real, executed cross-check at a scale that fits comfortably in one process:
    // 2,048 tasks over 16 daemons, real packets through the real overlay.
    println!("\nreal execution cross-check (2,048 tasks, 16 daemons):\n");
    println!(
        "{:<12} {:<28} {:>14} {:>14}",
        "topology", "representation", "link bytes", "front-end bytes"
    );
    let app = RingHangApp::new(2_048, FrameVocabulary::BlueGeneL);
    let co = Cluster::bluegene_l(BglMode::CoProcessor);
    let plan = PlacementPlan::for_job(&co, 2_048);
    for depth in 1..=3u32 {
        for representation in [
            Representation::GlobalBitVector,
            Representation::HierarchicalTaskList,
        ] {
            let session = Session::builder(co.clone())
                .topology(TreeShape::for_placement(&plan, depth))
                .representation(representation)
                .samples_per_task(3)
                .build();
            let result = session.attach(&app).expect("the session merges cleanly");
            println!(
                "{:<12} {:<28} {:>14} {:>14}",
                format!("{depth}-deep"),
                representation.label(),
                result.gather.metrics.total_link_bytes,
                result.gather.metrics.frontend_bytes_in
            );
        }
    }
    println!(
        "\nthe modelled gap and the measured gap point the same way: job-wide bit vectors\n\
         push job-sized labels across every link, subtree task lists do not"
    );
}
