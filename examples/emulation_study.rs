//! A STATBench-style emulation study: how does the tool behave as the *application's*
//! behaviour gets more complicated?
//!
//! Reproduces: the STATBench emulation methodology of the paper's reference \[9\]
//! (Section VII uses it for the threading projections): synthetic traces with a
//! controlled class structure driving the real merge machinery.
//!
//! ```text
//! cargo run --release --example emulation_study
//! ```
//!
//! Real applications are not all ring hangs.  This example uses the synthetic trace
//! generator (the reproduction of the STATBench emulation infrastructure the authors
//! used before they had 208K-task slots) to sweep two axes that the prefix tree is
//! sensitive to — job size and the number of distinct behaviour classes — and reports
//! what the real merge machinery does in response.

use machine::Cluster;
use stat_core::prelude::{Representation, Session, StatError};
use statbench::{SweepConfig, SyntheticApp, TraceShape};

fn main() -> Result<(), StatError> {
    let cluster = Cluster::test_cluster(512, 8);

    println!("== one emulated job in detail ==");
    let tasks = 4_096;
    let report = Session::builder(cluster.clone())
        .build()
        .attach(&SyntheticApp::new(tasks, TraceShape::typical()))?;
    let classes = report.gather.classes.len();
    println!(
        "  {} tasks over {} daemons -> {} classes ({}x compression), merged tree {} nodes",
        tasks,
        report.daemons,
        classes,
        tasks / classes.max(1) as u64,
        report.gather.tree_3d.node_count()
    );
    println!(
        "  daemon packets: mean {} bytes, max {} bytes; front end received {} bytes",
        report.mean_daemon_packet_bytes,
        report.max_daemon_packet_bytes,
        report.gather.metrics.frontend_bytes_in
    );
    println!(
        "  local phase {:?}, TBON merge {:?}, remap {:?}\n",
        report.phases.sample + report.phases.local_merge,
        report.gather.metrics.merge_wall,
        report.gather.metrics.remap_wall
    );

    println!("== representation comparison at 8,192 tasks ==");
    for representation in [
        Representation::GlobalBitVector,
        Representation::HierarchicalTaskList,
    ] {
        let r = Session::builder(cluster.clone())
            .representation(representation)
            .build()
            .attach(&SyntheticApp::new(8_192, TraceShape::typical()))?;
        println!(
            "  {:<28} link bytes {:>12}, max daemon packet {:>9} bytes",
            representation.label(),
            r.gather.metrics.total_link_bytes,
            r.max_daemon_packet_bytes
        );
    }

    println!("\n== scaling sweep (real merges, synthetic traces) ==");
    let config = SweepConfig::new(cluster.clone());
    println!(
        "{}",
        statbench::sweep_daemon_counts(&config, &[512, 2_048, 4_096])?
    );

    println!("== class-count stress sweep at 2,048 tasks ==");
    println!(
        "{}",
        statbench::sweep_equivalence_classes(&config, 2_048, &[1, 8, 64, 256])?
    );
    Ok(())
}
