//! Walk the whole fault-scenario catalogue and print each diagnosis next to its
//! ground truth — the repo's "does the tool actually find the bug?" demo.
//!
//! Reproduces: the paper's debugging *strategy* (Section II) as a table — for
//! every catalogued fault, the pipeline runs end to end (planner-chosen topology,
//! real sampling, single-pass TBON merge), the merged tree's classes are judged
//! against the injected fault, and the verdict is printed check by check.
//!
//! ```text
//! cargo run --example scenario_gallery            # 1,024 tasks
//! cargo run --example scenario_gallery -- 65536   # any job size
//! ```

use appsim::scenario::catalogue;
use appsim::FrameVocabulary;
use machine::Cluster;
use stat_core::prelude::*;

fn main() {
    let tasks: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1_024);
    let cluster = Cluster::test_cluster(((tasks / 8).max(1)) as u32, 8);
    let scenarios = catalogue(tasks, FrameVocabulary::BlueGeneL);
    let session = Session::builder(cluster)
        .plan_topology()
        .samples_per_task(3)
        .build();

    println!(
        "fault-scenario catalogue at {tasks} tasks ({} scenarios)\n",
        scenarios.len()
    );
    println!(
        "{:<26} {:<9} {:>7} {:>6}  outcome",
        "scenario", "overlay", "classes", "lost"
    );
    let mut failures = 0usize;
    for scenario in &scenarios {
        let run = match session.run_scenario(scenario) {
            Ok(run) => run,
            Err(err) => {
                failures += 1;
                println!("{:<26} pipeline error: {err}", scenario.name);
                continue;
            }
        };
        let passed = run.verdict.passed();
        if !passed {
            failures += 1;
        }
        println!(
            "{:<26} {:<9} {:>7} {:>6}  {}",
            scenario.name,
            if scenario.is_degraded() {
                "degraded"
            } else {
                "healthy"
            },
            run.diagnosis.classes.len(),
            run.diagnosis.lost_ranks.len(),
            if passed { "PASS" } else { "FAIL" },
        );
        println!("{:<26}   fault:    {}", "", scenario.fault);
        println!("{:<26}   expected: {}", "", scenario.expected);
        if !passed {
            for check in run.verdict.failures() {
                println!("{:<26}   FAIL [{}] {}", "", check.name, check.detail);
            }
        }
    }
    println!("\n{} scenarios, {} failed", scenarios.len(), failures);
    assert_eq!(
        failures, 0,
        "the catalogue must diagnose every injected fault"
    );
}
