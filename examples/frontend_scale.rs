//! How the front end scales with the job: one attach of a ring hang, stage by
//! stage, with the bytes each channel delivers to the front end (and puts on all
//! of the overlay's links) and the process's peak resident set.
//!
//! Reproduces: the paper's Section VI lesson — per-task structures at the one
//! node that cannot scale out fail first — as a measurement past the 208K
//! cores the paper reached.
//!
//! ```text
//! cargo run --release --example frontend_scale [tasks] [classes]
//! ```
//!
//! Given `classes`, the job is `workloads::compute_spread(tasks, classes)`
//! instead of the ring hang: ranks dealt round robin over that many classes,
//! each far smaller than a job-wide task set.  The job runs on
//! `Cluster::test_cluster(tasks / 64, 64)` with 1 sample per task and the
//! session defaults (hierarchical task lists, placement-rule
//! 2-deep overlay).  The stages are the ones `Session::attach` runs, in its
//! order, and then the judgement `run_scenario` adds: the daemons walk, close
//! and encode side by side; one level walk reduces the channels `attach`
//! reduces (with one sample a task every daemon's 2D packet shares its 3D
//! packet's buffer, so one tree channel and the rank map); the front end
//! decodes and remaps; the 3D tree is classified; the classes become a
//! diagnosis; the job's ground truth judges it.  Run one size per
//! process, so that `VmHWM` (read from `/proc/self/status`, Linux only)
//! belongs to that size alone.

use std::time::{Duration, Instant};

use appsim::scenario::GroundTruth;
use appsim::{workloads, Application, FrameVocabulary, RingHangApp};
use machine::cluster::Cluster;
use stat_core::prelude::*;
use tbon::filter::Filter;
use tbon::network::{ChannelInput, InProcessTbon};
use tbon::topology::Topology;

fn main() -> Result<(), StatError> {
    let tasks: u64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(1 << 20);
    let classes: Option<u32> = std::env::args().nth(2).and_then(|a| a.parse().ok());
    let nodes = u32::try_from(tasks.div_ceil(64)).expect("at most 2^32 nodes");
    let session = Session::builder(Cluster::test_cluster(nodes, 64))
        .samples_per_task(1)
        .build();
    let (app, truth): (Box<dyn Application>, GroundTruth) = match classes {
        None => {
            let app = RingHangApp::new(tasks, FrameVocabulary::Linux);
            let truth = app.ground_truth();
            (Box::new(app), truth)
        }
        Some(classes) => {
            let app = workloads::compute_spread(tasks, classes, FrameVocabulary::Linux);
            let truth = app.ground_truth();
            (Box::new(app), truth)
        }
    };
    let strategy = Representation::HierarchicalTaskList.strategy();

    let start = Instant::now();
    let spec = session.topology_for(tasks);
    let daemons = StatDaemon::partition(tasks, spec.backends());
    let net = InProcessTbon::new(Topology::build(spec));
    let dict = FrameDictionary::negotiate(app.frame_hints());
    let leaves = daemons
        .iter()
        .zip(net.topology().backends().iter().copied());
    let contributions = strategy.contribute_all(leaves.collect(), &*app, 1, &dict, &net)?;
    let sample: Duration = contributions.iter().map(|c| c.sample_wall).sum();

    // The channels `attach` reduces: the 3D channel only when some daemon's 2D
    // packet is not its 3D packet's buffer.
    let shared = contributions
        .iter()
        .all(|c| std::ptr::eq(&*c.tree_2d.payload, &*c.tree_3d.payload));
    let mut packets: [Vec<_>; 3] = Default::default();
    for c in contributions {
        packets[0].push(c.tree_2d);
        packets[1].push(c.tree_3d);
        packets[2].push(c.rank_map);
    }
    let merge = strategy.merge_filter();
    let all = [
        (MergeChannel::Tree2d, merge.as_ref()),
        (MergeChannel::Tree3d, merge.as_ref()),
        (MergeChannel::RankMap, &RankMapFilter as &dyn Filter),
    ];
    let (mut channels, mut inputs, mut filters) = (Vec::new(), Vec::new(), Vec::new());
    for ((channel, filter), leaves) in all.into_iter().zip(packets) {
        if !(shared && channel == MergeChannel::Tree3d) {
            channels.push(channel);
            inputs.push(ChannelInput::new(channel.label(), leaves));
            filters.push(filter);
        }
    }
    let reduce_start = Instant::now();
    let outcomes = net.reduce_channels(inputs, &filters)?;
    let reduce = reduce_start.elapsed();

    let (tree_2d, map) = (&outcomes[0], outcomes.last());
    let tree_3d = if shared { tree_2d } else { &outcomes[1] };
    let merged = strategy.finish(tree_2d, tree_3d, map, tasks, &dict)?;
    let classify_start = Instant::now();
    let classes = equivalence_classes(&merged.tree_3d);
    let classify = classify_start.elapsed();
    let gather = GatherResult {
        tree_2d: merged.tree_2d,
        tree_3d: merged.tree_3d,
        frames: merged.frames,
        classes,
        metrics: MergeMetrics::default(),
    };
    let diagnose_start = Instant::now();
    let diagnosis = diagnose(&gather, tasks, Vec::new());
    let diagnose_wall = diagnose_start.elapsed();
    let judge_start = Instant::now();
    let verdict = truth.check(app.name(), &diagnosis);
    let judge = judge_start.elapsed();
    let wall = start.elapsed();
    assert!(verdict.passed(), "{verdict}");

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "tasks {tasks}  daemons {}  classes {}  channels reduced {}",
        daemons.len(),
        gather.classes.len(),
        channels.len()
    );
    println!(
        "wall {:.1} ms  sample (sum over daemons) {:.1} ms  reduce {:.1} ms  remap {:.1} ms  classify {:.1} ms  diagnose {:.2} ms  judge {:.2} ms",
        ms(wall),
        ms(sample),
        ms(reduce),
        ms(merged.remap_wall),
        ms(classify),
        ms(diagnose_wall),
        ms(judge)
    );
    for (channel, outcome) in channels.iter().zip(&outcomes) {
        println!(
            "{:<8} front end in {:>12} B ({:.3} B/task)  all links {:>12} B",
            channel.label(),
            outcome.frontend_bytes_in,
            outcome.frontend_bytes_in as f64 / tasks as f64,
            outcome.total_link_bytes
        );
    }
    if shared {
        println!("3d       the 2d channel's packets (one buffer per daemon), not reduced again");
    }
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find(|l| l.starts_with("VmHWM"));
    println!("{}", hwm.unwrap_or("VmHWM unavailable"));
    Ok(())
}
