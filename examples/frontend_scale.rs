//! How the front end scales with the job: one attach of a ring hang, stage by
//! stage, with the bytes each channel delivers to the front end (and puts on all
//! of the overlay's links) and the process's peak resident set.
//!
//! Reproduces: the paper's Section VI lesson — per-task structures at the one
//! node that cannot scale out fail first — as a measurement past the 208K
//! cores the paper reached.
//!
//! ```text
//! cargo run --release --example frontend_scale [tasks]
//! ```
//!
//! The job runs on `Cluster::test_cluster(tasks / 64, 64)` with 1 sample per
//! task and the session defaults (hierarchical task lists, placement-rule
//! 2-deep overlay).  The stages are the ones `Session::attach` runs, in its
//! order: the daemons walk, close and encode side by side, one level walk
//! reduces every channel, the front end decodes and remaps, and the 3D tree is
//! classified.  Run one size per process, so that `VmHWM` (read from
//! `/proc/self/status`, Linux only) belongs to that size alone.

use std::time::{Duration, Instant};

use appsim::{Application, FrameVocabulary, RingHangApp};
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
    let nodes = u32::try_from(tasks.div_ceil(64)).expect("at most 2^32 nodes");
    let session = Session::builder(Cluster::test_cluster(nodes, 64))
        .samples_per_task(1)
        .build();
    let app = RingHangApp::new(tasks, FrameVocabulary::Linux);
    let strategy = Representation::HierarchicalTaskList.strategy();

    let start = Instant::now();
    let spec = session.topology_for(tasks);
    let daemons = StatDaemon::partition(tasks, spec.backends());
    let net = InProcessTbon::new(Topology::build(spec));
    let dict = FrameDictionary::negotiate(app.frame_hints());
    let leaves = daemons
        .iter()
        .zip(net.topology().backends().iter().copied());
    let contributions = strategy.contribute_all(leaves.collect(), &app, 1, &dict, &net)?;
    let sample: Duration = contributions.iter().map(|c| c.sample_wall).sum();

    let mut packets: [Vec<_>; 3] = Default::default();
    for c in contributions {
        packets[0].push(c.tree_2d);
        packets[1].push(c.tree_3d);
        packets[2].push(c.rank_map);
    }
    let channels = [
        MergeChannel::Tree2d,
        MergeChannel::Tree3d,
        MergeChannel::RankMap,
    ];
    let inputs = channels
        .iter()
        .zip(packets)
        .map(|(channel, leaves)| ChannelInput::new(channel.label(), leaves))
        .collect();
    let merge = strategy.merge_filter();
    let filters: [&dyn Filter; 3] = [merge.as_ref(), merge.as_ref(), &RankMapFilter];
    let reduce_start = Instant::now();
    let outcomes = net.reduce_channels(inputs, &filters)?;
    let reduce = reduce_start.elapsed();

    let merged = strategy.finish(&outcomes[0], &outcomes[1], outcomes.get(2), tasks, &dict)?;
    let classify_start = Instant::now();
    let classes = equivalence_classes(&merged.tree_3d);
    let classify = classify_start.elapsed();
    let wall = start.elapsed();

    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    println!(
        "tasks {tasks}  daemons {}  classes {}",
        daemons.len(),
        classes.len()
    );
    println!(
        "wall {:.1} ms  sample (sum over daemons) {:.1} ms  reduce {:.1} ms  remap {:.1} ms  classify {:.1} ms",
        ms(wall),
        ms(sample),
        ms(reduce),
        ms(merged.remap_wall),
        ms(classify)
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
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find(|l| l.starts_with("VmHWM"));
    println!("{}", hwm.unwrap_or("VmHWM unavailable"));
    Ok(())
}
