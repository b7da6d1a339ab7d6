//! Wire-format v2 acceptance: the session-global frame dictionary plus varint
//! packet bodies must beat the retired v1 string format by a wide margin on
//! real hierarchical gathers.
//!
//! What this suite pins down:
//!
//! * **the headline reduction** — a full hierarchical gather (every daemon's
//!   2D and 3D tree packets) ships **≥3× fewer bytes** under v2 than the same
//!   trees cost in the v1 per-node string format (priced by a size formula —
//!   the v1 codec itself is gone), at 1,024 tasks always
//!   and at the paper's 65,536- and 212,992-task scales outside
//!   `STATBENCH_FAST`;
//! * **honest accounting** — the byte totals come from the *actual* packets a
//!   daemon hands the TBON, not from a model;
//! * **the eliminated bug class** — v2 round-trips a frame name past the
//!   16-bit length prefix that v1 silently truncated.

use appsim::{Application, FrameVocabulary, RingHangApp};
use machine::cluster::{BglMode, Cluster};
use stackwalk::{FrameId, FrameTable, StackTrace};
use stat_core::prelude::*;

/// Same convention as `stat_bench::fast_mode`: set (non-empty, non-`"0"`)
/// `STATBENCH_FAST` skips the large-scale points.
fn fast_mode() -> bool {
    std::env::var("STATBENCH_FAST")
        .map(|v| !v.is_empty() && v != "0")
        .unwrap_or(false)
}

/// Bytes `tree` cost under the retired v1 string format.  A size formula, not
/// a codec: a 17-byte header (magic, tag, u64 width, u32 frame count), one
/// u16-length-prefixed name per distinct frame, a u32 node count, and per node
/// (root included) two u32 links plus the raw 8-byte task-set words.
fn v1_size(tree: &SubtreePrefixTree, table: &FrameTable) -> u64 {
    let distinct: std::collections::BTreeSet<FrameId> =
        tree.iter_nodes().map(|(_, frame, _)| frame).collect();
    let names: u64 = distinct
        .iter()
        .map(|&frame| 2 + table.name(frame).len() as u64)
        .sum();
    17 + names + 4 + tree.node_count() as u64 * (8 + 8 * tree.width().div_ceil(64))
}

/// Total tree-packet bytes for one full hierarchical gather at `tasks`, under
/// wire format v2 (what the daemons actually ship) and priced per-packet in
/// the v1 string format (what the same gather used to cost).  The rank
/// map is identical under both formats, so it stays out of both totals.
fn gather_bytes(tasks: u64, daemon_count: u32, samples: u32) -> (u64, u64) {
    let app = RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
    let dict = FrameDictionary::negotiate(app.frame_hints());
    let daemons = StatDaemon::partition(tasks, daemon_count);
    let contributions: Vec<DaemonContribution> = daemons
        .iter()
        .enumerate()
        .map(|(i, d)| {
            d.contribute::<SubtreeTaskList>(
                &app,
                samples,
                tbon::packet::EndpointId(i as u32),
                &dict,
            )
        })
        .collect();
    let mut v2 = 0u64;
    let mut v1 = 0u64;
    for c in &contributions {
        for payload in [&c.tree_2d.payload, &c.tree_3d.payload] {
            v2 += payload.len() as u64;
            let (tree, frames): (SubtreePrefixTree, WireFrames) =
                decode_tree(payload).expect("daemon packets decode");
            // The base, then the packet's own frames in its id order, for the
            // v1 pricing.
            let mut table = dict.table();
            frames.records().for_each(|(_, name)| {
                table.intern(name);
            });
            v1 += v1_size(&tree, &table);
        }
    }
    (v2, v1)
}

fn assert_reduction(tasks: u64, daemon_count: u32, samples: u32) {
    let (v2, v1) = gather_bytes(tasks, daemon_count, samples);
    assert!(v2 > 0, "empty gather at {tasks} tasks");
    eprintln!(
        "wire v2 vs v1 at {tasks} tasks / {daemon_count} daemons: \
         {v2} vs {v1} bytes per gather ({:.1}x)",
        v1 as f64 / v2 as f64
    );
    assert!(
        v1 >= 3 * v2,
        "v2 must ship >=3x fewer gather bytes than the v1 string format at \
         {tasks} tasks: v2={v2} v1={v1}"
    );
}

#[test]
fn v2_gathers_beat_the_string_format_3x_at_1k() {
    assert_reduction(1_024, 128, 2);
}

#[test]
fn v2_gathers_beat_the_string_format_3x_at_64k() {
    if fast_mode() {
        eprintln!("STATBENCH_FAST set: skipping the 65,536-task gather");
        return;
    }
    let cluster = Cluster::bluegene_l(BglMode::CoProcessor);
    assert_reduction(65_536, cluster.daemons_for(65_536), 1);
}

#[test]
fn v2_gathers_beat_the_string_format_3x_at_208k() {
    if fast_mode() {
        eprintln!("STATBENCH_FAST set: skipping the 212,992-task gather");
        return;
    }
    let cluster = Cluster::bluegene_l(BglMode::VirtualNode);
    assert_eq!(cluster.max_tasks(), 212_992);
    assert_reduction(212_992, cluster.daemons_for(212_992), 1);
}

#[test]
fn a_frame_name_past_the_v1_length_prefix_round_trips() {
    // The exact packet the v1 encoder corrupted: one frame name past its u16
    // length prefix.  v2's varint lengths ship it intact.
    let long_name = "x".repeat(70_000);
    let mut table = FrameTable::new();
    let trace = StackTrace::new(table.intern_path(&["main", &long_name]));
    let mut tree = GlobalPrefixTree::new_global(4);
    tree.add_trace(&trace, 0);

    let dict = FrameDictionary::default();
    let bytes = encode_tree(&tree, &table, &dict);
    let (back, frames): (GlobalPrefixTree, WireFrames) =
        decode_tree(&bytes).expect("v2 carries varint name lengths");
    assert_eq!(back.node_count(), tree.node_count());
    assert!(
        frames.records().any(|(_, n)| n.len() == 70_000),
        "the oversized frame name survives the round trip"
    );
}
