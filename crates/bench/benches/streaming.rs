//! Quiescent-wave incremental fold vs. full re-reduce at 64K endpoints.
//!
//! A streaming session maintains the job-wide temporal tree across waves.  The
//! naive way is to re-reduce every daemon's *full* cumulative tree through the
//! overlay each wave; the delta path ships only what changed, merges it on the
//! way up and folds it into the front end's resident state.  On a **quiescent** wave — the common case for a
//! hung job, where nothing moves between samples — the deltas are root-only
//! stubs, so the incremental path's work collapses while the full re-reduce
//! still pays for every byte of every cumulative tree.
//!
//! This bench pins that gap on the paper's 2-deep 65,536-endpoint overlay
//! (65,536 back-end daemons under 256 communication processes), with leaf
//! payloads shaped like locally merged ring-hang trees.  The acceptance bar
//! (`results/BENCH_streaming.md`) is ≥5× in favour of the incremental fold.

// Benches are not public API; criterion_group! generates undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use stackwalk::{FrameDictionary, FrameTable, StackTrace};
use stat_core::prelude::{encode_tree, StatMergeFilter, SubtreePrefixTree, SubtreeTaskList};
use stat_core::streaming::TreeResidentFactory;
use tbon::delta::IncrementalTbon;
use tbon::packet::{Packet, PacketTag};
use tbon::topology::{Topology, TreeShape};

const ENDPOINTS: u32 = 65_536;

/// One daemon's cumulative local 3D tree: a ring-hang-shaped call path with a
/// little per-daemon variety so the merged tree carries a few dozen classes.
fn cumulative_payload(daemon: usize, table: &mut FrameTable, dict: &FrameDictionary) -> Vec<u8> {
    let mut tree = SubtreePrefixTree::new_subtree(1);
    let tail = format!("poll_depth_{}", daemon % 48);
    let trace = StackTrace::new(table.intern_path(&[
        "_start",
        "main",
        "PMPI_Barrier",
        "MPIR_Barrier_impl",
        "MPIR_Barrier_intra",
        "MPID_Progress_wait",
        "MPIDI_CH3I_Progress",
        &tail,
    ]));
    tree.add_trace(&trace, 0);
    let timer = StackTrace::new(table.intern_path(&["_start", "main", "timer_handler"]));
    tree.add_trace(&timer, 0);
    encode_tree(&tree, table, dict)
}

/// A quiescent wave's delta: the wave tree minus the cumulative tree, which is
/// an empty single-task stub.
fn quiescent_payload(table: &mut FrameTable, dict: &FrameDictionary) -> Vec<u8> {
    let tree = SubtreePrefixTree::new_subtree(1);
    encode_tree(&tree, table, dict)
}

fn bench_quiescent_wave(c: &mut Criterion) {
    let topology = Topology::build(TreeShape::two_deep(ENDPOINTS, 256));
    let filter = StatMergeFilter::<SubtreeTaskList>::new();

    let mut table = FrameTable::new();
    let dict = FrameDictionary::default();
    let full_leaves: Vec<Packet> = topology
        .backends()
        .iter()
        .enumerate()
        .map(|(i, &ep)| {
            Packet::new(
                PacketTag::Merged3d,
                ep,
                cumulative_payload(i, &mut table, &dict),
            )
        })
        .collect();
    let stub = quiescent_payload(&mut table, &dict);
    let delta_leaves: Vec<Packet> = topology
        .backends()
        .iter()
        .map(|&ep| Packet::new(PacketTag::TreeDelta, ep, stub.clone()))
        .collect();

    // The resident state a mid-stream session carries: every node has already
    // folded one full wave.  Quiescent folds leave it unchanged, so one
    // seeded network serves every measured iteration.
    let net = tbon::network::InProcessTbon::new(topology.clone());
    let mut incremental =
        IncrementalTbon::new(topology, TreeResidentFactory::<SubtreeTaskList>::new());
    let seed: Vec<Packet> = full_leaves
        .iter()
        .map(|p| Packet::new(PacketTag::TreeDelta, p.source, p.payload.clone()))
        .collect();
    incremental
        .fold_wave(seed, &filter)
        .expect("seeding the resident state succeeds");

    let mut group = c.benchmark_group("streaming_64k_quiescent_wave");
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(8));

    group.bench_function("full_rereduce", |b| {
        b.iter_batched(
            || full_leaves.clone(),
            |leaves| net.reduce(leaves, &filter).expect("leaf counts match"),
            BatchSize::LargeInput,
        )
    });

    group.bench_function("incremental_fold", |b| {
        b.iter_batched(
            || delta_leaves.clone(),
            |deltas| {
                incremental
                    .fold_wave(deltas, &filter)
                    .expect("leaf counts match")
            },
            BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default();
    targets = bench_quiescent_wave
);
criterion_main!(benches);
