//! The merge filter a communication process runs on one input wave.
//!
//! These waves bracket the filter's work:
//!
//! * `hierarchical_256x1`: 256 one-task daemons' 3D trees under the
//!   hierarchical representation — the wave every first-level comm process of
//!   `merge_wide_64kd` reduces, many small bodies concatenated into one domain,
//!   most of them equal (a ring hang has three behaviours), so most are read once
//!   and replayed;
//! * `hierarchical_256x1_distinct`: the same shape over a compute spread of 256
//!   classes, so no two bodies are equal: every body is read and walked, and the
//!   key each is held under is pure cost;
//! * `dense_64x65536`: 64 daemons' 3D trees under the job-wide representation
//!   of a 65,536-task job — few bodies, each set 1,024 varint words wide, so the
//!   per-word read, OR and write dominate;
//! * `rank_maps_256`: the rank-map filter over the first wave's 256 rank maps.

// Benches are not public API; criterion_group! generates undocumented items.
#![allow(missing_docs)]

use std::collections::HashSet;

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use appsim::{Application, FrameVocabulary, RingHangApp};
use stat_core::prelude::*;
use tbon::filter::Filter;
use tbon::packet::EndpointId;

/// Each of `daemons` daemons' contribution over `app`, one sample per task, in
/// daemon order.
fn leaf_wave(
    app: &dyn Application,
    daemons: u32,
    representation: Representation,
) -> Vec<DaemonContribution> {
    let dict = FrameDictionary::negotiate(app.frame_hints());
    StatDaemon::partition(app.num_tasks(), daemons)
        .iter()
        .map(|daemon| {
            let leaf = EndpointId(daemon.id + 1);
            representation
                .strategy()
                .contribute(daemon, app, 1, leaf, &dict)
        })
        .collect()
}

fn bench_merge_filter(c: &mut Criterion) {
    let ring = |tasks| RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
    let hierarchical = leaf_wave(&ring(256), 256, Representation::HierarchicalTaskList);
    let spread = appsim::workloads::compute_spread(256, 256, FrameVocabulary::BlueGeneL);
    let distinct = leaf_wave(&spread, 256, Representation::HierarchicalTaskList);
    let dense = leaf_wave(&ring(65_536), 64, Representation::GlobalBitVector);
    let trees = |wave: &[DaemonContribution]| wave.iter().map(|c| c.tree_3d.clone()).collect();
    let (hierarchical_trees, distinct, dense): (Vec<_>, Vec<_>, Vec<_>) =
        (trees(&hierarchical), trees(&distinct), trees(&dense));
    let bodies: HashSet<&[u8]> = distinct.iter().map(|p| p.payload.as_ref()).collect();
    assert_eq!(
        bodies.len(),
        distinct.len(),
        "a distinct wave repeats a body"
    );
    let rank_maps: Vec<_> = hierarchical.iter().map(|c| c.rank_map.clone()).collect();

    let mut group = c.benchmark_group("merge_filter");
    group.sample_size(20);
    let hierarchical_filter = StatMergeFilter::<SubtreeTaskList>::new();
    group.bench_function("hierarchical_256x1", |b| {
        b.iter(|| black_box(hierarchical_filter.reduce(EndpointId(0), &hierarchical_trees)))
    });
    group.bench_function("hierarchical_256x1_distinct", |b| {
        b.iter(|| black_box(hierarchical_filter.reduce(EndpointId(0), &distinct)))
    });
    group.bench_function("dense_64x65536", |b| {
        let filter = StatMergeFilter::<DenseBitVector>::new();
        b.iter(|| black_box(filter.reduce(EndpointId(0), &dense)))
    });
    group.bench_function("rank_maps_256", |b| {
        b.iter(|| black_box(RankMapFilter.reduce(EndpointId(0), &rank_maps)))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default();
    targets = bench_merge_filter
);
criterion_main!(benches);
