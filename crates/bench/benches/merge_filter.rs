//! The merge filter a communication process runs on one input wave.
//!
//! Two waves bracket the filter's work:
//!
//! * `hierarchical_256x1`: 256 one-task daemons' 3D trees under the
//!   hierarchical representation — the wave every first-level comm process of
//!   `merge_wide_64kd` reduces, many small bodies concatenated into one domain;
//! * `dense_64x65536`: 64 daemons' 3D trees under the job-wide representation
//!   of a 65,536-task job — few bodies, each set 1,024 varint words wide, so the
//!   per-word read, OR and write dominate.

// Benches are not public API; criterion_group! generates undocumented items.
#![allow(missing_docs)]

use criterion::{black_box, criterion_group, criterion_main, Criterion};

use appsim::{Application, FrameVocabulary, RingHangApp};
use stat_core::prelude::*;
use tbon::filter::Filter;
use tbon::packet::{EndpointId, Packet};

/// The 3D-tree packet of each of `daemons` daemons over a `tasks`-task ring hang,
/// one sample per task, in daemon order.
fn leaf_wave(tasks: u64, daemons: u32, representation: Representation) -> Vec<Packet> {
    let app = RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
    let dict = FrameDictionary::negotiate(app.frame_hints());
    StatDaemon::partition(tasks, daemons)
        .iter()
        .map(|daemon| {
            let leaf = EndpointId(daemon.id + 1);
            representation
                .strategy()
                .contribute(daemon, &app, 1, leaf, &dict)
                .tree_3d
        })
        .collect()
}

fn bench_merge_filter(c: &mut Criterion) {
    let hierarchical = leaf_wave(256, 256, Representation::HierarchicalTaskList);
    let dense = leaf_wave(65_536, 64, Representation::GlobalBitVector);

    let mut group = c.benchmark_group("merge_filter");
    group.sample_size(20);
    group.bench_function("hierarchical_256x1", |b| {
        let filter = StatMergeFilter::<SubtreeTaskList>::new();
        b.iter(|| black_box(filter.reduce(EndpointId(0), &hierarchical)))
    });
    group.bench_function("dense_64x65536", |b| {
        let filter = StatMergeFilter::<DenseBitVector>::new();
        b.iter(|| black_box(filter.reduce(EndpointId(0), &dense)))
    });
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default();
    targets = bench_merge_filter
);
criterion_main!(benches);
