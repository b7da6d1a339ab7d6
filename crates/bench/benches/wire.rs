//! Wire-format v2 on a 64K-endpoint gather wave.
//!
//! Every daemon in a hierarchical gather serialises its locally merged subtree
//! tree once per wave, and every byte it emits crosses the overlay's slowest
//! links.  This bench pins the codec's cost at the paper's 65,536-task scale:
//! encode wall time for a full wave of daemon trees under the
//! session-dictionary varint format, plus the decode cost the communication
//! processes pay.
//!
//! The byte totals themselves (the ≥3× bar against the retired v1 string
//! format) are pinned by `tests/wire.rs`.

// Benches are not public API; criterion_group! generates undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};

use appsim::{Application, FrameVocabulary, RingHangApp};
use stackwalk::{FrameDictionary, FrameTable, Walker};
use stat_core::prelude::*;

const TASKS: u64 = 65_536;
const DAEMONS: u64 = 1_024;

/// One locally merged subtree tree per daemon for the 64K ring hang — the wave
/// of payloads a gather actually serialises.
fn build_daemon_trees(table: &mut FrameTable) -> Vec<SubtreePrefixTree> {
    let app = RingHangApp::new(TASKS, FrameVocabulary::BlueGeneL);
    let mut walker = Walker::new();
    let local = TASKS / DAEMONS;
    (0..DAEMONS)
        .map(|d| {
            let mut tree = SubtreePrefixTree::new_subtree(local);
            for pos in 0..local {
                let path = app.main_thread_path(d * local + pos, 0);
                let trace = walker.walk(table, path);
                tree.add_trace(&trace, pos);
            }
            tree
        })
        .collect()
}

fn bench_gather_wave(c: &mut Criterion) {
    let mut table = FrameTable::new();
    let trees = build_daemon_trees(&mut table);
    let dict = FrameDictionary::negotiate(
        RingHangApp::new(TASKS, FrameVocabulary::BlueGeneL).frame_hints(),
    );
    let packets: Vec<Vec<u8>> = trees
        .iter()
        .map(|t| encode_tree(t, &table, &dict))
        .collect();

    let mut group = c.benchmark_group("wire_64k_gather_wave");
    group.sample_size(20);

    group.bench_function("encode_v2_dictionary_varint", |b| {
        b.iter(|| {
            trees
                .iter()
                .map(|t| encode_tree(t, &table, &dict).len())
                .sum::<usize>()
        })
    });

    group.bench_function("decode_v2", |b| {
        b.iter(|| {
            packets
                .iter()
                .map(|p| {
                    let (tree, _frames): (SubtreePrefixTree, WireFrames) =
                        decode_tree(p).expect("round trip");
                    tree.node_count()
                })
                .sum::<usize>()
        })
    });

    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default();
    targets = bench_gather_wave
);
criterion_main!(benches);
