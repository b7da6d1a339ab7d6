//! Criterion micro-benchmarks of the prefix-tree operations every experiment rests
//! on: building daemon-local trees, merging them, and serialising them for the TBON.

// Benches are not public API; criterion_group! generates undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};

use appsim::{gather_samples_for_ranks, Application, FrameVocabulary, RingHangApp};
use stackwalk::{FrameDictionary, FrameTable, StackTrace, Walker};
use stat_core::prelude::*;

fn build_tree(tasks: u64, table: &mut FrameTable) -> GlobalPrefixTree {
    let app = RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
    let mut walker = Walker::new();
    let mut tree = GlobalPrefixTree::new_global(tasks);
    for rank in 0..tasks {
        let path = app.main_thread_path(rank, 0);
        let trace = walker.walk(table, &path);
        tree.add_trace(&trace, rank);
    }
    tree
}

/// One locally merged subtree tree per daemon, in daemon order — the input wave a
/// level of the hierarchical merge actually sees.
fn build_daemon_trees(tasks: u64, daemons: u64, table: &mut FrameTable) -> Vec<SubtreePrefixTree> {
    let app = RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
    let mut walker = Walker::new();
    let local = tasks / daemons;
    (0..daemons)
        .map(|d| {
            let mut tree = SubtreePrefixTree::new_subtree(local);
            for pos in 0..local {
                let path = app.main_thread_path(d * local + pos, 0);
                let trace = walker.walk(table, &path);
                tree.add_trace(&trace, pos);
            }
            tree
        })
        .collect()
}

fn bench_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix_tree_build");
    for tasks in [128u64, 1_024, 8_192] {
        group.bench_with_input(BenchmarkId::from_parameter(tasks), &tasks, |b, &tasks| {
            b.iter(|| {
                let mut table = FrameTable::new();
                build_tree(tasks, &mut table)
            })
        });
    }
    group.finish();
}

fn bench_merge(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix_tree_merge");
    for tasks in [1_024u64, 8_192] {
        let mut table = FrameTable::new();
        let left = build_tree(tasks, &mut table);
        let right = build_tree(tasks, &mut table);
        group.bench_with_input(BenchmarkId::from_parameter(tasks), &tasks, |b, _| {
            b.iter(|| {
                let mut acc = left.clone();
                acc.merge(right.clone());
                acc
            })
        });
    }
    group.finish();
}

/// The hierarchical merge chain: fold one subtree tree per daemon into the job-wide
/// merged tree, exactly what a comm process (and ultimately the front end) does.
/// This is the hot path ISSUE 4 rewrites; `results/BENCH_merge.md` tracks it.
fn bench_hierarchical_merge_chain(c: &mut Criterion) {
    let mut group = c.benchmark_group("hierarchical_merge_chain");
    for (tasks, daemons) in [(1_024u64, 8u64), (8_192, 64)] {
        let mut table = FrameTable::new();
        let trees = build_daemon_trees(tasks, daemons, &mut table);
        group.bench_with_input(BenchmarkId::from_parameter(tasks), &tasks, |b, _| {
            b.iter_batched(
                || trees.clone(),
                |mut waves| {
                    let mut acc = waves.remove(0);
                    for tree in waves {
                        acc.merge(tree);
                    }
                    acc
                },
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

fn bench_encode_decode(c: &mut Criterion) {
    let mut table = FrameTable::new();
    let tree = build_tree(4_096, &mut table);
    let dict = FrameDictionary::negotiate(
        RingHangApp::new(4_096, FrameVocabulary::BlueGeneL).frame_hints(),
    );
    c.bench_function("prefix_tree_encode_4096", |b| {
        b.iter(|| encode_tree(&tree, &table, &dict))
    });
    let bytes = encode_tree(&tree, &table, &dict);
    c.bench_function("prefix_tree_decode_4096", |b| {
        b.iter(|| decode_tree::<DenseBitVector>(&bytes).unwrap())
    });
}

/// The 3D ring-hang tree the front end classifies: three samples per task, dense
/// job-wide labels.  Sampled a block of ranks at a time so the million-task tree
/// never holds three million traces at once.
fn build_ring_3d(tasks: u64) -> GlobalPrefixTree {
    let app = RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
    let mut table = FrameTable::new();
    let mut tree = GlobalPrefixTree::new_global(tasks);
    let ranks: Vec<u64> = (0..tasks).collect();
    for block in ranks.chunks(4_096) {
        for samples in gather_samples_for_ranks(&app, block, 3, &mut table) {
            for trace in &samples.traces {
                tree.add_trace(trace, samples.rank);
            }
        }
    }
    tree
}

/// A wide synthetic tree: `classes` leaves under 32 phases, every leaf a class of
/// `tasks / classes` ranks — the non-empty-remainder path (one `members()` per
/// class) that the ring hang's three classes barely touch.
fn build_wide_tree(tasks: u64, classes: u64) -> GlobalPrefixTree {
    let mut table = FrameTable::new();
    let mut tree = GlobalPrefixTree::new_global(tasks);
    for rank in 0..tasks {
        let class = rank % classes;
        let phase = format!("phase_{}", class % 32);
        let leaf = format!("kernel_{class}");
        let trace = StackTrace::new(table.intern_path(&["main", &phase, &leaf]));
        tree.add_trace(&trace, rank);
    }
    tree
}

/// Behaviour-class extraction, the tail of every gather and every streaming wave
/// (ISSUE 14 made it word-parallel; `results/BENCH_merge.md` tracks it).
fn bench_classify(c: &mut Criterion) {
    let mut group = c.benchmark_group("classify");
    for tasks in [65_536u64, 1_048_576] {
        let tree = build_ring_3d(tasks);
        group.bench_with_input(BenchmarkId::new("ring_hang_3d", tasks), &tasks, |b, _| {
            b.iter(|| equivalence_classes(&tree))
        });
    }
    let wide = build_wide_tree(65_536, 1_024);
    group.bench_function(BenchmarkId::new("wide_1024_classes", 65_536), |b| {
        b.iter(|| equivalence_classes(&wide))
    });
    group.finish();
}

/// An application whose every rank sits in its own callee of one `dispatch`
/// frame: a single tree node with as many children as the daemon has tasks.
struct WideFanoutApp {
    callees: Vec<&'static str>,
}

impl WideFanoutApp {
    fn new(callees: usize) -> Self {
        let leak = |k| &*Box::leak(format!("callee_{k}").into_boxed_str());
        WideFanoutApp {
            callees: (0..callees).map(leak).collect(),
        }
    }
}

impl Application for WideFanoutApp {
    fn name(&self) -> &str {
        "wide_fanout"
    }
    fn num_tasks(&self) -> u64 {
        self.callees.len() as u64
    }
    fn call_path(&self, rank: u64, _thread: u32, _sample: u32) -> Vec<&'static str> {
        vec!["main", "dispatch", self.callees[rank as usize]]
    }
}

/// The daemon-local phase — sample, local merge, encode — on both sides of the
/// descent's choice: the ring hang's narrow nodes (names compared sibling by
/// sibling, no hash) and one 4,096-callee node (table lookup + child index).
fn bench_daemon_local(c: &mut Criterion) {
    use tbon::packet::EndpointId;
    let mut group = c.benchmark_group("daemon_local");
    let ring = RingHangApp::new(128, FrameVocabulary::BlueGeneL);
    let wide = WideFanoutApp::new(4_096);
    let cases: [(&str, &dyn Application, u32); 2] = [
        ("ring_hang_128x10", &ring, 10),
        ("one_node_4096_callees", &wide, 1),
    ];
    for (name, app, samples) in cases {
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let daemon = StatDaemon::new(0, (0..app.num_tasks()).collect(), app.num_tasks());
        group.bench_function(BenchmarkId::new("contribute", name), |b| {
            b.iter(|| daemon.contribute::<SubtreeTaskList>(app, samples, EndpointId(1), &dict))
        });
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_daemon_local, bench_build, bench_merge, bench_hierarchical_merge_chain, bench_encode_decode, bench_classify);
criterion_main!(benches);
