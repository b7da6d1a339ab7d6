//! Criterion micro-benchmarks of the task-set representations: union, concatenation
//! (rebase) and the front-end remap step.

// Benches are not public API; criterion_group! generates undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use stat_core::prelude::*;

fn bench_dense_union(c: &mut Criterion) {
    let mut group = c.benchmark_group("dense_union");
    for tasks in [8_192u64, 212_992] {
        let mut a = DenseBitVector::empty(tasks);
        let mut b = DenseBitVector::empty(tasks);
        for i in (0..tasks).step_by(3) {
            a.insert(i);
        }
        for i in (1..tasks).step_by(3) {
            b.insert(i);
        }
        group.bench_with_input(BenchmarkId::from_parameter(tasks), &tasks, |bench, _| {
            bench.iter(|| {
                let mut acc = a.clone();
                acc.union_in_place(&b);
                acc
            })
        });
    }
    group.finish();
}

fn bench_subtree_concat(c: &mut Criterion) {
    let mut group = c.benchmark_group("subtree_concatenate");
    for local in [64u64, 1_024, 106_496] {
        let mut a = SubtreeTaskList::empty(local);
        let mut b = SubtreeTaskList::empty(local);
        for i in 0..local {
            a.insert(i);
            if i % 2 == 0 {
                b.insert(i);
            }
        }
        group.bench_with_input(
            BenchmarkId::from_parameter(local),
            &local,
            |bench, &local| {
                bench.iter(|| {
                    let mut left = a.clone();
                    let mut right = b.clone();
                    left.rebase(0, local * 2);
                    right.rebase(local, local * 2);
                    left.union_in_place(&right);
                    left
                })
            },
        );
    }
    group.finish();
}

/// The rank map the front end actually sees: positions arrive in daemon
/// (TBON child) order, each daemon's block of ranks contiguous and ascending,
/// with the daemon blocks themselves permuted.  BG/L VN shape: 128 tasks per
/// I/O-node daemon.
fn blocked_rank_map(tasks: u64, tasks_per_daemon: u64) -> RankRuns {
    let daemons = tasks / tasks_per_daemon;
    (0..tasks)
        .map(|pos| {
            let daemon = pos / tasks_per_daemon;
            let local = pos % tasks_per_daemon;
            (daemons - 1 - daemon) * tasks_per_daemon + local
        })
        .collect()
}

fn bench_remap(c: &mut Criterion) {
    // The realistic front-end workload (daemon-blocked rank map) — the series
    // `results/BENCH_merge.md` tracks.
    let mut group = c.benchmark_group("remap_to_rank_order");
    group.sample_size(10);
    for tasks in [8_192u64, 212_992] {
        let mut set = SubtreeTaskList::empty(tasks);
        for i in 0..tasks {
            set.insert(i);
        }
        let map = blocked_rank_map(tasks, 128);
        group.bench_with_input(
            BenchmarkId::from_parameter(tasks),
            &tasks,
            |bench, &tasks| bench.iter(|| set.remap_to_dense(&map, tasks)),
        );
    }
    group.finish();

    // The adversarial map (every position reverses): no contiguous runs at all.
    let mut group = c.benchmark_group("remap_to_rank_order_scattered");
    group.sample_size(10);
    for tasks in [8_192u64, 212_992] {
        let mut set = SubtreeTaskList::empty(tasks);
        for i in 0..tasks {
            set.insert(i);
        }
        let map: RankRuns = (0..tasks).rev().collect();
        group.bench_with_input(
            BenchmarkId::from_parameter(tasks),
            &tasks,
            |bench, &tasks| bench.iter(|| set.remap_to_dense(&map, tasks)),
        );
    }
    group.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_dense_union, bench_subtree_concat, bench_remap);
criterion_main!(benches);
