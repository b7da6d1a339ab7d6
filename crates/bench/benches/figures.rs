//! Criterion wrappers around one representative point of each figure's harness, so
//! `cargo bench` exercises every experiment path end to end (full sweeps live in the
//! `stat_figures` binary).

// Benches are not public API; criterion_group! generates undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};

use launch::{BglCiodLauncher, CiodPatchLevel, LaunchMonLauncher, Launcher};
use machine::cluster::{BglMode, Cluster};
use machine::placement::PlacementPlan;
use stackwalk::sampler::{BinaryPlacement, SamplingCostModel};
use stat_core::prelude::*;
use tbon::topology::TreeShape;

fn bench_startup_models(c: &mut Criterion) {
    let atlas = Cluster::atlas();
    let bgl = Cluster::bluegene_l(BglMode::VirtualNode);
    c.bench_function("fig02_point_launchmon_512_daemons", |b| {
        let launcher = LaunchMonLauncher::new();
        b.iter(|| launcher.startup(&atlas, 4_096, &TreeShape::flat(512)))
    });
    c.bench_function("fig03_point_bgl_208k_patched", |b| {
        let launcher = BglCiodLauncher::new(CiodPatchLevel::Patched);
        let plan = PlacementPlan::for_job(&bgl, 212_992);
        let spec = TreeShape::for_placement(&plan, 2);
        b.iter(|| launcher.startup(&bgl, 212_992, &spec))
    });
}

fn bench_merge_models(c: &mut Criterion) {
    let bgl = Cluster::bluegene_l(BglMode::VirtualNode);
    c.bench_function("fig05_point_original_208k", |b| {
        let est = PhaseEstimator::new(bgl.clone(), Representation::GlobalBitVector);
        b.iter(|| est.merge_estimate(212_992, 2))
    });
    c.bench_function("fig07_point_optimized_208k", |b| {
        let est = PhaseEstimator::new(bgl.clone(), Representation::HierarchicalTaskList);
        b.iter(|| est.merge_estimate(212_992, 2))
    });
}

fn bench_sampling_models(c: &mut Criterion) {
    let atlas = Cluster::atlas();
    c.bench_function("fig10_point_sbrs_1024_tasks", |b| {
        let model = SamplingCostModel::new(atlas.clone());
        b.iter(|| model.estimate(1_024, BinaryPlacement::RelocatedRamDisk, 1))
    });
    let bgl = Cluster::bluegene_l(BglMode::VirtualNode);
    c.bench_function("fig09_point_bgl_208k_nfs", |b| {
        let model = SamplingCostModel::new(bgl.clone());
        b.iter(|| model.estimate(212_992, BinaryPlacement::NfsHome, 1))
    });
}

fn bench_real_session(c: &mut Criterion) {
    c.bench_function("real_session_ring_hang_512_tasks", |b| {
        let app = appsim::RingHangApp::new(512, appsim::FrameVocabulary::BlueGeneL);
        let session = Session::builder(Cluster::test_cluster(64, 8))
            .samples_per_task(3)
            .build();
        b.iter(|| session.attach(&app).expect("the session merges cleanly"))
    });
}

criterion_group!(
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(500));
    targets =     bench_startup_models,
    bench_merge_models,
    bench_sampling_models,
    bench_real_session
);
criterion_main!(benches);
