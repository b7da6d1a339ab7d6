//! Single-pass multi-channel reduction vs. three sequential walks.
//!
//! The session front end merges three streams per gather (2D tree, 3D tree, rank
//! map).  Before the `reduce_channels` redesign it paid for three full bottom-up
//! walks of the overlay; now all three ride one walk.  This benchmark measures that
//! difference on emulated 64K-endpoint topologies (65,536 back-end daemons, the
//! paper's 2-deep shape and a 3-deep variant), with payloads sized like locally
//! merged ring-hang trees.
//!
//! In-process the reduction is memcpy-bound, so the headline quantity is the
//! *walk count* (level barriers and per-walk overhead paid once instead of three
//! times); on a real distributed TBON each extra walk would also pay the full
//! per-level network latency again.

// Benches are not public API; criterion_group! generates undocumented items.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};

use tbon::filter::{Filter, IdentityFilter};
use tbon::network::{ChannelInput, InProcessTbon};
use tbon::packet::{Packet, PacketTag};
use tbon::topology::{Topology, TreeShape};

const ENDPOINTS: u32 = 65_536;

/// One leaf packet per backend for one channel, `bytes` bytes each.
fn channel_leaves(net: &InProcessTbon, bytes: usize) -> Vec<Packet> {
    let payload = vec![0x5Au8; bytes];
    net.topology()
        .backends()
        .iter()
        .map(|&ep| Packet::new(PacketTag::Custom(0), ep, payload.clone()))
        .collect()
}

fn bench_shape(c: &mut Criterion, label: &str, spec: TreeShape) {
    let net = InProcessTbon::new(Topology::build(spec));
    // Three channels with distinct payload sizes, shaped like a hierarchical
    // session's streams: a small 2D tree, a larger 3D tree, and an 8-byte-per-task
    // rank map chunk.
    let leaves = || {
        [
            channel_leaves(&net, 96),
            channel_leaves(&net, 256),
            channel_leaves(&net, 64),
        ]
    };
    let filters: [&dyn Filter; 3] = [&IdentityFilter, &IdentityFilter, &IdentityFilter];

    let mut group = c.benchmark_group(label);
    group.sample_size(20);
    group.measurement_time(std::time::Duration::from_secs(8));

    group.bench_function("three_sequential_walks", |b| {
        b.iter_batched(
            leaves,
            |[a2d, a3d, amap]| {
                let o1 = net.reduce(a2d, &IdentityFilter).expect("leaf counts match");
                let o2 = net.reduce(a3d, &IdentityFilter).expect("leaf counts match");
                let o3 = net
                    .reduce(amap, &IdentityFilter)
                    .expect("leaf counts match");
                (o1, o2, o3)
            },
            BatchSize::LargeInput,
        )
    });

    group.bench_function("single_pass_reduce_channels", |b| {
        b.iter_batched(
            || {
                let [a2d, a3d, amap] = leaves();
                vec![
                    ChannelInput::new("2d-tree", a2d),
                    ChannelInput::new("3d-tree", a3d),
                    ChannelInput::new("rank-map", amap),
                ]
            },
            |channels| {
                net.reduce_channels(channels, &filters)
                    .expect("leaf counts match")
            },
            BatchSize::LargeInput,
        )
    });

    group.finish();
}

fn bench_single_pass_vs_sequential(c: &mut Criterion) {
    bench_shape(
        c,
        "reduce_64k_endpoints_2deep",
        TreeShape::two_deep(ENDPOINTS, 256),
    );
    bench_shape(
        c,
        "reduce_64k_endpoints_3deep",
        TreeShape::from_level_widths(vec![1, 16, 1_024, ENDPOINTS]),
    );
}

criterion_group!(
    name = benches;
    config = Criterion::default();
    targets = bench_single_pass_vs_sequential
);
criterion_main!(benches);
