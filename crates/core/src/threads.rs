//! The Section VII projection: what threading does to the tool.
//!
//! The paper's closing technical section looks ahead to multithreaded applications:
//! STAT will collect one call stack per *thread* instead of per process, keep
//! associating stacks with processes, and expects a constant per-thread slowdown in
//! sampling (it happens in parallel across nodes) plus only a logarithmic slowdown in
//! merging (the TBON absorbs the extra volume).  Threads are, however, "a potentially
//! unbounded multiplier on the amount of data being collected": 10,000 nodes × 8
//! threads looks like 80,000 nodes to the tool.
//!
//! This module measures that multiplier for real — by gathering from the multithreaded
//! workload and counting the traces and bytes the daemons actually produce — and
//! projects sampling and merge times for thread counts via the cost models, which is
//! what the `ablation_threads` bench reports.

use appsim::{Application, FrameVocabulary, ThreadedApp};
use machine::cluster::Cluster;
use machine::placement::PlacementPlan;
use simkit::time::SimDuration;
use stackwalk::sampler::{BinaryPlacement, SamplingConfig, SamplingCostModel};
use tbon::cost::{price_reduction, Labels, TreePayload};
use tbon::topology::TreeShape;

use crate::daemon::StatDaemon;
use crate::taskset::SubtreeTaskList;

/// Measured consequences of a thread count, from real tree construction.
#[derive(Clone, Debug)]
pub struct ThreadMeasurement {
    /// Threads per task (including the MPI thread).
    pub threads_per_task: u32,
    /// Traces one daemon gathered.
    pub traces_gathered: u64,
    /// Serialised bytes of that daemon's 3D tree packet.
    pub tree_bytes: u64,
    /// Nodes in that daemon's 3D tree.
    pub tree_nodes: usize,
}

/// Gather from a multithreaded job at several thread counts and measure the data
/// volume one daemon produces.  Uses the hierarchical representation (the one a
/// petascale deployment would use).
pub fn measure_thread_scaling(
    tasks_per_daemon: u64,
    worker_threads: &[u32],
    samples: u32,
) -> Vec<ThreadMeasurement> {
    worker_threads
        .iter()
        .map(|&workers| {
            let app = ThreadedApp::new(tasks_per_daemon, workers, FrameVocabulary::Linux);
            let dict = stackwalk::FrameDictionary::negotiate(app.frame_hints());
            let daemon = StatDaemon::new(0, (0..tasks_per_daemon).collect(), tasks_per_daemon);
            let contribution = daemon.contribute::<SubtreeTaskList>(
                &app,
                samples,
                tbon::packet::EndpointId(1),
                &dict,
            );
            let (tree, _frames): (crate::graph::SubtreePrefixTree, _) =
                crate::serialize::decode_tree(&contribution.tree_3d.payload)
                    .expect("round trip of our own packet");
            ThreadMeasurement {
                threads_per_task: app.threads_per_task(),
                traces_gathered: contribution.traces_gathered,
                tree_bytes: contribution.tree_3d.size_bytes() as u64,
                tree_nodes: tree.node_count(),
            }
        })
        .collect()
}

/// Projected tool-phase costs for a thread count, from the environment models.
#[derive(Clone, Debug)]
pub struct ThreadProjection {
    /// Threads per task (including the MPI thread).
    pub threads_per_task: u32,
    /// Projected sampling time.
    pub sampling: SimDuration,
    /// Projected merge time.
    pub merge: SimDuration,
}

/// Project sampling and merge times for several thread counts at a given job size.
///
/// Sampling multiplies the traces gathered per task (a constant per-thread slowdown,
/// matching the paper's expectation); merging multiplies the per-edge data volume and
/// the tree width, which the TBON turns into a roughly logarithmic slowdown.
pub fn project_thread_counts(
    cluster: &Cluster,
    tasks: u64,
    thread_counts: &[u32],
    seed: u64,
) -> Vec<ThreadProjection> {
    let job = cluster.job(tasks);
    let two_deep = TreeShape::for_placement(&PlacementPlan::for_job(cluster, tasks), 2);
    let single_threaded =
        TreePayload::ring_hang(job.tasks, job.tasks_per_daemon as u64, Labels::Subtree);
    thread_counts
        .iter()
        .map(|&threads| {
            let threads = threads.max(1);
            let mut sampling_cfg = SamplingConfig::default();
            sampling_cfg.samples_per_task *= threads;
            let sampling = SamplingCostModel::new(cluster.clone())
                .with_config(sampling_cfg)
                .estimate(tasks, BinaryPlacement::RelocatedRamDisk, seed)
                .total;

            // Each thread contributes its own leaf fan to the local trees, so the
            // merged data volume grows with the thread count.
            let payload = TreePayload {
                edges: single_threaded.edges * threads as u64,
                ..single_threaded
            };
            let merge = price_reduction(cluster, &two_deep, &payload).critical_path;
            ThreadProjection {
                threads_per_task: threads,
                sampling,
                merge,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use machine::cluster::BglMode;

    #[test]
    fn threads_multiply_gathered_traces_linearly() {
        let measurements = measure_thread_scaling(8, &[0, 1, 3, 7], 2);
        assert_eq!(measurements.len(), 4);
        assert_eq!(measurements[0].threads_per_task, 1);
        assert_eq!(measurements[3].threads_per_task, 8);
        // 8 threads gather 8x the traces of 1 thread.
        assert_eq!(
            measurements[3].traces_gathered,
            8 * measurements[0].traces_gathered
        );
        // Data volume grows with threads, though sublinearly (shared prefixes merge).
        assert!(measurements[3].tree_bytes > measurements[0].tree_bytes);
        assert!(measurements[3].tree_nodes > measurements[0].tree_nodes);
    }

    #[test]
    fn projected_sampling_slowdown_is_roughly_constant_per_thread() {
        let cluster = Cluster::bluegene_l(BglMode::CoProcessor);
        let projections = project_thread_counts(&cluster, 65_536, &[1, 8], 3);
        let per_thread = projections[1].sampling.as_secs() / projections[0].sampling.as_secs();
        // 8 threads cost more than 1 but far less than something super-linear; the
        // paper expects "only a constant slowdown per thread".
        assert!(per_thread > 1.5 && per_thread < 16.0, "got {per_thread}");
    }

    #[test]
    fn projected_merge_slowdown_is_modest() {
        let cluster = Cluster::bluegene_l(BglMode::CoProcessor);
        let projections = project_thread_counts(&cluster, 65_536, &[1, 8], 3);
        let merge_ratio = projections[1].merge.as_secs() / projections[0].merge.as_secs();
        // The data volume grew 8x; the hierarchical merge should absorb most of it.
        assert!(merge_ratio < 10.0, "got {merge_ratio}");
        assert!(merge_ratio > 1.0);
    }
}
