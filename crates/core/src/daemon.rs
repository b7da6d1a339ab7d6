//! The STAT back-end daemon.
//!
//! One daemon runs per compute node (Atlas) or per I/O node (BG/L).  Its job is
//! small and local: attach to the MPI tasks it is responsible for, gather a window of
//! stack traces from each via the stack walker, fold them into *locally merged* 2D
//! and 3D prefix trees, and hand the serialised trees (plus its local rank list) to
//! the overlay network.  Everything global happens in the filters above it.

use appsim::Application;
use stackwalk::{FrameDictionary, FrameTable, TaskSamples};
use tbon::packet::{EndpointId, Packet, PacketTag};

use crate::graph::PrefixTree;
use crate::serialize::{encode_rank_map, encode_tree, WireTaskSet};

/// A back-end daemon responsible for a contiguous slice of MPI ranks.
#[derive(Clone, Debug)]
pub struct StatDaemon {
    /// Daemon index (also its leaf position in the TBON, in backend order).
    pub id: u32,
    /// The MPI ranks this daemon gathers traces from, ascending.
    pub ranks: Vec<u64>,
    /// Total tasks in the job (needed for the global representation's domain).
    pub total_tasks: u64,
}

/// Everything a daemon contributes to one gather: serialised trees and its rank map.
#[derive(Clone, Debug)]
pub struct DaemonContribution {
    /// The daemon that produced this contribution.
    pub daemon_id: u32,
    /// Serialised locally merged 2D (trace/space) tree.
    pub tree_2d: Packet,
    /// Serialised locally merged 3D (trace/space/time) tree.
    pub tree_3d: Packet,
    /// The daemon's local rank list, for the front-end remap.
    pub rank_map: Packet,
    /// Number of traces gathered from local tasks.
    pub traces_gathered: u64,
    /// Wall-clock time this daemon spent gathering stack traces.
    pub sample_wall: std::time::Duration,
    /// Wall-clock time this daemon spent building and serialising its local trees.
    pub local_merge_wall: std::time::Duration,
}

impl StatDaemon {
    /// A daemon serving the given ranks of a `total_tasks`-task job.
    pub fn new(id: u32, ranks: Vec<u64>, total_tasks: u64) -> Self {
        StatDaemon {
            id,
            ranks,
            total_tasks,
        }
    }

    /// Partition a job of `total_tasks` ranks over `daemons` daemons the way the
    /// machines in the paper do: contiguous blocks in rank order, the earlier daemons
    /// taking the remainder.
    pub fn partition(total_tasks: u64, daemons: u32) -> Vec<StatDaemon> {
        let daemons = daemons.max(1) as u64;
        let base = total_tasks / daemons;
        let extra = total_tasks % daemons;
        let mut out = Vec::with_capacity(daemons as usize);
        let mut next_rank = 0u64;
        for d in 0..daemons {
            let count = base + if d < extra { 1 } else { 0 };
            let ranks: Vec<u64> = (next_rank..next_rank + count).collect();
            next_rank += count;
            out.push(StatDaemon::new(d as u32, ranks, total_tasks));
        }
        out
    }

    /// Number of local tasks.
    pub fn local_tasks(&self) -> u64 {
        self.ranks.len() as u64
    }

    /// Gather `samples` traces from each local task of `app`.
    pub fn gather(
        &self,
        app: &dyn Application,
        samples: u32,
        table: &mut FrameTable,
    ) -> Vec<TaskSamples> {
        appsim::gather_samples_for_ranks(app, &self.ranks, samples, table)
    }

    /// Build the locally merged 2D and 3D trees from gathered samples.
    ///
    /// The index used for each task depends on the representation: the global (dense)
    /// representation indexes by MPI rank in a job-wide domain, the hierarchical one
    /// (whose merges concatenate) by local position in a domain the size of this
    /// daemon's task list.  No samples gives the daemon's empty trees.
    pub fn build_trees<S: WireTaskSet>(
        &self,
        samples: &[TaskSamples],
    ) -> (PrefixTree<S>, PrefixTree<S>) {
        let width = if S::CONCATENATES {
            self.local_tasks()
        } else {
            self.total_tasks
        };
        let mut tree_2d = PrefixTree::<S>::new(width);
        let mut tree_3d = PrefixTree::<S>::new(width);
        for (local_pos, task) in samples.iter().enumerate() {
            let index = if S::CONCATENATES {
                local_pos as u64
            } else {
                task.rank
            };
            tree_2d.add_first_sample(task, index);
            tree_3d.add_samples(task, index);
        }
        (tree_2d, tree_3d)
    }

    /// Run one full gather-and-merge cycle and package the results for the TBON.
    ///
    /// The two daemon-local phases — sampling the application and building the local
    /// trees — are timed separately so the session can report the pipeline breakdown
    /// the paper measures.  `dict` is the session's negotiated frame dictionary:
    /// the daemon still symbolises into its own local [`FrameTable`], but the v2
    /// encoder relabels every frame to its session-global id on the way out.
    pub fn contribute<S: WireTaskSet>(
        &self,
        app: &dyn Application,
        samples: u32,
        leaf_endpoint: EndpointId,
        dict: &FrameDictionary,
    ) -> DaemonContribution {
        let mut table = FrameTable::new();
        let sample_start = std::time::Instant::now();
        let gathered = self.gather(app, samples, &mut table);
        let sample_wall = sample_start.elapsed();
        let traces: u64 = gathered.iter().map(|t| t.sample_count() as u64).sum();
        let merge_start = std::time::Instant::now();
        let (tree_2d, tree_3d) = self.build_trees::<S>(&gathered);
        DaemonContribution {
            daemon_id: self.id,
            tree_2d: Packet::new(
                PacketTag::Merged2d,
                leaf_endpoint,
                encode_tree(&tree_2d, &table, dict),
            ),
            tree_3d: Packet::new(
                PacketTag::Merged3d,
                leaf_endpoint,
                encode_tree(&tree_3d, &table, dict),
            ),
            rank_map: Packet::new(
                PacketTag::RankMap,
                leaf_endpoint,
                encode_rank_map(&self.ranks),
            ),
            traces_gathered: traces,
            sample_wall,
            local_merge_wall: merge_start.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serialize::decode_tree;
    use crate::taskset::{DenseBitVector, SubtreeTaskList, TaskSetOps};
    use appsim::{FrameVocabulary, RingHangApp};

    #[test]
    fn partition_covers_every_rank_exactly_once() {
        let daemons = StatDaemon::partition(1_000, 7);
        assert_eq!(daemons.len(), 7);
        let mut all: Vec<u64> = daemons.iter().flat_map(|d| d.ranks.clone()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..1_000).collect::<Vec<_>>());
        // Sizes differ by at most one.
        let sizes: Vec<usize> = daemons.iter().map(|d| d.ranks.len()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn partition_with_more_daemons_than_tasks() {
        let daemons = StatDaemon::partition(3, 8);
        let nonempty = daemons.iter().filter(|d| !d.ranks.is_empty()).count();
        assert_eq!(nonempty, 3);
        assert_eq!(daemons.len(), 8);
    }

    #[test]
    fn daemon_trees_reflect_local_tasks_only() {
        let app = RingHangApp::new(64, FrameVocabulary::Linux);
        let daemons = StatDaemon::partition(64, 8);
        let d0 = &daemons[0]; // ranks 0..8, includes the hung rank 1 and victim 2
        let mut table = FrameTable::new();
        let samples = d0.gather(&app, 2, &mut table);
        assert_eq!(samples.len(), 8);

        let (tree_2d, tree_3d) = d0.build_trees::<DenseBitVector>(&samples);
        assert_eq!(tree_2d.tasks(tree_2d.root()).count(), 8);
        assert!(tree_3d.node_count() >= tree_2d.node_count());

        let (sub_2d, _) = d0.build_trees::<SubtreeTaskList>(&samples);
        assert_eq!(sub_2d.width(), 8);
        assert_eq!(sub_2d.tasks(sub_2d.root()).count(), 8);
    }

    #[test]
    fn contribution_packets_decode_back() {
        let app = RingHangApp::new(32, FrameVocabulary::BlueGeneL);
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let daemons = StatDaemon::partition(32, 4);
        let c = daemons[1].contribute::<DenseBitVector>(&app, 3, EndpointId(5), &dict);
        assert_eq!(c.daemon_id, 1);
        assert_eq!(c.traces_gathered, 8 * 3);
        let (tree, _frames): (PrefixTree<DenseBitVector>, _) =
            decode_tree(&c.tree_2d.payload).unwrap();
        assert_eq!(tree.tasks(tree.root()).members(), daemons[1].ranks);
        let map = crate::serialize::decode_rank_map(&c.rank_map.payload).unwrap();
        assert_eq!(map, daemons[1].ranks);
    }

    #[test]
    fn hierarchical_contribution_is_much_smaller_for_big_jobs() {
        let app = RingHangApp::new(8_192, FrameVocabulary::BlueGeneL);
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let daemons = StatDaemon::partition(8_192, 64);
        let dense = daemons[0].contribute::<DenseBitVector>(&app, 1, EndpointId(1), &dict);
        let hier = daemons[0].contribute::<SubtreeTaskList>(&app, 1, EndpointId(1), &dict);
        assert!(dense.tree_2d.size_bytes() > 10 * hier.tree_2d.size_bytes());
    }
}
