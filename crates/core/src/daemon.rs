//! The STAT back-end daemon.
//!
//! One daemon runs per compute node (Atlas) or per I/O node (BG/L).  Its job is
//! small and local — and it is where the volume is: walk the call paths of the MPI
//! tasks it is responsible for straight into *locally merged* 2D and 3D prefix
//! trees ([`StatDaemon::contribute`]; no trace is materialised on the way), and
//! hand the serialised trees (plus its local rank list) to the overlay network.
//! Everything global happens in the filters above it.

use std::ops::Range;
use std::time::Instant;

use appsim::Application;
use stackwalk::{FrameDictionary, FrameTable, TaskSamples};
use tbon::packet::{EndpointId, Packet, PacketTag};

use crate::graph::{NodeIdx, PrefixTree};
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

    /// Gather `samples` traces from each local task of `app`, materialised: the
    /// sampling half of [`StatDaemon::contribute`], staged.
    pub fn gather(
        &self,
        app: &dyn Application,
        samples: u32,
        table: &mut FrameTable,
    ) -> Vec<TaskSamples> {
        appsim::gather_samples_for_ranks(app, &self.ranks, samples, table)
    }

    /// Build the locally merged 2D and 3D trees from gathered samples: the merging
    /// half of [`StatDaemon::contribute`], staged, on the same `LocalTrees` core.
    /// No samples gives the daemon's empty trees.
    pub fn build_trees<S: WireTaskSet>(
        &self,
        samples: &[TaskSamples],
    ) -> (PrefixTree<S>, PrefixTree<S>) {
        let mut trees = LocalTrees::new(self);
        for (position, task) in samples.iter().enumerate() {
            for (nth, trace) in task.traces.iter().enumerate() {
                trees.record(position, task.rank, nth, |t| t.descend(trace.frames()));
            }
        }
        trees.close()
    }

    /// The daemon-local phase as one walk: every call path sampled over the sample
    /// indices of `window` descends the local trees by frame name, then the
    /// closed trees and the rank list are encoded into the three leaf packets.
    /// Also hands back the 3D tree, for the streaming caller that goes on to diff
    /// the wave against it.
    pub(crate) fn contribute_from<S: WireTaskSet>(
        &self,
        app: &dyn Application,
        window: Range<u32>,
        leaf: EndpointId,
        table: &mut FrameTable,
        dict: &FrameDictionary,
    ) -> (DaemonContribution, PrefixTree<S>) {
        let sample_start = Instant::now();
        let mut trees = LocalTrees::new(self);
        let mut traces = 0;
        appsim::for_each_sampled_path(app, &self.ranks, window, |position, nth, path| {
            let rank = self.ranks[position];
            trees.record(position, rank, nth, |t| t.descend_named(table, path));
            traces += 1;
        });
        let merge_start = Instant::now();
        let (tree_2d, tree_3d) = trees.close();
        let packet = |tag, payload: Vec<u8>| Packet::new(tag, leaf, payload);
        let contribution = DaemonContribution {
            daemon_id: self.id,
            tree_2d: packet(PacketTag::Merged2d, encode_tree(&tree_2d, table, dict)),
            tree_3d: packet(PacketTag::Merged3d, encode_tree(&tree_3d, table, dict)),
            rank_map: packet(PacketTag::RankMap, encode_rank_map(&self.ranks)),
            traces_gathered: traces,
            sample_wall: merge_start - sample_start,
            local_merge_wall: merge_start.elapsed(),
        };
        (contribution, tree_3d)
    }

    /// Run one full gather-and-merge cycle and package the results for the TBON.
    ///
    /// Sampling and local merging are one walk (`StatDaemon::contribute_from`),
    /// still timed as the two phases the paper measures: *sample* is the
    /// application's call paths, their descent into the local trees and the end
    /// marks; *local merge* is the upward close and the encode.  `dict` is the
    /// session's negotiated frame dictionary: the daemon still symbolises into its
    /// own local [`FrameTable`], but the v2 encoder relabels every frame to its
    /// session-global id on the way out.
    pub fn contribute<S: WireTaskSet>(
        &self,
        app: &dyn Application,
        samples: u32,
        leaf_endpoint: EndpointId,
        dict: &FrameDictionary,
    ) -> DaemonContribution {
        let mut table = FrameTable::new();
        self.contribute_from::<S>(app, 0..samples, leaf_endpoint, &mut table, dict)
            .0
    }
}

/// A daemon's 2D and 3D trees while traces are being recorded into them.  A task
/// is marked only on the node where a trace of its *ends*; [`LocalTrees::close`]
/// then ORs every label into its parent, which makes each label "every task that
/// reached this frame".  Sampled names and gathered frame ids both come through
/// here, so they cannot disagree on a task's index or on what feeds the 2D tree.
struct LocalTrees<S: WireTaskSet>(PrefixTree<S>, PrefixTree<S>);

impl<S: WireTaskSet> LocalTrees<S> {
    /// Empty trees over the daemon's domain: the whole job for the global (dense)
    /// representation, the daemon's own tasks for the hierarchical one.
    fn new(daemon: &StatDaemon) -> Self {
        let width = if S::CONCATENATES {
            daemon.local_tasks()
        } else {
            daemon.total_tasks
        };
        LocalTrees(PrefixTree::new(width), PrefixTree::new(width))
    }

    /// Record the `nth` trace of task `rank`, at `position` in the daemon's list:
    /// `descend` walks it into the tree it is handed and returns the end node.
    /// Every trace feeds the 3D tree, a task's first also the 2D tree; the task is
    /// indexed by rank in a job-wide domain, by position in a concatenating one.
    fn record(
        &mut self,
        position: usize,
        rank: u64,
        nth: usize,
        mut descend: impl FnMut(&mut PrefixTree<S>) -> NodeIdx,
    ) {
        let index = if S::CONCATENATES {
            position as u64
        } else {
            rank
        };
        let LocalTrees(tree_2d, tree_3d) = self;
        if nth == 0 {
            let end = descend(tree_2d);
            tree_2d.mark(end, index);
        }
        let end = descend(tree_3d);
        tree_3d.mark(end, index);
    }

    fn close(self) -> (PrefixTree<S>, PrefixTree<S>) {
        let LocalTrees(mut tree_2d, mut tree_3d) = self;
        tree_2d.close_upward();
        tree_3d.close_upward();
        (tree_2d, tree_3d)
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

    /// 64-bit FNV-1a over the three payloads of every daemon's contribution, in
    /// daemon order.
    fn contribution_digest<S: WireTaskSet>(
        app: &dyn Application,
        daemons: u32,
        samples: u32,
    ) -> u64 {
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for daemon in StatDaemon::partition(app.num_tasks(), daemons) {
            let c = daemon.contribute::<S>(app, samples, EndpointId(daemon.id), &dict);
            for payload in [&c.tree_2d.payload, &c.tree_3d.payload, &c.rank_map.payload] {
                for &byte in payload.iter() {
                    hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        hash
    }

    #[test]
    fn daemon_leaf_bytes_are_pinned_to_the_pre_fusion_values() {
        // Recorded at the commit before sampling and local tree building were fused
        // (PR 16, `eb7edc1`): the fused walk must ship the same bytes, daemon for
        // daemon, and the stream the same per-wave accounting.
        let v = FrameVocabulary::BlueGeneL;
        let ring = RingHangApp::new(1_024, v).with_hung_rank(5);
        let threaded = appsim::ThreadedApp::new(256, 3, v);
        let corrupted = appsim::CorruptedStackApp::new(512, 7, v);
        let digests = [
            contribution_digest::<DenseBitVector>(&ring, 8, 3),
            contribution_digest::<SubtreeTaskList>(&ring, 8, 3),
            contribution_digest::<DenseBitVector>(&threaded, 8, 3),
            contribution_digest::<SubtreeTaskList>(&threaded, 8, 3),
            contribution_digest::<DenseBitVector>(&corrupted, 8, 3),
            contribution_digest::<SubtreeTaskList>(&corrupted, 8, 3),
        ];
        assert_eq!(
            digests,
            [
                0x11c7_f251_06bb_dba1,
                0x9287_c677_0010_b5d3,
                0x3b2a_e91e_f499_3e1f,
                0xb470_1f9a_f680_c9e7,
                0x1a78_1a07_9df6_a46f,
                0x98e7_cbf7_079d_ed61,
            ],
            "{digests:#x?}"
        );

        // A 6-wave stream over 256 tasks whose ring hang strikes at wave 2: per
        // wave (packet_bytes, delta_bytes, full_packet_bytes, classes,
        // resident_bytes).
        let waves_of = |representation| {
            let scenario = appsim::catalogue(256, v)
                .into_iter()
                .find(|s| s.name == "ring_hang")
                .expect("the catalogue always carries ring_hang");
            let mut stream =
                crate::session::Session::builder(machine::Cluster::test_cluster(32, 8))
                    .representation(representation)
                    .streaming(2)
                    .open(Box::new(appsim::FaultSchedule::new(scenario, v, 2)))
                    .expect("the stream opens");
            (0..6)
                .map(|_| {
                    let w = stream.advance().expect("the wave advances");
                    (
                        w.packet_bytes,
                        w.delta_bytes,
                        w.full_packet_bytes,
                        w.classes,
                        stream.resident_bytes(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let dense = waves_of(crate::frontend::Representation::GlobalBitVector);
        let hier = waves_of(crate::frontend::Representation::HierarchicalTaskList);
        assert_eq!(
            dense,
            [
                (6016, 3008, 3008, 1, 1119),
                (6016, 480, 3008, 1, 1119),
                (10188, 3926, 5110, 4, 2039),
                (10154, 3258, 5114, 4, 2043),
                (10204, 480, 5114, 4, 2043),
                (10188, 480, 5114, 4, 2043),
            ]
        );
        assert_eq!(
            hier,
            [
                (2360, 1024, 1024, 1, 225),
                (2360, 352, 1024, 1, 225),
                (5385, 2265, 2265, 4, 832),
                (5330, 2112, 1769, 4, 706),
                (5418, 352, 1769, 4, 706),
                (5385, 352, 1769, 4, 706),
            ]
        );
    }
}
