//! STAT's TBON filters.
//!
//! The tool's scalability comes from doing the merge *inside* the overlay network:
//! every communication process runs [`StatMergeFilter`] over the serialised prefix
//! trees arriving from its children and forwards one merged tree to its parent, so
//! the front end's work is independent of the daemon count.  A companion
//! [`RankMapFilter`] concatenates the daemons' local rank lists in exactly the same
//! child order, which is what makes the front end's remap step possible for the
//! hierarchical representation.
//!
//! Under wire format v2 the filter never touches a frame name: every packet in a
//! session carries ids from one negotiated [`stackwalk::FrameDictionary`], so
//! comparing two frames during the merge is integer equality on ids.  The filter
//! only has to union the incremental dictionary records its children shipped and
//! forward them with the merged tree, which keeps each packet self-contained.

use std::marker::PhantomData;

use tbon::filter::Filter;
use tbon::packet::{EndpointId, Packet, PacketTag};

use crate::graph::PrefixTree;
use crate::serialize::{
    decode_rank_map, decode_tree, encode_merged_tree, encode_rank_map, WireFrames, WireTaskSet,
};

/// The prefix-tree merge filter, generic over the task-set representation.
///
/// The filter is stateless: each invocation decodes the child packets into trees
/// carrying session-global frame ids, merges them left to right by id, and
/// re-encodes the result.  Malformed child payloads — including packets whose
/// dictionary negotiation does not match the sibling packets' — are skipped rather
/// than poisoning the whole reduction: a daemon that produced garbage should not
/// take down the session.
#[derive(Clone, Copy, Debug, Default)]
pub struct StatMergeFilter<S> {
    _repr: PhantomData<S>,
}

impl<S> StatMergeFilter<S> {
    /// A new filter instance.
    pub fn new() -> Self {
        StatMergeFilter { _repr: PhantomData }
    }
}

impl<S: WireTaskSet + Send + Sync> Filter for StatMergeFilter<S> {
    fn reduce(&self, node: EndpointId, inputs: &[Packet]) -> Packet {
        let tag = inputs.first().map(|p| p.tag).unwrap_or(PacketTag::Merged2d);
        let mut merged: Option<(PrefixTree<S>, WireFrames)> = None;
        for packet in inputs {
            let (tree, frames) = match decode_tree::<S>(&packet.payload) {
                Ok(decoded) => decoded,
                Err(_) => continue,
            };
            match merged.as_mut() {
                None => merged = Some((tree, frames)),
                // A child that cannot be merged by id (a foreign session's
                // dictionary) or by position (another job-wide width, which only
                // a concatenating merge could absorb) is skipped like any other
                // malformed child.
                Some((acc, acc_frames)) => {
                    if (S::CONCATENATES || tree.width() == acc.width())
                        && acc_frames.merge(&frames).is_ok()
                    {
                        // By-value merge: the decoded child tree's task sets move
                        // into the accumulator, nothing is cloned on the hot path.
                        acc.merge(tree);
                    }
                }
            }
        }
        match merged {
            Some((tree, frames)) => Packet::new(tag, node, encode_merged_tree(&tree, &frames)),
            None => Packet::control(tag, node),
        }
    }

    fn name(&self) -> &'static str {
        "stat-merge"
    }
}

/// Concatenates the daemons' rank maps in child order — the setup-phase companion of
/// the hierarchical merge.
#[derive(Clone, Copy, Debug, Default)]
pub struct RankMapFilter;

impl Filter for RankMapFilter {
    fn reduce(&self, node: EndpointId, inputs: &[Packet]) -> Packet {
        let mut ranks = Vec::new();
        for packet in inputs {
            if let Ok(mut chunk) = decode_rank_map(&packet.payload) {
                ranks.append(&mut chunk);
            }
        }
        Packet::new(PacketTag::RankMap, node, encode_rank_map(&ranks))
    }

    fn name(&self) -> &'static str {
        "stat-rankmap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{GlobalPrefixTree, SubtreePrefixTree};
    use crate::serialize::encode_tree;
    use crate::taskset::{DenseBitVector, SubtreeTaskList, TaskSetOps};
    use stackwalk::{FrameDictionary, FrameTable, StackTrace};

    fn session_dictionary() -> FrameDictionary {
        FrameDictionary::negotiate(["_start", "main", "MPI_Barrier", "do_SendOrStall"])
    }

    fn daemon_packet_global(
        dict: &FrameDictionary,
        source: u32,
        ranks: std::ops::Range<u64>,
        total: u64,
        stall_rank: Option<u64>,
    ) -> Packet {
        let mut table = FrameTable::new();
        let barrier = StackTrace::new(table.intern_path(&["_start", "main", "MPI_Barrier"]));
        let stall = StackTrace::new(table.intern_path(&["_start", "main", "do_SendOrStall"]));
        let mut tree = GlobalPrefixTree::new_global(total);
        for rank in ranks {
            let t = if Some(rank) == stall_rank {
                &stall
            } else {
                &barrier
            };
            tree.add_trace(t, rank);
        }
        Packet::new(
            PacketTag::Merged2d,
            EndpointId(source),
            encode_tree(&tree, &table, dict),
        )
    }

    #[test]
    fn global_filter_merges_children() {
        let dict = session_dictionary();
        let filter = StatMergeFilter::<DenseBitVector>::new();
        let inputs = vec![
            daemon_packet_global(&dict, 1, 0..8, 24, Some(1)),
            daemon_packet_global(&dict, 2, 8..16, 24, None),
            daemon_packet_global(&dict, 3, 16..24, 24, None),
        ];
        let out = filter.reduce(EndpointId(0), &inputs);
        let (tree, _frames): (GlobalPrefixTree, WireFrames) = decode_tree(&out.payload).unwrap();
        assert_eq!(tree.tasks(tree.root()).count(), 24);
        let leaves = tree.leaves();
        assert_eq!(leaves.len(), 2);
        let stall_leaf = leaves
            .iter()
            .copied()
            .find(|&l| tree.tasks(l).count() == 1)
            .unwrap();
        assert_eq!(tree.tasks(stall_leaf).members(), vec![1]);
    }

    #[test]
    fn subtree_filter_concatenates_domains_in_child_order() {
        let dict = session_dictionary();
        let mut table = FrameTable::new();
        let barrier = StackTrace::new(table.intern_path(&["_start", "main", "MPI_Barrier"]));
        let make = |local_tasks: u64| {
            let mut tree = SubtreePrefixTree::new_subtree(local_tasks);
            for p in 0..local_tasks {
                tree.add_trace(&barrier, p);
            }
            Packet::new(
                PacketTag::Merged2d,
                EndpointId(9),
                encode_tree(&tree, &table, &dict),
            )
        };
        let filter = StatMergeFilter::<SubtreeTaskList>::new();
        let out = filter.reduce(EndpointId(0), &[make(4), make(8), make(2)]);
        let (tree, _frames): (SubtreePrefixTree, WireFrames) = decode_tree(&out.payload).unwrap();
        assert_eq!(tree.width(), 14);
        assert_eq!(tree.tasks(tree.root()).count(), 14);
    }

    #[test]
    fn malformed_children_are_skipped() {
        let dict = session_dictionary();
        let filter = StatMergeFilter::<DenseBitVector>::new();
        let good = daemon_packet_global(&dict, 1, 0..4, 8, None);
        let bad = Packet::new(PacketTag::Merged2d, EndpointId(2), vec![1, 2, 3]);
        let out = filter.reduce(EndpointId(0), &[bad, good]);
        let (tree, _frames): (GlobalPrefixTree, WireFrames) = decode_tree(&out.payload).unwrap();
        assert_eq!(tree.tasks(tree.root()).count(), 4);
    }

    #[test]
    fn dense_children_over_another_job_width_are_skipped() {
        // Well-formed, but its header claims a 32-task job where the first child
        // claimed 24: a job-wide merge has no way to line the two domains up.
        let dict = session_dictionary();
        let filter = StatMergeFilter::<DenseBitVector>::new();
        let ours = daemon_packet_global(&dict, 1, 0..8, 24, None);
        let wider = daemon_packet_global(&dict, 2, 8..16, 32, None);
        let out = filter.reduce(EndpointId(0), &[ours, wider]);
        let (tree, _frames): (GlobalPrefixTree, WireFrames) = decode_tree(&out.payload).unwrap();
        assert_eq!(tree.width(), 24);
        assert_eq!(tree.tasks(tree.root()).count(), 8);
    }

    #[test]
    fn foreign_session_children_are_skipped_like_corruption() {
        // Two packets negotiated against *different* dictionaries cannot be
        // merged by id; the filter keeps the first and skips the imposter.
        let dict = session_dictionary();
        let other = FrameDictionary::negotiate(["_start"]);
        let filter = StatMergeFilter::<DenseBitVector>::new();
        let ours = daemon_packet_global(&dict, 1, 0..4, 8, None);
        let theirs = daemon_packet_global(&other, 2, 4..8, 8, None);
        let out = filter.reduce(EndpointId(0), &[ours, theirs]);
        let (tree, frames): (GlobalPrefixTree, WireFrames) = decode_tree(&out.payload).unwrap();
        assert_eq!(tree.tasks(tree.root()).count(), 4);
        assert_eq!(frames.base_len(), dict.base_len());
    }

    #[test]
    fn empty_wave_produces_a_control_packet() {
        let filter = StatMergeFilter::<DenseBitVector>::new();
        let out = filter.reduce(EndpointId(0), &[]);
        assert_eq!(out.size_bytes(), 0);
    }

    #[test]
    fn rank_map_filter_concatenates_in_order() {
        let filter = RankMapFilter;
        let a = Packet::new(PacketTag::RankMap, EndpointId(1), encode_rank_map(&[0, 2]));
        let b = Packet::new(PacketTag::RankMap, EndpointId(2), encode_rank_map(&[1, 3]));
        let out = filter.reduce(EndpointId(0), &[a, b]);
        assert_eq!(decode_rank_map(&out.payload).unwrap(), vec![0, 2, 1, 3]);
    }
}
