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
//! The merge filter never materialises a tree, and never touches a frame name:
//! it reads each child's v2 body into flat columns and folds them into one output
//! body, matching frames by their session-global ids and forwarding the
//! incremental dictionary records the output references.

use std::marker::PhantomData;

use tbon::filter::Filter;
use tbon::packet::{EndpointId, Packet, PacketTag};

use crate::serialize::{decode_rank_map, encode_rank_map, merge_bodies, WireTaskSet};

/// The prefix-tree merge filter, generic over the task-set representation.
///
/// The filter is stateless: each invocation folds the child packets left to right
/// into the bytes a decode → [`crate::graph::PrefixTree::merge`] → re-encode of
/// them would ship.  Malformed child payloads — including packets whose
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
        match merge_bodies::<S>(inputs.iter().map(|p| p.payload.as_ref())) {
            Some(body) => Packet::new(tag, node, body),
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
    use crate::graph::{GlobalPrefixTree, PrefixTree, SubtreePrefixTree};
    use crate::serialize::{
        decode_tree, encode_merged_tree, encode_tree, SetCodec, WireFrames, MAGIC, VERSION,
    };
    use crate::taskset::{DenseBitVector, SubtreeTaskList, TaskSetOps};
    use appsim::Application;
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

    /// The filter as it was before it merged on the wire: decode every child
    /// into a tree, merge left to right, re-encode.
    fn tree_merge_reference<S: WireTaskSet>(inputs: &[Packet]) -> Packet {
        let tag = inputs.first().map(|p| p.tag).unwrap_or(PacketTag::Merged2d);
        let mut merged: Option<(PrefixTree<S>, WireFrames)> = None;
        for packet in inputs {
            let Ok((tree, frames)) = decode_tree::<S>(&packet.payload) else {
                continue;
            };
            match merged.as_mut() {
                None => merged = Some((tree, frames)),
                Some((acc, acc_frames)) => {
                    if (S::CONCATENATES || tree.width() == acc.width())
                        && acc_frames.merge(&frames).is_ok()
                    {
                        acc.merge(tree);
                    }
                }
            }
        }
        match merged {
            Some((tree, frames)) => {
                Packet::new(tag, EndpointId(0), encode_merged_tree(&tree, &frames))
            }
            None => Packet::control(tag, EndpointId(0)),
        }
    }

    /// Run one wave through the filter and the reference; they must agree byte
    /// for byte.  Returns the filter's packet, for the next level.
    fn same_bytes<S: WireTaskSet + Send + Sync>(wave: &[Packet], what: &str) -> Packet {
        let got = StatMergeFilter::<S>::new().reduce(EndpointId(0), wave);
        let want = tree_merge_reference::<S>(wave);
        assert!(
            got == want,
            "{what}: the filter shipped {} bytes, the tree merge {}",
            got.size_bytes(),
            want.size_bytes()
        );
        got
    }

    /// `leaves` merged in waves of `fan_in`, and the outputs merged again.
    fn two_levels<S: WireTaskSet + Send + Sync>(leaves: &[Packet], fan_in: usize, what: &str) {
        let level: Vec<Packet> = leaves
            .chunks(fan_in)
            .map(|wave| same_bytes::<S>(wave, what))
            .collect();
        for wave in level.chunks(fan_in) {
            same_bytes::<S>(wave, what);
        }
    }

    /// A v2 body written by hand over a domain of at most 64 tasks (one word per
    /// set): its records, then `(parent delta, gid, word)` per non-root node.
    /// Sets are written as literals, so a word may carry bits at or above `width`.
    fn hand_packet<S: WireTaskSet>(
        width: u64,
        base: u32,
        records: &[(u32, &str)],
        root: u64,
        nodes: &[(u64, u32, u64)],
    ) -> Packet {
        fn varint(out: &mut Vec<u8>, mut value: u64) {
            while value >= 0x80 {
                out.push((value as u8) | 0x80);
                value >>= 7;
            }
            out.push(value as u8);
        }
        let set = |out: &mut Vec<u8>, word: u64| match S::CODEC {
            SetCodec::VarintWords => varint(out, word),
            SetCodec::RunLength => {
                out.push((1 << 2) | 2);
                out.extend(word.to_le_bytes());
            }
        };
        let mut out = MAGIC.to_le_bytes().to_vec();
        out.extend([VERSION, S::TAG]);
        for value in [width, u64::from(base), records.len() as u64] {
            varint(&mut out, value);
        }
        for &(gid, name) in records {
            varint(&mut out, u64::from(gid));
            varint(&mut out, name.len() as u64);
            out.extend(name.as_bytes());
        }
        varint(&mut out, nodes.len() as u64 + 1);
        set(&mut out, root);
        for &(delta, gid, word) in nodes {
            varint(&mut out, delta);
            varint(&mut out, u64::from(gid));
            set(&mut out, word);
        }
        Packet::new(PacketTag::Merged3d, EndpointId(7), out)
    }

    /// Every daemon's 2D and 3D packets for `app` over 256 daemons.
    fn leaf_channels<S: WireTaskSet>(
        app: &dyn Application,
        samples: u32,
        dict: &FrameDictionary,
    ) -> [Vec<Packet>; 2] {
        let (mut tree_2d, mut tree_3d) = (Vec::new(), Vec::new());
        for daemon in crate::daemon::StatDaemon::partition(app.num_tasks(), 256) {
            let c = daemon.contribute::<S>(app, samples, EndpointId(daemon.id + 1), dict);
            tree_2d.push(c.tree_2d);
            tree_3d.push(c.tree_3d);
        }
        [tree_2d, tree_3d]
    }

    fn catalogue_waves<S: WireTaskSet + Send + Sync>() {
        for scenario in appsim::catalogue(512, appsim::FrameVocabulary::Linux) {
            let dict = FrameDictionary::negotiate(scenario.app.frame_hints());
            for samples in [1, 3] {
                for leaves in leaf_channels::<S>(scenario.app.as_ref(), samples, &dict) {
                    for fan_in in [1, 2, 7, 64, 256] {
                        let what = format!("{} x{samples} fan-in {fan_in}", scenario.name);
                        two_levels::<S>(&leaves, fan_in, &what);
                    }
                }
            }
        }
    }

    fn hostile_waves<S: WireTaskSet + Send + Sync>() {
        let app = appsim::RingHangApp::new(512, appsim::FrameVocabulary::Linux);
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let [_, leaves] = leaf_channels::<S>(&app, 3, &dict);
        let wave = &leaves[..8];
        let with = |at: usize, child: Packet| {
            let mut wave = wave.to_vec();
            wave[at] = child;
            wave
        };
        let bytes = |p: &Packet| p.payload.to_vec();
        let packet = |payload: Vec<u8>| Packet::new(PacketTag::Merged3d, EndpointId(9), payload);

        let truncated = bytes(&wave[2]);
        same_bytes::<S>(
            &with(2, packet(truncated[..truncated.len() / 2].to_vec())),
            "truncated",
        );
        for at in 0..wave[3].payload.len() {
            let mut flipped = bytes(&wave[3]);
            flipped[at] ^= 0x5a;
            same_bytes::<S>(&with(3, packet(flipped)), &format!("byte {at} flipped"));
        }
        same_bytes::<S>(
            &with(0, packet(vec![0xde, 0xad, 0xbe, 0xef])),
            "garbage first",
        );

        let foreign_dict = FrameDictionary::negotiate(["_start"]);
        let [_, foreign] = leaf_channels::<S>(&app, 3, &foreign_dict);
        same_bytes::<S>(&with(4, foreign[4].clone()), "foreign dictionary");
        same_bytes::<S>(&with(0, foreign[0].clone()), "foreign dictionary first");

        let narrow = appsim::RingHangApp::new(256, appsim::FrameVocabulary::Linux);
        let [other_width, _] = leaf_channels::<S>(&narrow, 1, &dict);
        same_bytes::<S>(&with(5, other_width[5].clone()), "another width");

        let garbage: Vec<Packet> = (0..4).map(|k| packet(vec![k; 9])).collect();
        let control = same_bytes::<S>(&garbage, "all garbage");
        assert_eq!(control.size_bytes(), 0);

        // `twins`: two siblings under the root share gid 1, the second with a
        // child, and two more share gid 2 under gid 0 — a frame `stray` lacks, so
        // folded after it they sit below a grafted node.  `stray` sets word bits
        // above its 5-task width.  `renamed` ships one unnegotiated gid twice,
        // and `other_name` names it differently again.
        let base = dict.base_len();
        let twins = hand_packet::<S>(
            5,
            base,
            &[],
            0b11111,
            &[
                (1, 0, 0b1),
                (2, 1, 0b110),
                (3, 1, 0b11000),
                (1, 2, 0b11000),
                (4, 2, 0b1),
                (5, 2, 0b1),
            ],
        );
        let stray = hand_packet::<S>(
            5,
            base,
            &[],
            u64::MAX,
            &[(1, 1, u64::MAX << 3), (1, 2, 0b101 | (0xff << 5))],
        );
        let renamed = hand_packet::<S>(
            5,
            base,
            &[(base + 1, "first"), (base + 1, "second")],
            0b1,
            &[(1, 1, 0b1), (1, base + 1, 0b1)],
        );
        let other_name = hand_packet::<S>(
            5,
            base,
            &[(base + 1, "third")],
            0b10,
            &[(1, base + 1, 0b10)],
        );
        for (k, hand) in [
            vec![twins.clone(), twins.clone(), stray.clone()],
            vec![stray.clone(), twins.clone(), stray.clone(), twins.clone()],
            vec![wave[0].clone(), twins.clone(), stray, wave[1].clone()],
            vec![renamed.clone(), other_name.clone(), renamed.clone()],
            vec![other_name, renamed.clone()],
            vec![twins, renamed],
        ]
        .iter()
        .enumerate()
        {
            same_bytes::<S>(hand, &format!("hand-written wave {k}"));
        }
    }

    #[test]
    fn the_wire_merge_ships_the_tree_merge_bytes() {
        catalogue_waves::<DenseBitVector>();
        catalogue_waves::<SubtreeTaskList>();
        hostile_waves::<DenseBitVector>();
        hostile_waves::<SubtreeTaskList>();
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
