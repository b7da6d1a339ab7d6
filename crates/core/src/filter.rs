//! STAT's TBON filters.
//!
//! The tool's scalability comes from doing the merge *inside* the overlay network:
//! every communication process runs [`StatMergeFilter`] over the serialised prefix
//! trees arriving from its children and forwards one merged tree to its parent, so
//! the front end's work is independent of the daemon count.  A companion
//! [`RankMapFilter`] concatenates the daemons' rank maps in exactly the same child
//! order — coalescing adjacent `(start, len)` runs, so the default partition
//! reaches the front end as one run at any scale — which is what makes the front
//! end's remap step possible for the hierarchical representation.
//!
//! The merge filter never materialises a tree: it reads each distinct child body
//! once into flat columns and folds them into one output body, matching
//! negotiated frames by id and a child's own frames by its records' names, once
//! per record, and ships the output's own records.

use std::marker::PhantomData;

use tbon::filter::Filter;
use tbon::packet::{EndpointId, Packet, PacketTag};

use crate::serialize::{decode_rank_runs, encode_rank_map, merge_bodies, WireTaskSet};
use crate::taskset::RankRuns;

/// The prefix-tree merge filter, generic over the task-set representation.
///
/// The filter is stateless: each invocation folds the child packets left to right
/// (a child's own frame ids brought into the output's by name) into the bytes a
/// decode → [`crate::graph::PrefixTree::merge`] → re-encode ships for children
/// that number alike; equal children (daemons that behave alike, under the
/// hierarchical representation) are read once and replayed through a node map.
/// Malformed child payloads — including packets whose dictionary negotiation
/// does not match the sibling packets' — are skipped rather than poisoning the
/// whole reduction: a daemon that produced garbage should not take down the
/// session.
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

/// Concatenates the daemons' rank maps in child order, run by run, coalescing a
/// run that continues the previous child's: no rank is ever expanded, and every
/// child decodes into one reused run list.  A child whose map does not decode is
/// skipped, as the merge filter skips a tree.
#[derive(Clone, Copy, Debug, Default)]
pub struct RankMapFilter;

impl Filter for RankMapFilter {
    fn reduce(&self, node: EndpointId, inputs: &[Packet]) -> Packet {
        let (mut runs, mut child) = (RankRuns::default(), Vec::new());
        for packet in inputs {
            if decode_rank_runs(&packet.payload, &mut child).is_ok() {
                runs.extend(child.drain(..));
            }
        }
        Packet::new(PacketTag::RankMap, node, encode_rank_map(&runs))
    }

    fn name(&self) -> &'static str {
        "stat-rankmap"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::leaves;
    use crate::graph::{GlobalPrefixTree, PrefixTree, SubtreePrefixTree};
    use crate::serialize::{
        decode_rank_map, decode_tree, encode_merged_tree, encode_tree, DecodeError, SetCodec,
        WireFrames, MAGIC, MAX_WIRE_WIDTH, VERSION,
    };
    use crate::taskset::{DenseBitVector, SubtreeTaskList, TaskSetOps};
    use appsim::Application;
    use stackwalk::{FrameDictionary, FrameTable, StackTrace};
    use std::collections::{BTreeMap, BTreeSet};

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
        let leaves = leaves(&tree);
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

    /// Whether the bodies of `wave` that decode number their own frames alike:
    /// no id that two of them name differently.
    fn numbered_alike<S: WireTaskSet>(wave: &[Packet]) -> bool {
        let mut union: Option<WireFrames> = None;
        for packet in wave {
            let Ok((_, frames)) = decode_tree::<S>(&packet.payload) else {
                continue;
            };
            match union.as_mut().map(|union| union.merge(&frames)) {
                None => union = Some(frames),
                Some(Err(DecodeError::FrameConflict { .. })) => return false,
                Some(_) => {}
            }
        }
        true
    }

    /// (frame path, members) per node: the canonical form two merges of the
    /// same frames share, however each numbers them.
    type Named = BTreeMap<Vec<String>, BTreeSet<u64>>;

    /// A body's nodes as [`Named`], members moved up by `offset`: a base id
    /// (the same frame in every body of one session) by its number, a body's own
    /// by its record's name; siblings of one frame unite.  `None` if the body
    /// does not decode.
    fn named<S: WireTaskSet>(body: &[u8], offset: u64) -> Option<Named> {
        let (tree, frames) = decode_tree::<S>(body).ok()?;
        let name = |id: stackwalk::FrameId| match frames.name_of(id.0) {
            Some(name) => name.to_string(),
            None => format!("#{}", id.0),
        };
        let mut out = Named::new();
        for node in 0..tree.node_count() {
            let path = tree.path_to(node).into_iter().map(name).collect();
            let members = tree.tasks(node).members().into_iter().map(|m| m + offset);
            out.entry(path).or_default().extend(members);
        }
        Some(out)
    }

    /// The reference merge in canonical form: every body the filter accepts
    /// (one that decodes over the first accepted body's base and — job-wide —
    /// width), named on its own and united at its offset.
    fn named_reference<S: WireTaskSet>(wave: &[Packet]) -> Option<Named> {
        let (mut merged, mut first, mut width) = (None::<Named>, None, 0);
        for packet in wave {
            let Ok((tree, frames)) = decode_tree::<S>(&packet.payload) else {
                continue;
            };
            let (base, at) = (frames.base_len(), (frames.base_len(), tree.width()));
            let fits = |(b, w): (u32, u64)| b == base && (S::CONCATENATES || w == tree.width());
            if !first.is_none_or(fits) || width + tree.width() > MAX_WIRE_WIDTH {
                continue;
            }
            first.get_or_insert(at);
            let offset = if S::CONCATENATES { width } else { 0 };
            width += if S::CONCATENATES { tree.width() } else { 0 };
            for (path, members) in named::<S>(&packet.payload, offset)? {
                merged
                    .get_or_insert_with(Named::new)
                    .entry(path)
                    .or_default()
                    .extend(members);
            }
        }
        merged
    }

    /// Run one wave through the filter and the reference.  Bodies that number
    /// alike must merge byte for byte as the tree merge does; bodies numbered
    /// apart, which it cannot merge by id, as the reference in canonical form.
    /// Returns the filter's packet, for the next level.
    fn same_bytes<S: WireTaskSet + Send + Sync>(wave: &[Packet], what: &str) -> Packet {
        let got = StatMergeFilter::<S>::new().reduce(EndpointId(0), wave);
        if !numbered_alike::<S>(wave) {
            let named_got = named::<S>(&got.payload, 0);
            assert_eq!(
                named_got,
                named_reference::<S>(wave),
                "{what}: numbered apart"
            );
            return got;
        }
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

    fn varint(out: &mut Vec<u8>, mut value: u64) {
        while value >= 0x80 {
            out.push((value as u8) | 0x80);
            value >>= 7;
        }
        out.push(value as u8);
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

    /// Whether two packets of `wave` carry equal bodies.
    fn has_repeat(wave: &[Packet]) -> bool {
        let bodies: std::collections::HashSet<&[u8]> =
            wave.iter().map(|p| p.payload.as_ref()).collect();
        bodies.len() < wave.len()
    }

    fn catalogue_waves<S: WireTaskSet + Send + Sync>() {
        let mut waves_with_repeats = 0;
        for scenario in appsim::catalogue(512, appsim::FrameVocabulary::Linux) {
            let dict = FrameDictionary::negotiate(scenario.app.frame_hints());
            for samples in [1, 3] {
                for leaves in leaf_channels::<S>(scenario.app.as_ref(), samples, &dict) {
                    for fan_in in [1, 2, 7, 64, 256] {
                        let what = format!("{} x{samples} fan-in {fan_in}", scenario.name);
                        two_levels::<S>(&leaves, fan_in, &what);
                        waves_with_repeats +=
                            leaves.chunks(fan_in).filter(|w| has_repeat(w)).count();
                    }
                }
            }
        }
        // Concatenated bodies are relative to their daemon, so equal behaviour
        // ships equal bytes and the merge folds repeats through a node map.
        assert!(
            !S::CONCATENATES || waves_with_repeats > 100,
            "{waves_with_repeats}"
        );
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
        // above its 5-task width.  `renamed` ships one unnegotiated gid twice
        // (no reader accepts it), and `other_name` and `again` name their own
        // frames apart: `other_name`'s first id is `renamed`'s second name.
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
            &[(base, "first"), (base, "second")],
            0b1,
            &[(1, 1, 0b1), (1, base, 0b1)],
        );
        let other_name = hand_packet::<S>(
            5,
            base,
            &[(base, "second"), (base + 1, "third")],
            0b110,
            &[(1, base, 0b10), (1, base + 1, 0b100), (1, 1, 0b110)],
        );
        let again = hand_packet::<S>(
            5,
            base,
            &[(base, "third"), (base + 1, "second")],
            0b11,
            &[(1, base, 0b1), (1, base + 1, 0b10), (1, base, 0b1)],
        );
        for (k, hand) in [
            vec![twins.clone(), twins.clone(), stray.clone()],
            vec![stray.clone(), twins.clone(), stray.clone(), twins.clone()],
            vec![
                wave[0].clone(),
                twins.clone(),
                stray.clone(),
                wave[1].clone(),
            ],
            vec![renamed.clone(), other_name.clone(), renamed.clone()],
            vec![other_name.clone(), again.clone(), other_name.clone()],
            vec![again.clone(), twins.clone(), other_name, again],
            vec![twins.clone(), renamed],
        ]
        .iter()
        .enumerate()
        {
            same_bytes::<S>(hand, &format!("hand-written wave {k}"));
        }

        // Repeats: of a body between garbage, of a body skipped for its base,
        // and of `twins`, whose second walk probes onto the newest sibling.
        let garbage = packet(vec![0xde, 0xad, 0xbe, 0xef]);
        let foreign = foreign[1].clone();
        for (k, repeats) in [
            vec![garbage.clone(), wave[1].clone(), garbage, wave[1].clone()],
            vec![
                wave[0].clone(),
                foreign.clone(),
                foreign.clone(),
                wave[2].clone(),
                foreign,
            ],
            vec![twins.clone(), stray, twins.clone(), twins.clone()],
        ]
        .iter()
        .enumerate()
        {
            assert!(has_repeat(repeats));
            same_bytes::<S>(repeats, &format!("repeated wave {k}"));
        }

        // Concatenated widths stop at what a packet may claim: a root-only body
        // over just over half of it, repeated, is skipped from its second copy,
        // and a narrow body after it still fits.
        if S::CONCATENATES {
            let half = MAX_WIRE_WIDTH / 2 + 1;
            let mut wide = MAGIC.to_le_bytes().to_vec();
            wide.extend([VERSION, S::TAG]);
            for value in [half, u64::from(base), 0, 1, half.div_ceil(64) << 2 | 1] {
                varint(&mut wide, value);
            }
            let wide = packet(wide);
            let got = StatMergeFilter::<S>::new().reduce(
                EndpointId(0),
                &[wide.clone(), wide.clone(), twins.clone(), wide.clone()],
            );
            assert!(got == tree_merge_reference::<S>(&[wide, twins]));
        }
    }

    #[test]
    fn a_repeated_body_folds_its_rows_across_word_seams() {
        // Bodies a word short, a word, a word and a bit and two words and two
        // bits wide, with tasks on both sides of every seam, repeated adjacent
        // and interleaved: most copies land at offsets that are no multiple of
        // 64, so each row's words carry into the next.
        let dict = session_dictionary();
        let mut table = FrameTable::new();
        let traces = [
            &["_start", "main", "MPI_Barrier"][..],
            &["_start", "main", "do_SendOrStall"],
            &["_start", "main"],
        ]
        .map(|path| StackTrace::new(table.intern_path(path)));
        let body = |width: u64| {
            let mut tree = SubtreePrefixTree::new_subtree(width);
            for task in 0..width {
                tree.add_trace(&traces[(task % 3) as usize], task);
            }
            let bytes = encode_tree(&tree, &table, &dict);
            Packet::new(PacketTag::Merged3d, EndpointId(9), bytes)
        };
        let bodies = [63, 64, 65, 130].map(body);
        let orders: [&[usize]; 5] = [
            &[0, 0, 0, 0],
            &[2, 2, 2],
            &[3, 3, 0, 3],
            &[1, 0, 1, 2, 0, 3],
            &[0, 2, 3, 0, 2, 3, 1],
        ];
        for order in orders {
            let wave: Vec<Packet> = order.iter().map(|&k| bodies[k].clone()).collect();
            assert!(has_repeat(&wave));
            same_bytes::<SubtreeTaskList>(&wave, &format!("bodies {order:?}"));
        }
    }

    #[test]
    fn the_wire_merge_ships_the_tree_merge_bytes() {
        catalogue_waves::<DenseBitVector>();
        catalogue_waves::<SubtreeTaskList>();
        hostile_waves::<DenseBitVector>();
        hostile_waves::<SubtreeTaskList>();
    }

    /// The daemon map's case where daemons number one name apart: the sleepy
    /// ring hang with the stall and barrier frames un-negotiated, whose daemon 0
    /// meets the barrier frame first and daemon 1 the stall frame.  Both tree
    /// channels, merged up a two-level overlay at 1, 2 and 8 workers, are the
    /// reference merge in canonical form.
    fn bodies_numbered_apart_merge_by_name<S: WireTaskSet + Send + Sync>(
        representation: crate::frontend::Representation,
    ) {
        use crate::daemon::{tests::Sleepy, StatDaemon};
        use appsim::{FrameVocabulary, RingHangApp};
        use tbon::network::InProcessTbon;
        use tbon::topology::{Topology, TreeShape};
        let v = FrameVocabulary::BlueGeneL;
        let sleepy = Sleepy(RingHangApp::new(1_024, v).with_hung_rank(64));
        let missed = [v.send_stall(), v.barrier()];
        let hints = sleepy
            .frame_hints()
            .into_iter()
            .filter(|h| !missed.contains(h));
        let dict = FrameDictionary::negotiate(hints);
        let topology = Topology::build(TreeShape::two_deep(16, 4));
        let daemons = StatDaemon::partition(1_024, 16);
        for workers in [1, 2, 8] {
            let net = InProcessTbon::new(topology.clone()).with_workers(workers);
            let leaves = daemons.iter().zip(topology.backends().iter().copied());
            let strategy = representation.strategy();
            let shipped = strategy.contribute_all(leaves.collect(), &sleepy, 2, &dict, &net);
            let shipped = shipped.expect("no daemon dies");
            let channels = [0, 1].map(|c| {
                let packet =
                    |d: &crate::daemon::DaemonContribution| [&d.tree_2d, &d.tree_3d][c].clone();
                shipped.iter().map(packet).collect::<Vec<_>>()
            });
            for (channel, leaves) in ["2D", "3D"].iter().zip(channels) {
                let at = format!("{channel}, {workers} workers, {representation:?}");
                assert!(
                    !numbered_alike::<S>(&leaves),
                    "{at}: the daemons number alike"
                );
                let root = net.reduce(leaves.clone(), &StatMergeFilter::<S>::new());
                let root = root.expect("the merge walks");
                let got = named::<S>(&root.result.payload, 0);
                assert!(got.is_some(), "{at}: the root body reads");
                assert_eq!(got, named_reference::<S>(&leaves), "{at}");
            }
        }
    }

    #[test]
    fn the_wire_merge_of_bodies_numbered_apart_is_the_named_reference() {
        use crate::frontend::Representation;
        bodies_numbered_apart_merge_by_name::<DenseBitVector>(Representation::GlobalBitVector);
        bodies_numbered_apart_merge_by_name::<SubtreeTaskList>(
            Representation::HierarchicalTaskList,
        );
    }

    #[test]
    fn rank_map_filter_concatenates_in_order_and_coalesces_at_seams() {
        let filter = RankMapFilter;
        let map = |ranks: &[u64]| ranks.iter().copied().collect::<RankRuns>();
        let packet = |ep, ranks: &[u64]| {
            Packet::new(
                PacketTag::RankMap,
                EndpointId(ep),
                encode_rank_map(&map(ranks)),
            )
        };
        let out = filter.reduce(EndpointId(0), &[packet(1, &[0, 2]), packet(2, &[1, 3])]);
        assert_eq!(decode_rank_map(&out.payload).unwrap(), map(&[0, 2, 1, 3]));
        // Contiguous children leave as one run; a child that does not decode is
        // skipped.
        let garbage = Packet::new(PacketTag::RankMap, EndpointId(9), vec![9, 9]);
        let children = [packet(1, &[0, 1, 2, 3]), garbage, packet(2, &[4, 5])];
        let out = filter.reduce(EndpointId(0), &children);
        let runs: Vec<_> = decode_rank_map(&out.payload).unwrap().runs().collect();
        assert_eq!((runs.len(), runs[0].clone()), (1, 0..6));
        assert_eq!(out.payload.len(), 3);
    }
}
