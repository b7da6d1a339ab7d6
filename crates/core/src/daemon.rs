//! The STAT back-end daemon.
//!
//! One daemon runs per compute node (Atlas) or per I/O node (BG/L).  Its job is
//! small and local — and it is where the volume is: walk the call paths of the MPI
//! tasks it is responsible for straight into *locally merged* 2D and 3D prefix
//! trees ([`StatDaemon::contribute`]; no trace is materialised on the way), and
//! hand the serialised trees (plus its rank map) to the overlay network.
//! Everything global happens in the filters above it.  Both trees share one arena
//! that each call path descends once; a streaming daemon keeps it from wave to
//! wave (`LocalTrees`).

use std::ops::Range;
use std::time::Instant;

use appsim::Application;
use stackwalk::{FrameDictionary, FrameId, FrameTable, TaskSamples};
use tbon::network::{InProcessTbon, TbonError};
use tbon::packet::{EndpointId, Packet, PacketTag};

use crate::graph::{NodeIdx, PrefixTree, Trail};
use crate::serialize::{encode_ordered, encode_rank_map, WireTaskSet};
use crate::taskset::{words_for, RankRuns};

/// A back-end daemon responsible for a slice of MPI ranks.
#[derive(Clone, Debug)]
pub struct StatDaemon {
    /// Daemon index (also its leaf position in the TBON, in backend order).
    pub id: u32,
    /// The MPI ranks this daemon gathers traces from, in its order, as runs.
    pub ranks: RankRuns,
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
    /// The daemon's rank map (its runs), for the front-end remap.
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
    pub fn new(id: u32, ranks: RankRuns, total_tasks: u64) -> Self {
        StatDaemon {
            id,
            ranks,
            total_tasks,
        }
    }

    /// Partition a job of `total_tasks` ranks over `daemons` daemons the way the
    /// machines in the paper do: contiguous blocks in rank order, one run per
    /// daemon, the earlier daemons taking the remainder.
    pub fn partition(total_tasks: u64, daemons: u32) -> Vec<StatDaemon> {
        let daemons = daemons.max(1) as u64;
        let base = total_tasks / daemons;
        let extra = total_tasks % daemons;
        let mut out = Vec::with_capacity(daemons as usize);
        let mut next_rank = 0u64;
        for d in 0..daemons {
            let count = base + if d < extra { 1 } else { 0 };
            let run = (count > 0).then_some(next_rank..next_rank + count);
            let ranks = RankRuns {
                runs: run.into_iter().collect(),
            };
            next_rank += count;
            out.push(StatDaemon::new(d as u32, ranks, total_tasks));
        }
        out
    }

    /// Number of local tasks.
    pub fn local_tasks(&self) -> u64 {
        self.ranks.count()
    }

    /// Its trees' width: the job (global representation) or its own tasks (hierarchical).
    pub(crate) fn leaf_width<S: WireTaskSet>(&self) -> u64 {
        if S::CONCATENATES {
            self.local_tasks()
        } else {
            self.total_tasks
        }
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
    pub fn build_trees<S: WireTaskSet>(
        &self,
        samples: &[TaskSamples],
    ) -> (PrefixTree<S>, PrefixTree<S>) {
        let mut trees = LocalTrees::new(self.leaf_width::<S>());
        trees.begin();
        for (position, task) in samples.iter().enumerate() {
            for (nth, trace) in task.traces.iter().enumerate() {
                trees.record(position, task.rank, nth, |t, _| t.descend(trace.frames()));
            }
        }
        trees.close();
        let [tree_2d, tree_3d] = [0, 1].map(|column| trees.labelled_tree(column));
        (tree_2d, tree_3d)
    }

    /// The daemon-local phase as one walk: every call path sampled over the sample
    /// indices of `window` descends `trees`' arena by frame name, under a new
    /// epoch, and the trees are closed upward.  What comes back is the encode
    /// still to do: it turns the closed trees and the rank runs into the three leaf
    /// packets against a frame table and dictionary, and hands `trees` back, for
    /// the streaming caller that keeps them for the next wave.
    fn contribute_from<S: WireTaskSet>(
        &self,
        app: &dyn Application,
        window: Range<u32>,
        leaf: EndpointId,
        table: &mut FrameTable,
        mut trees: LocalTrees<S>,
    ) -> impl FnOnce(&FrameTable, &FrameDictionary) -> (DaemonContribution, LocalTrees<S>) {
        let sample_start = Instant::now();
        trees.begin();
        let mut traces = 0;
        appsim::for_each_sampled_path(app, &self.ranks, window, |pos, rank, nth, path| {
            trees.record(pos, rank, nth, |t, tr| t.descend_named(table, tr, path));
            traces += 1;
        });
        let merge_start = Instant::now();
        trees.close();
        let packet = move |tag, payload: Vec<u8>| Packet::new(tag, leaf, payload);
        let rank_map = packet(PacketTag::RankMap, encode_rank_map(&self.ranks));
        let (daemon_id, sample_wall) = (self.id, merge_start - sample_start);
        let close_wall = merge_start.elapsed();
        move |table: &FrameTable, dict: &FrameDictionary| {
            let encode_start = Instant::now();
            let [tree_2d, tree_3d] = trees.encode(table, dict);
            let contribution = DaemonContribution {
                daemon_id,
                tree_2d: packet(PacketTag::Merged2d, tree_2d),
                tree_3d: packet(PacketTag::Merged3d, tree_3d),
                rank_map,
                traces_gathered: traces,
                sample_wall,
                local_merge_wall: close_wall + encode_start.elapsed(),
            };
            (contribution, trees)
        }
    }

    /// Run one full gather-and-merge cycle and package the results for the TBON.
    ///
    /// Sampling and local merging are one walk (`StatDaemon::contribute_from`),
    /// still timed as the two phases the paper measures: *sample* is the
    /// application's call paths, their descent into the local trees and the end
    /// marks; *local merge* is the upward close and the encode.  `dict` is the
    /// session's negotiated frame dictionary: the daemon symbolises into a
    /// [`FrameTable`] over its shared base, so a negotiated frame's id already is
    /// its global id and the v2 encoder interns only the frames outside the base.
    pub fn contribute<S: WireTaskSet>(
        &self,
        app: &dyn Application,
        samples: u32,
        leaf_endpoint: EndpointId,
        dict: &FrameDictionary,
    ) -> DaemonContribution {
        let mut table = dict.table();
        let trees = LocalTrees::new(self.leaf_width::<S>());
        let encode = self.contribute_from::<S>(app, 0..samples, leaf_endpoint, &mut table, trees);
        encode(&table, dict).0
    }
}

/// A driver's last step per daemon: its item, its frame table and local trees
/// back, its encode.
type Finish<'a, T, S, R> =
    dyn Fn(&mut T, FrameTable, DaemonContribution, LocalTrees<S>) -> R + Sync + 'a;

/// An item's daemon, the frame table and local trees it walks into, and its leaf.
type Parts<'a, S> = (&'a StatDaemon, FrameTable, LocalTrees<S>, EndpointId);

/// The daemon step of every gather, one-shot or streamed: each item's walk →
/// close over the sample indices of `window`, side by side on `net`'s workers,
/// then its encode and `finish`.  `parts` reaches an item's daemon and leaf and
/// hands over the frame table (a fresh one is `dict`'s) and the local trees (a
/// fresh arena, or a stream's from its last wave) to walk into, which `finish`
/// gets back.  An item encodes inside the map only if its table is over `dict`'s
/// base with an empty overflow, so the encode interns nothing (which names are
/// interned yet depends on the schedule); any other encodes after the map, in
/// item (backend) order.  So the packets and frame ids are a serial loop's
/// whatever the schedule.
/// Only the work inside the map is fenced: a daemon whose walk (or in-map encode
/// and `finish`) panics is [`TbonError::PoolPoisoned`].
pub(crate) fn map_daemons<S: WireTaskSet + Send, T: Send, R: Send>(
    net: &InProcessTbon,
    items: Vec<T>,
    parts: for<'a> fn(&'a mut T, &FrameDictionary) -> Parts<'a, S>,
    (app, window): (&dyn Application, Range<u32>),
    dict: &FrameDictionary,
    finish: &Finish<'_, T, S, R>,
) -> Result<Vec<R>, TbonError> {
    let base_len = dict.base_len() as usize;
    let walked = net.map(items, &|mut item| {
        let (daemon, mut table, trees, leaf) = parts(&mut item, dict);
        let encode = daemon.contribute_from::<S>(app, window.clone(), leaf, &mut table, trees);
        Ok(if dict.shares_base(&table) && table.len() == base_len {
            let (contribution, trees) = encode(&table, dict);
            Ok(finish(&mut item, table, contribution, trees))
        } else {
            // Boxed, so every result of the map stays contribution-sized.
            Err(Box::new((item, table, encode)))
        })
    })?;
    let encoded = walked.into_iter().map(|item| {
        item.unwrap_or_else(|held| {
            let (mut item, table, encode) = *held;
            let (contribution, trees) = encode(&table, dict);
            finish(&mut item, table, contribution, trees)
        })
    });
    Ok(encoded.collect())
}

/// A daemon's 2D and 3D trees: one arena that every trace descends by name, and
/// a label column per tree.  Every trace marks its task in the 3D column, a
/// task's first trace also in the 2D column; a task is marked only on the node
/// where its trace *ends*, and [`LocalTrees::close`] ORs every row into its
/// parent's, which makes each label "every task that reached this frame".  The
/// task is indexed by rank in a job-wide domain, by position in a concatenating
/// one.  Sampled names and gathered frame ids both come through here, so they
/// cannot disagree on a task's index or 2D feed.
///
/// A gather opens an epoch ([`LocalTrees::begin`]).  A fresh tree numbers its
/// nodes in the order the walk first reaches them, and each column records
/// exactly that order (see [`Column`]), so its packet is a fresh tree's whatever
/// the arena already held: a stream daemon keeps its trees from wave to wave and
/// walks each wave into them, a one-shot gather walks a fresh arena.
pub(crate) struct LocalTrees<S: WireTaskSet> {
    /// Every node any epoch reached; its own labels stay empty.
    pub(crate) tree: PrefixTree<S>,
    trail: Trail<'static>,
    /// The labels' domain width, and the words a row of it takes.
    pub(crate) width: u64,
    pub(crate) wps: usize,
    /// The arena's node count when the epoch began: nodes from here on are its own.
    pub(crate) fresh_from: usize,
    /// The 2D tree's column, then the 3D tree's.
    columns: [Column; 2],
}

/// One tree's labels in a daemon's arena.  The first time an epoch's walk
/// reaches a node for this tree, the node and each ancestor the epoch has not
/// reached yet are stamped, pushed onto the first-touch list outermost first, and
/// their rows (left by an earlier epoch) zeroed.
pub(crate) struct Column {
    epoch: u32,
    /// Per arena node, the tasks the last epoch to reach it marked there (once
    /// closed, every task that reached it then).
    rows: Rows,
    /// Per arena node: the last epoch that reached it, and its first-touch
    /// position then (an arena past `u32::MAX` nodes would exhaust memory first).
    stamps: Vec<(u32, u32)>,
    /// The current epoch's first-touch list, root first.
    pub(crate) touched: Vec<NodeIdx>,
}

impl<S: WireTaskSet> LocalTrees<S> {
    /// An empty arena over a domain of `width` task positions.
    pub(crate) fn new(width: u64) -> Self {
        let wps = words_for(width);
        LocalTrees {
            tree: PrefixTree::new(0),
            trail: Trail::new(),
            width,
            wps,
            fresh_from: 0,
            columns: [Column::new(wps), Column::new(wps)],
        }
    }

    /// The 3D tree's column.
    pub(crate) fn column_3d(&self) -> &Column {
        &self.columns[1]
    }

    /// Open the next epoch: nothing is reached yet but the root.  The trail is
    /// empty (a walk lets it go), so it is reserved to the epoch's first path as
    /// a fresh tree's would be.
    fn begin(&mut self) {
        self.fresh_from = self.tree.node_count();
        for column in &mut self.columns {
            column.epoch += 1;
            column.touched.clear();
            column.touch(&self.tree, self.tree.root());
        }
    }

    /// Record the `nth` trace of task `rank`, at `position` in the daemon's list:
    /// `descend` walks it into the arena and trail it is handed, returning the end
    /// node.
    fn record(
        &mut self,
        position: usize,
        rank: u64,
        nth: usize,
        descend: impl FnOnce(&mut PrefixTree<S>, &mut Trail<'static>) -> NodeIdx,
    ) {
        let index = if S::CONCATENATES {
            position as u64
        } else {
            rank
        };
        let end = descend(&mut self.tree, &mut self.trail);
        for column in self.columns.iter_mut().skip(usize::from(nth > 0)) {
            if column.position(end).is_none() {
                column.touch(&self.tree, end);
            }
            if let Some(word) = column.rows.row_mut(end).get_mut((index / 64) as usize) {
                *word |= 1 << (index % 64);
            }
        }
    }

    /// End the walk: let the trail go and OR every reached node's row into its
    /// parent's, children first.
    fn close(&mut self) {
        self.trail = Trail::new();
        for column in &mut self.columns {
            column.close(&self.tree);
        }
    }

    /// Both trees as v2 packet bodies, each column's nodes in first-touch order.
    /// The 2D column is then let go: only the 3D labels outlive a gather.
    fn encode(&mut self, table: &FrameTable, dict: &FrameDictionary) -> [Vec<u8>; 2] {
        let bodies = self.columns.each_ref().map(|column| {
            let links = column
                .touched
                .iter()
                .skip(1)
                .map(|&n| column.link(&self.tree, n));
            let row = |at: usize| column.row(column.touched[at]);
            encode_ordered::<S>(self.width, links, row, table, dict)
        });
        self.columns[0] = Column::new(self.wps);
        bodies
    }

    /// One column's tree as a labelled tree, its nodes in first-touch order.
    fn labelled_tree(&self, column: usize) -> PrefixTree<S> {
        let column = &self.columns[column];
        let label = |node| S::from_words(self.width, column.row(node).to_vec());
        let mut tree = PrefixTree::new(self.width);
        tree.replace_tasks(tree.root(), label(self.tree.root()));
        for &node in column.touched.iter().skip(1) {
            let (parent, frame) = column.link(&self.tree, node);
            let added = tree.append_node(parent, frame);
            tree.replace_tasks(added, label(node));
        }
        tree
    }
}

impl Column {
    fn new(wps: usize) -> Self {
        Column {
            epoch: 0,
            rows: Rows::new(wps),
            stamps: Vec::new(),
            touched: Vec::new(),
        }
    }

    /// Where `node` stands on the current epoch's first-touch list, if it is on it.
    fn position(&self, node: NodeIdx) -> Option<usize> {
        let &(epoch, position) = self.stamps.get(node)?;
        (epoch == self.epoch).then_some(position as usize)
    }

    /// A node's row of label words.
    pub(crate) fn row(&self, node: NodeIdx) -> &[u64] {
        self.rows.row(node)
    }

    /// A touched node's parent, as a first-touch position (the root's is 0), and frame.
    pub(crate) fn link<S: WireTaskSet>(
        &self,
        tree: &PrefixTree<S>,
        node: NodeIdx,
    ) -> (usize, FrameId) {
        let parent = tree.parent(node).and_then(|p| self.position(p));
        (parent.unwrap_or(0), tree.frame(node).unwrap_or(FrameId(0)))
    }

    /// Reach `end`: it and every ancestor the epoch has not reached yet join the
    /// first-touch list, outermost first, their rows zeroed.
    fn touch<S: WireTaskSet>(&mut self, tree: &PrefixTree<S>, end: NodeIdx) {
        let first = self.touched.len();
        let mut node = Some(end);
        while let Some(unreached) = node.filter(|&n| self.position(n).is_none()) {
            self.touched.push(unreached);
            node = tree.parent(unreached);
        }
        self.touched[first..].reverse();
        let known = self.rows.len();
        self.stamps.resize(tree.node_count(), (0, 0));
        self.rows.grow(tree.node_count());
        for (position, &node) in self.touched.iter().enumerate().skip(first) {
            self.stamps[node] = (self.epoch, position as u32);
            if node < known {
                self.rows.row_mut(node).fill(0);
            }
        }
    }

    /// OR every reached node's row into its parent's, children first (a parent's
    /// arena index is below its child's): end marks become edge labels.
    fn close<S: WireTaskSet>(&mut self, tree: &PrefixTree<S>) {
        for &child in self.touched.iter().skip(1).rev() {
            self.rows.or_into(tree.parent(child).unwrap_or(0), child);
        }
    }
}

/// The most words one block of [`Rows`] holds (8 KiB).
const BLOCK_WORDS: usize = 1024;

/// Rows of `wps` label words, one per arena node, in blocks of at most
/// [`BLOCK_WORDS`] words: a new row never moves the rows before it, and no
/// block is large enough for the allocator to map (and fault in) on its own,
/// however wide the domain.
pub(crate) struct Rows {
    wps: usize,
    /// Rows per block: `1 << shift`.
    shift: u32,
    len: usize,
    blocks: Vec<Vec<u64>>,
}

impl Rows {
    pub(crate) fn new(wps: usize) -> Self {
        let per_block = (BLOCK_WORDS / wps.max(1)).max(1);
        let shift = usize::BITS - 1 - per_block.leading_zeros();
        Rows {
            wps,
            shift,
            len: 0,
            blocks: Vec::new(),
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Row `row`'s block and its words' span there.
    fn at(&self, row: usize) -> (usize, Range<usize>) {
        let start = (row & ((1 << self.shift) - 1)) * self.wps;
        (row >> self.shift, start..start + self.wps)
    }

    /// Row `row` (empty past the last).
    pub(crate) fn row(&self, row: usize) -> &[u64] {
        let (block, span) = self.at(row);
        self.blocks
            .get(block)
            .and_then(|b| b.get(span))
            .unwrap_or(&[])
    }

    pub(crate) fn row_mut(&mut self, row: usize) -> &mut [u64] {
        let (block, span) = self.at(row);
        let words = self.blocks.get_mut(block).and_then(|b| b.get_mut(span));
        words.unwrap_or(&mut [])
    }

    /// Append a row of `words`, zero-padded to `wps`.
    pub(crate) fn push(&mut self, words: impl IntoIterator<Item = u64>) {
        let (block, _) = self.at(self.len);
        if block == self.blocks.len() {
            self.blocks.push(Vec::new());
        }
        if let Some(b) = self.blocks.get_mut(block) {
            b.extend(words.into_iter().chain(std::iter::repeat(0)).take(self.wps));
        }
        self.len += 1;
    }

    /// Grow to `len` rows, the new ones empty.
    pub(crate) fn grow(&mut self, len: usize) {
        while self.len < len {
            self.push([]);
        }
    }

    /// OR row `from` into the earlier row `into`.
    fn or_into(&mut self, into: usize, from: usize) {
        let ((ib, is), (fb, fs)) = (self.at(into), self.at(from));
        let blocks = self.blocks.len();
        let (head, tail) = self.blocks.split_at_mut(fb.min(blocks));
        let Some(block) = tail.first_mut() else {
            return;
        };
        let (into, from) = if ib == fb {
            let len = block.len();
            let (before, rest) = block.split_at_mut(fs.start.min(len));
            (before.get_mut(is), rest.get(..self.wps))
        } else {
            let into = head.get_mut(ib).and_then(|b| b.get_mut(is));
            (into, block.get(fs))
        };
        if let (Some(into), Some(from)) = (into, from) {
            into.iter_mut().zip(from).for_each(|(i, f)| *i |= f);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::frontend::Representation;
    use crate::serialize::decode_tree;
    use crate::taskset::{DenseBitVector, SubtreeTaskList, TaskSetOps};
    use appsim::{FrameVocabulary, RingHangApp};
    use tbon::network::InProcessTbon;
    use tbon::topology::{Topology, TreeShape};

    #[test]
    fn rows_in_blocks_read_as_one_flat_array() {
        // One row per block (1000, 1025, 3000 words), several (3, 64), none (0).
        for wps in [0, 1, 3, 64, 1000, 1024, 1025, 3000] {
            let (mut rows, mut flat) = (Rows::new(wps), Vec::<u64>::new());
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            let mut next = || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            for n in 0..40 {
                // Every third row is pushed short and must come back zero-padded.
                let words: Vec<u64> = (0..wps - wps.min(n % 3)).map(|_| next()).collect();
                rows.push(words.iter().copied());
                flat.extend(words.into_iter().chain(std::iter::repeat(0)).take(wps));
                if n > 0 {
                    let into = next() as usize % n;
                    rows.or_into(into, n);
                    for k in 0..wps {
                        flat[into * wps + k] |= flat[n * wps + k];
                    }
                }
                if n % 7 == 3 {
                    rows.row_mut(n / 2).fill(0);
                    flat[n / 2 * wps..(n / 2 + 1) * wps].fill(0);
                }
            }
            rows.grow(45);
            flat.resize(45 * wps, 0);
            assert_eq!(rows.len(), 45);
            for r in 0..45 {
                assert_eq!(
                    rows.row(r),
                    &flat[r * wps..(r + 1) * wps],
                    "{wps} words, row {r}"
                );
            }
            assert!(rows.row(45).is_empty());
        }
    }

    #[test]
    fn partition_covers_every_rank_exactly_once() {
        let daemons = StatDaemon::partition(1_000, 7);
        assert_eq!(daemons.len(), 7);
        let mut all: Vec<u64> = daemons.iter().flat_map(|d| &d.ranks).collect();
        all.sort_unstable();
        assert_eq!(all, (0..1_000).collect::<Vec<_>>());
        // One run per daemon; sizes differ by at most one.
        assert!(daemons.iter().all(|d| d.ranks.runs().count() == 1));
        let sizes: Vec<u64> = daemons.iter().map(|d| d.ranks.count()).collect();
        assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    #[test]
    fn partition_with_more_daemons_than_tasks() {
        let daemons = StatDaemon::partition(3, 8);
        let nonempty = daemons.iter().filter(|d| d.local_tasks() > 0).count();
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
        let ranks: Vec<u64> = daemons[1].ranks.into_iter().collect();
        assert_eq!(tree.tasks(tree.root()).members(), ranks);
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

    /// A ring hang whose every call path first sleeps for a rank-derived number of
    /// microseconds, 6.4 ms / (rank + 1), so that daemons side by side finish
    /// their walks in reverse backend order.
    pub(crate) struct Sleepy(pub(crate) RingHangApp);

    impl Application for Sleepy {
        fn name(&self) -> &str {
            "sleepy_ring_hang"
        }
        fn num_tasks(&self) -> u64 {
            self.0.num_tasks()
        }
        fn call_path(&self, rank: u64, thread: u32, sample: u32) -> &[&'static str] {
            let micros = 6_400 / (rank + 1);
            std::thread::sleep(std::time::Duration::from_micros(micros));
            self.0.call_path(rank, thread, sample)
        }
        fn frame_hints(&self) -> Vec<&'static str> {
            self.0.frame_hints()
        }
    }

    /// The dictionary's names in id order.
    pub(crate) fn names_by_id(dict: &FrameDictionary) -> Vec<String> {
        let table = dict.snapshot();
        let ids = (0..).map(FrameId).take(table.len());
        ids.map(|id| table.name(id).to_string()).collect()
    }

    /// The daemon map under every worker count against a serial
    /// `StatDaemon::contribute` loop: the same packets, byte for byte, and the
    /// same names at the same dictionary ids.
    fn daemon_map_matches_the_serial_loop<S: WireTaskSet>(representation: Representation) {
        let v = FrameVocabulary::BlueGeneL;
        let ring = RingHangApp::new(1_024, v);
        let hints = ring.frame_hints();
        let app = &ring;
        let walked: std::collections::HashSet<&str> = (0..1_024)
            .flat_map(|rank| {
                (0..2).flat_map(move |sample| app.call_path(rank, 0, sample).iter().copied())
            })
            .collect();
        let walked_hints: Vec<&str> = hints
            .iter()
            .copied()
            .filter(|h| walked.contains(h))
            .collect();
        let without = |missed: &[&str]| -> Vec<&str> {
            let kept = hints.iter().copied().filter(|h| !missed.contains(h));
            kept.collect()
        };
        // Rank 64 opens daemon 1, so that daemon walks the stall frame before any
        // barrier frame, and it finishes long before daemon 0 does.
        let sleepy = Sleepy(RingHangApp::new(1_024, v).with_hung_rank(64));
        let (stall, barrier) = (v.send_stall(), v.barrier());
        let cases: [(&str, &dyn Application, Vec<&str>); 4] = [
            // (a) every frame negotiated;
            ("full dictionary", &ring, hints.clone()),
            // (b) every daemon walks names the negotiation missed;
            (
                "first half of the walked hints",
                &ring,
                walked_hints[..walked_hints.len() / 2].to_vec(),
            ),
            // (c) out of order: serially daemon 0 interns the barrier frame first,
            //     side by side daemon 1 would intern the stall frame first;
            (
                "sleepy, stall and barrier missed",
                &sleepy,
                without(&[stall, barrier]),
            ),
            // (d) daemon 1 alone interns, while the others encode inside the map.
            ("sleepy, stall missed", &sleepy, without(&[stall])),
        ];
        let daemons = StatDaemon::partition(1_024, 16);
        let topology = Topology::build(TreeShape::flat(16));
        let leaves = || daemons.iter().zip(topology.backends().iter().copied());
        for (case, app, hints) in cases {
            let serial_dict = FrameDictionary::negotiate(hints.iter().copied());
            let serial: Vec<DaemonContribution> = leaves()
                .map(|(d, leaf)| d.contribute::<S>(app, 2, leaf, &serial_dict))
                .collect();
            for workers in [1usize, 2, 3, 8, 64] {
                let dict = FrameDictionary::negotiate(hints.iter().copied());
                let net = InProcessTbon::new(topology.clone()).with_workers(workers);
                let mapped = representation
                    .strategy()
                    .contribute_all(leaves().collect(), app, 2, &dict, &net)
                    .expect("no worker dies");
                assert_eq!(mapped.len(), serial.len());
                for (m, s) in mapped.iter().zip(&serial) {
                    let at = format!("{case}, {workers} workers, daemon {}", s.daemon_id);
                    assert_eq!(m.daemon_id, s.daemon_id, "{at}");
                    assert_eq!(m.tree_2d.payload, s.tree_2d.payload, "{at}");
                    assert_eq!(m.tree_3d.payload, s.tree_3d.payload, "{at}");
                    assert_eq!(m.rank_map.payload, s.rank_map.payload, "{at}");
                }
                assert_eq!(names_by_id(&dict), names_by_id(&serial_dict), "{case}");
            }
            // Every case but (a) really takes the held-back path.
            let interned = serial_dict.len() > serial_dict.base_len() as usize;
            assert_eq!(interned, case != "full dictionary", "{case}");
        }
    }

    #[test]
    fn the_daemon_map_ships_the_serial_bytes_and_ids_whatever_the_schedule() {
        daemon_map_matches_the_serial_loop::<DenseBitVector>(Representation::GlobalBitVector);
        daemon_map_matches_the_serial_loop::<SubtreeTaskList>(Representation::HierarchicalTaskList);
    }

    /// 64-bit FNV-1a over every daemon's contribution, in daemon order: one digest
    /// of the 2D and 3D tree payloads, one of the rank-map payloads.
    fn contribution_digest<S: WireTaskSet>(
        app: &dyn Application,
        daemons: u32,
        samples: u32,
    ) -> (u64, u64) {
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let fnv = |hash: &mut u64, payload: &[u8]| {
            for &byte in payload {
                *hash = (*hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let (mut trees, mut rank_maps) = (0xcbf2_9ce4_8422_2325u64, 0xcbf2_9ce4_8422_2325u64);
        for daemon in StatDaemon::partition(app.num_tasks(), daemons) {
            let c = daemon.contribute::<S>(app, samples, EndpointId(daemon.id), &dict);
            fnv(&mut trees, &c.tree_2d.payload);
            fnv(&mut trees, &c.tree_3d.payload);
            fnv(&mut rank_maps, &c.rank_map.payload);
        }
        (trees, rank_maps)
    }

    #[test]
    fn daemon_leaf_bytes_are_pinned_to_the_pre_fusion_values() {
        // Recorded at the commit before sampling and local tree building were fused
        // (PR 16, `eb7edc1`): the fused walk must ship the same bytes, daemon for
        // daemon, and the stream the same per-wave accounting.  The tree digests,
        // the dense waves and every column but the hierarchical `packet_bytes` are
        // still those values; the rank-map digests and that column were
        // re-recorded when rank maps became runs (32 contiguous daemons ship
        // 6 bytes less each: 192 bytes per wave).
        let v = FrameVocabulary::BlueGeneL;
        let ring = RingHangApp::new(1_024, v).with_hung_rank(5);
        let threaded = appsim::workloads::threaded(256, 3, v);
        let corrupted = appsim::workloads::corrupted_stacks(512, 7, v);
        let digests = [
            contribution_digest::<DenseBitVector>(&ring, 8, 3),
            contribution_digest::<SubtreeTaskList>(&ring, 8, 3),
            contribution_digest::<DenseBitVector>(&threaded, 8, 3),
            contribution_digest::<SubtreeTaskList>(&threaded, 8, 3),
            contribution_digest::<DenseBitVector>(&corrupted, 8, 3),
            contribution_digest::<SubtreeTaskList>(&corrupted, 8, 3),
        ];
        let (trees, rank_maps): (Vec<u64>, Vec<u64>) = digests.into_iter().unzip();
        assert_eq!(
            trees,
            [
                0xad28_728e_1f43_3621,
                0x4e82_0e48_be88_1e33,
                0x465d_95e5_58c9_410d,
                0x3420_a173_888c_0a8d,
                0x85ae_ff7f_0a22_47cb,
                0xbb62_7612_a645_5ab7,
            ],
            "{trees:#x?}"
        );
        assert_eq!(
            rank_maps,
            [
                0x4dfe_71f6_85cc_ff1d,
                0x4dfe_71f6_85cc_ff1d,
                0xf3fb_e89b_fa36_c15f,
                0xf3fb_e89b_fa36_c15f,
                0x3a30_b776_3d9b_f94d,
                0x3a30_b776_3d9b_f94d,
            ],
            "{rank_maps:#x?}"
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
                (2168, 1024, 1024, 1, 225),
                (2168, 352, 1024, 1, 225),
                (5193, 2265, 2265, 4, 832),
                (5138, 2112, 1769, 4, 706),
                (5226, 352, 1769, 4, 706),
                (5193, 352, 1769, 4, 706),
            ]
        );
    }
}
