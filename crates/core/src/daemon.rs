//! The STAT back-end daemon.
//!
//! One daemon runs per compute node (Atlas) or per I/O node (BG/L).  Its job is
//! small and local — and it is where the volume is: walk the call paths of the MPI
//! tasks it is responsible for straight into *locally merged* 2D and 3D prefix
//! trees ([`StatDaemon::contribute`]; no trace is materialised on the way), and
//! hand the serialised trees (plus its rank map) to the overlay network.
//! Everything global happens in the filters above it.  Both trees share one arena
//! that a walk descends once per distinct path it is lent (`PathEnds`); a
//! streaming daemon keeps it from wave to wave, and a one-shot gather's daemons
//! hand theirs on (`LocalTrees`).  Its packets are self-contained: a frame the
//! negotiated base lacks ships an id of the packet's own (numbered as its 2D,
//! then its 3D body first reaches it) and a record naming it, so it is final.

use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

use appsim::Application;
use stackwalk::{FrameDictionary, FrameId, FrameTable, TaskSamples};
use tbon::network::{InProcessTbon, TbonError};
use tbon::packet::{EndpointId, Packet, PacketTag};

use crate::graph::{NodeIdx, PrefixTree};
use crate::serialize::{encode_ordered, encode_rank_map, Numbering, WireTaskSet};
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
    /// Serialised locally merged 2D (trace/space) tree.  When each task gave one
    /// trace it is the 3D tree, and shares `tree_3d`'s buffer.
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
        trees.begin(self.leaf_width::<S>(), false);
        for (position, task) in samples.iter().enumerate() {
            for (nth, trace) in task.traces.iter().enumerate() {
                let end = trees.tree.descend(trace.frames());
                trees.record(position, task.rank, nth, end);
            }
        }
        trees.close();
        let [tree_2d, tree_3d] = [0, 1].map(|column| trees.labelled_tree(column));
        (tree_2d, tree_3d)
    }

    /// The daemon-local phase as one call: every call path sampled over the
    /// sample indices of `window` reaches its end node in `trees`' arena under a
    /// new epoch (by name, when the walk first sees its lent slice: [`PathEnds`]),
    /// the trees are closed upward and encoded, with the rank runs, into the three
    /// leaf packets over `dict`'s base; `trees` comes back, for the caller that
    /// keeps or pools it.
    fn contribute_from<S: WireTaskSet>(
        &self,
        app: &dyn Application,
        window: Range<u32>,
        (leaf, dict): (EndpointId, &FrameDictionary),
        table: &mut FrameTable,
        mut trees: LocalTrees<S>,
    ) -> (DaemonContribution, LocalTrees<S>) {
        let sample_start = Instant::now();
        let one_column = window.len() == 1 && app.threads_per_task() == 1;
        trees.begin(self.leaf_width::<S>(), one_column);
        let (mut traces, mut ends) = (0, PathEnds([(0, 0, 0); PATH_SLOTS]));
        appsim::for_each_sampled_path(app, &self.ranks, window, |pos, rank, nth, path| {
            let end = ends.end_of(path, || trees.tree.descend_named(table, path));
            trees.record(pos, rank, nth, end);
            traces += 1;
        });
        let merge_start = Instant::now();
        trees.close();
        let (tree_2d, tree_3d) = trees.encode(table, dict);
        let packet = |tag, payload: Vec<u8>| Packet::new(tag, leaf, payload);
        let tree_3d = packet(PacketTag::Merged3d, tree_3d);
        let tree_2d = tree_2d.map_or_else(|| tree_3d.payload.clone(), Into::into);
        let contribution = DaemonContribution {
            daemon_id: self.id,
            tree_2d: Packet::new(PacketTag::Merged2d, leaf, tree_2d),
            tree_3d,
            rank_map: packet(PacketTag::RankMap, encode_rank_map(&self.ranks)),
            traces_gathered: traces,
            sample_wall: merge_start - sample_start,
            local_merge_wall: merge_start.elapsed(),
        };
        (contribution, trees)
    }

    /// Run one full gather-and-merge cycle and package the results for the TBON.
    ///
    /// Sampling and local merging are one walk (`StatDaemon::contribute_from`),
    /// still timed as the two phases the paper measures: *sample* is the
    /// application's call paths, their descent into the local trees and the end
    /// marks; *local merge* is the upward close and the encode.  `dict` is the
    /// session's negotiated frame dictionary: the daemon symbolises into a
    /// [`FrameTable`] over its shared base, so a negotiated frame's id already is
    /// its global id, and its packets number and name the others themselves.
    pub fn contribute<S: WireTaskSet>(
        &self,
        app: &dyn Application,
        samples: u32,
        leaf: EndpointId,
        dict: &FrameDictionary,
    ) -> DaemonContribution {
        let mut table = dict.table();
        let trees = LocalTrees::<S>::new(self.leaf_width::<S>());
        self.contribute_from(app, 0..samples, (leaf, dict), &mut table, trees)
            .0
    }
}

/// The slots of a walk's [`PathEnds`].
const PATH_SLOTS: usize = 64;
/// How many slots a lookup reads, from a path's home slot on.
const PATH_PROBES: usize = 8;

/// One walk's end nodes by lent path, keyed by the slice's address and length,
/// which name the path for as long as the application is borrowed
/// ([`Application::call_path`]).  A local of the walk, so it outlives neither
/// that borrow nor the epoch.  A path lands in the first empty slot of its
/// probes, or else in its home slot: slots are overwritten, never emptied, so
/// a path still held is found before an empty slot, and paths that share a home
/// slot evict each other only past [`PATH_PROBES`] of them.
struct PathEnds([(usize, usize, NodeIdx); PATH_SLOTS]);

impl PathEnds {
    /// A path's home slot: a multiplicative hash of its address (no slice starts
    /// at 0, which marks an empty slot).
    fn home(address: usize) -> usize {
        let hash = (address as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        (hash >> (64 - PATH_SLOTS.trailing_zeros())) as usize
    }

    /// `path`'s end node, from its slot or, on a miss, from `descend`.
    fn end_of(&mut self, path: &[&str], descend: impl FnOnce() -> NodeIdx) -> NodeIdx {
        let key = (path.as_ptr() as usize, path.len());
        let home = Self::home(key.0);
        let mut free = home;
        for at in (home..home + PATH_PROBES).map(|at| at % PATH_SLOTS) {
            let (address, len, end) = self.0[at];
            if (address, len) == key {
                return end;
            } else if address == 0 {
                free = at;
                break;
            }
        }
        let end = descend();
        self.0[free] = (key.0, key.1, end);
        end
    }
}

/// A driver's last step per daemon, inside the map: its item, its frame table
/// and local trees back, its contribution.
type Finish<'a, T, S, R> =
    dyn Fn(T, FrameTable, DaemonContribution, LocalTrees<S>) -> R + Sync + 'a;

/// An item's daemon, the frame table and local trees it walks into, and its leaf.
type Parts<'a, S> = (&'a StatDaemon, FrameTable, LocalTrees<S>, EndpointId);

/// The daemon step of every gather, one-shot or streamed: each item's walk →
/// close → encode over the sample indices of `window`, then its `finish`, side
/// by side on `net`'s workers.  `parts` reaches an item's daemon and leaf and
/// hands over the frame table (a fresh one is the dictionary's) and the local
/// trees (a fresh arena, or a stream's from its last wave) to walk into, which
/// `finish` gets back.  Every packet numbers its own frames past `dict`'s base,
/// so no id depends on the schedule and what `finish` ships is final.  An arena
/// outlives its item's step only where `finish` keeps it.  A daemon whose walk
/// or `finish` panics is [`TbonError::PoolPoisoned`].
pub(crate) fn map_daemons<S: WireTaskSet + Send, T: Send, R: Send>(
    net: &InProcessTbon,
    items: Vec<T>,
    parts: for<'a> fn(&'a mut T, &FrameDictionary) -> Parts<'a, S>,
    (app, window): (&dyn Application, Range<u32>),
    dict: &FrameDictionary,
    finish: &Finish<'_, T, S, R>,
) -> Result<Vec<R>, TbonError> {
    net.map(items, &|mut item| {
        let (daemon, mut table, trees, leaf) = parts(&mut item, dict);
        let at = (leaf, dict);
        let (shipped, trees) = daemon.contribute_from(app, window.clone(), at, &mut table, trees);
        Ok(finish(item, table, shipped, trees))
    })
}

/// Every daemon's [`StatDaemon::contribute`] through [`map_daemons`], each
/// walking a new epoch into an arena of `pool` an earlier daemon left (one of
/// another row width is dropped), so a worker builds its daemons' shared frames
/// once.  An arena goes back only if its table (`dict`'s) has an empty overflow
/// (no table-local id reaches another table) and its epoch reached at least half
/// its nodes (so it holds at most twice one daemon's tree); any other is
/// dropped inside the map.  A poisoned pool reads as empty.
pub(crate) fn contribute_pooled<S: WireTaskSet + Send>(
    net: &InProcessTbon,
    daemons: Vec<(&StatDaemon, EndpointId)>,
    (app, samples): (&dyn Application, u32),
    dict: &FrameDictionary,
    pool: &Mutex<Vec<LocalTrees<S>>>,
) -> Result<Vec<DaemonContribution>, TbonError> {
    let items = daemons.into_iter().map(|(d, leaf)| (d, leaf, pool));
    map_daemons::<S, _, _>(
        net,
        items.collect(),
        |(daemon, leaf, pool), dict| {
            let width = daemon.leaf_width::<S>();
            let pooled = pool.lock().ok().and_then(|mut arenas| arenas.pop());
            let trees = pooled.filter(|trees| trees.wps == words_for(width));
            let trees = trees.unwrap_or_else(|| LocalTrees::new(width));
            (*daemon, dict.table(), trees, *leaf)
        },
        (app, 0..samples),
        dict,
        &|(_, _, pool), table, contribution, trees| {
            let reached = trees.column_3d().touched.len();
            let negotiated = table.len() == dict.base_len() as usize;
            if negotiated && 2 * reached >= trees.tree.node_count() {
                if let Ok(mut arenas) = pool.lock() {
                    arenas.push(trees);
                }
            }
            contribution
        },
    )
}

/// A daemon's 2D and 3D trees: one arena that every trace reaches by name, and
/// a label column per tree.  Every trace marks its task in the 3D column, a
/// task's first trace also in the 2D column; a task is marked only on the node
/// where its trace *ends*, and [`LocalTrees::close`] ORs every row into its
/// parent's, which makes each label "every task that reached this frame".  The
/// task is indexed by rank in a job-wide domain, by position in a concatenating
/// one.  Sampled names and gathered frame ids both come through here, so they
/// cannot disagree on a task's index or 2D feed.
///
/// When each task gives one trace (one sample, one thread), the 2D tree *is* the
/// 3D tree: that epoch marks, closes and encodes the 3D column alone.
///
/// A gather opens an epoch ([`LocalTrees::begin`]), which sets the domain's
/// width (the rows' words stay the arena's).  A fresh tree numbers its nodes in
/// the order the walk first reaches them, and each column records exactly that
/// order (see [`Column`]), so its packet is a fresh tree's whatever the arena
/// already held: a stream daemon keeps its trees from wave to wave and walks
/// each wave into them, and a one-shot gather's daemon walks into an arena an
/// earlier daemon of the same map left ([`contribute_pooled`]).
pub(crate) struct LocalTrees<S: WireTaskSet> {
    /// Every node any epoch reached; its own labels stay empty.
    pub(crate) tree: PrefixTree<S>,
    /// The labels' domain width, and the words a row of it takes.
    pub(crate) width: u64,
    pub(crate) wps: usize,
    /// The arena's node count when the epoch began: nodes from here on are its own.
    pub(crate) fresh_from: usize,
    /// The 2D tree's column, then the 3D tree's.
    columns: [Column; 2],
    /// This epoch leaves the 2D column alone: the 3D one serves for both.
    one_column: bool,
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
            width,
            wps,
            fresh_from: 0,
            columns: [Column::new(wps), Column::new(wps)],
            one_column: false,
        }
    }

    /// The 3D tree's column.
    pub(crate) fn column_3d(&self) -> &Column {
        &self.columns[1]
    }

    /// Open the next epoch over `width` task positions, as many words a row as
    /// the arena's: nothing is reached yet but the root.  `one_column`: every
    /// task gives one trace.
    fn begin(&mut self, width: u64, one_column: bool) {
        debug_assert_eq!(words_for(width), self.wps);
        self.width = width;
        self.fresh_from = self.tree.node_count();
        self.one_column = one_column;
        for column in &mut self.columns[usize::from(one_column)..] {
            column.epoch += 1;
            column.touched.clear();
            column.touch(&self.tree, self.tree.root());
        }
    }

    /// Record the `nth` trace of task `rank`, at `position` in the daemon's list,
    /// which ends at arena node `end`.
    fn record(&mut self, position: usize, rank: u64, nth: usize, end: NodeIdx) {
        let index = if S::CONCATENATES {
            position as u64
        } else {
            rank
        };
        for column in &mut self.columns[usize::from(nth > 0 || self.one_column)..] {
            if column.position(end).is_none() {
                column.touch(&self.tree, end);
            }
            if let Some(word) = column.rows.row_mut(end).get_mut((index / 64) as usize) {
                *word |= 1 << (index % 64);
            }
        }
    }

    /// End the walk: OR every reached node's row into its parent's, children
    /// first.
    fn close(&mut self) {
        for column in &mut self.columns[usize::from(self.one_column)..] {
            column.close(&self.tree);
        }
    }

    /// Both trees as v2 packet bodies (a one-column epoch's 2D tree is its 3D),
    /// each in first-touch order.  Both columns stay: the next epoch's stamps
    /// make the rows this one left unreadable, so an arena handed on in a pool
    /// keeps its 2D rows and stamps instead of growing them again.
    fn encode(&mut self, table: &FrameTable, dict: &FrameDictionary) -> (Option<Vec<u8>>, Vec<u8>) {
        let own = &mut Numbering::default();
        let mut body = |column: &Column| {
            let links = column
                .touched
                .iter()
                .skip(1)
                .map(|&n| column.link(&self.tree, n));
            let row = |at: usize| column.row(column.touched[at]);
            encode_ordered::<S>(self.width, links, row, (table, dict), own)
        };
        // The 2D tree first: the daemon numbers its own frames in the 2D tree's
        // node order, then the 3D tree's others.
        let tree_2d = (!self.one_column).then(|| body(&self.columns[0]));
        let tree_3d = body(&self.columns[1]);
        (tree_2d, tree_3d)
    }

    /// Let the 2D column go: a stream daemon keeps its arena from wave to wave
    /// and folds only the 3D rows, so its resident bytes stay one column's.
    pub(crate) fn release_2d(&mut self) {
        self.columns[0] = Column::new(self.wps);
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

    /// How many frames past the base a body names: its records.
    pub(crate) fn own_frames<S: WireTaskSet>(body: &[u8]) -> usize {
        let (_, frames): (PrefixTree<S>, _) = decode_tree(body).expect("a daemon's body reads");
        frames.records().count()
    }

    /// The daemon map under every worker count against a serial
    /// `StatDaemon::contribute` loop: the same packets, byte for byte.
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
            // (c) out of order: daemon 0 meets the barrier frame first, daemon 1
            //     the stall frame, and daemon 1 finishes first;
            (
                "sleepy, stall and barrier missed",
                &sleepy,
                without(&[stall, barrier]),
            ),
            // (d) daemon 1 alone meets a frame past the base.
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
            }
            // Every case but (a) really ships frames past the base.
            let named = serial
                .iter()
                .any(|c| own_frames::<S>(&c.tree_3d.payload) > 0);
            assert_eq!(named, case != "full dictionary", "{case}");
        }
    }

    #[test]
    fn the_daemon_map_ships_the_serial_bytes_and_ids_whatever_the_schedule() {
        daemon_map_matches_the_serial_loop::<DenseBitVector>(Representation::GlobalBitVector);
        daemon_map_matches_the_serial_loop::<SubtreeTaskList>(Representation::HierarchicalTaskList);
    }

    /// Nodes of `pool`'s arenas whose frame id is past `dict`'s base: a table-local
    /// id, which would name another frame in the next daemon's table.
    fn table_local_nodes<S: WireTaskSet>(
        pool: &Mutex<Vec<LocalTrees<S>>>,
        dict: &FrameDictionary,
    ) -> usize {
        let arenas = pool.lock().expect("no walk panicked");
        let frames = arenas
            .iter()
            .flat_map(|t| (0..t.tree.node_count()).map(|n| t.tree.frame(n)));
        frames.flatten().filter(|f| f.0 >= dict.base_len()).count()
    }

    /// The pooled daemon map at workers 1, 2 and 8, one sample (one column) and
    /// three, against a `StatDaemon::contribute` per daemon, each into a fresh
    /// arena: the same packets, byte for byte, from a map over an empty pool
    /// (`contribute_all`) and again from a second map over the arenas the first
    /// left.  The ring hang's hung
    /// rank opens daemon 5 of 16, so the daemons after it walk into an arena
    /// holding its stall path.  At one worker the first map leaves one arena,
    /// walked by the last daemons in a row of one row width and negotiated
    /// frames alone.
    fn pooled_map_matches_fresh_arenas<S: WireTaskSet + Send>() {
        let v = FrameVocabulary::BlueGeneL;
        let ring = |tasks| RingHangApp::new(tasks, v).with_hung_rank(330);
        let hints = ring(1_024).frame_hints();
        let no_stall: Vec<&str> = hints
            .iter()
            .copied()
            .filter(|&h| h != v.send_stall())
            .collect();
        // (case, app, negotiated names, epochs of the last arena at one worker:
        // job-wide rows, rows of the daemon's own tasks).
        let cases = [
            // Six daemons of 65 tasks (two words a row of their own), ten of 64 (one).
            ("64 and 65 tasks", ring(1_030), hints.clone(), (16, 10)),
            // Twelve daemons of 64 tasks, four of 63: one word a row either way.
            ("63 and 64 tasks", ring(1_020), hints.clone(), (16, 16)),
            // The hung daemon's table overflows with the stall frame: its arena
            // is not handed on.
            ("stall frame un-negotiated", ring(1_024), no_stall, (10, 10)),
        ];
        let topology = Topology::build(TreeShape::flat(16));
        for ((case, app, hints, epochs), samples) in cases.iter().flat_map(|c| [(c, 1), (c, 3)]) {
            let daemons = StatDaemon::partition(app.num_tasks(), 16);
            let leaves = || daemons.iter().zip(topology.backends().iter().copied());
            let serial_dict = FrameDictionary::negotiate(hints.iter().copied());
            let serial: Vec<DaemonContribution> = leaves()
                .map(|(d, leaf)| d.contribute::<S>(app, samples, leaf, &serial_dict))
                .collect();
            for workers in [1usize, 2, 8] {
                let dict = FrameDictionary::negotiate(hints.iter().copied());
                let net = InProcessTbon::new(topology.clone()).with_workers(workers);
                let pool = Mutex::<Vec<LocalTrees<S>>>::default();
                for pass in ["first map", "second map"] {
                    let at = format!("{case}, {samples} samples, {workers} workers, {pass}");
                    let mapped =
                        contribute_pooled(&net, leaves().collect(), (app, samples), &dict, &pool)
                            .expect("no worker dies");
                    assert_eq!(mapped.len(), serial.len(), "{at}");
                    for (m, s) in mapped.iter().zip(&serial) {
                        let at = format!("{at}, daemon {}", s.daemon_id);
                        assert_eq!(m.tree_2d.payload, s.tree_2d.payload, "{at}");
                        assert_eq!(m.tree_3d.payload, s.tree_3d.payload, "{at}");
                        assert_eq!(m.rank_map.payload, s.rank_map.payload, "{at}");
                    }
                    assert_eq!(table_local_nodes(&pool, &dict), 0, "{at}");
                    if (workers, pass) == (1, "first map") {
                        let arenas = pool.lock().expect("no walk panicked");
                        let want = if S::CONCATENATES { epochs.1 } else { epochs.0 };
                        let walked: Vec<u32> = arenas.iter().map(|t| t.column_3d().epoch).collect();
                        assert_eq!(walked, [want], "{at}: epochs of the pooled arenas");
                    }
                }
            }
        }
    }

    #[test]
    fn the_pooled_daemon_map_ships_each_fresh_arenas_bytes_and_ids() {
        pooled_map_matches_fresh_arenas::<DenseBitVector>();
        pooled_map_matches_fresh_arenas::<SubtreeTaskList>();
    }

    #[test]
    fn a_pooled_arena_keeps_its_2d_column_from_daemon_to_daemon() {
        // At one worker the sixteen 64-task daemons of a three-sample ring hang
        // walk one arena in a row: its 2D column has seen every epoch its 3D
        // column has, instead of starting over after each daemon's encode.
        let app = RingHangApp::new(1_024, FrameVocabulary::BlueGeneL).with_hung_rank(330);
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let daemons = StatDaemon::partition(app.num_tasks(), 16);
        let topology = Topology::build(TreeShape::flat(16));
        let net = InProcessTbon::new(topology.clone()).with_workers(1);
        let pool = Mutex::<Vec<LocalTrees<SubtreeTaskList>>>::default();
        let leaves = daemons.iter().zip(topology.backends().iter().copied());
        contribute_pooled(&net, leaves.collect(), (&app, 3), &dict, &pool).expect("no worker dies");
        let arenas = pool.lock().expect("no walk panicked");
        let epochs: Vec<[u32; 2]> = arenas
            .iter()
            .map(|t| t.columns.each_ref().map(|c| c.epoch))
            .collect();
        assert_eq!(epochs, [[16, 16]]);
    }

    /// Each daemon's tasks walk five frames of the daemon's own, then one of three
    /// more of its own by rank: no two daemons share a node but the root.
    struct Disjoint {
        per_daemon: u64,
        paths: Vec<Vec<&'static str>>,
    }

    impl Disjoint {
        fn new(daemons: u64, per_daemon: u64) -> Self {
            let name = |d, f| -> &'static str { Box::leak(format!("d{d}_f{f}").into_boxed_str()) };
            let paths = (0..daemons * 3).map(|p| {
                let (d, leaf) = (p / 3, 5 + p % 3);
                (0..5).chain([leaf]).map(|f| name(d, f)).collect()
            });
            Disjoint {
                per_daemon,
                paths: paths.collect(),
            }
        }
    }

    impl Application for Disjoint {
        fn name(&self) -> &str {
            "disjoint"
        }
        fn num_tasks(&self) -> u64 {
            self.paths.len() as u64 / 3 * self.per_daemon
        }
        fn call_path(&self, rank: u64, _thread: u32, _sample: u32) -> &[&'static str] {
            &self.paths[(rank / self.per_daemon * 3 + rank % 3) as usize]
        }
        fn frame_hints(&self) -> Vec<&'static str> {
            self.paths.iter().flatten().copied().collect()
        }
    }

    fn pooled_arenas_stay_within_twice_a_daemon_tree<S: WireTaskSet + Send>() {
        let app = Disjoint::new(16, 64);
        let dict = FrameDictionary::negotiate(app.frame_hints());
        let daemons = StatDaemon::partition(app.num_tasks(), 16);
        let topology = Topology::build(TreeShape::flat(16));
        for workers in [1usize, 2] {
            let net = InProcessTbon::new(topology.clone()).with_workers(workers);
            let pool = Mutex::<Vec<LocalTrees<S>>>::default();
            let leaves = daemons.iter().zip(topology.backends().iter().copied());
            let mapped = contribute_pooled(&net, leaves.collect(), (&app, 1), &dict, &pool)
                .expect("no worker dies");
            let tree = |c: &DaemonContribution| {
                let (tree, _): (PrefixTree<S>, _) = decode_tree(&c.tree_3d.payload).unwrap();
                tree.node_count()
            };
            let largest = mapped.iter().map(tree).max().unwrap_or(0);
            let arenas = pool.lock().expect("no walk panicked");
            let held: Vec<usize> = arenas.iter().map(|t| t.tree.node_count()).collect();
            assert!(!held.is_empty(), "{workers} workers: no arena went back");
            assert!(
                held.iter().all(|&n| n <= 2 * largest),
                "{workers} workers: arenas of {held:?} nodes, daemon trees of at most {largest}"
            );
        }
    }

    #[test]
    fn a_pooled_arena_holds_at_most_twice_a_daemon_tree() {
        pooled_arenas_stay_within_twice_a_daemon_tree::<DenseBitVector>();
        pooled_arenas_stay_within_twice_a_daemon_tree::<SubtreeTaskList>();
    }

    #[test]
    fn paths_that_share_a_home_slot_are_each_descended_once() {
        // Leak one-name paths until nine of them share a home slot.
        let mut by_home: Vec<Vec<&'static [&'static str]>> = vec![Vec::new(); PATH_SLOTS];
        let shared = loop {
            let path: &'static [&'static str] = Box::leak(Box::new(["main"]));
            let home = &mut by_home[PathEnds::home(path.as_ptr() as usize)];
            home.push(path);
            if home.len() > 8 {
                break home.clone();
            }
        };
        let mut ends = PathEnds([(0, 0, 0); PATH_SLOTS]);
        // Lend `paths` in turn ten times over; the descents it took.
        let mut lend = |paths: &[&'static [&'static str]]| {
            let mut descents = 0;
            for _ in 0..10 {
                for (n, path) in paths.iter().enumerate() {
                    let end = ends.end_of(path, || {
                        descents += 1;
                        n
                    });
                    assert_eq!(end, n, "path {n}");
                }
            }
            descents
        };
        // Eight stay held (a lookup probes as many slots): each is descended once.
        assert_eq!(lend(&shared[..8]), 8);
        // One more evicts another, and every end node is still its own.
        assert!(lend(&shared) > 1);
    }

    /// `app`'s paths `base` samples on, each lent from a copy leaked for the
    /// call: no two calls lend the same slice, so a walk descends every trace.
    pub(crate) struct Leaked<'a>(pub(crate) &'a dyn Application, pub(crate) u32);

    impl Application for Leaked<'_> {
        fn name(&self) -> &str {
            "leaked"
        }
        fn num_tasks(&self) -> u64 {
            self.0.num_tasks()
        }
        fn threads_per_task(&self) -> u32 {
            self.0.threads_per_task()
        }
        fn call_path(&self, rank: u64, thread: u32, sample: u32) -> &[&'static str] {
            Box::leak(self.0.call_path(rank, thread, sample + self.1).into())
        }
        fn frame_hints(&self) -> Vec<&'static str> {
            self.0.frame_hints()
        }
    }

    /// Each daemon's [`StatDaemon::contribute`] over `window`, into a fresh arena
    /// and through [`Leaked`], so that every trace is descended: the packets that
    /// a walk skipping no descent ships.
    pub(crate) fn descended<S: WireTaskSet>(
        leaves: &[(&StatDaemon, EndpointId)],
        app: &dyn Application,
        window: Range<u32>,
        dict: &FrameDictionary,
    ) -> Vec<DaemonContribution> {
        let (leaked, samples) = (Leaked(app, window.start), window.len() as u32);
        let each = |&(daemon, leaf): &(&StatDaemon, _)| {
            daemon.contribute::<S>(&leaked, samples, leaf, dict)
        };
        leaves.iter().map(each).collect()
    }

    /// The three packets of every contribution, in daemon order.
    pub(crate) fn payloads(contributions: &[DaemonContribution]) -> Vec<[Vec<u8>; 3]> {
        let packets = |c: &DaemonContribution| {
            [&c.tree_2d, &c.tree_3d, &c.rank_map].map(|p| p.payload.to_vec())
        };
        contributions.iter().map(packets).collect()
    }

    /// One array whose prefixes are every path: the same address, lent at
    /// lengths 0 to 8 by rank and sample.
    static FULL: [&str; 8] = [
        "_start", "main", "solve", "wait", "poll", "main", "solve", "wait",
    ];

    struct Prefixes;

    impl Application for Prefixes {
        fn name(&self) -> &str {
            "prefixes"
        }
        fn num_tasks(&self) -> u64 {
            1_024
        }
        fn call_path(&self, rank: u64, _thread: u32, sample: u32) -> &[&'static str] {
            &FULL[..((rank / 3 + u64::from(sample)) % 9) as usize]
        }
        fn frame_hints(&self) -> Vec<&'static str> {
            FULL[..3].to_vec()
        }
    }

    /// The pooled daemon map over apps whose lent slices are no help or a trap
    /// to a walk that skips the descent of a slice it saw: (a) prefixes of one
    /// array (one address, many lengths; "wait" and "poll" un-negotiated), (b) a
    /// leaked slice per call (no slice repeats), (c) 1,024 tasks in 256 classes
    /// of two paths, so each 64-task daemon lends 128 slices, more than it has
    /// slots.  At workers 1, 2 and 8, one sample and three, twice over one pool:
    /// the packets of a walk that descends every trace.
    fn lent_paths_end_where_they_descend<S: WireTaskSet + Send>() {
        let v = FrameVocabulary::BlueGeneL;
        let ring = RingHangApp::new(1_024, v).with_hung_rank(330);
        let leaked = Leaked(&ring, 0);
        let spread = appsim::workloads::compute_spread(1_024, 256, v);
        let cases: [(&str, &dyn Application); 3] = [
            ("prefixes of one array", &Prefixes),
            ("a leaked slice per call", &leaked),
            ("more paths than slots", &spread),
        ];
        let topology = Topology::build(TreeShape::flat(16));
        let daemons = StatDaemon::partition(1_024, 16);
        let leaves: Vec<_> = daemons
            .iter()
            .zip(topology.backends().iter().copied())
            .collect();
        let slices = |d: &StatDaemon| {
            let mut seen = std::collections::HashSet::new();
            appsim::for_each_sampled_path(&spread, &d.ranks, 0..3, |_, _, _, path| {
                seen.insert((path.as_ptr(), path.len()));
            });
            seen.len()
        };
        assert!(
            daemons.iter().all(|d| slices(d) > PATH_SLOTS),
            "(c) lends more slices than its slots"
        );
        for ((case, app), samples) in cases.iter().flat_map(|c| [(c, 1), (c, 3)]) {
            let hints = app.frame_hints();
            let serial_dict = FrameDictionary::negotiate(hints.iter().copied());
            let serial = descended::<S>(&leaves, *app, 0..samples, &serial_dict);
            for workers in [1usize, 2, 8] {
                let dict = FrameDictionary::negotiate(hints.iter().copied());
                let net = InProcessTbon::new(topology.clone()).with_workers(workers);
                let pool = Mutex::<Vec<LocalTrees<S>>>::default();
                for pass in ["first map", "second map"] {
                    let at = format!("{case}, {samples} samples, {workers} workers, {pass}");
                    let mapped =
                        contribute_pooled(&net, leaves.clone(), (*app, samples), &dict, &pool);
                    let mapped = mapped.expect("no worker dies");
                    assert!(
                        payloads(&mapped) == payloads(&serial),
                        "{at}: packets differ"
                    );
                }
            }
        }
        // (a) really ships the two names past the negotiation.
        let dict = FrameDictionary::negotiate(Prefixes.frame_hints());
        let shipped = descended::<S>(&leaves, &Prefixes, 0..1, &dict);
        let most = shipped
            .iter()
            .map(|c| own_frames::<S>(&c.tree_3d.payload))
            .max();
        assert_eq!(most, Some(2));
    }

    #[test]
    fn every_lent_path_ends_where_its_descent_ends() {
        lent_paths_end_where_they_descend::<DenseBitVector>();
        lent_paths_end_where_they_descend::<SubtreeTaskList>();
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
        // 6 bytes less each: 192 bytes per wave).  The `resident_bytes` column
        // was re-recorded when only the front end kept a resident tree (it had
        // summed the interior nodes' copies too).
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
                (6016, 3008, 3008, 1, 345),
                (6016, 480, 3008, 1, 345),
                (10188, 3926, 5110, 4, 661),
                (10154, 3258, 5114, 4, 663),
                (10204, 480, 5114, 4, 663),
                (10188, 480, 5114, 4, 663),
            ]
        );
        assert_eq!(
            hier,
            [
                (2168, 1024, 1024, 1, 33),
                (2168, 352, 1024, 1, 33),
                (5193, 2265, 2265, 4, 283),
                (5138, 2112, 1769, 4, 237),
                (5226, 352, 1769, 4, 237),
                (5193, 352, 1769, 4, 237),
            ]
        );
    }
}
