//! Wire format for prefix trees — version 2: interned frames, varint bodies.
//!
//! STAT's merge filter runs inside MRNet communication processes, which only see
//! packed byte buffers, so the packet sizes flowing through the in-process TBON
//! are the *real* serialised sizes — including, for the dense representation, all
//! the zero words Section V complains about.  Frame names live in a session-global
//! [`FrameDictionary`] negotiated once at setup; packets carry u32 ids, and every
//! length or count is an LEB128 varint.  Any version byte but 2 is the typed
//! [`DecodeError::Version`].  Ids past the base are the packet's own: its
//! encoder numbers them in the order it first reaches them, and one record each
//! names them, so a packet is self-contained and no id depends on which daemon
//! met a name first.  Readers match them across packets by name.
//!
//! ```text
//! magic    u32     0x53544154 ("STAT"), little-endian
//! version  u8      2 — anything else is rejected with DecodeError::Version
//! repr     u8      0 = dense/job-wide, 1 = subtree/hierarchical
//! width    varint  domain width of every task set in the tree
//! base     varint  negotiated dictionary length the encoder assumed
//! nrecords varint  incremental dictionary records: the packet's own frames,
//!   per record:    gid varint (the k-th record's is base + k), name-length
//!                  varint, UTF-8 bytes — each name once, each gid node-used
//! nnodes   varint  node count including the implicit root at index 0
//!   root:          task-set bytes only (no parent / frame fields)
//!   per node:      parent-delta varint (index - parent, >= 1),
//!                  frame id varint (a base id or a recorded one), task-set bytes
//! ```
//!
//! Dense (job-wide) sets ship one varint per 64-bit word: an empty word costs one
//! byte, but the size still grows with the *job*, as Section V requires.  Subtree
//! sets ship run-length tokens (`token = n << 2 | kind`): kind 0 is `n` zero
//! words, kind 1 `n` saturated words (every valid bit set), kind 2 announces `n`
//! literal 8-byte words.
//!
//! One reader validates every body into flat columns (`FlatTree`): parents, ids
//! and word rows, no per-node allocation.  [`decode_tree`] builds a
//! [`PrefixTree`] from them; the merge filter instead folds its children's
//! columns into one output at its final width and writes it through the
//! encoders' own writer, so no tree exists between the daemons and the front end.
//! The output keeps its first child's ids and takes a later child's new names in
//! its id order.  Equal children are read once: the filter keys each
//! concatenating body by its bytes, and a repeat ORs its rows in at its own
//! offset through the node map its first copy left in the merge's
//! `(parent, frame)` index.

use std::collections::{BTreeMap, HashMap};
use std::hash::BuildHasherDefault;
use std::ops::Range;

use stackwalk::{FrameDictionary, FrameId, FrameTable};

use crate::graph::{ChildKeyHasher, PrefixTree};
use crate::taskset::{bit_of, or_shifted, word_of, words_for, RankRuns, TaskSetOps};

/// Magic number identifying a serialised STAT prefix tree.
pub const MAGIC: u32 = 0x5354_4154;

/// Wire-format version this module encodes and the only one it decodes.
pub const VERSION: u8 = 2;

/// Widest task-set domain a packet may claim.  A corrupted varint can otherwise
/// announce a width whose zero-run reconstruction alone would exhaust memory;
/// 2^28 tasks is ~1,200× the largest job the paper measured.
pub const MAX_WIRE_WIDTH: u64 = 1 << 28;

/// How one task set's packed words are laid out in a packet body.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SetCodec {
    /// One varint per word: an empty word costs one byte instead of eight, but the
    /// byte count stays linear in the domain — by design, for the job-wide sets.
    VarintWords,
    /// Run-length tokens over zero, saturated and literal words.
    RunLength,
}

/// Extension trait for task sets that can cross the wire.
pub trait WireTaskSet: TaskSetOps {
    /// Representation tag stored in the header.
    const TAG: u8;
    /// The layout of each set in the body.
    const CODEC: SetCodec;
    /// The packed bitmap words.
    fn words(&self) -> &[u64];
    /// Rebuild from packed words.  Stray bits at or above `width` in the last word
    /// are masked off and a word vector longer than the domain requires is
    /// rejected, so a malformed packet cannot corrupt `count`/`members`.
    fn from_words(width: u64, words: Vec<u64>) -> Self;
}

/// Errors that can occur while decoding a packet.
///
/// Every variant that corresponds to a malformed buffer carries the byte offset at
/// which decoding failed, so a front end looking at a bad packet from one of 208K
/// endpoints can report *where* the stream went wrong, not just that it did.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer is shorter than the structure it claims to contain.
    Truncated {
        /// Byte offset at which more data was expected.
        offset: usize,
    },
    /// The magic number did not match.
    BadMagic,
    /// The packet announces a wire-format version this decoder does not speak.
    Version {
        /// Version byte found in the buffer.
        found: u8,
    },
    /// The representation tag did not match the expected task-set type.
    WrongRepresentation {
        /// Tag found in the buffer.
        found: u8,
        /// Tag the caller expected.
        expected: u8,
    },
    /// A frame name was not valid UTF-8.
    BadFrameName {
        /// Byte offset of the offending name.
        offset: usize,
    },
    /// A node referenced a parent, frame id or run length outside the packet.
    BadIndex {
        /// Byte offset of the offending record.
        offset: usize,
    },
    /// A varint ran past 64 bits.
    BadVarint {
        /// Byte offset at which the varint started.
        offset: usize,
    },
    /// Two packets that should share one session dictionary disagree about its
    /// negotiated base length — they cannot be merged by id.
    DictionaryMismatch {
        /// Base length of the packet already absorbed.
        expected: u32,
        /// Base length the offending packet claims.
        found: u32,
    },
    /// Records name one frame id twice, or one name under two ids.
    FrameConflict {
        /// The id named twice, or the later id of a name shipped twice.
        gid: u32,
    },
    /// A decoded rank map names an MPI rank outside the job: a corrupted map can
    /// still be well-formed runs, and only this check separates it from a real one.
    RankOutOfRange {
        /// The offending decoded rank.
        rank: u64,
        /// Number of tasks in the job.
        tasks: u64,
    },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { offset } => {
                write!(f, "buffer truncated at byte offset {offset}")
            }
            DecodeError::BadMagic => write!(f, "bad magic number (not a STAT packet)"),
            DecodeError::Version { found } => write!(
                f,
                "unsupported wire-format version {found} (this decoder speaks version {VERSION})"
            ),
            DecodeError::WrongRepresentation { found, expected } => write!(
                f,
                "representation tag {found} does not match the expected tag {expected}"
            ),
            DecodeError::BadFrameName { offset } => {
                write!(f, "frame name at byte offset {offset} is not valid UTF-8")
            }
            DecodeError::BadIndex { offset } => write!(
                f,
                "record at byte offset {offset} references an out-of-range index"
            ),
            DecodeError::BadVarint { offset } => {
                write!(f, "malformed varint at byte offset {offset}")
            }
            DecodeError::DictionaryMismatch { expected, found } => write!(
                f,
                "packet negotiated a dictionary base of {found} names, but this session's base is {expected}"
            ),
            DecodeError::FrameConflict { gid } => write!(f, "frame id {gid} is named twice"),
            DecodeError::RankOutOfRange { rank, tasks } => write!(
                f,
                "rank map names MPI rank {rank} in a {tasks}-task job"
            ),
        }
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Varints
// ---------------------------------------------------------------------------

fn put_varint(sink: &mut Vec<u8>, mut value: u64) {
    loop {
        // stat-analyzer: allow(truncating-cast) — masked to the low 7 bits first
        let low = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            sink.push(low);
            return;
        }
        sink.push(low | 0x80);
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        let truncated = DecodeError::Truncated { offset: self.pos };
        let end = self.pos.checked_add(n).ok_or(truncated.clone())?;
        let s = self.buf.get(self.pos..end).ok_or(truncated)?;
        self.pos = end;
        Ok(s)
    }
    /// A fixed-size read; the length mismatch arm is unreachable (`take(N)`
    /// returns exactly `N` bytes) but decodes to `Truncated` rather than a panic.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        let offset = self.pos;
        self.take(N)?
            .try_into()
            .map_err(|_| DecodeError::Truncated { offset })
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        let [b] = self.array()?;
        Ok(b)
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.array()?))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.array()?))
    }
    fn varint(&mut self) -> Result<u64, DecodeError> {
        let start = self.pos;
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let byte = self.u8()?;
            let low = u64::from(byte & 0x7f);
            if shift >= 64 || (shift == 63 && low > 1) {
                return Err(DecodeError::BadVarint { offset: start });
            }
            value |= low << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }
    /// A varint that must fit a `usize` count; a lying prefix fails as `Truncated`.
    fn varint_count(&mut self) -> Result<usize, DecodeError> {
        let offset = self.pos;
        usize::try_from(self.varint()?).map_err(|_| DecodeError::Truncated { offset })
    }
    /// A varint that must fit a u32 id.
    fn varint_u32(&mut self) -> Result<u32, DecodeError> {
        let offset = self.pos;
        u32::try_from(self.varint()?).map_err(|_| DecodeError::BadIndex { offset })
    }
}

// ---------------------------------------------------------------------------
// Incremental dictionary records
// ---------------------------------------------------------------------------

/// The incremental dictionary records travelling with (or merged from) v2
/// packets: names for a packet's own frames, past the negotiated base.
///
/// Two packets may number the same names differently: the merge filter matches
/// its children's records by name and ships its output's own, so every packet
/// stays self-contained without re-shipping the base.  [`merge`](Self::merge)
/// unions record sets by id, for packets that number alike.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireFrames {
    base_len: u32,
    records: BTreeMap<u32, String>,
}

impl WireFrames {
    /// The negotiated base length the packet assumed.
    pub fn base_len(&self) -> u32 {
        self.base_len
    }

    /// The name of an incremental frame, if this packet carried it.
    pub fn name_of(&self, gid: u32) -> Option<&str> {
        self.records.get(&gid).map(String::as_str)
    }

    /// Incremental records in id order.
    pub fn records(&self) -> impl Iterator<Item = (u32, &str)> + '_ {
        self.records.iter().map(|(gid, name)| (*gid, name.as_str()))
    }

    /// Absorb another packet's records by id.  Both packets must have negotiated
    /// the same base — a mismatch means they belong to different sessions — and
    /// number alike: an id the two name differently is a
    /// [`DecodeError::FrameConflict`] (the records before it are absorbed).
    pub fn merge(&mut self, other: &WireFrames) -> Result<(), DecodeError> {
        let (expected, found) = (self.base_len, other.base_len);
        ensure(
            expected == found,
            DecodeError::DictionaryMismatch { expected, found },
        )?;
        for (&gid, name) in &other.records {
            let ours = self.records.entry(gid).or_insert_with(|| name.clone());
            ensure(ours == name, DecodeError::FrameConflict { gid })?;
        }
        Ok(())
    }

    /// The id these records give `name`: its record's, or else a new record's,
    /// next past the last.
    pub(crate) fn id_of(&mut self, name: &str) -> u32 {
        let last = self.records.keys().next_back();
        let next = last.map_or(self.base_len, |&gid| gid.saturating_add(1));
        let named = self.records.iter().find(|(_, ours)| *ours == name);
        let gid = named.map_or(next, |(&gid, _)| gid);
        self.records.entry(gid).or_insert_with(|| name.to_string());
        gid
    }
}

// ---------------------------------------------------------------------------
// v2 encoding
// ---------------------------------------------------------------------------

/// The writer's view of a body whose words stay where they are: the root, then
/// each node of `nodes` as its parent's position in this order and its gid.
/// The caller adds the incremental records that keep the packet self-contained.
fn plan<'a>(
    (width, base_len): (u64, u32),
    nodes: impl Iterator<Item = (usize, u32)>,
) -> FlatTree<'a> {
    let nodes = std::iter::once((0, 0)).chain(nodes).collect();
    FlatTree {
        width,
        base_len,
        nodes,
        ..FlatTree::default()
    }
}

/// A tree's non-root nodes in index order, each as `(parent, frame)`.
pub(crate) fn links<S: TaskSetOps>(
    tree: &PrefixTree<S>,
) -> impl Iterator<Item = (usize, FrameId)> + '_ {
    tree.iter_nodes().map(|(_, frame, parent)| (parent, frame))
}

/// Bits of the last (possibly partial) word that are valid for a domain of
/// `width` tasks: the value a fully saturated word at `index` holds.
fn full_word_mask(width: u64, index: usize) -> u64 {
    let hi = (index as u64 + 1).saturating_mul(64);
    if hi <= width {
        u64::MAX
    } else {
        // The word exists, so width > index * 64 and the shift is in 1..=63.
        u64::MAX >> (hi - width)
    }
}

const RUN_ZERO: u64 = 0;
const RUN_FULL: u64 = 1;
const RUN_LITERAL: u64 = 2;

fn run_kind(word: u64, full: u64) -> u64 {
    if word == 0 {
        RUN_ZERO
    } else if word == full {
        RUN_FULL
    } else {
        RUN_LITERAL
    }
}

fn write_task_set<S: WireTaskSet>(sink: &mut Vec<u8>, words: &[u64], width: u64) {
    if S::CODEC == SetCodec::VarintWords {
        // Dense sets stay proportional to the job: one varint per word, so the
        // empty words Section V complains about cost one byte each instead of
        // eight — smaller, but still linear in total tasks by design.
        for &word in words {
            put_varint(sink, word);
        }
        return;
    }
    // Subtree sets run-length encode: zero and saturated runs are one token,
    // mixed words ship literally after a kind-2 token.
    let mut iter = words.iter().enumerate().peekable();
    while let Some(&(start, &first)) = iter.peek() {
        let kind = run_kind(first, full_word_mask(width, start));
        let run = iter
            .clone()
            .take_while(|&(k, &w)| run_kind(w, full_word_mask(width, k)) == kind)
            .count() as u64;
        put_varint(sink, (run << 2) | kind);
        for _ in 0..run {
            if let Some((_, &word)) = iter.next() {
                if kind == RUN_LITERAL {
                    sink.extend_from_slice(&word.to_le_bytes());
                }
            }
        }
    }
}

/// The one v2 writer: header, records and node links from `plan`, each node's
/// task-set words from `row`.  Trees and the wire merge both write through it.
fn write_body<'w, S: WireTaskSet>(
    sink: &mut Vec<u8>,
    plan: &FlatTree<'_>,
    row: impl Fn(usize) -> &'w [u64],
) {
    sink.extend_from_slice(&MAGIC.to_le_bytes());
    sink.extend([VERSION, S::TAG]);
    put_varint(sink, plan.width);
    put_varint(sink, u64::from(plan.base_len));
    put_varint(sink, plan.records.len() as u64);
    for &(gid, name) in &plan.records {
        put_varint(sink, u64::from(gid));
        put_varint(sink, name.len() as u64);
        sink.extend_from_slice(name.as_bytes());
    }
    put_varint(sink, plan.nodes.len() as u64);
    for (idx, &(parent, gid)) in plan.nodes.iter().enumerate() {
        if idx > 0 {
            // Parents precede children in index order, so the delta is always
            // >= 1 and usually tiny — one varint byte for the common case.
            put_varint(sink, (idx - parent) as u64);
            put_varint(sink, u64::from(gid));
        }
        write_task_set::<S>(sink, row(idx), plan.width);
    }
}

/// Serialise a tree into a v2 packet body: base ids of a table over `dict`'s
/// base ship as they are, any other frame goes by name — a negotiated name ships
/// its base id, any other an id of the packet's own past the base, numbered in
/// node order and named by a record.
pub fn encode_tree<S: WireTaskSet>(
    tree: &PrefixTree<S>,
    table: &FrameTable,
    dict: &FrameDictionary,
) -> Vec<u8> {
    let (row, own) = (|node| tree.tasks(node).words(), &mut Numbering::default());
    encode_ordered::<S>(tree.width(), links(tree), row, (table, dict), own)
}

/// A packet's own frame ids, from the base up: the table frame behind each, in
/// the order the packet's bodies first reach them, and each frame's id.
#[derive(Default)]
pub(crate) struct Numbering(Vec<FrameId>, HashMap<FrameId, u32>);

/// A tree given in the order its nodes ship, as a body: the non-root nodes as
/// `(parent's position, frame)`, each parent listed before its children, and
/// `row` answering a position's task-set words (the root's is 0).  A frame of
/// `table` outside `dict`'s base ships its base id if `dict` names it, else its
/// id in `own`, numbered there if new, and a record names each own id.  A
/// daemon's 2D and 3D bodies share one `own`, 2D first: a later body reaches
/// every frame an earlier one numbered.
pub(crate) fn encode_ordered<'t, S: WireTaskSet>(
    width: u64,
    nodes: impl Iterator<Item = (usize, FrameId)>,
    row: impl Fn(usize) -> &'t [u64],
    (table, dict): (&FrameTable, &FrameDictionary),
    Numbering(frames, gids): &mut Numbering,
) -> Vec<u8> {
    let (shared, base_len) = (dict.shares_base(table), dict.base_len());
    // Base ids of a table over `dict`'s base are session ids, and its overflow
    // holds no base name; a table over another base looks its names up.
    let negotiated = if shared { base_len } else { 0 };
    let base = (!shared).then(|| dict.table());
    let mut gid_of = |frame: FrameId| {
        let next = base_len.saturating_add(u32::try_from(frames.len()).unwrap_or(u32::MAX));
        let known = base.as_ref().and_then(|b| b.lookup(table.name(frame)));
        let id = known.map_or(next, |id| id.0);
        frames.extend((id == next).then_some(frame));
        id
    };
    let nodes = nodes.map(|(parent, frame)| match frame.0 < negotiated {
        true => (parent, frame.0),
        false => (parent, *gids.entry(frame).or_insert_with(|| gid_of(frame))),
    });
    let mut plan = plan((width, base_len), nodes);
    let own = (base_len..).zip(frames.iter());
    plan.records = own.map(|(gid, &frame)| (gid, table.name(frame))).collect();
    let mut out = Vec::with_capacity(32 + plan.nodes.len() * 8);
    write_body::<S>(&mut out, &plan, row);
    out
}

/// Re-serialise a decoded (or merged) tree in the ids `frames` names — the
/// filter path.  No dictionary handle needed: the incremental records (unioned
/// into `frames` from inputs that number alike) keep the packet self-contained.
pub fn encode_merged_tree<S: WireTaskSet>(tree: &PrefixTree<S>, frames: &WireFrames) -> Vec<u8> {
    let at = (tree.width(), frames.base_len());
    let mut plan = plan(at, links(tree).map(|(parent, frame)| (parent, frame.0)));
    // One record per id past the base a node carries, in id order.  A merged
    // tree only carries frames its inputs named, so a name is always found; an
    // empty one ships rather than a panic mid-filter if that ever breaks.
    let own = plan.nodes.iter().skip(1).filter(|&&(_, gid)| gid >= at.1);
    let name = |&(_, gid): &(usize, u32)| (gid, frames.name_of(gid).unwrap_or(""));
    let own: BTreeMap<u32, &str> = own.map(name).collect();
    plan.records = own.into_iter().collect();
    let mut out = Vec::with_capacity(32 + tree.node_count() * 8);
    write_body::<S>(&mut out, &plan, |node| tree.tasks(node).words());
    out
}

// ---------------------------------------------------------------------------
// v2 decoding
// ---------------------------------------------------------------------------

/// Fail with `err` unless `ok`.
fn ensure(ok: bool, err: DecodeError) -> Result<(), DecodeError> {
    ok.then_some(()).ok_or(err)
}

/// No node: the end of a child list.
const NO_NODE: usize = usize::MAX;

/// The slot of `gid` among a body's own ids, `base..base + slots.len()`.
fn own_slot<T>(slots: &mut [T], base: u32, gid: u32) -> Option<&mut T> {
    slots.get_mut(usize::try_from(gid.checked_sub(base)?).ok()?)
}

/// A v2 body as flat columns: per node its parent (the root's is 0) and global
/// frame id, its first child and next sibling in wire order, and a row of `wps`
/// task-set words masked to `width`.  The reader fills one with no per-node
/// allocation, the wire merge builds one, and the writer reads one.
#[derive(Default)]
struct FlatTree<'a> {
    width: u64,
    base_len: u32,
    wps: usize,
    nodes: Vec<(usize, u32)>,
    links: Vec<(usize, usize)>,
    words: Vec<u64>,
    /// Incremental records sorted by gid: the body's own ids, from the base up.
    /// A merge's output numbers every body's names here.
    records: Vec<(u32, &'a str)>,
    /// The records by name.
    names: HashMap<&'a str, u32>,
    /// A merge's `(parent, gid) → child` index, as a [`PrefixTree`] keeps it:
    /// the newest child of a frame wins.
    index: HashMap<(usize, u32), usize, BuildHasherDefault<ChildKeyHasher>>,
}

impl<'a> FlatTree<'a> {
    /// Read and validate one v2 body, replacing what the columns held.  This is
    /// the only v2 reader: every check a packet must pass is made here.
    fn read<S: WireTaskSet>(&mut self, buf: &'a [u8]) -> Result<(), DecodeError> {
        let truncated = |offset| DecodeError::Truncated { offset };
        let bad_index = |offset| DecodeError::BadIndex { offset };
        let mut r = Reader::new(buf);
        ensure(r.u32()? == MAGIC, DecodeError::BadMagic)?;
        let found = r.u8()?;
        ensure(found == VERSION, DecodeError::Version { found })?;
        let (found, expected) = (r.u8()?, S::TAG);
        let wrong = DecodeError::WrongRepresentation { found, expected };
        ensure(found == expected, wrong)?;
        let width_at = r.pos;
        self.width = r.varint()?;
        ensure(self.width <= MAX_WIRE_WIDTH, truncated(width_at))?;
        self.wps = usize::try_from(self.width.div_ceil(64)).map_err(|_| truncated(width_at))?;
        self.base_len = r.varint_u32()?;
        let at = r.pos;
        let nrecords = r.varint_count()?;
        // A corrupted count must fail as `Truncated`, not drive a huge allocation:
        // each record needs at least its two varint bytes.
        ensure(nrecords.saturating_mul(2) <= r.remaining(), truncated(at))?;
        // The packet's own ids are base..base + nrecords, named in id order,
        // each name once, and each carried by a node.
        let (mut carried, base, records_at) = (vec![false; nrecords], self.base_len, at);
        self.records.clear();
        self.names.clear();
        for want in (u64::from(base)..).take(nrecords) {
            let at = r.pos;
            let gid = r.varint_u32()?;
            ensure(u64::from(gid) == want, bad_index(at))?;
            let len = r.varint_count()?;
            let offset = r.pos;
            let name = std::str::from_utf8(r.take(len)?)
                .map_err(|_| DecodeError::BadFrameName { offset })?;
            let named_twice = self.names.insert(name, gid).is_some();
            ensure(!named_twice, DecodeError::FrameConflict { gid })?;
            self.records.push((gid, name));
        }
        let at = r.pos;
        let nnodes = r.varint_count()?;
        ensure(nnodes > 0, bad_index(at))?;
        // Every non-root node carries at least a parent-delta byte and a frame-id
        // byte; a node count the buffer cannot possibly hold is a lie.
        ensure(
            nnodes.saturating_mul(2).saturating_sub(2) <= r.remaining(),
            truncated(at),
        )?;
        // Varint-word sets carry at least one byte per word; reject widths the
        // remaining buffer cannot hold before allocating for them.
        let dense = S::CODEC == SetCodec::VarintWords;
        ensure(!dense || self.wps <= r.remaining(), truncated(width_at))?;
        self.nodes.clear();
        self.words.clear();
        self.nodes.reserve(nnodes);
        self.words
            .reserve(nnodes.saturating_mul(self.wps).min(buf.len()));
        for idx in 0..nnodes {
            let mut node = (0, 0);
            if idx > 0 {
                let at = r.pos;
                let delta = r.varint_count()?;
                ensure(delta > 0 && delta <= idx, bad_index(at))?;
                let gid = r.varint_u32()?;
                if gid >= base {
                    *own_slot(&mut carried, base, gid).ok_or(bad_index(at))? = true;
                }
                node = (idx - delta, gid);
            }
            self.nodes.push(node);
            self.read_set::<S>(&mut r)?;
        }
        // A record no node carries names nothing.
        ensure(carried.iter().all(|&c| c), bad_index(records_at))?;
        // A reverse scan pushes each node onto the front of its parent's child
        // list, which leaves every list in wire order.
        self.links.clear();
        self.links.resize(nnodes, (NO_NODE, NO_NODE));
        for (node, &(parent, _)) in self.nodes.iter().enumerate().skip(1).rev() {
            let head = self
                .links
                .get_mut(parent)
                .map(|(first, _)| std::mem::replace(first, node));
            if let (Some(head), Some((_, next))) = (head, self.links.get_mut(node)) {
                *next = head;
            }
        }
        Ok(())
    }

    /// Append one task set, decoding each word exactly once.
    fn read_set<S: WireTaskSet>(&mut self, r: &mut Reader<'a>) -> Result<(), DecodeError> {
        let (wps, width) = (self.wps, self.width);
        let end = self.words.len() + wps;
        while self.words.len() < end {
            let left = end - self.words.len();
            if S::CODEC == SetCodec::VarintWords {
                // Runs of one-byte words (the empty ones, mostly) in bulk.
                let rest = r.buf.get(r.pos..).unwrap_or_default().iter().take(left);
                self.words
                    .extend(rest.take_while(|&&byte| byte < 0x80).map(|&b| u64::from(b)));
                r.pos += left - (end - self.words.len());
                if self.words.len() < end {
                    self.words.push(r.varint()?);
                }
                continue;
            }
            let offset = r.pos;
            let token = r.varint()?;
            let n = usize::try_from(token >> 2).map_err(|_| DecodeError::BadIndex { offset })?;
            ensure(n > 0 && n <= left, DecodeError::BadIndex { offset })?;
            let first = wps - left;
            match token & 3 {
                RUN_ZERO => self.words.extend(std::iter::repeat_n(0, n)),
                RUN_FULL => self
                    .words
                    .extend((first..first + n).map(|index| full_word_mask(width, index))),
                RUN_LITERAL => {
                    for _ in 0..n {
                        self.words.push(r.u64()?);
                    }
                }
                _ => return Err(DecodeError::BadIndex { offset }),
            }
        }
        // Stray bits at or above the width are masked off, as
        // `WireTaskSet::from_words` does: shifted into a concatenated domain they
        // would land on the next body's positions.
        if let (Some(last), Some(index)) = (self.words.last_mut(), wps.checked_sub(1)) {
            *last &= full_word_mask(width, index);
        }
        Ok(())
    }

    /// The body as a tree, node for node.
    fn tree<S: WireTaskSet>(&self) -> PrefixTree<S> {
        let mut tree = PrefixTree::<S>::new(self.width);
        for (node, &(parent, gid)) in self.nodes.iter().enumerate() {
            // Node 0 is the root in both.
            let idx = (node > 0).then(|| tree.append_node(parent, FrameId(gid)));
            let idx = idx.unwrap_or(0);
            tree.replace_tasks(idx, S::from_words(self.width, self.row(node).to_vec()));
        }
        tree
    }

    /// Give each own id the id `id_of` gives its record's name, asked in id
    /// order; the nodes are rewritten only when an id moves.  Returns a base id
    /// `id_of` gave, if any: that record names a negotiated frame.
    fn rename(&mut self, id_of: impl FnMut(&'a str) -> u32) -> Option<u32> {
        let (names, base) = (self.records.iter().map(|&(_, name)| name), self.base_len);
        let mut ids: Vec<u32> = names.map(id_of).collect();
        if self.records.iter().map(|r| r.0).ne(ids.iter().copied()) {
            for (_, gid) in self.nodes.iter_mut().skip(1) {
                *gid = own_slot(&mut ids, base, *gid).map_or(*gid, |id| *id);
            }
        }
        ids.into_iter().find(|&id| id < base)
    }

    /// The task-set words of `node`.
    fn row(&self, node: usize) -> &[u64] {
        let wps = self.wps;
        self.words
            .get(node * wps..(node + 1) * wps)
            .unwrap_or_default()
    }
}

/// Deserialise a v2 packet body into a tree carrying the packet's frame ids,
/// plus the incremental dictionary records the packet shipped.
///
/// No frame table is needed (or touched): a base id names the negotiated frame,
/// any other the packet's own record.
pub fn decode_tree<S: WireTaskSet>(buf: &[u8]) -> Result<(PrefixTree<S>, WireFrames), DecodeError> {
    let mut flat = FlatTree::default();
    flat.read::<S>(buf)?;
    let records = flat.records.iter().map(|&(g, name)| (g, name.to_string()));
    let (base_len, records) = (flat.base_len, records.collect());
    Ok((flat.tree(), WireFrames { base_len, records }))
}

/// Deserialise a body over a base of `base_len` names (another base is a
/// [`DecodeError::DictionaryMismatch`]) into a tree whose own frame ids are the
/// ids `id_of` gives their names, asked in id order.  A record whose name
/// `id_of` finds in the base names one frame under two ids: a
/// [`DecodeError::FrameConflict`] for that base id.
pub(crate) fn decode_named<S: WireTaskSet>(
    buf: &[u8],
    base_len: u32,
    id_of: impl FnMut(&str) -> u32,
) -> Result<PrefixTree<S>, DecodeError> {
    let mut flat = FlatTree::default();
    flat.read::<S>(buf)?;
    let (expected, found) = (base_len, flat.base_len);
    if expected != found {
        return Err(DecodeError::DictionaryMismatch { expected, found });
    }
    match flat.rename(id_of) {
        Some(gid) => Err(DecodeError::FrameConflict { gid }),
        None => Ok(flat.tree()),
    }
}

/// The wire merge: a [`FlatTree`] at the output width, built by folding bodies.
impl<'a> FlatTree<'a> {
    /// Start a merge from the first accepted body, node for node, over a
    /// `width`-task domain.
    fn merged(first: &FlatTree<'a>, width: u64) -> Self {
        let (base_len, wps) = (first.base_len, words_for(width));
        let mut out = FlatTree {
            width,
            base_len,
            wps,
            ..FlatTree::default()
        };
        for (node, &(parent, gid)) in first.nodes.iter().enumerate() {
            out.push(parent, gid, first.row(node), 0);
        }
        out.records.clone_from(&first.records);
        out.names.clone_from(&first.names);
        out
    }

    /// Bring a later body's own ids into this merge's, by name, one probe per
    /// record: a name the merge holds keeps its id, a new one takes the next.
    fn adopt(&mut self, body: &mut FlatTree<'a>) {
        let (names, records, base) = (&mut self.names, &mut self.records, self.base_len);
        body.rename(|name| {
            let next = base.saturating_add(u32::try_from(records.len()).unwrap_or(u32::MAX));
            let id = *names.entry(name).or_insert(next);
            records.extend((id == next).then_some((id, name)));
            id
        });
    }

    /// Append a node holding `set` moved up by `offset`.
    fn push(&mut self, parent: usize, gid: u32, set: &[u64], offset: u64) -> usize {
        let node = self.nodes.len();
        self.nodes.push((parent, gid));
        self.words.resize(self.words.len() + self.wps, 0);
        if node > 0 {
            self.index.insert((parent, gid), node);
        }
        self.or_in(node, set, offset);
        node
    }

    /// OR `set` into `node`'s row, moved up by `offset`.  Callers keep `offset +
    /// the body's width` within this width, and the reader masked the set to its
    /// width: `or_shifted`'s bound.
    fn or_in(&mut self, node: usize, set: &[u64], offset: u64) {
        let wps = self.wps;
        if let Some(row) = self.words.get_mut(node * wps..(node + 1) * wps) {
            or_shifted(row, set, offset);
        }
    }

    /// OR every row of `body` into the row `map` lands it on, moved up by `offset`,
    /// in one pass: the offset splits once, and each word carries its high bits into
    /// the next (`bits >> 1 >> (63 - shift)` is `bits >> (64 - shift)`, 0 for no
    /// shift).  `or_in`'s bound keeps every word a row writes inside that row.
    fn or_rows(&mut self, body: &FlatTree<'_>, map: &[usize], offset: u64) {
        let (wps, skip, shift) = (self.wps, word_of(offset), bit_of(offset));
        let width = body.wps.max(1);
        for (set, &into) in body.words.chunks_exact(width).zip(map) {
            let (at, mut carry) = (into * wps + skip, 0);
            for (i, &bits) in set.iter().enumerate() {
                if let Some(word) = self.words.get_mut(at + i) {
                    *word |= bits << shift | carry;
                }
                carry = bits >> 1 >> (63 - shift);
            }
            if let Some(word) = self.words.get_mut(at + width).filter(|_| carry != 0) {
                *word |= carry;
            }
        }
    }

    /// Fold a copy of a body in at `offset`.  A first copy (`map` is `None`) is
    /// adopted; a repeat is already, and ORs its rows in through its node map,
    /// derived into `map` once every probe hits.  Else it walks as
    /// `PrefixTree::merge` does: a LIFO worklist of (merged node, body node,
    /// grafted), a node new under its matched parent grafted unprobed.
    fn fold(
        &mut self,
        body: &mut FlatTree<'a>,
        offset: u64,
        map: Option<&mut Option<Vec<usize>>>,
        work: &mut Vec<(usize, usize, bool)>,
    ) {
        match map {
            None => self.adopt(body),
            Some(map) => {
                if map.is_none() {
                    *map = self.node_map(body);
                }
                if let Some(map) = map {
                    self.or_rows(body, map, offset);
                    return;
                }
            }
        }
        let link = |node: usize| body.links.get(node).copied().unwrap_or((NO_NODE, NO_NODE));
        work.push((0, 0, false));
        while let Some((merged, node, grafted)) = work.pop() {
            if !grafted {
                self.or_in(merged, body.row(node), offset);
            }
            let mut child = link(node).0;
            while let Some(&(_, gid)) = body.nodes.get(child) {
                let probe = (!grafted).then(|| self.index.get(&(merged, gid)).copied());
                work.push(match probe.flatten() {
                    Some(into) => (into, child, false),
                    None => (self.push(merged, gid, body.row(child), offset), child, true),
                });
                child = link(child).1;
            }
        }
    }

    /// Where a walk of `body` lands each node when no probe misses: node `i` on
    /// its parent's landing's child under its frame.  A walk only adds keys, or
    /// re-keys under nodes it appends, so a whole map stays true for later folds.
    fn node_map(&self, body: &FlatTree<'_>) -> Option<Vec<usize>> {
        let mut map = Vec::with_capacity(body.nodes.len());
        map.push(0);
        for &(parent, gid) in body.nodes.iter().skip(1) {
            map.push(*self.index.get(&(*map.get(parent)?, gid))?);
        }
        Some(map)
    }

    /// Write a merge's output: its records are every accepted body's names, each
    /// carried by a node, as [`encode_merged_tree`] writes them.
    fn finish<S: WireTaskSet>(self) -> Vec<u8> {
        let mut bytes = Vec::with_capacity(32 + self.nodes.len() * 8);
        write_body::<S>(&mut bytes, &self, |node| self.row(node));
        bytes
    }
}

/// The merge filter's body: fold v2 packet bodies left to right into one output
/// body without building a tree, each body's own ids first brought into the
/// output's by name (the output keeps the first body's).  For bodies that number
/// alike, that is byte for byte what [`decode_tree`] → [`PrefixTree::merge`] →
/// [`encode_merged_tree`] produce.  A body that does not decode, names another
/// dictionary base than the first accepted one, or — job-wide — another width,
/// is skipped, as is a concatenating body that would take the output past
/// [`MAX_WIRE_WIDTH`]; `None` when no body is accepted.
///
/// Job-wide bodies fold as they arrive, each read into one reused [`FlatTree`]
/// at offset 0.  Concatenating bodies are held until the widths are summed, and
/// read once each: acceptance hangs on a body's bytes and the first accepted
/// body alone, so a repeat is keyed by its bytes and folds through a node map.
pub(crate) fn merge_bodies<'a, S: WireTaskSet>(
    bodies: impl IntoIterator<Item = &'a [u8]>,
) -> Option<Vec<u8>> {
    let bodies = bodies.into_iter();
    let (mut merge, mut held, mut copies) = (None::<FlatTree<'a>>, Vec::new(), Vec::new());
    let mut seen: HashMap<&'a [u8], usize, BuildHasherDefault<ChildKeyHasher>> =
        HashMap::with_capacity_and_hasher(bodies.size_hint().0, Default::default());
    let (mut width, mut body, mut work) = (0, FlatTree::default(), Vec::new());
    for buf in bodies {
        let repeat = seen.get(buf).copied();
        if repeat.is_none()
            && (body.read::<S>(buf).is_err()
                || merge.as_ref().or(held.first()).is_some_and(|first| {
                    body.base_len != first.base_len
                        || (!S::CONCATENATES && body.width != first.width)
                }))
        {
            continue;
        }
        let offset = if S::CONCATENATES { width } else { 0 };
        let end = offset + repeat.and_then(|c| held.get(c)).unwrap_or(&body).width;
        if end > MAX_WIRE_WIDTH {
            continue;
        }
        width = end;
        match (repeat, merge.as_mut()) {
            (Some(copy), _) => copies.push((copy, offset, true)),
            _ if S::CONCATENATES => {
                seen.insert(buf, held.len());
                copies.push((held.len(), offset, false));
                held.push(std::mem::take(&mut body));
            }
            (None, Some(merge)) => merge.fold(&mut body, 0, None, &mut work),
            (None, None) => merge = Some(FlatTree::merged(&body, width)),
        }
    }
    if let Some((&(first, ..), later)) = copies.split_first() {
        let merge = merge.insert(FlatTree::merged(held.get(first)?, width));
        let mut maps = vec![None; held.len()];
        for &(copy, offset, repeat) in later {
            if let (Some(body), Some(map)) = (held.get_mut(copy), maps.get_mut(copy)) {
                merge.fold(body, offset, repeat.then_some(map), &mut work);
            }
        }
    }
    merge.map(FlatTree::finish::<S>)
}

// ---------------------------------------------------------------------------
// Rank maps and the dictionary broadcast payload
// ---------------------------------------------------------------------------

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Format tag of a rank-map payload: the high nibble of its header byte.
pub(crate) const RANK_MAP_FORMAT: u8 = 0xA;

/// Encode a daemon-order rank map (the RankMap packets that let the front end
/// remap) as its runs:
///
/// ```text
/// header   u8      format tag 0xA << 4 | run count (15: a varint count follows)
/// per run: varint  s << 1 | (len == 1), s the first run's start, then the
///                  zigzag delta from the previous run's end
///          varint  len, only when len > 1
/// ```
///
/// So a map cut short anywhere, or followed by stray bytes, is a typed
/// [`DecodeError`], never a shorter map; a one-rank daemon ships the
/// `1 + |varint(2r)|` bytes a count-prefixed list of zigzag deltas did; and a
/// contiguous daemon ships about three bytes where such a list costs one a task.
pub fn encode_rank_map(map: &RankRuns) -> Vec<u8> {
    let n = map.runs.len();
    let mut out = Vec::with_capacity(1 + 6 * n);
    out.push(RANK_MAP_FORMAT << 4 | u8::try_from(n).map_or(15, |n| n.min(15)));
    if n >= 15 {
        put_varint(&mut out, n as u64);
    }
    let mut end = None;
    for run in &map.runs {
        let (start, len) = (run.start, run.end - run.start);
        let s = end.map_or(start, |end: u64| zigzag(start.wrapping_sub(end) as i64));
        put_varint(&mut out, s << 1 | u64::from(len == 1));
        if len > 1 {
            put_varint(&mut out, len);
        }
        end = Some(run.end);
    }
    out
}

/// Decode a rank map, checking every run as it is read (a zero length or an end
/// past `u64::MAX` is [`DecodeError::BadIndex`]); nothing is allocated from a
/// run's length.  Whether the runs fit the job and the trees, `finish` checks.
pub fn decode_rank_map(buf: &[u8]) -> Result<RankRuns, DecodeError> {
    let mut runs = Vec::new();
    decode_rank_runs(buf, &mut runs).map(|()| RankRuns { runs })
}

/// [`decode_rank_map`] into `runs`, which is cleared first: the rank-map filter
/// decodes every child into one list.  On an error `runs` holds a prefix.
pub(crate) fn decode_rank_runs(buf: &[u8], runs: &mut Vec<Range<u64>>) -> Result<(), DecodeError> {
    let mut r = Reader::new(buf);
    let header = r.u8()?;
    let (found, expected) = (header >> 4, RANK_MAP_FORMAT);
    let wrong = DecodeError::WrongRepresentation { found, expected };
    ensure(found == expected, wrong)?;
    let n = match header & 0xf {
        15 => r.varint_count()?,
        n => usize::from(n),
    };
    // Each run is at least one varint byte.
    ensure(n <= r.remaining(), DecodeError::Truncated { offset: r.pos })?;
    runs.clear();
    runs.reserve(n);
    let mut end = None;
    for _ in 0..n {
        let at = r.pos;
        let v = r.varint()?;
        let start = match end {
            None => Some(v >> 1),
            Some(end) => u64::checked_add_signed(end, unzigzag(v >> 1)),
        };
        let len = if v & 1 == 1 { 1 } else { r.varint()? };
        let run = start.and_then(|s| Some(s..s.checked_add(len).filter(|_| len > 0)?));
        let run = run.ok_or(DecodeError::BadIndex { offset: at })?;
        end = Some(run.end);
        runs.push(run);
    }
    ensure(r.remaining() == 0, DecodeError::BadIndex { offset: r.pos })
}

/// Encode the negotiated base table for the one-time dictionary broadcast down
/// the overlay (ids are implicit: position order).
pub fn encode_dictionary(names: &[String]) -> Vec<u8> {
    let mut out = Vec::new();
    put_varint(&mut out, names.len() as u64);
    for name in names {
        put_varint(&mut out, name.len() as u64);
        out.extend_from_slice(name.as_bytes());
    }
    out
}

/// Decode a dictionary broadcast payload.
pub fn decode_dictionary(buf: &[u8]) -> Result<Vec<String>, DecodeError> {
    let mut r = Reader::new(buf);
    let n = r.varint_count()?;
    ensure(n <= r.remaining(), DecodeError::Truncated { offset: 0 })?;
    let mut names = Vec::with_capacity(n);
    for _ in 0..n {
        let len = r.varint_count()?;
        let name_offset = r.pos;
        let bytes = r.take(len)?;
        let name = std::str::from_utf8(bytes).map_err(|_| DecodeError::BadFrameName {
            offset: name_offset,
        })?;
        names.push(name.to_string());
    }
    Ok(names)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::tests::leaves;
    use crate::graph::{GlobalPrefixTree, SubtreePrefixTree};
    use crate::taskset::{DenseBitVector, SubtreeTaskList};
    use stackwalk::StackTrace;

    fn ring_dictionary() -> FrameDictionary {
        FrameDictionary::negotiate(["_start", "main", "MPI_Barrier", "do_SendOrStall"])
    }

    fn sample_global(table: &mut FrameTable) -> GlobalPrefixTree {
        let barrier = StackTrace::new(table.intern_path(&["_start", "main", "MPI_Barrier"]));
        let stall = StackTrace::new(table.intern_path(&["_start", "main", "do_SendOrStall"]));
        let mut tree = GlobalPrefixTree::new_global(64);
        for rank in 0..32 {
            tree.add_trace(if rank == 1 { &stall } else { &barrier }, rank);
        }
        tree
    }

    #[test]
    fn global_tree_round_trips() {
        let mut table = FrameTable::new();
        let tree = sample_global(&mut table);
        let dict = ring_dictionary();
        let bytes = encode_tree(&tree, &table, &dict);

        let (back, frames): (GlobalPrefixTree, WireFrames) = decode_tree(&bytes).unwrap();
        assert_eq!(back.node_count(), tree.node_count());
        assert_eq!(back.width(), tree.width());
        assert_eq!(
            back.tasks(back.root()).members(),
            tree.tasks(tree.root()).members()
        );
        // Every frame was negotiated, so nothing ships incrementally...
        assert_eq!(frames.records().count(), 0);
        // ...and ids resolve against the negotiated base.
        let base = dict.table();
        let names: Vec<&str> = leaves(&back)
            .iter()
            .map(|&l| base.name(back.frame(l).unwrap()))
            .collect();
        assert!(names.contains(&"MPI_Barrier"));
        assert!(names.contains(&"do_SendOrStall"));
    }

    #[test]
    fn subtree_tree_round_trips() {
        let mut table = FrameTable::new();
        let barrier = StackTrace::new(table.intern_path(&["_start", "main", "MPI_Barrier"]));
        let mut tree = SubtreePrefixTree::new_subtree(8);
        for pos in 0..8 {
            tree.add_trace(&barrier, pos);
        }
        let dict = ring_dictionary();
        let bytes = encode_tree(&tree, &table, &dict);
        let (back, _frames): (SubtreePrefixTree, WireFrames) = decode_tree(&bytes).unwrap();
        assert_eq!(back.width(), 8);
        assert_eq!(back.tasks(back.root()).count(), 8);
    }

    #[test]
    fn unnegotiated_frames_ship_as_incremental_records() {
        let mut table = FrameTable::new();
        let tree = sample_global(&mut table);
        // "do_SendOrStall" was not anticipated at negotiation time.
        let dict = FrameDictionary::negotiate(["_start", "main", "MPI_Barrier"]);
        let bytes = encode_tree(&tree, &table, &dict);
        let (back, frames): (GlobalPrefixTree, WireFrames) = decode_tree(&bytes).unwrap();
        assert_eq!(frames.base_len(), 3);
        assert_eq!(frames.records().count(), 1);
        let (gid, name) = frames.records().next().unwrap();
        assert!(gid >= frames.base_len());
        assert_eq!(name, "do_SendOrStall");
        assert_eq!(back.node_count(), tree.node_count());
    }

    /// Two trees (a daemon's 2D and 3D) walked by name into `table` as a daemon
    /// walks them, each encoded against `dict`.
    fn walked_bodies<S: WireTaskSet>(
        mut table: FrameTable,
        dict: &FrameDictionary,
    ) -> Vec<Vec<u8>> {
        // "poll_step" and "PMPI_Init" are outside every negotiation below.
        let paths: [&[&str]; 5] = [
            &["_start", "main", "MPI_Barrier"],
            &["_start", "main", "do_SendOrStall", "poll_step"],
            &["_start", "PMPI_Init", "main"],
            &["_start", "main", "do_SendOrStall", "MPI_Waitall"],
            &["_start", "main", "MPI_Barrier", "poll_step"],
        ];
        let trees = [1, 3].map(|stride| {
            let mut tree = PrefixTree::<S>::new(16);
            for task in 0..16 {
                let path = paths[(task as usize * stride) % paths.len()];
                let end = tree.descend_named(&mut table, path);
                tree.mark(end, task);
            }
            crate::graph::tests::close_upward(&mut tree);
            tree
        });
        trees.iter().map(|t| encode_tree(t, &table, dict)).collect()
    }

    #[test]
    fn the_shared_base_encodes_the_plain_table_bytes() {
        fn check<S: WireTaskSet>() {
            let hints = [
                "main",
                "MPI_Waitall",
                "_start",
                "MPI_Barrier",
                "do_SendOrStall",
            ];
            let plain = walked_bodies::<S>(FrameTable::new(), &FrameDictionary::negotiate(hints));
            let (_, frames) = decode_tree::<S>(&plain[0]).unwrap();
            let records: Vec<_> = frames.records().collect();
            assert_eq!(records, [(5, "poll_step"), (6, "PMPI_Init")]);
            let dict = FrameDictionary::negotiate(hints);
            assert_eq!(walked_bodies::<S>(dict.table(), &dict), plain);
            // A table over another negotiation (the same names, another order):
            // its base ids are not this dictionary's, so none passes through.
            let mut reversed = hints;
            reversed.reverse();
            let foreign = FrameDictionary::negotiate(reversed).table();
            let dict = FrameDictionary::negotiate(hints);
            assert_eq!(walked_bodies::<S>(foreign, &dict), plain);
        }
        check::<DenseBitVector>();
        check::<SubtreeTaskList>();
    }

    /// The encoder of the shared session interner, the oracle of the front end's
    /// numbering: every frame outside a shared base is interned into `session`
    /// (a table over the base) in node order while the body is planned, and
    /// ships that id.  Bodies encoded in backend order, a daemon's 2D tree
    /// before its 3D tree, leave `session` numbered as the front end numbers.
    pub(crate) fn interning_encode<S: WireTaskSet>(
        tree: &PrefixTree<S>,
        table: &FrameTable,
        (dict, session): (&FrameDictionary, &mut FrameTable),
    ) -> Vec<u8> {
        let negotiated = if dict.shares_base(table) {
            dict.base_len()
        } else {
            0
        };
        let (mut gid_of, mut name_of) = (HashMap::new(), HashMap::new());
        for (_, frame) in links(tree).filter(|(_, frame)| frame.0 >= negotiated) {
            let name = table.name(frame);
            let gid = *gid_of
                .entry(frame)
                .or_insert_with(|| session.intern(name).0);
            name_of.insert(gid, name);
        }
        let gid = |frame: FrameId| gid_of.get(&frame).copied().unwrap_or(frame.0);
        let at = (tree.width(), dict.base_len());
        let nodes = links(tree).map(|(parent, frame)| (parent, gid(frame)));
        let mut plan = plan(at, nodes);
        plan.records = name_of
            .into_iter()
            .filter(|&(gid, _)| gid >= at.1)
            .collect();
        plan.records.sort_unstable();
        let mut out = Vec::new();
        write_body::<S>(&mut out, &plan, |node| tree.tasks(node).words());
        out
    }

    /// A 103-name base: 100 fillers, then the ring's spine.
    fn wide_hints() -> Vec<String> {
        let fillers = (0..100).map(|k| format!("filler_{k}"));
        let spine = ["_start", "main", "MPI_Barrier"].map(String::from);
        fillers.chain(spine).collect()
    }

    /// A daemon's 2D and 3D trees over 16 tasks, walked by name into `table`:
    /// "late_a", "late_b" and "poll" are outside [`wide_hints`], the walk
    /// reaches "late_a" first, and "late_a" has "poll" and "late_b" below it.
    fn cold_trees<S: WireTaskSet>(table: &mut FrameTable) -> [PrefixTree<S>; 2] {
        let paths: [&[&str]; 4] = [
            &["_start", "main", "MPI_Barrier"],
            &["_start", "main", "late_a", "poll"],
            &["_start", "late_b", "main"],
            &["_start", "main", "late_a", "late_b"],
        ];
        [1, 3].map(|stride| {
            let mut tree = PrefixTree::<S>::new(16);
            for task in 0..16 {
                let end = tree.descend_named(table, paths[(task as usize * stride) % 4]);
                tree.mark(end, task);
            }
            crate::graph::tests::close_upward(&mut tree);
            tree
        })
    }

    /// (frame-name path, members) of every node, members moved up by `offset`.
    type Named = BTreeMap<Vec<String>, std::collections::BTreeSet<u64>>;

    /// `tree`'s nodes as [`Named`], each frame named by `name`: `None` when a
    /// frame has no name or two nodes share a path (no prefix tree does).
    fn named<S: WireTaskSet>(
        tree: &PrefixTree<S>,
        name: impl Fn(FrameId) -> Option<String>,
        offset: u64,
    ) -> Option<Named> {
        let mut out = Named::new();
        for node in 0..tree.node_count() {
            let path: Option<Vec<String>> = tree.path_to(node).into_iter().map(&name).collect();
            let members = tree.tasks(node).members().into_iter().map(|m| m + offset);
            out.insert(path?, members.collect())
                .is_none()
                .then_some(())?;
        }
        Some(out)
    }

    /// A body decoded and named by the base and its own records.
    fn named_body<S: WireTaskSet>(body: &[u8], base: &FrameTable, offset: u64) -> Option<Named> {
        let (tree, frames) = decode_tree::<S>(body).ok()?;
        let base_len = u32::try_from(base.len()).unwrap();
        let name = |id: FrameId| match id.0 < base_len {
            true => Some(base.name(id).to_string()),
            false => frames.name_of(id.0).map(String::from),
        };
        named(&tree, name, offset)
    }

    fn union(mut a: Named, b: Named) -> Named {
        for (path, members) in b {
            a.entry(path).or_default().extend(members);
        }
        a
    }

    /// A body cut around its record section: the bytes before the record
    /// count, the records, and the bytes after them.
    fn split_records(body: &[u8]) -> (Vec<u8>, Vec<(u32, String)>, Vec<u8>) {
        let mut r = Reader::new(body);
        r.take(6).unwrap();
        let (_width, _base) = (r.varint().unwrap(), r.varint().unwrap());
        let head = body[..r.pos].to_vec();
        let records = (0..r.varint().unwrap())
            .map(|_| {
                let (gid, len) = (r.varint_u32().unwrap(), r.varint_count().unwrap());
                (
                    gid,
                    String::from_utf8(r.take(len).unwrap().to_vec()).unwrap(),
                )
            })
            .collect();
        (head, records, body[r.pos..].to_vec())
    }

    fn join_records(head: &[u8], records: &[(u32, String)], tail: &[u8]) -> Vec<u8> {
        let mut out = head.to_vec();
        put_varint(&mut out, records.len() as u64);
        for (gid, name) in records {
            put_varint(&mut out, u64::from(*gid));
            put_varint(&mut out, name.len() as u64);
            out.extend_from_slice(name.as_bytes());
        }
        out.extend_from_slice(tail);
        out
    }

    /// Cold 2D and 3D bodies with their record sections mutated, each through
    /// `decode_tree`, the merge filter (beside the intact body, first and
    /// second) and `finish`: every result is a typed error, a skipped body, or
    /// the tree the mutated records name — never a panic, and never a tree
    /// that names a frame no record gave or two nodes one path.
    fn mutated_records_read_as_named<S: WireTaskSet + Send + Sync>(
        representation: crate::frontend::Representation,
    ) {
        use crate::filter::StatMergeFilter;
        use tbon::filter::Filter;
        use tbon::network::ReductionOutcome;
        use tbon::packet::{EndpointId, Packet, PacketTag};
        let dict = FrameDictionary::negotiate(wide_hints().iter().map(String::as_str));
        let (base, base_len) = (dict.table(), dict.base_len());
        let mut table = dict.table();
        let trees = cold_trees::<S>(&mut table);
        let own = &mut Numbering::default();
        let bodies = trees.each_ref().map(|tree| {
            let row = |node| tree.tasks(node).words();
            encode_ordered::<S>(16, links(tree), row, (&table, &dict), own)
        });
        let outcome = |payload: &[u8]| ReductionOutcome {
            channel: "test",
            result: Packet::new(PacketTag::Merged3d, EndpointId(0), payload.to_vec()),
            filter_time: std::time::Duration::ZERO,
            filter_invocations: 0,
            frontend_bytes_in: 0,
            max_node_bytes_in: 0,
            total_link_bytes: 0,
        };
        let rank_map = outcome(&encode_rank_map(&(0..16).collect()));
        let map = S::CONCATENATES.then_some(&rank_map);
        let offset = if S::CONCATENATES { 16 } else { 0 };
        let mut outcomes = [0; 3];
        for (tree, intact) in ["2D", "3D"].iter().zip(&bodies) {
            let (head, records, tail) = split_records(intact);
            assert_eq!(records.len(), 3, "{tree}: late_a, poll and late_b");
            let (a, b, c) = (records[0].clone(), records[1].clone(), records[2].clone());
            let mutants: [(&str, Vec<(u32, String)>); 6] = [
                ("a gid past the base and the count", {
                    vec![a.clone(), b.clone(), (base_len + 3, c.1.clone())]
                }),
                ("a duplicated record", {
                    vec![a.clone(), b.clone(), b.clone(), c.clone()]
                }),
                ("a dropped record", vec![a.clone(), c.clone()]),
                ("two ids swapped", {
                    vec![(b.0, a.1.clone()), (a.0, b.1.clone()), c.clone()]
                }),
                // Records in id order, names exchanged: another tree.
                ("two names swapped", {
                    vec![(a.0, b.1.clone()), (b.0, a.1.clone()), c.clone()]
                }),
                // "late_b" named "poll": both sit below "late_a".
                (
                    "a name repeated",
                    vec![a.clone(), b.clone(), (c.0, b.1.clone())],
                ),
            ];
            let sibling = named_body::<S>(intact, &base, 0).expect("the intact body reads");
            for (case, records) in mutants {
                let at = format!("{representation:?} {tree}, {case}");
                let mutant = join_records(&head, &records, &tail);
                // Through the reader: an error, or the tree its records name.
                let read = decode_tree::<S>(&mutant);
                let mutant_named = named_body::<S>(&mutant, &base, 0);
                assert_eq!(read.is_ok(), mutant_named.is_some(), "{at}: {read:?}");
                outcomes[usize::from(read.is_ok())] += 1;
                // Through the merge filter, beside the intact body.
                let packet =
                    |body: &[u8]| Packet::new(PacketTag::Merged3d, EndpointId(1), body.to_vec());
                let filter = StatMergeFilter::<S>::new();
                for mutant_first in [false, true] {
                    let mut wave = [packet(intact), packet(&mutant)];
                    if mutant_first {
                        wave.reverse();
                    }
                    let out = filter.reduce(EndpointId(0), &wave);
                    let got = named_body::<S>(&out.payload, &base, 0);
                    let want = match (&mutant_named, mutant_first) {
                        (None, _) => Some(sibling.clone()),
                        (Some(_), false) => {
                            let moved = named_body::<S>(&mutant, &base, offset).unwrap();
                            Some(union(sibling.clone(), moved))
                        }
                        (Some(m), true) => {
                            let moved = named_body::<S>(intact, &base, offset).unwrap();
                            Some(union(m.clone(), moved))
                        }
                    };
                    assert_eq!(got, want, "{at}, mutant first: {mutant_first}");
                }
                // Through the front end.
                let strategy = representation.strategy();
                let finished =
                    strategy.finish(&outcome(&mutant), &outcome(&mutant), map, 16, &dict);
                match (finished, &mutant_named) {
                    (Ok(merged), Some(want)) => {
                        let frames = &merged.frames;
                        let name = |id: FrameId| {
                            let known = usize::try_from(id.0).unwrap() < frames.len();
                            known.then(|| frames.name(id).to_string())
                        };
                        assert_eq!(named(&merged.tree_3d, name, 0).as_ref(), Some(want), "{at}");
                        outcomes[2] += 1;
                    }
                    (Err(crate::error::StatError::Decode { .. }), None) => {}
                    (got, want) => {
                        panic!("{at}: finish gave {got:?} where the reader gave {want:?}")
                    }
                }
            }
        }
        // Only the swapped names read, on both trees; the rest are typed errors.
        assert_eq!(outcomes, [10, 2, 2], "{representation:?}");
    }

    #[test]
    fn a_mutated_record_section_reads_as_an_error_or_the_tree_it_names() {
        use crate::frontend::Representation;
        mutated_records_read_as_named::<DenseBitVector>(Representation::GlobalBitVector);
        mutated_records_read_as_named::<SubtreeTaskList>(Representation::HierarchicalTaskList);
    }

    #[test]
    fn record_sections_are_checked_with_typed_errors() {
        let dict = FrameDictionary::negotiate(wide_hints().iter().map(String::as_str));
        let mut table = dict.table();
        let [tree, _] = cold_trees::<DenseBitVector>(&mut table);
        let body = encode_tree(&tree, &table, &dict);
        let (head, records, tail) = split_records(&body);
        let base = dict.base_len();
        let names: Vec<(u32, &str)> = records.iter().map(|(g, n)| (*g, n.as_str())).collect();
        assert_eq!(
            names,
            [(base, "late_a"), (base + 1, "poll"), (base + 2, "late_b")]
        );
        let read = |records: &[(u32, &str)]| {
            let records: Vec<_> = records.iter().map(|&(g, n)| (g, n.to_string())).collect();
            decode_tree::<DenseBitVector>(&join_records(&head, &records, &tail)).map(|_| ())
        };
        let (a, b, c) = (names[0], names[1], names[2]);
        // The third record follows the count and two records of one-byte varints.
        let third = head.len() + 1 + [a, b].iter().map(|(_, name)| 2 + name.len()).sum::<usize>();
        let bad_index = |offset| DecodeError::BadIndex { offset };
        let conflict = |gid| DecodeError::FrameConflict { gid };
        for (case, records, want) in [
            (
                "a gid below the base",
                vec![a, b, (base - 1, c.1)],
                bad_index(third),
            ),
            (
                "a gid past the base and the count",
                vec![a, b, (base + 3, c.1)],
                bad_index(third),
            ),
            ("one gid twice", vec![a, b, (b.0, c.1)], bad_index(third)),
            ("two ids swapped", vec![b, a, c], bad_index(head.len() + 1)),
            ("one name twice", vec![a, b, (c.0, b.1)], conflict(c.0)),
            (
                "a record no node names",
                vec![a, b, c, (base + 3, "spare")],
                bad_index(head.len()),
            ),
        ] {
            assert_eq!(read(&records), Err(want), "{case}");
        }
        assert_eq!(read(&names), Ok(()));
        // A record that names a negotiated frame: the body reads on its own,
        // and a reader that knows the base finds one name under two ids.
        let main: Vec<_> = [(a.0, "main"), b, c]
            .iter()
            .map(|&(g, n)| (g, n.to_string()))
            .collect();
        let main = join_records(&head, &main, &tail);
        assert!(decode_tree::<DenseBitVector>(&main).is_ok());
        let mut table = dict.table();
        let named = decode_named::<DenseBitVector>(&main, base, |name| table.intern(name).0);
        let gid = table.lookup("main").map(|id| id.0);
        assert_eq!(named.map(|_| ()), Err(conflict(gid.unwrap())));
    }

    #[test]
    fn the_front_end_numbers_frames_as_the_serial_intern_did() {
        use crate::daemon::StatDaemon;
        use crate::frontend::Representation;
        use appsim::{Application, FrameVocabulary, RingHangApp};
        use tbon::network::InProcessTbon;
        use tbon::topology::{Topology, TreeShape};
        fn check<S: WireTaskSet>(representation: Representation) {
            let v = FrameVocabulary::BlueGeneL;
            let threaded = appsim::workloads::threaded(256, 3, v);
            let ring = RingHangApp::new(256, v).with_hung_rank(70);
            let apps: [(&str, &dyn Application, Vec<&str>); 3] = [
                ("threaded", &threaded, threaded.frame_hints()),
                ("cold ring hang", &ring, Vec::new()),
                (
                    "half-negotiated ring hang",
                    &ring,
                    ring.frame_hints()[..4].to_vec(),
                ),
            ];
            let shape = TreeShape::two_deep(16, 4);
            let daemons = StatDaemon::partition(256, 16);
            for ((case, app, hints), samples) in apps.iter().flat_map(|a| [(a, 1u32), (a, 3)]) {
                let at = format!("{case}, {samples} samples, {representation:?}");
                let dict = FrameDictionary::negotiate(hints.iter().copied());
                let session =
                    crate::session::Session::builder(machine::Cluster::test_cluster(32, 8))
                        .representation(representation)
                        .topology(shape.clone())
                        .samples_per_task(samples)
                        .build();
                let net = InProcessTbon::new(Topology::build(shape.clone())).with_workers(2);
                let leaves = daemons
                    .iter()
                    .zip(net.topology().backends().iter().copied());
                let strategy = representation.strategy();
                let shipped = strategy.contribute_all(leaves.collect(), *app, samples, &dict, &net);
                let gather = session
                    .merge(shipped.expect("no daemon dies"), 256, &dict)
                    .unwrap();
                // The relabel's order: a serial intern in backend order, each
                // daemon's 2D tree before its 3D tree.
                let mut serial = dict.table();
                for daemon in &daemons {
                    let mut table = dict.table();
                    let (tree_2d, tree_3d) =
                        daemon.build_trees::<S>(&daemon.gather(*app, samples, &mut table));
                    interning_encode(&tree_2d, &table, (&dict, &mut serial));
                    interning_encode(&tree_3d, &table, (&dict, &mut serial));
                }
                assert!(
                    serial.len() > dict.base_len() as usize,
                    "{at}: nothing past the base"
                );
                let names = |table: &FrameTable| {
                    let ids = (0..).map(FrameId).take(table.len());
                    ids.map(|id| table.name(id).to_string()).collect::<Vec<_>>()
                };
                assert_eq!(names(&gather.frames), names(&serial), "{at}");
            }
        }
        check::<DenseBitVector>(Representation::GlobalBitVector);
        check::<SubtreeTaskList>(Representation::HierarchicalTaskList);
    }

    #[test]
    fn representation_mismatch_is_detected() {
        let mut table = FrameTable::new();
        let tree = sample_global(&mut table);
        let bytes = encode_tree(&tree, &table, &ring_dictionary());
        let err = decode_tree::<SubtreeTaskList>(&bytes).unwrap_err();
        assert_eq!(
            err,
            DecodeError::WrongRepresentation {
                found: 0,
                expected: 1
            }
        );
    }

    #[test]
    fn foreign_versions_are_typed_errors() {
        let mut table = FrameTable::new();
        let tree = sample_global(&mut table);
        // Any version byte but ours must be rejected, not misparsed: 0 and 1 are
        // where the retired string format kept its representation tag.
        for foreign in [0u8, 1, 9] {
            let mut packet = encode_tree(&tree, &table, &ring_dictionary());
            packet[4] = foreign;
            assert_eq!(
                decode_tree::<DenseBitVector>(&packet).unwrap_err(),
                DecodeError::Version { found: foreign }
            );
        }
    }

    #[test]
    fn frame_name_over_64k_round_trips() {
        // The bug class varint lengths closed: a fixed `as u16` length prefix
        // silently truncated a >64 KiB name into a corrupt packet.
        let huge_name = "x".repeat(70_000);
        let mut table = FrameTable::new();
        let trace = StackTrace::new(table.intern_path(&["main", &huge_name]));
        let mut tree = GlobalPrefixTree::new_global(8);
        tree.add_trace(&trace, 3);

        let dict = FrameDictionary::negotiate(["main"]);
        let bytes = encode_tree(&tree, &table, &dict);
        let (back, frames): (GlobalPrefixTree, WireFrames) = decode_tree(&bytes).unwrap();
        assert_eq!(back.node_count(), tree.node_count());
        let (gid, name) = frames.records().next().unwrap();
        assert_eq!(name.len(), 70_000);
        assert_eq!((gid, name), (dict.base_len(), huge_name.as_str()));
    }

    #[test]
    fn corrupt_buffers_are_rejected_not_panicked_on() {
        let mut table = FrameTable::new();
        let tree = sample_global(&mut table);
        let bytes = encode_tree(&tree, &table, &ring_dictionary());

        // A 3-byte buffer cannot even hold the magic number; the failure offset is
        // where the reader stood when it ran out (the start of the magic field).
        assert_eq!(
            decode_tree::<DenseBitVector>(&bytes[..3]).unwrap_err(),
            DecodeError::Truncated { offset: 0 }
        );
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(
            decode_tree::<DenseBitVector>(&bad_magic).unwrap_err(),
            DecodeError::BadMagic
        );
        // Any tail truncation must decode to an error, never a partial tree.
        for cut in 1..bytes.len().min(64) {
            let truncated = &bytes[..bytes.len() - cut];
            assert!(
                decode_tree::<DenseBitVector>(truncated).is_err(),
                "cut of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn lying_length_prefixes_fail_cleanly_instead_of_allocating() {
        // A corrupted interior node can forward a structurally plausible packet
        // whose counts are astronomical.  Decoding must report a typed error,
        // not attempt the allocation (capacity overflow / OOM).
        let header = |width: u64, base: u64, nrecords: u64| {
            let mut out = Vec::new();
            out.extend_from_slice(&MAGIC.to_le_bytes());
            out.push(VERSION);
            out.push(DenseBitVector::TAG);
            put_varint(&mut out, width);
            put_varint(&mut out, base);
            put_varint(&mut out, nrecords);
            out
        };

        // A record count far beyond the buffer.
        let huge_records = header(64, 0, u64::from(u32::MAX));
        assert!(matches!(
            decode_tree::<DenseBitVector>(&huge_records).unwrap_err(),
            DecodeError::Truncated { .. }
        ));

        // A width no packet could legitimately claim.
        let huge_width = header(u64::MAX / 2, 0, 0);
        assert!(matches!(
            decode_tree::<DenseBitVector>(&huge_width).unwrap_err(),
            DecodeError::Truncated { .. }
        ));

        // A plausible width whose dense words cannot fit the remaining buffer.
        let mut wide = header(1 << 20, 0, 0);
        put_varint(&mut wide, 1); // nnodes
        assert!(matches!(
            decode_tree::<DenseBitVector>(&wide).unwrap_err(),
            DecodeError::Truncated { .. }
        ));

        // A node count the buffer cannot possibly hold.
        let mut many_nodes = header(64, 0, 0);
        put_varint(&mut many_nodes, u64::from(u32::MAX)); // nnodes
        assert!(matches!(
            decode_tree::<DenseBitVector>(&many_nodes).unwrap_err(),
            DecodeError::Truncated { .. }
        ));

        // A subtree run token that overruns the set's word count.
        let mut bad_run = Vec::new();
        bad_run.extend_from_slice(&MAGIC.to_le_bytes());
        bad_run.push(VERSION);
        bad_run.push(SubtreeTaskList::TAG);
        put_varint(&mut bad_run, 64); // width: one word
        put_varint(&mut bad_run, 0); // base
        put_varint(&mut bad_run, 0); // nrecords
        put_varint(&mut bad_run, 1); // nnodes
        put_varint(&mut bad_run, (1_000 << 2) | RUN_ZERO); // run of 1,000 words into a 1-word set
        assert!(matches!(
            decode_tree::<SubtreeTaskList>(&bad_run).unwrap_err(),
            DecodeError::BadIndex { .. }
        ));

        // An overlong varint (runs past 64 bits).
        let mut overlong = header(64, 0, 0);
        overlong.extend_from_slice(&[0x80; 10]);
        overlong.push(0x01);
        assert!(matches!(
            decode_tree::<DenseBitVector>(&overlong).unwrap_err(),
            DecodeError::BadVarint { .. }
        ));

        // Rank maps: a run count far beyond the buffer.
        let mut huge_map = vec![0xAF];
        put_varint(&mut huge_map, u64::MAX / 2);
        huge_map.extend_from_slice(&[0, 0, 0]);
        assert!(matches!(
            decode_rank_map(&huge_map).unwrap_err(),
            DecodeError::Truncated { .. }
        ));
    }

    #[test]
    fn encoded_size_reflects_the_representation() {
        let mut table = FrameTable::new();
        let barrier = StackTrace::new(table.intern_path(&["_start", "main", "MPI_Barrier"]));
        // A daemon responsible for 8 of a 65,536-task job.
        let mut dense = GlobalPrefixTree::new_global(65_536);
        let mut subtree = SubtreePrefixTree::new_subtree(8);
        for i in 0..8u64 {
            dense.add_trace(&barrier, i);
            subtree.add_trace(&barrier, i);
        }
        let dict = ring_dictionary();
        let dense_bytes = encode_tree(&dense, &table, &dict).len();
        let subtree_bytes = encode_tree(&subtree, &table, &dict).len();
        // Even with varint words, the dense set pays for every word of the job.
        assert!(
            dense_bytes > 20 * subtree_bytes,
            "dense {dense_bytes} vs subtree {subtree_bytes}"
        );
    }

    #[test]
    fn a_decoded_tree_re_encodes_byte_for_byte() {
        // The filter path: re-encoding a decoded tree through its wire records.
        let mut table = FrameTable::new();
        let tree = sample_global(&mut table);
        let dict = FrameDictionary::negotiate(["_start", "main"]);
        let bytes = encode_tree(&tree, &table, &dict);
        let (decoded, frames): (GlobalPrefixTree, WireFrames) = decode_tree(&bytes).unwrap();
        // Identical ids and records: the re-encoding is byte-identical.
        assert_eq!(encode_merged_tree(&decoded, &frames), bytes);
    }

    #[test]
    fn merged_trees_re_encode_through_wire_frames() {
        // Two daemons, one session dictionary, one frame ("poll_step") that the
        // negotiation missed — the filter merges by id and keeps the record.
        let dict = FrameDictionary::negotiate(["_start", "main", "MPI_Barrier"]);
        let mut packets = Vec::new();
        for daemon in 0..2u64 {
            let mut table = FrameTable::new();
            let barrier = StackTrace::new(table.intern_path(&["_start", "main", "MPI_Barrier"]));
            let poll = StackTrace::new(table.intern_path(&["_start", "main", "poll_step"]));
            let mut tree = GlobalPrefixTree::new_global(16);
            for rank in daemon * 8..daemon * 8 + 8 {
                tree.add_trace(if rank % 8 == 1 { &poll } else { &barrier }, rank);
            }
            packets.push(encode_tree(&tree, &table, &dict));
        }

        let (mut acc, mut frames): (GlobalPrefixTree, WireFrames) =
            decode_tree(&packets[0]).unwrap();
        let (other, other_frames): (GlobalPrefixTree, WireFrames) =
            decode_tree(&packets[1]).unwrap();
        frames.merge(&other_frames).unwrap();
        acc.merge(other);

        let merged = encode_merged_tree(&acc, &frames);
        let (back, back_frames): (GlobalPrefixTree, WireFrames) = decode_tree(&merged).unwrap();
        assert_eq!(back.node_count(), acc.node_count());
        assert_eq!(back.tasks(back.root()).count(), 16);
        assert_eq!(back_frames.name_of(3), Some("poll_step"));
        // Merging identical ids produced one shared "poll_step" leaf.
        let poll_leaves = leaves(&back)
            .iter()
            .filter(|&&l| back_frames.name_of(back.frame(l).unwrap().0) == Some("poll_step"))
            .count();
        assert_eq!(poll_leaves, 1);
    }

    #[test]
    fn wire_frames_merge_rejects_a_foreign_session() {
        let frames = |base_len| WireFrames {
            base_len,
            ..WireFrames::default()
        };
        let (mut a, b) = (frames(4), frames(7));
        assert_eq!(
            a.merge(&b).unwrap_err(),
            DecodeError::DictionaryMismatch {
                expected: 4,
                found: 7
            }
        );
    }

    /// The per-rank layout the run format replaced: a varint count, then one
    /// zigzag delta per rank.
    fn per_rank_map(ranks: impl IntoIterator<Item = u64>) -> Vec<u8> {
        let ranks: Vec<u64> = ranks.into_iter().collect();
        let mut out = Vec::new();
        put_varint(&mut out, ranks.len() as u64);
        let mut prev = 0u64;
        for rank in ranks {
            put_varint(&mut out, zigzag(rank.wrapping_sub(prev) as i64));
            prev = rank;
        }
        out
    }

    #[test]
    fn rank_map_round_trips_as_runs() {
        let scattered: RankRuns = [0u64, 2, 1, 3, 1_000_000].into_iter().collect();
        assert_eq!(scattered.runs().count(), 5);
        assert_eq!(
            decode_rank_map(&encode_rank_map(&scattered)).unwrap(),
            scattered
        );
        // A contiguous block is one run: header, start, length.
        let block: RankRuns = (1_000..1_128).collect();
        assert_eq!(encode_rank_map(&block), [0xA1, 0xD0, 0x0F, 0x80, 0x01]);
        assert_eq!(decode_rank_map(&encode_rank_map(&block)).unwrap(), block);
        // A one-rank daemon ships exactly what the per-rank layout did.
        for rank in [0, 1, 63, 64, 8_191, 8_192, 1 << 20, 1 << 40] {
            let one: RankRuns = std::iter::once(rank).collect();
            assert_eq!(encode_rank_map(&one).len(), per_rank_map([rank]).len());
        }
        // 15 runs or more declare their count in a varint after the header, and
        // later runs are zigzag deltas from the previous run's end (backwards too).
        let many: RankRuns = (0..40u64).map(|r| 1_000 - 2 * r).collect();
        let bytes = encode_rank_map(&many);
        assert_eq!(bytes[..2], [0xAF, 40]);
        assert_eq!(decode_rank_map(&bytes).unwrap(), many);
        assert_eq!(decode_rank_map(&[0xA0]).unwrap(), RankRuns::default());
    }

    #[test]
    fn hostile_rank_maps_are_typed_errors() {
        use DecodeError::{BadIndex, Truncated, WrongRepresentation};
        let wrong = |found| WrongRepresentation {
            found,
            expected: RANK_MAP_FORMAT,
        };
        let runs: RankRuns = [3u64, 4, 5, 9, 7, 8, 100].into_iter().collect();
        let valid = encode_rank_map(&runs);
        let mut trailing = valid.clone();
        trailing.push(0);
        let mut zero_len = vec![0xA1];
        put_varint(&mut zero_len, 8 << 1);
        zero_len.push(0);
        let mut overflow = vec![0xA1];
        put_varint(&mut overflow, (u64::MAX >> 2) << 1);
        put_varint(&mut overflow, u64::MAX);
        let mut delta_overflow = vec![0xA2, 0x03];
        put_varint(&mut delta_overflow, zigzag(i64::MIN / 4) << 1 | 1);
        // Payloads in the per-rank layout, of two real partitions' daemons.
        let blocks = crate::daemon::StatDaemon::partition(1_024, 16);
        let singles = crate::daemon::StatDaemon::partition(64, 64);
        let rows: [(&str, Vec<u8>, DecodeError); 9] = [
            ("empty", vec![], Truncated { offset: 0 }),
            ("wrong format byte", vec![0x51, 0x01], wrong(5)),
            (
                "per-rank map, 64-task daemon",
                per_rank_map(&blocks[1].ranks),
                wrong(4),
            ),
            (
                "per-rank map, one-task daemon",
                per_rank_map(&singles[5].ranks),
                wrong(0),
            ),
            (
                "trailing bytes",
                trailing,
                BadIndex {
                    offset: valid.len(),
                },
            ),
            (
                "run count past the bytes",
                vec![0xAF, 0x64, 0, 0, 0],
                Truncated { offset: 2 },
            ),
            ("zero length", zero_len, BadIndex { offset: 1 }),
            ("start + len overflows", overflow, BadIndex { offset: 1 }),
            (
                "delta before rank 0",
                delta_overflow,
                BadIndex { offset: 2 },
            ),
        ];
        for (name, bytes, expected) in rows {
            assert_eq!(decode_rank_map(&bytes), Err(expected), "{name}");
        }
        // A cut anywhere — at a run boundary or inside a varint — is an error,
        // never a shorter map.
        for cut in 0..valid.len() {
            assert!(decode_rank_map(&valid[..cut]).is_err(), "cut at {cut}");
        }
        // A huge run decodes without allocating for it; the front end refuses
        // it against the job (see `strategy`).
        let mut huge = vec![0xA1, 0x00];
        put_varint(&mut huge, 1 << 60);
        assert_eq!(decode_rank_map(&huge).unwrap().count(), 1 << 60);
    }

    #[test]
    fn dictionary_broadcast_payload_round_trips() {
        let dict = FrameDictionary::negotiate(["_start", "main", "MPI_Barrier"]);
        let payload = encode_dictionary(&dict.negotiated_names());
        assert_eq!(
            decode_dictionary(&payload).unwrap(),
            vec!["_start", "main", "MPI_Barrier"]
        );
        let mut lying = Vec::new();
        put_varint(&mut lying, u64::MAX / 2);
        assert!(matches!(
            decode_dictionary(&lying).unwrap_err(),
            DecodeError::Truncated { .. }
        ));
    }

    #[test]
    fn cost_model_arithmetic_upper_bounds_real_v2_sizes() {
        // The planner / estimator closures price packets with
        // `tbon::cost::{dense_node_bytes, subtree_node_bytes}`; pin that
        // arithmetic to the real encoder so the byte terms stay honest.
        let mut table = FrameTable::new();
        let dict = ring_dictionary();
        let total_tasks = 8_192u64;
        let members = 128u64;

        let barrier = StackTrace::new(table.intern_path(&["_start", "main", "MPI_Barrier"]));
        let mut dense = GlobalPrefixTree::new_global(total_tasks);
        let mut subtree = SubtreePrefixTree::new_subtree(members);
        for rank in 0..members {
            dense.add_trace(&barrier, rank);
            subtree.add_trace(&barrier, rank);
        }

        let dense_real = encode_tree(&dense, &table, &dict).len() as u64;
        let dense_nodes = dense.node_count() as u64;
        let dense_predicted: u64 = dense_nodes * tbon::cost::dense_node_bytes(total_tasks, members);
        assert!(
            dense_real <= dense_predicted + 32,
            "real {dense_real} vs predicted {dense_predicted} (+header slack)"
        );
        assert!(
            dense_predicted <= dense_real + 32,
            "the dense model must track the encoder closely, not just bound it"
        );

        let subtree_real = encode_tree(&subtree, &table, &dict).len() as u64;
        let subtree_nodes = subtree.node_count() as u64;
        let subtree_predicted: u64 = subtree_nodes * tbon::cost::subtree_node_bytes(members);
        // Saturated sets run-length collapse far below the worst case the
        // estimator conservatively prices, but never above it.
        assert!(
            subtree_real <= subtree_predicted + 32,
            "real {subtree_real} vs predicted {subtree_predicted}"
        );
    }
}
