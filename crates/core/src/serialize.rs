//! Wire format for prefix trees — version 2: interned frames, varint bodies.
//!
//! STAT's merge filter runs inside MRNet communication processes, which only see
//! packed byte buffers, so the packet sizes flowing through the in-process TBON
//! are the *real* serialised sizes — including, for the dense representation, all
//! the zero words Section V complains about.  Frame names live in a session-global
//! [`FrameDictionary`] negotiated once at setup; packets carry u32 ids, and every
//! length or count is an LEB128 varint.  Any version byte but 2 is the typed
//! [`DecodeError::Version`].  A daemon interns nothing: a name the dictionary
//! lacks ships a fresh id, named by a record, until `relabel` after the map.
//!
//! ```text
//! magic    u32     0x53544154 ("STAT"), little-endian
//! version  u8      2 — anything else is rejected with DecodeError::Version
//! repr     u8      0 = dense/job-wide, 1 = subtree/hierarchical
//! width    varint  domain width of every task set in the tree
//! base     varint  negotiated dictionary length the encoder assumed
//! nrecords varint  incremental dictionary records (frames past the base)
//!   per record:    gid varint (>= base), name-length varint, UTF-8 bytes
//! nnodes   varint  node count including the implicit root at index 0
//!   root:          task-set bytes only (no parent / frame fields)
//!   per node:      parent-delta varint (index - parent, >= 1),
//!                  global frame id varint, task-set bytes
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
//! Equal children are read once: the filter keys each concatenating body by its
//! bytes, and a repeat ORs its rows in at its own offset through the node map its
//! first copy left in the merge's `(parent, frame)` index.

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
/// packets: names for frames interned past the negotiated base.
///
/// A merge filter unions these across its children (identical gids always carry
/// identical names — they came from one session dictionary) and re-emits the
/// union, so every packet stays self-contained without re-shipping the base.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct WireFrames {
    base_len: u32,
    records: BTreeMap<u32, String>,
}

impl WireFrames {
    /// An empty record set over a dictionary of `base_len` negotiated names.
    pub fn new(base_len: u32) -> Self {
        WireFrames {
            base_len,
            records: BTreeMap::new(),
        }
    }

    /// The negotiated base length the packet assumed.
    pub fn base_len(&self) -> u32 {
        self.base_len
    }

    /// Record an incremental name.
    pub fn insert(&mut self, gid: u32, name: impl Into<String>) {
        self.records.insert(gid, name.into());
    }

    /// The name of an incremental frame, if this packet carried it.
    pub fn name_of(&self, gid: u32) -> Option<&str> {
        self.records.get(&gid).map(String::as_str)
    }

    /// Incremental records in id order.
    pub fn records(&self) -> impl Iterator<Item = (u32, &str)> + '_ {
        self.records.iter().map(|(gid, name)| (*gid, name.as_str()))
    }

    /// Absorb another packet's records.  Both packets must have negotiated the
    /// same base — a mismatch means they belong to different sessions.
    pub fn merge(&mut self, other: &WireFrames) -> Result<(), DecodeError> {
        let (expected, found) = (self.base_len, other.base_len);
        ensure(
            expected == found,
            DecodeError::DictionaryMismatch { expected, found },
        )?;
        for (gid, name) in &other.records {
            self.records.entry(*gid).or_insert_with(|| name.clone());
        }
        Ok(())
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

/// The records a body whose nodes are `nodes` ships: one per gid past the base,
/// in gid order.  A merged tree only references frames its inputs carried, so a
/// name is always found; an empty one ships rather than a panic mid-filter if
/// that invariant ever breaks.
fn referenced<'a>(
    nodes: &[(usize, u32)],
    base_len: u32,
    name_of: impl Fn(u32) -> Option<&'a str>,
) -> Vec<(u32, &'a str)> {
    let past_base = nodes.iter().skip(1).filter(|&&(_, gid)| gid >= base_len);
    let records: BTreeMap<u32, &str> = past_base
        .map(|&(_, gid)| (gid, name_of(gid).unwrap_or("")))
        .collect();
    records.into_iter().collect()
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

/// Serialise a tree into a v2 packet body: base ids of a table over `dict`'s base
/// ship as they are, any other frame is interned into the session dictionary.
/// Frames past the negotiated base travel as incremental records, once per packet.
pub fn encode_tree<S: WireTaskSet>(
    tree: &PrefixTree<S>,
    table: &FrameTable,
    dict: &FrameDictionary,
) -> Vec<u8> {
    let (row, ids) = (|node| tree.tasks(node).words(), (dict, &dict.table()));
    let body = encode_ordered::<S>(tree.width(), links(tree), row, table, ids);
    relabel::<S>(&body, ids).ok().flatten().unwrap_or(body)
}

/// The dictionary, and a table of ids it held before a body: a snapshot or its base.
pub(crate) type Ids<'a> = (&'a FrameDictionary, &'a FrameTable);

/// A tree given in the order its nodes ship, as a body whose fresh ids wait for
/// [`relabel`]: the non-root nodes as `(parent's position, frame)`, each parent
/// listed before its children, and `row` answering a position's task-set words
/// (the root's is 0).  A frame `known` names ships its session id, any other a
/// fresh id past `known`'s, numbered in node order and named by a record.
pub(crate) fn encode_ordered<'t, S: WireTaskSet>(
    width: u64,
    nodes: impl Iterator<Item = (usize, FrameId)>,
    row: impl Fn(usize) -> &'t [u64],
    table: &FrameTable,
    (dict, known): Ids<'_>,
) -> Vec<u8> {
    let fresh = u32::try_from(known.len()).unwrap_or(u32::MAX);
    let base_len = dict.base_len();
    // Base ids of a table over `dict`'s base are session ids; others go by name.
    let negotiated = if dict.shares_base(table) { base_len } else { 0 };
    let (mut gids, mut unnamed) = (HashMap::new(), Vec::new());
    let mut gid_of = |frame: FrameId| {
        let name = table.name(frame);
        if let Some(gid) = known.lookup(name) {
            return gid.0;
        }
        unnamed.push(name);
        fresh + u32::try_from(unnamed.len() - 1).unwrap_or(u32::MAX)
    };
    let nodes = nodes.map(|(parent, frame)| match frame.0 < negotiated {
        true => (parent, frame.0),
        false => (parent, *gids.entry(frame).or_insert_with(|| gid_of(frame))),
    });
    let mut plan = plan((width, base_len), nodes);
    plan.records = referenced(&plan.nodes, base_len, |gid| match gid.checked_sub(fresh) {
        Some(at) => unnamed.get(usize::try_from(at).ok()?).copied(),
        None => Some(known.name(FrameId(gid))),
    });
    let mut out = Vec::with_capacity(32 + plan.nodes.len() * 8);
    write_body::<S>(&mut out, &plan, row);
    out
}

/// A body [`encode_ordered`] wrote against `known`, in session ids: the one place
/// names meet the dictionary.  Interning the fresh records in id order interns in
/// node order, as one encode through the dictionary would.  `None`: each fresh id
/// already is its name's id, so the body stands, read no further than its records
/// (a body wider than [`MAX_WIRE_WIDTH`] fails to read, and the filter rejects it).
pub(crate) fn relabel<S: WireTaskSet>(
    body: &[u8],
    (dict, known): Ids<'_>,
) -> Result<Option<Vec<u8>>, DecodeError> {
    // The records follow the magic, version, tag, width and base.
    let (mut records, mut gids) = (Reader::new(body), Vec::new());
    let fresh = u32::try_from(known.len()).unwrap_or(u32::MAX);
    records.take(6)?;
    let (_width, _base) = (records.varint()?, records.varint()?);
    for _ in 0..records.varint()? {
        let (id, len, offset) = (records.varint_u32()?, records.varint_count()?, records.pos);
        let name = std::str::from_utf8(records.take(len)?)
            .map_err(|_| DecodeError::BadFrameName { offset })?;
        gids.extend((id >= fresh).then(|| (id, dict.intern(name))));
    }
    if gids.iter().all(|(id, gid)| id == gid) {
        return Ok(None);
    }
    let mut flat = FlatTree::default();
    flat.read::<S>(body)?;
    let nodes = flat.nodes.iter_mut().skip(1).map(|(_, id)| id);
    for id in nodes.chain(flat.records.iter_mut().map(|(id, _)| id)) {
        if let Ok(at) = gids.binary_search_by_key(&*id, |&(fresh, _)| fresh) {
            *id = gids.get(at).map_or(*id, |&(_, gid)| gid);
        }
    }
    flat.records.sort_unstable_by_key(|&(gid, _)| gid);
    let mut out = Vec::with_capacity(body.len() + 8);
    write_body::<S>(&mut out, &flat, |node| flat.row(node));
    Ok(Some(out))
}

/// Re-serialise a merged tree whose frame ids are already session-global —
/// the filter path.  No dictionary handle needed: the incremental records the
/// inputs carried (unioned into `frames`) keep the packet self-contained.
pub fn encode_merged_tree<S: WireTaskSet>(tree: &PrefixTree<S>, frames: &WireFrames) -> Vec<u8> {
    let at = (tree.width(), frames.base_len());
    let mut plan = plan(at, links(tree).map(|(parent, frame)| (parent, frame.0)));
    plan.records = referenced(&plan.nodes, plan.base_len, |gid| frames.name_of(gid));
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
    /// Incremental records sorted by gid; a gid shipped twice keeps wire order.
    /// A merge's output collects every body's here until it is written.
    records: Vec<(u32, &'a str)>,
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
        self.records.clear();
        for _ in 0..nrecords {
            let at = r.pos;
            let gid = r.varint_u32()?;
            ensure(gid >= self.base_len, bad_index(at))?;
            let len = r.varint_count()?;
            let offset = r.pos;
            let name = std::str::from_utf8(r.take(len)?)
                .map_err(|_| DecodeError::BadFrameName { offset })?;
            self.records.push((gid, name));
        }
        self.records.sort_by_key(|&(gid, _)| gid);
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
                let named = self.records.binary_search_by_key(&gid, |&(g, _)| g);
                ensure(gid < self.base_len || named.is_ok(), bad_index(at))?;
                node = (idx - delta, gid);
            }
            self.nodes.push(node);
            self.read_set::<S>(&mut r)?;
        }
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

    /// The task-set words of `node`.
    fn row(&self, node: usize) -> &[u64] {
        let wps = self.wps;
        self.words
            .get(node * wps..(node + 1) * wps)
            .unwrap_or_default()
    }
}

/// Deserialise a v2 packet body into a tree carrying session-global frame ids,
/// plus the incremental dictionary records the packet shipped.
///
/// No frame table is needed (or touched): resolve ids against the session
/// dictionary's snapshot, or forward them — merges compare ids directly.
pub fn decode_tree<S: WireTaskSet>(buf: &[u8]) -> Result<(PrefixTree<S>, WireFrames), DecodeError> {
    let mut flat = FlatTree::default();
    flat.read::<S>(buf)?;
    let mut frames = WireFrames::new(flat.base_len);
    for &(gid, name) in &flat.records {
        frames.insert(gid, name);
    }
    let mut tree = PrefixTree::<S>::new(flat.width);
    for (node, &(parent, gid)) in flat.nodes.iter().enumerate() {
        // Node 0 is the root in both.
        let idx = (node > 0).then(|| tree.append_node(parent, FrameId(gid)));
        let idx = idx.unwrap_or(0);
        tree.replace_tasks(idx, S::from_words(flat.width, flat.row(node).to_vec()));
    }
    Ok((tree, frames))
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
        out.records.extend(first.records.iter().rev());
        out
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

    /// Fold a copy of a body in at `offset`.  A first copy (`map` is `None`) adds
    /// its records; a repeat adds none (the first wins) and ORs its rows in
    /// through its node map, derived into `map` once every probe hits.  Else it
    /// walks as `PrefixTree::merge` does: a LIFO worklist of (merged node, body
    /// node, grafted), a node new under its matched parent grafted unprobed.
    fn fold(
        &mut self,
        body: &FlatTree<'a>,
        offset: u64,
        map: Option<&mut Option<Vec<usize>>>,
        work: &mut Vec<(usize, usize, bool)>,
    ) {
        match map {
            None => self.records.extend(body.records.iter().rev()),
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

    /// Write a merge's output with the records it references, as
    /// [`encode_merged_tree`] does: within a body the last record of a gid wins,
    /// across bodies the first.
    fn finish<S: WireTaskSet>(mut self) -> Vec<u8> {
        let mut names = std::mem::take(&mut self.records);
        names.sort_by_key(|&(gid, _)| gid);
        names.dedup_by_key(|&mut (gid, _)| gid);
        let found = |gid| names.binary_search_by_key(&gid, |&(g, _)| g).ok();
        let name_of = |gid| found(gid).and_then(|i| names.get(i)).map(|&(_, name)| name);
        self.records = referenced(&self.nodes, self.base_len, name_of);
        let mut bytes = Vec::with_capacity(32 + self.nodes.len() * 8);
        write_body::<S>(&mut bytes, &self, |node| self.row(node));
        bytes
    }
}

/// The merge filter's body: fold v2 packet bodies left to right into one output
/// body, byte for byte what [`decode_tree`] → [`PrefixTree::merge`] →
/// [`encode_merged_tree`] produce, without building a tree.  A body that does
/// not decode, names another dictionary base than the first accepted one, or —
/// job-wide — another width, is skipped, as is a concatenating body that would
/// take the output past [`MAX_WIRE_WIDTH`]; `None` when no body is accepted.
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
            (None, Some(merge)) => merge.fold(&body, 0, None, &mut work),
            (None, None) => merge = Some(FlatTree::merged(&body, width)),
        }
    }
    if let Some((&(first, ..), later)) = copies.split_first() {
        let merge = merge.insert(FlatTree::merged(held.get(first)?, width));
        let mut maps = vec![None; held.len()];
        for &(copy, offset, repeat) in later {
            if let (Some(body), Some(map)) = (held.get(copy), maps.get_mut(copy)) {
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
        // ...and ids resolve against the session dictionary's snapshot.
        let snapshot = dict.snapshot();
        let names: Vec<&str> = leaves(&back)
            .iter()
            .map(|&l| snapshot.name(back.frame(l).unwrap()))
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
    /// walks them, encoded against `dict`: the bodies and the dictionary's names
    /// in id order after them.
    fn walked_bodies<S: WireTaskSet>(
        mut table: FrameTable,
        dict: &FrameDictionary,
    ) -> (Vec<Vec<u8>>, Vec<String>) {
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
        let bodies = trees.iter().map(|t| encode_tree(t, &table, dict)).collect();
        let snapshot = dict.snapshot();
        let ids = (0..).map(FrameId).take(snapshot.len());
        (
            bodies,
            ids.map(|id| snapshot.name(id).to_string()).collect(),
        )
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
            let (_, frames) = decode_tree::<S>(&plain.0[0]).unwrap();
            let records: Vec<_> = frames.records().collect();
            assert_eq!(records, [(5, "poll_step"), (6, "PMPI_Init")]);
            assert_eq!(plain.1[5..], ["poll_step", "PMPI_Init"]);
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

    /// The encoder as it was before the relabel, the oracle of the tests below:
    /// every frame outside a shared base is interned into `dict` in node order
    /// while the body is planned, and ships that id.
    fn interning_encode<S: WireTaskSet>(
        tree: &PrefixTree<S>,
        table: &FrameTable,
        dict: &FrameDictionary,
    ) -> Vec<u8> {
        let negotiated = if dict.shares_base(table) {
            dict.base_len()
        } else {
            0
        };
        let (mut gid_of, mut name_of) = (HashMap::new(), HashMap::new());
        for (_, frame) in links(tree).filter(|(_, frame)| frame.0 >= negotiated) {
            let name = table.name(frame);
            let gid = *gid_of.entry(frame).or_insert_with(|| dict.intern(name));
            name_of.insert(gid, name);
        }
        let gid = |frame: FrameId| gid_of.get(&frame).copied().unwrap_or(frame.0);
        let at = (tree.width(), dict.base_len());
        let nodes = links(tree).map(|(parent, frame)| (parent, gid(frame)));
        let mut plan = plan(at, nodes);
        plan.records = referenced(&plan.nodes, at.1, |gid| name_of.get(&gid).copied());
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
    /// "late_a", "late_b" and "poll" are outside [`wide_hints`], and the walk
    /// reaches "late_a" first.
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

    #[test]
    fn a_relabelled_body_is_the_interning_encoders() {
        fn check<S: WireTaskSet>(case: &str, earlier: usize, table_order: &[&str], late_a: bool) {
            let hints = wide_hints();
            let negotiate = || {
                let dict = FrameDictionary::negotiate(hints.iter().map(String::as_str));
                // Names an earlier daemon's relabel interned.
                for k in 0..earlier {
                    dict.intern(&format!("earlier_{k}"));
                }
                if late_a {
                    dict.intern("late_a");
                }
                dict
            };
            let (reference, relabelled) = (negotiate(), negotiate());
            // Known before the map: the snapshot's names ship their session ids.
            let known = if late_a {
                relabelled.snapshot()
            } else {
                relabelled.table()
            };
            let mut table = relabelled.table();
            for name in table_order {
                table.intern(name);
            }
            let trees = cold_trees::<S>(&mut table);
            for (tree, first) in trees.iter().zip([true, false]) {
                let at = format!("{case}, {} nodes", tree.node_count());
                let want = interning_encode(tree, &table, &reference);
                let row = |node| tree.tasks(node).words();
                let ids = (&relabelled, &known);
                let body = encode_ordered::<S>(tree.width(), links(tree), row, &table, ids);
                let got = relabel::<S>(&body, ids).expect("a written body reads");
                // Rewritten where the dictionary numbers the names otherwise;
                // the first body's fresh names are the next ids when none was
                // interned before it.
                if earlier > 0 && !late_a {
                    assert!(got.is_some(), "{at}");
                } else if first {
                    assert_eq!(got, None, "{at}");
                }
                assert_eq!(got.unwrap_or_else(|| body.clone()), want, "{at}");
                // encode_tree is the same two steps.
                assert_eq!(encode_tree(tree, &table, &relabelled), want, "{at}");
                if earlier > 0 && !late_a {
                    assert!(want.len() > body.len(), "{at}: the ids past 127 grew");
                }
            }
            let names = |dict: &FrameDictionary| {
                let table = dict.snapshot();
                let ids = (0..).map(FrameId).take(table.len());
                ids.map(|id| table.name(id).to_string()).collect::<Vec<_>>()
            };
            assert_eq!(names(&relabelled), names(&reference), "{case}");
            let late = names(&relabelled).split_off(hints.len() + earlier);
            assert_eq!(
                late,
                ["late_a", "poll", "late_b"],
                "{case}: interned in node order"
            );
        }
        for (case, earlier, table_order, late_a) in [
            ("ids below 128", 0, &[][..], false),
            ("global ids past 127", 40, &[], false),
            (
                "the table holds late_b before late_a",
                0,
                &["late_b", "late_a"],
                false,
            ),
            ("both", 40, &["poll", "late_b", "late_a"], false),
            ("late_a known before the map", 40, &["poll"], true),
        ] {
            check::<DenseBitVector>(case, earlier, table_order, late_a);
            check::<SubtreeTaskList>(case, earlier, table_order, late_a);
        }
    }

    #[test]
    fn a_body_with_no_fresh_id_comes_back_as_it_is() {
        fn check<S: WireTaskSet>() {
            // Every name negotiated: no record.  Every name interned before the
            // map: records, each already naming its session id.
            let all = ["_start", "main", "late_a", "late_b", "poll", "MPI_Barrier"];
            let negotiated = FrameDictionary::negotiate(all);
            let interned = FrameDictionary::negotiate(wide_hints().iter().map(String::as_str));
            for name in all {
                interned.intern(name);
            }
            for dict in [negotiated, interned] {
                let (known, mut table) = (dict.snapshot(), dict.table());
                for tree in cold_trees::<S>(&mut table) {
                    let row = |node| tree.tasks(node).words();
                    let ids = (&dict, &known);
                    let body = encode_ordered::<S>(tree.width(), links(&tree), row, &table, ids);
                    assert_eq!(relabel::<S>(&body, ids), Ok(None));
                    assert_eq!(body, interning_encode(&tree, &table, &dict));
                }
                assert_eq!(dict.len(), known.len(), "nothing was interned");
            }
        }
        check::<DenseBitVector>();
        check::<SubtreeTaskList>();
    }

    #[test]
    fn a_broken_body_fails_the_relabel_with_a_typed_error() {
        fn check<S: WireTaskSet>() {
            let dict = FrameDictionary::negotiate(wide_hints().iter().map(String::as_str));
            let (mut table, base) = (dict.table(), dict.table());
            let [tree, _] = cold_trees::<S>(&mut table);
            let (row, ids) = (|node| tree.tasks(node).words(), (&dict, &base));
            let body = encode_ordered::<S>(tree.width(), links(&tree), row, &table, ids);
            // Another body interned a name first: this one's must be rewritten.
            dict.intern("earlier");
            for cut in 1..body.len() {
                let err = relabel::<S>(&body[..body.len() - cut], ids);
                assert!(err.is_err(), "cut {cut}: {err:?}");
            }
            // The record count sits after the magic, version, tag, width and base.
            let at = 6 + [tree.width(), u64::from(dict.base_len())]
                .map(|v| {
                    let mut sink = Vec::new();
                    put_varint(&mut sink, v);
                    sink.len()
                })
                .iter()
                .sum::<usize>();
            assert_eq!(body[at], 3, "three records: late_a, poll, late_b");
            let lying = |count: u64| {
                let mut lie = body[..at].to_vec();
                put_varint(&mut lie, count);
                lie.extend_from_slice(&body[at + 1..]);
                relabel::<S>(&lie, ids)
            };
            assert!(lying(4).is_err(), "one record more than shipped");
            let huge = lying(1 << 40);
            assert!(huge.is_err(), "{huge:?}");
            assert!(relabel::<S>(&body, ids).is_ok_and(|body| body.is_some()));
        }
        check::<DenseBitVector>();
        check::<SubtreeTaskList>();
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
        assert_eq!(dict.snapshot().name(FrameId(gid)), huge_name);
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
        let snapshot = dict.snapshot();
        let poll_leaves = leaves(&back)
            .iter()
            .filter(|&&l| snapshot.name(back.frame(l).unwrap()) == "poll_step")
            .count();
        assert_eq!(poll_leaves, 1);
    }

    #[test]
    fn wire_frames_merge_rejects_a_foreign_session() {
        let mut a = WireFrames::new(4);
        let b = WireFrames::new(7);
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
