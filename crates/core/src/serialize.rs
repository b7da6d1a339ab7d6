//! Wire format for prefix trees — version 2: interned frames, varint bodies.
//!
//! STAT's merge filter runs inside MRNet communication processes, which only see
//! packed byte buffers; the filter deserialises its children's trees, merges them and
//! re-serialises the result for its parent.  The reproduction does the same, so the
//! packet sizes flowing through the in-process TBON are the *real* serialised sizes —
//! including, for the dense representation, all the zero words Section V complains
//! about.
//!
//! Frame names live in a session-global [`FrameDictionary`] negotiated once at
//! session setup, packets carry u32 ids, and every length or count on the wire is
//! an LEB128 varint, so no fixed-width cast exists to truncate a long frame name.
//! Version 2 is the only format this module speaks: any other version byte is the
//! typed [`DecodeError::Version`].
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
//! Task sets are encoded by the [`SetCodec`] their domain names.  Dense (job-wide)
//! sets ship one varint per 64-bit word — an empty word costs one byte instead of
//! eight, but the byte count still grows with the *job*, preserving the Section V scaling
//! behaviour the dense representation exists to demonstrate.  Subtree sets ship
//! a run-length token stream (`token = n << 2 | kind`): kind 0 is a run of `n`
//! zero words, kind 1 a run of `n` saturated words (every valid bit for that
//! word position set — the common "all local tasks in the barrier" case costs
//! one token), kind 2 announces `n` literal 8-byte words.

use std::collections::{BTreeMap, HashMap};

use stackwalk::{FrameDictionary, FrameId, FrameTable};

use crate::graph::PrefixTree;
use crate::taskset::TaskSetOps;

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
    /// A decoded rank map names an MPI rank outside the job.  Varint deltas
    /// decode permissively, so a corrupted map can parse cleanly and only this
    /// semantic check separates it from a real one.
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
// Varints and the write sink
// ---------------------------------------------------------------------------

/// Byte sink the encoder writes into: a real buffer, or a counter that prices
/// the encoding without materialising it.  Sharing one write path is what lets
/// `encoded_tree_size` match `encode_tree` byte for byte by construction.
trait WireSink {
    fn put(&mut self, byte: u8);
    fn put_slice(&mut self, bytes: &[u8]);
}

impl WireSink for Vec<u8> {
    fn put(&mut self, byte: u8) {
        self.push(byte);
    }
    fn put_slice(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

struct ByteCount(usize);

impl WireSink for ByteCount {
    fn put(&mut self, _byte: u8) {
        self.0 += 1;
    }
    fn put_slice(&mut self, bytes: &[u8]) {
        self.0 += bytes.len();
    }
}

fn put_varint(sink: &mut impl WireSink, mut value: u64) {
    loop {
        // stat-analyzer: allow(truncating-cast) — masked to the low 7 bits first
        let low = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            sink.put(low);
            return;
        }
        sink.put(low | 0x80);
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
        if self.base_len != other.base_len {
            return Err(DecodeError::DictionaryMismatch {
                expected: self.base_len,
                found: other.base_len,
            });
        }
        for (gid, name) in &other.records {
            self.records.entry(*gid).or_insert_with(|| name.clone());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// v2 encoding
// ---------------------------------------------------------------------------

/// The global id of every non-root node, in [`PrefixTree::iter_nodes`] order,
/// plus the incremental records the packet must carry to stay self-contained.
struct FramePlan<'a> {
    base_len: u32,
    gids: Vec<u32>,
    records: BTreeMap<u32, &'a str>,
}

fn plan_with_dictionary<'a, S: WireTaskSet>(
    tree: &PrefixTree<S>,
    table: &'a FrameTable,
    dict: &FrameDictionary,
) -> FramePlan<'a> {
    let base_len = dict.base_len();
    // Intern each distinct frame once: the dictionary is shared session state.
    let mut gid_of: HashMap<FrameId, u32> = HashMap::new();
    let mut records = BTreeMap::new();
    let gids = tree
        .iter_nodes()
        .map(|(_, frame, _)| {
            *gid_of.entry(frame).or_insert_with(|| {
                let name = table.name(frame);
                let gid = dict.intern(name);
                if gid >= base_len {
                    records.insert(gid, name);
                }
                gid
            })
        })
        .collect();
    FramePlan {
        base_len,
        gids,
        records,
    }
}

fn plan_from_wire<'a, S: WireTaskSet>(
    tree: &PrefixTree<S>,
    frames: &'a WireFrames,
) -> FramePlan<'a> {
    let base_len = frames.base_len();
    let mut records = BTreeMap::new();
    let gids = tree
        .iter_nodes()
        .map(|(_, frame, _)| {
            let gid = frame.0;
            if gid >= base_len {
                // A merged tree only references frames its decoded inputs
                // carried, so the record is always present; ship an empty name
                // rather than panic mid-filter if that invariant ever breaks.
                records
                    .entry(gid)
                    .or_insert_with(|| frames.name_of(gid).unwrap_or(""));
            }
            gid
        })
        .collect();
    FramePlan {
        base_len,
        gids,
        records,
    }
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

fn write_task_set<S: WireTaskSet>(sink: &mut impl WireSink, set: &S, width: u64) {
    let words = set.words();
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
                    sink.put_slice(&word.to_le_bytes());
                }
            }
        }
    }
}

fn write_tree<S: WireTaskSet>(
    sink: &mut impl WireSink,
    tree: &PrefixTree<S>,
    plan: &FramePlan<'_>,
) {
    sink.put_slice(&MAGIC.to_le_bytes());
    sink.put(VERSION);
    sink.put(S::TAG);
    put_varint(sink, tree.width());
    put_varint(sink, u64::from(plan.base_len));
    put_varint(sink, plan.records.len() as u64);
    for (gid, name) in &plan.records {
        put_varint(sink, u64::from(*gid));
        put_varint(sink, name.len() as u64);
        sink.put_slice(name.as_bytes());
    }
    put_varint(sink, tree.node_count() as u64);
    write_task_set::<S>(sink, tree.tasks(tree.root()), tree.width());
    for ((idx, _, parent), &gid) in tree.iter_nodes().zip(&plan.gids) {
        // Parents precede children in index order, so the delta is always >= 1
        // and usually tiny — one varint byte for the common case.
        put_varint(sink, (idx - parent) as u64);
        put_varint(sink, u64::from(gid));
        write_task_set::<S>(sink, tree.tasks(idx), tree.width());
    }
}

/// Serialise a tree into a v2 packet body, interning its frames into the
/// session dictionary.  Frames past the negotiated base travel as incremental
/// dictionary records, once per packet.
pub fn encode_tree<S: WireTaskSet>(
    tree: &PrefixTree<S>,
    table: &FrameTable,
    dict: &FrameDictionary,
) -> Vec<u8> {
    let plan = plan_with_dictionary(tree, table, dict);
    let mut out = Vec::with_capacity(32 + tree.node_count() * 8);
    write_tree(&mut out, tree, &plan);
    out
}

/// The exact size in bytes [`encode_tree`] would produce, without building the
/// buffer.  Shares the encoder's write path, so the two cannot drift.
pub fn encoded_tree_size<S: WireTaskSet>(
    tree: &PrefixTree<S>,
    table: &FrameTable,
    dict: &FrameDictionary,
) -> usize {
    let plan = plan_with_dictionary(tree, table, dict);
    let mut count = ByteCount(0);
    write_tree(&mut count, tree, &plan);
    count.0
}

/// Re-serialise a merged tree whose frame ids are already session-global —
/// the filter path.  No dictionary handle needed: the incremental records the
/// inputs carried (unioned into `frames`) keep the packet self-contained.
pub fn encode_merged_tree<S: WireTaskSet>(tree: &PrefixTree<S>, frames: &WireFrames) -> Vec<u8> {
    let plan = plan_from_wire(tree, frames);
    let mut out = Vec::with_capacity(32 + tree.node_count() * 8);
    write_tree(&mut out, tree, &plan);
    out
}

/// The exact size [`encode_merged_tree`] would produce.
pub fn encoded_merged_tree_size<S: WireTaskSet>(
    tree: &PrefixTree<S>,
    frames: &WireFrames,
) -> usize {
    let plan = plan_from_wire(tree, frames);
    let mut count = ByteCount(0);
    write_tree(&mut count, tree, &plan);
    count.0
}

// ---------------------------------------------------------------------------
// v2 decoding
// ---------------------------------------------------------------------------

fn read_dense_words(r: &mut Reader<'_>, words_per_set: usize) -> Result<Vec<u64>, DecodeError> {
    let mut words = Vec::with_capacity(words_per_set);
    for _ in 0..words_per_set {
        words.push(r.varint()?);
    }
    Ok(words)
}

fn read_rle_words(
    r: &mut Reader<'_>,
    words_per_set: usize,
    width: u64,
) -> Result<Vec<u64>, DecodeError> {
    // Pre-size modestly: a lying width must not drive a huge allocation before
    // the token stream has actually produced the words.
    let mut words = Vec::with_capacity(words_per_set.min(1_024));
    while words.len() < words_per_set {
        let token_offset = r.pos;
        let token = r.varint()?;
        let kind = token & 3;
        let n = usize::try_from(token >> 2).map_err(|_| DecodeError::BadIndex {
            offset: token_offset,
        })?;
        if n == 0 || n > words_per_set - words.len() {
            return Err(DecodeError::BadIndex {
                offset: token_offset,
            });
        }
        match kind {
            RUN_ZERO => words.extend(std::iter::repeat_n(0u64, n)),
            RUN_FULL => {
                for _ in 0..n {
                    let index = words.len();
                    words.push(full_word_mask(width, index));
                }
            }
            RUN_LITERAL => {
                for _ in 0..n {
                    words.push(r.u64()?);
                }
            }
            _ => {
                return Err(DecodeError::BadIndex {
                    offset: token_offset,
                })
            }
        }
    }
    Ok(words)
}

/// Deserialise a v2 packet body into a tree carrying session-global frame ids,
/// plus the incremental dictionary records the packet shipped.
///
/// No frame table is needed (or touched): resolve ids against the session
/// dictionary's snapshot, or forward them — merges compare ids directly.
pub fn decode_tree<S: WireTaskSet>(buf: &[u8]) -> Result<(PrefixTree<S>, WireFrames), DecodeError> {
    let mut r = Reader::new(buf);
    if r.u32()? != MAGIC {
        return Err(DecodeError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(DecodeError::Version { found: version });
    }
    let tag = r.u8()?;
    if tag != S::TAG {
        return Err(DecodeError::WrongRepresentation {
            found: tag,
            expected: S::TAG,
        });
    }
    let width_offset = r.pos;
    let width = r.varint()?;
    if width > MAX_WIRE_WIDTH {
        return Err(DecodeError::Truncated {
            offset: width_offset,
        });
    }
    let base_len = r.varint_u32()?;
    let nrecords_offset = r.pos;
    let nrecords = r.varint_count()?;
    // A corrupted count must fail as `Truncated`, not drive a huge allocation:
    // each record needs at least its two varint bytes.
    if nrecords.saturating_mul(2) > r.remaining() {
        return Err(DecodeError::Truncated {
            offset: nrecords_offset,
        });
    }
    let mut frames = WireFrames::new(base_len);
    for _ in 0..nrecords {
        let gid_offset = r.pos;
        let gid = r.varint_u32()?;
        if gid < base_len {
            return Err(DecodeError::BadIndex { offset: gid_offset });
        }
        let len = r.varint_count()?;
        let name_offset = r.pos;
        let bytes = r.take(len)?;
        let name = std::str::from_utf8(bytes).map_err(|_| DecodeError::BadFrameName {
            offset: name_offset,
        })?;
        frames.insert(gid, name);
    }
    let count_offset = r.pos;
    let nnodes = r.varint_count()?;
    if nnodes == 0 {
        return Err(DecodeError::BadIndex {
            offset: count_offset,
        });
    }
    // Every non-root node carries at least a parent-delta byte and a frame-id
    // byte; a node count the buffer cannot possibly hold is a lie.
    if nnodes.saturating_mul(2).saturating_sub(2) > r.remaining() {
        return Err(DecodeError::Truncated {
            offset: count_offset,
        });
    }
    let words_per_set =
        usize::try_from(width.div_ceil(64)).map_err(|_| DecodeError::Truncated {
            offset: width_offset,
        })?;
    // Varint-word sets carry at least one byte per word; reject widths the
    // remaining buffer cannot hold before allocating for them.
    if S::CODEC == SetCodec::VarintWords && words_per_set > r.remaining() {
        return Err(DecodeError::Truncated {
            offset: width_offset,
        });
    }
    let read_set = |r: &mut Reader<'_>| -> Result<S, DecodeError> {
        let words = match S::CODEC {
            SetCodec::VarintWords => read_dense_words(r, words_per_set)?,
            SetCodec::RunLength => read_rle_words(r, words_per_set, width)?,
        };
        Ok(S::from_words(width, words))
    };

    let mut tree = PrefixTree::<S>::new(width);
    let root_set = read_set(&mut r)?;
    tree.replace_tasks(0, root_set);
    for idx in 1..nnodes {
        let node_offset = r.pos;
        let delta = r.varint_count()?;
        if delta == 0 || delta > idx {
            return Err(DecodeError::BadIndex {
                offset: node_offset,
            });
        }
        let parent = idx - delta;
        let gid = r.varint_u32()?;
        if gid >= base_len && frames.name_of(gid).is_none() {
            return Err(DecodeError::BadIndex {
                offset: node_offset,
            });
        }
        let set = read_set(&mut r)?;
        let node = tree.append_node(parent, FrameId(gid));
        tree.replace_tasks(node, set);
    }
    Ok((tree, frames))
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

/// Encode a daemon-order rank map (the RankMap packets that let the front end
/// remap).  Ranks are zigzag-delta varint encoded: contiguous daemon blocks
/// cost about one byte per rank instead of eight.
pub fn encode_rank_map(ranks: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(2 + ranks.len());
    put_varint(&mut out, ranks.len() as u64);
    let mut prev = 0u64;
    for &rank in ranks {
        let delta = rank.wrapping_sub(prev) as i64;
        put_varint(&mut out, zigzag(delta));
        prev = rank;
    }
    out
}

/// Decode a rank map.
pub fn decode_rank_map(buf: &[u8]) -> Result<Vec<u64>, DecodeError> {
    let mut r = Reader::new(buf);
    let count_offset = r.pos;
    let n = r.varint_count()?;
    // Each entry is at least one varint byte.
    if n > r.remaining() {
        return Err(DecodeError::Truncated {
            offset: count_offset,
        });
    }
    let mut out = Vec::with_capacity(n);
    let mut prev = 0u64;
    for _ in 0..n {
        let delta = unzigzag(r.varint()?);
        prev = prev.wrapping_add(delta as u64);
        out.push(prev);
    }
    Ok(out)
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
    let count_offset = r.pos;
    let n = r.varint_count()?;
    if n > r.remaining() {
        return Err(DecodeError::Truncated {
            offset: count_offset,
        });
    }
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
        let names: Vec<&str> = back
            .leaves()
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
        assert_eq!(dict.name(gid).as_deref(), Some(huge_name.as_str()));
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

        // Rank maps: a count far beyond the buffer.
        let mut huge_map = Vec::new();
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
    fn encoded_size_helpers_match_the_encoders_exactly() {
        let mut table = FrameTable::new();
        let tree = sample_global(&mut table);
        let dict = FrameDictionary::negotiate(["_start", "main"]);
        assert_eq!(
            encoded_tree_size(&tree, &table, &dict),
            encode_tree(&tree, &table, &dict).len()
        );

        let barrier = StackTrace::new(table.intern_path(&["_start", "main", "MPI_Barrier"]));
        let mut subtree = SubtreePrefixTree::new_subtree(200);
        for pos in 0..200 {
            subtree.add_trace(&barrier, pos);
        }
        assert_eq!(
            encoded_tree_size(&subtree, &table, &dict),
            encode_tree(&subtree, &table, &dict).len()
        );

        // Degenerate root-only tree (a quiescent wave's delta).
        let empty = GlobalPrefixTree::new_global(64);
        assert_eq!(
            encoded_tree_size(&empty, &table, &dict),
            encode_tree(&empty, &table, &dict).len()
        );

        // The filter path: re-encoding a decoded tree through its wire records.
        let bytes = encode_tree(&tree, &table, &dict);
        let (decoded, frames): (GlobalPrefixTree, WireFrames) = decode_tree(&bytes).unwrap();
        let merged_bytes = encode_merged_tree(&decoded, &frames);
        assert_eq!(
            encoded_merged_tree_size(&decoded, &frames),
            merged_bytes.len()
        );
        // Identical ids and records: the re-encoding is byte-identical.
        assert_eq!(merged_bytes, bytes);
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
        let poll_leaves = back
            .leaves()
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

    #[test]
    fn rank_map_round_trips() {
        let ranks = vec![0u64, 2, 1, 3, 1_000_000];
        let bytes = encode_rank_map(&ranks);
        assert_eq!(decode_rank_map(&bytes).unwrap(), ranks);
        assert!(matches!(
            decode_rank_map(&bytes[..2]).unwrap_err(),
            DecodeError::Truncated { .. }
        ));
        // Contiguous daemon blocks — the common case — cost ~1 byte per rank.
        let block: Vec<u64> = (1_000..1_128).collect();
        let compact = encode_rank_map(&block);
        assert!(compact.len() < 128 + 8, "got {} bytes", compact.len());
        assert_eq!(decode_rank_map(&compact).unwrap(), block);
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
