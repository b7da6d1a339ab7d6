//! Task-set representations: the heart of the Section V lesson.
//!
//! Every edge of STAT's call-graph prefix tree is labelled with the set of MPI tasks
//! whose stacks contain that edge.  How that set is *represented* decides whether the
//! tool scales:
//!
//! * The original STAT used a **global bit vector** ([`DenseBitVector`]): one bit per
//!   task of the whole job, on every edge, at every level of the tree.  At a million
//!   cores that is a megabit per edge, almost all of it zeros for any given daemon —
//!   "the tool unnecessarily tracks and sends many zero bits".
//!
//! * The optimised STAT uses a **hierarchical task list** ([`SubtreeTaskList`]): each
//!   analysis node only represents the tasks in its own subtree, children are merged
//!   by simple concatenation, and only the front end — after a final *remap* into MPI
//!   rank order — ever materialises a job-wide view.
//!
//! Both are the *same* word-packed set, [`TaskSet`]; what differs is what a position
//! means, and that is a type parameter: a [`Domain`] marker ([`JobWide`] or
//! [`SubtreeLocal`]) whose constants state, once, everything that follows from the
//! choice — the wire tag and set codec, whether a tree merge concatenates domains,
//! and how a merged tree reaches MPI rank order.  The prefix tree, the merge filter,
//! the wire format and the session strategy are generic over the set type
//! ([`TaskSetOps`]) and read those constants, so the benchmarks run the same
//! algorithm over either alias and measure the difference instead of asserting it.
//!
//! ## Word-level concatenation
//!
//! Since ISSUE 4 the hierarchical concatenation is a *word* operation, not a member
//! operation: [`TaskSetOps::union_shifted`] ORs the other set's packed words into
//! this one at a bit offset (two shifts and an OR per word), and
//! [`TaskSetOps::rebase`] re-embeds a set into a wider domain the same way.  Merging
//! two subtree trees therefore costs O(words), independent of how many members the
//! sets hold — at 208K tasks that is ~3,300 `u64`s per edge instead of 212,992
//! individual inserts.  [`TaskSetOps::iter_members`] walks members without
//! materialising a `Vec`, and [`SubtreeTaskList::remap_to_dense`] recognises the
//! contiguous runs a daemon-ordered rank map is made of and copies them word by
//! word.  `results/BENCH_merge.md` records what these rewrites bought.

use std::fmt;
use std::marker::PhantomData;

use crate::graph::{GlobalPrefixTree, PrefixTree};
use crate::serialize::{SetCodec, WireTaskSet};

/// Operations a task-set representation must support for prefix-tree merging.
pub trait TaskSetOps: Clone + fmt::Debug {
    /// Whether merging two trees labelled with this set appends the second tree's
    /// domain after the first's (the hierarchical representation) instead of
    /// unioning over one shared domain (the job-wide one).
    const CONCATENATES: bool;

    /// An empty set over a domain of `width` positions.
    fn empty(width: u64) -> Self;

    /// A singleton set.
    fn singleton(width: u64, index: u64) -> Self {
        let mut s = Self::empty(width);
        s.insert(index);
        s
    }

    /// Insert a position (a global MPI rank for the dense representation, a
    /// subtree-local position for the hierarchical one).
    fn insert(&mut self, index: u64);

    /// The domain width this set is defined over.
    fn width(&self) -> u64;

    /// Number of members.
    fn count(&self) -> u64;

    /// Whether a position is a member.
    fn contains(&self, index: u64) -> bool;

    /// Members in ascending order, without allocating.
    ///
    /// Every internal caller that used to call [`TaskSetOps::members`] and throw the
    /// `Vec` away walks this instead.
    fn iter_members(&self) -> MemberIter<'_>;

    /// Members in ascending order, collected into a `Vec` (for presentation-layer
    /// callers that genuinely need one).
    fn members(&self) -> Vec<u64> {
        self.iter_members().collect()
    }

    /// Union with another set over the same domain.
    fn union_in_place(&mut self, other: &Self);

    /// Remove `other`'s members from this set (set difference over the same
    /// domain) — one AND-NOT per word.  This is the delta computation of the
    /// streaming path: the bits a wave added are `wave & !previous`.
    fn subtract(&mut self, other: &Self);

    /// Whether the set has no members (O(words), no popcount accumulation).
    fn is_empty_set(&self) -> bool;

    /// OR `other`'s members into this set, shifted up by `offset` positions — the
    /// word-level concatenation step of the hierarchical merge (O(words), not
    /// O(members)).  Requires `offset + other.width() <= self.width()`.  The dense
    /// representation never changes domain, so it only accepts `offset == 0`, where
    /// this is a plain union.
    fn union_shifted(&mut self, other: &Self, offset: u64);

    /// Re-embed this set into a wider domain, shifting every member by `offset`.
    /// This is the concatenation step of the hierarchical merge, done at word level:
    /// `offset == 0` is an in-place widen (no per-member work at all), any other
    /// offset is a shifted word copy.  The dense representation never changes
    /// domain, so its implementation only checks that the call is the identity.
    fn rebase(&mut self, offset: u64, new_width: u64);
}

/// Allocation-free iterator over the members of a packed-word task set, ascending.
///
/// The length is exact (a popcount taken at construction), so `collect::<Vec<_>>()`
/// — the default [`TaskSetOps::members`] — allocates once.
#[derive(Clone, Debug)]
pub struct MemberIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
    remaining: usize,
}

impl<'a> MemberIter<'a> {
    fn new(words: &'a [u64]) -> Self {
        MemberIter {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
            // stat-analyzer: allow(truncating-cast) — count_ones of a u64 is at most 64
            remaining: words.iter().map(|w| w.count_ones() as usize).sum(),
        }
    }
}

impl Iterator for MemberIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while self.current == 0 {
            self.word_idx += 1;
            self.current = *self.words.get(self.word_idx)?;
        }
        let bit = self.current.trailing_zeros() as u64;
        self.current &= self.current - 1;
        self.remaining -= 1;
        Some(self.word_idx as u64 * 64 + bit)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl ExactSizeIterator for MemberIter<'_> {}

// ---------------------------------------------------------------------------------
// Word-level machinery
// ---------------------------------------------------------------------------------

pub(crate) fn words_for(width: u64) -> usize {
    // stat-analyzer: allow(truncating-cast) — a domain whose words fit in memory has ≤ usize::MAX words; wider domains fail at Vec allocation, not silently
    width.div_ceil(64) as usize
}

/// Word index of a bit position.  The one audited `u64`→`usize` cast for word
/// indexing: any position that can address an in-memory `Vec<u64>` of words
/// satisfies `bit / 64 < words.len()`, and `words.len()` is a `usize`.
fn word_of(bit: u64) -> usize {
    // stat-analyzer: allow(truncating-cast) — quotient is bounded by the word vector's usize length
    (bit / 64) as usize
}

/// Offset of a bit position within its word — always `< 64`.
fn bit_of(bit: u64) -> u32 {
    // stat-analyzer: allow(truncating-cast) — a remainder mod 64 fits any integer type
    (bit % 64) as u32
}

/// Zero any bits at or above `width` in the last word, so a malformed packet can
/// never corrupt `count`/`members`.
fn mask_stray_bits(width: u64, words: &mut [u64]) {
    let used = bit_of(width);
    if used != 0 {
        if let Some(last) = words.last_mut() {
            *last &= (1u64 << used) - 1;
        }
    }
}

/// OR `src`'s words into `dst` at a bit offset: two shifts and an OR per word.
/// Requires `dst` to be wide enough for every set bit of `src` shifted by `offset`
/// (the set methods assert the domain arithmetic, the wire merge sizes its rows
/// to the sum of the widths; `src` carries no stray bits above its width).
// stat-analyzer: allow(hot-path-panic, fn) — every caller keeps offset + src domain ≤ dst domain, so word_off + src.len() ≤ dst.len()
pub(crate) fn or_shifted(dst: &mut [u64], src: &[u64], offset: u64) {
    let word_off = word_of(offset);
    let bit_off = bit_of(offset);
    if bit_off == 0 {
        for (d, &s) in dst[word_off..].iter_mut().zip(src.iter()) {
            *d |= s;
        }
    } else {
        for (i, &s) in src.iter().enumerate() {
            dst[word_off + i] |= s << bit_off;
            let carry = s >> (64 - bit_off);
            if carry != 0 {
                dst[word_off + i + 1] |= carry;
            }
        }
    }
}

// ---------------------------------------------------------------------------------
// The domain: what a position means, and everything that follows from it
// ---------------------------------------------------------------------------------

mod sealed {
    /// Seals [`super::Domain`]: the two representations are this crate's to define.
    pub trait Sealed {}
}

/// What the positions of a [`TaskSet`] mean.  The Section V choice is made by
/// picking one of the two implementors as the set's type parameter; every other
/// layer reads the consequences from here.
pub trait Domain: sealed::Sealed + Copy + fmt::Debug + Eq + Send + Sync + 'static {
    /// Name of the set type over this domain, for `Debug` output.
    const NAME: &'static str;
    /// Representation tag in the wire header.
    const TAG: u8;
    /// How a set over this domain is laid out on the wire.
    const CODEC: SetCodec;
    /// Whether merging two trees concatenates their domains (see
    /// [`TaskSetOps::CONCATENATES`]); such a representation ships a rank map and
    /// needs [`Self::rank_ordered`] to do real work at the front end.
    const CONCATENATES: bool;

    /// Bring a fully merged tree into MPI rank order.  `position_to_rank` is the
    /// concatenated, validated rank map (unused when positions already are ranks).
    fn rank_ordered(
        tree: PrefixTree<TaskSet<Self>>,
        position_to_rank: &[u64],
        total_tasks: u64,
    ) -> GlobalPrefixTree;
}

/// Positions are MPI ranks of the whole job (the original representation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JobWide;

/// Positions are local to the subtree of the overlay that produced the set (the
/// optimised representation).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SubtreeLocal;

impl sealed::Sealed for JobWide {}
impl sealed::Sealed for SubtreeLocal {}

impl Domain for JobWide {
    const NAME: &'static str = "DenseBitVector";
    const TAG: u8 = 0;
    const CODEC: SetCodec = SetCodec::VarintWords;
    const CONCATENATES: bool = false;

    fn rank_ordered(tree: GlobalPrefixTree, _: &[u64], _: u64) -> GlobalPrefixTree {
        tree
    }
}

impl Domain for SubtreeLocal {
    const NAME: &'static str = "SubtreeTaskList";
    const TAG: u8 = 1;
    const CODEC: SetCodec = SetCodec::RunLength;
    const CONCATENATES: bool = true;

    fn rank_ordered(
        tree: PrefixTree<SubtreeTaskList>,
        position_to_rank: &[u64],
        total_tasks: u64,
    ) -> GlobalPrefixTree {
        tree.remap(position_to_rank, total_tasks)
    }
}

// ---------------------------------------------------------------------------------
// The one word-packed set body
// ---------------------------------------------------------------------------------

/// A set of task positions packed into `u64` words over a domain of `width`
/// positions.  Both representations keep bit vectors (the paper's optimised one
/// too, just narrow ones); `D` says what the positions mean.
#[derive(PartialEq, Eq)]
pub struct TaskSet<D: Domain> {
    width: u64,
    words: Vec<u64>,
    domain: PhantomData<D>,
}

/// A fixed-width bit vector sized for the entire job.
pub type DenseBitVector = TaskSet<JobWide>;

/// A task set that only describes positions within its own subtree, which makes
/// concatenation an offset plus a bitmap append and keeps the serialised size
/// proportional to the subtree.
pub type SubtreeTaskList = TaskSet<SubtreeLocal>;

impl<D: Domain> Clone for TaskSet<D> {
    fn clone(&self) -> Self {
        TaskSet {
            width: self.width,
            words: self.words.clone(),
            domain: PhantomData,
        }
    }

    /// Reuses this set's word buffer (the derive would reallocate), so a scratch
    /// set can be reloaded once per tree node without touching the allocator.
    fn clone_from(&mut self, source: &Self) {
        self.width = source.width;
        self.words.clone_from(&source.words);
    }
}

impl<D: Domain> WireTaskSet for TaskSet<D> {
    const TAG: u8 = D::TAG;
    const CODEC: SetCodec = D::CODEC;

    fn words(&self) -> &[u64] {
        &self.words
    }

    fn from_words(width: u64, mut words: Vec<u64>) -> Self {
        assert!(
            words.len() <= words_for(width),
            "{} words is more than a {width}-position domain can hold",
            words.len()
        );
        words.resize(words_for(width), 0);
        mask_stray_bits(width, &mut words);
        TaskSet {
            width,
            words,
            domain: PhantomData,
        }
    }
}

impl<D: Domain> TaskSet<D> {
    fn assert_same_domain(&self, other: &Self, operation: &str) {
        assert_eq!(
            self.width, other.width,
            "task sets must be rebased to a common domain before {operation}"
        );
    }
}

impl<D: Domain> TaskSetOps for TaskSet<D> {
    const CONCATENATES: bool = D::CONCATENATES;

    fn empty(width: u64) -> Self {
        TaskSet {
            width,
            words: vec![0; words_for(width)],
            domain: PhantomData,
        }
    }

    fn insert(&mut self, index: u64) {
        assert!(
            index < self.width,
            "position {index} out of range for a {}-position domain",
            self.width
        );
        if let Some(w) = self.words.get_mut(word_of(index)) {
            *w |= 1u64 << bit_of(index);
        }
    }

    fn width(&self) -> u64 {
        self.width
    }

    fn count(&self) -> u64 {
        self.words.iter().map(|w| w.count_ones() as u64).sum()
    }

    fn contains(&self, index: u64) -> bool {
        let word = self.words.get(word_of(index));
        index < self.width && word.is_some_and(|w| w & (1u64 << bit_of(index)) != 0)
    }

    fn iter_members(&self) -> MemberIter<'_> {
        MemberIter::new(&self.words)
    }

    fn union_in_place(&mut self, other: &Self) {
        self.assert_same_domain(other, "union");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a |= *b;
        }
    }

    fn subtract(&mut self, other: &Self) {
        self.assert_same_domain(other, "subtract");
        for (a, b) in self.words.iter_mut().zip(other.words.iter()) {
            *a &= !*b;
        }
    }

    fn is_empty_set(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    fn union_shifted(&mut self, other: &Self, offset: u64) {
        if !D::CONCATENATES {
            // A job-wide domain is the whole job; a shifted union only makes sense
            // at offset zero, where it is a plain union.
            assert_eq!(offset, 0, "job-wide sets are never offset");
            return self.union_in_place(other);
        }
        assert!(
            offset + other.width <= self.width,
            "shifted union would push positions past this domain"
        );
        or_shifted(&mut self.words, &other.words, offset);
    }

    fn rebase(&mut self, offset: u64, new_width: u64) {
        if !D::CONCATENATES {
            // The whole point of the job-wide representation is that the domain
            // never changes: every node in the tree uses the job-wide width.
            assert_eq!(offset, 0, "job-wide sets are never offset");
            assert_eq!(new_width, self.width, "job-wide sets are already job-wide");
            return;
        }
        assert!(
            offset + self.width <= new_width,
            "rebase would push positions past the new domain"
        );
        if offset == 0 {
            // In-place widen: the existing words already sit at the right
            // positions, the domain just grows (amortised by Vec's growth policy —
            // this is what the accumulated tree pays on every hierarchical merge).
            self.words.resize(words_for(new_width), 0);
        } else if offset.is_multiple_of(64) {
            // Word-aligned shift: move the words up in place, zero the gap.
            let word_off = word_of(offset);
            let old_len = self.words.len();
            self.words.resize(words_for(new_width), 0);
            self.words.copy_within(0..old_len, word_off);
            if let Some(gap) = self.words.get_mut(..word_off.min(old_len)) {
                gap.fill(0);
            }
        } else {
            let mut words = vec![0u64; words_for(new_width)];
            or_shifted(&mut words, &self.words, offset);
            self.words = words;
        }
        self.width = new_width;
    }
}

impl<D: Domain> fmt::Debug for TaskSet<D> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({}/{})", D::NAME, self.count(), self.width)
    }
}

impl SubtreeTaskList {
    /// Remap this subtree-local set into a job-wide dense bit vector, given the
    /// position→rank map collected at setup time.  This is the front end's remap
    /// step; its cost is reported alongside Figure 7 (0.66 s at 208K in the paper).
    ///
    /// A rank map is a concatenation of per-daemon rank lists, and daemons own
    /// contiguous rank blocks, so the map is mostly made of ascending runs: whenever
    /// a fully populated word of this set covers one, the 64 members are copied as
    /// one shifted word OR instead of 64 scattered inserts.  Arbitrary maps still
    /// work, member by member.
    pub fn remap_to_dense(&self, position_to_rank: &[u64], total_tasks: u64) -> DenseBitVector {
        assert!(
            position_to_rank.len() as u64 >= self.width,
            "position→rank map must cover every subtree position"
        );
        let mut dense = DenseBitVector::empty(total_tasks);
        for (wi, &word) in self.words.iter().enumerate() {
            if word == 0 {
                continue;
            }
            let base = wi as u64 * 64;
            if word == u64::MAX {
                // Whole word populated: check whether the map carries this block as
                // one ascending run (a single vectorisable scan of 64 entries).
                let seg = usize::try_from(base).ok().and_then(|b| {
                    let end = b.checked_add(64)?;
                    position_to_rank.get(b..end)
                });
                if let Some((&start, seg)) = seg.and_then(|seg| seg.split_first()) {
                    if start + 64 <= total_tasks
                        && seg
                            .iter()
                            .enumerate()
                            .all(|(i, &rank)| rank == start + 1 + i as u64)
                    {
                        or_shifted(&mut dense.words, std::slice::from_ref(&u64::MAX), start);
                        continue;
                    }
                }
            }
            let mut w = word;
            while w != 0 {
                let bit = w.trailing_zeros() as u64;
                w &= w - 1;
                let rank = usize::try_from(base + bit)
                    .ok()
                    .and_then(|p| position_to_rank.get(p));
                if let Some(&rank) = rank {
                    dense.insert(rank);
                }
            }
        }
        dense
    }
}

// ---------------------------------------------------------------------------------
// Rank-range formatting (the "1022:[0,3-1023]" labels of Figure 1)
// ---------------------------------------------------------------------------------

/// Format ascending ranks the way STAT's visualisation does: `count:[a,b-c,...]`,
/// truncated with `...` past `max_ranges` ranges (Figure 1 truncates long lists).
///
/// Takes any ascending iterator — a class's `tasks` or a label's
/// [`TaskSetOps::iter_members`] — counts as it goes and keeps at most
/// `max_ranges + 1` ranges, so labelling a million-member edge allocates a few
/// pairs, not an 8 MB member list.
pub fn format_rank_ranges(ranks: impl IntoIterator<Item = u64>, max_ranges: usize) -> String {
    let mut count = 0usize;
    let mut ranges: Vec<(u64, u64)> = Vec::new();
    for r in ranks {
        count += 1;
        // One range past the limit is enough to know the list was truncated.
        let room = ranges.len() <= max_ranges;
        match ranges.last_mut() {
            Some((_, end)) if *end + 1 == r => *end = r,
            _ if room => ranges.push((r, r)),
            _ => {}
        }
    }
    let mut shown: Vec<String> = ranges
        .iter()
        .take(max_ranges)
        .map(|(a, b)| {
            if a == b {
                a.to_string()
            } else {
                format!("{a}-{b}")
            }
        })
        .collect();
    if ranges.len() > max_ranges {
        shown.push("...".to_string());
    }
    format!("{count}:[{}]", shown.join(","))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_basic_ops<S: TaskSetOps>(width: u64) {
        let mut s = S::empty(width);
        assert_eq!(s.count(), 0);
        assert_eq!(s.width(), width);
        s.insert(0);
        s.insert(width - 1);
        s.insert(width / 2);
        assert_eq!(s.count(), 3);
        assert!(s.contains(0));
        assert!(s.contains(width - 1));
        assert!(!s.contains(1));
        assert_eq!(s.members(), vec![0, width / 2, width - 1]);
        let single = S::singleton(width, 5);
        assert_eq!(single.count(), 1);
        assert!(single.contains(5));
    }

    #[test]
    fn dense_and_hierarchical_share_basic_behaviour() {
        check_basic_ops::<DenseBitVector>(1_000);
        check_basic_ops::<SubtreeTaskList>(1_000);
        check_basic_ops::<DenseBitVector>(64);
        check_basic_ops::<SubtreeTaskList>(65);
    }

    #[test]
    fn dense_union_is_bitwise_or() {
        let mut a = DenseBitVector::empty(256);
        a.insert(1);
        a.insert(100);
        let mut b = DenseBitVector::empty(256);
        b.insert(100);
        b.insert(255);
        a.union_in_place(&b);
        assert_eq!(a.members(), vec![1, 100, 255]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn dense_rejects_out_of_range_ranks() {
        let mut a = DenseBitVector::empty(10);
        a.insert(10);
    }

    #[test]
    fn rebase_concatenates_domains() {
        // Daemon 0 saw its local tasks {0, 2}; daemon 1 saw {1}.  After the merge the
        // combined subtree has 4 positions: daemon 0's two, then daemon 1's two.
        let mut a = SubtreeTaskList::empty(2);
        a.insert(0);
        a.insert(1);
        let mut b = SubtreeTaskList::empty(2);
        b.insert(1);
        a.rebase(0, 4);
        let mut b2 = b.clone();
        b2.rebase(2, 4);
        a.union_in_place(&b2);
        assert_eq!(a.members(), vec![0, 1, 3]);
        assert_eq!(a.width(), 4);
    }

    #[test]
    #[should_panic(expected = "rebase would push positions past")]
    fn rebase_rejects_overflowing_offsets() {
        let mut a = SubtreeTaskList::empty(8);
        a.insert(0);
        a.rebase(5, 10);
    }

    #[test]
    fn dense_rebase_is_identity_only() {
        let mut a = DenseBitVector::empty(100);
        a.insert(3);
        a.rebase(0, 100); // fine
        assert!(a.contains(3));
    }

    #[test]
    #[should_panic(expected = "never offset")]
    fn dense_rebase_with_offset_panics() {
        let mut a = DenseBitVector::empty(100);
        a.rebase(10, 110);
    }

    #[test]
    fn remap_restores_mpi_rank_order() {
        // Figure 6's example: daemon 0 debugs tasks {0, 2}, daemon 1 debugs {1, 3}.
        // Positions after concatenation are [d0t0, d0t1, d1t0, d1t1] = ranks [0,2,1,3].
        let position_to_rank = vec![0u64, 2, 1, 3];
        let mut set = SubtreeTaskList::empty(4);
        set.insert(1); // daemon 0's second task  -> rank 2
        set.insert(2); // daemon 1's first task   -> rank 1
        let dense = set.remap_to_dense(&position_to_rank, 4);
        assert_eq!(dense.members(), vec![1, 2]);
        assert_eq!(dense.width(), 4);
    }

    #[test]
    fn word_round_trip() {
        let mut d = DenseBitVector::empty(130);
        d.insert(0);
        d.insert(64);
        d.insert(129);
        let back = DenseBitVector::from_words(130, d.words().to_vec());
        assert_eq!(back.members(), d.members());

        let mut s = SubtreeTaskList::empty(70);
        s.insert(69);
        let back = SubtreeTaskList::from_words(70, s.words().to_vec());
        assert_eq!(back.members(), vec![69]);
    }

    #[test]
    fn from_words_masks_stray_bits_above_the_width() {
        // A malformed packet can carry garbage bits above `width` in the last word;
        // they must not leak into count/members/contains.
        let stray = u64::MAX; // bits 6..64 are out of range for width 70's last word
        let d = DenseBitVector::from_words(70, vec![0, stray]);
        assert_eq!(d.count(), 6);
        assert_eq!(d.members(), vec![64, 65, 66, 67, 68, 69]);
        assert!(!d.contains(70));

        let s = SubtreeTaskList::from_words(70, vec![0, stray]);
        assert_eq!(s.count(), 6);
        assert_eq!(s.members(), vec![64, 65, 66, 67, 68, 69]);

        // A width that is an exact word multiple has no stray region.
        let d = DenseBitVector::from_words(128, vec![u64::MAX, u64::MAX]);
        assert_eq!(d.count(), 128);
    }

    #[test]
    #[should_panic(expected = "more than a 70-position domain can hold")]
    fn dense_from_words_rejects_oversized_word_vectors() {
        DenseBitVector::from_words(70, vec![1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "more than a 100-position domain can hold")]
    fn subtree_from_words_rejects_oversized_word_vectors() {
        SubtreeTaskList::from_words(100, vec![0; 3]);
    }

    #[test]
    fn union_shifted_matches_rebase_then_union() {
        for (local_a, local_b, offset_extra) in [(2u64, 2u64, 0u64), (70, 130, 0), (64, 65, 3)] {
            let mut a = SubtreeTaskList::empty(local_a);
            for i in (0..local_a).step_by(3) {
                a.insert(i);
            }
            let mut b = SubtreeTaskList::empty(local_b);
            for i in (0..local_b).step_by(2) {
                b.insert(i);
            }
            let new_width = local_a + offset_extra + local_b;

            // The member-by-member reference result.
            let mut expected = SubtreeTaskList::empty(new_width);
            for m in a.members() {
                expected.insert(m);
            }
            for m in b.members() {
                expected.insert(m + local_a + offset_extra);
            }

            let mut got = a.clone();
            got.rebase(0, new_width);
            got.union_shifted(&b, local_a + offset_extra);
            assert_eq!(
                got.members(),
                expected.members(),
                "offsets {local_a}+{offset_extra}"
            );
            assert_eq!(got.width(), new_width);
        }
    }

    #[test]
    #[should_panic(expected = "shifted union would push positions past")]
    fn union_shifted_rejects_overflowing_offsets() {
        let mut a = SubtreeTaskList::empty(8);
        let b = SubtreeTaskList::empty(8);
        a.union_shifted(&b, 1);
    }

    #[test]
    fn dense_union_shifted_is_union_at_offset_zero_only() {
        let mut a = DenseBitVector::empty(100);
        a.insert(1);
        let mut b = DenseBitVector::empty(100);
        b.insert(2);
        a.union_shifted(&b, 0);
        assert_eq!(a.members(), vec![1, 2]);
    }

    #[test]
    fn iter_members_agrees_with_members_without_allocating() {
        let mut s = SubtreeTaskList::empty(300);
        for i in [0u64, 63, 64, 127, 128, 255, 299] {
            s.insert(i);
        }
        let walked: Vec<u64> = s.iter_members().collect();
        assert_eq!(walked, s.members());
        assert_eq!(SubtreeTaskList::empty(0).iter_members().next(), None);
        assert_eq!(DenseBitVector::empty(64).iter_members().next(), None);
    }

    #[test]
    fn word_aligned_and_unaligned_rebase_agree() {
        for offset in [0u64, 1, 63, 64, 65, 128, 200] {
            let mut s = SubtreeTaskList::empty(130);
            for i in [0u64, 1, 64, 129] {
                s.insert(i);
            }
            let before = s.members();
            s.rebase(offset, 130 + offset);
            let after = s.members();
            assert_eq!(after.len(), before.len(), "offset {offset}");
            for (b, a) in before.iter().zip(after.iter()) {
                assert_eq!(b + offset, *a, "offset {offset}");
            }
        }
    }

    #[test]
    fn remap_handles_blocked_and_scattered_maps_identically() {
        // 256 positions in 4 daemon blocks of 64; daemon blocks reversed in rank
        // space (every block is an ascending run — the fast path), plus a fully
        // scattered map (the slow path).  Both must agree with per-member remap.
        let blocked: Vec<u64> = (0..256u64).map(|p| (3 - p / 64) * 64 + p % 64).collect();
        let scattered: Vec<u64> = (0..256u64).map(|p| (p * 37 + 11) % 256).collect();
        for map in [blocked, scattered] {
            let mut set = SubtreeTaskList::empty(256);
            for i in 0..256u64 {
                if i % 5 != 0 || i < 128 {
                    set.insert(i);
                }
            }
            let dense = set.remap_to_dense(&map, 256);
            let mut expected = DenseBitVector::empty(256);
            for m in set.members() {
                expected.insert(map[m as usize]);
            }
            assert_eq!(dense.members(), expected.members());
        }
    }

    #[test]
    fn subtract_is_per_word_and_not() {
        fn check<S: TaskSetOps>() {
            let mut a = S::empty(200);
            for i in [0u64, 63, 64, 65, 128, 199] {
                a.insert(i);
            }
            let mut b = S::empty(200);
            for i in [63u64, 65, 199, 100] {
                b.insert(i);
            }
            a.subtract(&b);
            assert_eq!(a.members(), vec![0, 64, 128]);
            assert!(!a.is_empty_set());
            let clone = a.clone();
            a.subtract(&clone);
            assert!(a.is_empty_set());
            assert!(S::empty(200).is_empty_set());
        }
        check::<DenseBitVector>();
        check::<SubtreeTaskList>();
    }

    #[test]
    #[should_panic(expected = "common domain before subtract")]
    fn subtree_subtract_rejects_mismatched_domains() {
        let mut a = SubtreeTaskList::empty(8);
        a.subtract(&SubtreeTaskList::empty(9));
    }

    #[test]
    fn rank_range_formatting_matches_figure_1_style() {
        let ranks: Vec<u64> = std::iter::once(0).chain(3..=1023).collect();
        assert_eq!(format_rank_ranges(ranks, 10), "1022:[0,3-1023]");
        assert_eq!(format_rank_ranges([1], 10), "1:[1]");
        assert_eq!(format_rank_ranges([], 10), "0:[]");
        // Truncation with an ellipsis, as in the figure's long labels.
        let scattered: Vec<u64> = (0..20).map(|i| i * 2).collect();
        let label = format_rank_ranges(scattered, 4);
        assert!(label.starts_with("20:["));
        assert!(label.ends_with(",...]"));
    }
}
