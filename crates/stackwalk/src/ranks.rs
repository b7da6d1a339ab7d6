//! Sets of tasks by rank, held in whichever of two forms is smaller.
//!
//! A [`RankSet`] is what a behaviour class holds: the tasks that share one call
//! path.  One class of a million-task job may hold nearly every task (the
//! healthy crowd) and the next a single one (the hung rank), and a job may split
//! into a class per rank.  Bits packed into words cost `rank / 64 + 1` words
//! whatever the class's size; a list of ranks costs one word per member.  A set
//! built from words keeps the cheaper of the two, so a class costs
//! `min(members, words)` words: never more than its members listed, and never
//! more than one job-wide bitmap.

use std::fmt;

/// A set of ranks: bits of `words` for the ranks below `64 × words.len()`, and
/// the ranks at or past that reach listed ascending in `listed`.
/// [`RankSet::from_words`] keeps a sparse set as the list alone, a set collected
/// from ranks is listed, and [`RankSet::union_of`] sets bits only as far as
/// they are cheaper than the list, so no rank, however large, grows the words.
/// Two sets are equal when they hold the same ranks, whatever their forms.
#[derive(Clone, Default)]
pub struct RankSet {
    words: Vec<u64>,
    listed: Vec<u64>,
    /// How many ranks the set holds, counted once as it is built.
    len: u64,
}

impl RankSet {
    /// The set whose bit `r % 64` of word `r / 64` says whether it holds rank
    /// `r`, kept as words or as a list, whichever takes fewer words.  (Inlined
    /// so that the caller's crate compiles its word loops: one call a class.)
    #[inline]
    pub fn from_words(words: &[u64]) -> Self {
        let reach = words.len() - words.iter().rev().take_while(|&&w| w == 0).count();
        let words = &words[..reach];
        let members: usize = words.iter().map(|w| w.count_ones() as usize).sum();
        if members < reach {
            let mut listed = Vec::with_capacity(members);
            for (i, &word) in words.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    listed.push(64 * i as u64 + u64::from(rest.trailing_zeros()));
                    rest &= rest - 1;
                }
            }
            RankSet {
                words: Vec::new(),
                listed,
                len: members as u64,
            }
        } else {
            RankSet {
                words: words.to_vec(),
                listed: Vec::new(),
                len: members as u64,
            }
        }
    }

    /// The union of `sets`: their words ORed, and their listed ranks set as
    /// bits too when that takes no more words than listing them (else listed,
    /// sorted and deduplicated, past the longest set's words).  The cost is the
    /// sets' words and listed ranks, not a bitmap of every rank they could hold.
    pub fn union_of<'a, I>(sets: I) -> RankSet
    where
        I: IntoIterator<Item = &'a RankSet>,
        I::IntoIter: Clone,
    {
        let sets = sets.into_iter();
        let (mut reach, mut listed, mut top) = (0, 0, None);
        for set in sets.clone() {
            reach = reach.max(set.words.len());
            listed += set.listed.len();
            top = top.max(set.listed.last().copied());
        }
        if let Some(top) = top.filter(|&top| top / 64 < listed as u64) {
            reach = reach.max((top / 64) as usize + 1);
        }
        let mut union = RankSet {
            words: vec![0; reach],
            ..RankSet::default()
        };
        for set in sets {
            let words = union.words.iter_mut().zip(&set.words);
            words.for_each(|(a, b)| *a |= b);
            for &rank in &set.listed {
                match union.words.get_mut((rank / 64) as usize) {
                    Some(word) => *word |= 1 << (rank % 64),
                    None => union.listed.push(rank),
                }
            }
        }
        union.listed.sort_unstable();
        union.listed.dedup();
        let bits: u64 = union.words.iter().map(|w| u64::from(w.count_ones())).sum();
        union.len = bits + union.listed.len() as u64;
        union
    }

    /// Whether the set holds `rank`.
    pub fn contains(&self, rank: u64) -> bool {
        match self.words.get((rank / 64) as usize) {
            Some(word) => word >> (rank % 64) & 1 == 1,
            None => self.listed.binary_search(&rank).is_ok(),
        }
    }

    /// How many ranks the set holds.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the set holds no rank.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The largest rank the set holds.
    pub fn last(&self) -> Option<u64> {
        let top = || {
            let (i, w) = self.words.iter().enumerate().rfind(|(_, &w)| w != 0)?;
            Some(64 * i as u64 + 63 - u64::from(w.leading_zeros()))
        };
        self.listed.last().copied().or_else(top)
    }

    /// The ranks, ascending.
    pub fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        RankSet::bits(&self.words).chain(self.listed.iter().copied())
    }

    /// The set bits of `words`, ascending.
    fn bits(words: &[u64]) -> impl Iterator<Item = u64> + '_ {
        words.iter().enumerate().flat_map(|(i, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                let bit = 64 * i as u64 + u64::from(rest.trailing_zeros());
                (rest != 0).then(|| (rest &= rest - 1, bit).1)
            })
        })
    }
}

impl PartialEq for RankSet {
    fn eq(&self, other: &RankSet) -> bool {
        let trim = |w: &[u64]| w.len() - w.iter().rev().take_while(|&&w| w == 0).count();
        let (a, b) = (&self.words, &other.words);
        if self.len != other.len {
            return false;
        }
        if self.listed.is_empty() && other.listed.is_empty() {
            return a[..trim(a)] == b[..trim(b)];
        }
        self.iter().eq(other.iter())
    }
}

impl Eq for RankSet {}

impl fmt::Debug for RankSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// The ranks listed, sorted and deduplicated.
impl FromIterator<u64> for RankSet {
    fn from_iter<I: IntoIterator<Item = u64>>(ranks: I) -> Self {
        let mut listed: Vec<u64> = ranks.into_iter().collect();
        listed.sort_unstable();
        listed.dedup();
        RankSet {
            len: listed.len() as u64,
            words: Vec::new(),
            listed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_set_keeps_the_smaller_form_of_its_words() {
        // One rank in the fourth word: listed, not four words.
        let sparse = RankSet::from_words(&[0, 0, 0, 1 << 5, 0]);
        assert_eq!((sparse.words.len(), sparse.listed.clone()), (0, vec![197]));
        // A word's worth of ranks or more: the words, trailing zeros dropped.
        let dense = RankSet::from_words(&[u64::MAX, 1, 0, 0]);
        assert_eq!((dense.words.len(), dense.listed.len()), (2, 0));
        assert_eq!(dense.len(), 65);
        assert_eq!(RankSet::from_words(&[0; 8]), RankSet::default());
        assert!(RankSet::from_words(&[]).is_empty());
    }

    #[test]
    fn sets_compare_by_membership_whatever_their_forms() {
        let set: RankSet = [130, 3, 64, 3].into_iter().collect();
        assert_eq!(set.iter().collect::<Vec<_>>(), [3, 64, 130]);
        assert_eq!(
            (set.len(), set.is_empty(), set.last()),
            (3, false, Some(130))
        );
        assert!(set.contains(64) && !set.contains(65) && !set.contains(1 << 40));
        let words = RankSet::from_words(&[1 << 3 | 1, 1, 1 << 2, 0]);
        assert_eq!(words.words.len(), 3);
        assert_ne!(words, set);
        assert_eq!(RankSet::from_words(&[1 << 3, 1, 1 << 2, 0]), set);
        assert_eq!(format!("{set:?}"), "{3, 64, 130}");
        assert!(RankSet::from_words(&[0; 16]).is_empty());
    }

    #[test]
    fn a_rank_past_the_words_is_listed_however_large() {
        let far: RankSet = [u64::MAX, 7, 1 << 40, u64::MAX].into_iter().collect();
        assert_eq!(
            (far.words.len(), far.listed.clone()),
            (0, vec![7, 1 << 40, u64::MAX])
        );
        assert_eq!((far.len(), far.last()), (3, Some(u64::MAX)));
        assert!(far.contains(u64::MAX) && !far.contains(u64::MAX - 1));
        // A union with a word's worth of ranks sets 7 as a bit and lists the rest.
        let union = RankSet::union_of([&RankSet::from_words(&[u64::MAX]), &far]);
        assert_eq!((union.words.len(), union.listed.len()), (1, 2));
        let ranks: Vec<u64> = (0..64).chain([1 << 40, u64::MAX]).collect();
        assert_eq!(union.iter().collect::<Vec<_>>(), ranks);
        assert_eq!((union.len(), union.last()), (66, Some(u64::MAX)));
        assert_eq!(union, ranks.into_iter().collect());
    }

    #[test]
    fn a_union_ors_words_and_sets_a_list_as_bits_only_when_cheaper() {
        let ranks = |set: &RankSet| set.iter().collect::<Vec<_>>();
        let crowd = RankSet::from_words(&[u64::MAX, u64::MAX]);
        let listed: RankSet = [5, 70, 300].into_iter().collect();
        let union = RankSet::union_of([&listed, &crowd, &[1_000, 70].into_iter().collect()]);
        // 300 and 1,000 lie past the crowd's two words and are too few for 16 more.
        assert_eq!(
            (union.words.len(), union.listed.clone()),
            (2, vec![300, 1_000])
        );
        let expected: Vec<u64> = (0..128).chain([300, 1_000]).collect();
        assert_eq!((ranks(&union), union.len()), (expected.clone(), 130));
        assert_eq!(union, expected.into_iter().collect());
        // 128 ranks in 3 words, listed and interleaved: bits.
        let (even, odd): (RankSet, RankSet) = (
            (0..64).map(|r| 2 * r).collect(),
            (0..64).map(|r| 2 * r + 65).collect(),
        );
        let both = RankSet::union_of([&even, &odd]);
        assert_eq!(
            (both.words.len(), both.listed.len(), both.len()),
            (3, 0, 128)
        );
        assert_eq!(
            ranks(&both),
            [ranks(&even), ranks(&odd)]
                .concat()
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
        // A far rank stays listed; no set at all is the empty set.
        let far = RankSet::union_of([&listed, &[u64::MAX].into_iter().collect()]);
        assert_eq!((far.words.len(), far.last()), (0, Some(u64::MAX)));
        assert_eq!(RankSet::union_of([]), RankSet::default());
    }
}
