//! Interned stack frames.
//!
//! A 208K-task job produces millions of individual stack frames, but only a few dozen
//! *distinct* function names (the ring test's traces in Figure 1 contain about twenty).
//! Interning the names once and passing 4-byte [`FrameId`]s everywhere keeps traces,
//! prefix-tree nodes and serialised packets small — the same reasoning that leads the
//! paper to compress task sets rather than ship raw representations around.

use std::collections::HashMap;
use std::sync::Arc;

/// An interned function-name identifier, valid within one [`FrameTable`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FrameId(pub u32);

/// A bidirectional map between function names and [`FrameId`]s: a shared,
/// read-only *base* plus a local *overflow*.
///
/// The base is a session's negotiated frame names (see
/// [`FrameDictionary::table`](crate::FrameDictionary::table)); every table over
/// it shares the one name slice and index, so a daemon never allocates a name the
/// front end already negotiated.  Ids below the base length are the base's own;
/// a name outside the base gets the next local id past it.  [`FrameTable::new`]
/// is a table over the empty base.  The table is append-only: ids are stable for
/// the lifetime of the table, so traces and prefix trees can hold bare ids without
/// lifetimes.
#[derive(Clone, Debug, Default)]
pub struct FrameTable {
    /// Held inline, so that [`FrameTable::name`] of a base id is one load deep.
    base: Arc<[Box<str>]>,
    base_index: Arc<HashMap<Box<str>, FrameId>>,
    names: Vec<String>,
    index: HashMap<String, FrameId>,
}

impl FrameTable {
    /// An empty table over the empty base.
    pub fn new() -> Self {
        FrameTable::default()
    }

    /// An empty table over a fresh base of `names` in order, duplicates
    /// collapsing onto their first occurrence.
    pub(crate) fn with_base<'a>(names: impl IntoIterator<Item = &'a str>) -> Self {
        let mut base = Vec::new();
        let mut base_index = HashMap::new();
        for name in names {
            base_index.entry(Box::from(name)).or_insert_with(|| {
                base.push(Box::from(name));
                FrameId(u32::try_from(base.len() - 1).unwrap_or(u32::MAX))
            });
        }
        FrameTable {
            base: base.into(),
            base_index: Arc::new(base_index),
            ..FrameTable::default()
        }
    }

    /// True when both tables are over the same base (not merely equal names), so
    /// that their ids below the base's length name the same frames.
    pub(crate) fn shares_base(&self, other: &FrameTable) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// Intern a function name, returning its stable id.
    pub fn intern(&mut self, name: &str) -> FrameId {
        if let Some(id) = self.lookup(name) {
            return id;
        }
        let id = FrameId(u32::try_from(self.len()).unwrap_or(u32::MAX));
        self.names.push(name.to_string());
        self.index.insert(name.to_string(), id);
        id
    }

    /// Intern every name of a call path (outermost frame first).
    pub fn intern_path(&mut self, path: &[&str]) -> Vec<FrameId> {
        path.iter().map(|n| self.intern(n)).collect()
    }

    /// The name behind an id.  Panics on an id from another table, which is a
    /// programming error.
    pub fn name(&self, id: FrameId) -> &str {
        let id = id.0 as usize;
        match self.base.get(id) {
            Some(name) => name,
            None => &self.names[id - self.base.len()],
        }
    }

    /// Look up an id without interning.
    pub fn lookup(&self, name: &str) -> Option<FrameId> {
        let base = self.base_index.get(name);
        base.or_else(|| self.index.get(name)).copied()
    }

    /// Number of distinct interned names, base included.
    pub fn len(&self) -> usize {
        self.base.len() + self.names.len()
    }

    /// True if nothing has been interned and the base is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut t = FrameTable::new();
        let a = t.intern("main");
        let b = t.intern("main");
        assert_eq!(a, b);
        assert_eq!(t.len(), 1);
        assert_eq!(t.name(a), "main");
    }

    #[test]
    fn distinct_names_get_distinct_ids() {
        let mut t = FrameTable::new();
        let a = t.intern("MPI_Barrier");
        let b = t.intern("MPI_Waitall");
        assert_ne!(a, b);
        assert_eq!(t.len(), 2);
        assert_eq!(t.lookup("MPI_Barrier"), Some(a));
        assert_eq!(t.lookup("missing"), None);
    }

    #[test]
    fn intern_path_preserves_order() {
        let mut t = FrameTable::new();
        let path = t.intern_path(&["_start", "main", "MPI_Barrier"]);
        assert_eq!(path.len(), 3);
        assert_eq!(t.name(path[0]), "_start");
        assert_eq!(t.name(path[2]), "MPI_Barrier");
    }

    #[test]
    fn a_table_over_a_base_numbers_its_overflow_past_the_base() {
        let mut t = FrameTable::with_base(["_start", "main", "MPI_Barrier", "main"]);
        assert_eq!(t.len(), 3);
        assert_eq!(
            t.intern("main"),
            FrameId(1),
            "a base name keeps its base id"
        );
        assert_eq!(t.intern("do_SendOrStall"), FrameId(3));
        assert_eq!(t.intern("poll_step"), FrameId(4));
        assert_eq!(t.intern("do_SendOrStall"), FrameId(3));
        assert_eq!(t.len(), 5);
        let names = [
            "_start",
            "main",
            "MPI_Barrier",
            "do_SendOrStall",
            "poll_step",
        ];
        for (id, name) in (0..).map(FrameId).zip(names) {
            assert_eq!((t.name(id), t.lookup(name)), (name, Some(id)));
        }
        assert_eq!(t.lookup("missing"), None);
        // A clone shares the base; its overflow is its own from then on.
        let mut other = t.clone();
        assert!(other.shares_base(&t));
        assert_eq!(other.intern("late"), FrameId(5));
        assert_eq!((t.len(), t.lookup("late")), (5, None));
        // The same names negotiated again are another base.
        assert!(!FrameTable::with_base(names).shares_base(&t));
    }

    #[test]
    fn the_empty_base_numbers_from_zero() {
        let mut t = FrameTable::new();
        assert!(t.is_empty());
        assert_eq!(t.intern("main"), FrameId(0));
        assert_eq!(
            (t.name(FrameId(0)), t.lookup("main"), t.len()),
            ("main", Some(FrameId(0)), 1)
        );
        assert_eq!(FrameTable::with_base([]).intern("main"), FrameId(0));
    }
}
