//! The session-global frame dictionary behind wire format v2.
//!
//! Version 1 of the wire format shipped every frame name as a length-prefixed
//! string in every packet: daemons did not share an interning order, so ids were
//! packet-local and the name table travelled with each tree.  At 208K endpoints
//! that is exactly the kind of per-packet redundancy the paper's Section V
//! argues a scalable tool cannot afford — and the fixed-width length prefix it
//! required is where the `as u16` truncation bug lived.
//!
//! [`FrameDictionary`] replaces that with one u32 id space per session:
//!
//! * at `Session::attach` / `StreamingSession::open` the front end *negotiates*
//!   the dictionary — it seeds the table with the frame names the application's
//!   runtime is expected to produce ([`negotiate`](FrameDictionary::negotiate))
//!   and broadcasts that base table down the overlay once;
//! * daemons walk into tables over that base ([`table`](FrameDictionary::table)):
//!   every table shares the base's names read-only, so a negotiated frame's id
//!   *is* its global id and encoding it takes no lock; a frame the negotiation
//!   did not anticipate lands in the daemon's own overflow.  Its packet carries
//!   the id a snapshot of the dictionary taken before the daemons' side-by-side
//!   map gives its name, or, for a name interned by no one yet, a fresh id and a
//!   record.  Interning ([`intern`](FrameDictionary::intern)) happens after the
//!   map, in backend order, when those records are relabelled: the frame gets a
//!   global id past [`base_len`](FrameDictionary::base_len), so the ids do not
//!   depend on which daemon finished first, and its name ships exactly once per
//!   packet as an *incremental dictionary record*;
//! * merge filters never look names up at all — with a session-global id space,
//!   comparing two frames is integer equality on ids.
//!
//! The handle is cheap to clone (all clones share one table) and callable from
//! every daemon thread.  Only the incremental names sit behind a lock; a poisoned
//! lock is recovered rather than propagated, because the table is append-only
//! and never observed mid-update.

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::frame::{FrameId, FrameTable};

/// A shared, session-global frame interner with a negotiated base table.
///
/// Ids below [`base_len`](Self::base_len) were agreed at session setup and need
/// never travel again; ids at or above it are incremental and ship their name
/// once per referencing packet.
#[derive(Clone, Debug)]
pub struct FrameDictionary {
    /// The negotiated base under an empty overflow: read without the lock.
    base: FrameTable,
    /// The same base, its overflow every incremental name interned so far.
    interned: Arc<Mutex<FrameTable>>,
}

impl Default for FrameDictionary {
    fn default() -> Self {
        FrameDictionary::negotiate([])
    }
}

impl FrameDictionary {
    /// Negotiate a dictionary from the frame names a session expects to see.
    ///
    /// Duplicate hints collapse onto the first occurrence, so vocabularies can
    /// be concatenated freely.
    pub fn negotiate<'a>(hints: impl IntoIterator<Item = &'a str>) -> Self {
        let base = FrameTable::with_base(hints);
        FrameDictionary {
            interned: Arc::new(Mutex::new(base.clone())),
            base,
        }
    }

    fn lock(&self) -> MutexGuard<'_, FrameTable> {
        self.interned.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Intern a frame name, returning its session-global id.  Names beyond the
    /// negotiated base get fresh incremental ids; only those take the lock.
    pub fn intern(&self, name: &str) -> u32 {
        match self.base.lookup(name) {
            Some(id) => id.0,
            None => self.lock().intern(name).0,
        }
    }

    /// An empty [`FrameTable`] over the negotiated base, for a daemon to walk
    /// into: its ids below [`base_len`](Self::base_len) are global ids, and only
    /// a name outside the base lands in its own overflow.
    pub fn table(&self) -> FrameTable {
        self.base.clone()
    }

    /// True when `table` is over this dictionary's negotiated base, so that its
    /// ids below [`base_len`](Self::base_len) are global ids.  An identity test:
    /// a table over another negotiation of the same names is not.
    pub fn shares_base(&self, table: &FrameTable) -> bool {
        self.base.shares_base(table)
    }

    /// Size of the negotiated base table: ids below this were agreed at session
    /// setup and are never re-shipped.
    pub fn base_len(&self) -> u32 {
        u32::try_from(self.base.len()).unwrap_or(u32::MAX)
    }

    /// Total names interned so far (base + incremental).
    pub fn len(&self) -> usize {
        self.lock().len()
    }

    /// True if nothing was negotiated or interned.
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// The negotiated base names in id order — the payload of the one-time
    /// dictionary broadcast down the overlay.
    pub fn negotiated_names(&self) -> Vec<String> {
        let ids = (0..).map(FrameId).take(self.base.len());
        ids.map(|id| self.base.name(id).to_string()).collect()
    }

    /// A point-in-time [`FrameTable`] whose [`FrameId`]s equal
    /// the dictionary's global ids: the shared base plus the incremental names.
    /// The front end resolves decoded trees against this.
    pub fn snapshot(&self) -> FrameTable {
        self.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_fixes_the_base_and_dedupes_hints() {
        let dict = FrameDictionary::negotiate(["_start", "main", "MPI_Barrier", "main"]);
        assert_eq!(dict.base_len(), 3);
        assert_eq!(dict.len(), 3);
        assert_eq!(dict.snapshot().lookup("main"), Some(FrameId(1)));
        assert_eq!(
            dict.negotiated_names(),
            vec!["_start", "main", "MPI_Barrier"]
        );
    }

    #[test]
    fn incremental_interns_land_past_the_base() {
        let dict = FrameDictionary::negotiate(["_start", "main"]);
        let late = dict.intern("do_SendOrStall");
        assert_eq!(late, 2);
        assert!(late >= dict.base_len());
        // Idempotent, and the base never moves.
        assert_eq!(dict.intern("do_SendOrStall"), late);
        assert_eq!(dict.base_len(), 2);
        assert_eq!(dict.snapshot().name(FrameId(late)), "do_SendOrStall");
    }

    #[test]
    fn clones_share_one_id_space() {
        let dict = FrameDictionary::negotiate(["main"]);
        let other = dict.clone();
        let a = dict.intern("MPI_Waitall");
        let b = other.intern("MPI_Waitall");
        assert_eq!(a, b);
        assert_eq!(dict.len(), other.len());
    }

    #[test]
    fn snapshot_ids_equal_global_ids() {
        let dict = FrameDictionary::negotiate(["_start", "main"]);
        dict.intern("poll_step");
        let table = dict.snapshot();
        assert_eq!(table.len(), 3);
        assert_eq!(table.name(FrameId(2)), "poll_step");
        assert_eq!(table.lookup("_start"), Some(FrameId(0)));
    }

    #[test]
    fn tables_share_the_negotiated_base_and_not_its_interns() {
        let dict = FrameDictionary::negotiate(["_start", "main"]);
        let mut table = dict.table();
        assert!(dict.shares_base(&table) && dict.shares_base(&dict.snapshot()));
        assert_eq!((table.lookup("main"), table.len()), (Some(FrameId(1)), 2));
        // A daemon's overflow stays its own until the relabel interns it.
        assert_eq!(table.intern("poll_step"), FrameId(2));
        assert_eq!(dict.len(), 2);
        assert_eq!(dict.intern("MPI_Barrier"), 2);
        assert_eq!(dict.table().len(), 2, "a fresh table is the base alone");
        let again = FrameDictionary::negotiate(["_start", "main"]);
        assert!(!dict.shares_base(&again.table()) && !dict.shares_base(&FrameTable::new()));
    }

    #[test]
    fn empty_dictionary_is_usable() {
        let dict = FrameDictionary::default();
        assert!(dict.is_empty());
        assert_eq!(dict.base_len(), 0);
        assert_eq!(dict.intern("???"), 0);
        assert_eq!(dict.base_len(), 0, "interning never widens the base");
    }
}
