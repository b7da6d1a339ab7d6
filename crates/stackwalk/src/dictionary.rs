//! The session-global frame dictionary behind wire format v2.
//!
//! Version 1 of the wire format shipped every frame name as a length-prefixed
//! string in every packet: daemons did not share an interning order, so ids were
//! packet-local and the name table travelled with each tree.  At 208K endpoints
//! that is exactly the kind of per-packet redundancy the paper's Section V
//! argues a scalable tool cannot afford — and the fixed-width length prefix it
//! required is where the `as u16` truncation bug lived.
//!
//! [`FrameDictionary`] replaces that with one negotiated base per session:
//!
//! * at `Session::attach` / `StreamingSession::open` the front end *negotiates*
//!   the dictionary — it seeds the table with the frame names the application's
//!   runtime is expected to produce ([`negotiate`](FrameDictionary::negotiate))
//!   and broadcasts that base table down the overlay once;
//! * daemons walk into tables over that base ([`table`](FrameDictionary::table)):
//!   every table shares the base's names read-only, so a negotiated frame's id
//!   *is* its global id and encoding it takes no lock; a frame the negotiation
//!   did not anticipate lands in the daemon's own overflow.  Ids past
//!   [`base_len`](FrameDictionary::base_len) belong to the packet that ships
//!   them: each packet numbers its own and names them in *incremental dictionary
//!   records*, so a packet is self-contained, as a filter that sees only packed
//!   bytes needs;
//! * merge filters never look a negotiated name up — comparing two base frames
//!   is integer equality on ids — and match overflow frames by their records'
//!   names, once per record.
//!
//! The handle is cheap to clone (all clones share one base) and read-only, so
//! every daemon thread uses it without a lock.

use crate::frame::{FrameId, FrameTable};

/// A session's negotiated frame names, shared read-only by every table over it.
///
/// Ids below [`base_len`](Self::base_len) were agreed at session setup and need
/// never travel again; ids at or above it are a packet's own and ship their name
/// once in that packet.
#[derive(Clone, Debug)]
pub struct FrameDictionary {
    /// The negotiated base under an empty overflow.
    base: FrameTable,
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
        FrameDictionary {
            base: FrameTable::with_base(hints),
        }
    }

    /// An empty [`FrameTable`] over the negotiated base, for a daemon to walk
    /// into or the front end to name a packet's frames with: its ids below
    /// [`base_len`](Self::base_len) are global ids, and a name outside the base
    /// lands in its own overflow.
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

    /// The negotiated base names in id order — the payload of the one-time
    /// dictionary broadcast down the overlay.
    pub fn negotiated_names(&self) -> Vec<String> {
        let ids = (0..).map(FrameId).take(self.base.len());
        ids.map(|id| self.base.name(id).to_string()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_fixes_the_base_and_dedupes_hints() {
        let dict = FrameDictionary::negotiate(["_start", "main", "MPI_Barrier", "main"]);
        assert_eq!(dict.base_len(), 3);
        assert_eq!(dict.table().lookup("main"), Some(FrameId(1)));
        assert_eq!(
            dict.negotiated_names(),
            vec!["_start", "main", "MPI_Barrier"]
        );
    }

    #[test]
    fn tables_share_the_negotiated_base_and_not_their_overflow() {
        let dict = FrameDictionary::negotiate(["_start", "main"]);
        let (mut table, mut other) = (dict.table(), dict.clone().table());
        assert!(dict.shares_base(&table) && dict.shares_base(&other));
        assert_eq!((table.lookup("main"), table.len()), (Some(FrameId(1)), 2));
        // A daemon's overflow stays its own: each table numbers past the base.
        assert_eq!(table.intern("poll_step"), FrameId(2));
        assert_eq!(other.intern("MPI_Barrier"), FrameId(2));
        assert_eq!(other.lookup("poll_step"), None);
        assert_eq!(dict.table().len(), 2, "a fresh table is the base alone");
        assert_eq!(dict.base_len(), 2, "interning never widens the base");
        let again = FrameDictionary::negotiate(["_start", "main"]);
        assert!(!dict.shares_base(&again.table()) && !dict.shares_base(&FrameTable::new()));
    }

    #[test]
    fn empty_dictionary_is_usable() {
        let dict = FrameDictionary::default();
        assert_eq!(dict.base_len(), 0);
        assert!(dict.negotiated_names().is_empty());
        assert_eq!(dict.table().intern("???"), FrameId(0));
        assert_eq!(dict.base_len(), 0, "interning never widens the base");
    }
}
