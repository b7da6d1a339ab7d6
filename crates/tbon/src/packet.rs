//! Packets: the unit of data flowing through the overlay network.
//!
//! MRNet packets carry a stream id, a tag identifying the operation, and a typed
//! payload.  We keep the same shape but leave the payload as raw bytes: the STAT merge
//! filter serialises its prefix trees itself, which both mirrors the original design
//! (filters receive packed buffers) and lets the cost model reason about payload sizes
//! directly.

use bytes::Bytes;
use std::fmt;

/// Identifies an endpoint (front end, communication process or back-end daemon)
/// within one [`crate::topology::Topology`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointId(pub u32);

impl fmt::Display for EndpointId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ep{}", self.0)
    }
}

/// Operation tags.  A closed enum keeps dispatch explicit and the wire format stable.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PacketTag {
    /// Daemons → front-end: a serialised 2D (trace/space) prefix tree.
    Merged2d,
    /// Daemons → front-end: a serialised 3D (trace/space/time) prefix tree.
    Merged3d,
    /// Daemons → front-end: the daemon's local rank map (for the remap step).
    RankMap,
    /// Daemons → front-end: a serialised tree *delta* — only the nodes and
    /// task-set words a streaming wave added over the last acknowledged wave.
    TreeDelta,
    /// Application-defined tag (tests, auxiliary tools).
    Custom(u16),
}

/// A packet travelling through the overlay network.
#[derive(Clone, Debug, PartialEq)]
pub struct Packet {
    /// Which operation this packet belongs to.
    pub tag: PacketTag,
    /// The endpoint that produced the packet (for upward packets, the daemon or
    /// communication process whose subtree the payload summarises).
    pub source: EndpointId,
    /// Serialised payload.
    pub payload: Bytes,
}

impl Packet {
    /// Construct a packet from owned bytes.
    pub fn new(tag: PacketTag, source: EndpointId, payload: impl Into<Bytes>) -> Self {
        Packet {
            tag,
            source,
            payload: payload.into(),
        }
    }

    /// An empty (control-only) packet.
    pub fn control(tag: PacketTag, source: EndpointId) -> Self {
        Packet {
            tag,
            source,
            payload: Bytes::new(),
        }
    }

    /// Payload size in bytes — the quantity the scalable-data-structure argument of
    /// Section V is all about.
    pub fn size_bytes(&self) -> usize {
        self.payload.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_sizes_reflect_payload() {
        let p = Packet::new(PacketTag::Merged2d, EndpointId(3), vec![0u8; 128]);
        assert_eq!(p.size_bytes(), 128);
        let c = Packet::control(PacketTag::RankMap, EndpointId(0));
        assert_eq!(c.size_bytes(), 0);
    }

    #[test]
    fn tags_distinguish_operations() {
        assert_ne!(PacketTag::Merged2d, PacketTag::Merged3d);
        assert_ne!(PacketTag::RankMap, PacketTag::TreeDelta);
        assert_ne!(PacketTag::Custom(1), PacketTag::Custom(2));
        assert_eq!(PacketTag::Custom(7), PacketTag::Custom(7));
    }

    #[test]
    fn endpoint_display() {
        assert_eq!(format!("{}", EndpointId(12)), "ep12");
    }
}
