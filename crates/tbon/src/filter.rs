//! Filters: the aggregation plug-ins that run at every tree node.
//!
//! MRNet's defining feature is that data reduction happens *inside the network*: each
//! communication process runs a filter over the packets arriving from its children and
//! forwards a single packet to its parent.  STAT's contribution is precisely such a
//! filter — one that merges serialised call-graph prefix trees — but the TBON itself
//! only needs the narrow interface defined here.
//!
//! Filters operate in *wait-for-all* synchronisation mode, the mode STAT uses: a node
//! buffers packets until one has arrived from every child, then invokes the filter
//! once over the whole wave.  (MRNet also offers timeout and "don't wait" modes, which
//! STAT does not use; we model only what the paper exercises.)

use crate::packet::{EndpointId, Packet, PacketTag};

/// A reduction filter.
///
/// Implementations must be `Send + Sync` because the in-process network runs one
/// filter instance concurrently across tree nodes (each invocation gets its own
/// input wave; filters should be stateless or internally synchronised).
pub trait Filter: Send + Sync {
    /// Reduce one wave of child packets into a single output packet.
    ///
    /// `node` identifies the tree node performing the reduction (useful for
    /// diagnostics), and `inputs` holds exactly one packet per child, in child order.
    fn reduce(&self, node: EndpointId, inputs: &[Packet]) -> Packet;

    /// A human-readable name for reports.
    fn name(&self) -> &'static str {
        "filter"
    }
}

/// A filter that simply concatenates payloads — the "no aggregation" baseline.
/// With this filter the front end receives every byte every daemon produced, which is
/// exactly the behaviour hierarchical tools are trying to avoid.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityFilter;

impl Filter for IdentityFilter {
    fn reduce(&self, node: EndpointId, inputs: &[Packet]) -> Packet {
        let tag = inputs
            .first()
            .map(|p| p.tag)
            .unwrap_or(PacketTag::Custom(0));
        let total: usize = inputs.iter().map(|p| p.payload.len()).sum();
        let mut buf = Vec::with_capacity(total);
        for p in inputs {
            buf.extend_from_slice(&p.payload);
        }
        Packet::new(tag, node, buf)
    }

    fn name(&self) -> &'static str {
        "identity"
    }
}

/// A filter that treats every payload as a little-endian `u64` and sums them.
/// The network tests' fixture (also `fault`'s and `delta`'s tests' and the topology
/// bench's): a reduction whose right answer is a number.  No pipeline stage uses it.
#[derive(Clone, Copy, Debug, Default)]
pub struct SumFilter;

impl SumFilter {
    /// Encode a value for transport through the filter.
    pub fn encode(value: u64) -> Vec<u8> {
        value.to_le_bytes().to_vec()
    }

    /// Decode a value from a reduced packet.
    pub fn decode(packet: &Packet) -> u64 {
        let mut bytes = [0u8; 8];
        let n = packet.payload.len().min(8);
        bytes[..n].copy_from_slice(&packet.payload[..n]);
        u64::from_le_bytes(bytes)
    }
}

impl Filter for SumFilter {
    fn reduce(&self, node: EndpointId, inputs: &[Packet]) -> Packet {
        let tag = inputs
            .first()
            .map(|p| p.tag)
            .unwrap_or(PacketTag::Custom(0));
        let sum: u64 = inputs.iter().map(SumFilter::decode).sum();
        Packet::new(tag, node, SumFilter::encode(sum))
    }

    fn name(&self) -> &'static str {
        "sum"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(src: u32, payload: Vec<u8>) -> Packet {
        Packet::new(PacketTag::Custom(1), EndpointId(src), payload)
    }

    #[test]
    fn identity_concatenates_in_child_order() {
        let f = IdentityFilter;
        let out = f.reduce(
            EndpointId(0),
            &[pkt(1, vec![1, 2]), pkt(2, vec![3]), pkt(3, vec![4, 5])],
        );
        assert_eq!(&out.payload[..], &[1, 2, 3, 4, 5]);
        assert_eq!(out.source, EndpointId(0));
    }

    #[test]
    fn identity_of_empty_wave_is_empty() {
        let out = IdentityFilter.reduce(EndpointId(0), &[]);
        assert_eq!(out.size_bytes(), 0);
    }

    #[test]
    fn sum_filter_adds_values() {
        let f = SumFilter;
        let out = f.reduce(
            EndpointId(0),
            &[
                pkt(1, SumFilter::encode(10)),
                pkt(2, SumFilter::encode(32)),
                pkt(3, SumFilter::encode(0)),
            ],
        );
        assert_eq!(SumFilter::decode(&out), 42);
    }

    #[test]
    fn sum_filter_tolerates_short_payloads() {
        let out = SumFilter.reduce(EndpointId(0), &[pkt(1, vec![5])]);
        assert_eq!(SumFilter::decode(&out), 5);
    }

    #[test]
    fn filter_names() {
        assert_eq!(IdentityFilter.name(), "identity");
        assert_eq!(SumFilter.name(), "sum");
    }
}
