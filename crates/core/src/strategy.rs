//! The single dispatch point for task-set representations.
//!
//! Every layer that cares about the representation — the daemon, the front end
//! and the session runner — would otherwise carry its own
//! `match Representation { ... }`, and such copies drift apart as soon as anyone
//! touches one of them.  [`RepresentationStrategy`] is the one sealed trait they
//! all go through: the daemon-side contribution, the in-network merge filter,
//! whether a rank-map channel rides along, and the front-end decode/remap step are
//! all defined once, in one `impl` generic over the set's [`Domain`] — what differs
//! between the representations is read from the domain's constants, not written
//! out twice.  The run-time [`Representation`] value is matched to a domain type in
//! two places: [`Representation::strategy`] here and the arm where
//! `StreamingBuilder::open` boxes its typed core.
//!
//! The trait is *sealed* (its supertrait lives in a private module) because the
//! session pipeline's correctness depends on the contribution, filter and finish
//! steps agreeing about the wire format — an external implementation could not keep
//! that bargain without access to crate internals.

use std::marker::PhantomData;
use std::time::{Duration, Instant};

use appsim::Application;
use stackwalk::{FrameDictionary, FrameTable};
use tbon::filter::Filter;
use tbon::network::ReductionOutcome;
use tbon::packet::EndpointId;

use crate::daemon::{DaemonContribution, StatDaemon};
use crate::error::{MergeChannel, StatError};
use crate::filter::StatMergeFilter;
use crate::frontend::Representation;
use crate::graph::{GlobalPrefixTree, PrefixTree};
use crate::serialize::{decode_rank_map, decode_tree, DecodeError, WireTaskSet};
use crate::taskset::{Domain, JobWide, SubtreeLocal, TaskSet};

mod sealed {
    /// Seals [`super::RepresentationStrategy`]: only this crate can implement it.
    pub trait Sealed {}
}

/// The job-wide trees a finished merge hands back, plus the cost of getting them
/// into MPI rank order.
#[derive(Clone, Debug)]
pub struct MergedTrees {
    /// The job-wide 2D (trace/space) tree, in MPI rank order.
    pub tree_2d: GlobalPrefixTree,
    /// The job-wide 3D (trace/space/time) tree, in MPI rank order.
    pub tree_3d: GlobalPrefixTree,
    /// Frame names referenced by the trees.
    pub frames: FrameTable,
    /// Wall-clock time of the front-end remap (zero for representations that arrive
    /// already in rank order).
    pub remap_wall: Duration,
}

/// Everything that varies with the task-set representation, defined in one place.
///
/// Obtain an instance through [`Representation::strategy`]; the trait is sealed.
pub trait RepresentationStrategy: sealed::Sealed + Send + Sync {
    /// Run one daemon's gather → local merge → serialise cycle against the
    /// session's negotiated frame dictionary.
    fn contribute(
        &self,
        daemon: &StatDaemon,
        app: &dyn Application,
        samples_per_task: u32,
        leaf_endpoint: EndpointId,
        dict: &FrameDictionary,
    ) -> DaemonContribution;

    /// The in-network merge filter for the two tree channels.
    fn merge_filter(&self) -> Box<dyn Filter>;

    /// Whether this representation ships a rank-map channel for a front-end remap.
    fn needs_rank_map(&self) -> bool;

    /// Decode the reduced channel outcomes into job-wide, rank-ordered trees.
    ///
    /// `rank_map` is `Some` exactly when [`Self::needs_rank_map`] is true.
    /// The decoded trees carry session-global frame ids, which resolve against
    /// `dict`'s snapshot — the same table every daemon encoded against.
    fn finish(
        &self,
        out_2d: &ReductionOutcome,
        out_3d: &ReductionOutcome,
        rank_map: Option<&ReductionOutcome>,
        total_tasks: u64,
        dict: &FrameDictionary,
    ) -> Result<MergedTrees, StatError>;
}

impl Representation {
    /// The strategy implementing this representation — the one dispatch point the
    /// daemon and the session share.
    pub fn strategy(self) -> &'static dyn RepresentationStrategy {
        match self {
            Representation::GlobalBitVector => &DomainStrategy::<JobWide>(PhantomData),
            Representation::HierarchicalTaskList => &DomainStrategy::<SubtreeLocal>(PhantomData),
        }
    }
}

fn decode_channel<S: WireTaskSet>(
    channel: MergeChannel,
    outcome: &ReductionOutcome,
) -> Result<PrefixTree<S>, StatError> {
    decode_tree(&outcome.result.payload)
        .map(|(tree, _frames)| tree)
        .map_err(|source| StatError::Decode {
            channel,
            endpoint: outcome.result.source,
            source,
        })
}

/// The strategy of the representation whose sets live over domain `D`.
struct DomainStrategy<D>(PhantomData<D>);

impl<D: Domain> sealed::Sealed for DomainStrategy<D> {}

impl<D: Domain> RepresentationStrategy for DomainStrategy<D> {
    fn contribute(
        &self,
        daemon: &StatDaemon,
        app: &dyn Application,
        samples_per_task: u32,
        leaf_endpoint: EndpointId,
        dict: &FrameDictionary,
    ) -> DaemonContribution {
        daemon.contribute::<TaskSet<D>>(app, samples_per_task, leaf_endpoint, dict)
    }

    fn merge_filter(&self) -> Box<dyn Filter> {
        Box::new(StatMergeFilter::<TaskSet<D>>::new())
    }

    fn needs_rank_map(&self) -> bool {
        D::CONCATENATES
    }

    fn finish(
        &self,
        out_2d: &ReductionOutcome,
        out_3d: &ReductionOutcome,
        rank_map: Option<&ReductionOutcome>,
        total_tasks: u64,
        dict: &FrameDictionary,
    ) -> Result<MergedTrees, StatError> {
        let merged_2d = decode_channel::<TaskSet<D>>(MergeChannel::Tree2d, out_2d)?;
        let merged_3d = decode_channel::<TaskSet<D>>(MergeChannel::Tree3d, out_3d)?;
        // The remap step the paper prices at 0.66 s for 208K tasks — timed only
        // where there is one: job-wide positions already are MPI ranks.
        let (position_to_rank, remap_start) = if D::CONCATENATES {
            let positions = merged_2d.width().max(merged_3d.width());
            let map = checked_rank_map(rank_map, positions, total_tasks)?;
            (map, Some(Instant::now()))
        } else {
            (Vec::new(), None)
        };
        Ok(MergedTrees {
            tree_2d: D::rank_ordered(merged_2d, &position_to_rank, total_tasks),
            tree_3d: D::rank_ordered(merged_3d, &position_to_rank, total_tasks),
            frames: dict.snapshot(),
            remap_wall: remap_start.map_or(Duration::ZERO, |start| start.elapsed()),
        })
    }
}

/// Decode the reduced rank-map channel and check it can drive a remap of
/// `positions` positions into a `total_tasks`-task job.
fn checked_rank_map(
    rank_map: Option<&ReductionOutcome>,
    positions: u64,
    total_tasks: u64,
) -> Result<Vec<u64>, StatError> {
    let map_out = rank_map.ok_or(StatError::RankMapMismatch {
        positions,
        mapped: 0,
    })?;
    let rank_map_error = |source| StatError::Decode {
        channel: MergeChannel::RankMap,
        endpoint: map_out.result.source,
        source,
    };
    let position_to_rank = decode_rank_map(&map_out.result.payload).map_err(rank_map_error)?;
    if (position_to_rank.len() as u64) < positions {
        return Err(StatError::RankMapMismatch {
            positions,
            mapped: position_to_rank.len(),
        });
    }
    // Varint-delta maps decode permissively, so a corrupted payload can parse
    // into ranks the job does not have; refuse before the remap would index past
    // the dense width.
    match position_to_rank.iter().find(|&&rank| rank >= total_tasks) {
        Some(&rank) => Err(rank_map_error(DecodeError::RankOutOfRange {
            rank,
            tasks: total_tasks,
        })),
        None => Ok(position_to_rank),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::SubtreePrefixTree;
    use tbon::packet::{Packet, PacketTag};

    fn outcome_with_payload(payload: Vec<u8>) -> ReductionOutcome {
        ReductionOutcome {
            channel: "test",
            result: Packet::new(PacketTag::Merged2d, EndpointId(0), payload),
            filter_time: Duration::ZERO,
            filter_invocations: 0,
            frontend_bytes_in: 0,
            max_node_bytes_in: 0,
            total_link_bytes: 0,
        }
    }

    #[test]
    fn both_representations_resolve_to_their_own_strategy() {
        assert!(!Representation::GlobalBitVector.strategy().needs_rank_map());
        assert!(Representation::HierarchicalTaskList
            .strategy()
            .needs_rank_map());
    }

    #[test]
    fn finish_reports_decode_failures_with_channel_context() {
        let garbage = outcome_with_payload(vec![1, 2, 3]);
        let err = Representation::GlobalBitVector
            .strategy()
            .finish(&garbage, &garbage, None, 16, &FrameDictionary::default())
            .unwrap_err();
        match err {
            StatError::Decode { channel, .. } => assert_eq!(channel, MergeChannel::Tree2d),
            other => panic!("expected a decode error, got {other:?}"),
        }
    }

    #[test]
    fn a_missing_rank_map_channel_is_a_typed_error_not_a_panic() {
        let tree = SubtreePrefixTree::new_subtree(8);
        let dict = FrameDictionary::default();
        let payload = crate::serialize::encode_tree(&tree, &FrameTable::new(), &dict);
        let out = outcome_with_payload(payload);
        let err = Representation::HierarchicalTaskList
            .strategy()
            .finish(&out, &out, None, 8, &dict)
            .unwrap_err();
        assert_eq!(
            err,
            StatError::RankMapMismatch {
                positions: 8,
                mapped: 0
            }
        );
    }
}
