//! Property-based tests (proptest) over the core data structures and invariants:
//! task-set algebra, prefix-tree merging, wire-format round trips, topology
//! construction and the file-server queue's makespan bounds.

use proptest::prelude::*;

use stackwalk::{FrameTable, RankSet, StackTrace};
use stat_core::prelude::*;
use tbon::topology::{Topology, TreeShape};

// ---------------------------------------------------------------------------------
// Task-set algebra
// ---------------------------------------------------------------------------------

fn rank_set(width: u64) -> impl Strategy<Value = Vec<u64>> {
    prop::collection::btree_set(0..width, 0..64).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #[test]
    fn dense_and_subtree_sets_agree_on_membership(ranks in rank_set(300)) {
        let mut dense = DenseBitVector::empty(300);
        let mut subtree = SubtreeTaskList::empty(300);
        for &r in &ranks {
            dense.insert(r);
            subtree.insert(r);
        }
        prop_assert_eq!(dense.members(), subtree.members());
        prop_assert_eq!(dense.count(), ranks.len() as u64);
        for r in 0..300 {
            prop_assert_eq!(dense.contains(r), ranks.contains(&r));
        }
    }

    #[test]
    fn dense_union_is_commutative_associative_idempotent(
        a in rank_set(256),
        b in rank_set(256),
        c in rank_set(256),
    ) {
        let build = |ranks: &[u64]| {
            let mut s = DenseBitVector::empty(256);
            for &r in ranks {
                s.insert(r);
            }
            s
        };
        let (sa, sb, sc) = (build(&a), build(&b), build(&c));

        // commutative
        let mut ab = sa.clone();
        ab.union_in_place(&sb);
        let mut ba = sb.clone();
        ba.union_in_place(&sa);
        prop_assert_eq!(ab.members(), ba.members());

        // associative
        let mut ab_c = ab.clone();
        ab_c.union_in_place(&sc);
        let mut bc = sb.clone();
        bc.union_in_place(&sc);
        let mut a_bc = sa.clone();
        a_bc.union_in_place(&bc);
        prop_assert_eq!(ab_c.members(), a_bc.members());

        // idempotent
        let mut aa = sa.clone();
        aa.union_in_place(&sa);
        prop_assert_eq!(aa.members(), sa.members());
    }

    #[test]
    fn rebase_preserves_count_and_shifts_members(
        positions in rank_set(100),
        offset in 0u64..50,
    ) {
        let mut s = SubtreeTaskList::empty(100);
        for &p in &positions {
            s.insert(p);
        }
        let before = s.members();
        s.rebase(offset, 100 + offset);
        let after = s.members();
        prop_assert_eq!(after.len(), before.len());
        for (b, a) in before.iter().zip(after.iter()) {
            prop_assert_eq!(b + offset, *a);
        }
    }

    #[test]
    fn remap_through_a_permutation_preserves_population(positions in rank_set(128)) {
        let mut s = SubtreeTaskList::empty(128);
        for &p in &positions {
            s.insert(p);
        }
        // A deterministic but non-trivial permutation.
        let map: Vec<u64> = (0..128u64).map(|i| (i * 37 + 11) % 128).collect();
        let dense = s.remap_to_dense(&map.iter().copied().collect(), 128);
        prop_assert_eq!(dense.count(), positions.len() as u64);
        for &p in &positions {
            prop_assert!(dense.contains(map[p as usize]));
        }
    }

    #[test]
    fn rank_range_formatting_reports_the_true_count(ranks in rank_set(400)) {
        let label = format_rank_ranges(ranks.iter().copied(), 5);
        let count: usize = label.split(':').next().unwrap().parse().unwrap();
        prop_assert_eq!(count, ranks.len());
    }

    #[test]
    fn hierarchical_union_remap_round_trips_to_the_dense_representation(
        // Up to 6 daemons, each owning 1..32 local positions with an arbitrary
        // subset of them set.
        daemons in prop::collection::vec(
            (1u64..32).prop_flat_map(|local| {
                (Just(local), prop::collection::btree_set(0..local, 0..local as usize + 1))
            }),
            1..6,
        ),
        seed in 0u64..1_000,
    ) {
        // Assign every (daemon, local position) pair a distinct MPI rank via a
        // seeded permutation — the concatenated rank map the front end would see.
        let total: u64 = daemons.iter().map(|(local, _)| local).sum();
        let mut rank_map: Vec<u64> = (0..total).collect();
        for i in (1..rank_map.len()).rev() {
            rank_map.swap(i, ((seed.wrapping_mul(i as u64 + 7)) % (i as u64 + 1)) as usize);
        }

        // The hierarchical path: per-daemon subtree lists concatenated by
        // rebase + union (exactly what the in-network merge filter does)...
        let mut merged = SubtreeTaskList::empty(0);
        let mut dense_expected = DenseBitVector::empty(total);
        let mut offset = 0u64;
        for (local, members) in &daemons {
            let mut list = SubtreeTaskList::empty(*local);
            for &m in members {
                list.insert(m);
                dense_expected.insert(rank_map[(offset + m) as usize]);
            }
            merged.rebase(0, offset + local);
            list.rebase(offset, offset + local);
            merged.union_in_place(&list);
            offset += local;
        }
        // ...then the front-end remap through the rank map.
        let remapped = merged.remap_to_dense(&rank_map.iter().copied().collect(), total);

        // The round trip must agree with the dense representation built directly
        // from global ranks, member for member and lookup for lookup.
        prop_assert_eq!(remapped.members(), dense_expected.members());
        prop_assert_eq!(remapped.count(), dense_expected.count());
        for rank in 0..total {
            prop_assert_eq!(remapped.contains(rank), dense_expected.contains(rank));
        }
    }
}

// ---------------------------------------------------------------------------------
// Rank maps as runs: the run remap against a per-member reference
// ---------------------------------------------------------------------------------

/// The reference remap: member by member through the map's ranks listed one by
/// one; a position past the map or a rank past the job is dropped.
fn reference_remap(set: &SubtreeTaskList, ranks: &[u64], total: u64) -> Vec<u64> {
    let mut out: Vec<u64> = set
        .iter_members()
        .filter_map(|position| ranks.get(position as usize).copied())
        .filter(|&rank| rank < total)
        .collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// `map` lists its ranks, is made of its maximal runs, survives the wire, and
/// remaps `members` (positions, reduced into the map) as the reference does.
fn run_remap_matches_the_reference(map: &RankRuns, members: &[u64], total: u64) {
    use stat_core::serialize::{decode_rank_map, encode_rank_map};
    let ranks: Vec<u64> = map.into_iter().collect();
    assert_eq!(map.count(), ranks.len() as u64);
    assert_eq!(&ranks.iter().copied().collect::<RankRuns>(), map);
    assert_eq!(&decode_rank_map(&encode_rank_map(map)).unwrap(), map);
    let width = map.count();
    let mut set = SubtreeTaskList::empty(width);
    for &m in members.iter().filter(|_| width > 0) {
        set.insert(m % width);
    }
    let remapped = set.remap_to_dense(map, total);
    assert_eq!(
        remapped.members(),
        reference_remap(&set, &ranks, total),
        "{map:?}"
    );
}

proptest! {
    #[test]
    fn run_remap_equals_the_per_member_reference(
        runs in prop::collection::vec((0u64..300, 1u64..80), 1..12),
        n in 1u64..200,
        stride in 1usize..5,
        seed in 0u64..1_000,
        members in prop::collection::vec(0u64..10_000, 0..120),
    ) {
        // Arbitrary runs: any order, overlapping, some across the job's end.
        let arbitrary: RankRuns = runs.iter().map(|&(start, len)| start..start + len).collect();
        // A seeded permutation of 0..n: a list of length-1 runs.
        let mut permuted: Vec<u64> = (0..n).collect();
        for i in (1..permuted.len()).rev() {
            permuted.swap(i, (seed.wrapping_mul(i as u64 + 3) % (i as u64 + 1)) as usize);
        }
        let maps = [
            arbitrary,
            permuted.into_iter().collect(),
            (0..n).rev().step_by(stride).collect(),
            (0..n).step_by(stride).collect(),
            (0..n).collect(),
        ];
        for map in &maps {
            run_remap_matches_the_reference(map, &members, 300);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn a_pruned_overlay_ships_one_run_per_surviving_stretch(
        nodes in 2u32..24,
        cores in 8u16..13,
        depth in 2u32..4,
        kills in prop::collection::vec((0usize..2, 0usize..64), 0..4),
    ) {
        use appsim::scenario::OverlayFault;
        use machine::placement::PlacementPlan;
        use stat_core::serialize::{decode_rank_map, encode_rank_map};
        use tbon::fault::FaultTracker;
        use tbon::filter::Filter;
        use tbon::network::{ChannelInput, InProcessTbon};
        use tbon::packet::{Packet, PacketTag};

        let cluster = machine::cluster::Cluster::test_cluster(nodes, cores);
        let tasks = u64::from(nodes) * u64::from(cores);
        let shape = TreeShape::for_placement(&PlacementPlan::for_job(&cluster, tasks), depth);
        let topology = Topology::build(shape.clone());
        let daemons = StatDaemon::partition(tasks, shape.backends());
        let (backends, comms) = (topology.backends().to_vec(), topology.comm_processes());

        // Kill daemons and comm processes, and reduce the survivors' rank maps
        // over the pruned overlay, as the session does.
        let mut tracker = FaultTracker::new(topology.clone());
        let mut faults = Vec::new();
        for &(kind, i) in &kills {
            if kind == 0 || comms.is_empty() {
                tracker.fail(backends[i % backends.len()]);
                faults.push(OverlayFault::BackendFromEnd(backends.len() - 1 - i % backends.len()));
            } else {
                tracker.fail(comms[i % comms.len()]);
                faults.push(OverlayFault::CommProcessFromEnd(comms.len() - 1 - i % comms.len()));
            }
        }
        let Some(pruned) = tracker.degraded_shape() else { return };
        let survivors = tracker.surviving_backend_indices();
        let net = InProcessTbon::new(Topology::build(pruned));
        let leaves = survivors
            .iter()
            .zip(net.topology().backends())
            .map(|(&d, &leaf)| Packet::new(PacketTag::RankMap, leaf, encode_rank_map(&daemons[d].ranks)))
            .collect();
        let filters: [&dyn Filter; 1] = [&RankMapFilter];
        let out = net.reduce_channels(vec![ChannelInput::new("rank-map", leaves)], &filters).unwrap();
        let map = decode_rank_map(&out[0].result.payload).unwrap();
        // One range per stretch of consecutive surviving ranks: a single run when
        // nothing was lost.
        let mut stretches: Vec<std::ops::Range<u64>> = Vec::new();
        for rank in survivors.iter().flat_map(|&d| &daemons[d].ranks) {
            match stretches.last_mut() {
                Some(run) if run.end == rank => run.end += 1,
                _ => stretches.push(rank..rank + 1),
            }
        }
        prop_assert_eq!(map.runs().collect::<Vec<_>>(), stretches);
        if kills.is_empty() {
            prop_assert_eq!(map.runs().count(), 1);
        }

        // The session over the same faults: its lost ranks and its classes
        // partition the job, so `lost_ranks` is exactly the uncovered ranks.
        let mut scenario = appsim::catalogue(tasks, appsim::FrameVocabulary::Linux)
            .into_iter()
            .find(|s| s.name == "ring_hang")
            .unwrap();
        for fault in faults {
            scenario = scenario.with_overlay(fault);
        }
        let session = Session::builder(cluster).topology(shape).samples_per_task(1).build();
        let run = match session.run_scenario(&scenario) {
            Ok(run) => run,
            Err(StatError::SessionNotViable { .. }) => return,
            Err(err) => panic!("{err}"),
        };
        let lost = &run.diagnosis.lost_ranks;
        prop_assert!(lost.windows(2).all(|w| w[0] < w[1]));
        let mut covered: Vec<u64> =
            run.diagnosis.classes.iter().flat_map(|c| c.ranks.iter()).collect();
        covered.extend(lost);
        covered.sort_unstable();
        prop_assert_eq!(covered, (0..tasks).collect::<Vec<_>>());
    }
}

// ---------------------------------------------------------------------------------
// Prefix trees
// ---------------------------------------------------------------------------------

const FRAME_POOL: &[&str] = &[
    "main",
    "MPI_Barrier",
    "MPI_Waitall",
    "progress",
    "poll",
    "compute",
    "io_wait",
];

fn arbitrary_traces(tasks: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    // Each task gets a call path of 1..6 frame indices into FRAME_POOL.
    traces_of_depth(tasks, 1)
}

/// `tasks` call paths of `min_depth..6` frame indices into FRAME_POOL; a minimum
/// of 0 draws the empty path — a task the walker could not walk — as well.
fn traces_of_depth(tasks: usize, min_depth: usize) -> impl Strategy<Value = Vec<Vec<usize>>> {
    prop::collection::vec(
        prop::collection::vec(0..FRAME_POOL.len(), min_depth..6),
        tasks..=tasks,
    )
}

fn build_global(paths: &[Vec<usize>], table: &mut FrameTable) -> GlobalPrefixTree {
    let mut tree = GlobalPrefixTree::new_global(paths.len() as u64);
    for (rank, path) in paths.iter().enumerate() {
        let names: Vec<&str> = path.iter().map(|&i| FRAME_POOL[i]).collect();
        let trace = StackTrace::new(table.intern_path(&names));
        tree.add_trace(&trace, rank as u64);
    }
    tree
}

/// The definition of a behaviour class, deliberately naive (ROADMAP item 4's
/// reference oracle, first instalment): per node, the tasks on its edge and on no
/// child's edge, one ordered set and one probe per member — no word operations.
fn reference_classes<S: TaskSetOps>(tree: &PrefixTree<S>) -> Vec<EquivalenceClass> {
    use std::collections::BTreeSet;
    let mut classes: Vec<EquivalenceClass> = Vec::new();
    // The root counts: tasks on no child's edge there are the unwalkable ones.
    for node in 0..tree.node_count() {
        let deeper: BTreeSet<u64> = tree
            .children(node)
            .iter()
            .flat_map(|&c| tree.tasks(c).members())
            .collect();
        let tasks: RankSet = tree
            .tasks(node)
            .members()
            .into_iter()
            .filter(|t| !deeper.contains(t))
            .collect();
        if !tasks.is_empty() {
            classes.push(EquivalenceClass {
                path: tree.path_to(node),
                tasks,
            });
        }
    }
    classes.sort_by(|a, b| b.size().cmp(&a.size()).then_with(|| a.path.cmp(&b.path)));
    classes
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_task_is_classified_exactly_once(paths in traces_of_depth(24, 0)) {
        let mut table = FrameTable::new();
        let tree = build_global(&paths, &mut table);
        let classes = equivalence_classes(&tree);
        prop_assert_eq!(&classes, &reference_classes(&tree));
        let mut all: Vec<u64> = classes.iter().flat_map(|c| c.tasks.iter()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..24u64).collect::<Vec<_>>());
    }

    #[test]
    fn global_merge_is_commutative_in_classes(
        left in arbitrary_traces(12),
        right in arbitrary_traces(12),
    ) {
        // Build the two halves over a shared 24-task domain.
        let mut table = FrameTable::new();
        let build_half = |paths: &[Vec<usize>], offset: u64, table: &mut FrameTable| {
            let mut tree = GlobalPrefixTree::new_global(24);
            for (i, path) in paths.iter().enumerate() {
                let names: Vec<&str> = path.iter().map(|&i| FRAME_POOL[i]).collect();
                let trace = StackTrace::new(table.intern_path(&names));
                tree.add_trace(&trace, offset + i as u64);
            }
            tree
        };
        let a = build_half(&left, 0, &mut table);
        let b = build_half(&right, 12, &mut table);

        let mut ab = a.clone();
        ab.merge(b.clone());
        let mut ba = b.clone();
        ba.merge(a.clone());

        let classes_of = |t: &GlobalPrefixTree| {
            let mut cs: Vec<Vec<u64>> =
                equivalence_classes(t).into_iter().map(|c| c.tasks.iter().collect::<Vec<_>>()).collect();
            cs.sort();
            cs
        };
        prop_assert_eq!(classes_of(&ab), classes_of(&ba));
        prop_assert_eq!(ab.node_count(), ba.node_count());
    }

    #[test]
    fn hierarchical_and_global_agree_after_remap(paths in arbitrary_traces(16)) {
        let mut table = FrameTable::new();
        let global = build_global(&paths, &mut table);

        // Split the 16 tasks over 4 "daemons", build subtree trees, merge and remap.
        let mut merged: Option<SubtreePrefixTree> = None;
        let mut rank_map: Vec<u64> = Vec::new();
        for daemon in 0..4usize {
            let mut tree = SubtreePrefixTree::new_subtree(4);
            for local in 0..4usize {
                let rank = daemon * 4 + local;
                let names: Vec<&str> = paths[rank].iter().map(|&i| FRAME_POOL[i]).collect();
                let trace = StackTrace::new(table.intern_path(&names));
                tree.add_trace(&trace, local as u64);
                rank_map.push(rank as u64);
            }
            merged = Some(match merged.take() {
                None => tree,
                Some(mut acc) => {
                    acc.merge(tree);
                    acc
                }
            });
        }
        let remapped = merged.unwrap().remap(&rank_map.into_iter().collect(), 16);

        let classes_of = |t: &GlobalPrefixTree| {
            let mut cs: Vec<Vec<u64>> =
                equivalence_classes(t).into_iter().map(|c| c.tasks.iter().collect::<Vec<_>>()).collect();
            cs.sort();
            cs
        };
        prop_assert_eq!(classes_of(&global), classes_of(&remapped));
    }

    #[test]
    fn dense_and_hierarchical_merges_produce_identical_global_trees(
        // 1..6 daemons, each owning 1..5 tasks with arbitrary call paths — the
        // equivalence guard that licenses the zero-copy merge, the word-level
        // concatenation and the run-copying remap: whatever the daemons saw, the
        // dense merge and the hierarchical merge + remap must build the *same*
        // global tree, node for node and member for member.
        daemons in prop::collection::vec(
            prop::collection::vec(prop::collection::vec(0..FRAME_POOL.len(), 1..6), 1..5),
            1..6,
        ),
        seed in 0u64..1_000,
    ) {
        let total: u64 = daemons.iter().map(|d| d.len() as u64).sum();
        // A seeded permutation assigns every concatenated position an MPI rank.
        let mut rank_map: Vec<u64> = (0..total).collect();
        for i in (1..rank_map.len()).rev() {
            rank_map.swap(i, ((seed.wrapping_mul(i as u64 + 13)) % (i as u64 + 1)) as usize);
        }

        let mut table = FrameTable::new();
        // Dense path: one job-wide tree fed directly with global ranks.
        let mut dense = GlobalPrefixTree::new_global(total);
        // Hierarchical path: per-daemon subtree trees folded with the by-value
        // merge (exactly what the in-network filter chain does), then remapped.
        let mut merged = SubtreePrefixTree::new_subtree(0);
        let mut offset = 0u64;
        for daemon in &daemons {
            let mut local_tree = SubtreePrefixTree::new_subtree(daemon.len() as u64);
            for (local, path) in daemon.iter().enumerate() {
                let names: Vec<&str> = path.iter().map(|&i| FRAME_POOL[i]).collect();
                let trace = StackTrace::new(table.intern_path(&names));
                local_tree.add_trace(&trace, local as u64);
                dense.add_trace(&trace, rank_map[(offset + local as u64) as usize]);
            }
            merged.merge(local_tree);
            offset += daemon.len() as u64;
        }
        let remapped = merged.remap(&rank_map.iter().copied().collect(), total);

        // Identical global trees: same node count, and every node carries the same
        // (path, member set) — leaves included.
        prop_assert_eq!(remapped.node_count(), dense.node_count());
        let shape_of = |t: &GlobalPrefixTree| {
            let mut nodes: Vec<(Vec<_>, Vec<u64>)> = (1..t.node_count())
                .map(|n| (t.path_to(n), t.tasks(n).members()))
                .collect();
            nodes.sort();
            nodes
        };
        prop_assert_eq!(shape_of(&remapped), shape_of(&dense));
        prop_assert_eq!(
            remapped.tasks(remapped.root()).members(),
            dense.tasks(dense.root()).members()
        );
    }

    #[test]
    fn equivalence_classes_partition_arbitrary_merged_trees(
        // 1..6 daemons, each owning 1..5 tasks.  Every task has an arbitrary base
        // call path plus an optional deeper continuation observed in a later
        // sample (the temporal chains real sampling produces: the polling frames
        // recurse further, never onto a sibling branch).  Whatever the daemons
        // saw and however the trees were merged and remapped, the extracted
        // classes must partition 0..tasks: pairwise disjoint, exhaustive, sizes
        // summing to the task count.
        daemons in prop::collection::vec(
            prop::collection::vec(
                (
                    prop::collection::vec(0..FRAME_POOL.len(), 1..6),
                    prop::collection::vec(0..FRAME_POOL.len(), 0..3),
                ),
                1..5,
            ),
            1..6,
        ),
        seed in 0u64..1_000,
    ) {
        let total: u64 = daemons.iter().map(|d| d.len() as u64).sum();
        let mut rank_map: Vec<u64> = (0..total).collect();
        for i in (1..rank_map.len()).rev() {
            rank_map.swap(i, ((seed.wrapping_mul(i as u64 + 3)) % (i as u64 + 1)) as usize);
        }

        let mut table = FrameTable::new();
        let mut dense = GlobalPrefixTree::new_global(total);
        let mut merged = SubtreePrefixTree::new_subtree(0);
        let mut offset = 0u64;
        for daemon in &daemons {
            let mut local_tree = SubtreePrefixTree::new_subtree(daemon.len() as u64);
            for (local, (base, extension)) in daemon.iter().enumerate() {
                let rank = rank_map[(offset + local as u64) as usize];
                let names: Vec<&str> = base.iter().map(|&i| FRAME_POOL[i]).collect();
                let trace = StackTrace::new(table.intern_path(&names));
                local_tree.add_trace(&trace, local as u64);
                dense.add_trace(&trace, rank);
                if !extension.is_empty() {
                    let mut deeper = names.clone();
                    deeper.extend(extension.iter().map(|&i| FRAME_POOL[i]));
                    let trace = StackTrace::new(table.intern_path(&deeper));
                    local_tree.add_trace(&trace, local as u64);
                    dense.add_trace(&trace, rank);
                }
            }
            merged.merge(local_tree);
            offset += daemon.len() as u64;
        }
        let remapped = merged.remap(&rank_map.iter().copied().collect(), total);

        // Both merge paths must produce a true partition of the job.
        for tree in [&dense, &remapped] {
            let classes = equivalence_classes(tree);
            let sizes: usize = classes.iter().map(EquivalenceClass::size).sum();
            prop_assert_eq!(sizes as u64, total, "class sizes must sum to the task count");
            let mut all: Vec<u64> = classes.iter().flat_map(|c| c.tasks.iter()).collect();
            all.sort_unstable();
            // Sorted-equal to 0..total == exhaustive AND pairwise disjoint.
            prop_assert_eq!(all, (0..total).collect::<Vec<u64>>());
        }
    }

    #[test]
    fn equivalence_classes_match_the_naive_reference(
        // 1..6 daemons of 1..5 tasks, each task sampled 1..4 times with an
        // arbitrary call path per sample — the 3D case in full: a task may end at
        // an interior node in one sample and go deeper in another, and may be
        // terminal at several nodes.  The word-level extractor must equal the
        // member-by-member definition — paths, members and order — on the dense
        // tree, on the merged hierarchical tree before remap (subtree positions)
        // and on its remap (MPI ranks).
        daemons in prop::collection::vec(
            prop::collection::vec(
                prop::collection::vec(prop::collection::vec(0..FRAME_POOL.len(), 1..6), 1..4),
                1..5,
            ),
            1..6,
        ),
        seed in 0u64..1_000,
    ) {
        let total: u64 = daemons.iter().map(|d| d.len() as u64).sum();
        let mut rank_map: Vec<u64> = (0..total).collect();
        for i in (1..rank_map.len()).rev() {
            rank_map.swap(i, ((seed.wrapping_mul(i as u64 + 5)) % (i as u64 + 1)) as usize);
        }

        let mut table = FrameTable::new();
        let mut dense = GlobalPrefixTree::new_global(total);
        let mut merged = SubtreePrefixTree::new_subtree(0);
        let mut offset = 0u64;
        for daemon in &daemons {
            let mut local_tree = SubtreePrefixTree::new_subtree(daemon.len() as u64);
            for (local, samples) in daemon.iter().enumerate() {
                for path in samples {
                    let names: Vec<&str> = path.iter().map(|&i| FRAME_POOL[i]).collect();
                    let trace = StackTrace::new(table.intern_path(&names));
                    local_tree.add_trace(&trace, local as u64);
                    dense.add_trace(&trace, rank_map[(offset + local as u64) as usize]);
                }
            }
            merged.merge(local_tree);
            offset += daemon.len() as u64;
        }
        let remapped = merged.remap(&rank_map.iter().copied().collect(), total);

        prop_assert_eq!(equivalence_classes(&dense), reference_classes(&dense));
        prop_assert_eq!(equivalence_classes(&merged), reference_classes(&merged));
        prop_assert_eq!(equivalence_classes(&remapped), reference_classes(&remapped));
    }

    #[test]
    fn wire_format_round_trips_arbitrary_trees(
        paths in arbitrary_traces(20),
        hinted in 0..=FRAME_POOL.len(),
    ) {
        // Negotiate an arbitrary prefix of the vocabulary: the rest of the
        // frames must ship as incremental dictionary records and still resolve.
        let dict = FrameDictionary::negotiate(FRAME_POOL.iter().take(hinted).copied());
        let mut table = FrameTable::new();
        let tree = build_global(&paths, &mut table);
        let bytes = encode_tree(&tree, &table, &dict);
        let (back, frames): (GlobalPrefixTree, WireFrames) = decode_tree(&bytes).unwrap();
        prop_assert_eq!(back.node_count(), tree.node_count());
        prop_assert_eq!(back.width(), tree.width());
        prop_assert_eq!(
            back.tasks(back.root()).members(),
            tree.tasks(tree.root()).members()
        );
        // Re-encoding the decoded tree through its wire frames is a fixed point.
        let bytes2 = encode_merged_tree(&back, &frames);
        prop_assert_eq!(bytes.len(), bytes2.len());
    }

    #[test]
    fn v2_packets_round_trip_and_reject_foreign_versions(
        paths in arbitrary_traces(12),
        version_byte in 0u8..=255,
        cut in 1usize..64,
    ) {
        // Satellite of the frame-length truncation fix: both representations
        // round-trip through v2, and version-mismatched or truncated buffers
        // come back as *typed* errors — never a panic, never a garbage tree.
        let dict = FrameDictionary::negotiate(FRAME_POOL.iter().copied());
        let mut table = FrameTable::new();
        let global = build_global(&paths, &mut table);
        let mut subtree = SubtreePrefixTree::new_subtree(paths.len() as u64);
        for (pos, path) in paths.iter().enumerate() {
            let names: Vec<&str> = path.iter().map(|&i| FRAME_POOL[i]).collect();
            let trace = StackTrace::new(table.intern_path(&names));
            subtree.add_trace(&trace, pos as u64);
        }

        let global_bytes = encode_tree(&global, &table, &dict);
        let subtree_bytes = encode_tree(&subtree, &table, &dict);
        let (g_back, _): (GlobalPrefixTree, WireFrames) = decode_tree(&global_bytes).unwrap();
        let (s_back, _): (SubtreePrefixTree, WireFrames) = decode_tree(&subtree_bytes).unwrap();
        prop_assert_eq!(g_back.node_count(), global.node_count());
        prop_assert_eq!(s_back.node_count(), subtree.node_count());

        // Any foreign version byte is a typed Version error (v2 itself aside).
        let mut foreign = global_bytes.clone();
        foreign[4] = version_byte;
        match decode_tree::<DenseBitVector>(&foreign) {
            Ok(_) => prop_assert_eq!(version_byte, 2),
            Err(DecodeError::Version { found }) => {
                prop_assert_ne!(version_byte, 2);
                prop_assert_eq!(found, version_byte);
            }
            Err(other) => prop_assert!(false, "expected Version, got {other:?}"),
        }

        // Every truncation of the buffer decodes to a typed error, not a tree.
        let keep = global_bytes.len().saturating_sub(cut);
        prop_assert!(decode_tree::<DenseBitVector>(&global_bytes[..keep]).is_err());
    }
}

// ---------------------------------------------------------------------------------
// The daemon-local phase against a trace-by-trace reference (first sync point:
// "after local merge")
// ---------------------------------------------------------------------------------

/// `main` again, equal by content but at another address: the fused walk compares
/// frame names, never pointers.
fn main_twin() -> &'static str {
    static TWIN: std::sync::OnceLock<&'static str> = std::sync::OnceLock::new();
    TWIN.get_or_init(|| Box::leak(String::from("main").into_boxed_str()))
}

/// `main → dispatch → callee` to 80 distinct callees of one `dispatch` frame —
/// far past the fan-out the fused walk scans sibling by sibling.
fn wide_paths() -> &'static [[&'static str; 3]] {
    static PATHS: std::sync::OnceLock<Vec<[&'static str; 3]>> = std::sync::OnceLock::new();
    PATHS.get_or_init(|| {
        (0..80)
            .map(|k| {
                [
                    main_twin(),
                    "dispatch",
                    Box::leak(format!("callee_{k}").into_boxed_str()),
                ]
            })
            .collect()
    })
}

/// An application whose every `(rank, thread, sample)` picks a call path from a
/// drawn pool — empty paths, one name at several depths and direct recursion
/// included — except that even ranks' main threads call through the wide node.
struct PooledApp {
    tasks: u64,
    threads: u32,
    pool: Vec<Vec<&'static str>>,
    seed: u64,
}

impl appsim::Application for PooledApp {
    fn name(&self) -> &str {
        "pooled"
    }
    fn num_tasks(&self) -> u64 {
        self.tasks
    }
    fn threads_per_task(&self) -> u32 {
        self.threads
    }
    fn frame_hints(&self) -> Vec<&'static str> {
        // Part of the vocabulary only: the rest ships as incremental records.
        vec!["main", "solve", "dispatch"]
    }
    fn call_path(&self, rank: u64, thread: u32, sample: u32) -> &[&'static str] {
        if rank.is_multiple_of(2) && thread == 0 {
            let paths = wide_paths();
            let pick = (rank / 2 + 3 * u64::from(sample)) as usize % paths.len();
            return &paths[pick];
        }
        let mixed = (self.seed ^ rank.wrapping_mul(0x9e37_79b9_7f4a_7c15))
            .wrapping_add(u64::from(thread) * 31 + u64::from(sample) * 7);
        &self.pool[(mixed % self.pool.len() as u64) as usize]
    }
}

/// The reference: a path → members map with no tree, no bit vector and no wire.
type PathMembers = std::collections::BTreeMap<Vec<String>, std::collections::BTreeSet<u64>>;

/// The reference local merge of one daemon, trace by trace from `call_path`:
/// task `index_of(position, rank)` joins every prefix of every trace it shows
/// (`3D`) or of its first trace alone (`2D`).
fn reference_local_merge(
    app: &PooledApp,
    ranks: impl IntoIterator<Item = u64>,
    samples: std::ops::Range<u32>,
    index_of: impl Fn(usize, u64) -> u64,
) -> (PathMembers, PathMembers) {
    use appsim::Application;
    // The root exists even when nothing was sampled.
    let mut map_2d = PathMembers::from([(Vec::new(), Default::default())]);
    let mut map_3d = map_2d.clone();
    for (position, rank) in ranks.into_iter().enumerate() {
        let index = index_of(position, rank);
        let mut first = true;
        for sample in samples.clone() {
            for thread in 0..app.threads {
                let path = app.call_path(rank, thread, sample);
                for depth in 0..=path.len() {
                    let prefix: Vec<String> = path[..depth].iter().map(|f| f.to_string()).collect();
                    if first {
                        map_2d.entry(prefix.clone()).or_default().insert(index);
                    }
                    map_3d.entry(prefix).or_default().insert(index);
                }
                first = false;
            }
        }
    }
    (map_2d, map_3d)
}

/// A decoded leaf packet as the same path → members map.
fn decoded_members<S: stat_core::serialize::WireTaskSet>(
    payload: &[u8],
    dict: &FrameDictionary,
) -> PathMembers {
    let (tree, _frames): (PrefixTree<S>, WireFrames) = decode_tree(payload).unwrap();
    let names = dict.snapshot();
    let members: PathMembers = (0..tree.node_count())
        .map(|node| {
            let path = tree
                .path_to(node)
                .iter()
                .map(|&f| names.name(f).to_string())
                .collect();
            (path, tree.tasks(node).members().into_iter().collect())
        })
        .collect();
    // Two nodes with one path would be a malformed prefix tree.
    assert_eq!(members.len(), tree.node_count());
    members
}

fn local_merge_matches_the_reference<S: stat_core::serialize::WireTaskSet>(
    app: &PooledApp,
    daemons: &[StatDaemon],
    samples: u32,
    base: u32,
) {
    use appsim::Application;
    use tbon::packet::EndpointId;
    let dict = FrameDictionary::negotiate(app.frame_hints());
    for daemon in daemons {
        let index_of = |position: usize, rank: u64| {
            if S::CONCATENATES {
                position as u64
            } else {
                rank
            }
        };
        let (want_2d, want_3d) = reference_local_merge(app, &daemon.ranks, 0..samples, index_of);

        // The fused walk, as the session runs it.
        let c = daemon.contribute::<S>(app, samples, EndpointId(daemon.id), &dict);
        let traces = daemon.local_tasks() * u64::from(samples) * u64::from(app.threads);
        assert_eq!(c.traces_gathered, traces);
        assert_eq!(&decoded_members::<S>(&c.tree_2d.payload, &dict), &want_2d);
        assert_eq!(&decoded_members::<S>(&c.tree_3d.payload, &dict), &want_3d);

        // The staged route ships the same bytes.
        let mut table = FrameTable::new();
        let gathered = daemon.gather(app, samples, &mut table);
        let (tree_2d, tree_3d) = daemon.build_trees::<S>(&gathered);
        assert_eq!(
            &encode_tree(&tree_2d, &table, &dict)[..],
            &c.tree_2d.payload[..]
        );
        assert_eq!(
            &encode_tree(&tree_3d, &table, &dict)[..],
            &c.tree_3d.payload[..]
        );

        // ...and keeps to the reference when the sample clock starts at `base`.
        let later =
            appsim::gather_samples_for_ranks_from(app, &daemon.ranks, base, samples, &mut table);
        let (later_2d, later_3d) = daemon.build_trees::<S>(&later);
        let (want_2d, want_3d) =
            reference_local_merge(app, &daemon.ranks, base..base + samples, index_of);
        assert_eq!(
            &decoded_members::<S>(&encode_tree(&later_2d, &table, &dict), &dict),
            &want_2d
        );
        assert_eq!(
            &decoded_members::<S>(&encode_tree(&later_3d, &table, &dict), &dict),
            &want_3d
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn daemon_local_merge_matches_the_trace_by_trace_reference(
        // Every third case is big enough for one daemon to see > 64 distinct
        // callees under `dispatch`.
        tasks in (0u64..3, 0u64..24).prop_map(|(size, t)| if size == 0 { 132 + t } else { 1 + t }),
        threads in 1u32..=3,
        samples in 0u32..=4,
        base in 1u32..=6,
        pool in prop::collection::vec(prop::collection::vec(0usize..6, 0..6), 1..6),
        cuts in prop::collection::vec(0u64..160, 0..4),
        seed in 0u64..1_000_000,
    ) {
        // `main` twice (the literal and its twin), `main` below `solve`, `poll`
        // under `poll`: whatever the indices draw.
        let alphabet = ["main", "solve", "poll", "io_wait", main_twin(), "MPI_Barrier"];
        let pool: Vec<Vec<&'static str>> =
            pool.iter().map(|path| path.iter().map(|&i| alphabet[i]).collect()).collect();
        let app = PooledApp { tasks, threads, pool, seed };

        // A ragged partition (blocks of any size, empty ones included), a daemon
        // whose ranks are neither contiguous nor ascending, and one holding the
        // whole job.
        let mut bounds: Vec<u64> = cuts.iter().map(|c| c % (tasks + 1)).collect();
        bounds.extend([0, tasks]);
        bounds.sort_unstable();
        let mut daemons: Vec<StatDaemon> = bounds
            .windows(2)
            .enumerate()
            .map(|(id, w)| StatDaemon::new(id as u32, (w[0]..w[1]).collect(), tasks))
            .collect();
        daemons.push(StatDaemon::new(90, (0..tasks).rev().step_by(3).collect(), tasks));
        daemons.push(StatDaemon::new(91, (0..tasks).collect(), tasks));

        local_merge_matches_the_reference::<DenseBitVector>(&app, &daemons, samples, base);
        local_merge_matches_the_reference::<SubtreeTaskList>(&app, &daemons, samples, base);

        // The wide node really is wide in the big cases: the whole-job daemon sees
        // more than 64 distinct callees under `dispatch`.
        let job = 0..tasks;
        if tasks >= 132 && samples >= 1 {
            let (_, whole) = reference_local_merge(&app, job.clone(), 0..samples, |_, rank| rank);
            let callees = whole.keys().filter(|p| p.len() == 3 && p[1] == "dispatch").count();
            prop_assert!(callees > 64, "only {callees} callees under dispatch");
        }

        // The fused walk at a sample clock past zero: two waves of a stream fold
        // to the reference 3D merge of sample indices 0..2·samples over the job.
        let per_wave = samples.max(1);
        let (_, want) = reference_local_merge(&app, job, 0..2 * per_wave, |_, rank| rank);
        for representation in [Representation::GlobalBitVector, Representation::HierarchicalTaskList] {
            let healthy = appsim::workloads::all_equivalent(tasks, appsim::FrameVocabulary::Linux);
            let source = appsim::SteadySource::new(
                std::sync::Arc::new(PooledApp { pool: app.pool.clone(), ..app }),
                healthy.ground_truth(),
            );
            let mut stream = Session::builder(machine::cluster::Cluster::test_cluster(16, 8))
                .representation(representation)
                .streaming(per_wave)
                .open(Box::new(source))
                .expect("the stream opens");
            stream.advance().expect("wave 0 advances");
            stream.advance().expect("wave 1 advances");
            let folded: PathMembers = stream
                .incremental_canonical()
                .into_iter()
                .map(|(path, members)| (path, members.into_iter().collect()))
                .collect();
            prop_assert_eq!(&folded, &want);
        }
    }
}

// ---------------------------------------------------------------------------------
// Streaming deltas and temporal folds
// ---------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn tree_deltas_round_trip_to_the_union(
        prev_paths in arbitrary_traces(16),
        next_paths in arbitrary_traces(16),
    ) {
        // The streaming contract (`PrefixTree::delta_from` ↔ `merge_aligned`):
        // whatever a daemon's acknowledged cumulative tree looked like and
        // whatever this wave observed, applying the delta to the old tree
        // reconstructs exactly the union of the two — node for node, member
        // for member.
        let mut table = FrameTable::new();
        let prev = build_global(&prev_paths, &mut table);
        let next = build_global(&next_paths, &mut table);

        let mut expected = prev.clone();
        expected.merge(next.clone());

        let delta = next.delta_from(&prev);
        let mut reconstructed = prev.clone();
        reconstructed.merge_aligned(delta);

        let shape_of = |t: &GlobalPrefixTree| {
            let mut nodes: Vec<(Vec<_>, Vec<u64>)> = (1..t.node_count())
                .map(|n| (t.path_to(n), t.tasks(n).members()))
                .collect();
            nodes.sort();
            nodes
        };
        prop_assert_eq!(shape_of(&reconstructed), shape_of(&expected));
        prop_assert_eq!(
            reconstructed.tasks(reconstructed.root()).members(),
            expected.tasks(expected.root()).members()
        );

        // A fully quiescent wave (nothing new against the union) deltas to a
        // lone empty root, and folding that stub is the identity.
        let quiescent = prev.delta_from(&expected);
        prop_assert_eq!(quiescent.node_count(), 1);
        let before = shape_of(&expected);
        let mut unchanged = expected.clone();
        unchanged.merge_aligned(quiescent);
        prop_assert_eq!(shape_of(&unchanged), before);
    }
}

proptest! {
    // Each case streams a full session; a handful of randomized shapes is
    // plenty on top of the deterministic coverage in tests/streaming.rs.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn waves_of_incremental_folds_equal_one_batched_merge(
        tasks in 16u64..=128,
        fault_wave in 0u32..3,
        extra_waves in 1u32..4,
        rep_choice in 0u8..2,
    ) {
        use appsim::{FaultSchedule, FrameVocabulary};
        use machine::cluster::Cluster;

        let scenario = appsim::scenario::catalogue(tasks, FrameVocabulary::BlueGeneL)
            .into_iter()
            .find(|s| s.name == "ring_hang")
            .expect("the catalogue always carries ring_hang");
        let representation = if rep_choice == 1 {
            Representation::HierarchicalTaskList
        } else {
            Representation::GlobalBitVector
        };
        let mut stream = Session::builder(Cluster::test_cluster(16, 8))
            .representation(representation)
            .streaming(1)
            .open(Box::new(FaultSchedule::new(
                scenario,
                FrameVocabulary::BlueGeneL,
                fault_wave,
            )))
            .expect("the stream opens");

        // However many waves run and wherever the fault lands, the resident
        // state built by folding per-wave deltas equals one batched merge of
        // every daemon's full cumulative tree — at every single wave.
        for _ in 0..(fault_wave + extra_waves) {
            let report = stream.advance().expect("the wave advances");
            prop_assert_eq!(report.covered_tasks, tasks);
            let incremental = stream.incremental_canonical();
            prop_assert!(!incremental.is_empty());
            prop_assert_eq!(incremental, stream.batched_canonical());
        }
    }
}

// ---------------------------------------------------------------------------------
// Topologies
// ---------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn built_topologies_always_validate(backends in 1u32..3_000, depth in 1u32..4) {
        let topo = Topology::build(TreeShape::balanced(backends, depth));
        prop_assert!(topo.validate().is_ok(), "{:?}", topo.validate());
        prop_assert_eq!(topo.backends().len() as u32, backends.max(1));
        prop_assert_eq!(topo.subtree_backends(topo.frontend()), backends.max(1));
    }

    #[test]
    fn explicit_two_deep_specs_validate(backends in 1u32..2_000, comm in 1u32..64) {
        let topo = Topology::build(TreeShape::two_deep(backends, comm));
        prop_assert!(topo.validate().is_ok());
        let total: u32 = topo
            .comm_processes()
            .iter()
            .map(|&cp| topo.node(cp).children.len() as u32)
            .sum();
        prop_assert_eq!(total, backends.max(1));
    }

    #[test]
    fn arbitrary_tree_shapes_build_reachable_trees(
        backends in 1u32..4_096,
        fan_in in 2u32..=64,
        depth in 1u32..=6,
    ) {
        // Any fan-in × depth shape — most of them inexpressible under the old
        // closed Flat/TwoDeep/ThreeDeep enum — must build a structurally valid
        // tree whose levels match the shape exactly.
        let shape = TreeShape::uniform_with_depth(backends, fan_in, depth);
        prop_assert_eq!(shape.depth(), depth);
        let topo = Topology::build(shape.clone());
        prop_assert!(topo.validate().is_ok(), "{:?}", topo.validate());

        // Level widths of the built tree match the shape level for level.
        prop_assert_eq!(topo.levels().len(), shape.level_widths.len());
        for (level, ids) in topo.levels().iter().enumerate() {
            prop_assert_eq!(ids.len() as u32, shape.level_widths[level]);
        }

        // Every backend is reachable from the front end by walking child links.
        let mut seen = vec![false; topo.len()];
        let mut stack = vec![topo.frontend()];
        while let Some(id) = stack.pop() {
            seen[id.0 as usize] = true;
            stack.extend(topo.node(id).children.iter().copied());
        }
        for &backend in topo.backends() {
            prop_assert!(seen[backend.0 as usize], "{} unreachable", backend);
        }

        // The front end's subtree is the whole daemon population.
        prop_assert_eq!(topo.subtree_backends(topo.frontend()), backends.max(1));
        prop_assert_eq!(topo.backends().len() as u32, backends.max(1));
    }
}

/// A shape of depth 1–6 over up to 4,095 backends from arbitrary widths below
/// the root, sanitised as every shape is.
fn arbitrary_shape() -> impl Strategy<Value = TreeShape> {
    prop::collection::vec(1u32..4_096, 1..=6)
        .prop_map(|widths| TreeShape::from_level_widths([vec![1], widths].concat()))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn computed_parents_and_children_agree_both_ways(shape in arbitrary_shape()) {
        // No node table is stored: every relation is computed from the level
        // widths, so the two directions must agree with each other.
        let topo = Topology::build(shape.clone());
        let total: u32 = shape.level_widths.iter().sum();
        prop_assert_eq!(topo.len(), total as usize);
        for node in topo.nodes() {
            for pair in node.children.windows(2) {
                prop_assert_eq!(pair[0].0 + 1, pair[1].0, "{} children not one run", node.id);
            }
            for &child in &node.children {
                prop_assert_eq!(topo.node(child).parent, Some(node.id));
            }
            if let Some(parent) = node.parent {
                prop_assert!(topo.node(parent).children.contains(&node.id));
            }
        }
        for level in topo.levels() {
            let sum: u32 = level.iter().map(|&id| topo.subtree_backends(id)).sum();
            prop_assert_eq!(sum, shape.backends());
        }
        prop_assert!(topo.validate().is_ok(), "{:?}", topo.validate());
    }

    #[test]
    fn the_level_walk_concatenates_the_leaves_in_backend_order(
        shape in arbitrary_shape(),
        pick in 0usize..4,
    ) {
        use tbon::filter::IdentityFilter;
        use tbon::network::{ChannelInput, InProcessTbon};
        use tbon::packet::{Packet, PacketTag};

        let workers = [1, 2, 3, 8][pick];
        let topo = Topology::build(shape);
        let leaves: Vec<Packet> = topo
            .backends()
            .iter()
            .zip(0u32..)
            .map(|(&id, i)| Packet::new(PacketTag::Custom(0), id, i.to_le_bytes().to_vec()))
            .collect();
        let want: Vec<u8> = leaves.iter().flat_map(|p| p.payload.to_vec()).collect();
        let net = InProcessTbon::new(topo).with_workers(workers);
        let channels = vec![
            ChannelInput::new("a", leaves.clone()),
            ChannelInput::new("b", leaves),
        ];
        let outcomes = net
            .reduce_channels(channels, &[&IdentityFilter, &IdentityFilter])
            .expect("the walk completes");
        for outcome in outcomes {
            prop_assert_eq!(outcome.result.payload.to_vec(), want.clone(), "{} workers", workers);
        }
    }
}

// ---------------------------------------------------------------------------------
// File-server queue: bounds on the makespan
// ---------------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn file_server_makespan_obeys_the_queueing_bounds(
        requests in prop::collection::vec((0u64..1_000, 1u64..50), 1..80),
        slots in 1usize..4,
    ) {
        use machine::filesystem::FileSystem;
        use simkit::time::SimDuration;
        let ms = |millis: u64| SimDuration::from_millis(millis as f64);
        let server = |server_slots| FileSystem { server_slots, ..FileSystem::nfs() };
        let queue: Vec<_> = requests.iter().map(|&(at, service)| (ms(at), ms(service))).collect();
        let total_service: SimDuration = queue.iter().map(|&(_, service)| service).sum();
        let makespan = server(slots).drain_time(&queue);

        // The queue can never drain before the last arrival plus its own service, nor
        // before the total service divided by the parallel slots.
        let last_possible = queue.iter().map(|&(at, service)| at + service).max().unwrap();
        prop_assert!(makespan >= last_possible);
        prop_assert!(makespan.as_secs() >= total_service.as_secs() / slots as f64);
        // Adding a slot never lengthens it.
        prop_assert!(server(slots + 1).drain_time(&queue) <= makespan);
        // One slot with everything queued at time zero serves the requests back to back.
        let at_zero: Vec<_> = queue.iter().map(|&(_, service)| (SimDuration::ZERO, service)).collect();
        prop_assert_eq!(server(1).drain_time(&at_zero), total_service);
    }
}
