//! Process equivalence classes.
//!
//! STAT exists to shrink a debugging problem: instead of attaching a heavyweight
//! debugger to 208K processes, attach it to one representative of each *behaviour
//! class*.  A behaviour class is simply a distinct root-to-leaf path of the merged
//! prefix tree together with the set of tasks on it; the ring hang, for instance,
//! collapses 212,992 tasks into three classes (barrier / waitall / stalled-send), and
//! the user debugs three processes.
//!
//! ## Word-level definition
//!
//! A task belongs to the class of the *deepest* node its traces reach, so a node's
//! class is its **remainder**: `tasks(node) AND NOT (tasks(child₁) OR tasks(child₂)
//! …)`.  Edge labels are packed bit vectors, so the remainder is one
//! `TaskSetOps::subtract` per child into a reusable scratch copy of the node's
//! label and one `TaskSetOps::is_empty_set` to skip the (overwhelmingly common)
//! empty result — O(Σ_nodes (1 + children) × words), 16,384 word operations per node
//! at a million tasks.  A class keeps its remainder as a [`RankSet`], words or
//! listed members, whichever are fewer: one job-wide bitmap for the healthy crowd,
//! one word for the hung rank, never more than its members listed.  (The per-member
//! hash-set formulation this replaced survives as the tests' reference.)

use stackwalk::{FrameId, FrameTable, RankSet};

use crate::graph::PrefixTree;
use crate::serialize::WireTaskSet;
use crate::taskset::format_rank_ranges;

/// One behaviour class: a call path and the set of tasks that exhibit it, the
/// merged tree's remainder at the path's node (MPI ranks for a global tree;
/// subtree-local positions for a subtree tree, to remap before presenting them).
#[derive(Clone, Debug, PartialEq)]
pub struct EquivalenceClass {
    /// The call path, outermost frame first.
    pub path: Vec<FrameId>,
    /// The member tasks, as words or listed, whichever is smaller.
    pub tasks: RankSet,
}

impl EquivalenceClass {
    /// Number of member tasks.
    pub fn size(&self) -> usize {
        self.tasks.len() as usize
    }

    /// A representative task to hand to a heavyweight debugger (the smallest member,
    /// matching STAT's default of picking the lowest rank).
    pub fn representative(&self) -> Option<u64> {
        self.tasks.iter().next()
    }

    /// Render the path as `frame > frame > frame`.
    pub fn path_string(&self, table: &FrameTable) -> String {
        self.path
            .iter()
            .map(|&f| table.name(f))
            .collect::<Vec<_>>()
            .join(" > ")
    }

    /// Render the member set the way Figure 1 labels edges.
    pub fn tasks_string(&self) -> String {
        format_rank_ranges(self.tasks.iter(), 8)
    }
}

/// Extract the behaviour classes of a merged tree.
///
/// A task belongs to the class of the *deepest* node its traces reach: for every
/// node, the class members are the tasks on that node's incoming edge that do not
/// appear on any of its children's edges.  (Taking only leaves would mis-classify a
/// task whose entire trace is a prefix of some other task's trace.)  The root
/// counts: its remainder is the tasks whose every trace was empty, the class of the
/// empty path.  Every label of a tree shares its width, so one scratch set serves
/// every interior node; a class keeps [`RankSet::from_words`] of its remainder.
///
/// Classes are ordered largest first, ties by path.
pub fn equivalence_classes<S: WireTaskSet>(tree: &PrefixTree<S>) -> Vec<EquivalenceClass> {
    let (mut classes, mut scratch) = (Vec::new(), S::empty(0));
    for node in 0..tree.node_count() {
        let remainder = match tree.children(node) {
            [] => tree.tasks(node),
            children => {
                scratch.clone_from(tree.tasks(node));
                children
                    .iter()
                    .for_each(|&c| scratch.subtract(tree.tasks(c)));
                &scratch
            }
        };
        if !remainder.is_empty_set() {
            let tasks = RankSet::from_words(remainder.words());
            let path = tree.path_to(node);
            classes.push(EquivalenceClass { path, tasks });
        }
    }
    // Largest classes first: the user looks at the outliers (smallest classes) last
    // in the visualisation but the sort makes reports deterministic.
    classes.sort_by(|a, b| b.size().cmp(&a.size()).then_with(|| a.path.cmp(&b.path)));
    classes
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::frontend::{GatherResult, MergeMetrics, Representation};
    use crate::graph::GlobalPrefixTree;
    use crate::session::Session;
    use crate::taskset::{DenseBitVector, SubtreeTaskList, TaskSetOps};
    use appsim::{gather_samples_for_ranks, Application, FrameVocabulary, RingHangApp};
    use machine::{BglMode, Cluster};
    use stackwalk::StackTrace;

    /// The definition, deliberately naive — per node, the tasks on its edge and on
    /// no child's edge, one ordered set and one probe per member.  This is the loop
    /// the word-level walker replaced; it stays as the oracle.
    fn reference_classes<S: TaskSetOps>(tree: &PrefixTree<S>) -> Vec<EquivalenceClass> {
        let mut classes: Vec<EquivalenceClass> = Vec::new();
        for node in 0..tree.node_count() {
            let deeper: BTreeSet<u64> = tree
                .children(node)
                .iter()
                .flat_map(|&c| tree.tasks(c).iter_members())
                .collect();
            let members = tree.tasks(node).iter_members();
            let tasks: RankSet = members.filter(|t| !deeper.contains(t)).collect();
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

    fn ring_tree(tasks: u64) -> (GlobalPrefixTree, FrameTable) {
        // Three samples per task, merged into the 3D tree — the same tree the front
        // end extracts classes from.  Sampled a block of ranks at a time so the
        // million-task tree never holds three million traces at once.
        let app = RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
        let mut table = FrameTable::new();
        let mut tree = GlobalPrefixTree::new_global(app.num_tasks());
        let ranks: Vec<u64> = (0..tasks).collect();
        for block in ranks.chunks(4_096) {
            for s in gather_samples_for_ranks(&app, block.iter().copied(), 3, &mut table) {
                for trace in &s.traces {
                    tree.add_trace(trace, s.rank);
                }
            }
        }
        (tree, table)
    }

    /// [`GatherResult::attach_set`] of a bare merged tree.
    fn attach_set(tree: &GlobalPrefixTree) -> Vec<u64> {
        GatherResult {
            tree_2d: tree.clone(),
            tree_3d: tree.clone(),
            frames: FrameTable::new(),
            classes: equivalence_classes(tree),
            metrics: MergeMetrics::default(),
        }
        .attach_set()
    }

    /// A tree over `width` positions built from `(position, call path)` traces.
    fn tree_of<S: TaskSetOps>(
        width: u64,
        traces: &[(u64, &[&str])],
    ) -> (PrefixTree<S>, FrameTable) {
        let mut table = FrameTable::new();
        let mut tree = PrefixTree::<S>::new(width);
        for &(task, path) in traces {
            tree.add_trace(&StackTrace::new(table.intern_path(path)), task);
        }
        (tree, table)
    }

    #[test]
    fn ring_hang_collapses_to_three_classes() {
        let (tree, table) = ring_tree(1_024);
        let classes = equivalence_classes(&tree);
        assert_eq!(classes.len(), 3);
        // Largest class: everyone in the barrier.
        assert_eq!(classes[0].size(), 1_022);
        assert!(classes[0].path_string(&table).contains("PMPI_Barrier"));
        // The two singletons are ranks 1 and 2.
        let singles: Vec<u64> = classes[1..].iter().flat_map(|c| c.tasks.iter()).collect();
        assert_eq!(
            {
                let mut s = singles.clone();
                s.sort_unstable();
                s
            },
            vec![1, 2]
        );
    }

    #[test]
    fn attach_set_is_one_task_per_class() {
        let (tree, _) = ring_tree(4_096);
        // Ascending: the barrier class's representative (rank 0), then the hung
        // rank and its victim.
        assert_eq!(attach_set(&tree), vec![0, 1, 2]);
    }

    #[test]
    fn attach_set_lists_a_rank_that_leads_two_classes_once() {
        // Rank 0 ends at two sibling leaves, so it is the lowest member — the
        // representative — of both `main > send` and `main > recv`.
        let (tree, table): (GlobalPrefixTree, _) = tree_of(
            2,
            &[
                (0, &["main", "send"]),
                (0, &["main", "recv"]),
                (1, &["main", "recv"]),
            ],
        );
        let classes = equivalence_classes(&tree);
        let paths: Vec<String> = classes.iter().map(|c| c.path_string(&table)).collect();
        assert_eq!(paths, ["main > recv", "main > send"]);
        assert_eq!(attach_set(&tree), vec![0]);
    }

    #[test]
    fn classes_compress_the_job() {
        let (tree, _) = ring_tree(512);
        let classes = equivalence_classes(&tree);
        assert_eq!(tree.tasks(tree.root()).count(), 512);
        let sizes: Vec<usize> = classes.iter().map(EquivalenceClass::size).collect();
        // Largest first: the barrier crowd, then the two singletons.
        assert_eq!(sizes, vec![510, 1, 1]);
    }

    #[test]
    fn class_rendering_matches_figure_1_style() {
        let (tree, table) = ring_tree(1_024);
        let classes = equivalence_classes(&tree);
        let barrier = &classes[0];
        assert!(barrier.tasks_string().starts_with("1022:[0,3-"));
        assert!(barrier
            .path_string(&table)
            .starts_with("_start_blrts > main"));
        assert_eq!(barrier.representative(), Some(0));
    }

    #[test]
    fn empty_tree_has_no_classes() {
        let tree = GlobalPrefixTree::new_global(8);
        assert!(equivalence_classes(&tree).is_empty());
        assert!(attach_set(&tree).is_empty());
    }

    #[test]
    fn a_strict_prefix_trace_forms_its_class_at_the_interior_node() {
        // Task 0 stops in `main`; tasks 1 and 2 go on into `solve`.
        let (tree, table): (GlobalPrefixTree, _) = tree_of(
            3,
            &[
                (0, &["main"]),
                (1, &["main", "solve"]),
                (2, &["main", "solve"]),
            ],
        );
        let classes = equivalence_classes(&tree);
        assert_eq!(classes, reference_classes(&tree));
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].path_string(&table), "main > solve");
        assert_eq!(classes[0].tasks, [1, 2].into_iter().collect());
        assert_eq!(classes[1].path_string(&table), "main");
        assert_eq!(classes[1].tasks, [0].into_iter().collect());
        assert_eq!(attach_set(&tree), vec![0, 1]);
    }

    #[test]
    fn unwalkable_tasks_form_a_root_class() {
        // Tasks 1 and 3 could never be walked: every trace of theirs is empty, so
        // they are counted at the root and nowhere below it.  Task 2 was unwalkable
        // once but seen in `main` later — it belongs to `main`.
        let (tree, _): (GlobalPrefixTree, _) = tree_of(
            4,
            &[
                (0, &["main"]),
                (1, &[]),
                (2, &[]),
                (2, &["main"]),
                (3, &[]),
                (3, &[]),
            ],
        );
        let classes = equivalence_classes(&tree);
        assert_eq!(classes, reference_classes(&tree));
        assert_eq!(classes.len(), 2);
        // Equal sizes tie-break by path, and the empty path sorts first.
        assert!(classes[0].path.is_empty());
        assert_eq!(classes[0].tasks, [1, 3].into_iter().collect());
        assert_eq!(classes[0].path_string(&FrameTable::new()), "");
        assert_eq!(classes[1].tasks, [0, 2].into_iter().collect());
        // The debugger is offered one of the tasks the tool could not walk.
        assert_eq!(attach_set(&tree), vec![0, 1]);
    }

    #[test]
    fn a_node_whose_every_member_continues_yields_no_class() {
        // Everyone passes through `main` into one of two children: `main` has a
        // full label and an empty remainder.
        let (tree, table): (GlobalPrefixTree, _) = tree_of(
            4,
            &[
                (0, &["main", "send"]),
                (1, &["main", "recv"]),
                (2, &["main", "recv"]),
                (3, &["main", "recv", "poll"]),
                // 3D: task 3 is also seen one frame shallower, so it is terminal
                // at `recv`'s child only.
                (3, &["main", "recv"]),
            ],
        );
        let classes = equivalence_classes(&tree);
        assert_eq!(classes, reference_classes(&tree));
        let paths: Vec<String> = classes.iter().map(|c| c.path_string(&table)).collect();
        assert_eq!(paths, ["main > recv", "main > send", "main > recv > poll"]);
        assert_eq!(classes[0].tasks, [1, 2].into_iter().collect());
    }

    /// Every position of a `width`-wide tree is classified exactly once, under
    /// both label types — position `i` ends at depth `1 + i % 3` of a shared spine,
    /// so classes form at interior nodes and straddle the last, partial word.
    fn assert_ragged_width_partitions<S: WireTaskSet>(width: u64) {
        let spine = ["main", "step", "wait"];
        let traces: Vec<(u64, &[&str])> = (0..width)
            .map(|i| (i, &spine[..1 + (i % 3) as usize]))
            .collect();
        let (tree, _): (PrefixTree<S>, _) = tree_of(width, &traces);
        let classes = equivalence_classes(&tree);
        assert_eq!(classes, reference_classes(&tree));
        assert_eq!(classes.len(), 3);
        let mut all: Vec<u64> = classes.iter().flat_map(|c| c.tasks.iter()).collect();
        all.sort_unstable();
        assert_eq!(all, (0..width).collect::<Vec<u64>>());
    }

    #[test]
    fn widths_that_are_not_a_multiple_of_64_classify_every_rank_once() {
        for width in [65, 1_000] {
            assert_ragged_width_partitions::<DenseBitVector>(width);
            assert_ragged_width_partitions::<SubtreeTaskList>(width);
        }
    }

    #[test]
    fn many_small_classes_are_the_reference_classes() {
        // Ranks dealt round robin over 256 paths: each class holds 16 of 4,096
        // ranks, fewer than a job-wide set's 64 words, so each is kept as a list.
        let paths: Vec<[String; 2]> = (0..256).map(|k| ["main".into(), format!("k{k}")]).collect();
        let traces: Vec<Vec<&str>> = paths.iter().map(|p| vec![&*p[0], &*p[1]]).collect();
        let traces: Vec<(u64, &[&str])> = (0..4_096)
            .map(|r| (r, &*traces[r as usize % 256]))
            .collect();
        let (tree, _): (GlobalPrefixTree, _) = tree_of(4_096, &traces);
        let classes = equivalence_classes(&tree);
        assert_eq!(classes, reference_classes(&tree));
        assert_eq!(classes.len(), 256);
        assert!(classes.iter().all(|c| c.size() == 16));
        let ranks: Vec<u64> = (0..16).map(|i| 5 + 256 * i).collect();
        assert!(classes
            .iter()
            .any(|c| c.tasks.iter().eq(ranks.iter().copied())));
    }

    #[test]
    fn a_million_task_ring_hang_classifies_word_by_word() {
        // Affordable as a unit test only because classification no longer touches
        // members: 16,384 words per node, not a million hash probes.
        const TASKS: u64 = 1_048_576;
        let (tree, _) = ring_tree(TASKS);
        let classes = equivalence_classes(&tree);
        let sizes: Vec<usize> = classes.iter().map(EquivalenceClass::size).collect();
        assert_eq!(sizes.first().copied(), sizes.iter().copied().max());
        let single = |rank| {
            let mut singletons = classes.iter().filter(|c| c.size() == 1);
            singletons.any(|c| c.representative() == Some(rank))
        };
        assert!(single(1), "the hung rank");
        assert!(single(2), "its victim");
        // The classes cover 0..TASKS exactly: no class reaches past the job, and
        // sizes summing to the covered count rules out a double count.
        let covered = RankSet::union_of(classes.iter().map(|c| &c.tasks));
        assert_eq!((covered.len(), covered.last()), (TASKS, Some(TASKS - 1)));
        assert_eq!(sizes.iter().sum::<usize>() as u64, TASKS);

        let attach = attach_set(&tree);
        assert_eq!(attach.len(), classes.len());
        assert!([0, 1, 2].iter().all(|rank| attach.contains(rank)));
    }

    #[test]
    fn a_real_attach_reports_the_reference_classes() {
        // `GatherResult::classes` through the whole pipeline — sample, local merge,
        // TBON reduce, remap — equals the naive reference, element for element.
        for (cluster, tasks) in [
            (Cluster::test_cluster(128, 8), 1_024),
            (Cluster::bluegene_l(BglMode::CoProcessor), 65_536),
        ] {
            let app = RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
            for representation in [
                Representation::GlobalBitVector,
                Representation::HierarchicalTaskList,
            ] {
                let gather = Session::builder(cluster.clone())
                    .representation(representation)
                    .build()
                    .attach(&app)
                    .unwrap()
                    .gather;
                assert_eq!(gather.classes.len(), 3);
                assert_eq!(gather.classes, reference_classes(&gather.tree_3d));
            }
        }
    }
}
