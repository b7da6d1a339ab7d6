//! Process equivalence classes.
//!
//! STAT exists to shrink a debugging problem: instead of attaching a heavyweight
//! debugger to 208K processes, attach it to one representative of each *behaviour
//! class*.  A behaviour class is simply a distinct root-to-leaf path of the merged
//! prefix tree together with the set of tasks on it; the ring hang, for instance,
//! collapses 212,992 tasks into three classes (barrier / waitall / stalled-send), and
//! the user debugs three processes.

use stackwalk::{FrameId, FrameTable};

use crate::graph::{GlobalPrefixTree, PrefixTree};
use crate::taskset::{format_rank_ranges, TaskSetOps};

/// One behaviour class: a call path and the tasks that exhibit it.
#[derive(Clone, Debug, PartialEq)]
pub struct EquivalenceClass {
    /// The call path, outermost frame first.
    pub path: Vec<FrameId>,
    /// The member tasks, ascending.  For a global tree these are MPI ranks; for a
    /// subtree tree they are subtree-local positions (remap before presenting them).
    pub tasks: Vec<u64>,
}

impl EquivalenceClass {
    /// Number of member tasks.
    pub fn size(&self) -> usize {
        self.tasks.len()
    }

    /// A representative task to hand to a heavyweight debugger (the smallest member,
    /// matching STAT's default of picking the lowest rank).
    pub fn representative(&self) -> Option<u64> {
        self.tasks.first().copied()
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
        format_rank_ranges(&self.tasks, 8)
    }
}

/// Extract the behaviour classes of a merged tree.
///
/// A task belongs to the class of the *deepest* node its traces reach: for every
/// node, the class members are the tasks on that node's incoming edge that do not
/// appear on any of its children's edges.  (Taking only leaves would mis-classify a
/// task whose entire trace is a prefix of some other task's trace.)
pub fn equivalence_classes<S: TaskSetOps>(tree: &PrefixTree<S>) -> Vec<EquivalenceClass> {
    let mut classes: Vec<EquivalenceClass> = Vec::new();
    for (node, _, _) in tree.iter_nodes() {
        let deeper: std::collections::HashSet<u64> = tree
            .children(node)
            .iter()
            .flat_map(|&c| tree.tasks(c).iter_members())
            .collect();
        let terminal: Vec<u64> = tree
            .tasks(node)
            .iter_members()
            .filter(|t| !deeper.contains(t))
            .collect();
        if !terminal.is_empty() {
            classes.push(EquivalenceClass {
                path: tree.path_to(node),
                tasks: terminal,
            });
        }
    }
    // Largest classes first: the user looks at the outliers (smallest classes) last
    // in the visualisation but the sort makes reports deterministic.
    classes.sort_by(|a, b| {
        b.tasks
            .len()
            .cmp(&a.tasks.len())
            .then_with(|| a.path.cmp(&b.path))
    });
    classes
}

/// Pick the minimal set of representative ranks a heavyweight debugger should attach
/// to: one per class.  This is the "reduce the problem search space to a manageable
/// subset of tasks" step of the paper's petascale debugging strategy.
pub fn debugger_attach_set(tree: &GlobalPrefixTree) -> Vec<u64> {
    let mut reps: Vec<u64> = equivalence_classes(tree)
        .iter()
        .filter_map(EquivalenceClass::representative)
        .collect();
    reps.sort_unstable();
    reps.dedup();
    reps
}

#[cfg(test)]
mod tests {
    use super::*;
    use appsim::{gather_samples, Application, FrameVocabulary, RingHangApp};

    fn ring_tree(tasks: u64) -> (GlobalPrefixTree, FrameTable) {
        // Three samples per task, merged into the 3D tree — the same tree the front
        // end extracts classes from.
        let app = RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
        let mut table = FrameTable::new();
        let samples = gather_samples(&app, 3, &mut table);
        let mut tree = GlobalPrefixTree::new_global(app.num_tasks());
        for s in &samples {
            tree.add_samples(s, s.rank);
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
        let singles: Vec<u64> = classes[1..].iter().flat_map(|c| c.tasks.clone()).collect();
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
        let attach = debugger_attach_set(&tree);
        assert_eq!(attach.len(), 3);
        assert!(
            attach.contains(&0),
            "barrier class representative is rank 0"
        );
        assert!(attach.contains(&1));
        assert!(attach.contains(&2));
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
    }
}
