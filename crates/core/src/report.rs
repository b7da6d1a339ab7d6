//! Textual reports and interactive-style tree operations.
//!
//! STAT's GUI lets the user *work* the merged tree: read it as an indented outline,
//! hide the uninteresting bulk (nodes covering nearly every task), zoom into one
//! branch, and export a summary for the bug report.  This module provides those
//! operations for the reproduction's command-line examples: an ASCII rendering of the
//! prefix tree with Figure 1-style edge labels, population-threshold pruning, path
//! focusing, and a one-page session summary.

use stackwalk::FrameTable;

use crate::equivalence::equivalence_classes;
use crate::frontend::GatherResult;
use crate::graph::{NodeIdx, PrefixTree};
use crate::taskset::{format_rank_ranges, TaskSetOps};

/// Render a prefix tree as an indented outline, one node per line, with the same
/// `count:[ranges]` labels the DOT output uses.
pub fn render_text_tree<S: TaskSetOps>(tree: &PrefixTree<S>, table: &FrameTable) -> String {
    let mut out = String::new();
    render_node(tree, table, tree.root(), 0, &mut out);
    out
}

fn render_node<S: TaskSetOps>(
    tree: &PrefixTree<S>,
    table: &FrameTable,
    node: NodeIdx,
    depth: usize,
    out: &mut String,
) {
    if node == tree.root() {
        out.push_str(&format!("/ ({} tasks)\n", tree.tasks(node).count()));
    } else {
        let name = tree.frame(node).map(|f| table.name(f)).unwrap_or("<root>");
        let label = format_rank_ranges(tree.tasks(node).iter_members(), 4);
        out.push_str(&format!("{}{name}  {label}\n", "  ".repeat(depth)));
    }
    for &child in tree.children(node) {
        render_node(tree, table, child, depth + 1, out);
    }
}

/// Return a copy of the tree containing only nodes whose task population is at least
/// `min_tasks`.  This is how a user hides the "everyone is in the barrier" bulk and
/// looks at the outliers — or, with a high threshold, does the opposite.
pub fn prune_by_population<S: TaskSetOps>(tree: &PrefixTree<S>, min_tasks: u64) -> PrefixTree<S> {
    filtered_copy(tree, &mut |t, n| t.tasks(n).count() >= min_tasks)
}

/// Return a copy of the tree containing only the subtree(s) whose paths start with
/// the given frame prefix (by name).  An empty prefix copies the whole tree.
pub fn focus_on_path<S: TaskSetOps>(
    tree: &PrefixTree<S>,
    table: &FrameTable,
    prefix: &[&str],
) -> PrefixTree<S> {
    filtered_copy(tree, &mut |t, n| {
        // Keep a node if its path is a prefix of the filter, or the filter is a
        // prefix of its path (i.e. it lies on or below the focused branch).
        let path: Vec<&str> = t.path_to(n).iter().map(|&f| table.name(f)).collect();
        let shared = path
            .iter()
            .zip(prefix.iter())
            .take_while(|(a, b)| a == b)
            .count();
        shared == path.len().min(prefix.len())
    })
}

/// A copy of `tree` over the same domain holding the root and every node that
/// `keep` accepts along with all of its ancestors.
fn filtered_copy<S: TaskSetOps>(
    tree: &PrefixTree<S>,
    keep: &mut dyn FnMut(&PrefixTree<S>, NodeIdx) -> bool,
) -> PrefixTree<S> {
    let mut out = PrefixTree::<S>::new(tree.width());
    out.replace_tasks(0, tree.tasks(tree.root()).clone());
    copy_filtered(tree, tree.root(), &mut out, 0, keep);
    out
}

fn copy_filtered<S: TaskSetOps>(
    src: &PrefixTree<S>,
    src_node: NodeIdx,
    dst: &mut PrefixTree<S>,
    dst_node: NodeIdx,
    keep: &mut dyn FnMut(&PrefixTree<S>, NodeIdx) -> bool,
) {
    for &child in src.children(src_node) {
        if !keep(src, child) {
            continue;
        }
        let frame = src.frame(child).expect("non-root nodes have frames");
        let new_child = dst.append_node(dst_node, frame);
        dst.replace_tasks(new_child, src.tasks(child).clone());
        copy_filtered(src, child, dst, new_child, keep);
    }
}

/// A one-page textual summary of a gather, suitable for a terminal or a bug report.
pub fn session_summary(result: &GatherResult, total_tasks: u64) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "STAT gather over {total_tasks} tasks: {} behaviour classes\n",
        result.classes.len()
    ));
    for class in &result.classes {
        out.push_str(&format!(
            "  {:>20}  {}\n",
            class.tasks_string(),
            class.path_string(&result.frames)
        ));
    }
    out.push_str(&format!(
        "\nattach set (one representative per class): {:?}\n",
        result.attach_set()
    ));
    out.push_str(&format!(
        "merge: {:?} wall, {} bytes into the front end, {} bytes across the overlay\n",
        result.metrics.merge_wall,
        result.metrics.frontend_bytes_in,
        result.metrics.total_link_bytes
    ));
    if !result.metrics.remap_wall.is_zero() {
        out.push_str(&format!("remap: {:?}\n", result.metrics.remap_wall));
    }
    out.push_str(&format!(
        "2D tree: {} nodes; 3D tree: {} nodes\n",
        result.tree_2d.node_count(),
        result.tree_3d.node_count()
    ));
    out
}

/// The number of classes a pruned view would show — a quick way for examples and
/// tests to ask "how much does the threshold hide?".
pub fn classes_above<S: TaskSetOps>(tree: &PrefixTree<S>, min_tasks: u64) -> usize {
    equivalence_classes(&prune_by_population(tree, min_tasks)).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GlobalPrefixTree;
    use appsim::{gather_samples, Application, FrameVocabulary, RingHangApp};

    fn ring_tree(tasks: u64) -> (GlobalPrefixTree, FrameTable) {
        let app = RingHangApp::new(tasks, FrameVocabulary::BlueGeneL);
        let mut table = FrameTable::new();
        let samples = gather_samples(&app, 3, &mut table);
        let mut tree = GlobalPrefixTree::new_global(app.num_tasks());
        for s in &samples {
            for trace in &s.traces {
                tree.add_trace(trace, s.rank);
            }
        }
        (tree, table)
    }

    #[test]
    fn text_rendering_contains_every_frame_once_per_node() {
        let (tree, table) = ring_tree(64);
        let text = render_text_tree(&tree, &table);
        assert!(text.starts_with("/ (64 tasks)"));
        assert!(text.contains("do_SendOrStall"));
        assert!(text.contains("PMPI_Waitall"));
        // One line per node.
        assert_eq!(text.lines().count(), tree.node_count());
    }

    #[test]
    fn pruning_hides_small_populations() {
        let (tree, _) = ring_tree(256);
        // Keep only nodes covering at least 10 tasks: the two singleton branches
        // (ranks 1 and 2) disappear, and those ranks now terminate at `main`.
        let pruned = prune_by_population(&tree, 10);
        assert!(pruned.node_count() < tree.node_count());
        let classes = equivalence_classes(&pruned);
        assert_eq!(classes.len(), 2);
        assert_eq!(classes[0].size(), 254);
        assert_eq!(classes[1].tasks, vec![1, 2]);
        // A threshold of 1 keeps everything.
        assert_eq!(
            prune_by_population(&tree, 1).node_count(),
            tree.node_count()
        );
    }

    #[test]
    fn focusing_isolates_one_branch() {
        let (tree, table) = ring_tree(128);
        let focused = focus_on_path(&tree, &table, &["_start_blrts", "main", "do_SendOrStall"]);
        let classes = equivalence_classes(&focused);
        // The focused branch keeps the hung rank's path; every other rank now
        // terminates at `main` (their branches were cut away).
        assert_eq!(classes.len(), 2);
        let singleton = classes.iter().find(|c| c.size() == 1).unwrap();
        assert_eq!(singleton.tasks, vec![1]);
        // Focusing on the empty prefix copies everything.
        let all = focus_on_path(&tree, &table, &[]);
        assert_eq!(all.node_count(), tree.node_count());
    }

    #[test]
    fn classes_above_summarises_the_threshold_effect() {
        let (tree, _) = ring_tree(512);
        assert_eq!(classes_above(&tree, 1), 3);
        // Above a threshold of 2, the two outlier ranks fold back into the spine,
        // leaving the barrier class plus a residual {1, 2} class at `main`.
        assert_eq!(classes_above(&tree, 2), 2);
        // Above the job size every branch is cut and all 512 ranks fold back into
        // the root: one class with the empty path, not zero classes.
        assert_eq!(classes_above(&tree, 10_000), 1);
    }

    #[test]
    fn session_summary_names_the_culprit() {
        let app = RingHangApp::new(128, FrameVocabulary::BlueGeneL);
        let session =
            crate::session::Session::builder(machine::Cluster::test_cluster(16, 8)).build();
        let result = session.attach(&app).unwrap();
        let summary = session_summary(&result.gather, 128);
        assert!(summary.contains("3 behaviour classes"));
        assert!(summary.contains("do_SendOrStall"));
        assert!(summary.contains("attach set"));
    }
}
