//! Graphviz (DOT) rendering of merged prefix trees.
//!
//! STAT presents its result as a call-graph prefix tree drawing: nodes are frames,
//! edges are labelled `count:[rank ranges]` — Figure 1 of the paper is exactly such a
//! drawing.  The reproduction emits standard DOT so the examples can be piped through
//! `dot -Tpdf` (or simply read as text, which is how EXPERIMENTS.md embeds the
//! Figure 1 reproduction).

use stackwalk::FrameTable;

use crate::graph::PrefixTree;
use crate::taskset::{format_rank_ranges, TaskSetOps};

/// Rank ranges printed per edge label before truncating with `...`.
const MAX_RANGES: usize = 6;

/// Render a tree to DOT, colouring nodes by the size of their task set (STAT's
/// red/blue palette).
pub fn to_dot<S: TaskSetOps>(tree: &PrefixTree<S>, table: &FrameTable) -> String {
    let total = tree.tasks(tree.root()).count().max(1);
    let mut out = String::new();
    out.push_str("digraph stat_prefix_tree {\n");
    out.push_str("  node [shape=box, fontname=\"Helvetica\"];\n");
    // The synthetic root, drawn as "/" like STAT's GUI.
    out.push_str("  n0 [label=\"/\", style=filled, fillcolor=lightgrey];\n");
    for (idx, frame, parent) in tree.iter_nodes() {
        let name = table.name(frame);
        let tasks = tree.tasks(idx);
        let label = format_rank_ranges(tasks.iter_members(), MAX_RANGES);
        let color = population_color(tasks.count(), total);
        out.push_str(&format!(
            "  n{idx} [label=\"{}\", style=filled, fillcolor=\"{color}\"];\n",
            escape(name)
        ));
        out.push_str(&format!(
            "  n{parent} -> n{idx} [label=\"{}\"];\n",
            escape(&label)
        ));
    }
    out.push_str("}\n");
    out
}

fn population_color(count: u64, total: u64) -> String {
    // Full population = cool blue; singletons = warm red; in between = orange-ish.
    let frac = count as f64 / total as f64;
    if frac >= 0.999 {
        "#a0c4ff".to_string()
    } else if count <= 1 {
        "#ff6b6b".to_string()
    } else if frac < 0.1 {
        "#ffa94d".to_string()
    } else {
        "#ffe066".to_string()
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frontend::Representation;
    use crate::graph::GlobalPrefixTree;
    use crate::session::Session;
    use appsim::{gather_samples_for_ranks, Application, FrameVocabulary, RingHangApp};
    use machine::{BglMode, Cluster};
    use stackwalk::FrameTable;

    fn figure_1_tree() -> (GlobalPrefixTree, FrameTable) {
        let app = RingHangApp::new(1_024, FrameVocabulary::BlueGeneL);
        let mut table = FrameTable::new();
        let samples = gather_samples_for_ranks(&app, 0..app.num_tasks(), 3, &mut table);
        let mut tree = GlobalPrefixTree::new_global(app.num_tasks());
        for s in &samples {
            for trace in &s.traces {
                tree.add_trace(trace, s.rank);
            }
        }
        (tree, table)
    }

    #[test]
    fn dot_output_contains_figure_1_landmarks() {
        let (tree, table) = figure_1_tree();
        let dot = to_dot(&tree, &table);
        assert!(dot.starts_with("digraph stat_prefix_tree {"));
        assert!(dot.contains("_start_blrts"));
        assert!(dot.contains("PMPI_Barrier"));
        assert!(dot.contains("do_SendOrStall"));
        assert!(dot.contains("1022:[0,3-1023]"), "barrier edge label");
        assert!(dot.contains("1:[1]"), "hung rank edge label");
        assert!(dot.contains("1:[2]"), "victim rank edge label");
        assert!(dot.trim_end().ends_with('}'));
    }

    #[test]
    fn every_non_root_node_has_exactly_one_incoming_edge() {
        let (tree, table) = figure_1_tree();
        let dot = to_dot(&tree, &table);
        // Every node except the synthetic root has one.
        assert_eq!(dot.matches(" -> ").count(), tree.node_count() - 1);
    }

    #[test]
    fn figure_1_dot_bytes_are_pinned_to_the_pre_constant_values() {
        // FNV-1a of `GatherResult::to_dot()` for fig01's gather (the 1,024-task
        // BG/L ring hang, hierarchical, 3 samples), recorded while the rendering
        // still took an options struct: the constants must render the same bytes.
        let app = RingHangApp::new(1_024, FrameVocabulary::BlueGeneL);
        let session = Session::builder(Cluster::bluegene_l(BglMode::CoProcessor))
            .representation(Representation::HierarchicalTaskList)
            .samples_per_task(3)
            .build();
        let dot = session.attach(&app).unwrap().gather.to_dot();
        let hash = dot.bytes().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        assert_eq!((dot.len(), hash), (2_652, 0xe27d_9906_86d3_ba54));
    }

    #[test]
    fn names_are_escaped() {
        assert_eq!(escape("operator\"new\""), "operator\\\"new\\\"");
    }

    #[test]
    fn colors_distinguish_populations() {
        assert_ne!(population_color(1, 1_000), population_color(1_000, 1_000));
        assert_eq!(population_color(1_000, 1_000), "#a0c4ff");
        assert_eq!(population_color(1, 1_000), "#ff6b6b");
    }
}
