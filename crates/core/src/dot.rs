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

/// Options controlling the rendering.
#[derive(Clone, Debug)]
pub struct DotOptions {
    /// Graph name.
    pub name: String,
    /// Maximum rank ranges to print per edge label before truncating with `...`.
    pub max_ranges: usize,
    /// Colour nodes by the size of their task set (mimics STAT's red/blue palette).
    pub color_by_population: bool,
}

impl Default for DotOptions {
    fn default() -> Self {
        DotOptions {
            name: "stat_prefix_tree".to_string(),
            max_ranges: 6,
            color_by_population: true,
        }
    }
}

/// Render a tree to DOT.
pub fn to_dot<S: TaskSetOps>(
    tree: &PrefixTree<S>,
    table: &FrameTable,
    options: &DotOptions,
) -> String {
    let total = tree.tasks(tree.root()).count().max(1);
    let mut out = String::new();
    out.push_str(&format!("digraph {} {{\n", sanitize(&options.name)));
    out.push_str("  node [shape=box, fontname=\"Helvetica\"];\n");
    out.push_str(&format!(
        "  n0 [label=\"{}\", style=filled, fillcolor=lightgrey];\n",
        "/" // the synthetic root, drawn as "/" like STAT's GUI
    ));
    for (idx, frame, parent) in tree.iter_nodes() {
        let name = table.name(frame);
        let tasks = tree.tasks(idx);
        let label = format_rank_ranges(tasks.iter_members(), options.max_ranges);
        let color = if options.color_by_population {
            population_color(tasks.count(), total)
        } else {
            "white".to_string()
        };
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

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GlobalPrefixTree;
    use appsim::{gather_samples, Application, FrameVocabulary, RingHangApp};
    use stackwalk::FrameTable;

    fn figure_1_tree() -> (GlobalPrefixTree, FrameTable) {
        let app = RingHangApp::new(1_024, FrameVocabulary::BlueGeneL);
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
    fn dot_output_contains_figure_1_landmarks() {
        let (tree, table) = figure_1_tree();
        let dot = to_dot(&tree, &table, &DotOptions::default());
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
        let dot = to_dot(&tree, &table, &DotOptions::default());
        // Every node except the synthetic root has one.
        assert_eq!(dot.matches(" -> ").count(), tree.node_count() - 1);
    }

    #[test]
    fn names_are_escaped() {
        assert_eq!(escape("operator\"new\""), "operator\\\"new\\\"");
        assert_eq!(sanitize("my graph!"), "my_graph_");
    }

    #[test]
    fn colors_distinguish_populations() {
        assert_ne!(population_color(1, 1_000), population_color(1_000, 1_000));
        assert_eq!(population_color(1_000, 1_000), "#a0c4ff");
        assert_eq!(population_color(1, 1_000), "#ff6b6b");
    }
}
