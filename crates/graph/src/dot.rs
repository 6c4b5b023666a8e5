//! Graphviz (DOT) export for inspection and documentation.

use crate::graph::TaskGraph;

/// Render the graph in Graphviz DOT syntax. Node labels show the task name
/// and execution time; edge labels show the data volume.
pub fn to_dot(g: &TaskGraph) -> String {
    use std::fmt::Write;
    let mut s = String::with_capacity(64 * g.num_tasks());
    s.push_str("digraph workflow {\n  rankdir=TB;\n  node [shape=box];\n");
    for t in g.tasks() {
        writeln!(s, "  {} [label=\"{} ({:.3})\"];", t.0, g.name(t), g.exec(t)).unwrap();
    }
    for eid in g.edge_ids() {
        let e = g.edge(eid);
        writeln!(
            s,
            "  {} -> {} [label=\"{:.3}\"];",
            e.src.0, e.dst.0, e.volume
        )
        .unwrap();
    }
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::GraphBuilder;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut b = GraphBuilder::new();
        let a = b.add_named_task("grab", 1.5);
        let c = b.add_named_task("encode", 2.5);
        b.add_edge(a, c, 3.0);
        let g = b.build().unwrap();
        let dot = to_dot(&g);
        assert!(dot.starts_with("digraph workflow {"));
        assert!(dot.contains("grab (1.500)"));
        assert!(dot.contains("encode (2.500)"));
        assert!(dot.contains("0 -> 1 [label=\"3.000\"]"));
        assert!(dot.trim_end().ends_with('}'));
    }
}
