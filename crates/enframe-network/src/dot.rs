//! Graphviz (DOT) export of event networks — the paper's Figure 5 rendering.

use crate::build::Network;
use crate::node::NodeKind;

/// Renders the network in DOT format. Targets are drawn as double circles;
/// variable leaves as boxes.
pub fn to_dot(net: &Network) -> String {
    let mut out = String::from("digraph event_network {\n  rankdir=BT;\n");
    for (i, node) in net.nodes().iter().enumerate() {
        let label = match (&node.kind, &node.value) {
            (NodeKind::Cond, Some(v)) => format!("(x) {v}"),
            (NodeKind::ConstVal, Some(v)) => format!("{v}"),
            (kind, _) => kind.label(),
        };
        let shape = match node.kind {
            NodeKind::Var(_) => "box",
            _ if net.targets.contains(&crate::node::NodeId(i as u32)) => "doublecircle",
            _ => "ellipse",
        };
        out.push_str(&format!(
            "  n{i} [label=\"{}\", shape={shape}];\n",
            label.replace('"', "'")
        ));
    }
    for (i, node) in net.nodes().iter().enumerate() {
        for c in &node.children {
            out.push_str(&format!("  n{} -> n{i};\n", c.index()));
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use enframe_core::Program;

    #[test]
    fn dot_contains_nodes_and_edges() {
        let mut p = Program::new();
        let x = p.fresh_var();
        let y = p.fresh_var();
        let e = p.declare_event("E", Program::and([Program::var(x), Program::var(y)]));
        p.add_target(e);
        let g = p.ground().unwrap();
        let net = Network::build(&g).unwrap();
        let dot = to_dot(&net);
        assert!(dot.starts_with("digraph"));
        assert!(dot.contains("x0"));
        assert!(dot.contains("AND"));
        assert!(dot.contains("->"));
        assert!(dot.contains("doublecircle"));
        assert!(dot.ends_with("}\n"));
    }
}
