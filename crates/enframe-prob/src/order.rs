//! The static variable ranking.
//!
//! "The algorithm chooses a next variable x′ such that it influences as
//! many events as possible" (paper §4.1). The decision tree follows that
//! rule at every decision node: it branches on the unassigned variable
//! with the most *currently unresolved* parents (`distr.rs`). A
//! [`VarOrder`] ranks the variables once, up front: it is the compiled
//! forms' (d-DNNF, OBDD) static order, and the ranking the tree's rule
//! breaks ties by ([`VarOrder::StaticOccurrence`]).

use enframe_core::Var;
use enframe_network::Network;

/// Which static ranking to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum VarOrder {
    /// Variable index order.
    Sequential,
    /// Descending static occurrence count (default).
    #[default]
    StaticOccurrence,
}

/// Computes the static ranking: variables that occur in the network,
/// ranked by the chosen heuristic.
pub fn static_order(net: &Network, order: VarOrder) -> Vec<Var> {
    let occ = net.var_occurrences();
    let mut vars: Vec<Var> = (0..net.n_vars)
        .map(Var)
        .filter(|v| net.var_node(*v).is_some())
        .collect();
    match order {
        VarOrder::Sequential => {}
        VarOrder::StaticOccurrence => {
            // Stable sort: ties keep index order for determinism.
            vars.sort_by_key(|v| std::cmp::Reverse(occ[v.index()]));
        }
    }
    vars
}

#[cfg(test)]
mod tests {
    use super::*;
    use enframe_core::Program;

    fn sample_network() -> Network {
        let mut p = Program::new();
        let x = p.fresh_var();
        let y = p.fresh_var();
        let _unused = p.fresh_var();
        // y occurs in three events, x in one.
        let a = p.declare_event("A", Program::and([Program::var(x), Program::var(y)]));
        let b = p.declare_event("B", Program::or([Program::var(y), Program::nvar(y)]));
        p.add_target(a);
        p.add_target(b);
        let g = p.ground().unwrap();
        Network::build(&g).unwrap()
    }

    #[test]
    fn unused_variables_are_excluded() {
        let net = sample_network();
        let order = static_order(&net, VarOrder::Sequential);
        assert_eq!(order.len(), 2);
        assert!(!order.contains(&Var(2)));
    }

    #[test]
    fn occurrence_order_puts_busy_vars_first() {
        let net = sample_network();
        let order = static_order(&net, VarOrder::StaticOccurrence);
        assert_eq!(order[0], Var(1), "y has the larger fan-out");
    }

    #[test]
    fn sequential_keeps_index_order() {
        let net = sample_network();
        let order = static_order(&net, VarOrder::Sequential);
        assert_eq!(order, vec![Var(0), Var(1)]);
    }
}
