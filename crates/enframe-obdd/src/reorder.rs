//! Dynamic variable reordering: group sifting via in-place adjacent-level
//! swaps (Rudell's algorithm, block variant).
//!
//! OBDD size is notoriously order-sensitive: the mutex and conditional
//! correlation schemes compile to read-once/hierarchical lineage where
//! the grouped static order is already near-optimal, but the *positive*
//! scheme's shared-pool disjunctions can be far from it. Sifting walks
//! each variable through every position, keeping the best; **group
//! sifting** moves the var-groups of one multi-valued choice (mutex
//! chains, conditional step pairs — contiguous level *blocks*, declared
//! via [`Manager::set_level_blocks`]) as indivisible units, preserving
//! the adjacency that keeps those encodings linear.
//!
//! The primitive is the **adjacent-level swap**: exchanging levels `l`
//! and `l+1` only touches nodes labelled with the upper variable —
//! ones independent of the lower variable merely change level (a
//! permutation update; subtables are keyed by variable, so they do not
//! even move), dependent ones are rewritten *in place* around the
//! Shannon expansion on the lower variable, so every node index keeps
//! denoting the same Boolean function and no external handle moves.
//! Nodes orphaned by a rewrite are freed immediately via the stored-edge
//! reference counts, which keeps the live-size signal sifting steers by
//! exact.
//!
//! [`Manager::reorder`] runs one full sifting pass: GC first (so sizes
//! reflect live nodes only), then blocks in decreasing node-count order,
//! each walked down then up with the abort factor `MAX_GROWTH` (1.2),
//! then parked at its best seen position. A pass never ends larger than
//! it started — the best seen position includes the starting one.

use crate::manager::{Manager, NodeData, MAX_GROWTH};

impl Manager {
    /// One full group-sifting pass over the current order. Requires
    /// every externally held handle to be [`Manager::protect`]ed (the
    /// pass GCs first, and the swap rewrite frees orphaned nodes).
    /// Handles keep denoting the same functions afterwards; only the
    /// variable↔level permutation changes. Bumps the manager's epoch.
    pub fn reorder(&mut self) {
        self.collect_garbage();
        self.sift_pass();
    }

    /// The sifting pass of [`Manager::reorder`], assuming garbage was
    /// just collected (sizes must reflect live nodes only).
    pub(crate) fn sift_pass(&mut self) {
        let _span = enframe_telemetry::span(enframe_telemetry::Phase::Reorder);
        let nblocks = self.blocks.len();
        if nblocks >= 2 && self.live > 0 {
            // done[i] travels with the block at position i. Each round
            // sifts the largest not-yet-sifted block by node count.
            let mut done = vec![false; nblocks];
            while let Some(p) = (0..nblocks)
                .filter(|&p| !done[p])
                .max_by_key(|&p| self.block_nodes(p))
            {
                done[p] = true;
                self.sift_block(p, &mut done);
            }
        }
        self.invalidate_caches();
        self.reorders += 1;
    }

    /// Node count of the block at position `p` (sum over its levels).
    fn block_nodes(&self, p: usize) -> usize {
        let a = self.block_offset(p);
        (a..a + self.blocks[p] as usize)
            .map(|l| self.subtables[self.invperm[l] as usize].len())
            .sum()
    }

    /// First level of the block at position `p`.
    fn block_offset(&self, p: usize) -> usize {
        self.blocks[..p].iter().map(|&s| s as usize).sum()
    }

    /// Walks the block at position `p` down to the bottom, then up to
    /// the top, then parks it at the position with the smallest manager
    /// size seen (the starting position on ties, so a pass without a
    /// strict improvement restores the original order). Either walk
    /// aborts early once the manager grows past `MAX_GROWTH × best`.
    fn sift_block(&mut self, p: usize, flags: &mut [bool]) {
        let nblocks = self.blocks.len();
        let mut pos = p;
        let mut best = self.live;
        let mut best_pos = p;
        // Down.
        while pos + 1 < nblocks {
            self.swap_adjacent_blocks(pos, flags);
            pos += 1;
            if self.live < best {
                best = self.live;
                best_pos = pos;
            }
            if self.live as f64 > MAX_GROWTH * best as f64 {
                break;
            }
        }
        // Up (passes back through the starting position).
        while pos > 0 {
            self.swap_adjacent_blocks(pos - 1, flags);
            pos -= 1;
            if self.live < best {
                best = self.live;
                best_pos = pos;
            }
            if self.live as f64 > MAX_GROWTH * best as f64 {
                break;
            }
        }
        // Settle at the best position seen. Within one sift only this
        // block moves, so reaching best_pos reproduces exactly the order
        // (and therefore the size) recorded there.
        while pos < best_pos {
            self.swap_adjacent_blocks(pos, flags);
            pos += 1;
        }
        while pos > best_pos {
            self.swap_adjacent_blocks(pos - 1, flags);
            pos -= 1;
        }
        debug_assert_eq!(self.live, best, "settling reproduces the best size");
    }

    /// Swaps the adjacent blocks at positions `p` and `p+1` (their
    /// `done` flags travel along) by bubbling each level of the lower
    /// block up through the upper block.
    fn swap_adjacent_blocks(&mut self, p: usize, flags: &mut [bool]) {
        let a = self.block_offset(p) as u32;
        let s = self.blocks[p];
        let t = self.blocks[p + 1];
        for j in 0..t {
            // The j-th level of the lower block sits at a+s+j; bubble it
            // up to a+j.
            for l in ((a + j)..(a + s + j)).rev() {
                self.swap_adjacent_levels(l);
            }
        }
        self.blocks.swap(p, p + 1);
        flags.swap(p, p + 1);
    }

    /// Exchanges levels `l` and `l+1` in place. With x at level `l` and
    /// y at `l+1`: y-nodes and y-independent x-nodes only change level
    /// (implicit in the permutation update), while each y-dependent
    /// x-node is rewritten in place as a y-node over fresh x-children,
    /// preserving its function and its index.
    fn swap_adjacent_levels(&mut self, l: u32) {
        let x = self.invperm[l as usize];
        let y = self.invperm[l as usize + 1];
        for i in self.subtables[x as usize].indices() {
            let NodeData { hi: f1, lo: f0, .. } = self.nodes[i as usize];
            if self.var_of(f1) != y && self.var_of(f0) != y {
                continue; // independent of y: moves with the permutation
            }
            // Remove under the old key before the children change.
            self.subtables[x as usize].remove(&self.nodes, f1, f0);
            let (f11, f10) = self.cofactors(f1, y);
            let (f01, f00) = self.cofactors(f0, y);
            // New children still test x (formally the upper variable
            // until the permutation flips below, so ordering assertions
            // hold): g1 = f|y=1, g0 = f|y=0. f1 and thus f11 are
            // canonical (uncomplemented), so g1 comes back uncomplemented
            // — the rewritten node needs no output complement and its
            // parents are untouched.
            let g1 = self.node(x, f11, f01);
            let g0 = self.node(x, f10, f00);
            debug_assert!(!g1.is_complement(), "then-edge stays canonical");
            self.nodes[i as usize] = NodeData {
                var: y,
                hi: g1,
                lo: g0,
            };
            // Edge bookkeeping: node i now stores g1/g0 and no longer
            // stores f1/f0. Bump before release so shared nodes never
            // transiently hit zero; orphans are freed immediately so
            // sifting steers by exact sizes.
            self.bump_stored_edge(g1);
            self.bump_stored_edge(g0);
            self.release_edge(f1);
            self.release_edge(f0);
            self.subtables[y as usize].insert(&self.nodes, i);
        }
        self.perm.swap(x as usize, y as usize);
        self.invperm.swap(l as usize, l as usize + 1);
    }
}

#[cfg(test)]
mod tests {
    use crate::manager::{Bdd, Manager, ReorderPolicy};
    use crate::wmc::Wmc;

    /// An order-sensitive function: with `n = 3`, f = (x0∧x3) ∨ (x1∧x4)
    /// ∨ (x2∧x5) is linear under the interleaved order x0x3x1x4x2x5 but
    /// exponential in the number of pairs under the grouped order
    /// x0x1x2x3x4x5.
    fn pairs_function(man: &mut Manager, n: u32) -> Bdd {
        let mut f = Bdd::FALSE;
        for i in 0..n {
            let a = man.var(i);
            let b = man.var(i + n);
            let ab = man.and(a, b);
            f = man.or(f, ab);
        }
        f
    }

    #[test]
    fn sifting_shrinks_an_order_sensitive_function() {
        let mut man = Manager::with_policy(ReorderPolicy::disabled());
        let f = pairs_function(&mut man, 3);
        man.protect(f);
        man.collect_garbage();
        let before = man.len();
        man.reorder();
        let after = man.len();
        assert!(
            after < before,
            "sifting must shrink the pairs function: {before} -> {after}"
        );
        // The minimal interleaved form has 2 nodes per pair.
        assert_eq!(man.size(f), 6, "sifting finds the interleaved order");
        assert_eq!(man.stats().reorders, 1);
    }

    #[test]
    fn reorder_preserves_semantics_and_handles() {
        let mut man = Manager::with_policy(ReorderPolicy::disabled());
        let f = pairs_function(&mut man, 3);
        let x0 = man.var(0);
        let g = man.xor(f, x0);
        man.protect(f);
        man.protect(g);
        let mut wmc = Wmc::new(&man, vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8]);
        let (pf, pg) = (wmc.probability(f), wmc.probability(g));
        man.reorder();
        // Same handles, same functions, under every assignment.
        for code in 0..64u32 {
            let a = |v: u32| code >> v & 1 == 1;
            let want_f = (a(0) && a(3)) || (a(1) && a(4)) || (a(2) && a(5));
            assert_eq!(man.eval(f, a), want_f, "f at {code:06b}");
            assert_eq!(man.eval(g, a), want_f ^ a(0), "g at {code:06b}");
        }
        let mut wmc = Wmc::new(&man, vec![0.3, 0.4, 0.5, 0.6, 0.7, 0.8]);
        assert!((wmc.probability(f) - pf).abs() < 1e-12);
        assert!((wmc.probability(g) - pg).abs() < 1e-12);
        // Reordering is idempotent on an already-sifted manager: a
        // second pass never grows it.
        let sifted = man.len();
        man.reorder();
        assert!(man.len() <= sifted);
    }

    #[test]
    fn group_blocks_stay_adjacent() {
        let mut man = Manager::with_policy(ReorderPolicy::disabled());
        man.declare_vars(6);
        // Two blocks of 2 (vars 0-1 and 2-3) and two singletons.
        man.set_level_blocks(&[2, 2, 1, 1]);
        let f = pairs_function(&mut man, 3);
        man.protect(f);
        man.reorder();
        for pair in [(0u32, 1u32), (2, 3)] {
            let (la, lb) = (man.level_of_var(pair.0), man.level_of_var(pair.1));
            assert_eq!(
                la + 1,
                lb,
                "grouped vars {pair:?} must stay adjacent and ordered"
            );
        }
        // Still the same function.
        for code in 0..64u32 {
            let a = |v: u32| code >> v & 1 == 1;
            let want = (a(0) && a(3)) || (a(1) && a(4)) || (a(2) && a(5));
            assert_eq!(man.eval(f, a), want);
        }
    }

    #[test]
    fn automatic_maintenance_triggers_on_growth() {
        let mut man = Manager::with_policy(ReorderPolicy::default());
        // Eight pairs under the grouped order take ~2^9 nodes: past both
        // default triggers, so the post-GC survivor count still crosses
        // the sifting trigger. Protect the function, pile up garbage;
        // maintenance points must fire.
        let f = pairs_function(&mut man, 8);
        man.protect(f);
        for i in 16..50u32 {
            let v = man.var(i);
            let _garbage = man.and(f, v);
            man.maybe_maintain();
        }
        let stats = man.stats();
        assert!(stats.gc_runs > 0, "growth must trigger GC");
        assert!(stats.reorders > 0, "growth must trigger sifting");
        // f survived it all.
        assert!(man.eval(f, |v| v == 0 || v == 8));
    }
}
