//! The fused probe engine: level-synchronous weighted frontiers over the
//! walk trie, merged by sibling runs and pruned before they are stored.
//!
//! ## Why a third batching tier
//!
//! ProbeSim's cost is dominated by PROBE traversals. The repo implements
//! three tiers of probe batching:
//!
//! 1. **per walk** (Algorithm 1) — every prefix of every walk runs its
//!    own probe;
//! 2. **per distinct prefix** (Algorithm 3, [`crate::trie::WalkTrie`]) —
//!    walks sharing a prefix are probed once, scaled by the prefix
//!    weight;
//! 3. **fused frontiers** (this module) — *all* of a query's probes run
//!    as one level-synchronous sweep over the trie, so probe work is
//!    shared even across *different* prefixes.
//!
//! Tier 2 still re-expands shared graph regions: a probe for the prefix
//! ending at trie node `t` walks the trie positions `t → parent(t) → … →
//! root`, and every probe passing through a position applies the *same*
//! linear expansion operator (same avoid vertex — the position's parent —
//! and the same remaining avoid chain). The fused engine exploits that
//! linearity: the children of one trie node `p` form a **group** that
//! expands once, from one weighted input frontier (the merged mass of
//! every probe that has propagated down to any of them), so each
//! distinct graph node is expanded **once per (node, group)** instead of
//! once per contributing prefix. At the final level every probe's mass
//! converges on the root's group, which emits once.
//!
//! ## Runs, prune-at-flush and one stored span per group
//!
//! The sweep consumes the trie's levels deepest-first. Within a level,
//! the groups whose parents share a grandparent `q` are consecutive in
//! BFS order; that stretch is a **run**. Every group of a run expands
//! straight into one run accumulator (`ProbeWorkspace::next`), which is
//! not cleared between the run's groups. At the end of the run the sweep
//! **flushes** it: it adds the start mass `w/nr` of every child of `q`
//! (each child's own probe, `H_0 = {vertex}`), applies pruning rule 2
//! with `q`'s group weight, and stores only the survivors as the input of
//! `q`'s group — **one span per group** in the
//! [`FrontierArena`](crate::workspace::FrontierArena). The next
//! shallower level expands that span directly; no per-trie-node arrival
//! frontier is ever stored, merged back or pruned after the fact.
//!
//! Randomized (and hybrid-switched) groups dedup their candidates by
//! membership, so they expand into a private empty level
//! (`ProbeWorkspace::private`) whose entries are then added into the run
//! accumulator; a shared buffer would hide a sibling group's candidates.
//! The parallel deterministic expansion replays its chunks into the
//! accumulator in chunk order, so parallel output stays bit-identical to
//! sequential.
//!
//! [`QueryStats::frontier_merges`](crate::QueryStats::frontier_merges)
//! counts the contributions the run accumulators deduplicated, and
//! [`QueryStats::levels_expanded`](crate::QueryStats::levels_expanded)
//! the sweeps.
//!
//! ## Strategy semantics on the fused path
//!
//! * **Deterministic** — equivalent math to tier 2: the expansion is
//!   linear, so expanding a weight-merged frontier equals summing the
//!   per-prefix expansions (identical up to floating-point association;
//!   the equivalence is property-tested to 1e-9). The run accumulator
//!   visits every group's contributions in the same order as a sweep that
//!   stores each group's output and merges it afterwards, so the two
//!   differ only by floating-point association.
//! * **Randomized** — each candidate node still draws one uniform
//!   in-edge per level, but an accepted candidate inherits the sampled
//!   source's *merged weight* instead of a unit flag (the private
//!   `probe::expand_level_randomized` emission site is shared between
//!   both paths). The draw is therefore weight-proportional and the estimator
//!   stays unbiased level by level; what changes is the variance
//!   structure (tier 2 runs `w` independent probes per weight-`w`
//!   prefix). Unbiasedness is covered by a mean-over-seeds test against
//!   exact SimRank.
//! * **Hybrid** — the switch condition is evaluated per (level, parent
//!   group): a group whose frontier out-degree sum exceeds `c0·w·n`
//!   (with `w` = walks represented by the group) expands that one level
//!   randomized, others stay deterministic. Unlike tier 2's one-way
//!   switch, a fused group can return to deterministic expansion at a
//!   shallower level — both directions are unbiased.
//!
//! ## Pruning
//!
//! Fused frontiers carry weights (`Σ w_t/nr · score_t`), so pruning rule
//! 2 compares against a weight-scaled threshold `εp · W` with `W` the
//! group's walk share — the same condition as the legacy unweighted
//! `score · (√c)^r > εp` when a prefix is unshared, and an aggregate
//! analogue of it when mass is merged. It runs once per group, at the
//! flush that builds the group's input. Decisions can therefore differ
//! from tier 2 on shared prefixes (the error guarantee is preserved —
//! each dropped entry forfeits at most `εp·W ≤ εp` of any final score,
//! the same per-level loss bound the legacy path has); exact-equivalence
//! tests run with pruning disabled.

use probesim_graph::GraphView;
use rand::Rng;

use crate::accum::ScoreSink;
use crate::budget::BudgetExceeded;
use crate::config::ProbeStrategy;
use crate::probe::{self, ProbeParams};
use crate::result::QueryStats;
use crate::trie::{TrieIndex, WalkTrie};
use crate::workspace::ProbeWorkspace;

/// The weight-proportional draw budget of a randomized group expansion:
/// one independent in-edge trial per *alive walk equivalent* of the
/// merged frontier — `⌈nr · Σ_v H(v)⌉`, capped by the group's walk count.
///
/// The legacy path spends one trial per probe still alive at this
/// position; `nr · mass` is exactly that count in expectation (mass is
/// the merged per-walk survival probability), so the fused budget decays
/// with depth the way legacy probes die off instead of charging the full
/// group walk count to every candidate. The budget depends only on the
/// pre-expansion frontier, so the per-candidate averaged estimator stays
/// unbiased for any positive value.
#[inline]
fn draw_budget(group_walks: u64, frontier_mass: f64, nr: usize) -> u32 {
    let alive = (frontier_mass * nr as f64).ceil() as u64;
    alive.clamp(1, group_walks.clamp(1, u32::MAX as u64)) as u32
}

/// Runs every probe of a batched single-source query as one fused
/// level-synchronous sweep over `trie`, adding each node's accumulated
/// score (already scaled by `1/nr`) into `acc`.
///
/// Equivalent in expectation to probing each trie prefix separately with
/// weight `w/nr` (see the module docs for the per-strategy guarantees);
/// the work is bounded by distinct touched `(node, sibling group)` pairs
/// instead of touched nodes *per prefix*.
///
/// Cooperative cancellation: `ws.budget` is checked before every group
/// expansion; an exceeded budget aborts between groups with
/// [`BudgetExceeded`], restoring the arena's BFS scratch buffers so the
/// workspace stays pooled and reusable after the abort (the run
/// accumulator may be left dirty; [`ProbeWorkspace::reset`] clears it).
// The argument list mirrors the paper's probe-loop state; bundling it
// into a struct would obscure which pieces each phase mutates.
#[allow(clippy::too_many_arguments)]
pub fn run_fused<G: GraphView + Sync, A: ScoreSink + ?Sized, R: Rng + ?Sized>(
    graph: &G,
    trie: &WalkTrie,
    nr: usize,
    params: &ProbeParams,
    strategy: ProbeStrategy,
    c0: f64,
    ws: &mut ProbeWorkspace,
    acc: &mut A,
    stats: &mut QueryStats,
    rng: &mut R,
) -> Result<(), BudgetExceeded> {
    if trie.is_empty() {
        return Ok(());
    }
    // Take the BFS scratch buffers out of the arena so the level slices
    // can be borrowed while the arena stores new spans.
    let mut order_nodes = std::mem::take(&mut ws.frontier.order_nodes);
    let mut order_parents = std::mem::take(&mut ws.frontier.order_parents);
    let mut level_starts = std::mem::take(&mut ws.frontier.level_starts);
    trie.bfs_levels(&mut order_nodes, &mut order_parents, &mut level_starts);
    ws.frontier.begin_query(trie.len());
    stats.trie_prefixes += order_nodes.len();

    let sweep = Sweep {
        graph,
        trie,
        nr,
        params,
        strategy,
        c0,
        order_nodes: &order_nodes,
        order_parents: &order_parents,
    };
    let result = sweep.run(&level_starts, ws, acc, stats, rng);
    // Hand the scratch buffers back on every exit path (success or
    // budget abort) so the pooled-capacity contract survives cancellation.
    ws.frontier.order_nodes = order_nodes;
    ws.frontier.order_parents = order_parents;
    ws.frontier.level_starts = level_starts;
    result
}

/// The read-only state of one fused sweep: the query's parameters and
/// the trie's level-order lanes.
struct Sweep<'a, G> {
    graph: &'a G,
    trie: &'a WalkTrie,
    nr: usize,
    params: &'a ProbeParams,
    strategy: ProbeStrategy,
    c0: f64,
    order_nodes: &'a [TrieIndex],
    order_parents: &'a [TrieIndex],
}

impl<G: GraphView + Sync> Sweep<'_, G> {
    /// The sweep body of [`run_fused`], split out so the taken BFS buffers
    /// are restored on the abort path too.
    fn run<A: ScoreSink + ?Sized, R: Rng + ?Sized>(
        &self,
        level_starts: &[usize],
        ws: &mut ProbeWorkspace,
        acc: &mut A,
        stats: &mut QueryStats,
        rng: &mut R,
    ) -> Result<(), BudgetExceeded> {
        let inv_nr = 1.0 / self.nr as f64;
        // The legacy randomized probe never prunes; mirror that.
        let pruning = self.params.epsilon_p > 0.0 && self.strategy != ProbeStrategy::Randomized;
        // The run accumulator must start empty; a workspace may arrive
        // from the per-prefix probes, which leave their levels filled.
        ws.reset();
        // One pass per level `L` (deepest first) expands the groups one
        // level below it and flushes one run per group of level `L`: the
        // run of the group of `q`'s children holds the expansions of
        // every grandchild group of `q`. The first pass has nothing below
        // it to expand; it only builds the deepest groups' inputs.
        let mut inner_end = level_starts.last().copied().unwrap_or(0);
        for (level_index, outer) in level_starts.windows(2).enumerate().rev() {
            let (outer_start, outer_end) = (outer[0], outer[1]);
            if inner_end > outer_end {
                stats.levels_expanded += 1;
            }
            // Pruning rule 2: the flushed input of a level-`L` group has
            // `L` expansions left, so an entry can grow by at most (√c)^L
            // before emission.
            let bound = self.params.sqrt_c.powi(level_index as i32 + 1);
            let mut cursor = outer_end;
            let mut i = outer_start;
            while i < outer_end {
                let q = self.order_parents[i];
                let mut contributions = 0usize;
                let mut run_walks = 0u64;
                // Siblings are consecutive within a BFS level, and their
                // children follow in the same order one level down.
                while i < outer_end && self.order_parents[i] == q {
                    let p = self.order_nodes[i];
                    let group_start = cursor;
                    let mut group_walks = 0u64;
                    while cursor < inner_end && self.order_parents[cursor] == p {
                        group_walks += self.trie.weight(self.order_nodes[cursor]) as u64;
                        cursor += 1;
                    }
                    if cursor > group_start {
                        contributions += self.expand_group(p, group_walks, ws, stats, rng)?;
                    }
                    // The sibling's own probe start: H_0 = {vertex}, w/nr.
                    let w = self.trie.weight(p);
                    ws.next.add(self.trie.vertex(p), w as f64 * inv_nr);
                    contributions += 1;
                    run_walks += w as u64;
                    i += 1;
                }
                // Flush: prune against q's group weight and store only
                // the survivors as the input of q's group.
                stats.frontier_merges += contributions - ws.next.len();
                let tau = self.params.epsilon_p * (run_walks as f64 * inv_nr);
                if pruning {
                    ws.frontier.store(q, &ws.next, |s| s * bound > tau);
                } else {
                    ws.frontier.store(q, &ws.next, |s| s > 0.0);
                }
                ws.next.clear();
            }
            debug_assert_eq!(cursor, inner_end, "every group belongs to a run");
            inner_end = outer_end;
        }
        // The last pass: the root's group (all of level 1). Its mass has
        // reached the root, so the expansion is emitted instead of
        // flushed (the root itself is not a probeable prefix).
        stats.levels_expanded += 1;
        let root_walks = self
            .order_nodes
            .iter()
            .take(inner_end)
            .map(|&c| self.trie.weight(c) as u64)
            .sum();
        let contributions = self.expand_group(0, root_walks, ws, stats, rng)?;
        stats.frontier_merges += contributions - ws.next.len();
        for &v in ws.next.nodes() {
            let score = ws.next.get(v);
            if score > 0.0 {
                acc.add(v, score);
            }
        }
        ws.next.clear();
        Ok(())
    }

    /// Expands the group of trie node `parent`'s children (`group_walks`
    /// walks pass through them) from its stored input span into the run
    /// accumulator `ws.next`, returning how many contributions it added
    /// there.
    fn expand_group<R: Rng + ?Sized>(
        &self,
        parent: TrieIndex,
        group_walks: u64,
        ws: &mut ProbeWorkspace,
        stats: &mut QueryStats,
        rng: &mut R,
    ) -> Result<usize, BudgetExceeded> {
        let ProbeWorkspace {
            current,
            next,
            private,
            frontier,
            budget,
            sweep,
            remap,
            ..
        } = ws;
        budget.check(stats)?;
        let (nodes, weights) = frontier.span(parent);
        if nodes.is_empty() {
            return Ok(0);
        }
        let graph = self.graph;
        let sqrt_c = self.params.sqrt_c;
        // Every probe stepping from this group toward the root must
        // avoid the parent's vertex at this level (Definition 4).
        let avoid = self.trie.vertex(parent);
        stats.probes += 1;
        // Parallel dispatch keys on frontier *length* only (never thread
        // count), so the sequential/parallel boundary is
        // machine-independent and the deterministic replay reproduces the
        // sequential bits exactly.
        let go_parallel = sweep.parallel && nodes.len() >= probe::MIN_PARALLEL_FRONTIER;
        let randomized = match self.strategy {
            ProbeStrategy::Deterministic => false,
            ProbeStrategy::Randomized => true,
            ProbeStrategy::Hybrid => {
                let out_sum = probe::frontier_out_degree_sum(graph, nodes);
                let threshold = (self.c0 * group_walks as f64 * graph.num_nodes() as f64).max(1.0);
                let switch = out_sum as f64 > threshold;
                if switch {
                    stats.hybrid_switches += 1;
                }
                switch
            }
        };
        if !randomized {
            let added = if go_parallel {
                probe::expand_deterministic_parallel(
                    graph,
                    sqrt_c,
                    avoid,
                    nodes,
                    weights,
                    next,
                    sweep.threads,
                    stats,
                )
            } else {
                let span = nodes.iter().copied().zip(weights.iter().copied());
                probe::expand_deterministic(graph, sqrt_c, avoid, span, next, stats)
            };
            return Ok(added);
        }
        stats.randomized_probes += 1;
        // The randomized expansion looks in-neighbours up by id, so the
        // span is loaded into a dense level first.
        current.clear();
        for (&v, &w) in nodes.iter().zip(weights) {
            current.add(v, w);
        }
        let mass: f64 = weights.iter().sum();
        let draws = draw_budget(group_walks, mass, self.nr);
        let scan = remap.as_deref().map(|r| r.internal_order());
        // It dedups candidates by membership in its output, so it must
        // start from an empty private level, not the run accumulator.
        private.clear_for(graph.num_nodes());
        if go_parallel {
            probe::expand_level_randomized_parallel(
                graph,
                sqrt_c,
                avoid,
                current,
                private,
                scan,
                draws,
                sweep.threads,
                stats,
                rng,
            );
        } else {
            probe::expand_level_randomized(
                graph, sqrt_c, avoid, current, private, scan, draws, stats, rng,
            );
        }
        for &v in private.nodes() {
            next.add(v, private.get(v));
        }
        let added = private.len();
        private.clear();
        Ok(added)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use probesim_graph::toy::{toy_graph, A, B, C, G};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn fuse_det(trie: &WalkTrie, nr: usize, epsilon_p: f64) -> Vec<f64> {
        let g = toy_graph();
        let params = ProbeParams {
            sqrt_c: 0.5,
            epsilon_p,
        };
        let mut ws = ProbeWorkspace::new(8);
        let mut acc = vec![0.0; 8];
        let mut stats = QueryStats::default();
        let mut rng = StdRng::seed_from_u64(1);
        run_fused(
            &g,
            trie,
            nr,
            &params,
            ProbeStrategy::Deterministic,
            0.5,
            &mut ws,
            &mut acc,
            &mut stats,
            &mut rng,
        )
        .unwrap();
        acc
    }

    fn legacy_det(trie: &WalkTrie, nr: usize, epsilon_p: f64) -> Vec<f64> {
        let g = toy_graph();
        let params = ProbeParams {
            sqrt_c: 0.5,
            epsilon_p,
        };
        let mut ws = ProbeWorkspace::new(8);
        let mut acc = vec![0.0; 8];
        let mut stats = QueryStats::default();
        trie.for_each_prefix(|path, w| {
            probe::deterministic(
                &g,
                path,
                &params,
                w as f64 / nr as f64,
                &mut ws,
                &mut acc,
                &mut stats,
            )
            .unwrap();
        });
        acc
    }

    #[test]
    fn fused_matches_per_prefix_on_shared_trie() {
        // The paper's Figure 3 trie: three walks, two sharing a prefix.
        let mut trie = WalkTrie::new(A);
        trie.insert(&[A, B, 2]);
        trie.insert(&[A, 2, A]);
        trie.insert(&[A, B, A]);
        let fused = fuse_det(&trie, 3, 0.0);
        let legacy = legacy_det(&trie, 3, 0.0);
        for v in 0..8 {
            assert!(
                (fused[v] - legacy[v]).abs() < 1e-12,
                "node {v}: fused {} vs legacy {}",
                fused[v],
                legacy[v]
            );
        }
        assert!(fused.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn fused_counts_merges_and_levels() {
        let g = toy_graph();
        let mut trie = WalkTrie::new(A);
        // The run accumulators count every contribution that lands on a
        // node already present. The level-1 run (grandparent = root)
        // expands the group under B ({a} → {c}) and the group under C
        // ({a, g} → {b, e}); c and b collide with the siblings' own
        // probe starts — two merges the per-prefix path would have
        // expanded twice. The root group then expands {c, b, e}: c and e
        // both reach f, g and h — three more merges inside one group.
        for _ in 0..50 {
            trie.insert(&[A, B, A]);
            trie.insert(&[A, C, A]);
            trie.insert(&[A, C, G]);
        }
        let params = ProbeParams {
            sqrt_c: 0.5,
            epsilon_p: 0.0,
        };
        let mut ws = ProbeWorkspace::new(8);
        let mut acc = vec![0.0; 8];
        let mut stats = QueryStats::default();
        let mut rng = StdRng::seed_from_u64(1);
        run_fused(
            &g,
            &trie,
            150,
            &params,
            ProbeStrategy::Deterministic,
            0.5,
            &mut ws,
            &mut acc,
            &mut stats,
            &mut rng,
        )
        .unwrap();
        assert_eq!(stats.levels_expanded, 2);
        assert_eq!(stats.trie_prefixes, 5);
        assert_eq!(
            stats.probes, 3,
            "two depth-2 parent groups, one fused root group"
        );
        assert!(stats.edges_expanded > 0);
        assert_eq!(
            stats.frontier_merges, 5,
            "b and c in the level-1 run, f, g and h in the root group"
        );
    }

    #[test]
    fn empty_trie_is_a_no_op() {
        let trie = WalkTrie::new(A);
        let acc = fuse_det(&trie, 1, 0.0);
        assert!(acc.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn fused_respects_the_avoid_rule() {
        // Mass converging on the root must never be emitted onto the
        // query node's avoid chain: probe (A,B) avoids A at its only
        // expansion, so A's score stays zero.
        let mut trie = WalkTrie::new(A);
        for _ in 0..10 {
            trie.insert(&[A, B]);
        }
        let acc = fuse_det(&trie, 10, 0.0);
        assert_eq!(acc[A as usize], 0.0);
        assert!(acc[3] > 0.0, "d gets first-meeting mass via b");
    }
}
