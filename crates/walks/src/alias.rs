//! O(1) transition sampling: alias tables and HuGE's acceptance table.
//!
//! PR 1 removed the per-step frequency-store overhead of InCoM, which left
//! the neighbour draw itself as the walk engine's dominant per-step cost on
//! weighted graphs: [`crate::models::propose_next`] drew a weighted neighbour
//! by summing and then linearly scanning the adjacency weights — `O(deg)`
//! per step, twice over. On hub-heavy graphs walkers visit high-degree nodes
//! in proportion to their degree, so the *expected* scan length is
//! `E[deg²]/E[deg]`, which power-law degree distributions make brutal.
//!
//! [`TransitionTables`] is the standard fix (KnightKing uses the same
//! construction for its static per-vertex distributions): one **alias table**
//! per node, built once from the CSR in `O(|arcs|)` total time with Vose's
//! method, after which a weighted neighbour draw costs exactly two random
//! numbers and two array reads — `O(1)` regardless of degree.
//!
//! # Memory layout
//!
//! The tables piggyback on the graph's CSR offsets: `prob`, `alias` and
//! `accept` are flat arrays with **one slot per CSR arc**, addressed by the
//! same [`CsrGraph::arc_range`] that addresses the adjacency and weight
//! slices — no per-node `Vec`s, no pointer chasing, and building them never
//! touches a hash map. Each is materialized only when the job needs it:
//!
//! | array | bytes/arc | present when |
//! |---|---|---|
//! | `prob` + `alias` | 8 | the graph is weighted |
//! | `accept` | 4 | the model is [`WalkModel::Huge`] |
//!
//! # Role in the walk models
//!
//! * **First order** (DeepWalk): the alias draw *is* the transition. On an
//!   unweighted graph no array is built: the draw is one bounded draw over
//!   the arc range.
//! * **Second order** (node2vec, HuGE): both models sample by rejection —
//!   node2vec against the `max(1/p, 1, 1/q)` envelope, HuGE by
//!   walking-backtracking (§2.1). The alias table serves as their **proposal
//!   distribution**, making every proposal `O(1)` instead of `O(deg)`.
//!
//! # The HuGE acceptance table
//!
//! HuGE accepts a candidate `v` of `u` with probability
//! `Z(α(u, v) · w(u, v))` (Eq. 3), and `deg u`, `deg v`, `Cm(u, v)` and
//! `w(u, v)` never change during a job. `accept[arc_range(u).start + i]`
//! therefore holds [`huge_acceptance`](crate::models::huge_acceptance) of
//! `u`'s `i`-th arc, rounded to `f32`, computed **once**: `O(Σ deg²)` in
//! total (one sorted-list intersection per arc, the term MPGP already pays
//! to partition the graph), shared out over the caller's threads.
//! A trial of the walking-backtracking loop is then one slot draw
//! ([`TransitionTables::sample_slot`]) and one array read — and the step no
//! longer touches the *candidate's* adjacency at all, only `cur`'s arc range.
//!
//! # The reference oracle
//!
//! The seed drew a weighted neighbour by summing `u`'s weights and scanning
//! to the roll, `O(deg)` per draw. That scan survives only in this module's
//! tests, as the oracle the alias draw is checked against: equal in
//! distribution on weighted graphs (by chi-squared), and bit-identical on
//! unweighted ones, where both are the same single bounded draw.

use crate::models::{huge_arc_acceptance, WalkModel};
use crate::rng::SplitMix64;
use distger_graph::{CsrGraph, NodeId};
use std::sync::Mutex;
use std::time::Instant;

/// The per-arc side tables of one walk job, stored as flat arc-aligned
/// arrays (see the [module docs](self) for the layout): the alias tables of
/// every node, and HuGE's acceptance probabilities.
///
/// A weighted graph always gets alias arrays; an unweighted one needs none,
/// since its uniform draw is already one bounded draw.
#[derive(Clone, Debug)]
pub struct TransitionTables {
    /// Probability of keeping the rolled slot, aligned with the CSR arcs.
    /// Empty unless the graph is weighted.
    prob: Vec<f32>,
    /// Fallback neighbour (as a *local* adjacency index) when the roll is
    /// rejected, aligned with `prob`.
    alias: Vec<u32>,
    /// HuGE's acceptance probability of every arc. Empty unless the model is
    /// [`WalkModel::Huge`].
    accept: Vec<f32>,
    /// Wall-clock seconds spent building the arrays.
    build_secs: f64,
}

impl TransitionTables {
    /// Slots per unit of work of the acceptance build: a few hundred units on
    /// the benchmark graphs, so the threads finish together, and each long
    /// enough (tens of microseconds) that claiming it costs nothing.
    const CHUNK_ARCS: usize = 4096;

    /// Builds the tables a job over `graph` with this model needs. Alias
    /// arrays, iff the graph is weighted: Vose's method, `O(deg)` per node.
    /// Acceptance array, iff the model is HuGE: one common-neighbour
    /// intersection per arc, shared out over `threads` threads (the caller's
    /// included).
    ///
    /// Nodes whose weights sum to zero (all-zero adjacency weights) get a
    /// uniform table.
    /// Negative or non-finite weights cannot occur: `GraphBuilder` and
    /// `CsrGraph::from_parts` reject them at construction time.
    pub fn build(graph: &CsrGraph, model: &WalkModel, threads: usize) -> Self {
        let start_time = Instant::now();
        let (prob, alias) = match graph.arc_weights() {
            Some(weights) => Self::build_weighted(graph, weights),
            None => (Vec::new(), Vec::new()),
        };
        let accept = match model {
            WalkModel::Huge => Self::build_acceptance(graph, threads),
            _ => Vec::new(),
        };
        // Report exactly 0 when nothing was materialized, so "build_secs ==
        // 0" reliably means "no array of either kind" to downstream
        // accounting.
        let build_secs = if prob.is_empty() && accept.is_empty() {
            0.0
        } else {
            start_time.elapsed().as_secs_f64()
        };
        Self {
            prob,
            alias,
            accept,
            build_secs,
        }
    }

    /// Fills HuGE's acceptance probability of every arc. The array is cut
    /// into runs of whole rows of about [`Self::CHUNK_ARCS`] slots, which the
    /// threads claim from a queue: an arc of a hub costs a longer
    /// intersection than an arc between leaves, so equal static shares of the
    /// nodes — or of the arcs — would leave the thread that drew the hubs
    /// working alone.
    fn build_acceptance(graph: &CsrGraph, threads: usize) -> Vec<f32> {
        let n = graph.num_nodes() as NodeId;
        let mut accept = vec![0.0f32; graph.num_arcs()];
        {
            let mut chunks = Vec::new();
            let mut rest = accept.as_mut_slice();
            let mut first = 0 as NodeId;
            while first < n {
                let base = graph.arc_range(first).start;
                let mut end = first + 1;
                while end < n && graph.arc_range(end).end - base <= Self::CHUNK_ARCS {
                    end += 1;
                }
                let (rows, tail) =
                    std::mem::take(&mut rest).split_at_mut(graph.arc_range(end - 1).end - base);
                rest = tail;
                chunks.push((first..end, rows));
                first = end;
            }
            let queue = Mutex::new(chunks.into_iter());
            let claim = || queue.lock().expect("no thread panics holding it").next();
            let work = || {
                let weights = graph.arc_weights();
                while let Some((nodes, rows)) = claim() {
                    let base = graph.arc_range(nodes.start).start;
                    for u in nodes {
                        for (slot, &v) in graph.arc_range(u).zip(graph.neighbors(u)) {
                            let weight = weights.map_or(1.0, |w| w[slot]);
                            rows[slot - base] = huge_arc_acceptance(graph, u, v, weight) as f32;
                        }
                    }
                }
            };
            std::thread::scope(|scope| {
                for _ in 1..threads {
                    scope.spawn(work);
                }
                work();
            });
        }
        accept
    }

    fn build_weighted(graph: &CsrGraph, weights: &[f32]) -> (Vec<f32>, Vec<u32>) {
        let mut prob = vec![0.0f32; weights.len()];
        let mut alias = vec![0u32; weights.len()];
        // Scratch buffers reused across nodes, sized to the worst degree.
        let max_deg = graph.max_degree();
        let mut scaled: Vec<f64> = Vec::with_capacity(max_deg);
        let mut small: Vec<u32> = Vec::with_capacity(max_deg);
        let mut large: Vec<u32> = Vec::with_capacity(max_deg);

        for u in 0..graph.num_nodes() as NodeId {
            let range = graph.arc_range(u);
            let deg = range.len();
            if deg == 0 {
                continue;
            }
            let node_prob = &mut prob[range.clone()];
            let node_alias = &mut alias[range.clone()];
            let ws = &weights[range];
            let total: f64 = ws.iter().map(|&w| w as f64).sum();
            if total <= 0.0 {
                // All-zero weights: uniform fallback.
                for (i, (p, a)) in node_prob.iter_mut().zip(node_alias.iter_mut()).enumerate() {
                    *p = 1.0;
                    *a = i as u32;
                }
                continue;
            }

            // Vose's method over weights scaled so the mean bucket is 1.0.
            scaled.clear();
            small.clear();
            large.clear();
            let norm = deg as f64 / total;
            for (i, &w) in ws.iter().enumerate() {
                let s = w as f64 * norm;
                scaled.push(s);
                if s < 1.0 {
                    small.push(i as u32);
                } else {
                    large.push(i as u32);
                }
            }
            while let (Some(&s), Some(&l)) = (small.last(), large.last()) {
                small.pop();
                let (s, l) = (s as usize, l as usize);
                node_prob[s] = scaled[s] as f32;
                node_alias[s] = l as u32;
                // Donate the slack of bucket `s` from bucket `l`.
                scaled[l] -= 1.0 - scaled[s];
                if scaled[l] < 1.0 {
                    large.pop();
                    small.push(l as u32);
                }
            }
            // Leftovers (in either stack, from floating-point slack) fill a
            // whole bucket on their own.
            for &i in large.iter().chain(small.iter()) {
                node_prob[i as usize] = 1.0;
                node_alias[i as usize] = i;
            }
        }
        (prob, alias)
    }

    /// Whether alias arrays are resident (the graph is weighted).
    pub fn has_alias_arrays(&self) -> bool {
        !self.prob.is_empty()
    }

    /// HuGE's acceptance probability of every arc, aligned with
    /// [`CsrGraph::arc_targets`]; empty unless built for [`WalkModel::Huge`].
    pub fn acceptance(&self) -> &[f32] {
        &self.accept
    }

    /// Wall-clock seconds the construction took (0 when no array was built).
    pub fn build_secs(&self) -> f64 {
        self.build_secs
    }

    /// Resident bytes of the flat arrays: 8 per arc of alias arrays plus 4
    /// per arc of acceptance probabilities, each only when materialized.
    pub fn memory_bytes(&self) -> usize {
        (self.prob.len() + self.accept.len()) * std::mem::size_of::<f32>()
            + self.alias.len() * std::mem::size_of::<u32>()
    }

    /// Draws an out-arc of `u`, uniformly or edge-weight-proportionally when
    /// the graph is weighted, and returns its slot in the arc-aligned arrays
    /// (`None` when `u` has no out-neighbours). With alias arrays: roll a
    /// slot uniformly, then keep it or take its alias — one bounded draw and
    /// one `next_f64`, `O(1)`. Without (an unweighted graph): the bounded
    /// draw alone.
    #[inline]
    pub fn sample_slot(&self, graph: &CsrGraph, u: NodeId, rng: &mut SplitMix64) -> Option<usize> {
        let range = graph.arc_range(u);
        if range.is_empty() {
            return None;
        }
        let slot = range.start + rng.next_bounded(range.len());
        if self.prob.is_empty() || rng.next_f64() < self.prob[slot] as f64 {
            Some(slot)
        } else {
            Some(range.start + self.alias[slot] as usize)
        }
    }

    /// [`sample_slot`](Self::sample_slot), as the neighbour the arc leads to.
    #[inline]
    pub fn sample(&self, graph: &CsrGraph, u: NodeId, rng: &mut SplitMix64) -> Option<NodeId> {
        self.sample_slot(graph, u, rng)
            .map(|slot| graph.arc_targets()[slot])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distger_graph::{barabasi_albert, GraphBuilder};

    fn rng() -> SplitMix64 {
        SplitMix64::new(99)
    }

    /// Draw-only tables (no acceptance array).
    fn alias_tables(graph: &CsrGraph) -> TransitionTables {
        TransitionTables::build(graph, &WalkModel::DeepWalk, 1)
    }

    /// The seed's draw, kept as the oracle: an index into `u`'s (non-empty)
    /// adjacency, uniform on unweighted graphs; on weighted ones, sum the
    /// weights and scan to the roll, `O(deg)`. Falls back to a uniform draw
    /// when every weight of `u` is zero (negative weights are rejected at
    /// graph-construction time, so `total <= 0` can only mean all-zero).
    fn linear_scan_index(graph: &CsrGraph, u: NodeId, rng: &mut SplitMix64) -> usize {
        let deg = graph.degree(u);
        let Some(weights) = graph.neighbor_weights(u) else {
            return rng.next_bounded(deg);
        };
        let total: f32 = weights.iter().sum();
        if total <= 0.0 {
            return rng.next_bounded(deg);
        }
        let mut target = rng.next_f64() * total as f64;
        for (i, &w) in weights.iter().enumerate() {
            target -= w as f64;
            if target <= 0.0 {
                return i;
            }
        }
        deg - 1
    }

    /// Draws `n` adjacency indices of `u` with `draw` and returns how often
    /// each came up.
    fn histogram(
        graph: &CsrGraph,
        u: NodeId,
        n: usize,
        mut draw: impl FnMut(&mut SplitMix64) -> usize,
    ) -> Vec<u64> {
        let mut counts = vec![0u64; graph.degree(u)];
        let mut r = rng();
        for _ in 0..n {
            counts[draw(&mut r)] += 1;
        }
        counts
    }

    /// [`histogram`] of the alias draw.
    fn alias_histogram(graph: &CsrGraph, u: NodeId, n: usize) -> Vec<u64> {
        let tables = alias_tables(graph);
        let base = graph.arc_range(u).start;
        histogram(graph, u, n, |r| {
            tables.sample_slot(graph, u, r).unwrap() - base
        })
    }

    /// Pearson chi-squared statistic of `observed` against the distribution
    /// implied by `weights`.
    fn chi_squared(observed: &[u64], weights: &[f32]) -> f64 {
        let n: u64 = observed.iter().sum();
        let total: f64 = weights.iter().map(|&w| w as f64).sum();
        observed
            .iter()
            .zip(weights)
            .map(|(&obs, &w)| {
                let expected = n as f64 * w as f64 / total;
                (obs as f64 - expected).powi(2) / expected
            })
            .sum()
    }

    #[test]
    fn single_neighbor_node_always_returns_it() {
        let mut b = GraphBuilder::new_undirected();
        b.add_weighted_edge(0, 1, 3.5);
        b.add_weighted_edge(1, 2, 1.0);
        let g = b.build();
        let tables = alias_tables(&g);
        let mut r = rng();
        for _ in 0..100 {
            assert_eq!(tables.sample(&g, 0, &mut r), Some(1));
            assert_eq!(tables.sample(&g, 2, &mut r), Some(1));
        }
    }

    #[test]
    fn isolated_node_returns_none() {
        let mut b = GraphBuilder::new_undirected();
        b.add_weighted_edge(0, 1, 2.0);
        b.reserve_nodes(3);
        let g = b.build();
        let tables = alias_tables(&g);
        let mut r = rng();
        assert_eq!(tables.sample(&g, 2, &mut r), None);
    }

    #[test]
    fn all_equal_weights_give_full_buckets_and_uniform_draws() {
        // A 6-spoke star with every weight equal: each bucket must be whole
        // (prob 1.0 never consults the alias) and draws must look uniform.
        let mut b = GraphBuilder::new_undirected();
        for v in 1..=6u32 {
            b.add_weighted_edge(0, v, 2.5);
        }
        let g = b.build();
        assert!(alias_tables(&g).has_alias_arrays());
        let counts = alias_histogram(&g, 0, 60_000);
        let weights = g.neighbor_weights(0).unwrap();
        // 5 degrees of freedom; chi² < 20.5 keeps a false-failure rate ~1e-3,
        // and the fixed seed makes the test deterministic anyway.
        assert!(
            chi_squared(&counts, weights) < 20.5,
            "equal-weight draws not uniform: {counts:?}"
        );
    }

    #[test]
    fn one_dominant_weight_is_sampled_dominantly() {
        // One edge carries 95% of the mass.
        let mut b = GraphBuilder::new_undirected();
        b.add_weighted_edge(0, 1, 95.0);
        for v in 2..=6u32 {
            b.add_weighted_edge(0, v, 1.0);
        }
        let g = b.build();
        let n = 50_000;
        let counts = alias_histogram(&g, 0, n);
        let dominant = counts[0] as f64 / n as f64;
        assert!(
            (dominant - 0.95).abs() < 0.01,
            "dominant edge drawn {dominant}, expected ≈0.95"
        );
        let weights = g.neighbor_weights(0).unwrap();
        assert!(chi_squared(&counts, weights) < 20.5);
    }

    #[test]
    fn all_zero_weights_fall_back_to_uniform() {
        let mut b = GraphBuilder::new_undirected();
        for v in 1..=4u32 {
            b.add_weighted_edge(0, v, 0.0);
        }
        // Give the spokes a real edge so the graph stays weighted overall.
        b.add_weighted_edge(1, 2, 3.0);
        let g = b.build();
        let counts = alias_histogram(&g, 0, 40_000);
        let uniform = vec![1.0f32; counts.len()];
        assert!(
            chi_squared(&counts, &uniform) < 16.3, // df = 3
            "zero-weight node should sample uniformly: {counts:?}"
        );
    }

    #[test]
    fn alias_matches_linear_scan_distribution_chi_squared() {
        // The headline equivalence check: on a skewed-weight hub, the alias
        // draw's empirical distribution must match the exact weights, and so
        // must the oracle scan's.
        let g = barabasi_albert(300, 4, 11).with_skewed_weights(1.5, 7);
        let hub = g.nodes_by_degree_desc()[0];
        let deg = g.degree(hub);
        assert!(deg >= 10, "hub should be high-degree, got {deg}");
        let n = 3_000 * deg;
        let alias_counts = alias_histogram(&g, hub, n);
        let scan_counts = histogram(&g, hub, n, |r| linear_scan_index(&g, hub, r));
        let weights = g.neighbor_weights(hub).unwrap();
        // Generous df-scaled bound: E[chi²] = df, Var = 2·df; df + 6·sqrt(2·df)
        // is far beyond any plausible statistical fluctuation at fixed seed.
        let bound = |df: f64| df + 6.0 * (2.0 * df).sqrt();
        let df = (deg - 1) as f64;
        let chi_alias = chi_squared(&alias_counts, weights);
        let chi_scan = chi_squared(&scan_counts, weights);
        assert!(chi_alias < bound(df), "alias chi² {chi_alias} vs df {df}");
        assert!(chi_scan < bound(df), "scan chi² {chi_scan} vs df {df}");
    }

    #[test]
    fn unweighted_graphs_materialize_nothing_and_match_scan_bitwise() {
        let g = barabasi_albert(200, 3, 5);
        let tables = alias_tables(&g);
        assert!(!tables.has_alias_arrays());
        assert_eq!(tables.memory_bytes(), 0);
        assert_eq!(tables.build_secs(), 0.0, "no table, no reported build time");
        // Both draws are the one bounded draw, so they agree draw for draw.
        let (mut ra, mut rs) = (rng(), rng());
        for u in 0..200u32 {
            assert_eq!(
                tables.sample_slot(&g, u, &mut ra),
                Some(g.arc_range(u).start + linear_scan_index(&g, u, &mut rs))
            );
        }
    }

    #[test]
    fn build_accounting_is_sane() {
        let g = barabasi_albert(500, 5, 2).with_random_weights(1.0, 5.0, 3);
        let tables = alias_tables(&g);
        assert!(tables.has_alias_arrays());
        assert_eq!(tables.memory_bytes(), g.num_arcs() * 8);
        assert!(tables.build_secs() >= 0.0);
    }

    #[test]
    fn vose_buckets_are_a_valid_distribution() {
        // Per node: sum over buckets of (prob + donated alias mass) must
        // reconstruct the original weight distribution exactly.
        let g = barabasi_albert(120, 4, 9).with_skewed_weights(2.0, 4);
        let tables = alias_tables(&g);
        for u in 0..g.num_nodes() as NodeId {
            let deg = g.degree(u);
            if deg == 0 {
                continue;
            }
            let range = g.arc_range(u);
            let ws = g.neighbor_weights(u).unwrap();
            let total: f64 = ws.iter().map(|&w| w as f64).sum();
            // Reconstruct each neighbour's sampling mass from the buckets.
            let mut mass = vec![0.0f64; deg];
            for i in 0..deg {
                let slot = range.start + i;
                let p = tables.prob[slot] as f64;
                assert!((0.0..=1.0 + 1e-6).contains(&p), "prob {p} out of range");
                mass[i] += p;
                mass[tables.alias[slot] as usize] += 1.0 - p;
            }
            for (i, (&m, &w)) in mass.iter().zip(ws).enumerate() {
                let expected = w as f64 / total * deg as f64;
                assert!(
                    (m - expected).abs() < 1e-4,
                    "node {u} neighbour {i}: mass {m} vs expected {expected}"
                );
            }
        }
    }
}
