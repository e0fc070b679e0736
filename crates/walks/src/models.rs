//! Walk transition models and termination policies.
//!
//! Three transition models are supported (§2.1):
//!
//! * [`WalkModel::DeepWalk`] — first-order uniform (degree- or weight-
//!   proportional) neighbour selection;
//! * [`WalkModel::Node2Vec`] — second-order walks biased by the return
//!   parameter `p` and in-out parameter `q`, sampled with KnightKing's
//!   rejection-sampling scheme (§2.2);
//! * [`WalkModel::Huge`] — HuGE's hybrid strategy (Eq. 3): a candidate
//!   neighbour `v` of the current node `u` is accepted with probability
//!   `Z(α(u, v) · w(u, v))` where
//!   `α(u, v) = max(deg u / deg v, deg v / deg u) / (deg u − Cm(u, v))`
//!   and `Z(x) = tanh(x)`; a rejected candidate sends the walker back to `u`
//!   for another attempt (walking-backtracking). Every term is a static
//!   property of the arc, so the step reads the probability from the
//!   arc-aligned table [`TransitionTables`] built once per job;
//!   [`huge_acceptance`] is the formula the builder fills it with.
//!
//! Termination is controlled independently by [`LengthPolicy`] (per-walk) and
//! [`WalkCountPolicy`] (walks per node), so the routine configuration
//! (`L = 80`, `r = 10`) and the information-driven configuration
//! (`R² < μ`, `ΔD ≤ δ`) can be mixed freely with any transition model — this
//! is the "general API" of §6.6.
//!
//! The neighbour draw itself — the first-order transition and the proposal
//! distribution of the two rejection-sampled second-order models — goes
//! through the job's [`TransitionTables`], so every model transparently
//! benefits from the `O(1)` alias tables of [`crate::alias`] on weighted
//! graphs (an unweighted graph's draw is one bounded draw).

use crate::alias::TransitionTables;
use crate::rng::SplitMix64;
use distger_graph::{CsrGraph, NodeId};

/// Maximum number of rejection-sampling / backtracking attempts before the
/// last candidate is accepted unconditionally. Guarantees progress on
/// pathological nodes; reached with negligible probability in practice.
const MAX_TRIALS: usize = 64;

/// The transition model of a random walk.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WalkModel {
    /// DeepWalk: uniform (or edge-weight proportional) first-order walks.
    DeepWalk,
    /// node2vec second-order walks with return parameter `p` and in-out
    /// parameter `q`, sampled by rejection as in KnightKing.
    Node2Vec {
        /// Return parameter `p` (small `p` keeps the walk local).
        p: f64,
        /// In-out parameter `q` (small `q` pushes the walk outward).
        q: f64,
    },
    /// HuGE's information-oriented hybrid transition (Eq. 3).
    Huge,
}

impl WalkModel {
    /// Short display name used by the experiment harness.
    pub fn name(&self) -> &'static str {
        match self {
            WalkModel::DeepWalk => "DeepWalk",
            WalkModel::Node2Vec { .. } => "node2vec",
            WalkModel::Huge => "HuGE",
        }
    }
}

/// When a single walk stops.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LengthPolicy {
    /// Routine configuration: a fixed number of nodes per walk (the paper and
    /// KnightKing use 80).
    Fixed(usize),
    /// HuGE's heuristic walk length: terminate once `R²(H, L) < μ`, with a
    /// minimum length (so the regression has enough points) and a maximum
    /// length (safety cap, also 80 in the paper's accounting).
    InfoDriven {
        /// Termination threshold `μ` (paper default 0.995).
        mu: f64,
        /// Minimum walk length before termination is allowed.
        min_len: usize,
        /// Hard cap on the walk length.
        max_len: usize,
    },
}

impl LengthPolicy {
    /// The routine `L = 80` configuration.
    pub fn routine() -> Self {
        LengthPolicy::Fixed(80)
    }

    /// Information-driven defaults used throughout this reproduction.
    ///
    /// The paper quotes `μ = 0.995`, but with the entropy definition of Eq. 4
    /// and the cumulative regression of Eq. 5 every walk's `R²` falls below
    /// 0.995 within the first handful of steps (the early `H ≈ log₂ L`
    /// segment is strongly concave), which would collapse every walk to the
    /// minimum length and remove the adaptivity the mechanism is designed to
    /// provide. The recalibrated default `μ = 0.87` restores the intended
    /// behaviour: walks that keep discovering new nodes run to ≈25–40 steps
    /// while walks trapped in small neighbourhoods stop at ≈10–15, matching
    /// the ≈63 % average-length reduction the paper reports against the
    /// routine `L = 80`.
    pub fn info_driven_default() -> Self {
        LengthPolicy::InfoDriven {
            mu: 0.87,
            min_len: 10,
            max_len: 80,
        }
    }

    /// The literal thresholds quoted by the paper (`μ = 0.995`, see
    /// [`LengthPolicy::info_driven_default`] for why the reproduction uses a
    /// recalibrated default).
    pub fn info_driven_paper() -> Self {
        LengthPolicy::InfoDriven {
            mu: 0.995,
            min_len: 5,
            max_len: 80,
        }
    }

    /// Whether per-step information measurements are required.
    pub fn needs_info(&self) -> bool {
        matches!(self, LengthPolicy::InfoDriven { .. })
    }
}

/// How many walks are started from every node.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum WalkCountPolicy {
    /// Routine configuration: a fixed number of walks per node (10).
    Fixed(usize),
    /// HuGE's heuristic: keep adding rounds of one-walk-per-node until the
    /// relative entropy between degree and occurrence distributions converges
    /// (`ΔD_r(p‖q) ≤ δ`).
    InfoDriven {
        /// Convergence threshold `δ` (paper default 0.001).
        delta: f64,
        /// Minimum number of rounds.
        min_rounds: usize,
        /// Maximum number of rounds.
        max_rounds: usize,
    },
}

impl WalkCountPolicy {
    /// The routine `r = 10` configuration.
    pub fn routine() -> Self {
        WalkCountPolicy::Fixed(10)
    }

    /// The paper's information-driven defaults (`δ = 0.001`).
    pub fn info_driven_default() -> Self {
        WalkCountPolicy::InfoDriven {
            delta: 0.001,
            min_rounds: 2,
            max_rounds: 20,
        }
    }
}

/// Normalization function `Z(x) = (eˣ − e⁻ˣ) / (eˣ + e⁻ˣ) = tanh(x)` used by
/// HuGE to map the unnormalized transition score to an acceptance probability.
#[inline]
pub fn huge_normalize(x: f64) -> f64 {
    x.tanh()
}

/// HuGE's unnormalized transition score `α(u, v)` (Eq. 3).
pub fn huge_alpha(graph: &CsrGraph, u: NodeId, v: NodeId) -> f64 {
    let deg_u = graph.degree(u) as f64;
    let deg_v = graph.degree(v) as f64;
    if deg_u == 0.0 || deg_v == 0.0 {
        return 0.0;
    }
    let cm = graph.common_neighbors(u, v) as f64;
    let ratio = (deg_u / deg_v).max(deg_v / deg_u);
    let denom = deg_u - cm;
    if denom <= 0.0 {
        // Every neighbour of u is shared with v: maximal similarity, accept.
        return f64::INFINITY;
    }
    ratio / denom
}

/// HuGE's acceptance probability `P(u, v) = Z(α(u, v) · w(u, v))` (Eq. 3).
/// The walk step never evaluates this: it is the per-arc formula
/// [`TransitionTables`] is filled with, and the oracle the table is tested
/// against.
pub fn huge_acceptance(graph: &CsrGraph, u: NodeId, v: NodeId) -> f64 {
    let weight = graph.edge_weight(u, v).unwrap_or(1.0);
    huge_arc_acceptance(graph, u, v, weight)
}

/// [`huge_acceptance`] of an arc whose weight the caller already holds (the
/// table builder reads it from the arc's slot instead of searching for it).
pub(crate) fn huge_arc_acceptance(graph: &CsrGraph, u: NodeId, v: NodeId, weight: f32) -> f64 {
    let alpha = huge_alpha(graph, u, v);
    if !alpha.is_finite() {
        return 1.0;
    }
    huge_normalize(alpha * weight as f64)
}

/// Proposes (and accepts) the next node of a walk currently at `cur`, having
/// previously been at `prev` (for second-order models). Neighbour draws —
/// DeepWalk's transition and the rejection proposals of node2vec/HuGE — and
/// HuGE's acceptance probabilities come from `tables`, which must have been
/// built for `model`. Returns `None` when `cur` has no out-neighbours (the
/// walk must stop).
pub fn propose_next(
    model: &WalkModel,
    graph: &CsrGraph,
    tables: &TransitionTables,
    prev: Option<NodeId>,
    cur: NodeId,
    rng: &mut SplitMix64,
) -> Option<NodeId> {
    match *model {
        WalkModel::DeepWalk => tables.sample(graph, cur, rng),
        WalkModel::Node2Vec { p, q } => {
            // Rejection sampling with envelope Q = max(1/p, 1, 1/q).
            let envelope = (1.0 / p).max(1.0).max(1.0 / q);
            let mut candidate = tables.sample(graph, cur, rng)?;
            for _ in 0..MAX_TRIALS {
                let bias = match prev {
                    None => 1.0,
                    Some(t) => {
                        if candidate == t {
                            1.0 / p
                        } else if graph.has_edge(t, candidate) {
                            1.0
                        } else {
                            1.0 / q
                        }
                    }
                };
                if rng.next_f64() * envelope <= bias {
                    return Some(candidate);
                }
                candidate = tables.sample(graph, cur, rng)?;
            }
            Some(candidate)
        }
        WalkModel::Huge => {
            // Walking-backtracking: a rejected candidate sends the walker
            // back to `cur` for a fresh attempt. A trial is one slot draw and
            // one read of the arc-aligned acceptance table.
            let accept = tables.acceptance();
            let mut slot = tables.sample_slot(graph, cur, rng)?;
            for _ in 0..MAX_TRIALS {
                if rng.next_f64() < accept[slot] as f64 {
                    break;
                }
                slot = tables.sample_slot(graph, cur, rng)?;
            }
            Some(graph.arc_targets()[slot])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use distger_graph::{barabasi_albert, GraphBuilder};

    fn rng() -> SplitMix64 {
        SplitMix64::new(42)
    }

    #[test]
    fn huge_normalize_is_tanh() {
        assert_eq!(huge_normalize(0.0), 0.0);
        assert!((huge_normalize(1.0) - 0.7615941559557649).abs() < 1e-12);
        assert!(huge_normalize(50.0) <= 1.0);
    }

    #[test]
    fn huge_alpha_favours_similar_nodes() {
        // Graph: clique {0,1,2,3} plus a pendant 4 attached to 0.
        let mut b = GraphBuilder::new_undirected();
        b.extend_edges([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (0, 4)]);
        let g = b.build();
        // deg(0)=4, deg(1)=3, Cm(0,1)=2 → α = (4/3)/(4-2) = 0.666…
        let a01 = huge_alpha(&g, 0, 1);
        assert!((a01 - (4.0 / 3.0) / 2.0).abs() < 1e-12);
        // deg(0)=4, deg(4)=1, Cm(0,4)=0 → α = 4 / 4 = 1, but via the pendant
        // the ratio term dominates; similarity (denominator) is lower for 1.
        let a04 = huge_alpha(&g, 0, 4);
        assert!((a04 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn huge_acceptance_in_unit_interval() {
        let g = barabasi_albert(200, 3, 1);
        let mut r = rng();
        for _ in 0..200 {
            let u = r.next_bounded(200) as NodeId;
            if g.degree(u) == 0 {
                continue;
            }
            let v = g.neighbors(u)[r.next_bounded(g.degree(u))];
            let p = huge_acceptance(&g, u, v);
            assert!((0.0..=1.0).contains(&p), "acceptance {p} out of range");
        }
    }

    #[test]
    fn propose_next_returns_neighbors_only() {
        let g = barabasi_albert(100, 3, 7);
        let mut r = rng();
        for model in [
            WalkModel::DeepWalk,
            WalkModel::Node2Vec { p: 0.5, q: 2.0 },
            WalkModel::Huge,
        ] {
            let tables = TransitionTables::build(&g, &model, 1);
            let mut prev = None;
            let mut cur: NodeId = 5;
            for _ in 0..50 {
                let next = propose_next(&model, &g, &tables, prev, cur, &mut r)
                    .expect("connected node must have a next hop");
                assert!(
                    g.has_edge(cur, next),
                    "{}: {next} is not a neighbour of {cur}",
                    model.name()
                );
                prev = Some(cur);
                cur = next;
            }
        }
    }

    #[test]
    fn propose_next_on_isolated_node_is_none() {
        let mut b = GraphBuilder::new_undirected();
        b.add_edge(0, 1);
        b.reserve_nodes(3);
        let g = b.build();
        let mut r = rng();
        for model in [WalkModel::DeepWalk, WalkModel::Huge] {
            let tables = TransitionTables::build(&g, &model, 1);
            assert_eq!(propose_next(&model, &g, &tables, None, 2, &mut r), None);
        }
    }

    #[test]
    fn node2vec_return_bias_is_respected() {
        // Path graph 0-1-2. From 1 with prev=0: returning to 0 has bias 1/p,
        // moving to 2 (distance 2 from 0) has bias 1/q.
        let mut b = GraphBuilder::new_undirected();
        b.extend_edges([(0, 1), (1, 2)]);
        let g = b.build();
        let mut r = rng();
        let trials = 4_000;
        let count_returns = |p: f64, q: f64, r: &mut SplitMix64| {
            let model = WalkModel::Node2Vec { p, q };
            let tables = TransitionTables::build(&g, &model, 1);
            (0..trials)
                .filter(|_| propose_next(&model, &g, &tables, Some(0), 1, r) == Some(0))
                .count()
        };
        let returns_low_p = count_returns(0.25, 1.0, &mut r); // strong return bias
        let returns_high_p = count_returns(4.0, 1.0, &mut r); // avoid returning
        assert!(
            returns_low_p > returns_high_p + trials / 10,
            "low p should return more often ({returns_low_p} vs {returns_high_p})"
        );
    }

    #[test]
    fn weighted_deepwalk_prefers_heavy_edges() {
        let mut b = GraphBuilder::new_undirected();
        b.add_weighted_edge(0, 1, 10.0);
        b.add_weighted_edge(0, 2, 0.1);
        let g = b.build();
        let tables = TransitionTables::build(&g, &WalkModel::DeepWalk, 1);
        let mut r = rng();
        let to_1 = (0..2_000)
            .filter(|_| propose_next(&WalkModel::DeepWalk, &g, &tables, None, 0, &mut r) == Some(1))
            .count();
        assert!(to_1 > 1_800, "heavy edge taken only {to_1}/2000 times");
    }

    #[test]
    fn policies_defaults() {
        assert_eq!(LengthPolicy::routine(), LengthPolicy::Fixed(80));
        assert!(LengthPolicy::info_driven_default().needs_info());
        assert!(!LengthPolicy::routine().needs_info());
        assert_eq!(WalkCountPolicy::routine(), WalkCountPolicy::Fixed(10));
    }
}
