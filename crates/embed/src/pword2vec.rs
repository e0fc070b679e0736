//! Pword2vec-style trainer: per-window shared negative samples (Figure 3(b)).
//!
//! Intel's Pword2vec \[22\] observes that within one sliding window the target
//! node is scored against every context node, so a single negative set can be
//! shared by all of them; this turns many level-1 (vector·vector) operations
//! into one small matrix-matrix product. The batching here keeps the same
//! arithmetic (explicit loops rather than a BLAS call) but reproduces the
//! sharing pattern, which is what DSGL's multi-window mechanism then extends.

use crate::kernel::axpy;
use crate::sgns::{sgns_pair_update, TrainContext};
use distger_walks::{rng::SplitMix64, WalksView};

/// Trains one thread's share of walks with per-window shared negatives.
/// Returns the number of (target, context) pairs processed.
#[allow(clippy::needless_range_loop)]
pub fn train_walks_pword2vec(ctx: &TrainContext<'_>, walks: WalksView<'_>, thread_id: u64) -> u64 {
    let dim = ctx.phi_in.dim();
    let mut rng = SplitMix64::for_walker(ctx.seed ^ 0x90d2_7ec1, thread_id);
    let mut input_grad = vec![0.0f32; dim];
    let mut negatives = Vec::with_capacity(ctx.negatives);
    let mut pairs = 0u64;

    for walk in walks.iter() {
        for (j, &target) in walk.iter().enumerate() {
            // One negative set for the whole window.
            negatives.clear();
            let mut attempts = 0;
            while negatives.len() < ctx.negatives && attempts < 4 * ctx.negatives {
                attempts += 1;
                let neg = ctx.negatives_table.sample(rng.next_u64());
                if neg != target {
                    negatives.push(neg);
                }
            }
            let lo = j.saturating_sub(ctx.window);
            let hi = (j + ctx.window).min(walk.len() - 1);
            for c in lo..=hi {
                if c == j {
                    continue;
                }
                let context = walk[c];
                // SAFETY: Hogwild contract.
                let input = unsafe { ctx.phi_in.row_mut(context as usize) };
                input_grad.iter_mut().for_each(|x| *x = 0.0);
                {
                    let out = unsafe { ctx.phi_out.row_mut(target as usize) };
                    sgns_pair_update(
                        ctx.sigmoid,
                        input,
                        out,
                        1.0,
                        ctx.learning_rate,
                        &mut input_grad,
                    );
                }
                for &neg in &negatives {
                    let out = unsafe { ctx.phi_out.row_mut(neg as usize) };
                    sgns_pair_update(
                        ctx.sigmoid,
                        input,
                        out,
                        0.0,
                        ctx.learning_rate,
                        &mut input_grad,
                    );
                }
                axpy(1.0, &input_grad, input);
                pairs += 1;
            }
        }
    }
    pairs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hogwild::HogwildMatrix;
    use crate::negative::NegativeTable;
    use crate::sgns::SigmoidTable;
    use crate::vocab::Vocab;
    use distger_walks::Corpus;

    #[test]
    fn pword2vec_training_separates_two_cliques() {
        let walks = (0..60)
            .map(|i| {
                if i % 2 == 0 {
                    vec![0, 1, 2, 0, 2, 1, 0, 1, 2, 0]
                } else {
                    vec![3, 4, 5, 3, 5, 4, 3, 4, 5, 3]
                }
            })
            .collect();
        let walks = Corpus::from_walks(walks, 6);
        let vocab = Vocab::from_frequencies(&[100; 6]);
        let table = NegativeTable::with_size(&vocab, 1 << 12);
        let sig = SigmoidTable::new();
        let dim = 16;
        let phi_in = HogwildMatrix::random_init(6, dim, 2);
        let phi_out = HogwildMatrix::zeros(6, dim);
        let ctx = TrainContext {
            phi_in: &phi_in,
            phi_out: &phi_out,
            negatives_table: &table,
            sigmoid: &sig,
            window: 3,
            negatives: 4,
            learning_rate: 0.05,
            seed: 9,
        };
        let mut pairs = 0;
        for _ in 0..5 {
            pairs += train_walks_pword2vec(&ctx, walks.view(), 0);
        }
        assert!(pairs > 0);
        let dot = |a: usize, b: usize| -> f32 {
            let ra = unsafe { phi_in.row(a) };
            let rb = unsafe { phi_in.row(b) };
            crate::kernel::dot(ra, rb)
        };
        let intra = (dot(0, 1) + dot(1, 2) + dot(3, 4) + dot(4, 5)) / 4.0;
        let inter = (dot(0, 3) + dot(1, 4) + dot(2, 5)) / 3.0;
        assert!(intra > inter, "intra {intra} must exceed inter {inter}");
    }

    #[test]
    fn processes_expected_number_of_pairs() {
        // A single walk of 5 nodes with window 1: interior nodes have two
        // context pairs, the ends one each → 8 pairs.
        let walks = Corpus::from_walks(vec![vec![0, 1, 2, 3, 4]], 5);
        let vocab = Vocab::from_frequencies(&[10; 5]);
        let table = NegativeTable::with_size(&vocab, 256);
        let sig = SigmoidTable::new();
        let phi_in = HogwildMatrix::random_init(5, 8, 1);
        let phi_out = HogwildMatrix::zeros(5, 8);
        let ctx = TrainContext {
            phi_in: &phi_in,
            phi_out: &phi_out,
            negatives_table: &table,
            sigmoid: &sig,
            window: 1,
            negatives: 2,
            learning_rate: 0.025,
            seed: 0,
        };
        assert_eq!(train_walks_pword2vec(&ctx, walks.view(), 0), 8);
    }
}
