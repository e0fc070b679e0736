//! Skip-Gram-with-negative-sampling primitives shared by every trainer kind.
//!
//! For a (context, target) pair the context vector `φ_in(context)` is trained
//! against the target vector `φ_out(target)` with label 1 and against `K`
//! negative vectors with label 0 (Eq. 2). The trainer kinds are settings of
//! one loop, `dsgl::train_walks`; they differ only in *which* negatives are
//! shared across *which* updates and in how long rows stay staged in local
//! buffers.

use crate::hogwild::HogwildMatrix;
use crate::kernel::{axpy, dot};
use crate::negative::NegativeTable;

/// Precomputed sigmoid lookup table (the `expTable` of word2vec).
#[derive(Clone, Debug)]
pub struct SigmoidTable {
    table: Vec<f32>,
    max_exp: f32,
}

impl SigmoidTable {
    const SIZE: usize = 1024;

    /// Builds a table covering `[-max_exp, max_exp]` (word2vec uses 6).
    pub fn new() -> Self {
        let max_exp = 6.0f32;
        let table = (0..Self::SIZE)
            .map(|i| {
                let x = (i as f32 / Self::SIZE as f32 * 2.0 - 1.0) * max_exp;
                1.0 / (1.0 + (-x).exp())
            })
            .collect();
        Self { table, max_exp }
    }

    /// σ(x), clamped lookups outside `[-max_exp, max_exp]`.
    #[inline]
    pub fn sigmoid(&self, x: f32) -> f32 {
        if x >= self.max_exp {
            1.0
        } else if x <= -self.max_exp {
            0.0
        } else {
            let idx = ((x / self.max_exp + 1.0) * 0.5 * (Self::SIZE as f32 - 1.0)) as usize;
            self.table[idx]
        }
    }
}

impl Default for SigmoidTable {
    fn default() -> Self {
        Self::new()
    }
}

/// One SGNS pair update: trains `input` against `output` with `label`,
/// accumulating the input-side gradient into `input_grad` (applied by the
/// caller once per positive/negative group) and updating `output` in place.
#[inline]
pub fn sgns_pair_update(
    sig: &SigmoidTable,
    input: &[f32],
    output: &mut [f32],
    label: f32,
    lr: f32,
    input_grad: &mut [f32],
) {
    let g = (label - sig.sigmoid(dot(input, output))) * lr;
    axpy(g, output, input_grad);
    axpy(g, input, output);
}

/// Shared parameters of a single training pass over a set of walks.
pub struct TrainContext<'a> {
    /// Input (context-node) matrix, rank-indexed.
    pub phi_in: &'a HogwildMatrix,
    /// Output (target/negative) matrix, rank-indexed.
    pub phi_out: &'a HogwildMatrix,
    /// Negative-sampling table over ranks.
    pub negatives_table: &'a NegativeTable,
    /// Sigmoid lookup table.
    pub sigmoid: &'a SigmoidTable,
    /// Context window size `w`.
    pub window: usize,
    /// Number of negative samples `K`.
    pub negatives: usize,
    /// Learning rate for this pass.
    pub learning_rate: f32,
    /// Seed for negative sampling and window jitter.
    pub seed: u64,
}

/// Context positions of the window centred on position `j` of a walk of
/// `len` tokens: every position within `window` of `j`, except `j` itself.
#[inline]
pub(crate) fn window_contexts(j: usize, len: usize, window: usize) -> impl Iterator<Item = usize> {
    let lo = j.saturating_sub(window);
    let hi = (j + window).min(len - 1);
    (lo..=hi).filter(move |&c| c != j)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_table_matches_exact_sigmoid() {
        let sig = SigmoidTable::new();
        for &x in &[-5.9f32, -2.0, -0.5, 0.0, 0.5, 2.0, 5.9] {
            let exact = 1.0 / (1.0 + (-x).exp());
            assert!(
                (sig.sigmoid(x) - exact).abs() < 0.01,
                "sigmoid({x}) = {} vs exact {exact}",
                sig.sigmoid(x)
            );
        }
        assert_eq!(sig.sigmoid(100.0), 1.0);
        assert_eq!(sig.sigmoid(-100.0), 0.0);
    }

    #[test]
    fn pair_update_moves_positive_pair_closer() {
        let sig = SigmoidTable::new();
        let input = vec![0.1f32, -0.2, 0.3, 0.05];
        let mut output = vec![-0.1f32, 0.2, 0.1, -0.3];
        let mut grad = vec![0.0f32; 4];
        let before = dot(&input, &output);
        let mut inp = input.clone();
        for _ in 0..200 {
            grad.iter_mut().for_each(|x| *x = 0.0);
            sgns_pair_update(&sig, &inp, &mut output, 1.0, 0.1, &mut grad);
            axpy(1.0, &grad, &mut inp);
        }
        let after = dot(&inp, &output);
        assert!(after > before, "positive pair similarity must increase");
        assert!(after > 1.0);
    }

    #[test]
    fn pair_update_pushes_negative_pair_apart() {
        let sig = SigmoidTable::new();
        let mut input = vec![0.4f32, 0.4, 0.4, 0.4];
        let mut output = vec![0.4f32, 0.4, 0.4, 0.4];
        let mut grad = vec![0.0f32; 4];
        for _ in 0..200 {
            grad.iter_mut().for_each(|x| *x = 0.0);
            sgns_pair_update(&sig, &input, &mut output, 0.0, 0.1, &mut grad);
            axpy(1.0, &grad, &mut input);
        }
        let after = dot(&input, &output);
        assert!(
            after < 0.1,
            "negative pair similarity must shrink, got {after}"
        );
    }
}
