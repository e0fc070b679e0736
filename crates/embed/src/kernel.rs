//! The workspace's one level-1 float kernel: `dot`, `axpy`, and the fused
//! SGNS step DSGL is built on.
//!
//! A float sum the source writes as one serial chain (`s += a[i] * b[i]`) is a
//! chain the compiler may not reassociate, so it stays scalar whatever the
//! host can do. Here the association is fixed *in the source* instead:
//! eight independent accumulators over whole chunks, one fixed pairwise
//! reduction, then a scalar tail. The lanes are independent, so the compiler
//! vectorises them with whatever the build targets — and because the order of
//! every addition is spelled out, the result is the same bits on every host
//! ISA, at every slice offset, and for `dot(a, b)` as for `dot(b, a)`. That
//! is why there is no `std::arch`, no `target_feature` dispatch and no build
//! flag here: trained embeddings and served scores do not depend on the box.
//!
//! Every dot product in the workspace — the one trainer loop, `Embeddings`, the
//! serve scan / LSH hashing / re-rank, the comparison baselines — goes through
//! this module (CI greps for a second one).

use crate::sgns::SigmoidTable;

/// Independent accumulators per dot product (two SSE or one AVX register).
const LANES: usize = 8;

/// `Σ a[i] · b[i]`.
///
/// The slices must have equal length; that is a `debug_assert`, and a release
/// build that breaks it reads only the common prefix.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    let n = a.len().min(b.len());
    let (xs, x_tail) = a[..n].as_chunks::<LANES>();
    let (ys, y_tail) = b[..n].as_chunks::<LANES>();
    let mut acc = [0.0f32; LANES];
    for (x, y) in xs.iter().zip(ys) {
        for l in 0..LANES {
            acc[l] += x[l] * y[l];
        }
    }
    // Lane l and lane l + 4 first: the halves of an 8-lane register.
    let mut sum = ((acc[0] + acc[4]) + (acc[2] + acc[6])) + ((acc[1] + acc[5]) + (acc[3] + acc[7]));
    for (x, y) in x_tail.iter().zip(y_tail) {
        sum += x * y;
    }
    sum
}

/// `y[i] += alpha · x[i]`. Equal lengths are a `debug_assert`, as in [`dot`].
#[inline]
pub fn axpy(alpha: f32, x: &[f32], y: &mut [f32]) {
    debug_assert_eq!(x.len(), y.len(), "axpy: length mismatch");
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// One SGNS step of one input row against a block of `coef.len()` output
/// rows (`block` is row-major, `coef.len() × input.len()`): row `positive`
/// carries label 1, every other row label 0.
///
/// Scores every row with [`dot`], turns the scores into step sizes
/// `g = (label − σ(score)) · lr` in one pass (left in `coef`), then updates
/// both sides in one sweep: `block[j] += g[j] · input` for every row and
/// `input += Σ g[j] · block[j]` over the rows as they were before the sweep.
/// That is the arithmetic of `coef.len()` pairwise updates sharing one read
/// of the input — provided the rows are distinct logical rows, since every
/// score is taken before any row moves.
#[inline]
pub fn sgns_step(
    sig: &SigmoidTable,
    input: &mut [f32],
    block: &mut [f32],
    positive: usize,
    lr: f32,
    coef: &mut [f32],
) {
    let dim = input.len();
    debug_assert_eq!(block.len(), coef.len() * dim, "sgns_step: block shape");
    for (g, row) in coef.iter_mut().zip(block.chunks_exact(dim)) {
        *g = dot(input, row);
    }
    for (j, g) in coef.iter_mut().enumerate() {
        let label = if j == positive { 1.0 } else { 0.0 };
        *g = (label - sig.sigmoid(*g)) * lr;
    }
    // Lane-chunk outer, rows inner: the input chunk and its gradient are
    // locals (registers) while the L1-resident block streams past once.
    let (chunks, tail) = input.as_chunks_mut::<LANES>();
    for (c, x) in chunks.iter_mut().enumerate() {
        let before = *x;
        let mut grad = [0.0f32; LANES];
        for (row, &g) in block.chunks_exact_mut(dim).zip(coef.iter()) {
            let out = &mut row.as_chunks_mut::<LANES>().0[c];
            for l in 0..LANES {
                grad[l] += g * out[l];
                out[l] += g * before[l];
            }
        }
        for l in 0..LANES {
            x[l] = before[l] + grad[l];
        }
    }
    let whole = dim - tail.len();
    for (i, x) in tail.iter_mut().enumerate() {
        let mut grad = 0.0f32;
        for (row, &g) in block.chunks_exact_mut(dim).zip(coef.iter()) {
            grad += g * row[whole + i];
            row[whole + i] += g * *x;
        }
        *x += grad;
    }
}

/// The scalar pairwise SGNS update every trainer ran before this module
/// existed, kept as the oracle the trainers are tested against: one serial
/// float chain for the score, one element-wise loop for the update.
#[cfg(test)]
pub(crate) fn scalar_pair_update(
    sig: &SigmoidTable,
    input: &[f32],
    output: &mut [f32],
    label: f32,
    lr: f32,
    input_grad: &mut [f32],
) {
    let mut dot = 0.0f32;
    for i in 0..input.len() {
        dot += input[i] * output[i];
    }
    let g = (label - sig.sigmoid(dot)) * lr;
    for i in 0..input.len() {
        input_grad[i] += g * output[i];
        output[i] += g * input[i];
    }
}

/// Every property runs over `dim ∈ 1..=130` — every tail length, the
/// multiples of [`LANES`], and past 128 — with the operands at several float
/// offsets inside a larger buffer, so no 16- or 32-byte alignment is assumed.
#[cfg(test)]
mod tests {
    use super::*;
    use distger_walks::rng::SplitMix64;

    const DIMS: std::ops::RangeInclusive<usize> = 1..=130;
    const OFFSETS: [usize; 4] = [0, 1, 3, 5];

    fn random_vec(rng: &mut SplitMix64, len: usize) -> Vec<f32> {
        (0..len)
            .map(|_| rng.next_f64() as f32 * 2.0 - 1.0)
            .collect()
    }

    /// `v` copied to float offset `offset` of a fresh buffer.
    fn at_offset(v: &[f32], offset: usize) -> Vec<f32> {
        let mut buf = vec![f32::NAN; offset];
        buf.extend_from_slice(v);
        buf
    }

    #[test]
    fn dot_is_within_the_forward_error_bound_of_an_f64_fold() {
        let mut rng = SplitMix64::new(1);
        for dim in DIMS {
            let (a, b) = (random_vec(&mut rng, dim), random_vec(&mut rng, dim));
            let exact: f64 = a.iter().zip(&b).map(|(&x, &y)| x as f64 * y as f64).sum();
            let magnitude: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x as f64 * y as f64).abs())
                .sum();
            let bound = dim as f64 * f32::EPSILON as f64 * magnitude;
            let got = dot(&a, &b) as f64;
            assert!(
                (got - exact).abs() <= bound,
                "dim {dim}: {got} vs {exact}, bound {bound}"
            );
        }
    }

    #[test]
    fn dot_is_symmetric_and_independent_of_slice_offset() {
        let mut rng = SplitMix64::new(2);
        for dim in DIMS {
            let (a, b) = (random_vec(&mut rng, dim), random_vec(&mut rng, dim));
            let want = dot(&a, &b).to_bits();
            assert_eq!(dot(&b, &a).to_bits(), want, "dim {dim}: dot(b, a)");
            for (oa, ob) in OFFSETS.into_iter().zip([3, 0, 1, 2]) {
                let (pa, pb) = (at_offset(&a, oa), at_offset(&b, ob));
                assert_eq!(
                    dot(&pa[oa..], &pb[ob..]).to_bits(),
                    want,
                    "dim {dim}: offsets {oa}, {ob}"
                );
            }
        }
    }

    #[test]
    fn axpy_is_the_element_wise_update() {
        let mut rng = SplitMix64::new(3);
        for dim in DIMS {
            let alpha = rng.next_f64() as f32 - 0.5;
            let (x, y) = (random_vec(&mut rng, dim), random_vec(&mut rng, dim));
            let want: Vec<u32> = (0..dim).map(|i| (y[i] + alpha * x[i]).to_bits()).collect();
            for offset in OFFSETS {
                let (px, mut py) = (at_offset(&x, offset), at_offset(&y, offset + 1));
                axpy(alpha, &px[offset..], &mut py[offset + 1..]);
                let got: Vec<u32> = py[offset + 1..].iter().map(|v| v.to_bits()).collect();
                assert_eq!(got, want, "dim {dim}, offset {offset}");
            }
        }
    }

    /// [`sgns_step`] written one element at a time: the scores through
    /// [`dot`], then for every coordinate the gradient summed over the rows in
    /// block order from the rows' old values.
    fn element_wise_step(
        sig: &SigmoidTable,
        input: &mut [f32],
        block: &mut [f32],
        positive: usize,
        lr: f32,
    ) {
        let dim = input.len();
        let coef: Vec<f32> = block
            .chunks_exact(dim)
            .enumerate()
            .map(|(j, row)| {
                let label = if j == positive { 1.0 } else { 0.0 };
                (label - sig.sigmoid(dot(input, row))) * lr
            })
            .collect();
        for i in 0..dim {
            let mut grad = 0.0f32;
            for (j, &g) in coef.iter().enumerate() {
                grad += g * block[j * dim + i];
                block[j * dim + i] += g * input[i];
            }
            input[i] += grad;
        }
    }

    #[test]
    fn sgns_step_is_the_element_wise_arithmetic() {
        let sig = SigmoidTable::new();
        let mut rng = SplitMix64::new(4);
        for dim in DIMS {
            for rows in [1, 3, 7] {
                let input = random_vec(&mut rng, dim);
                let block = random_vec(&mut rng, rows * dim);
                let positive = rng.next_bounded(rows);
                let (mut want_input, mut want_block) = (input.clone(), block.clone());
                element_wise_step(&sig, &mut want_input, &mut want_block, positive, 0.05);
                for offset in OFFSETS {
                    let mut got_input = at_offset(&input, offset);
                    let mut got_block = at_offset(&block, offset + 1);
                    let mut coef = vec![0.0f32; rows];
                    sgns_step(
                        &sig,
                        &mut got_input[offset..],
                        &mut got_block[offset + 1..],
                        positive,
                        0.05,
                        &mut coef,
                    );
                    let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(
                        bits(&got_input[offset..]),
                        bits(&want_input),
                        "input: dim {dim}, {rows} rows, offset {offset}"
                    );
                    assert_eq!(
                        bits(&got_block[offset + 1..]),
                        bits(&want_block),
                        "block: dim {dim}, {rows} rows, offset {offset}"
                    );
                }
            }
        }
    }

    /// The equal-length precondition is checked in debug builds and is plain
    /// safe slicing in release builds: never an out-of-bounds read.
    #[test]
    fn length_mismatch_is_a_debug_assert_not_undefined_behaviour() {
        let (long, short) = ([1.0f32; 19], [1.0f32; 11]);
        let got = std::panic::catch_unwind(|| dot(&long, &short));
        if cfg!(debug_assertions) {
            assert!(got.is_err(), "a debug build must assert");
        } else {
            assert_eq!(
                got.unwrap(),
                11.0,
                "a release build reads the common prefix"
            );
        }
        let got = std::panic::catch_unwind(|| {
            let mut y = [1.0f32; 11];
            axpy(2.0, &long, &mut y);
            y
        });
        if cfg!(debug_assertions) {
            assert!(got.is_err(), "a debug build must assert");
        } else {
            assert_eq!(got.unwrap(), [3.0f32; 11]);
        }
    }
}
