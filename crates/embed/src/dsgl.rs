//! DSGL — the paper's Distributed Skip-Gram Learning trainer (§4.2).
//!
//! Improvement-I (access locality): the global matrices are rank-ordered by
//! corpus frequency (see [`crate::vocab::Vocab`]) and, for the lifetime of the
//! walks a thread is processing, every row the batch touches — the `φ_in` rows
//! of its context nodes, the `φ_out` rows of its targets and of the sampled
//! negatives — is staged in a **thread-local buffer**; only after the lifetime
//! ends are the updated vectors written back to the global matrices. This
//! removes most of the cache-line ping-ponging of Hogwild. One buffer per
//! matrix, so a logical row has exactly one live copy while the batch runs: a
//! rank that is both some window's target and a sampled negative trains on the
//! same staged row in both roles.
//!
//! Improvement-II (CPU throughput): a thread processes **multiple walks**
//! (`multi_windows ≥ 2`) in lockstep and shares one negative set across the
//! aligned windows of all of them; the target node of each window additionally
//! serves as an extra negative sample for the other windows, enlarging the
//! effective batch exactly as in Figure 3(d)/Figure 4. One lockstep step is
//! one small block: its `W` targets and `K` negatives are gathered once into
//! `(W + K) × dim` contiguous floats, every context row of the step's windows
//! is trained against that block with [`sgns_step`] — one row after the other,
//! each seeing the block as the previous row left it — and the block is
//! scattered back once.

use crate::hogwild::HogwildMatrix;
use crate::kernel::{axpy, sgns_step};
use crate::sgns::{sgns_pair_update, TrainContext};
use distger_walks::rng::SplitMix64;

/// Thread-local staging of one matrix's rows for the lifetime of a batch: a
/// direct-mapped rank → slot table validated by an epoch stamp (starting a
/// batch is one increment, not an `O(n)` clear), plus the staged rows.
struct StagedRows {
    dim: usize,
    /// Per rank `(stamp, slot)`; the slot is live iff `stamp == epoch`.
    table: Vec<(u32, u32)>,
    epoch: u32,
    /// Staged ranks, in slot order.
    ranks: Vec<u32>,
    /// Staged rows, `ranks.len() × dim`.
    rows: Vec<f32>,
}

impl StagedRows {
    fn new(num_ranks: usize, dim: usize) -> Self {
        Self {
            dim,
            table: vec![(0, 0); num_ranks],
            epoch: 0,
            ranks: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Forgets every staged row.
    fn begin_batch(&mut self) {
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: one real clear every 2^32 batches.
            self.table.fill((0, 0));
            self.epoch = 1;
        }
        self.ranks.clear();
        self.rows.clear();
    }

    /// Ensures `rank` is staged, copying its row from `source` on first use,
    /// and returns its slot.
    fn stage(&mut self, rank: u32, source: &HogwildMatrix) -> u32 {
        let entry = &mut self.table[rank as usize];
        if entry.0 != self.epoch {
            *entry = (self.epoch, self.ranks.len() as u32);
            self.ranks.push(rank);
            let start = self.rows.len();
            self.rows.resize(start + self.dim, 0.0);
            source.copy_row_into(rank as usize, &mut self.rows[start..]);
        }
        entry.1
    }

    #[inline]
    fn row(&self, slot: u32) -> &[f32] {
        &self.rows[slot as usize * self.dim..(slot as usize + 1) * self.dim]
    }

    #[inline]
    fn row_mut(&mut self, slot: u32) -> &mut [f32] {
        &mut self.rows[slot as usize * self.dim..(slot as usize + 1) * self.dim]
    }

    /// Writes every staged row back to `dest`.
    fn write_back(&self, dest: &HogwildMatrix) {
        for (&rank, row) in self.ranks.iter().zip(self.rows.chunks_exact(self.dim)) {
            dest.store_row(rank as usize, row);
        }
    }

    /// Current footprint in bytes (for the memory experiments): the staged
    /// rows and ranks plus the `O(n)` table, two `u32`s per rank.
    fn memory_bytes(&self) -> usize {
        self.rows.len() * std::mem::size_of::<f32>()
            + (self.ranks.len() + 2 * self.table.len()) * std::mem::size_of::<u32>()
    }
}

/// Stream tag of DSGL's negative draws.
const RNG_STREAM: u64 = 0xd5_61_0f_37;

/// Trains one thread's share of walks with DSGL. `multi_windows` is the number
/// of walks processed in lockstep per batch (≥ 1; the paper recommends ≥ 2).
/// Returns `(pairs_processed, peak_buffer_bytes)`.
pub fn train_walks_dsgl(
    ctx: &TrainContext<'_>,
    walks: &[Vec<u32>],
    multi_windows: usize,
    thread_id: u64,
) -> (u64, usize) {
    let multi = multi_windows.max(1);
    let dim = ctx.phi_in.dim();
    let k = ctx.negatives;
    let mut rng = SplitMix64::for_walker(ctx.seed ^ RNG_STREAM, thread_id);
    let mut pairs = 0u64;
    let mut peak_buffer = 0usize;

    // Everything below is allocated once and reused by every batch and step.
    let mut inputs = StagedRows::new(ctx.phi_in.rows(), dim);
    let mut outputs = StagedRows::new(ctx.phi_out.rows(), dim);
    // `(φ_in slot, φ_out slot)` of every token of the batch's walks, flat;
    // walk `wi` starts at `walk_starts[wi]`.
    let mut token_slots: Vec<(u32, u32)> = Vec::new();
    let mut walk_starts: Vec<usize> = Vec::with_capacity(multi);
    // `φ_out` slots of the negatives, `k` per step.
    let mut negative_slots: Vec<u32> = Vec::new();
    // One step: the walks active at it, and the `φ_out` slots of its block —
    // their targets first (in the same order), then the step's negatives.
    let mut step_walks: Vec<usize> = Vec::with_capacity(multi);
    let mut step_slots: Vec<u32> = Vec::with_capacity(multi + k);
    let mut block_buf = vec![0.0f32; (multi + k) * dim];
    let mut coef = vec![0.0f32; multi + k];
    let mut input_grad = vec![0.0f32; dim];

    for batch in walks.chunks(multi) {
        inputs.begin_batch();
        outputs.begin_batch();

        // Improvement-I: stage the context and target vectors of every node
        // appearing in this batch's walks.
        token_slots.clear();
        walk_starts.clear();
        for walk in batch {
            walk_starts.push(token_slots.len());
            token_slots.extend(walk.iter().map(|&rank| {
                (
                    inputs.stage(rank, ctx.phi_in),
                    outputs.stage(rank, ctx.phi_out),
                )
            }));
        }

        // Stage K negatives per step of the longest walk (a different draw at
        // every step).
        let max_len = batch.iter().map(|w| w.len()).max().unwrap_or(0);
        negative_slots.clear();
        negative_slots.extend((0..max_len * k).map(|_| {
            let rank = ctx.negatives_table.sample(rng.next_u64());
            outputs.stage(rank, ctx.phi_out)
        }));
        peak_buffer = peak_buffer.max(inputs.memory_bytes() + outputs.memory_bytes());

        // Improvement-II: walk the batch in lockstep; windows at the same step
        // share the step's negative set, and each window's target acts as an
        // extra negative for the other windows.
        for step in 0..max_len {
            step_walks.clear();
            step_slots.clear();
            for (wi, walk) in batch.iter().enumerate() {
                if step < walk.len() {
                    step_walks.push(wi);
                    step_slots.push(token_slots[walk_starts[wi] + step].1);
                }
            }
            step_slots.extend_from_slice(&negative_slots[step * k..(step + 1) * k]);
            let rows = step_slots.len();
            let block = &mut block_buf[..rows * dim];

            // A block row per slot is a second copy of a logical row unless
            // the step's slots are distinct. A repeat — two equal draws, or a
            // draw that hit a target — is rare outside toy vocabularies and
            // takes the pairwise path on the staged rows themselves.
            let distinct = (1..rows).all(|j| !step_slots[..j].contains(&step_slots[j]));
            if distinct {
                for (row, &slot) in block.chunks_exact_mut(dim).zip(&step_slots) {
                    row.copy_from_slice(outputs.row(slot));
                }
            }
            for (own, &wi) in step_walks.iter().enumerate() {
                let start = walk_starts[wi];
                let lo = step.saturating_sub(ctx.window);
                let hi = (step + ctx.window).min(batch[wi].len() - 1);
                for c in (lo..=hi).filter(|&c| c != step) {
                    let input = inputs.row_mut(token_slots[start + c].0);
                    if distinct {
                        sgns_step(
                            ctx.sigmoid,
                            input,
                            block,
                            own,
                            ctx.learning_rate,
                            &mut coef[..rows],
                        );
                    } else {
                        input_grad.fill(0.0);
                        for (j, &slot) in step_slots.iter().enumerate() {
                            // A repeat of this window's own target is not
                            // also its negative.
                            if j != own && slot == step_slots[own] {
                                continue;
                            }
                            sgns_pair_update(
                                ctx.sigmoid,
                                input,
                                outputs.row_mut(slot),
                                if j == own { 1.0 } else { 0.0 },
                                ctx.learning_rate,
                                &mut input_grad,
                            );
                        }
                        axpy(1.0, &input_grad, input);
                    }
                    pairs += 1;
                }
            }
            if distinct {
                for (row, &slot) in block.chunks_exact(dim).zip(&step_slots) {
                    outputs.row_mut(slot).copy_from_slice(row);
                }
            }
        }

        // End of the batch lifetime: write the staged vectors back to the
        // global matrices.
        inputs.write_back(ctx.phi_in);
        outputs.write_back(ctx.phi_out);
    }
    (pairs, peak_buffer)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{dot, scalar_pair_update};
    use crate::negative::NegativeTable;
    use crate::sgns::SigmoidTable;
    use crate::vocab::Vocab;

    fn two_clique_walks() -> Vec<Vec<u32>> {
        (0..60)
            .map(|i| {
                if i % 2 == 0 {
                    vec![0, 1, 2, 0, 2, 1, 0, 1, 2, 0]
                } else {
                    vec![3, 4, 5, 3, 5, 4, 3, 4, 5, 3]
                }
            })
            .collect()
    }

    fn make_ctx<'a>(
        phi_in: &'a HogwildMatrix,
        phi_out: &'a HogwildMatrix,
        table: &'a NegativeTable,
        sig: &'a SigmoidTable,
    ) -> TrainContext<'a> {
        TrainContext {
            phi_in,
            phi_out,
            negatives_table: table,
            sigmoid: sig,
            window: 3,
            negatives: 4,
            learning_rate: 0.05,
            seed: 21,
        }
    }

    #[test]
    fn dsgl_training_separates_two_cliques() {
        let walks = two_clique_walks();
        let vocab = Vocab::from_frequencies(&[100; 6]);
        let table = NegativeTable::with_size(&vocab, 1 << 12);
        let sig = SigmoidTable::new();
        let phi_in = HogwildMatrix::random_init(6, 16, 5);
        let phi_out = HogwildMatrix::zeros(6, 16);
        let ctx = make_ctx(&phi_in, &phi_out, &table, &sig);
        let mut total_pairs = 0;
        for _ in 0..5 {
            let (pairs, peak) = train_walks_dsgl(&ctx, &walks, 2, 0);
            total_pairs += pairs;
            assert!(peak > 0);
        }
        assert!(total_pairs > 0);
        let dot = |a: usize, b: usize| -> f32 {
            let ra = unsafe { phi_in.row(a) };
            let rb = unsafe { phi_in.row(b) };
            dot(ra, rb)
        };
        let intra = (dot(0, 1) + dot(1, 2) + dot(3, 4) + dot(4, 5)) / 4.0;
        let inter = (dot(0, 3) + dot(1, 4) + dot(2, 5)) / 3.0;
        assert!(intra > inter, "intra {intra} must exceed inter {inter}");
    }

    #[test]
    fn multi_window_one_equals_plain_batching() {
        // multi_windows = 1 must still be a valid configuration.
        let walks = vec![vec![0u32, 1, 2, 3], vec![3u32, 2, 1, 0]];
        let vocab = Vocab::from_frequencies(&[10; 4]);
        let table = NegativeTable::with_size(&vocab, 256);
        let sig = SigmoidTable::new();
        let phi_in = HogwildMatrix::random_init(4, 8, 1);
        let phi_out = HogwildMatrix::zeros(4, 8);
        let ctx = make_ctx(&phi_in, &phi_out, &table, &sig);
        let (pairs, _) = train_walks_dsgl(&ctx, &walks, 1, 0);
        // window 3 over 4-node walks: every (target, context) ordered pair →
        // 4·3 per walk → 24.
        assert_eq!(pairs, 24);
    }

    #[test]
    fn staged_rows_round_trip() {
        let source = HogwildMatrix::zeros(12, 3);
        source.store_row(7, &[1.0, 2.0, 3.0]);
        source.store_row(9, &[4.0, 5.0, 6.0]);
        let mut staged = StagedRows::new(12, 3);
        staged.begin_batch();
        let slot_a = staged.stage(7, &source);
        let slot_b = staged.stage(9, &source);
        assert_ne!(slot_a, slot_b);
        // Staging the same rank twice returns the same slot without
        // reloading: the staged row, not the source, is the live copy.
        staged.row_mut(slot_a)[0] = 10.0;
        assert_eq!(staged.stage(7, &source), slot_a);
        assert_eq!(staged.row(slot_a), &[10.0, 2.0, 3.0]);
        // The O(n) table is counted: two u32s per rank, whatever is staged.
        assert_eq!(staged.memory_bytes(), 2 * 3 * 4 + 2 * 4 + 12 * 8);
        let dest = HogwildMatrix::zeros(12, 3);
        staged.write_back(&dest);
        assert_eq!(unsafe { dest.row(7) }, &[10.0, 2.0, 3.0]);
        assert_eq!(unsafe { dest.row(9) }, &[4.0, 5.0, 6.0]);
        assert_eq!(unsafe { dest.row(8) }, &[0.0; 3], "unstaged rows untouched");
        // The next batch starts empty and reloads from the source.
        staged.begin_batch();
        let slot = staged.stage(9, &dest);
        assert_eq!(slot, 0);
        assert_eq!(staged.row(slot), &[4.0, 5.0, 6.0]);
    }

    #[test]
    fn empty_walks_are_handled() {
        let vocab = Vocab::from_frequencies(&[1; 2]);
        let table = NegativeTable::with_size(&vocab, 64);
        let sig = SigmoidTable::new();
        let phi_in = HogwildMatrix::random_init(2, 4, 1);
        let phi_out = HogwildMatrix::zeros(2, 4);
        let ctx = make_ctx(&phi_in, &phi_out, &table, &sig);
        let (pairs, _) = train_walks_dsgl(&ctx, &[], 2, 0);
        assert_eq!(pairs, 0);
        let (pairs, _) = train_walks_dsgl(&ctx, &[vec![0]], 2, 0);
        assert_eq!(pairs, 0, "a single-node walk has no context pairs");
    }

    /// The oracle: DSGL's draws, windows and update order with the scalar
    /// pairwise arithmetic, applied straight to the global matrices — no
    /// staging, so every logical row has one copy by construction.
    fn train_walks_oracle(
        ctx: &TrainContext<'_>,
        walks: &[Vec<u32>],
        multi_windows: usize,
        thread_id: u64,
    ) -> u64 {
        let dim = ctx.phi_in.dim();
        let mut rng = SplitMix64::for_walker(ctx.seed ^ RNG_STREAM, thread_id);
        let mut input = vec![0.0f32; dim];
        let mut grad = vec![0.0f32; dim];
        let mut pairs = 0;
        let update = |input: &[f32], out: u32, label: f32, grad: &mut [f32]| {
            let out = unsafe { ctx.phi_out.row_mut(out as usize) };
            scalar_pair_update(ctx.sigmoid, input, out, label, ctx.learning_rate, grad);
        };
        for batch in walks.chunks(multi_windows) {
            let max_len = batch.iter().map(|w| w.len()).max().unwrap_or(0);
            let negatives: Vec<u32> = (0..max_len * ctx.negatives)
                .map(|_| ctx.negatives_table.sample(rng.next_u64()))
                .collect();
            for step in 0..max_len {
                let active = || batch.iter().enumerate().filter(|(_, w)| step < w.len());
                for (wi, walk) in active() {
                    let target = walk[step];
                    let lo = step.saturating_sub(ctx.window);
                    let hi = (step + ctx.window).min(walk.len() - 1);
                    for c in (lo..=hi).filter(|&c| c != step) {
                        ctx.phi_in.copy_row_into(walk[c] as usize, &mut input);
                        grad.fill(0.0);
                        update(&input, target, 1.0, &mut grad);
                        for &neg in &negatives[step * ctx.negatives..][..ctx.negatives] {
                            if neg != target {
                                update(&input, neg, 0.0, &mut grad);
                            }
                        }
                        for (other_wi, other) in active() {
                            if other_wi != wi && other[step] != target {
                                update(&input, other[step], 0.0, &mut grad);
                            }
                        }
                        let row = unsafe { ctx.phi_in.row_mut(walk[c] as usize) };
                        for i in 0..dim {
                            row[i] += grad[i];
                        }
                        pairs += 1;
                    }
                }
            }
        }
        pairs
    }

    /// Trains the same corpus with DSGL and with the oracle from identical
    /// matrices (`threads = 1`, several passes): pairs equal, every row of
    /// both matrices within 1e-4.
    fn assert_matches_oracle(num_ranks: usize, walks: &[Vec<u32>], multi_windows: usize) {
        let dim = 20; // two whole lane chunks and a tail of four
        let vocab = Vocab::from_frequencies(&vec![10; num_ranks]);
        let table = NegativeTable::with_size(&vocab, 1 << 10);
        let sig = SigmoidTable::new();
        let matrices = || {
            (
                HogwildMatrix::random_init(num_ranks, dim, 3),
                HogwildMatrix::random_init(num_ranks, dim, 4),
            )
        };
        let (got_in, got_out) = matrices();
        let (want_in, want_out) = matrices();
        for pass in 0..3 {
            let pass_ctx = |phi_in, phi_out| TrainContext {
                learning_rate: 0.025,
                seed: pass,
                ..make_ctx(phi_in, phi_out, &table, &sig)
            };
            let (pairs, _) =
                train_walks_dsgl(&pass_ctx(&got_in, &got_out), walks, multi_windows, 7);
            let want_pairs =
                train_walks_oracle(&pass_ctx(&want_in, &want_out), walks, multi_windows, 7);
            assert_eq!(pairs, want_pairs, "pairs, multi_windows {multi_windows}");
        }
        for (name, got, want) in [("φ_in", got_in, want_in), ("φ_out", got_out, want_out)] {
            let (got, want) = (got.into_vec(), want.into_vec());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-4,
                    "{name}[{}][{}]: {g} vs oracle {w}, multi_windows {multi_windows}",
                    i / dim,
                    i % dim
                );
            }
        }
    }

    /// Ragged walks over `num_ranks` ranks, a single-node walk among them.
    fn random_walks(num_ranks: usize, count: usize, seed: u64) -> Vec<Vec<u32>> {
        let mut rng = SplitMix64::new(seed);
        (0..count)
            .map(|i| {
                let len = if i == 2 { 1 } else { 1 + rng.next_bounded(12) };
                (0..len)
                    .map(|_| rng.next_bounded(num_ranks) as u32)
                    .collect()
            })
            .collect()
    }

    #[test]
    fn matches_the_scalar_single_copy_oracle() {
        let walks = random_walks(50, 31, 9);
        for multi_windows in [1, 2, 4] {
            assert_matches_oracle(50, &walks, multi_windows);
        }
    }

    /// Three ranks and K = 4: every step's negatives repeat each other and hit
    /// the windows' targets, so every staged output row is target and
    /// negative at once — the rows whose positive updates staging used to
    /// overwrite.
    #[test]
    fn a_rank_that_is_target_and_negative_keeps_every_update() {
        let walks = random_walks(3, 20, 10);
        for multi_windows in [1, 2, 4] {
            assert_matches_oracle(3, &walks, multi_windows);
        }
    }
}
