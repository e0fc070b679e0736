//! The one Skip-Gram pair loop: DSGL's body (§4.2). Figure 3's progression —
//! per-pair negatives (a), window-shared negatives (b), local buffers (c,
//! Improvement-I), several windows in lockstep (d, Improvement-II) — is one
//! loop, `train_walks`, and each [`TrainerKind`] is a setting of it:
//!
//! | kind | windows in lockstep | negatives drawn per | staging lifetime |
//! |---|---|---|---|
//! | `Hogwild` | 1 | pair | one window |
//! | `Pword2vec` | 1 | window step | one window |
//! | `Dsgl { multi_windows }` | `multi_windows` | lockstep step | one batch |
//!
//! Why plain SGNS stages for a window and not a pair is in
//! `docs/ARCHITECTURE.md` ("One loop, three settings").
//!
//! A group of negatives is exactly `K` draws; a draw equal to a window's own
//! target is not its negative, and the other windows' targets are extra
//! negatives (Figure 4). The group's targets and negatives are gathered once
//! into a contiguous `rows × dim` block, every context row of its windows is
//! trained against it with [`sgns_step`] in turn, and the block is scattered
//! back once.
//!
//! Every row a lifetime touches is staged in a thread-local buffer, one per
//! matrix, before the lifetime trains, and written back whole when it ends: a
//! logical row has one live copy per thread, and the shared matrices are only
//! read and written a whole row at a time. At one thread the lifetime does
//! not change the arithmetic; longer lifetimes are Improvement-I's locality.

use crate::hogwild::HogwildMatrix;
use crate::kernel::{axpy, sgns_step};
use crate::sgns::{sgns_pair_update, window_contexts, TrainContext};
use crate::trainer::TrainerKind;
use distger_walks::{rng::SplitMix64, WalksView};

/// Thread-local staging of one matrix's rows for one lifetime: a
/// direct-mapped rank → slot table validated by an epoch stamp (starting a
/// lifetime is one increment, not an `O(n)` clear), plus the staged rows.
struct StagedRows {
    dim: usize,
    /// Per rank `(stamp, slot)`; the slot is live iff `stamp == epoch`.
    table: Vec<(u32, u32)>,
    /// Never 0, the stamp of a rank never staged.
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
            epoch: 1,
            ranks: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Ensures `rank` is staged, copying its row from `source` on first use,
    /// and returns its slot.
    #[inline]
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

    /// Ends a lifetime: writes every staged row back to `dest` and forgets
    /// it. Returns the footprint the lifetime reached.
    fn end_lifetime(&mut self, dest: &HogwildMatrix) -> usize {
        let bytes = self.memory_bytes();
        for (&rank, row) in self.ranks.iter().zip(self.rows.chunks_exact(self.dim)) {
            dest.store_row(rank as usize, row);
        }
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            // Stamp wrap-around: one real clear every 2^32 lifetimes.
            self.table.fill((0, 0));
            self.epoch = 1;
        }
        self.ranks.clear();
        self.rows.clear();
        bytes
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

/// What one group of `K` negative draws serves: one (target, context) pair,
/// or every window of one lockstep step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Scope {
    Pair,
    Step,
}

/// How long a staged row lives before it is written back: one lockstep
/// step, or one batch of `multi_windows` walks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Lifetime {
    Step,
    Batch,
}

/// The settings of `train_walks` a [`TrainerKind`] stands for.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Settings {
    /// Walks trained in lockstep (≥ 1).
    multi_windows: usize,
    scope: Scope,
    lifetime: Lifetime,
    /// Tag of the negative-draw stream.
    stream: u64,
}

impl Settings {
    pub(crate) fn of(kind: TrainerKind) -> Self {
        let (multi_windows, scope, lifetime, stream) = match kind {
            TrainerKind::Hogwild => (1, Scope::Pair, Lifetime::Step, 0x5e15_0a11),
            TrainerKind::Pword2vec => (1, Scope::Step, Lifetime::Step, 0x90d2_7ec1),
            TrainerKind::Dsgl { multi_windows: m } => (m, Scope::Step, Lifetime::Batch, RNG_STREAM),
        };
        Self {
            multi_windows: multi_windows.max(1),
            scope,
            lifetime,
            stream,
        }
    }
}

/// The walks of `batch` active at `step`, each with the offset of its first
/// token in the batch's tokens.
fn active_at(batch: WalksView<'_>, step: usize) -> impl Iterator<Item = (&[u32], usize)> {
    let offsets = batch.iter().scan(0, |start, walk| {
        *start += walk.len();
        Some((walk, *start - walk.len()))
    });
    offsets.filter(move |(walk, _)| step < walk.len())
}

/// Trains one thread's share of walks with the settings of one trainer kind,
/// `multi_windows` walks at a time in lockstep. Returns
/// `(pairs_processed, peak_buffer_bytes)`.
pub(crate) fn train_walks(
    ctx: &TrainContext<'_>,
    walks: WalksView<'_>,
    settings: Settings,
    thread_id: u64,
) -> (u64, usize) {
    let (dim, k, w) = (ctx.phi_in.dim(), ctx.negatives, ctx.window);
    let multi = settings.multi_windows;
    let mut rng = SplitMix64::for_walker(ctx.seed ^ settings.stream, thread_id);
    let (mut pairs, mut peak_bytes) = (0u64, 0usize);

    // Everything below is allocated once and reused by every batch and step.
    let mut inputs = StagedRows::new(ctx.phi_in.rows(), dim);
    let mut outputs = StagedRows::new(ctx.phi_out.rows(), dim);
    // Per token of the batch, its `(φ_in, φ_out)` slots as the current
    // lifetime staged them, and the lifetime's negative draws in the order its
    // groups use them.
    let mut token_slots: Vec<(u32, u32)> = Vec::new();
    let mut neg_slots: Vec<u32> = Vec::new();
    let mut active: Vec<(&[u32], usize)> = Vec::with_capacity(multi);
    // The step's pairs: the window's index in `active` and the context's slot.
    let mut step_pairs: Vec<(usize, u32)> = Vec::new();
    // `φ_out` slots of one group's block: the step's targets, then `K` draws.
    let mut slots: Vec<u32> = Vec::with_capacity(multi + k);
    let mut block = vec![0.0f32; (multi + k) * dim];
    let mut coef = vec![0.0f32; multi + k];
    let mut input_grad = vec![0.0f32; dim];

    for batch in walks.chunks(multi) {
        token_slots.clear();
        token_slots.resize(batch.tokens().len(), (0, 0));
        let max_len = batch.iter().map(|w| w.len()).max().unwrap_or(0);
        let span = match settings.lifetime {
            Lifetime::Batch => max_len.max(1),
            Lifetime::Step => 1,
        };
        for first in (0..max_len).step_by(span) {
            let steps = first..(first + span).min(max_len);
            // Stage everything the lifetime touches before it trains: the
            // `φ_in` rows of its contexts, the `φ_out` rows of its targets and
            // of its negatives.
            for (walk, start) in active_at(batch, first) {
                let hi = (steps.end - 1 + w).min(walk.len() - 1);
                // A one-step lifetime's target is not its own context.
                for p in (first.saturating_sub(w)..=hi).filter(|&p| span > 1 || p != first) {
                    token_slots[start + p].0 = inputs.stage(walk[p], ctx.phi_in);
                }
                for p in first..steps.end.min(walk.len()) {
                    token_slots[start + p].1 = outputs.stage(walk[p], ctx.phi_out);
                }
            }
            neg_slots.clear();
            for step in steps.clone() {
                // A step scope draws its `K` even at a step without pairs.
                let groups = match settings.scope {
                    Scope::Step => 1,
                    Scope::Pair => active_at(batch, step)
                        .map(|(walk, _)| window_contexts(step, walk.len(), w).count())
                        .sum(),
                };
                for _ in 0..groups * k {
                    let rank = ctx.negatives_table.sample(rng.next_u64());
                    neg_slots.push(outputs.stage(rank, ctx.phi_out));
                }
            }
            let mut negatives = neg_slots.iter().copied();
            for step in steps {
                active.clear();
                active.extend(active_at(batch, step));
                step_pairs.clear();
                for (own, &(walk, start)) in active.iter().enumerate() {
                    let contexts = window_contexts(step, walk.len(), w);
                    step_pairs.extend(contexts.map(|c| (own, token_slots[start + c].0)));
                }
                let (groups, per_group) = match settings.scope {
                    Scope::Pair => (step_pairs.len(), 1),
                    Scope::Step => (1, step_pairs.len()),
                };
                for group in (0..groups).map(|g| &step_pairs[g * per_group..][..per_group]) {
                    slots.clear();
                    slots.extend(active.iter().map(|&(_, start)| token_slots[start + step].1));
                    slots.extend(negatives.by_ref().take(k));
                    let rows = slots.len();
                    let block = &mut block[..rows * dim];
                    // A block row per slot is a second copy of a logical row
                    // unless the slots are distinct. A repeat (two equal draws,
                    // or a draw that hit a target) takes the pairwise path on
                    // the staged rows themselves.
                    let distinct = (1..rows).all(|j| !slots[..j].contains(&slots[j]));
                    if distinct {
                        for (row, &slot) in block.chunks_exact_mut(dim).zip(&slots) {
                            row.copy_from_slice(outputs.row(slot));
                        }
                    }
                    for &(own, input) in group {
                        let input = inputs.row_mut(input);
                        if distinct {
                            let coef = &mut coef[..rows];
                            sgns_step(ctx.sigmoid, input, block, own, ctx.learning_rate, coef);
                            continue;
                        }
                        input_grad.fill(0.0);
                        for (j, &slot) in slots.iter().enumerate() {
                            // A repeat of this window's own target is not also
                            // its negative.
                            if j != own && slot == slots[own] {
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
                    if distinct {
                        for (row, &slot) in block.chunks_exact(dim).zip(&slots) {
                            outputs.row_mut(slot).copy_from_slice(row);
                        }
                    }
                    pairs += group.len() as u64;
                }
            }
            let staged = inputs.end_lifetime(ctx.phi_in) + outputs.end_lifetime(ctx.phi_out);
            peak_bytes = peak_bytes.max(staged);
        }
    }
    (pairs, peak_bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{dot, scalar_pair_update};
    use crate::negative::NegativeTable;
    use crate::sgns::SigmoidTable;
    use crate::vocab::Vocab;
    use distger_walks::Corpus;

    /// Figure 3(a) to (d): every kind, and DSGL at one, two and four windows.
    const KINDS: [TrainerKind; 5] = [
        TrainerKind::Hogwild,
        TrainerKind::Pword2vec,
        TrainerKind::Dsgl { multi_windows: 1 },
        TrainerKind::Dsgl { multi_windows: 2 },
        TrainerKind::Dsgl { multi_windows: 4 },
    ];

    fn two_clique_walks() -> Corpus {
        let walks = (0..60)
            .map(|i| {
                if i % 2 == 0 {
                    vec![0, 1, 2, 0, 2, 1, 0, 1, 2, 0]
                } else {
                    vec![3, 4, 5, 3, 5, 4, 3, 4, 5, 3]
                }
            })
            .collect();
        Corpus::from_walks(walks, 6)
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

    fn row(matrix: &HogwildMatrix, r: usize) -> Vec<f32> {
        let mut row = vec![0.0; matrix.dim()];
        matrix.copy_row_into(r, &mut row);
        row
    }

    #[test]
    fn every_kind_separates_two_cliques() {
        let walks = two_clique_walks();
        let vocab = Vocab::from_frequencies(&[100; 6]);
        let table = NegativeTable::with_size(&vocab, 1 << 12);
        let sig = SigmoidTable::new();
        for kind in KINDS {
            let phi_in = HogwildMatrix::random_init(6, 16, 5);
            let phi_out = HogwildMatrix::zeros(6, 16);
            let ctx = make_ctx(&phi_in, &phi_out, &table, &sig);
            let mut total_pairs = 0;
            for _ in 0..5 {
                let (pairs, peak) = train_walks(&ctx, walks.view(), Settings::of(kind), 0);
                total_pairs += pairs;
                assert!(peak > 0, "{kind:?} stages rows");
            }
            assert!(total_pairs > 0);
            let dot = |a: usize, b: usize| dot(&row(&phi_in, a), &row(&phi_in, b));
            let intra = (dot(0, 1) + dot(1, 2) + dot(3, 4) + dot(4, 5)) / 4.0;
            let inter = (dot(0, 3) + dot(1, 4) + dot(2, 5)) / 3.0;
            assert!(
                intra > inter,
                "{kind:?}: intra {intra} must exceed inter {inter}"
            );
        }
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
            window: 1,
            negatives: 2,
            learning_rate: 0.025,
            seed: 0,
            ..make_ctx(&phi_in, &phi_out, &table, &sig)
        };
        for kind in KINDS {
            let (pairs, _) = train_walks(&ctx, walks.view(), Settings::of(kind), 0);
            assert_eq!(pairs, 8, "{kind:?}");
        }
    }

    #[test]
    fn multi_window_one_equals_plain_batching() {
        // multi_windows = 1 must still be a valid configuration.
        let walks = Corpus::from_walks(vec![vec![0, 1, 2, 3], vec![3, 2, 1, 0]], 4);
        let vocab = Vocab::from_frequencies(&[10; 4]);
        let table = NegativeTable::with_size(&vocab, 256);
        let sig = SigmoidTable::new();
        let phi_in = HogwildMatrix::random_init(4, 8, 1);
        let phi_out = HogwildMatrix::zeros(4, 8);
        let ctx = make_ctx(&phi_in, &phi_out, &table, &sig);
        let settings = Settings::of(TrainerKind::Dsgl { multi_windows: 1 });
        let (pairs, _) = train_walks(&ctx, walks.view(), settings, 0);
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
        let slot_a = staged.stage(7, &source);
        let slot_b = staged.stage(9, &source);
        assert_ne!(slot_a, slot_b);
        // Staging the same rank twice returns the same slot without
        // reloading: the staged row, not the source, is the live copy.
        staged.row_mut(slot_a)[0] = 10.0;
        assert_eq!(staged.stage(7, &source), slot_a);
        assert_eq!(staged.row(slot_a), &[10.0, 2.0, 3.0]);
        // The O(n) table is counted: two u32s per rank, whatever is staged.
        let dest = HogwildMatrix::zeros(12, 3);
        assert_eq!(staged.end_lifetime(&dest), 2 * 3 * 4 + 2 * 4 + 12 * 8);
        assert_eq!(row(&dest, 7), [10.0, 2.0, 3.0]);
        assert_eq!(row(&dest, 9), [4.0, 5.0, 6.0]);
        assert_eq!(row(&dest, 8), [0.0; 3], "unstaged rows untouched");
        // The next lifetime starts empty and reloads from the source.
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
        let single = Corpus::from_walks(vec![vec![0]], 2);
        for kind in KINDS {
            let settings = Settings::of(kind);
            let (pairs, _) = train_walks(&ctx, Corpus::new(2).view(), settings, 0);
            assert_eq!(pairs, 0, "{kind:?}");
            let (pairs, _) = train_walks(&ctx, single.view(), settings, 0);
            assert_eq!(
                pairs, 0,
                "{kind:?}: a single-node walk has no context pairs"
            );
        }
    }

    /// The oracle: the settings' draws, windows and update order with the
    /// scalar pairwise arithmetic, applied to the shared matrices one pair
    /// update at a time (copy, update, store) — no staging, so every logical
    /// row has one copy by construction, whatever the staging lifetime.
    fn train_walks_oracle(
        ctx: &TrainContext<'_>,
        walks: WalksView<'_>,
        settings: Settings,
        thread_id: u64,
    ) -> u64 {
        let dim = ctx.phi_in.dim();
        let mut rng = SplitMix64::for_walker(ctx.seed ^ settings.stream, thread_id);
        let mut draw = || -> Vec<u32> {
            (0..ctx.negatives)
                .map(|_| ctx.negatives_table.sample(rng.next_u64()))
                .collect()
        };
        let mut output = vec![0.0f32; dim];
        let mut update = |input: &[f32], out: u32, label: f32, grad: &mut [f32]| {
            ctx.phi_out.copy_row_into(out as usize, &mut output);
            scalar_pair_update(
                ctx.sigmoid,
                input,
                &mut output,
                label,
                ctx.learning_rate,
                grad,
            );
            ctx.phi_out.store_row(out as usize, &output);
        };
        let mut input = vec![0.0f32; dim];
        let mut grad = vec![0.0f32; dim];
        let mut pairs = 0;
        for batch in walks.chunks(settings.multi_windows) {
            let max_len = batch.iter().map(|w| w.len()).max().unwrap_or(0);
            for step in 0..max_len {
                let active: Vec<&[u32]> = batch.iter().filter(|w| step < w.len()).collect();
                let per_pair = settings.scope == Scope::Pair;
                let step_negatives = if per_pair { Vec::new() } else { draw() };
                for (own, walk) in active.iter().enumerate() {
                    let target = walk[step];
                    for c in window_contexts(step, walk.len(), ctx.window) {
                        let mut negatives = if per_pair {
                            draw()
                        } else {
                            step_negatives.clone()
                        };
                        let others = active.iter().enumerate().filter(|&(o, _)| o != own);
                        negatives.extend(others.map(|(_, w)| w[step]));
                        ctx.phi_in.copy_row_into(walk[c] as usize, &mut input);
                        grad.fill(0.0);
                        update(&input, target, 1.0, &mut grad);
                        for neg in negatives {
                            if neg != target {
                                update(&input, neg, 0.0, &mut grad);
                            }
                        }
                        for i in 0..dim {
                            input[i] += grad[i];
                        }
                        ctx.phi_in.store_row(walk[c] as usize, &input);
                        pairs += 1;
                    }
                }
            }
        }
        pairs
    }

    /// Trains the same corpus with the body and with the oracle from identical
    /// matrices (`threads = 1`, several passes): pairs equal, every row of
    /// both matrices within 1e-4.
    fn assert_matches_oracle(num_ranks: usize, walks: WalksView<'_>, kind: TrainerKind) {
        let dim = 20; // two whole lane chunks and a tail of four
        let vocab = Vocab::from_frequencies(&vec![10; num_ranks]);
        let table = NegativeTable::with_size(&vocab, 1 << 10);
        let sig = SigmoidTable::new();
        let settings = Settings::of(kind);
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
            let (pairs, _) = train_walks(&pass_ctx(&got_in, &got_out), walks, settings, 7);
            let want_pairs = train_walks_oracle(&pass_ctx(&want_in, &want_out), walks, settings, 7);
            assert_eq!(pairs, want_pairs, "pairs, {kind:?}");
        }
        for (name, got, want) in [("φ_in", got_in, want_in), ("φ_out", got_out, want_out)] {
            let (got, want) = (got.into_vec(), want.into_vec());
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                assert!(
                    (g - w).abs() <= 1e-4,
                    "{name}[{}][{}]: {g} vs oracle {w}, {kind:?}",
                    i / dim,
                    i % dim
                );
            }
        }
    }

    /// Ragged walks over `num_ranks` ranks, a single-node walk among them.
    fn random_walks(num_ranks: usize, count: usize, seed: u64) -> Corpus {
        let mut rng = SplitMix64::new(seed);
        let walks = (0..count)
            .map(|i| {
                let len = if i == 2 { 1 } else { 1 + rng.next_bounded(12) };
                (0..len)
                    .map(|_| rng.next_bounded(num_ranks) as u32)
                    .collect()
            })
            .collect();
        Corpus::from_walks(walks, num_ranks)
    }

    #[test]
    fn matches_the_scalar_single_copy_oracle() {
        let walks = random_walks(50, 31, 9);
        for kind in KINDS {
            assert_matches_oracle(50, walks.view(), kind);
        }
    }

    /// Three ranks and K = 4: every group's negatives repeat each other and
    /// hit the windows' targets, so every staged output row is target and
    /// negative at once — the rows whose positive updates staging used to
    /// overwrite.
    #[test]
    fn a_rank_that_is_target_and_negative_keeps_every_update() {
        let walks = random_walks(3, 20, 10);
        for kind in KINDS {
            assert_matches_oracle(3, walks.view(), kind);
        }
    }
}
