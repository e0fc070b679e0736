//! Round-granular checkpoints of the walk engine's coordinator state.
//!
//! The round boundary of [`run_bsp_round_loop`](distger_cluster::run_bsp_round_loop)
//! is a *quiescent point*: every walker of the finished round has terminated,
//! every machine's per-round state (frequency stores, segment buffers) is
//! about to be reset, and the next round's seed inboxes are a pure function
//! of `(seed, round)` — walker `walk_id = round · |V| + source` carries RNG
//! state derived only from `(seed, walk_id)`. So the only state a crash can
//! destroy is what the coordinator has already harvested: the cumulative
//! corpus, the relative-entropy trace driving walk-count convergence, the
//! completed-round count, and the communication totals (a poisoned pool
//! drops the machine slots, and the outbox statistics with them). That is
//! exactly what a [`WalkCheckpoint`] records — per-machine freq stores and
//! in-flight walkers never need to be serialized, because no in-flight
//! walker exists at a boundary and the stores are reset there anyway.
//!
//! The binary format (`DGWC`) is built on the workspace's one wire module
//! ([`distger_cluster::wire`]): magic + version + header fields + a
//! [`Checksum`] of the payload and the header bytes before it, little-endian
//! scalars, and a decoder that returns an error for corrupt or truncated
//! input instead of panicking (the layout table is in `docs/ARCHITECTURE.md`,
//! "Binary formats"). One choice serves the every-round snapshot hot path:
//! the payload puts the walk section *first* and the small metadata tail
//! (seed, rounds, comm totals, entropy trace) *last*. The corpus is
//! append-only between snapshots, so both the cached wire bytes and the
//! streaming checksum state over them are resumable, and
//! [`CheckpointEncoder`] takes each snapshot in O(new walks) instead of
//! O(whole corpus) — which is what keeps the every-round checkpoint policy
//! within the ≤ 10% overhead budget the bench gate defends.

use std::io;
use std::path::Path;

use crate::corpus::{Corpus, WalksView};
use distger_cluster::wire::{
    invalid_data, put_f64, put_u32, put_u32s, put_u64, write_atomically, Checksum,
};
use distger_cluster::{CommStats, WireReader};

/// Magic bytes identifying a DistGER walk checkpoint.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"DGWC";
/// Format version written by [`WalkCheckpoint::encode`] (v2: the checksum
/// became the workspace-wide [`Checksum`]).
pub const CHECKPOINT_VERSION: u32 = 2;
/// Header: magic (4) + version (4) + num_nodes (8) + walk-section length (8)
/// + checksum (8).
const HEADER_LEN: usize = 4 + 4 + 8 + 8 + 8;

/// When the supervised walk engine snapshots its coordinator state.
///
/// `Copy`, so it threads through `WalkEngineConfig` → `DistGerConfig` like
/// the other backend knobs. The default is **disabled**: the fault-free
/// path encodes nothing and pays nothing.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CheckpointPolicy {
    /// Never snapshot (a crash under a recovery policy restarts from round 0).
    #[default]
    Disabled,
    /// Snapshot after every `n`-th completed round (`n ≥ 1`).
    EveryRounds(u32),
}

impl CheckpointPolicy {
    /// Snapshot after every `interval`-th completed round.
    ///
    /// # Panics
    /// Panics if `interval` is zero.
    pub fn every(interval: u32) -> Self {
        assert!(interval > 0, "checkpoint interval must be at least 1");
        CheckpointPolicy::EveryRounds(interval)
    }

    /// Whether any snapshot will ever be taken.
    pub fn is_enabled(&self) -> bool {
        matches!(self, CheckpointPolicy::EveryRounds(_))
    }

    /// Whether a snapshot is due after `completed_rounds` rounds (1-based
    /// count of rounds finished so far).
    pub fn due(&self, completed_rounds: u64) -> bool {
        match self {
            CheckpointPolicy::Disabled => false,
            CheckpointPolicy::EveryRounds(interval) => {
                completed_rounds > 0 && completed_rounds.is_multiple_of(u64::from(*interval))
            }
        }
    }
}

/// Everything the walk engine's coordinator must be able to restore after a
/// crash; see the module docs for why this set is complete.
#[derive(Clone, Debug, PartialEq)]
pub struct WalkCheckpoint {
    /// The run's RNG seed (next-round seed inboxes derive from it).
    pub seed: u64,
    /// Completed rounds at the time of the snapshot.
    pub rounds: u64,
    /// Communication totals over those rounds (traffic sums; `supersteps` is
    /// the max of any single round).
    pub comm: CommStats,
    /// Peak per-round memory watermark observed so far, in bytes.
    pub peak_round_memory: u64,
    /// Relative-entropy trace, one entry per completed round — replaying it
    /// rebuilds the walk-count convergence controller exactly.
    pub trace: Vec<f64>,
    /// The cumulative corpus harvested from the completed rounds.
    pub corpus: Corpus,
}

impl WalkCheckpoint {
    /// Serializes to the `DGWC` binary format: a [`CheckpointEncoder`] that
    /// takes exactly one snapshot.
    pub fn encode(&self) -> Vec<u8> {
        let mut encoder = CheckpointEncoder::new(self.corpus.num_nodes() as u64);
        encoder.snapshot(
            self.seed,
            self.rounds,
            &self.comm,
            self.peak_round_memory,
            &self.trace,
            self.corpus.view(),
        );
        encoder
            .assemble_latest()
            .expect("a snapshot was just taken")
    }

    /// Deserializes a `DGWC` buffer. Corrupt, truncated, or trailing-garbage
    /// input returns an error ([`io::ErrorKind::InvalidData`], or
    /// `UnexpectedEof` for a buffer that ends inside the header); this
    /// function never panics on untrusted bytes.
    pub fn decode(bytes: &[u8]) -> io::Result<Self> {
        if !bytes.starts_with(&CHECKPOINT_MAGIC) {
            return Err(invalid_data("not a DGWC checkpoint (bad magic)"));
        }
        let mut header = WireReader::new(&bytes[CHECKPOINT_MAGIC.len()..]);
        let version = header.u32()?;
        if version != CHECKPOINT_VERSION {
            return Err(invalid_data(format!(
                "unsupported checkpoint version {version} (expected {CHECKPOINT_VERSION})"
            )));
        }
        let (num_nodes, walk_section, stored_checksum) =
            (header.u64()?, header.u64()?, header.u64()?);
        let payload = &bytes[HEADER_LEN..];
        let mut payload_sum = Checksum::new();
        payload_sum.update(payload);
        if payload_sum.finish(&bytes[..HEADER_LEN - 8]) != stored_checksum {
            return Err(invalid_data("checkpoint checksum mismatch"));
        }
        let num_nodes_usize = usize::try_from(num_nodes)
            .map_err(|_| invalid_data("checkpoint num_nodes exceeds this platform's usize"))?;
        let (walk_bytes, tail) = usize::try_from(walk_section)
            .ok()
            .and_then(|at| payload.split_at_checked(at))
            .ok_or_else(|| invalid_data("walk section exceeds payload"))?;

        let mut r = WireReader::new(tail);
        let seed = r.u64()?;
        let rounds = r.u64()?;
        // Wire measurements are a deployment property, not part of the
        // logical trace a checkpoint restores — a recovered run re-measures.
        let comm = CommStats {
            messages: r.u64()?,
            bytes: r.u64()?,
            local_steps: r.u64()?,
            remote_steps: r.u64()?,
            supersteps: r.u64()?,
            ..CommStats::new()
        };
        let peak_round_memory = r.u64()?;
        let trace_len = r.count_u64(8)?;
        let trace = (0..trace_len).map(|_| r.f64()).collect::<io::Result<_>>()?;
        let num_walks = r.u64()?;
        r.finish()?;

        // The walk section is read to its end (the arena grows as walks are
        // read) and the count checked after: nothing is sized by `num_walks`.
        let mut r = WireReader::new(walk_bytes);
        let mut corpus = Corpus::new(num_nodes_usize);
        while !r.is_empty() {
            let len = r.count_u32(4)?;
            let walk = r.u32s(len)?;
            if let Some(node) = walk.iter().find(|&&node| u64::from(node) >= num_nodes) {
                return Err(invalid_data(format!(
                    "walk node {node} out of range (num_nodes {num_nodes})"
                )));
            }
            corpus.push_walk(walk);
        }
        if corpus.num_walks() as u64 != num_walks {
            return Err(invalid_data(format!(
                "walk section holds {} walks, the tail declares {num_walks}",
                corpus.num_walks()
            )));
        }
        Ok(Self {
            seed,
            rounds,
            comm,
            peak_round_memory,
            trace,
            corpus,
        })
    }

    /// Writes the checkpoint to `path` crash-safely
    /// ([`write_atomically`]): a crash mid-write can never leave a torn file
    /// under the final name — the previous checkpoint (if any) survives
    /// intact.
    pub fn save(&self, path: &Path) -> io::Result<()> {
        write_atomically(path, |w| w.write_all(&self.encode()))
    }

    /// Reads and validates a checkpoint from `path`.
    pub fn load(path: &Path) -> io::Result<Self> {
        Self::decode(&std::fs::read(path)?)
    }
}

/// Incremental `DGWC` snapshot encoder — the supervised walk driver's
/// every-round hot path. The corpus is append-only between snapshots, so the
/// encoder caches the wire bytes of walks it has already encoded *and* the
/// streaming checksum state over them; each [`snapshot`] appends only the
/// new walks, re-derives the small metadata tail, and folds the tail into a
/// clone of the cached checksum state — O(new walks) work per snapshot
/// instead of O(whole corpus). The contiguous bytes of the latest snapshot
/// are only assembled on demand by [`assemble_latest`], i.e. on the rare
/// recovery path, which then exercises the exact decode-and-verify path a
/// process restart reading the file would.
///
/// [`snapshot`]: CheckpointEncoder::snapshot
/// [`assemble_latest`]: CheckpointEncoder::assemble_latest
#[derive(Debug)]
pub struct CheckpointEncoder {
    num_nodes: u64,
    /// Wire bytes of every walk encoded so far (the payload's walk section).
    walk_bytes: Vec<u8>,
    /// Number of corpus walks covered by `walk_bytes`.
    encoded_walks: usize,
    /// Checksum state after absorbing exactly `walk_bytes`.
    walk_sum: Checksum,
    /// Metadata tail of the latest snapshot (empty until the first one).
    tail: Vec<u8>,
    /// Checksum state over the latest snapshot's whole payload (`walk_bytes`
    /// then `tail`); `None` until the first snapshot.
    payload_sum: Option<Checksum>,
}

impl CheckpointEncoder {
    pub fn new(num_nodes: u64) -> Self {
        Self {
            num_nodes,
            walk_bytes: Vec::new(),
            encoded_walks: 0,
            walk_sum: Checksum::new(),
            tail: Vec::new(),
            payload_sum: None,
        }
    }

    /// Takes a snapshot of the coordinator state, reusing everything cached
    /// by previous snapshots. `walks` must extend (never rewrite) the walks
    /// of the previous snapshot. Returns the encoded size in bytes.
    pub fn snapshot(
        &mut self,
        seed: u64,
        rounds: u64,
        comm: &CommStats,
        peak_round_memory: u64,
        trace: &[f64],
        walks: WalksView<'_>,
    ) -> usize {
        let (start, new) = (self.walk_bytes.len(), self.encoded_walks..walks.len());
        append_walk_bytes(&mut self.walk_bytes, walks.slice(new));
        self.encoded_walks = walks.len();
        self.walk_sum.update(&self.walk_bytes[start..]);
        self.tail.clear();
        write_checkpoint_tail(
            &mut self.tail,
            seed,
            rounds,
            comm,
            peak_round_memory,
            trace,
            walks.len() as u64,
        );
        let mut payload_sum = self.walk_sum.clone();
        payload_sum.update(&self.tail);
        self.payload_sum = Some(payload_sum);
        HEADER_LEN + self.walk_bytes.len() + self.tail.len()
    }

    /// Number of corpus walks the cached walk section covers.
    pub fn encoded_walks(&self) -> usize {
        self.encoded_walks
    }

    /// Assembles the latest snapshot's contiguous `DGWC` bytes, or `None` if
    /// no snapshot has been taken since construction or the last [`reset`].
    ///
    /// [`reset`]: CheckpointEncoder::reset
    pub fn assemble_latest(&self) -> Option<Vec<u8>> {
        let payload_sum = self.payload_sum.clone()?;
        Some(assemble(
            self.num_nodes,
            &self.walk_bytes,
            &self.tail,
            payload_sum,
        ))
    }

    /// Drops every cached snapshot and walk byte; the next [`snapshot`]
    /// re-encodes the corpus it is given from scratch. Used when recovery
    /// restarts from round 0 (nothing was snapshotted before the crash).
    ///
    /// [`snapshot`]: CheckpointEncoder::snapshot
    pub fn reset(&mut self) {
        *self = Self::new(self.num_nodes);
    }
}

/// Lays out a complete `DGWC` buffer: the header — whose checksum field is
/// `payload_sum` (the state over `walk_bytes` then `tail`) finished with the
/// header bytes before it — then the payload.
fn assemble(num_nodes: u64, walk_bytes: &[u8], tail: &[u8], payload_sum: Checksum) -> Vec<u8> {
    let mut buf = Vec::with_capacity(HEADER_LEN + walk_bytes.len() + tail.len());
    buf.extend_from_slice(&CHECKPOINT_MAGIC);
    put_u32(&mut buf, CHECKPOINT_VERSION);
    put_u64(&mut buf, num_nodes);
    put_u64(&mut buf, walk_bytes.len() as u64);
    let checksum = payload_sum.finish(&buf);
    put_u64(&mut buf, checksum);
    buf.extend_from_slice(walk_bytes);
    buf.extend_from_slice(tail);
    buf
}

/// Appends the wire encoding of `walks` (per walk: `u32` length prefix +
/// `u32` nodes, little-endian) — the payload's leading walk section, ~99% of
/// every checkpoint.
fn append_walk_bytes(buf: &mut Vec<u8>, walks: WalksView<'_>) {
    buf.reserve(4 * (walks.len() + walks.tokens().len()));
    for walk in walks.iter() {
        put_u32(buf, walk.len() as u32);
        put_u32s(buf, walk);
    }
}

/// Appends the payload's metadata tail: scalars, comm counters, entropy
/// trace, walk count.
fn write_checkpoint_tail(
    buf: &mut Vec<u8>,
    seed: u64,
    rounds: u64,
    comm: &CommStats,
    peak_round_memory: u64,
    trace: &[f64],
    num_walks: u64,
) {
    buf.reserve(8 * (10 + trace.len()));
    for scalar in [
        seed,
        rounds,
        comm.messages,
        comm.bytes,
        comm.local_steps,
        comm.remote_steps,
        comm.supersteps,
        peak_round_memory,
        trace.len() as u64,
    ] {
        put_u64(buf, scalar);
    }
    for &d in trace {
        put_f64(buf, d);
    }
    put_u64(buf, num_walks);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn sample_checkpoint() -> WalkCheckpoint {
        let mut corpus = Corpus::new(10);
        corpus.push_walk(vec![0, 3, 7, 2]);
        corpus.push_walk(vec![9, 9, 1]);
        corpus.push_walk(vec![5]);
        let mut comm = CommStats::new();
        comm.record_message(80);
        comm.record_message(32);
        comm.record_local_step();
        comm.supersteps = 6;
        WalkCheckpoint {
            seed: 0xDEAD_BEEF,
            rounds: 3,
            comm,
            peak_round_memory: 4096,
            trace: vec![0.5, 0.25, 0.125],
            corpus,
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("distger_checkpoint_test");
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir.join(format!("{}_{}", std::process::id(), name))
    }

    #[test]
    fn round_trip_is_bit_exact() {
        let original = sample_checkpoint();
        let bytes = original.encode();
        let decoded = WalkCheckpoint::decode(&bytes).expect("decode own encoding");
        assert_eq!(decoded, original);
        // Re-encoding the decoded checkpoint reproduces the bytes exactly.
        assert_eq!(decoded.encode(), bytes);
    }

    #[test]
    fn empty_checkpoint_round_trips() {
        let empty = WalkCheckpoint {
            seed: 1,
            rounds: 0,
            comm: CommStats::new(),
            peak_round_memory: 0,
            trace: Vec::new(),
            corpus: Corpus::new(4),
        };
        let decoded = WalkCheckpoint::decode(&empty.encode()).expect("decode");
        assert_eq!(decoded, empty);
    }

    #[test]
    fn incremental_encoder_matches_one_shot_encoding() {
        // Every snapshot the incremental encoder assembles must be
        // byte-identical to encoding the same state in one pass — including
        // snapshots whose walk cache and checksum state were built up across
        // several earlier snapshots.
        let full = sample_checkpoint();
        let mut partial = full.clone();
        partial.rounds = 1;
        partial.trace.truncate(1);
        partial.corpus = Corpus::new(10);
        partial
            .corpus
            .push_walk(full.corpus.view().walk(0).iter().copied());

        let mut encoder = CheckpointEncoder::new(10);
        assert!(encoder.assemble_latest().is_none(), "no snapshot yet");
        let size = encoder.snapshot(
            partial.seed,
            partial.rounds,
            &partial.comm,
            partial.peak_round_memory,
            &partial.trace,
            partial.corpus.view(),
        );
        let assembled = encoder.assemble_latest().expect("first snapshot");
        assert_eq!(size, assembled.len());
        assert_eq!(assembled, partial.encode());

        let size = encoder.snapshot(
            full.seed,
            full.rounds,
            &full.comm,
            full.peak_round_memory,
            &full.trace,
            full.corpus.view(),
        );
        assert_eq!(encoder.encoded_walks(), full.corpus.num_walks());
        let assembled = encoder.assemble_latest().expect("second snapshot");
        assert_eq!(size, assembled.len());
        assert_eq!(assembled, full.encode());

        // After a reset the encoder re-encodes from scratch and still
        // matches the one-shot bytes.
        encoder.reset();
        assert!(encoder.assemble_latest().is_none(), "reset drops snapshots");
        encoder.snapshot(
            full.seed,
            full.rounds,
            &full.comm,
            full.peak_round_memory,
            &full.trace,
            full.corpus.view(),
        );
        let assembled = encoder.assemble_latest().expect("post-reset snapshot");
        assert_eq!(assembled, full.encode());
    }

    /// The sample checkpoint's bytes with its walk section and tail edited
    /// and the checksum re-sealed over the result, so only the structural
    /// checks can reject it.
    fn resealed(edit: impl FnOnce(&mut Vec<u8>, &mut Vec<u8>)) -> Vec<u8> {
        let good = sample_checkpoint();
        let walks = good.corpus.view();
        let (mut walk_bytes, mut tail) = (Vec::new(), Vec::new());
        append_walk_bytes(&mut walk_bytes, walks);
        write_checkpoint_tail(
            &mut tail,
            good.seed,
            good.rounds,
            &good.comm,
            good.peak_round_memory,
            &good.trace,
            walks.len() as u64,
        );
        edit(&mut walk_bytes, &mut tail);
        let mut payload_sum = Checksum::new();
        payload_sum.update(&walk_bytes);
        payload_sum.update(&tail);
        assemble(10, &walk_bytes, &tail, payload_sum)
    }

    /// Corruption is the checksum's job (`tests/hostile_bytes.rs` drives every
    /// prefix, flip and lying length through `decode`); behind a *valid*
    /// checksum the structural checks still hold.
    #[test]
    fn structural_lies_behind_a_valid_checksum_are_rejected() {
        let bytes = sample_checkpoint().encode();
        assert_eq!(resealed(|_, _| {}), bytes, "resealing nothing encodes");
        let trailing = resealed(|_, tail| put_u64(tail, 0));
        let err = WalkCheckpoint::decode(&trailing).unwrap_err();
        assert!(err.to_string().contains("trailing"), "{err}");
        for lie in [0, 2, 4, u64::MAX] {
            let wrong_count = resealed(|_, tail| {
                tail.truncate(tail.len() - 8);
                put_u64(tail, lie);
            });
            let err = WalkCheckpoint::decode(&wrong_count).unwrap_err();
            assert!(err.to_string().contains("the tail declares"), "{err}");
        }
        let lying_walk_len = resealed(|walk_bytes, _| {
            walk_bytes.truncate(walk_bytes.len() - 8);
            put_u32(walk_bytes, u32::MAX);
            put_u32(walk_bytes, 5);
        });
        let err = WalkCheckpoint::decode(&lying_walk_len).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn out_of_range_nodes_are_rejected_before_corpus_construction() {
        // The last walk's single node (node 5, the final 4 bytes of the walk
        // section) becomes 10 of 10 nodes: Corpus::push_walk would
        // debug-panic on it; the decoder must catch it first.
        let bytes = resealed(|walk_bytes, _| {
            walk_bytes.truncate(walk_bytes.len() - 4);
            put_u32(walk_bytes, 10);
        });
        let err = WalkCheckpoint::decode(&bytes).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("out of range"), "{err}");
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let path = temp_path("round_trip.dgwc");
        let checkpoint = sample_checkpoint();
        checkpoint.save(&path).expect("save");
        let loaded = WalkCheckpoint::load(&path).expect("load");
        assert_eq!(loaded, checkpoint);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn checkpoint_policy_schedules_rounds() {
        assert!(!CheckpointPolicy::Disabled.is_enabled());
        assert!(!CheckpointPolicy::Disabled.due(5));
        let every2 = CheckpointPolicy::every(2);
        assert!(every2.is_enabled());
        assert!(!every2.due(0));
        assert!(!every2.due(1));
        assert!(every2.due(2));
        assert!(!every2.due(3));
        assert!(every2.due(4));
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_checkpoint_interval_rejected() {
        CheckpointPolicy::every(0);
    }
}
