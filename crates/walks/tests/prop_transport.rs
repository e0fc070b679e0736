//! Property-based tests for the transport layer (ISSUE 8).
//!
//! Four layers are pinned down:
//!
//! * **Wire codec** — random walker-message batches round-trip bit-exactly
//!   through the hand-rolled wire format (the encoding, not just the value,
//!   is the equality surface: re-encoding the decoded batch must reproduce
//!   the original bytes).
//! * **Robustness** — random clean frames and message batches go through
//!   the workspace's one hostile-bytes harness (`wire::testing::assert_total`:
//!   every prefix, every bit flip, every lying length field): never a panic,
//!   and for checksummed frames never an `Ok`.
//! * **Transport equivalence** (the tentpole property) — for any
//!   seed × machine count × process count × engine configuration, the
//!   loopback [`SocketTransport`] run produces a corpus, communication
//!   trace, and entropy trace bit-identical to the in-process engine.
//! * **Lying peers** — a round harvest that reaches the coordinator
//!   truncated or with any bit flipped makes the run return `Err` or finish
//!   on the (valid but different) data; it never panics the coordinator.

use distger_cluster::wire::testing::assert_total;
use distger_cluster::wire::{encode_frame, kind};
use distger_cluster::{
    read_frame, ControlChannel, InMemoryTransport, Outbox, RecoveryExhausted, Transport, Wire,
    WireReader, WireStats,
};
use distger_partition::{mpgp_partition, MpgpConfig};
use distger_walks::info::{FullPathInfo, IncrementalInfo};
use distger_walks::message::{InfoPayload, WalkerMessage};
use distger_walks::{
    run_distributed_walks, run_walks_over, run_walks_over_loopback, WalkEngineConfig, WalkModel,
};
use proptest::prelude::*;

/// A random walker message covering all three info-payload modes.
fn arb_message() -> impl Strategy<Value = WalkerMessage> {
    // Nested ≤3-tuples: the vendored proptest shim implements Strategy for
    // tuples up to arity 3 and has no prop::option module, so `prev` is a
    // (flag, value) pair.
    (
        (any::<u64>(), 0u32..200, 0u32..5_000),
        ((any::<bool>(), 0u32..5_000), any::<u64>(), 0usize..3),
        prop::collection::vec(0u32..5_000, 1..20),
    )
        .prop_map(|((walk_id, step, cur), (prev, rng_state, mode), path)| {
            let prev = if prev.0 { Some(prev.1) } else { None };
            let info = match mode {
                0 => InfoPayload::None,
                1 => {
                    let mut full = FullPathInfo::start(path[0]);
                    for &node in &path[1..] {
                        full.accept(node);
                    }
                    InfoPayload::FullPath(full)
                }
                _ => {
                    let mut incremental = IncrementalInfo::start();
                    for (i, _) in path.iter().enumerate() {
                        incremental.accept(i as u64);
                    }
                    InfoPayload::Incremental(incremental)
                }
            };
            WalkerMessage {
                walk_id,
                step,
                cur,
                prev,
                rng_state,
                info,
            }
        })
}

/// Encodes a batch the way the transport ships it: a count then every
/// message back to back.
fn encode_batch(batch: &[WalkerMessage]) -> Vec<u8> {
    let mut out = Vec::new();
    distger_cluster::wire::put_u32(&mut out, batch.len() as u32);
    for msg in batch {
        msg.encode_into(&mut out);
    }
    out
}

fn decode_batch(payload: &[u8]) -> std::io::Result<Vec<WalkerMessage>> {
    let mut r = WireReader::new(payload);
    // The smallest walker (no previous node, no info payload) is 26 bytes.
    let count = r.count_u32(26)?;
    let mut batch = Vec::with_capacity(count);
    for _ in 0..count {
        batch.push(WalkerMessage::decode(&mut r)?);
    }
    r.finish()?;
    Ok(batch)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// decode(encode(batch)) re-encodes to the identical bytes — including
    /// the f64 bit patterns of the entropy measurements.
    #[test]
    fn message_batches_round_trip_bit_exactly(
        batch in prop::collection::vec(arb_message(), 0..12),
    ) {
        let bytes = encode_batch(&batch);
        let decoded = decode_batch(&bytes).expect("decode own encoding");
        prop_assert_eq!(decoded.len(), batch.len());
        prop_assert_eq!(encode_batch(&decoded), bytes);
    }

    /// No hostile variant of a random clean batch panics the decoder, and
    /// whatever still decodes is a batch that re-encodes to the bytes it was
    /// decoded from (valid-but-different bytes are flips that landed in
    /// value fields; they are caught one layer down by the frame checksum).
    #[test]
    fn hostile_batches_never_panic(
        batch in prop::collection::vec(arb_message(), 1..6),
    ) {
        assert_total(&encode_batch(&batch), |bytes| {
            let decoded = decode_batch(bytes)?;
            assert_eq!(encode_batch(&decoded), bytes);
            Ok(decoded)
        });
    }

    /// Every hostile variant of a random clean frame is rejected: the
    /// checksum covers every header byte and every payload byte.
    #[test]
    fn hostile_frames_are_always_rejected(
        payload in prop::collection::vec(any::<u8>(), 0..200),
        sender in 0u32..16,
        seq in 0u64..1_000,
    ) {
        let bytes = encode_frame(kind::BATCH, sender, seq, &payload);
        let original = read_frame(&mut &bytes[..]).expect("read own frame");
        prop_assert_eq!(&original.payload, &payload);
        prop_assert_eq!(assert_total(&bytes, |bytes| read_frame(&mut &bytes[..])), 0);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The tentpole: over seeds × machines × process counts × engine
    /// configurations, walking over loopback TCP sockets is bit-identical to
    /// the in-process reference — same corpus, same communication trace,
    /// same rounds, same relative-entropy trace.
    #[test]
    fn socket_and_in_memory_transports_are_bit_identical(
        seed in 0u64..10,
        machines in 1usize..5,
        endpoints in 1usize..4,
        config_idx in 0usize..3,
    ) {
        let endpoints = endpoints.min(machines);
        let g = distger_graph::barabasi_albert(110, 3, seed);
        let p = mpgp_partition(&g, machines, MpgpConfig::default());
        let config = match config_idx {
            0 => WalkEngineConfig::distger(),
            1 => WalkEngineConfig::huge_d(),
            _ => WalkEngineConfig::knightking_routine(WalkModel::DeepWalk)
                .with_length(distger_walks::LengthPolicy::Fixed(15))
                .with_walks_per_node(distger_walks::WalkCountPolicy::Fixed(2)),
        }
        .with_seed(seed);

        let classic = run_distributed_walks(&g, &p, &config);
        let socket = run_walks_over_loopback(&g, &p, &config, endpoints);

        prop_assert_eq!(&socket.corpus, &classic.corpus);
        prop_assert_eq!(&socket.comm, &classic.comm);
        prop_assert_eq!(socket.rounds, classic.rounds);
        prop_assert_eq!(
            &socket.relative_entropy_trace,
            &classic.relative_entropy_trace
        );
        // The socket run additionally measured real traffic; the in-process
        // run must not have.
        prop_assert_eq!(classic.comm.wire.frames_sent, 0);
        if endpoints > 1 {
            prop_assert!(socket.comm.wire.frames_sent > 0);
            prop_assert!(socket.comm.wire.batch_bytes_sent > 0);
        }
    }
}

/// Every machine in this process, but the harvest of round `lie_round`
/// reaches the coordinator the way a lying peer would send it: tampered.
struct LyingPeer<F> {
    inner: InMemoryTransport,
    lie_round: u32,
    lie: F,
}

impl<F: Fn(&mut Vec<u8>)> ControlChannel for LyingPeer<F> {
    fn endpoint(&self) -> usize {
        0
    }
    fn endpoints(&self) -> usize {
        1
    }
    fn num_machines(&self) -> usize {
        self.inner.num_machines()
    }
    fn local_machines(&self) -> std::ops::Range<usize> {
        self.inner.local_machines()
    }
    fn broadcast(&mut self, payload: &[u8]) -> std::io::Result<Vec<u8>> {
        self.inner.broadcast(payload)
    }
    fn gather(&mut self, payload: &[u8]) -> std::io::Result<Vec<Vec<u8>>> {
        let mut gathered = self.inner.gather(payload)?;
        if self.lie_round == 0 {
            (self.lie)(&mut gathered[0]);
        }
        self.lie_round = self.lie_round.wrapping_sub(1);
        Ok(gathered)
    }
    fn scatter(&mut self, payloads: &[Vec<u8>]) -> std::io::Result<Vec<u8>> {
        self.inner.scatter(payloads)
    }
    fn wire_stats(&self) -> WireStats {
        WireStats::default()
    }
}

impl<F: Fn(&mut Vec<u8>)> Transport<WalkerMessage> for LyingPeer<F> {
    fn exchange(
        &mut self,
        superstep: u64,
        outboxes: &mut [&mut Outbox<WalkerMessage>],
        inboxes: &mut [&mut Vec<WalkerMessage>],
    ) -> std::io::Result<()> {
        self.inner.exchange(superstep, outboxes, inboxes)
    }
    fn sync_pending(&mut self, local_pending: bool) -> std::io::Result<bool> {
        Transport::<WalkerMessage>::sync_pending(&mut self.inner, local_pending)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any prefix and any single-bit-pattern flip of a round harvest: the
    /// coordinator returns an error, or completes on data that happens to
    /// still be valid — but no peer-supplied walk id, offset, length or node
    /// id is ever trusted into a panic. (The driver turns a caught panic into
    /// a `RecoveryExhausted` error, so that is what must not come back.)
    #[test]
    fn tampered_harvests_never_panic_the_coordinator(
        seed in 0u64..6,
        lie_round in 0u32..2,
        truncate in any::<bool>(),
        pos in 0usize..1_000_000,
        flip_mask in 1usize..256,
    ) {
        let g = distger_graph::barabasi_albert(60, 3, seed);
        let p = mpgp_partition(&g, 3, MpgpConfig::default());
        let config = WalkEngineConfig::distger().with_seed(seed);
        let mut transport = LyingPeer {
            inner: InMemoryTransport::new(3),
            lie_round,
            lie: |payload: &mut Vec<u8>| {
                let at = pos % payload.len();
                if truncate {
                    payload.truncate(at);
                } else {
                    payload[at] ^= flip_mask as u8;
                }
            },
        };
        let result = run_walks_over(&mut transport, &g, &p, &config, None);
        if let Err(err) = &result {
            prop_assert!(
                !err.get_ref().is_some_and(|inner| inner.is::<RecoveryExhausted>()),
                "the tampered harvest panicked the coordinator: {}",
                err
            );
        }
        if truncate {
            prop_assert!(result.is_err(), "a truncated harvest must be detected");
        }
    }
}
