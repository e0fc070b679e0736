//! One hostile-bytes suite for every public decoder of the workspace.
//!
//! Each row below hands a decoder a well-formed input and lets
//! [`assert_total`] drive every prefix, every single-bit flip and every 4-
//! and 8-byte window overwritten with all-ones (the lying length field)
//! through it. The decoder must return — `Err`, or an `Ok` that got there
//! without panicking — and under the counting allocator of this binary it
//! must never have more than `4 × input + 1 MiB` of heap live at once: no
//! length field of a peer or a file is trusted into an allocation the input
//! does not justify. The checksummed containers (`DGTF`, `DGWC`, `DGEB`)
//! must additionally reject every variant.
//!
//! The private decoders (round harvests, trainer shards/rows/models, serve
//! LOAD/QUERY/TOPK, transport entries) run the same `assert_total` from
//! their own unit modules.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

use distger::cluster::transport::{decode_events, encode_events};
use distger::cluster::wire::testing::assert_total;
use distger::cluster::wire::{encode_frame, kind, put_u32};
use distger::cluster::{read_frame, CommStats, Wire, WireReader};
use distger::obs::{Phase, TraceEvent};
use distger::prelude::*;
use distger::walks::info::{FullPathInfo, IncrementalInfo};
use distger::walks::message::{InfoPayload, WalkerMessage};
use distger::walks::WalkCheckpoint;

thread_local! {
    /// Heap bytes this thread has live relative to the last [`peak_during`]
    /// start (signed: a decode may free what was allocated before it).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

fn record(delta: isize) {
    // `try_with`: the allocator also runs while a thread is being torn down.
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// The system allocator with a per-thread live-bytes counter, so tests of
/// this binary can run in parallel and still measure their own decodes.
struct CountingAlloc;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract for the caller's own pointers and layouts. The
// counters are const-initialised thread-locals of a type without a
// destructor, so touching them neither allocates nor registers a
// destructor — `record` cannot re-enter the allocator.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        record(layout.size() as isize);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        record(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // A moving realloc holds both blocks for a moment: count that.
        record(new_size as isize);
        record(-(layout.size() as isize));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the peak of heap bytes it had live
/// at once, on this thread.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    LIVE.set(0);
    PEAK.set(0);
    let out = f();
    (out, PEAK.get().max(0) as usize)
}

/// One row of the table: `decode` is total on every hostile variant of
/// `clean` and never holds more heap than the input justifies.
fn check<T>(clean: &[u8], checksummed: bool, decode: impl Fn(&[u8]) -> io::Result<T>) {
    let accepted = assert_total(clean, |bytes| {
        let (result, peak) = peak_during(|| decode(bytes));
        assert!(
            peak <= 4 * bytes.len() + (1 << 20),
            "decoding {} bytes held {peak} bytes of heap",
            bytes.len()
        );
        result
    });
    if checksummed {
        assert_eq!(accepted, 0, "a corrupted container was accepted");
    }
}

fn walker_messages() -> Vec<WalkerMessage> {
    let mut full = FullPathInfo::start(3);
    let mut incremental = IncrementalInfo::start();
    for (i, node) in [1, 4, 1, 5, 9].into_iter().enumerate() {
        full.accept(node);
        incremental.accept(i as u64 % 2);
    }
    [
        InfoPayload::None,
        InfoPayload::FullPath(full),
        InfoPayload::Incremental(incremental),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, info)| WalkerMessage {
        walk_id: 1_000 + i as u64,
        step: 3,
        cur: 7,
        prev: (i > 0).then_some(5),
        rng_state: 99,
        info,
    })
    .collect()
}

#[test]
fn dgtf_frames() {
    let frame = encode_frame(kind::BATCH, 3, 42, b"a frame payload, 27 bytes.");
    check(&frame, true, |bytes| read_frame(&mut &bytes[..]));
}

#[test]
fn dgwc_checkpoints() {
    let checkpoint = WalkCheckpoint {
        seed: 0xDEAD_BEEF,
        rounds: 3,
        comm: CommStats {
            messages: 2,
            bytes: 112,
            local_steps: 1,
            supersteps: 6,
            ..CommStats::new()
        },
        peak_round_memory: 4096,
        trace: vec![0.5, 0.25, 0.125],
        corpus: Corpus::from_walks(vec![vec![0, 3, 7, 2], vec![9, 9, 1], vec![5]], 10),
    };
    check(&checkpoint.encode(), true, WalkCheckpoint::decode);
}

#[test]
fn dgeb_stores() {
    let path = std::env::temp_dir().join(format!("distger_hostile_{}.dgeb", std::process::id()));
    Embeddings::from_node_major(vec![1.5, -0.0, 3.25e7, -1e-20, 0.1, 7.0], 2)
        .save_binary(&path)
        .expect("save store");
    let store = std::fs::read(&path).expect("read store back");
    std::fs::remove_file(&path).ok();
    check(&store, true, Embeddings::decode_binary);
}

#[test]
fn trace_event_batches() {
    let event = |name: &'static str, phase, ts_micros, machine| TraceEvent {
        name: name.into(),
        phase,
        ts_micros,
        pid: 0,
        tid: 1,
        machine,
        round: machine,
    };
    let events = [
        event("superstep", Phase::Begin, 100, 2),
        event("fault \"x\"\n", Phase::Instant, 150, -1),
        event("superstep", Phase::End, 200, 2),
    ];
    check(&encode_events(&events, 3, -40), false, decode_events);
}

#[test]
fn walker_message_batches() {
    // The shape of one routed queue: a count, then the messages back to back.
    let messages = walker_messages();
    let mut batch = Vec::new();
    put_u32(&mut batch, messages.len() as u32);
    for message in &messages {
        message.encode_into(&mut batch);
    }
    check(&batch, false, |bytes| {
        let mut r = WireReader::new(bytes);
        let count = r.count_u32(1)?;
        let mut decoded = Vec::new();
        for _ in 0..count {
            decoded.push(WalkerMessage::decode(&mut r)?);
        }
        r.finish().map(|()| decoded)
    });
}

#[test]
fn job_specs() {
    check(&JobSpec::default().encode(), false, JobSpec::decode);
}
