//! The one place that knows how bytes are laid out, checked and bounded.
//!
//! The build environment has no serde, so every binary format of the
//! workspace — `DGTF` transport frames (below), `DGWC` walk checkpoints,
//! `DGEB` embedding stores and every payload that rides inside a frame — is
//! encoded by hand on the helpers of this module: explicit little-endian
//! fields, explicit errors, no panics on malformed input.
//!
//! * **One cursor** — [`WireReader`]: every accessor is bounds-checked and a
//!   short input is `UnexpectedEof`, never an out-of-bounds read.
//! * **One checksum** — [`Checksum`]: a container's checksum is its payload
//!   streamed through [`Checksum::update`], then every header byte that
//!   precedes the checksum field absorbed by [`Checksum::finish`], so a
//!   corrupted header can never pair with a still-valid payload.
//! * **One length guard** — [`WireReader::count_u32`] /
//!   [`WireReader::count_u64`] read an element count and reject it
//!   (`InvalidData`) unless the bytes still unread could hold that many
//!   elements; the slice readers ([`WireReader::u32s`], [`WireReader::f32s`])
//!   bounds-check before they allocate. No length field of a peer or a file
//!   is trusted into an allocation the input does not justify.
//!
//! ## Frame layout (32-byte header + payload)
//!
//! | offset | size | field         | notes                                    |
//! |--------|------|---------------|------------------------------------------|
//! | 0      | 4    | magic         | `b"DGTF"`                                |
//! | 4      | 2    | version       | little-endian, currently `2`             |
//! | 6      | 1    | kind          | frame-kind discriminant                  |
//! | 7      | 1    | flags         | reserved, currently `0`                  |
//! | 8      | 4    | sender        | endpoint id of the sending process       |
//! | 12     | 8    | seq           | per-connection sequence number           |
//! | 20     | 4    | payload\_len  | sanity-capped at [`MAX_PAYLOAD_BYTES`]   |
//! | 24     | 8    | checksum      | [`Checksum`] of payload, then bytes 0–23 |

use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Magic bytes opening every frame: **D**ist**G**er **T**ransport **F**rame.
pub const FRAME_MAGIC: [u8; 4] = *b"DGTF";
/// Current wire-format version. Bumped on any incompatible layout change
/// (v2: the checksum became [`Checksum`]).
pub const WIRE_VERSION: u16 = 2;
/// Fixed size of the frame header in bytes.
pub const FRAME_HEADER_BYTES: usize = 32;
/// Upper bound on a single frame payload. A length prefix beyond this is
/// treated as stream corruption rather than an allocation request.
pub const MAX_PAYLOAD_BYTES: u32 = 1 << 30;
/// [`read_frame`] grows its payload buffer in steps of at most this many
/// bytes, so a header that lies about `payload_len` costs at most one step
/// beyond what the peer actually sent.
const READ_STEP_BYTES: usize = 1 << 20;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Frame kinds used by the socket transport protocol.
pub mod kind {
    /// Worker → coordinator: first frame after connecting.
    pub const HELLO: u8 = 1;
    /// Coordinator → worker: endpoint assignment + topology.
    pub const HELLO_ACK: u8 = 2;
    /// Worker → coordinator: all cross-endpoint message queues.
    pub const BATCH: u8 = 3;
    /// Coordinator → worker: the queues destined for that endpoint.
    pub const DELIVER: u8 = 4;
    /// Worker → coordinator: local "any messages pending" flag.
    pub const PENDING: u8 = 5;
    /// Coordinator → worker: global OR of the pending flags.
    pub const PENDING_RESULT: u8 = 6;
    /// Coordinator → worker: opaque control payload (all endpoints).
    pub const BROADCAST: u8 = 7;
    /// Worker → coordinator: opaque control payload (collected in order).
    pub const GATHER: u8 = 8;
    /// Coordinator → worker: opaque per-endpoint control payload.
    pub const SCATTER: u8 = 9;
}

/// Builds an `InvalidData` error: the failure mode of every decoder in the
/// workspace for input that is well-sized but malformed.
pub fn invalid_data(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

fn eof(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::UnexpectedEof, msg.to_string())
}

// ---------------------------------------------------------------------------
// Checksum — the one integrity check under every container format
// ---------------------------------------------------------------------------

/// Streaming integrity checksum: four interleaved FNV-1a64 lanes over
/// little-endian `u64` words (dealt round-robin over 32-byte blocks,
/// zero-padded tail). Word-wise folding is 8× cheaper than byte-wise FNV and
/// the four lanes break the serial xor-multiply dependency chain so the
/// multiplies pipeline. Each lane is salted with its index and the final
/// fold absorbs the lanes in order, so moving a word between lanes still
/// changes the result. Not cryptographic — it guards against truncation and
/// bit rot, not tampering.
///
/// The state is `Clone` and resumable (chunk boundaries of
/// [`update`](Checksum::update) do not affect the result), which is what
/// lets the walk engine's checkpoint encoder keep the state over its
/// append-only walk section across snapshots and only ever feed it the new
/// bytes.
#[derive(Clone, Debug)]
pub struct Checksum {
    lanes: [u64; 4],
    /// Bytes of a not-yet-complete 32-byte block.
    block: [u8; 32],
    filled: usize,
}

impl Default for Checksum {
    fn default() -> Self {
        Self::new()
    }
}

impl Checksum {
    /// The state over zero bytes.
    pub fn new() -> Self {
        let mut lanes = [FNV_OFFSET; 4];
        for (i, lane) in lanes.iter_mut().enumerate() {
            *lane = (*lane ^ i as u64).wrapping_mul(FNV_PRIME);
        }
        Checksum {
            lanes,
            block: [0u8; 32],
            filled: 0,
        }
    }

    fn fold_block(&mut self, block: &[u8; 32]) {
        for (lane, word) in self.lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane ^= u64::from_le_bytes(word.try_into().expect("exact 8-byte word"));
            *lane = lane.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorbs `bytes`; chunk boundaries do not affect the result.
    pub fn update(&mut self, mut bytes: &[u8]) {
        if self.filled > 0 {
            let take = bytes.len().min(32 - self.filled);
            self.block[self.filled..self.filled + take].copy_from_slice(&bytes[..take]);
            self.filled += take;
            bytes = &bytes[take..];
            if self.filled < 32 {
                return;
            }
            let block = self.block;
            self.fold_block(&block);
            self.filled = 0;
        }
        let mut blocks = bytes.chunks_exact(32);
        for block in &mut blocks {
            self.fold_block(block.try_into().expect("exact 32-byte block"));
        }
        let rem = blocks.remainder();
        self.block[..rem.len()].copy_from_slice(rem);
        self.filled = rem.len();
    }

    /// Consumes the state (clone it first to keep streaming): absorbs
    /// `header_prefix` — every header byte that precedes the container's
    /// checksum field — zero-pads the last partial block and folds the lanes.
    pub fn finish(mut self, header_prefix: &[u8]) -> u64 {
        self.update(header_prefix);
        if self.filled > 0 {
            self.block[self.filled..].fill(0);
            let block = self.block;
            self.fold_block(&block);
        }
        self.lanes.iter().fold(FNV_OFFSET, |hash, lane| {
            (hash ^ lane).wrapping_mul(FNV_PRIME)
        })
    }
}

// ---------------------------------------------------------------------------
// Encoding helpers (append little-endian fields to a byte buffer)
// ---------------------------------------------------------------------------

/// Appends a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(out: &mut Vec<u8>, v: u16) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends an `f64` as its IEEE-754 bit pattern (round-trips NaN payloads).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    put_u64(out, v.to_bits());
}

/// Appends a `u32` length prefix followed by the raw bytes.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Appends `values` as little-endian `u32`s, with no length prefix. The zip
/// over exact chunks compiles to a memcpy on little-endian targets.
pub fn put_u32s(out: &mut Vec<u8>, values: &[u32]) {
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    for (chunk, v) in out[start..].chunks_exact_mut(4).zip(values) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// Appends `values` as `f32` bit patterns (lossless, NaN payloads included),
/// with no length prefix.
pub fn put_f32s(out: &mut Vec<u8>, values: &[f32]) {
    let start = out.len();
    out.resize(start + 4 * values.len(), 0);
    for (chunk, v) in out[start..].chunks_exact_mut(4).zip(values) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

// ---------------------------------------------------------------------------
// WireReader — a bounds-checked cursor over untrusted bytes
// ---------------------------------------------------------------------------

/// Cursor over received or loaded bytes. Every accessor is bounds-checked and
/// returns `UnexpectedEof` instead of panicking when the input is shorter
/// than the schema expects.
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    pub(crate) fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(eof("payload truncated"));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads a `u8`.
    pub fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> io::Result<u16> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> io::Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> io::Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Reads an `f64` stored as its bit pattern.
    pub fn f64(&mut self) -> io::Result<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a `u32`-length-prefixed byte string.
    pub fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    /// The length guard: accepts `count` elements of at least
    /// `min_item_bytes` each only if the unread bytes could hold them. (The
    /// `u128` product cannot overflow; an element costs at least a byte, so
    /// an accepted count fits `usize`.)
    fn guard_count(&self, count: u64, min_item_bytes: usize) -> io::Result<usize> {
        if u128::from(count) * (min_item_bytes.max(1) as u128) <= self.remaining() as u128 {
            return Ok(count as usize);
        }
        Err(invalid_data(format!(
            "count {count} x {min_item_bytes} bytes exceeds the {} bytes left",
            self.remaining()
        )))
    }

    /// Reads a `u32` element count, `InvalidData` unless
    /// `count × min_item_bytes ≤ remaining()` — so a caller may allocate for
    /// `count` elements without trusting the sender.
    pub fn count_u32(&mut self, min_item_bytes: usize) -> io::Result<usize> {
        let count = self.u32()?;
        self.guard_count(u64::from(count), min_item_bytes)
    }

    /// [`count_u32`](WireReader::count_u32) for a `u64` count field.
    pub fn count_u64(&mut self, min_item_bytes: usize) -> io::Result<usize> {
        let count = self.u64()?;
        self.guard_count(count, min_item_bytes)
    }

    /// Reads `n` little-endian `u32`s, bounds-checked once before anything
    /// is allocated.
    pub fn u32s(&mut self, n: usize) -> io::Result<Vec<u32>> {
        let bytes = self.take(n.checked_mul(4).ok_or_else(|| eof("payload truncated"))?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
            .collect())
    }

    /// Reads `n` `f32`s stored as bit patterns, bounds-checked like
    /// [`u32s`](WireReader::u32s).
    pub fn f32s(&mut self, n: usize) -> io::Result<Vec<f32>> {
        Ok(self.u32s(n)?.into_iter().map(f32::from_bits).collect())
    }

    /// Errors unless the payload was consumed exactly.
    pub fn finish(self) -> io::Result<()> {
        if self.is_empty() {
            Ok(())
        } else {
            Err(invalid_data(format!(
                "{} trailing bytes after payload",
                self.remaining()
            )))
        }
    }
}

// ---------------------------------------------------------------------------
// Wire trait — self-describing encode/decode for message types
// ---------------------------------------------------------------------------

/// A type that can cross the socket transport. Implementations must be
/// total: `decode` returns an error on any malformed input, never panics.
pub trait Wire: Sized {
    /// Appends the encoded form to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);
    /// Decodes one value, advancing the reader past it.
    fn decode(r: &mut WireReader<'_>) -> io::Result<Self>;

    /// Convenience: encodes into a fresh buffer.
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }
}

// ---------------------------------------------------------------------------
// Frame codec
// ---------------------------------------------------------------------------

/// A decoded frame: the header fields the protocol layer routes on, plus the
/// checksum-verified payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Frame-kind discriminant (see [`kind`]).
    pub kind: u8,
    /// Reserved flag bits (currently always zero).
    pub flags: u8,
    /// Endpoint id of the sender.
    pub sender: u32,
    /// Per-connection sequence number.
    pub seq: u64,
    /// Checksum-verified payload bytes.
    pub payload: Vec<u8>,
}

fn frame_checksum(header_prefix: &[u8], payload: &[u8]) -> u64 {
    let mut sum = Checksum::new();
    sum.update(payload);
    sum.finish(header_prefix)
}

/// Encodes a complete frame (header + payload) into one buffer, ready for a
/// single `write_all`.
pub fn encode_frame(kind: u8, sender: u32, seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.extend_from_slice(&FRAME_MAGIC);
    put_u16(&mut out, WIRE_VERSION);
    put_u8(&mut out, kind);
    put_u8(&mut out, 0); // flags
    put_u32(&mut out, sender);
    put_u64(&mut out, seq);
    put_u32(&mut out, payload.len() as u32);
    let checksum = frame_checksum(&out, payload);
    put_u64(&mut out, checksum);
    out.extend_from_slice(payload);
    out
}

/// Writes one frame, returning the number of bytes put on the wire.
pub fn write_frame(
    w: &mut impl Write,
    kind: u8,
    sender: u32,
    seq: u64,
    payload: &[u8],
) -> io::Result<usize> {
    let bytes = encode_frame(kind, sender, seq, payload);
    w.write_all(&bytes)?;
    Ok(bytes.len())
}

/// Reads and validates one frame. Malformed input — bad magic, unknown
/// version, oversized length prefix, checksum mismatch, truncation — is an
/// `InvalidData`/`UnexpectedEof` error, never a panic. The payload buffer
/// grows only as bytes arrive, in steps of at most 1 MiB.
pub fn read_frame(r: &mut impl Read) -> io::Result<Frame> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    r.read_exact(&mut header)?;
    let mut h = WireReader::new(&header);
    if h.take(4)? != FRAME_MAGIC {
        return Err(invalid_data("bad frame magic (not a DGTF stream?)"));
    }
    let version = h.u16()?;
    if version != WIRE_VERSION {
        return Err(invalid_data(format!(
            "unsupported wire version {version} (this build speaks {WIRE_VERSION})"
        )));
    }
    let (kind, flags, sender, seq) = (h.u8()?, h.u8()?, h.u32()?, h.u64()?);
    let payload_len = h.u32()?;
    if payload_len > MAX_PAYLOAD_BYTES {
        return Err(invalid_data(format!(
            "frame payload length {payload_len} exceeds cap {MAX_PAYLOAD_BYTES}"
        )));
    }
    let stored_checksum = h.u64()?;
    let payload_len = payload_len as usize;
    let mut payload = Vec::new();
    while payload.len() < payload_len {
        let start = payload.len();
        payload.resize(start + (payload_len - start).min(READ_STEP_BYTES), 0);
        r.read_exact(&mut payload[start..])?;
    }
    let computed = frame_checksum(&header[..FRAME_HEADER_BYTES - 8], &payload);
    if computed != stored_checksum {
        return Err(invalid_data(format!(
            "frame checksum mismatch (stored {stored_checksum:#018x}, computed {computed:#018x})"
        )));
    }
    Ok(Frame {
        kind,
        flags,
        sender,
        seq,
        payload,
    })
}

// ---------------------------------------------------------------------------
// Atomic file replacement
// ---------------------------------------------------------------------------

/// Writes a file crash-safely: `write` fills a hidden temporary sibling
/// (`.<name>.tmp`, same directory so the rename never crosses a filesystem),
/// which is flushed, synced and atomically renamed over `path`. A crash or
/// an error partway through can never leave a torn file under the final
/// name — whatever was stored there before survives intact.
pub fn write_atomically(
    path: &Path,
    write: impl FnOnce(&mut dyn Write) -> io::Result<()>,
) -> io::Result<()> {
    let name = path
        .file_name()
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "path names no file"))?;
    let tmp = path.with_file_name(format!(".{}.tmp", name.to_string_lossy()));
    let mut w = BufWriter::new(File::create(&tmp)?);
    write(&mut w)?;
    w.into_inner()
        .map_err(io::IntoInnerError::into_error)?
        .sync_all()?;
    std::fs::rename(&tmp, path)?;
    // The rename is durable once the directory entry is; a platform that
    // cannot open a directory as a file skips this.
    let dir = path.parent().filter(|dir| !dir.as_os_str().is_empty());
    if let Ok(dir) = File::open(dir.unwrap_or(Path::new("."))) {
        dir.sync_all()?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// The hostile-bytes harness
// ---------------------------------------------------------------------------

/// Test support shared by every decoder of the workspace (unit modules,
/// property suites and `tests/hostile_bytes.rs`).
#[doc(hidden)]
pub mod testing {
    use std::io;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    /// Drives `decode` with every hostile variant of the well-formed input
    /// `clean` — every proper prefix, every single-bit flip, and every 4- and
    /// 8-byte window overwritten with all-ones (the lying length field) —
    /// and asserts that each call *returns*: `Err`, or an `Ok` that got
    /// there without panicking. Returns how many variants decoded `Ok`; a
    /// checksummed container must report zero.
    pub fn assert_total<T>(clean: &[u8], decode: impl Fn(&[u8]) -> io::Result<T>) -> usize {
        if let Err(err) = decode(clean) {
            panic!("the clean input must decode: {err}");
        }
        let mut accepted = 0;
        let mut drive = |what: &str, at: usize, bytes: &[u8]| {
            let result = catch_unwind(AssertUnwindSafe(|| decode(bytes)));
            let result = result.unwrap_or_else(|panic| {
                let (len, panic) = (clean.len(), crate::panic_message(panic.as_ref()));
                panic!("decoder panicked on {what} {at} of {len} bytes: {panic}")
            });
            accepted += usize::from(result.is_ok());
        };
        for len in 0..clean.len() {
            drive("a prefix of length", len, &clean[..len]);
        }
        let mut bytes = clean.to_vec();
        for bit in 0..clean.len() * 8 {
            bytes[bit / 8] ^= 1 << (bit % 8);
            drive("a flip of bit", bit, &bytes);
            bytes[bit / 8] = clean[bit / 8];
        }
        for width in [4, 8] {
            for start in 0..(clean.len() + 1).saturating_sub(width) {
                let window = start..start + width;
                if clean[window.clone()].iter().all(|&b| b == 0xff) {
                    continue;
                }
                bytes[window.clone()].fill(0xff);
                drive("all-ones from byte", start, &bytes);
                bytes[window.clone()].copy_from_slice(&clean[window]);
            }
        }
        accepted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> Vec<u8> {
        encode_frame(kind::BATCH, 3, 42, b"hello transport")
    }

    #[test]
    fn frame_roundtrip() {
        let bytes = sample_frame();
        assert_eq!(bytes.len(), FRAME_HEADER_BYTES + 15);
        let frame = read_frame(&mut &bytes[..]).expect("roundtrip");
        assert_eq!(frame.kind, kind::BATCH);
        assert_eq!(frame.sender, 3);
        assert_eq!(frame.seq, 42);
        assert_eq!(frame.payload, b"hello transport");
    }

    #[test]
    fn empty_payload_roundtrip() {
        let bytes = encode_frame(kind::PENDING, 0, 0, &[]);
        let frame = read_frame(&mut &bytes[..]).expect("roundtrip");
        assert!(frame.payload.is_empty());
    }

    #[test]
    fn multi_step_payload_roundtrip() {
        // Longer than one read step, and not a multiple of it.
        let payload: Vec<u8> = (0..2 * READ_STEP_BYTES + 77).map(|i| i as u8).collect();
        let bytes = encode_frame(kind::GATHER, 1, 9, &payload);
        assert_eq!(read_frame(&mut &bytes[..]).unwrap().payload, payload);
    }

    #[test]
    #[should_panic(expected = "decoder panicked on a flip of bit 9")]
    fn harness_reports_the_variant_that_panicked_a_decoder() {
        testing::assert_total(&[1, 0], |bytes| {
            assert_ne!(bytes.get(1), Some(&2), "trusted a byte");
            Ok(())
        });
    }

    #[test]
    fn harness_counts_the_variants_a_decoder_accepts() {
        // 5 prefixes + 40 bit flips + (2 + 0) all-ones windows.
        assert_eq!(testing::assert_total(&[0; 5], |_| Ok(())), 47);
        assert_eq!(testing::assert_total(&[0xff; 5], |_| Ok(())), 45);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_allocating() {
        let mut bytes = sample_frame();
        // Overwrite payload_len with a huge value; the checksum no longer
        // matters because the cap check fires first.
        bytes[20..24].copy_from_slice(&u32::MAX.to_le_bytes());
        let err = read_frame(&mut &bytes[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("exceeds cap"));
    }

    #[test]
    fn unknown_version_is_rejected() {
        for version in [1u16, 7] {
            let mut bytes = sample_frame();
            bytes[4..6].copy_from_slice(&version.to_le_bytes());
            let err = read_frame(&mut &bytes[..]).unwrap_err();
            assert!(err.to_string().contains("unsupported wire version"));
        }
    }

    #[test]
    fn checksum_is_chunking_invariant() {
        // The resumable state must produce the one-shot result no matter how
        // the payload is sliced into update() calls (the checkpoint encoder
        // feeds it per-round slivers of arbitrary length).
        let payload: Vec<u8> = (0..117u32).flat_map(|i| i.to_le_bytes()).collect();
        let mut one_shot = Checksum::new();
        one_shot.update(&payload);
        let expected = one_shot.finish(b"header");
        for split in [0, 1, 31, 32, 33, 64, payload.len()] {
            let mut state = Checksum::new();
            state.update(&payload[..split]);
            for chunk in payload[split..].chunks(13) {
                state.update(chunk);
            }
            assert_eq!(state.finish(b"header"), expected, "split at {split}");
        }
        let mut other_header = Checksum::new();
        other_header.update(&payload);
        assert_ne!(other_header.finish(b"heades"), expected);
    }

    #[test]
    fn reader_is_bounds_checked() {
        let mut out = Vec::new();
        put_u32(&mut out, 5);
        let mut r = WireReader::new(&out);
        assert_eq!(r.u32().unwrap(), 5);
        assert!(r.u8().is_err());
        let mut r2 = WireReader::new(&out);
        // A length prefix pointing past the end must error, not panic.
        assert!(r2.bytes().is_err());
    }

    #[test]
    fn counts_are_guarded_by_the_bytes_left() {
        let mut out = Vec::new();
        put_u32(&mut out, 3);
        put_u32s(&mut out, &[7, 8, 9]);
        let mut r = WireReader::new(&out);
        assert_eq!(r.count_u32(4).unwrap(), 3, "3 x 4 bytes are there");
        assert_eq!(r.u32s(3).unwrap(), [7, 8, 9]);
        r.finish().unwrap();
        let err = WireReader::new(&out).count_u32(5).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "3 x 5 are not");

        let mut lie = Vec::new();
        put_u64(&mut lie, u64::MAX);
        put_u32s(&mut lie, &[1, 2]);
        for min_item_bytes in [1, 8, usize::MAX] {
            let err = WireReader::new(&lie).count_u64(min_item_bytes).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        }
        assert!(WireReader::new(&lie).u32s(usize::MAX).is_err());
        assert!(WireReader::new(&lie).f32s(5).is_err());
    }

    #[test]
    fn slices_round_trip_bit_exactly() {
        let floats = [
            0.0f32,
            -0.0,
            1.5,
            f32::NAN,
            f32::INFINITY,
            f32::MIN_POSITIVE,
        ];
        let mut out = vec![0xAA];
        put_f32s(&mut out, &floats);
        put_u32s(&mut out, &[0, u32::MAX]);
        let mut r = WireReader::new(&out);
        assert_eq!(r.u8().unwrap(), 0xAA);
        let back = r.f32s(floats.len()).unwrap();
        for (a, b) in floats.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(r.u32s(2).unwrap(), [0, u32::MAX]);
        r.finish().unwrap();
    }

    #[test]
    fn finish_rejects_trailing_bytes() {
        let mut out = Vec::new();
        put_u16(&mut out, 9);
        let mut r = WireReader::new(&out);
        assert_eq!(r.u8().unwrap(), 9);
        assert!(r.finish().is_err());
        let mut r = WireReader::new(&out);
        r.u16().unwrap();
        assert!(WireReader::new(&[]).finish().is_ok());
        r.finish().unwrap();
    }

    #[test]
    fn f64_bit_pattern_roundtrip() {
        let mut out = Vec::new();
        for v in [0.0, -0.0, 1.5, f64::NAN, f64::INFINITY, f64::MIN_POSITIVE] {
            put_f64(&mut out, v);
        }
        let mut r = WireReader::new(&out);
        assert_eq!(r.f64().unwrap().to_bits(), 0.0f64.to_bits());
        assert_eq!(r.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert_eq!(r.f64().unwrap(), 1.5);
        assert!(r.f64().unwrap().is_nan());
        assert_eq!(r.f64().unwrap(), f64::INFINITY);
        assert_eq!(r.f64().unwrap(), f64::MIN_POSITIVE);
        r.finish().unwrap();
    }

    #[test]
    fn atomic_write_survives_a_torn_predecessor_and_a_failed_writer() {
        let dir = std::env::temp_dir().join("distger_wire_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{}_atomic.bin", std::process::id()));
        let tmp = dir.join(format!(".{}_atomic.bin.tmp", std::process::id()));
        write_atomically(&path, |w| w.write_all(b"old")).unwrap();
        assert!(!tmp.exists(), "the temp sibling is renamed away");
        // A writer killed partway left its partial bytes in the temp sibling
        // only: the file under the final name is still the old one.
        std::fs::write(&tmp, b"ne").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        // So does a writer that fails.
        let failed = write_atomically(&path, |w| {
            w.write_all(b"half")?;
            Err(invalid_data("writer gave up"))
        });
        assert!(failed.is_err());
        assert_eq!(std::fs::read(&path).unwrap(), b"old");
        // A later successful write replaces both the stale temp and the file.
        write_atomically(&path, |w| w.write_all(b"new")).unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"new");
        assert!(!tmp.exists());
        std::fs::remove_file(&path).ok();
        assert!(write_atomically(Path::new("/"), |_| Ok(())).is_err());
    }
}
