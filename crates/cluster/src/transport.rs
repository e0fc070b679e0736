//! The transport layer: how machines exchange superstep message batches.
//!
//! Every "distributed" code path in this reproduction drives its machines
//! through a [`Transport`]: the BSP driver
//! ([`run_bsp_round_loop`](crate::run_bsp_round_loop)) hosts an endpoint's
//! machines and speaks this trait at every superstep and round boundary, and
//! the trainer's replica sync speaks its [`ControlChannel`] half. Two
//! implementations exist:
//!
//! * [`InMemoryTransport`] — the reference. All machines live in one address
//!   space (one process, one thread pool) and the exchange moves queues with
//!   [`Vec::append`], exactly like the pre-trait engine. It is infallible
//!   and bit-identical to the historical behaviour.
//! * [`SocketTransport`] — machines live in **separate OS processes**
//!   connected by TCP in a star topology: endpoint 0 (the *coordinator*)
//!   accepts one connection per worker endpoint, routes cross-endpoint
//!   batches, and drives the control channel (pending flags, broadcast /
//!   gather / scatter). Frames use the hand-rolled [`wire`](crate::wire)
//!   format — versioned, length-prefixed, checksummed
//!   ([`wire::Checksum`](crate::wire::Checksum)) — and every malformed frame
//!   is an [`io::Error`], never a panic.
//!
//! ## Bit-identity contract
//!
//! The in-memory exchange delivers, for every destination inbox, the queued
//! messages in **ascending source-machine order** (source 0's queue first).
//! `SocketTransport` preserves exactly that order no matter how machines are
//! spread over endpoints: each endpoint merges its local-source queues and
//! the delivered remote entries per destination, sorted by source machine.
//! `prop_transport` (in `distger-walks`) proves corpora and communication
//! traces bit-identical between the two transports across seeds × machines.
//!
//! ## Process-launch handshake
//!
//! 1. The coordinator binds a listener and spawns (or is joined by) worker
//!    processes that connect to it.
//! 2. Each worker sends a `Hello` frame; the coordinator assigns endpoint
//!    ids in accept order (1, 2, …) and answers with `HelloAck { endpoint,
//!    endpoints, num_machines }`.
//! 3. Machines are split contiguously across endpoints
//!    ([`machine_split`]); every endpoint derives its own machine range
//!    locally, so no further negotiation is needed.

use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::time::{Duration, Instant};

use crate::bsp::Outbox;
use crate::comm::{MessageSize, WireStats};
use crate::wire::{
    invalid_data, kind, put_bytes, put_u16, put_u32, put_u64, put_u8, read_frame, write_frame,
    Frame, Wire, WireReader,
};
use distger_obs::{Phase, TraceEvent};

/// Which transport a run should use; carried by the engine/trainer configs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TransportKind {
    /// All machines in one process, exchange through memory (the reference).
    #[default]
    InMemory,
    /// Machines split over processes connected by loopback/LAN TCP.
    Socket,
}

impl TransportKind {
    /// Short human-readable name (for reports and error messages).
    pub fn name(&self) -> &'static str {
        match self {
            TransportKind::InMemory => "in-memory",
            TransportKind::Socket => "socket",
        }
    }
}

/// Contiguous machine range owned by `endpoint` when `num_machines` machines
/// are split over `endpoints` processes (remainder machines go to the lowest
/// endpoints).
pub fn machine_split(num_machines: usize, endpoints: usize, endpoint: usize) -> Range<usize> {
    assert!(endpoints > 0, "need at least one endpoint");
    assert!(endpoint < endpoints, "endpoint out of range");
    let base = num_machines / endpoints;
    let rem = num_machines % endpoints;
    let start = endpoint * base + endpoint.min(rem);
    let len = base + usize::from(endpoint < rem);
    start..start + len
}

/// The control side of a transport: coordination traffic that is not
/// superstep message batches. All three collectives are **synchronous** —
/// every endpoint must call the same method in the same order (the same
/// contract as an MPI communicator).
pub trait ControlChannel {
    /// This process's endpoint id (0 is the coordinator).
    fn endpoint(&self) -> usize;

    /// Total number of endpoints (processes) in the job.
    fn endpoints(&self) -> usize;

    /// Total machines in the job (across all endpoints).
    fn num_machines(&self) -> usize;

    /// The machines hosted by this endpoint, a contiguous [`machine_split`]
    /// range. `outboxes`/`inboxes` passed to
    /// [`Transport::exchange`] are indexed relative to this range.
    fn local_machines(&self) -> Range<usize>;

    /// True on the coordinator endpoint.
    fn is_coordinator(&self) -> bool {
        self.endpoint() == 0
    }

    /// Coordinator sends `payload` to every worker and returns it; workers
    /// ignore their argument and return the received payload.
    fn broadcast(&mut self, payload: &[u8]) -> io::Result<Vec<u8>>;

    /// Workers send `payload` to the coordinator, which returns all payloads
    /// indexed by endpoint (its own at index 0). Workers return an empty
    /// vector.
    fn gather(&mut self, payload: &[u8]) -> io::Result<Vec<Vec<u8>>>;

    /// Coordinator sends `payloads[e]` to endpoint `e` and returns
    /// `payloads[0]`; workers ignore their argument and return the received
    /// payload.
    fn scatter(&mut self, payloads: &[Vec<u8>]) -> io::Result<Vec<u8>>;

    /// Measured on-the-wire traffic so far (all-zero for in-memory).
    fn wire_stats(&self) -> WireStats;

    /// Estimated offset of the coordinator's trace clock relative to this
    /// endpoint's, in microseconds: adding it to a local
    /// [`distger_obs::now_micros`] reading maps the timestamp onto the
    /// coordinator's time base. Zero on the coordinator itself and for every
    /// in-process transport (shared clock); the socket transport measures it
    /// during the HELLO handshake. Used by the cross-process trace merge to
    /// align worker span timelines before shipping them.
    fn clock_offset_micros(&self) -> i64 {
        0
    }
}

/// Ships this endpoint's thread-local trace events to the coordinator, which
/// absorbs every endpoint's batch (its own included) into the global trace
/// registry for the merged-timeline export. Event timestamps are shifted onto
/// the coordinator's time base using [`ControlChannel::clock_offset_micros`],
/// and each batch is stamped with the endpoint id as its `pid`.
///
/// A **synchronous collective**: when tracing is enabled every endpoint of
/// the job must call it at the same point in the protocol (the walk driver
/// calls it at round boundaries, right after the continue/stop broadcast,
/// the trainer once at the end). When
/// tracing is disabled it is a pure no-op — no drain, no traffic — which
/// keeps the disabled-path wire protocol bit-identical; the tracing flag is
/// propagated through the job spec, so all endpoints agree on it.
///
/// Only the calling thread's ring is drained ([`distger_obs::drain_thread`]):
/// loopback harnesses host several endpoints as threads of one process, and
/// draining all rings would steal a co-located endpoint's events.
pub fn gather_trace_events<C: ControlChannel + ?Sized>(channel: &mut C) -> io::Result<()> {
    if !distger_obs::tracing_enabled() {
        return Ok(());
    }
    let events = distger_obs::drain_thread();
    let payload = encode_events(
        &events,
        channel.endpoint() as u32,
        channel.clock_offset_micros(),
    );
    let gathered = channel.gather(&payload)?;
    if channel.is_coordinator() {
        for payload in &gathered {
            distger_obs::absorb(decode_events(payload)?);
        }
    }
    Ok(())
}

const EVENT_WIRE_VERSION: u16 = 1;

/// Serializes an event buffer for [`gather_trace_events`], stamping every
/// event with the sender's endpoint id (`pid`) and shifting timestamps by
/// `offset_micros` (the sender's clock offset relative to the coordinator,
/// from the transport handshake) so the decoded timeline is already aligned
/// to the coordinator's clock.
pub fn encode_events(events: &[TraceEvent], pid: u32, offset_micros: i64) -> Vec<u8> {
    let mut buf = Vec::with_capacity(16 + events.len() * 40);
    put_u16(&mut buf, EVENT_WIRE_VERSION);
    put_u32(&mut buf, pid);
    put_u32(&mut buf, events.len() as u32);
    for event in events {
        let name = event.name.as_bytes();
        let name = &name[..name.len().min(u16::MAX as usize)];
        put_u16(&mut buf, name.len() as u16);
        buf.extend_from_slice(name);
        put_u8(
            &mut buf,
            match event.phase {
                Phase::Begin => 0,
                Phase::End => 1,
                Phase::Instant => 2,
            },
        );
        // Signed fields travel as their two's-complement bit patterns.
        put_u64(
            &mut buf,
            event.ts_micros.saturating_add(offset_micros) as u64,
        );
        put_u32(&mut buf, event.tid);
        put_u64(&mut buf, event.machine as u64);
        put_u64(&mut buf, event.round as u64);
    }
    buf
}

/// Decodes a buffer produced by [`encode_events`]. The embedded endpoint id
/// becomes every event's `pid`; timestamps were already offset-aligned by
/// the sender.
pub fn decode_events(payload: &[u8]) -> io::Result<Vec<TraceEvent>> {
    let mut r = WireReader::new(payload);
    let version = r.u16()?;
    if version != EVENT_WIRE_VERSION {
        return Err(invalid_data(format!(
            "unsupported trace event wire version {version} (expected {EVENT_WIRE_VERSION})"
        )));
    }
    let pid = r.u32()?;
    // An event is at least its fixed fields: name length, phase, ts, tid,
    // machine, round.
    let count = r.count_u32(2 + 1 + 8 + 4 + 8 + 8)?;
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let name_len = usize::from(r.u16()?);
        let name = String::from_utf8(r.take(name_len)?.to_vec())
            .map_err(|_| invalid_data("trace event name is not UTF-8"))?;
        let phase = match r.u8()? {
            0 => Phase::Begin,
            1 => Phase::End,
            2 => Phase::Instant,
            other => {
                return Err(invalid_data(format!(
                    "unknown trace event phase tag {other}"
                )))
            }
        };
        events.push(TraceEvent {
            name: name.into(),
            phase,
            ts_micros: r.u64()? as i64,
            pid,
            tid: r.u32()?,
            machine: r.u64()? as i64,
            round: r.u64()? as i64,
        });
    }
    r.finish()?;
    Ok(events)
}

/// A transport moves superstep message batches between machines and answers
/// the global "any messages pending?" question that decides whether another
/// superstep runs.
pub trait Transport<M: MessageSize>: ControlChannel {
    /// Superstep boundary: drains every local outbox queue and delivers all
    /// messages into the destination inboxes, preserving the reference
    /// ascending-source order per inbox. `outboxes[i]` / `inboxes[i]` belong
    /// to machine `local_machines().start + i`.
    fn exchange(
        &mut self,
        superstep: u64,
        outboxes: &mut [&mut Outbox<M>],
        inboxes: &mut [&mut Vec<M>],
    ) -> io::Result<()>;

    /// Global OR of the per-endpoint "local inboxes non-empty" flags; a
    /// barrier (every endpoint must call it once per superstep boundary).
    fn sync_pending(&mut self, local_pending: bool) -> io::Result<bool>;
}

// ---------------------------------------------------------------------------
// InMemoryTransport
// ---------------------------------------------------------------------------

/// The reference transport: one process, all machines local, the exchange is
/// a queue move. Infallible; kept bit-identical to the pre-trait engine.
#[derive(Debug, Clone)]
pub struct InMemoryTransport {
    num_machines: usize,
}

impl InMemoryTransport {
    /// A transport hosting all `num_machines` machines in this process.
    pub fn new(num_machines: usize) -> Self {
        assert!(num_machines > 0, "need at least one machine");
        InMemoryTransport { num_machines }
    }
}

impl ControlChannel for InMemoryTransport {
    fn endpoint(&self) -> usize {
        0
    }

    fn endpoints(&self) -> usize {
        1
    }

    fn num_machines(&self) -> usize {
        self.num_machines
    }

    fn local_machines(&self) -> Range<usize> {
        0..self.num_machines
    }

    fn broadcast(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        Ok(payload.to_vec())
    }

    fn gather(&mut self, payload: &[u8]) -> io::Result<Vec<Vec<u8>>> {
        Ok(vec![payload.to_vec()])
    }

    fn scatter(&mut self, payloads: &[Vec<u8>]) -> io::Result<Vec<u8>> {
        match payloads.first() {
            Some(first) => Ok(first.clone()),
            None => Err(invalid_data("scatter needs one payload per endpoint")),
        }
    }

    fn wire_stats(&self) -> WireStats {
        WireStats::default()
    }
}

impl<M: MessageSize> Transport<M> for InMemoryTransport {
    fn exchange(
        &mut self,
        _superstep: u64,
        outboxes: &mut [&mut Outbox<M>],
        inboxes: &mut [&mut Vec<M>],
    ) -> io::Result<()> {
        debug_assert_eq!(outboxes.len(), self.num_machines);
        debug_assert_eq!(inboxes.len(), self.num_machines);
        // Ascending source outer, so every destination inbox receives its
        // messages in ascending source order — the reference order the whole
        // bit-identity story rests on.
        for outbox in outboxes.iter_mut() {
            outbox.drain_into(inboxes.iter_mut().map(|inbox| &mut **inbox));
        }
        Ok(())
    }

    fn sync_pending(&mut self, local_pending: bool) -> io::Result<bool> {
        Ok(local_pending)
    }
}

// ---------------------------------------------------------------------------
// SocketTransport
// ---------------------------------------------------------------------------

/// One framed TCP connection plus its per-direction sequence counters.
struct FrameConn {
    stream: TcpStream,
    /// Endpoint id expected in received frames' `sender` field.
    peer: u32,
    send_seq: u64,
    recv_seq: u64,
    /// Global-registry counter handles, resolved once per connection so the
    /// per-frame cost is a relaxed atomic add. These feed the same numbers
    /// into the observability layer that `WireStats` carries through the
    /// result structs — one for dashboards/Prometheus, one for reports.
    obs_frames_sent: distger_obs::Counter,
    obs_bytes_sent: distger_obs::Counter,
    obs_frames_received: distger_obs::Counter,
    obs_bytes_received: distger_obs::Counter,
}

impl FrameConn {
    fn new(stream: TcpStream, peer: u32) -> Self {
        let metrics = distger_obs::global();
        FrameConn {
            stream,
            peer,
            send_seq: 0,
            recv_seq: 0,
            obs_frames_sent: metrics.counter("transport.frames_sent"),
            obs_bytes_sent: metrics.counter("transport.bytes_sent"),
            obs_frames_received: metrics.counter("transport.frames_received"),
            obs_bytes_received: metrics.counter("transport.bytes_received"),
        }
    }

    fn send(
        &mut self,
        me: u32,
        kind_: u8,
        payload: &[u8],
        stats: &mut WireStats,
    ) -> io::Result<()> {
        let started = Instant::now();
        let bytes = write_frame(&mut self.stream, kind_, me, self.send_seq, payload)?;
        stats.wire_nanos += started.elapsed().as_nanos() as u64;
        stats.frames_sent += 1;
        stats.bytes_sent += bytes as u64;
        self.obs_frames_sent.inc();
        self.obs_bytes_sent.add(bytes as u64);
        if kind_ == kind::BATCH || kind_ == kind::DELIVER {
            stats.batch_bytes_sent += payload.len() as u64;
        }
        self.send_seq += 1;
        Ok(())
    }

    fn recv(&mut self, expect: u8, stats: &mut WireStats) -> io::Result<Frame> {
        let started = Instant::now();
        let frame = read_frame(&mut self.stream)?;
        stats.wire_nanos += started.elapsed().as_nanos() as u64;
        stats.frames_received += 1;
        stats.bytes_received += (crate::wire::FRAME_HEADER_BYTES + frame.payload.len()) as u64;
        self.obs_frames_received.inc();
        self.obs_bytes_received
            .add((crate::wire::FRAME_HEADER_BYTES + frame.payload.len()) as u64);
        if frame.kind != expect {
            return Err(invalid_data(format!(
                "expected frame kind {expect}, got {} (protocol desync?)",
                frame.kind
            )));
        }
        if frame.sender != self.peer {
            return Err(invalid_data(format!(
                "frame from endpoint {}, expected {}",
                frame.sender, self.peer
            )));
        }
        if frame.seq != self.recv_seq {
            return Err(invalid_data(format!(
                "out-of-sequence frame: got seq {}, expected {}",
                frame.seq, self.recv_seq
            )));
        }
        self.recv_seq += 1;
        Ok(frame)
    }
}

/// One cross-endpoint queue in flight: the messages machine `src` queued for
/// machine `dest` this superstep, still in encoded form. The coordinator
/// routes these without decoding (only the destination endpoint pays the
/// decode), which also keeps routing independent of the message type.
struct RawEntry {
    src: u32,
    dest: u32,
    count: u32,
    bytes: Vec<u8>,
}

fn encode_entries(entries: &[RawEntry]) -> Vec<u8> {
    let mut out = Vec::new();
    put_u32(&mut out, entries.len() as u32);
    for entry in entries {
        put_u32(&mut out, entry.src);
        put_u32(&mut out, entry.dest);
        put_u32(&mut out, entry.count);
        put_bytes(&mut out, &entry.bytes);
    }
    out
}

fn decode_entries(payload: &[u8]) -> io::Result<Vec<RawEntry>> {
    let mut r = WireReader::new(payload);
    // An entry is at least its three ids and the byte-length prefix.
    let n = r.count_u32(16)?;
    let mut entries = Vec::with_capacity(n);
    for _ in 0..n {
        let src = r.u32()?;
        let dest = r.u32()?;
        let count = r.u32()?;
        let bytes = r.bytes()?.to_vec();
        entries.push(RawEntry {
            src,
            dest,
            count,
            bytes,
        });
    }
    r.finish()?;
    Ok(entries)
}

/// TCP star-topology transport: machines split over processes, endpoint 0
/// routing all cross-endpoint traffic. See the module docs for the
/// handshake, the frame kinds and the bit-identity contract.
pub struct SocketTransport {
    endpoint: usize,
    endpoints: usize,
    num_machines: usize,
    local: Range<usize>,
    /// Coordinator: one conn per worker, index `e - 1` ⇒ endpoint `e`.
    /// Worker: exactly one conn, to the coordinator.
    conns: Vec<FrameConn>,
    stats: WireStats,
    /// Coordinator-clock minus local-clock estimate from the HELLO
    /// handshake; 0 on the coordinator.
    clock_offset_micros: i64,
}

impl SocketTransport {
    /// Runs the accept-side handshake: waits for `endpoints - 1` workers to
    /// connect to `listener`, assigns endpoint ids in accept order, and
    /// answers each `Hello` with the topology. `endpoints == 1` degenerates
    /// to a coordinator-only job with every machine local.
    pub fn coordinator(
        listener: &TcpListener,
        endpoints: usize,
        num_machines: usize,
    ) -> io::Result<Self> {
        if endpoints == 0 {
            return Err(invalid_data("need at least one endpoint"));
        }
        if num_machines < endpoints {
            return Err(invalid_data(format!(
                "{num_machines} machines cannot be split over {endpoints} endpoints"
            )));
        }
        let mut conns = Vec::with_capacity(endpoints - 1);
        for e in 1..endpoints {
            let (stream, _) = listener.accept()?;
            stream.set_nodelay(true)?;
            // The worker does not know its endpoint id yet, so its `Hello`
            // carries the sentinel sender `u32::MAX`; the ack assigns the id.
            let mut conn = FrameConn::new(stream, u32::MAX);
            let mut stats = WireStats::default();
            conn.recv(kind::HELLO, &mut stats)?;
            conn.peer = e as u32;
            let mut ack = Vec::new();
            put_u32(&mut ack, e as u32);
            put_u32(&mut ack, endpoints as u32);
            put_u32(&mut ack, num_machines as u32);
            // Coordinator trace-clock reading, taken as late as possible
            // before the send: the worker brackets the round trip around it
            // to estimate its clock offset for the cross-process trace merge.
            put_u64(&mut ack, distger_obs::now_micros() as u64);
            conn.send(0, kind::HELLO_ACK, &ack, &mut stats)?;
            conns.push(conn);
        }
        Ok(SocketTransport {
            endpoint: 0,
            endpoints,
            num_machines,
            local: machine_split(num_machines, endpoints, 0),
            conns,
            stats: WireStats::default(),
            clock_offset_micros: 0,
        })
    }

    /// Connect-side handshake: dials the coordinator (retrying refused
    /// connections until `timeout`, so workers may start before the
    /// coordinator finishes binding), sends `Hello`, and adopts the endpoint
    /// id and topology from the `HelloAck`.
    pub fn worker(addr: SocketAddr, timeout: Duration) -> io::Result<Self> {
        let deadline = Instant::now() + timeout;
        let stream = loop {
            match TcpStream::connect(addr) {
                Ok(stream) => break stream,
                Err(err) if Instant::now() < deadline => {
                    let _ = err;
                    std::thread::sleep(Duration::from_millis(20));
                }
                Err(err) => return Err(err),
            }
        };
        stream.set_nodelay(true)?;
        let mut conn = FrameConn::new(stream, 0);
        let mut stats = WireStats::default();
        let hello_sent = distger_obs::now_micros();
        conn.send(u32::MAX, kind::HELLO, &[], &mut stats)?;
        let ack = conn.recv(kind::HELLO_ACK, &mut stats)?;
        let ack_received = distger_obs::now_micros();
        let mut r = WireReader::new(&ack.payload);
        let endpoint = r.u32()? as usize;
        let endpoints = r.u32()? as usize;
        let num_machines = r.u32()? as usize;
        let coordinator_micros = r.u64()? as i64;
        r.finish()?;
        if endpoint == 0 || endpoint >= endpoints || num_machines < endpoints {
            return Err(invalid_data(format!(
                "nonsensical HelloAck: endpoint {endpoint} of {endpoints}, {num_machines} machines"
            )));
        }
        // NTP-style midpoint estimate: the coordinator stamped its clock
        // between our send and our receive, so the local time it corresponds
        // to is (best guess, symmetric-latency assumption) the midpoint of
        // the round trip. Error is bounded by half the RTT — microseconds on
        // loopback/LAN, far below span durations at round granularity.
        let midpoint = hello_sent + (ack_received - hello_sent) / 2;
        let clock_offset_micros = coordinator_micros - midpoint;
        Ok(SocketTransport {
            endpoint,
            endpoints,
            num_machines,
            local: machine_split(num_machines, endpoints, endpoint),
            conns: vec![conn],
            stats,
            clock_offset_micros,
        })
    }

    fn local_index(&self, machine: usize) -> Option<usize> {
        if self.local.contains(&machine) {
            Some(machine - self.local.start)
        } else {
            None
        }
    }

    /// Drains every local outbox queue whose destination lives on another
    /// endpoint into raw entries, in (source, destination) ascending order.
    fn collect_remote<M: Wire + MessageSize>(
        &self,
        outboxes: &mut [&mut Outbox<M>],
    ) -> Vec<RawEntry> {
        let mut entries = Vec::new();
        for (i, outbox) in outboxes.iter_mut().enumerate() {
            let src = (self.local.start + i) as u32;
            for dest in 0..self.num_machines {
                if self.local.contains(&dest) || outbox.queues[dest].is_empty() {
                    continue;
                }
                let mut bytes = Vec::new();
                let mut count = 0u32;
                for msg in outbox.queues[dest].drain(..) {
                    msg.encode_into(&mut bytes);
                    count += 1;
                }
                entries.push(RawEntry {
                    src,
                    dest: dest as u32,
                    count,
                    bytes,
                });
            }
        }
        entries
    }

    /// Delivers this endpoint's share of the superstep: local-source queues
    /// plus the entries routed here, merged per destination inbox in
    /// ascending source-machine order — the reference order.
    fn merge_local<M: Wire + MessageSize>(
        &self,
        delivered: Vec<RawEntry>,
        outboxes: &mut [&mut Outbox<M>],
        inboxes: &mut [&mut Vec<M>],
    ) -> io::Result<()> {
        let mut remote: HashMap<(u32, u32), RawEntry> = HashMap::with_capacity(delivered.len());
        for entry in delivered {
            if self.local_index(entry.dest as usize).is_none() {
                return Err(invalid_data(format!(
                    "entry for machine {} delivered to endpoint {} (owns {:?})",
                    entry.dest, self.endpoint, self.local
                )));
            }
            if remote.insert((entry.src, entry.dest), entry).is_some() {
                return Err(invalid_data("duplicate (src, dest) entry in delivery"));
            }
        }
        for (di, inbox) in inboxes.iter_mut().enumerate() {
            let dest = (self.local.start + di) as u32;
            for src in 0..self.num_machines {
                if let Some(si) = self.local_index(src) {
                    inbox.append(&mut outboxes[si].queues[dest as usize]);
                } else if let Some(entry) = remote.remove(&(src as u32, dest)) {
                    // `count` is the peer's word: nothing is reserved for
                    // it, and a lie runs into the end of `bytes`.
                    let mut r = WireReader::new(&entry.bytes);
                    for _ in 0..entry.count {
                        inbox.push(M::decode(&mut r)?);
                    }
                    r.finish()?;
                }
            }
        }
        if !remote.is_empty() {
            return Err(invalid_data(
                "delivery contained entries for no local machine",
            ));
        }
        Ok(())
    }
}

impl ControlChannel for SocketTransport {
    fn endpoint(&self) -> usize {
        self.endpoint
    }

    fn endpoints(&self) -> usize {
        self.endpoints
    }

    fn num_machines(&self) -> usize {
        self.num_machines
    }

    fn local_machines(&self) -> Range<usize> {
        self.local.clone()
    }

    fn broadcast(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        if self.endpoint == 0 {
            let me = self.endpoint as u32;
            for conn in &mut self.conns {
                conn.send(me, kind::BROADCAST, payload, &mut self.stats)?;
            }
            Ok(payload.to_vec())
        } else {
            let frame = self.conns[0].recv(kind::BROADCAST, &mut self.stats)?;
            Ok(frame.payload)
        }
    }

    fn gather(&mut self, payload: &[u8]) -> io::Result<Vec<Vec<u8>>> {
        if self.endpoint == 0 {
            let mut all = Vec::with_capacity(self.endpoints);
            all.push(payload.to_vec());
            for conn in &mut self.conns {
                let frame = conn.recv(kind::GATHER, &mut self.stats)?;
                all.push(frame.payload);
            }
            Ok(all)
        } else {
            let me = self.endpoint as u32;
            self.conns[0].send(me, kind::GATHER, payload, &mut self.stats)?;
            Ok(Vec::new())
        }
    }

    fn scatter(&mut self, payloads: &[Vec<u8>]) -> io::Result<Vec<u8>> {
        if self.endpoint == 0 {
            if payloads.len() != self.endpoints {
                return Err(invalid_data(format!(
                    "scatter got {} payloads for {} endpoints",
                    payloads.len(),
                    self.endpoints
                )));
            }
            let me = self.endpoint as u32;
            for (conn, payload) in self.conns.iter_mut().zip(&payloads[1..]) {
                conn.send(me, kind::SCATTER, payload, &mut self.stats)?;
            }
            Ok(payloads[0].clone())
        } else {
            let frame = self.conns[0].recv(kind::SCATTER, &mut self.stats)?;
            Ok(frame.payload)
        }
    }

    fn wire_stats(&self) -> WireStats {
        self.stats
    }

    fn clock_offset_micros(&self) -> i64 {
        self.clock_offset_micros
    }
}

impl<M: Wire + MessageSize> Transport<M> for SocketTransport {
    fn exchange(
        &mut self,
        superstep: u64,
        outboxes: &mut [&mut Outbox<M>],
        inboxes: &mut [&mut Vec<M>],
    ) -> io::Result<()> {
        let _ = superstep;
        if outboxes.len() != self.local.len() || inboxes.len() != self.local.len() {
            return Err(invalid_data(format!(
                "exchange expects {} local outboxes/inboxes, got {}/{}",
                self.local.len(),
                outboxes.len(),
                inboxes.len()
            )));
        }
        let outgoing = self.collect_remote(outboxes);
        let delivered = if self.endpoint == 0 {
            // Route: own cross-endpoint entries plus every worker's batch,
            // partitioned by destination endpoint. Reading batches in
            // endpoint order makes routing deterministic, though delivery
            // order per inbox is fixed by the ascending-source merge anyway.
            let mut per_endpoint: Vec<Vec<RawEntry>> = Vec::with_capacity(self.endpoints);
            per_endpoint.resize_with(self.endpoints, Vec::new);
            let num_machines = self.num_machines;
            let endpoints = self.endpoints;
            let mut route = |entry: RawEntry| -> io::Result<()> {
                if entry.dest as usize >= num_machines {
                    return Err(invalid_data(format!(
                        "entry for unknown machine {}",
                        entry.dest
                    )));
                }
                let mut owner = 0;
                while !machine_split(num_machines, endpoints, owner)
                    .contains(&(entry.dest as usize))
                {
                    owner += 1;
                }
                per_endpoint[owner].push(entry);
                Ok(())
            };
            for entry in outgoing {
                route(entry)?;
            }
            for e in 1..self.endpoints {
                let frame = self.conns[e - 1].recv(kind::BATCH, &mut self.stats)?;
                for entry in decode_entries(&frame.payload)? {
                    route(entry)?;
                }
            }
            let own = std::mem::take(&mut per_endpoint[0]);
            for (e, entries) in per_endpoint.iter().enumerate().skip(1) {
                let payload = encode_entries(entries);
                self.conns[e - 1].send(0, kind::DELIVER, &payload, &mut self.stats)?;
            }
            own
        } else {
            let payload = encode_entries(&outgoing);
            let me = self.endpoint as u32;
            self.conns[0].send(me, kind::BATCH, &payload, &mut self.stats)?;
            let frame = self.conns[0].recv(kind::DELIVER, &mut self.stats)?;
            decode_entries(&frame.payload)?
        };
        self.merge_local(delivered, outboxes, inboxes)
    }

    fn sync_pending(&mut self, local_pending: bool) -> io::Result<bool> {
        if self.endpoint == 0 {
            let mut any = local_pending;
            for conn in &mut self.conns {
                let frame = conn.recv(kind::PENDING, &mut self.stats)?;
                let mut r = WireReader::new(&frame.payload);
                any |= r.u8()? != 0;
                r.finish()?;
            }
            let verdict = [u8::from(any)];
            for conn in &mut self.conns {
                conn.send(0, kind::PENDING_RESULT, &verdict, &mut self.stats)?;
            }
            Ok(any)
        } else {
            let me = self.endpoint as u32;
            let flag = [u8::from(local_pending)];
            self.conns[0].send(me, kind::PENDING, &flag, &mut self.stats)?;
            let frame = self.conns[0].recv(kind::PENDING_RESULT, &mut self.stats)?;
            let mut r = WireReader::new(&frame.payload);
            let any = r.u8()? != 0;
            r.finish()?;
            Ok(any)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::testing::assert_total;
    use std::io::Write as _;

    /// A minimal wire-capable message for transport tests.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct TestMsg(u64);

    impl MessageSize for TestMsg {
        fn size_bytes(&self) -> usize {
            8
        }
    }

    impl Wire for TestMsg {
        fn encode_into(&self, out: &mut Vec<u8>) {
            crate::wire::put_u64(out, self.0);
        }

        fn decode(r: &mut WireReader<'_>) -> io::Result<Self> {
            Ok(TestMsg(r.u64()?))
        }
    }

    #[test]
    fn machine_split_covers_every_machine_exactly_once() {
        for machines in 1..20 {
            for endpoints in 1..=machines {
                let mut seen = vec![false; machines];
                let mut prev_end = 0;
                for e in 0..endpoints {
                    let range = machine_split(machines, endpoints, e);
                    assert_eq!(range.start, prev_end, "ranges must be contiguous");
                    prev_end = range.end;
                    assert!(!range.is_empty(), "no endpoint may be machine-less");
                    for m in range {
                        assert!(!seen[m]);
                        seen[m] = true;
                    }
                }
                assert_eq!(prev_end, machines);
                assert!(seen.iter().all(|&s| s));
            }
        }
    }

    /// Fills `machines` outboxes with a deterministic traffic pattern:
    /// machine `s` sends `(s + 1)` messages to every machine `d` (self
    /// included) with payload `s * 100 + d * 10 + i`.
    fn seed_outboxes(machines: usize) -> Vec<Outbox<TestMsg>> {
        (0..machines)
            .map(|s| {
                let mut outbox = Outbox::new(s, machines);
                for d in 0..machines {
                    for i in 0..=s {
                        outbox.send(d, TestMsg((s * 100 + d * 10 + i) as u64));
                    }
                }
                outbox
            })
            .collect()
    }

    fn reference_inboxes(machines: usize) -> Vec<Vec<TestMsg>> {
        let mut outboxes = seed_outboxes(machines);
        let mut inboxes: Vec<Vec<TestMsg>> = vec![Vec::new(); machines];
        let mut transport = InMemoryTransport::new(machines);
        let mut out_refs: Vec<&mut Outbox<TestMsg>> = outboxes.iter_mut().collect();
        let mut in_refs: Vec<&mut Vec<TestMsg>> = inboxes.iter_mut().collect();
        transport.exchange(0, &mut out_refs, &mut in_refs).unwrap();
        inboxes
    }

    #[test]
    fn in_memory_exchange_is_ascending_source_order() {
        let inboxes = reference_inboxes(3);
        // Machine 1's inbox: src 0 sends one message, src 1 two, src 2 three,
        // in ascending source order.
        let expected: Vec<u64> = vec![10, 110, 111, 210, 211, 212];
        let got: Vec<u64> = inboxes[1].iter().map(|m| m.0).collect();
        assert_eq!(got, expected);
    }

    /// The acceptance property in miniature: for several machines ×
    /// endpoints splits, a socket exchange over real loopback TCP delivers
    /// exactly the inboxes the in-memory reference delivers.
    #[test]
    fn socket_exchange_matches_in_memory_bit_for_bit() {
        for machines in 1..=5 {
            for endpoints in 1..=machines.min(4) {
                let reference = reference_inboxes(machines);
                let listener = TcpListener::bind("127.0.0.1:0").unwrap();
                let addr = listener.local_addr().unwrap();
                let workers: Vec<_> = (1..endpoints)
                    .map(|_| {
                        std::thread::spawn(move || {
                            let mut t =
                                SocketTransport::worker(addr, Duration::from_secs(5)).unwrap();
                            run_endpoint(&mut t, machines)
                        })
                    })
                    .collect();
                let mut coord =
                    SocketTransport::coordinator(&listener, endpoints, machines).unwrap();
                let mut all = run_endpoint(&mut coord, machines);
                for worker in workers {
                    all.extend(worker.join().unwrap());
                }
                all.sort_by_key(|(machine, _)| *machine);
                assert!(coord.wire_stats().frames_sent > 0 || endpoints == 1);
                for (machine, inbox) in all {
                    assert_eq!(
                        inbox, reference[machine],
                        "machine {machine} inbox diverged ({machines} machines, {endpoints} endpoints)"
                    );
                }
            }
        }
    }

    /// Runs one endpoint's side of a single exchange and returns its local
    /// (machine, inbox) pairs.
    fn run_endpoint(t: &mut SocketTransport, machines: usize) -> Vec<(usize, Vec<TestMsg>)> {
        let local = t.local_machines();
        let mut all_outboxes = seed_outboxes(machines);
        let mut outboxes: Vec<Outbox<TestMsg>> = all_outboxes
            .drain(..)
            .enumerate()
            .filter(|(m, _)| local.contains(m))
            .map(|(_, o)| o)
            .collect();
        let mut inboxes: Vec<Vec<TestMsg>> = vec![Vec::new(); local.len()];
        let mut out_refs: Vec<&mut Outbox<TestMsg>> = outboxes.iter_mut().collect();
        let mut in_refs: Vec<&mut Vec<TestMsg>> = inboxes.iter_mut().collect();
        t.exchange(0, &mut out_refs, &mut in_refs).unwrap();
        // The pending collective must agree globally: inboxes are non-empty
        // everywhere in this traffic pattern.
        assert!(Transport::<TestMsg>::sync_pending(t, !inboxes.is_empty()).unwrap());
        local.zip(inboxes).collect()
    }

    #[test]
    fn control_collectives_roundtrip_over_loopback() {
        let machines = 4;
        let endpoints = 3;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let workers: Vec<_> = (1..endpoints)
            .map(|_| {
                std::thread::spawn(move || {
                    let mut t = SocketTransport::worker(addr, Duration::from_secs(5)).unwrap();
                    // Both sides of a loopback pair share one trace epoch, so
                    // the measured offset must be tiny (bounded by the RTT).
                    assert!(
                        t.clock_offset_micros().abs() < 1_000_000,
                        "loopback clock offset {}µs",
                        t.clock_offset_micros()
                    );
                    let b = t.broadcast(&[]).unwrap();
                    assert_eq!(b, b"round-1");
                    assert!(t.gather(&[t.endpoint() as u8]).unwrap().is_empty());
                    let s = t.scatter(&[]).unwrap();
                    assert_eq!(s, vec![t.endpoint() as u8 * 2]);
                    assert!(!Transport::<TestMsg>::sync_pending(&mut t, false).unwrap());
                })
            })
            .collect();
        let mut coord = SocketTransport::coordinator(&listener, endpoints, machines).unwrap();
        assert_eq!(
            coord.clock_offset_micros(),
            0,
            "coordinator is the reference clock"
        );
        assert_eq!(coord.broadcast(b"round-1").unwrap(), b"round-1");
        let gathered = coord.gather(&[0]).unwrap();
        assert_eq!(gathered, vec![vec![0], vec![1], vec![2]]);
        let scattered = coord.scatter(&[vec![0], vec![2], vec![4]]).unwrap();
        assert_eq!(scattered, vec![0]);
        assert!(!Transport::<TestMsg>::sync_pending(&mut coord, false).unwrap());
        for worker in workers {
            worker.join().unwrap();
        }
        let stats = coord.wire_stats();
        assert!(stats.frames_sent >= 4 && stats.frames_received >= 4);
        assert!(stats.bytes_sent > 0 && stats.bytes_received > 0);
    }

    /// A stream that is not speaking the protocol must surface as an error,
    /// never a panic, on the coordinator's accept path.
    #[test]
    fn garbage_handshake_errors_cleanly() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let garbler = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            stream.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
            // Keep some bytes coming so the read never sees a clean EOF.
            stream.write_all(&[0u8; 64]).unwrap();
        });
        let err = SocketTransport::coordinator(&listener, 2, 4).err().unwrap();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        garbler.join().unwrap();
    }

    fn sample_events() -> Vec<TraceEvent> {
        let event = |name: &'static str, phase, ts_micros, machine, round| TraceEvent {
            name: name.into(),
            phase,
            ts_micros,
            pid: 0,
            tid: 1,
            machine,
            round,
        };
        vec![
            event("superstep", Phase::Begin, 100, 2, 7),
            event("fault \"x\"\n", Phase::Instant, 150, -1, -1),
            event("superstep", Phase::End, 200, 2, 7),
        ]
    }

    #[test]
    fn trace_events_round_trip_stamped_with_pid_and_clock_offset() {
        let events = sample_events();
        let payload = encode_events(&events, 3, 1000);
        let decoded = decode_events(&payload).unwrap();
        assert_eq!(decoded.len(), events.len());
        for (orig, dec) in events.iter().zip(&decoded) {
            let expected = TraceEvent {
                ts_micros: orig.ts_micros + 1000,
                pid: 3,
                ..orig.clone()
            };
            assert_eq!(*dec, expected);
        }
        let shifted_back = decode_events(&encode_events(&events, 1, -90)).unwrap();
        assert_eq!(shifted_back[0].ts_micros, 10);
        assert_eq!(decode_events(&encode_events(&[], 5, 123)).unwrap(), []);
        let mut trailing = payload;
        trailing.push(0);
        assert!(decode_events(&trailing).is_err(), "trailing bytes");
    }

    fn sample_entries() -> Vec<RawEntry> {
        let entry = |src, dest, msgs: &[u64]| RawEntry {
            src,
            dest,
            count: msgs.len() as u32,
            bytes: msgs.iter().flat_map(|&m| TestMsg(m).encode()).collect(),
        };
        vec![entry(1, 0, &[7, 8, 9]), entry(2, 0, &[]), entry(2, 1, &[5])]
    }

    #[test]
    fn hostile_deliveries_never_panic() {
        assert_total(&encode_entries(&sample_entries()), decode_entries);
    }

    /// A delivered entry whose message count is a lie must be an error once
    /// its bytes run out — not a reservation of `count` inbox slots.
    #[test]
    fn lying_message_count_in_a_delivery_is_an_error() {
        let transport = SocketTransport {
            endpoint: 0,
            endpoints: 2,
            num_machines: 3,
            local: 0..2,
            conns: Vec::new(),
            stats: WireStats::default(),
            clock_offset_micros: 0,
        };
        let deliver = |entries: Vec<RawEntry>| {
            let mut outboxes: Vec<Outbox<TestMsg>> = (0..2).map(|s| Outbox::new(s, 3)).collect();
            let mut inboxes: Vec<Vec<TestMsg>> = vec![Vec::new(); 2];
            transport
                .merge_local(
                    entries,
                    &mut outboxes.iter_mut().collect::<Vec<_>>(),
                    &mut inboxes.iter_mut().collect::<Vec<_>>(),
                )
                .map(|()| inboxes)
        };
        let honest = || sample_entries().into_iter().filter(|e| e.src == 2);
        let inboxes = deliver(honest().collect()).expect("honest delivery");
        assert_eq!(inboxes, [vec![], vec![TestMsg(5)]]);
        for count in [0, 2, u32::MAX] {
            let lie = honest().map(|entry| RawEntry { count, ..entry });
            assert!(deliver(lie.collect()).is_err(), "count {count}");
        }
    }

    #[test]
    fn worker_rejects_nonsensical_ack_and_times_out_on_dead_addr() {
        // Refused connection with a tiny timeout errors (no listener).
        let dead: SocketAddr = "127.0.0.1:1".parse().unwrap();
        let err = SocketTransport::worker(dead, Duration::from_millis(50));
        assert!(err.is_err());
    }
}
