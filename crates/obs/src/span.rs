//! Span-based tracing into per-thread ring buffers.
//!
//! The recording path is built to be cheap enough for the walk engine's hot
//! loop to tolerate when tracing is off: [`span!`](crate::span!) first loads
//! one relaxed `AtomicBool` and, when tracing is disabled, does nothing else
//! — no clock read, no allocation, no lock. When enabled, each thread
//! appends [`TraceEvent`]s to its own bounded ring buffer (oldest events are
//! dropped on overflow), so threads never contend on a shared sink.
//!
//! Buffers are registered in a process-global table the first time a thread
//! records, which lets [`drain_all`] collect every thread's events — plus
//! any foreign (cross-process) events deposited via [`absorb`] — into one
//! timeline for export.

use std::borrow::Cow;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Default per-thread ring capacity, in events. At two events per span this
/// holds ~32k spans per thread — hours of round-granular tracing — while
/// bounding memory at ~4 MB/thread worst case.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether span recording is currently on.
#[inline]
pub fn tracing_enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Turns span recording on or off process-wide. Off is the default; when
/// off, instrumentation sites cost one relaxed atomic load.
pub fn set_tracing(enabled: bool) {
    ENABLED.store(enabled, Ordering::Relaxed);
}

/// What a [`TraceEvent`] marks.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// A span opened ("B" in the Chrome trace format).
    Begin,
    /// A span closed ("E").
    End,
    /// A point event with no duration ("i").
    Instant,
}

/// One record in the trace timeline.
///
/// `pid` is 0 until export: the transport's trace gather
/// (`distger_cluster::gather_trace_events`) stamps the endpoint id so merged
/// cross-process timelines keep one track group per machine. `machine`/`round` are −1 when the span has
/// no such context.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Span or event name (static in the common case — no allocation).
    pub name: Cow<'static, str>,
    /// Begin, end, or instant.
    pub phase: Phase,
    /// Microseconds since the trace epoch (see [`crate::now_micros`]),
    /// strictly increasing within one `(pid, tid)` track.
    pub ts_micros: i64,
    /// Process (endpoint) id; 0 until stamped at serialization time.
    pub pid: u32,
    /// Thread ordinal within the process.
    pub tid: u32,
    /// Machine id the work belongs to, or −1.
    pub machine: i64,
    /// BSP round / superstep index, or −1.
    pub round: i64,
}

struct Ring {
    events: std::collections::VecDeque<TraceEvent>,
    capacity: usize,
    /// Last timestamp handed out on this thread; recording clamps to
    /// `last + 1` so per-thread timestamps are strictly monotonic even when
    /// two events land within the same microsecond.
    last_ts: i64,
}

impl Ring {
    fn new(capacity: usize) -> Self {
        Self {
            events: std::collections::VecDeque::new(),
            capacity,
            last_ts: -1,
        }
    }

    fn push(&mut self, mut event: TraceEvent) {
        event.ts_micros = event.ts_micros.max(self.last_ts + 1);
        self.last_ts = event.ts_micros;
        if self.events.len() == self.capacity {
            self.events.pop_front();
        }
        self.events.push_back(event);
    }
}

#[derive(Default)]
struct Registry {
    /// Every thread's ring, kept alive past thread exit so late drains still
    /// see the events.
    rings: Vec<Arc<Mutex<Ring>>>,
    /// Events absorbed from other processes, already pid-stamped.
    foreign: Vec<TraceEvent>,
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(Mutex::default)
}

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

thread_local! {
    static THREAD_RING: (u32, Arc<Mutex<Ring>>) = {
        static NEXT_TID: AtomicU32 = AtomicU32::new(0);
        let tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        let ring = Arc::new(Mutex::new(Ring::new(DEFAULT_RING_CAPACITY)));
        lock(registry()).rings.push(ring.clone());
        (tid, ring)
    };
}

/// Records one event into the current thread's ring. No-op while tracing is
/// disabled.
pub fn record(name: Cow<'static, str>, phase: Phase, machine: i64, round: i64) {
    if !tracing_enabled() {
        return;
    }
    let ts_micros = crate::now_micros();
    THREAD_RING.with(|(tid, ring)| {
        lock(ring).push(TraceEvent {
            name,
            phase,
            ts_micros,
            pid: 0,
            tid: *tid,
            machine,
            round,
        });
    });
}

/// Records an [`Phase::Instant`] event (a durationless marker such as a
/// fault trip or a shed request). No-op while tracing is disabled.
pub fn instant(name: impl Into<Cow<'static, str>>, machine: i64, round: i64) {
    if tracing_enabled() {
        record(name.into(), Phase::Instant, machine, round);
    }
}

/// An RAII guard that closes a span on drop.
///
/// Created by [`span_guard`] (usually via the [`span!`](crate::span!)
/// macro). If tracing was off when the span opened, the guard is unarmed
/// and drop records nothing — so a span enabled mid-flight cannot emit an
/// `End` without its `Begin`.
#[must_use = "a span closes when this guard drops; binding to _ closes it immediately"]
pub struct SpanGuard {
    name: Option<Cow<'static, str>>,
    machine: i64,
    round: i64,
}

impl SpanGuard {
    /// A guard that records nothing on drop.
    pub fn disarmed() -> Self {
        Self {
            name: None,
            machine: -1,
            round: -1,
        }
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            // Record the End unconditionally (even if tracing was switched
            // off mid-span) so every recorded Begin gets its matching End.
            let ts_micros = crate::now_micros();
            THREAD_RING.with(|(tid, ring)| {
                lock(ring).push(TraceEvent {
                    name,
                    phase: Phase::End,
                    ts_micros,
                    pid: 0,
                    tid: *tid,
                    machine: self.machine,
                    round: self.round,
                });
            });
        }
    }
}

/// Opens a span: records a [`Phase::Begin`] now and a [`Phase::End`] when
/// the returned guard drops. Returns a disarmed guard while tracing is off.
pub fn span_guard(name: impl Into<Cow<'static, str>>, machine: i64, round: i64) -> SpanGuard {
    if !tracing_enabled() {
        return SpanGuard::disarmed();
    }
    let name = name.into();
    record(name.clone(), Phase::Begin, machine, round);
    SpanGuard {
        name: Some(name),
        machine,
        round,
    }
}

/// Opens a [`SpanGuard`](crate::SpanGuard) for the enclosing scope.
///
/// ```
/// # use distger_obs::span;
/// # distger_obs::set_tracing(true);
/// {
///     let _span = span!("superstep", machine = 3, round = 7);
///     // ... work ...
/// } // span ends here
/// let _span = span!("flush"); // no machine/round context
/// # drop(_span);
/// # distger_obs::set_tracing(false);
/// # distger_obs::drain_all();
/// ```
#[macro_export]
macro_rules! span {
    ($name:expr) => {
        $crate::span_guard($name, -1, -1)
    };
    ($name:expr, machine = $machine:expr) => {
        $crate::span_guard($name, $machine as i64, -1)
    };
    ($name:expr, round = $round:expr) => {
        $crate::span_guard($name, -1, $round as i64)
    };
    ($name:expr, machine = $machine:expr, round = $round:expr) => {
        $crate::span_guard($name, $machine as i64, $round as i64)
    };
}

/// Drains and returns the current thread's buffered events. This is what
/// workers ship at round boundaries: each endpoint's round loop runs on one
/// thread, so draining the current thread captures exactly its events.
pub fn drain_thread() -> Vec<TraceEvent> {
    THREAD_RING.with(|(_, ring)| {
        let mut ring = lock(ring);
        ring.events.drain(..).collect()
    })
}

/// Drains every thread's buffer plus all [`absorb`]ed foreign events into
/// one timeline, sorted by `(pid, tid, ts_micros)`.
pub fn drain_all() -> Vec<TraceEvent> {
    let mut out: Vec<TraceEvent> = Vec::new();
    {
        let mut reg = lock(registry());
        for ring in &reg.rings {
            out.extend(lock(ring).events.drain(..));
        }
        out.append(&mut reg.foreign);
    }
    out.sort_by_key(|e| (e.pid, e.tid, e.ts_micros));
    out
}

/// Deposits events collected from another process (already pid-stamped and
/// clock-aligned by the transport's trace gather) into the global store, to
/// be returned by the next [`drain_all`].
pub fn absorb(events: Vec<TraceEvent>) {
    lock(registry()).foreign.extend(events);
}

#[cfg(test)]
mod tests {
    use super::*;

    // All span tests share the process-global tracing flag and registry, so
    // they run as ONE #[test] to avoid cross-test interference under the
    // parallel test runner.
    #[test]
    fn span_recording_lifecycle() {
        // Disabled: nothing is recorded, guards are disarmed.
        assert!(!tracing_enabled());
        {
            let _g = span!("ignored", machine = 1, round = 2);
            instant("also_ignored", -1, -1);
        }
        assert!(drain_thread().is_empty());

        // Enabled: Begin/End pairs and instants land in order.
        set_tracing(true);
        {
            let _outer = span!("round", machine = 0, round = 5);
            instant("fault_trip", 0, 5);
            let _inner = span!("exchange");
        }
        let events = drain_thread();
        set_tracing(false);
        let names: Vec<(&str, Phase)> = events.iter().map(|e| (e.name.as_ref(), e.phase)).collect();
        assert_eq!(
            names,
            vec![
                ("round", Phase::Begin),
                ("fault_trip", Phase::Instant),
                ("exchange", Phase::Begin),
                ("exchange", Phase::End),
                ("round", Phase::End),
            ]
        );
        assert_eq!(events[0].machine, 0);
        assert_eq!(events[0].round, 5);
        assert_eq!(events[2].machine, -1);
        // Strictly monotonic timestamps within the thread track.
        for pair in events.windows(2) {
            assert!(pair[0].ts_micros < pair[1].ts_micros);
        }
        // All on the same tid; drained, so the buffer is now empty.
        assert!(events.iter().all(|e| e.tid == events[0].tid));
        assert!(drain_thread().is_empty());

        // A span that outlives a mid-flight disable still closes.
        set_tracing(true);
        let g = span!("closed_anyway");
        set_tracing(false);
        drop(g);
        let events = drain_thread();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].phase, Phase::End);

        // A span opened while disabled records nothing even if tracing
        // turns on before the guard drops.
        let g = span!("never_began");
        set_tracing(true);
        drop(g);
        let leftover = drain_thread();
        set_tracing(false);
        assert!(leftover.iter().all(|e| e.name != "never_began"));

        // drain_all sees other threads' events and absorbed foreign ones.
        set_tracing(true);
        std::thread::spawn(|| {
            let _g = span!("worker_side", machine = 3);
        })
        .join()
        .unwrap();
        absorb(vec![TraceEvent {
            name: Cow::Borrowed("foreign"),
            phase: Phase::Instant,
            ts_micros: 42,
            pid: 9,
            tid: 0,
            machine: -1,
            round: -1,
        }]);
        let all = drain_all();
        set_tracing(false);
        assert!(all.iter().any(|e| e.name == "worker_side"));
        assert!(all.iter().any(|e| e.pid == 9 && e.name == "foreign"));
        // Sorted by (pid, tid, ts): local pid-0 events precede foreign pid-9.
        let foreign_pos = all.iter().position(|e| e.pid == 9).unwrap();
        assert!(all[..foreign_pos].iter().all(|e| e.pid == 0));
        assert!(drain_all().is_empty());
    }

    #[test]
    fn ring_drops_oldest_on_overflow() {
        let mut ring = Ring::new(3);
        for i in 0..5 {
            ring.push(TraceEvent {
                name: Cow::Borrowed("e"),
                phase: Phase::Instant,
                ts_micros: i,
                pid: 0,
                tid: 0,
                machine: -1,
                round: -1,
            });
        }
        assert_eq!(ring.events.len(), 3);
        assert_eq!(ring.events[0].ts_micros, 2);
        // Equal raw timestamps are nudged to stay strictly increasing.
        ring.push(TraceEvent {
            name: Cow::Borrowed("same_ts"),
            phase: Phase::Instant,
            ts_micros: 4,
            pid: 0,
            tid: 0,
            machine: -1,
            round: -1,
        });
        assert_eq!(ring.events.back().unwrap().ts_micros, 5);
    }
}
