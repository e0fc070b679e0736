//! # distger-obs — unified tracing + metrics for the DistGER reproduction
//!
//! The observability layer every other crate records into. Std-only, no
//! dependencies, and deliberately the **lowest** crate in the workspace so
//! the cluster runtime, walk engine, trainer, and serving front-end can all
//! instrument themselves without dependency cycles.
//!
//! Three pieces:
//!
//! - **Metrics** ([`MetricsRegistry`]): named counters, gauges, and
//!   [`Log2Histogram`]s behind cheap atomic handles, with a snapshot/diff
//!   API and Prometheus text exposition ([`MetricsSnapshot::to_prometheus`]).
//! - **Spans** ([`span!`], [`SpanGuard`]): begin/end events into per-thread
//!   ring buffers on a monotonic microsecond clock ([`now_micros`]). Off by
//!   default; when disabled each instrumentation site costs one relaxed
//!   atomic load, which keeps the walk engine's hot path unaffected (gated
//!   by the `obs_overhead` benchmark).
//! - **Export** ([`chrome_trace_json`]): Chrome trace-event JSON that
//!   Perfetto loads directly. For the cross-process merge, workers drain
//!   their buffers at round boundaries, the transport ships them over the
//!   control channel (`distger_cluster::gather_trace_events` owns that
//!   codec), and the coordinator [`absorb`]s them into one clock-aligned
//!   timeline.
//!
//! ```
//! use distger_obs as obs;
//!
//! obs::set_tracing(true);
//! {
//!     let _round = obs::span!("round", machine = 0, round = 3);
//!     obs::global().counter("walks.steps").add(128);
//! }
//! let trace = obs::chrome_trace_json(&obs::drain_all());
//! assert!(trace.contains("\"name\":\"round\""));
//! # obs::set_tracing(false);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod clock;
mod export;
mod hist;
mod metrics;
mod span;

pub use clock::{now_micros, PhaseTimes, Stopwatch};
pub use export::chrome_trace_json;
pub use hist::Log2Histogram;
pub use metrics::{global, Counter, Gauge, Histogram, MetricsRegistry, MetricsSnapshot};
pub use span::{
    absorb, drain_all, drain_thread, instant, record, set_tracing, span_guard, tracing_enabled,
    Phase, SpanGuard, TraceEvent, DEFAULT_RING_CAPACITY,
};
