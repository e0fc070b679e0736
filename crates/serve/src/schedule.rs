//! The serving front door: a dynamic-batching request scheduler.
//!
//! [`QueryEngine`] is a library call — one caller hands it a pre-formed
//! [`QueryBatch`] and blocks. A serving deployment has the
//! opposite shape: many independent callers, each holding *one* query,
//! wanting an answer inside a latency budget. [`Scheduler`] bridges the two:
//! callers submit single queries through a cloneable [`RequestClient`]; a
//! dispatcher thread accumulates them into batches under a
//! [`BatchPolicy`] and flushes each batch onto the existing
//! [`QueryEngine::top_k`] path, whose helpers it wakes from the dispatcher
//! thread, returning per-request [`TopK`] results through completion
//! channels ([`PendingQuery`]).
//!
//! # Flush conditions (the dispatcher state machine)
//!
//! The dispatcher loops over three states, all decisions made under one
//! state lock:
//!
//! * **idle** — queue empty: park on the [`Clock`] with no deadline
//!   ([`clock::IDLE`](crate::clock::IDLE)); a submit wakes it.
//! * **armed** — queue non-empty but below `max_batch`: the flush deadline
//!   is `oldest.submitted_at + max_delay`; park until that deadline (new
//!   submits wake it early to re-check the size trigger).
//! * **flush** — `queue.len() >= max_batch` *or* `now >= deadline`: drain up
//!   to `max_batch` requests, release the lock, run the engine, complete the
//!   requests, loop.
//!
//! Whichever trips first wins: a full batch flushes immediately regardless
//! of age, and a lone request flushes exactly at its deadline, never before
//! (property-tested on [`VirtualClock`](crate::VirtualClock)).
//!
//! # Admission, shedding, caching
//!
//! Submits are bounded by `max_inflight` (accepted-but-unanswered
//! requests): beyond it, [`submit`](RequestClient::submit) fails fast with
//! [`Rejected::Overloaded`] instead of growing an unbounded queue — counted
//! in [`SchedulerStats::shed`]. In front of admission sits a hot-query LRU
//! cache (`cache` module — key: exact bits of the *normalized*
//! query, so hits are bit-identical to engine answers by construction).
//!
//! # Shutdown and failure
//!
//! Dropping the [`Scheduler`] (or an engine panic — e.g. injected through
//! the [`FaultInjector`] seam) must never strand a caller: the dispatcher
//! errors every queued and in-flight request with [`Rejected::Shutdown`],
//! later submits fail fast, and [`PendingQuery::wait`] maps a dead channel
//! to the same error. The engine-panic payload is preserved in
//! [`Scheduler::failure`].

use crate::cache::QueryCache;
use crate::clock::{Clock, SystemClock, IDLE};
use crate::engine::{QueryBatch, QueryEngine, ServeEngine};
use crate::index::normalize_into;
use crate::topk::TopK;
use distger_cluster::{panic_message, FaultInjector};
use distger_obs::Log2Histogram;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// When a pending batch flushes: at `max_batch` queued requests or when the
/// oldest queued request turns `max_delay` old — whichever trips first.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BatchPolicy {
    /// Flush as soon as this many requests are queued.
    pub max_batch: usize,
    /// Flush when the oldest queued request has waited this long.
    pub max_delay: Duration,
}

impl Default for BatchPolicy {
    fn default() -> Self {
        Self {
            max_batch: 256,
            max_delay: Duration::from_millis(2),
        }
    }
}

/// Configuration of a [`Scheduler`].
#[derive(Clone, Debug)]
pub struct SchedulerConfig {
    /// Batch accumulation policy.
    pub batch: BatchPolicy,
    /// Admission bound: accepted-but-unanswered requests beyond this are
    /// shed with [`Rejected::Overloaded`].
    pub max_inflight: usize,
    /// Hot-query LRU cache capacity in entries (0 = disabled, the default).
    pub cache_capacity: usize,
    /// Deterministic fault-injection seam (tests only): tripped once per
    /// batch as `(machine 0, round = batch index, superstep 0)` right before
    /// the engine call, so an injected panic exercises the shutdown path.
    pub faults: Option<Arc<FaultInjector>>,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        Self {
            batch: BatchPolicy::default(),
            max_inflight: 1024,
            cache_capacity: 0,
            faults: None,
        }
    }
}

impl SchedulerConfig {
    /// Builder-style batch-policy override.
    pub fn with_batch(mut self, batch: BatchPolicy) -> Self {
        self.batch = batch;
        self
    }

    /// Builder-style admission-bound override.
    pub fn with_max_inflight(mut self, max_inflight: usize) -> Self {
        self.max_inflight = max_inflight;
        self
    }

    /// Builder-style cache-capacity override.
    pub fn with_cache_capacity(mut self, cache_capacity: usize) -> Self {
        self.cache_capacity = cache_capacity;
        self
    }
}

/// Why a request was not answered.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Rejected {
    /// Admission control shed the request: `max_inflight` requests were
    /// already accepted and unanswered. Back off and retry.
    Overloaded,
    /// The scheduler is shutting down (dropped) or its dispatcher died on an
    /// engine panic; see [`Scheduler::failure`] for the payload.
    Shutdown,
}

impl std::fmt::Display for Rejected {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Overloaded => write!(f, "request shed: scheduler at max_inflight"),
            Rejected::Shutdown => write!(f, "scheduler shut down before answering"),
        }
    }
}

impl std::error::Error for Rejected {}

/// Counters and distributions of a [`Scheduler`]'s lifetime so far.
///
/// Counter identities (always true at a quiescent point — no submit racing
/// the read, no batch mid-flight):
/// `submitted == shed + cache_hits + cache_misses` and
/// `cache_misses == completed + shutdown_errors + still-pending`.
#[derive(Clone, Debug, Default)]
pub struct SchedulerStats {
    /// Submit calls that reached admission (everything except
    /// post-shutdown fast-fails).
    pub submitted: u64,
    /// Requests answered by the engine (excludes cache hits).
    pub completed: u64,
    /// Requests answered straight from the hot-query cache.
    pub cache_hits: u64,
    /// Requests that missed the cache and were enqueued.
    pub cache_misses: u64,
    /// Requests shed by admission control ([`Rejected::Overloaded`]).
    pub shed: u64,
    /// Queued or in-flight requests errored by shutdown or engine failure.
    pub shutdown_errors: u64,
    /// Batches flushed to the engine.
    pub batches: u64,
    /// Per-request latency in nanoseconds, submit → answer (cache hits
    /// record 0).
    pub latency: Log2Histogram,
    /// Flushed batch sizes.
    pub batch_sizes: Log2Histogram,
    /// Scheduler age at the time of the stats read, per its [`Clock`].
    pub elapsed: Duration,
}

impl SchedulerStats {
    /// Answered requests (engine + cache) per second of scheduler lifetime.
    /// Returns 0.0 at zero elapsed time — which a [`VirtualClock`] that was
    /// never advanced reports; wall-clock QPS gates must divide by a
    /// measured positive wall time instead (the bench asserts this).
    ///
    /// [`VirtualClock`]: crate::VirtualClock
    pub fn qps(&self) -> f64 {
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            (self.completed + self.cache_hits) as f64 / secs
        } else {
            0.0
        }
    }

    /// Cache hits over cache lookups (0.0 before any lookup).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            0.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Mean flushed batch size (0.0 before any flush).
    pub fn avg_batch(&self) -> f64 {
        self.batch_sizes.mean()
    }

    /// Latency quantile as a [`Duration`] (see [`Log2Histogram::quantile`]
    /// for the bucket-upper-bound semantics).
    pub fn latency_quantile(&self, q: f64) -> Duration {
        Duration::from_nanos(self.latency.quantile(q))
    }

    /// Aggregates another scheduler's lifetime stats into this one — for
    /// fleet-level reporting over several scheduler replicas. Counters add,
    /// histograms [`merge`](Log2Histogram::merge), and `elapsed` takes the
    /// maximum (replicas run concurrently; summing ages would deflate
    /// [`qps`](SchedulerStats::qps)).
    pub fn merge(&mut self, other: &SchedulerStats) {
        self.submitted += other.submitted;
        self.completed += other.completed;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.shed += other.shed;
        self.shutdown_errors += other.shutdown_errors;
        self.batches += other.batches;
        self.latency.merge(&other.latency);
        self.batch_sizes.merge(&other.batch_sizes);
        self.elapsed = self.elapsed.max(other.elapsed);
    }
}

/// One queued request.
struct Request {
    /// The raw query, exactly as submitted. The *engine* normalizes it —
    /// passing the raw bits through the same `top_k` path a direct caller
    /// uses is what makes scheduler answers bit-identical by construction
    /// (renormalizing an already-normalized vector is not bit-stable).
    query: Vec<f32>,
    /// Cache key (present only when the cache is enabled).
    key: Option<Vec<u32>>,
    /// Completion channel back to the caller's [`PendingQuery`].
    tx: Sender<Result<TopK, Rejected>>,
    /// Clock time the request was accepted.
    submitted_at: Duration,
}

/// Dispatcher-owned mutable state, behind the one scheduler lock.
struct SchedState {
    queue: VecDeque<Request>,
    cache: QueryCache,
    /// Accepted-but-unanswered requests (queued + mid-batch).
    inflight: usize,
    shutdown: bool,
    /// Engine panic payload, if the dispatcher died on one.
    failure: Option<String>,
    stats: SchedulerStats,
}

struct Shared<C: Clock, E: ServeEngine> {
    state: Mutex<SchedState>,
    clock: C,
    engine: E,
    config: SchedulerConfig,
    /// Clock time at scheduler creation; `stats.elapsed` is measured from
    /// here.
    started: Duration,
}

impl<C: Clock, E: ServeEngine> Shared<C, E> {
    /// State lock, poison-recovering like `cluster::pool`: every field is
    /// valid in any state (counters, a queue, a cache), and the shutdown
    /// path *must* acquire this lock after a dispatcher panic to drain the
    /// queue — unwrapping would trade a panic for hung callers.
    fn lock(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// Errors every request in `queue` with [`Rejected::Shutdown`].
fn drain_queue(state: &mut SchedState) {
    while let Some(request) = state.queue.pop_front() {
        state.inflight -= 1;
        state.stats.shutdown_errors += 1;
        // A receiver gone before its answer is just a dropped PendingQuery.
        let _ = request.tx.send(Err(Rejected::Shutdown));
    }
}

/// The dispatcher loop; see the module docs for the state machine.
fn dispatch<C: Clock, E: ServeEngine>(shared: &Shared<C, E>) {
    let policy = shared.config.batch;
    loop {
        let mut state = shared.lock();
        if state.shutdown {
            drain_queue(&mut state);
            return;
        }
        let Some(oldest) = state.queue.front() else {
            shared.clock.wait_until(state, IDLE);
            continue;
        };
        let deadline = oldest.submitted_at.saturating_add(policy.max_delay);
        let now = shared.clock.now();
        if state.queue.len() < policy.max_batch && now < deadline {
            shared.clock.wait_until(state, deadline);
            continue;
        }

        // Flush: drain up to max_batch requests, run the engine unlocked.
        let take = state.queue.len().min(policy.max_batch);
        let requests: Vec<Request> = state.queue.drain(..take).collect();
        let batch_index = state.stats.batches;
        state.stats.batches += 1;
        state.stats.batch_sizes.record(take as u64);
        drop(state);

        // The "batch" span covers flush → engine → answers delivered; the
        // queued→flushed wait is visible as the gap since "request_queued".
        let _batch_span = distger_obs::span!("batch", round = batch_index);
        let mut batch = QueryBatch::new(shared.engine.dim());
        for request in &requests {
            batch.push(&request.query);
        }
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            if let Some(injector) = &shared.config.faults {
                injector.trip(0, batch_index, 0);
            }
            shared.engine.serve(&batch)
        }));

        match outcome {
            Ok(results) => {
                let done = shared.clock.now();
                let mut state = shared.lock();
                for (request, top) in requests.into_iter().zip(results.results) {
                    state.inflight -= 1;
                    state.stats.completed += 1;
                    let waited = done.saturating_sub(request.submitted_at);
                    state.stats.latency.record(waited.as_nanos() as u64);
                    if let Some(key) = request.key {
                        state.cache.insert(key, top.clone());
                    }
                    let _ = request.tx.send(Ok(top));
                }
            }
            Err(payload) => {
                // Engine panic: record it, fail this batch and everything
                // queued behind it, and stop dispatching — the scheduler is
                // permanently down (matching the pool's fail-stop barrier
                // semantics), but no caller hangs.
                let mut state = shared.lock();
                state.shutdown = true;
                state.failure = Some(panic_message(payload.as_ref()));
                for request in requests {
                    state.inflight -= 1;
                    state.stats.shutdown_errors += 1;
                    let _ = request.tx.send(Err(Rejected::Shutdown));
                }
                drain_queue(&mut state);
                return;
            }
        }
    }
}

/// The serving front door: owns the engine (any [`ServeEngine`] — the
/// single-process [`QueryEngine`] by default, or the sharded scatter-gather
/// engine, whose batches fan out per shard instead of per pool chunk) and
/// the dispatcher thread; hand out [`RequestClient`]s via
/// [`client`](Scheduler::client). Dropping it shuts the dispatcher down and
/// errors all in-flight requests with [`Rejected::Shutdown`].
pub struct Scheduler<C: Clock = SystemClock, E: ServeEngine = QueryEngine> {
    shared: Arc<Shared<C, E>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl<E: ServeEngine> Scheduler<SystemClock, E> {
    /// A scheduler on wall-clock time.
    pub fn new(engine: E, config: SchedulerConfig) -> Self {
        Self::with_clock(engine, config, SystemClock::default())
    }
}

impl<C: Clock, E: ServeEngine> Scheduler<C, E> {
    /// A scheduler on an injected clock ([`VirtualClock`](crate::VirtualClock)
    /// in tests).
    ///
    /// # Panics
    /// Panics if `config.batch.max_batch` or `config.max_inflight` is zero.
    pub fn with_clock(engine: E, config: SchedulerConfig, clock: C) -> Self {
        assert!(config.batch.max_batch > 0, "need max_batch >= 1");
        assert!(config.max_inflight > 0, "need max_inflight >= 1");
        let started = clock.now();
        let shared = Arc::new(Shared {
            state: Mutex::new(SchedState {
                queue: VecDeque::new(),
                cache: QueryCache::new(config.cache_capacity),
                inflight: 0,
                shutdown: false,
                failure: None,
                stats: SchedulerStats::default(),
            }),
            clock,
            engine,
            config,
            started,
        });
        let worker = Arc::clone(&shared);
        let dispatcher = std::thread::Builder::new()
            .name("serve-dispatcher".into())
            .spawn(move || dispatch(worker.as_ref()))
            .expect("spawn dispatcher thread");
        Self {
            shared,
            dispatcher: Some(dispatcher),
        }
    }

    /// A handle for submitting queries; clone freely across caller threads.
    pub fn client(&self) -> RequestClient<C, E> {
        RequestClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// The engine being fronted.
    pub fn engine(&self) -> &E {
        &self.shared.engine
    }

    /// Shuts the scheduler down (dispatcher joined, every queued request
    /// errored with [`Rejected::Shutdown`], exactly as on drop) and hands
    /// the engine back — the multi-process serve phase needs its
    /// [`ShardedQueryEngine`](crate::shard::ShardedQueryEngine) back to run
    /// the shutdown collective and recover the transport.
    ///
    /// # Panics
    /// Panics if a [`RequestClient`] is still alive: clients keep the engine
    /// reachable, so drop them all first.
    pub fn into_engine(mut self) -> E {
        self.shared.lock().shutdown = true;
        self.shared.clock.wake();
        if let Some(handle) = self.dispatcher.take() {
            let _ = handle.join();
        }
        let shared = Arc::clone(&self.shared);
        // Drop runs on an already-shut scheduler: dispatcher is None, the
        // shutdown flag is idempotent. This releases `self`'s Arc.
        drop(self);
        match Arc::try_unwrap(shared) {
            Ok(shared) => shared.engine,
            Err(_) => panic!("drop every RequestClient before into_engine"),
        }
    }

    /// A snapshot of the scheduler's counters and distributions.
    pub fn stats(&self) -> SchedulerStats {
        let mut stats = self.shared.lock().stats.clone();
        stats.elapsed = self.shared.clock.now().saturating_sub(self.shared.started);
        stats
    }

    /// The engine panic that killed the dispatcher, if one did.
    pub fn failure(&self) -> Option<String> {
        self.shared.lock().failure.clone()
    }
}

impl<C: Clock, E: ServeEngine> Drop for Scheduler<C, E> {
    fn drop(&mut self) {
        self.shared.lock().shutdown = true;
        self.shared.clock.wake();
        if let Some(handle) = self.dispatcher.take() {
            // The dispatcher only panics if the engine panic *re-raises*
            // through drain — it doesn't (send errors are ignored) — but a
            // Drop must never double-panic regardless.
            let _ = handle.join();
        }
    }
}

/// A cloneable submit handle onto a [`Scheduler`]. Outliving the scheduler
/// is safe: submits after shutdown fail fast with [`Rejected::Shutdown`].
pub struct RequestClient<C: Clock = SystemClock, E: ServeEngine = QueryEngine> {
    shared: Arc<Shared<C, E>>,
}

impl<C: Clock, E: ServeEngine> Clone for RequestClient<C, E> {
    fn clone(&self) -> Self {
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<C: Clock, E: ServeEngine> RequestClient<C, E> {
    /// Submits one query; returns a [`PendingQuery`] to wait on, or fails
    /// fast when overloaded or shut down. Never blocks on the engine.
    ///
    /// # Panics
    /// Panics if `query.len()` differs from the index dimension (the same
    /// contract as [`QueryEngine::top_k`]).
    pub fn submit(&self, query: &[f32]) -> Result<PendingQuery, Rejected> {
        let dim = self.shared.engine.dim();
        assert_eq!(query.len(), dim, "query dimension does not match the index");
        // The cache key is the bit image of the *normalized* query (see
        // `cache`); the raw query is what gets enqueued for the engine.
        let key_bits = if self.shared.config.cache_capacity > 0 {
            let mut unit_query = vec![0.0; dim];
            normalize_into(query, &mut unit_query);
            Some(QueryCache::key_of(&unit_query))
        } else {
            None
        };

        let (tx, rx) = channel();
        let mut state = self.shared.lock();
        if state.shutdown {
            return Err(Rejected::Shutdown);
        }
        state.stats.submitted += 1;
        let key = if let Some(key) = key_bits {
            if let Some(answer) = state.cache.get(&key) {
                state.stats.cache_hits += 1;
                state.stats.latency.record(0);
                drop(state);
                distger_obs::instant("cache_hit", -1, -1);
                let _ = tx.send(Ok(answer));
                return Ok(PendingQuery { rx });
            }
            Some(key)
        } else {
            None
        };
        if state.inflight >= self.shared.config.max_inflight {
            state.stats.shed += 1;
            drop(state);
            distger_obs::instant("request_shed", -1, -1);
            return Err(Rejected::Overloaded);
        }
        state.stats.cache_misses += 1;
        state.inflight += 1;
        state.queue.push_back(Request {
            query: query.to_vec(),
            key,
            tx,
            submitted_at: self.shared.clock.now(),
        });
        drop(state);
        distger_obs::instant("request_queued", -1, -1);
        // Wake after releasing the state lock (the clock protocol's lock
        // order is state → clock).
        self.shared.clock.wake();
        Ok(PendingQuery { rx })
    }

    /// Stats snapshot, same as [`Scheduler::stats`].
    pub fn stats(&self) -> SchedulerStats {
        let mut stats = self.shared.lock().stats.clone();
        stats.elapsed = self.shared.clock.now().saturating_sub(self.shared.started);
        stats
    }
}

/// A submitted request's completion handle.
#[derive(Debug)]
pub struct PendingQuery {
    rx: Receiver<Result<TopK, Rejected>>,
}

impl PendingQuery {
    /// Blocks until the answer (or rejection) arrives. A dispatcher that
    /// died without answering reads as [`Rejected::Shutdown`].
    pub fn wait(self) -> Result<TopK, Rejected> {
        self.rx.recv().unwrap_or(Err(Rejected::Shutdown))
    }

    /// Non-blocking poll: `None` while the answer is still pending.
    pub fn try_wait(&self) -> Option<Result<TopK, Rejected>> {
        match self.rx.try_recv() {
            Ok(answer) => Some(answer),
            Err(TryRecvError::Empty) => None,
            Err(TryRecvError::Disconnected) => Some(Err(Rejected::Shutdown)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::VirtualClock;
    use crate::engine::{QueryBackend, ServeConfig};
    use crate::fixtures::gaussian_clusters;
    use crate::index::EmbeddingIndex;
    use distger_cluster::FaultPlan;

    fn engine(backend: QueryBackend) -> QueryEngine {
        let index = EmbeddingIndex::build(&gaussian_clusters(200, 8, 4, 0.05, 23));
        QueryEngine::new(
            index,
            ServeConfig {
                backend,
                k: 5,
                threads: 2,
                ..ServeConfig::default()
            },
        )
    }

    fn query_of(engine: &QueryEngine, node: u32) -> Vec<f32> {
        engine.index().unit_vector(node).to_vec()
    }

    #[test]
    fn answers_match_the_direct_engine_call() {
        let engine = engine(QueryBackend::Exact);
        let expected = engine.top_k_one(&query_of(&engine, 7));
        let scheduler = Scheduler::new(engine, SchedulerConfig::default());
        let client = scheduler.client();
        let query = query_of(scheduler.engine(), 7);
        let answer = client.submit(&query).unwrap().wait().unwrap();
        assert_eq!(answer, expected);
    }

    #[test]
    fn full_batch_flushes_without_time_moving() {
        // max_batch submissions must flush on size alone: the virtual clock
        // never advances, so the deadline can never trip.
        let clock = VirtualClock::new();
        let scheduler = Scheduler::with_clock(
            engine(QueryBackend::Exact),
            SchedulerConfig::default().with_batch(BatchPolicy {
                max_batch: 4,
                max_delay: Duration::from_secs(3600),
            }),
            clock.clone(),
        );
        let client = scheduler.client();
        let pending: Vec<PendingQuery> = (0..4)
            .map(|node| {
                let query = query_of(scheduler.engine(), node);
                client.submit(&query).unwrap()
            })
            .collect();
        for p in pending {
            assert!(p.wait().is_ok());
        }
        let stats = scheduler.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.batch_sizes.max(), 4);
        assert_eq!(clock.now(), Duration::ZERO);
    }

    #[test]
    fn lone_request_flushes_exactly_at_the_deadline_never_before() {
        let clock = VirtualClock::new();
        let max_delay = Duration::from_millis(2);
        let scheduler = Scheduler::with_clock(
            engine(QueryBackend::Exact),
            SchedulerConfig::default().with_batch(BatchPolicy {
                max_batch: 256,
                max_delay,
            }),
            clock.clone(),
        );
        let client = scheduler.client();
        let query = query_of(scheduler.engine(), 3);
        let pending = client.submit(&query).unwrap();

        // Deterministic "not yet": the dispatcher is parked on exactly the
        // submit-time + max_delay deadline...
        assert_eq!(clock.wait_for_park_until(max_delay), max_delay);
        // ...and with time one nanosecond short of it, it is *provably*
        // still parked — no flush can have happened.
        clock.advance(max_delay - Duration::from_nanos(1));
        assert_eq!(clock.parked_deadline(), Some(max_delay));
        assert_eq!(pending.try_wait(), None, "flushed before the deadline");

        clock.advance(Duration::from_nanos(1));
        assert!(pending.wait().is_ok());
        let stats = scheduler.stats();
        assert_eq!(stats.batches, 1);
        // Latency is measured on the same virtual clock: exactly max_delay.
        assert_eq!(stats.latency.max(), max_delay.as_nanos() as u64);
    }

    #[test]
    fn overload_sheds_with_overloaded() {
        // max_inflight 2 and a dispatcher that can never flush (far
        // deadline, huge batch, frozen clock): the third submit must shed.
        let scheduler = Scheduler::with_clock(
            engine(QueryBackend::Exact),
            SchedulerConfig::default()
                .with_max_inflight(2)
                .with_batch(BatchPolicy {
                    max_batch: 256,
                    max_delay: Duration::from_secs(3600),
                }),
            VirtualClock::new(),
        );
        let client = scheduler.client();
        let query = query_of(scheduler.engine(), 0);
        let _a = client.submit(&query).unwrap();
        let _b = client.submit(&query).unwrap();
        assert_eq!(client.submit(&query).unwrap_err(), Rejected::Overloaded);
        let stats = scheduler.stats();
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.submitted, 3);
    }

    #[test]
    fn drop_errors_queued_requests_with_shutdown() {
        let clock = VirtualClock::new();
        let scheduler = Scheduler::with_clock(
            engine(QueryBackend::Exact),
            SchedulerConfig::default().with_batch(BatchPolicy {
                max_batch: 256,
                max_delay: Duration::from_secs(3600),
            }),
            clock,
        );
        let client = scheduler.client();
        let query = query_of(scheduler.engine(), 1);
        let pending = client.submit(&query).unwrap();
        drop(scheduler);
        assert_eq!(pending.wait(), Err(Rejected::Shutdown));
        assert_eq!(client.submit(&query).unwrap_err(), Rejected::Shutdown);
    }

    #[test]
    fn engine_panic_fails_all_requests_and_records_the_payload() {
        // Fault injected at (machine 0, round 0, superstep 0) = the first
        // batch: both its requests and the client must see Shutdown, and the
        // canonical panic message must be preserved.
        let faults = Arc::new(FaultPlan::new().panic_at(0, 0, 0).build());
        let clock = VirtualClock::new();
        let scheduler = Scheduler::with_clock(
            engine(QueryBackend::Exact),
            SchedulerConfig {
                batch: BatchPolicy {
                    max_batch: 2,
                    max_delay: Duration::from_secs(3600),
                },
                faults: Some(faults),
                ..SchedulerConfig::default()
            },
            clock,
        );
        let client = scheduler.client();
        let query = query_of(scheduler.engine(), 2);
        let a = client.submit(&query).unwrap();
        let b = client.submit(&query).unwrap();
        assert_eq!(a.wait(), Err(Rejected::Shutdown));
        assert_eq!(b.wait(), Err(Rejected::Shutdown));
        let failure = scheduler.failure().expect("panic payload recorded");
        assert!(
            failure.contains("injected fault"),
            "unexpected payload: {failure}"
        );
        assert_eq!(client.submit(&query).unwrap_err(), Rejected::Shutdown);
        let stats = scheduler.stats();
        assert_eq!(stats.shutdown_errors, 2);
        assert_eq!(stats.completed, 0);
    }

    #[test]
    fn cache_hits_are_bit_identical_and_counted() {
        let engine = engine(QueryBackend::Lsh);
        let expected = engine.top_k_one(&query_of(&engine, 9));
        let scheduler = Scheduler::new(engine, SchedulerConfig::default().with_cache_capacity(8));
        let client = scheduler.client();
        let query = query_of(scheduler.engine(), 9);
        let first = client.submit(&query).unwrap().wait().unwrap();
        let second = client.submit(&query).unwrap().wait().unwrap();
        assert_eq!(first, expected);
        assert_eq!(second, expected);
        let stats = scheduler.stats();
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_misses, 1);
        assert!((stats.cache_hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn stats_identities_hold_after_a_mixed_run() {
        let scheduler = Scheduler::new(
            engine(QueryBackend::Exact),
            SchedulerConfig::default()
                .with_cache_capacity(4)
                .with_batch(BatchPolicy {
                    max_batch: 3,
                    max_delay: Duration::from_micros(200),
                }),
        );
        let client = scheduler.client();
        let pending: Vec<PendingQuery> = (0..20u32)
            .map(|i| {
                let query = query_of(scheduler.engine(), i % 5);
                client.submit(&query).unwrap()
            })
            .collect();
        for p in pending {
            assert!(p.wait().is_ok());
        }
        let stats = scheduler.stats();
        assert_eq!(stats.submitted, 20);
        assert_eq!(
            stats.submitted,
            stats.shed + stats.cache_hits + stats.cache_misses
        );
        // Everything waited on: nothing still pending.
        assert_eq!(stats.cache_misses, stats.completed + stats.shutdown_errors);
        assert_eq!(stats.batch_sizes.total(), stats.batches);
        assert_eq!(stats.batch_sizes.sum(), stats.completed);
        assert_eq!(stats.latency.total(), stats.completed + stats.cache_hits);
        assert!(stats.qps() > 0.0);
        assert!(stats.latency_quantile(0.99) >= stats.latency_quantile(0.50));
    }

    #[test]
    fn merged_stats_aggregate_replicas() {
        // Two schedulers answer disjoint traffic; the merged stats must look
        // like one fleet: counters summed, distributions merged, identities
        // preserved.
        let run = |nodes: std::ops::Range<u32>| {
            let scheduler = Scheduler::new(engine(QueryBackend::Exact), SchedulerConfig::default());
            let client = scheduler.client();
            let pending: Vec<PendingQuery> = nodes
                .map(|node| {
                    let query = query_of(scheduler.engine(), node);
                    client.submit(&query).unwrap()
                })
                .collect();
            for p in pending {
                assert!(p.wait().is_ok());
            }
            scheduler.stats()
        };
        let a = run(0..3);
        let b = run(3..8);
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged.submitted, 8);
        assert_eq!(merged.completed, a.completed + b.completed);
        assert_eq!(merged.batches, a.batches + b.batches);
        assert_eq!(
            merged.latency.total(),
            a.latency.total() + b.latency.total()
        );
        assert_eq!(merged.batch_sizes.sum(), merged.completed);
        assert_eq!(merged.elapsed, a.elapsed.max(b.elapsed));
        assert!(merged.latency.max() >= a.latency.max().max(b.latency.max()));
    }

    #[test]
    #[should_panic(expected = "dimension does not match")]
    fn submit_rejects_wrong_dimension() {
        let scheduler = Scheduler::new(engine(QueryBackend::Exact), SchedulerConfig::default());
        let _ = scheduler.client().submit(&[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "max_batch >= 1")]
    fn zero_max_batch_rejected() {
        Scheduler::new(
            engine(QueryBackend::Exact),
            SchedulerConfig::default().with_batch(BatchPolicy {
                max_batch: 0,
                max_delay: Duration::from_millis(1),
            }),
        );
    }
}
