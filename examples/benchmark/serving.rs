//! The two serving workloads — one index, one scheduler, an open-loop and a
//! closed-loop load generator — and the engine probe the embedding workloads
//! use for their serve metrics.

use std::collections::VecDeque;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use distger::eval::recall_at_k;
use distger::obs::set_tracing;
use distger::prelude::*;
use distger::serve::{gaussian_clusters, PendingQuery};

use crate::outcome::{median_setup, peak_rss_mib, Outcome, NOT_APPLICABLE};
use crate::stats::{good_quartile, percentile, poisson_arrivals, seeded_nodes};
use crate::trace::Timeline;
use crate::RunArgs;

/// The open loop's latency limit, on the p99 from due time.
const LATENCY_LIMIT_MS: f64 = 10.0;
/// Open-loop arrival rate: ~37 % of the saturated throughput on the 2-core
/// reference box, so batches stay small and the backlog never grows.
const STEADY_RATE_QPS: f64 = 4000.0;
/// Closed-loop window: two full batches in flight keep the dispatcher fed.
const OUTSTANDING: usize = 128;
/// The generator sleeps until this close to a due time, then spins: sleep
/// alone overshoots by the timer slack, and that would count as latency.
const SPIN: Duration = Duration::from_micros(100);
const SETUP_REPEATS: usize = 3;
/// The index is fixed for the reason the embedding datasets are: how full
/// the LSH buckets are decides the cost of a query, and differs by ±10 %
/// between fixture seeds. `--seed` picks the arrival times and query nodes.
const FIXTURE_SEED: u64 = 7;
const RECALL_QUERIES: usize = 200;
/// `recall@10` measured on the fixture (0.123), minus 0.05. It is this low
/// because the fixture's noise (norm 2.8) swamps its unit-norm centres: the
/// exact top 10 are near-arbitrary cluster mates. That keeps candidate sets
/// small (160 a query), which is what makes the scheduler, not the scan, set
/// latency below the knee. On trained embeddings the same engine is held to
/// 0.9 (see `embedding.rs`).
const RECALL_FLOOR: f64 = 0.07;

/// LSH, k = 10, two worker threads (`nproc` on the reference box): the one
/// engine configuration every workload serves with.
pub fn serve_config() -> ServeConfig {
    ServeConfig {
        backend: QueryBackend::Lsh,
        k: 10,
        threads: 2,
        ..ServeConfig::default()
    }
}

fn scheduler_config() -> SchedulerConfig {
    SchedulerConfig::default()
        .with_batch(BatchPolicy {
            max_batch: 64,
            max_delay: Duration::from_micros(500),
        })
        .with_max_inflight(4096)
}

pub struct Probe {
    pub qps: f64,
    pub p50_ms: f64,
    pub p99_ms: f64,
}

/// Serve metrics of a trained index, built to sit still on a shared box,
/// where a neighbour's burst moves any one short timing by 10 %.
/// Throughput: the job's query batch run `PROBE_BATCHES` more times, the good
/// quartile of them (see `good_quartile`). Latency: `top_k_one` timed per
/// query over `singles`, one caller, nothing queued, `PROBE_PASSES` times
/// over; a query's latency is its fastest pass — what it costs undisturbed —
/// and the percentiles are over the queries.
pub fn probe_engine(engine: &QueryEngine, batch: &QueryBatch, singles: &[u32]) -> Probe {
    const PROBE_BATCHES: usize = 11;
    const PROBE_PASSES: usize = 5;
    let qps: Vec<f64> = (0..PROBE_BATCHES)
        .map(|_| {
            let clock = Instant::now();
            black_box(engine.top_k(batch));
            batch.len() as f64 / clock.elapsed().as_secs_f64()
        })
        .collect();
    let mut fastest_ms = vec![f64::MAX; singles.len()];
    for _ in 0..PROBE_PASSES {
        for (fastest, &node) in fastest_ms.iter_mut().zip(singles) {
            let clock = Instant::now();
            black_box(engine.top_k_one(engine.index().unit_vector(node)));
            *fastest = fastest.min(clock.elapsed().as_secs_f64() * 1e3);
        }
    }
    fastest_ms.sort_by(f64::total_cmp);
    Probe {
        qps: good_quartile(&qps, false),
        p50_ms: percentile(&fastest_ms, 0.5),
        p99_ms: percentile(&fastest_ms, 0.99),
    }
}

/// `recall@10` of `engine` against an exact scan of the same embeddings.
pub fn recall_vs_exact(engine: &QueryEngine, embeddings: &Embeddings, nodes: &[u32]) -> f64 {
    let exact = QueryEngine::new(
        EmbeddingIndex::build(embeddings),
        engine.config().with_backend(QueryBackend::Exact),
    );
    let truth = exact.top_k(&QueryBatch::from_nodes(exact.index(), nodes));
    let approx = engine.top_k(&QueryBatch::from_nodes(engine.index(), nodes));
    recall_at_k(&truth.results, &approx.results)
}

struct Fixture {
    embeddings: Embeddings,
    engine: QueryEngine,
    index_build_s: f64,
    engine_build_s: f64,
}

fn build_fixture(nodes: usize, seed: u64) -> Fixture {
    let embeddings = gaussian_clusters(nodes, 128, 64, 0.25, seed);
    let clock = Instant::now();
    let index = EmbeddingIndex::build(&embeddings);
    let index_build_s = clock.elapsed().as_secs_f64();
    let clock = Instant::now();
    let engine = QueryEngine::new(index, serve_config());
    let engine_build_s = clock.elapsed().as_secs_f64();
    Fixture {
        embeddings,
        engine,
        index_build_s,
        engine_build_s,
    }
}

#[derive(Default)]
struct Load {
    /// `(seconds into the window it was due or submitted, latency in ms)` of
    /// every answered request.
    latencies_ms: Vec<(f64, f64)>,
    submitted: u64,
    shed: u64,
    errors: u64,
    /// Answers whose first neighbour was not the query's own node.
    wrong: u64,
    wall_s: f64,
    gen_lag_max_ms: f64,
}

impl Load {
    fn collect(&mut self, start: Instant, since: Instant, node: u32, pending: PendingQuery) {
        match pending.wait() {
            Ok(top) => {
                let at = since.saturating_duration_since(start).as_secs_f64();
                self.latencies_ms
                    .push((at, since.elapsed().as_secs_f64() * 1e3));
                if top.neighbors().first().map(|n| n.node) != Some(node) {
                    self.wrong += 1;
                }
            }
            Err(_) => self.errors += 1,
        }
    }
}

fn wait_until(deadline: Instant) {
    loop {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return;
        }
        if left > SPIN {
            std::thread::sleep(left - SPIN);
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: one generator thread submits each request when it is due
/// whatever the scheduler is doing, one collector (this thread) waits for the
/// answers in order. Latency runs from the due time, so a generator or
/// scheduler stall is charged to every request it delays.
fn open_loop(scheduler: &Scheduler, fixture: &Embeddings, nodes: &[u32], due: &[Duration]) -> Load {
    let client = scheduler.client();
    let (tx, rx) = mpsc::channel();
    let start = Instant::now() + Duration::from_millis(5);
    let mut load = Load {
        submitted: due.len() as u64,
        ..Load::default()
    };
    std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let (mut shed, mut lag_max) = (0u64, Duration::ZERO);
            for (offset, &node) in due.iter().zip(nodes) {
                let due_at = start + *offset;
                wait_until(due_at);
                lag_max = lag_max.max(due_at.elapsed());
                match client.submit(fixture.vector(node)) {
                    Ok(pending) => tx
                        .send((due_at, node, pending))
                        .expect("collector is alive"),
                    Err(_) => shed += 1,
                }
            }
            (shed, lag_max)
        });
        for (due_at, node, pending) in rx {
            load.collect(start, due_at, node, pending);
        }
        let (shed, lag_max) = generator.join().expect("generator thread");
        load.shed = shed;
        load.gen_lag_max_ms = lag_max.as_secs_f64() * 1e3;
    });
    load.wall_s = start.elapsed().as_secs_f64();
    load
}

/// Closed loop: this one caller keeps `OUTSTANDING` requests in flight for
/// `window`, submitting the next only as the oldest is answered.
fn closed_loop(
    scheduler: &Scheduler,
    fixture: &Embeddings,
    nodes: &[u32],
    window: Duration,
) -> Load {
    let client = scheduler.client();
    let mut load = Load::default();
    let mut in_flight: VecDeque<(Instant, u32, PendingQuery)> = VecDeque::new();
    let mut next = nodes.iter().cycle();
    let start = Instant::now();
    while start.elapsed() < window {
        while in_flight.len() < OUTSTANDING {
            let node = *next.next().expect("a cycle never ends");
            load.submitted += 1;
            match client.submit(fixture.vector(node)) {
                Ok(pending) => in_flight.push_back((Instant::now(), node, pending)),
                Err(_) => load.shed += 1,
            }
        }
        let (since, node, pending) = in_flight.pop_front().expect("window is full");
        load.collect(start, since, node, pending);
    }
    for (since, node, pending) in in_flight {
        load.collect(start, since, node, pending);
    }
    load.wall_s = start.elapsed().as_secs_f64();
    load
}

/// `(p50 ms, p99 ms, answers per second)` as the good quartile (see
/// `good_quartile`) over the window's ten slices — a second each at the
/// default length — of each slice's own value: latency by when the request
/// was due, throughput by when it was answered. A neighbour's burst of some
/// tens of milliseconds lands in one or two slices; over the whole window it
/// would decide the run's p99, and it moved the median slice by 30 % between
/// runs on the reference box.
fn slice_quartiles(latencies_ms: &[(f64, f64)], window_s: f64) -> (f64, f64, f64) {
    const SLICES: usize = 10;
    let slice_of = |at_s: f64| (at_s / window_s * SLICES as f64) as usize;
    let mut latencies = vec![Vec::new(); SLICES];
    let mut answered = [0.0f64; SLICES];
    for &(at_s, ms) in latencies_ms {
        latencies[slice_of(at_s).min(SLICES - 1)].push(ms);
        // Answers that arrive while the queue drains after the window
        // belong to no slice.
        if let Some(count) = answered.get_mut(slice_of(at_s + ms / 1e3)) {
            *count += 1.0;
        }
    }
    let (mut p50, mut p99) = (Vec::new(), Vec::new());
    for slice in latencies.iter_mut().filter(|s| !s.is_empty()) {
        slice.sort_by(f64::total_cmp);
        p50.push(percentile(slice, 0.5));
        p99.push(percentile(slice, 0.99));
    }
    if p50.is_empty() {
        return (f64::MAX, f64::MAX, f64::MIN_POSITIVE);
    }
    let per_s = answered.map(|count| count * SLICES as f64 / window_s);
    (
        good_quartile(&p50, true),
        good_quartile(&p99, true),
        good_quartile(&per_s, false),
    )
}

/// Runs `work`; when tracing, spans are on for its duration and a helper
/// thread drains every ring ten times a second so none wraps (the scheduler
/// records an instant per request).
fn traced<T>(trace: bool, work: impl FnOnce() -> T) -> (T, Timeline) {
    if !trace {
        return (work(), Timeline::default());
    }
    let stop = AtomicBool::new(false);
    set_tracing(true);
    let (result, mut timeline) = std::thread::scope(|scope| {
        let drainer = scope.spawn(|| {
            let mut timeline = Timeline::default();
            while !stop.load(Ordering::SeqCst) {
                std::thread::sleep(Duration::from_millis(100));
                timeline.drain();
            }
            timeline
        });
        let result = work();
        stop.store(true, Ordering::SeqCst);
        (result, drainer.join().expect("drainer thread"))
    });
    set_tracing(false);
    timeline.drain();
    (result, timeline)
}

fn fixture_nodes(args: &RunArgs) -> usize {
    if args.smoke {
        5_000
    } else {
        100_000
    }
}

pub fn describe(args: &RunArgs) -> String {
    let load = if args.workload == "serve_steady" {
        format!(
            "open loop, Poisson {STEADY_RATE_QPS} qps, limit {LATENCY_LIMIT_MS} ms from due time"
        )
    } else {
        format!("closed loop, {OUTSTANDING} outstanding")
    };
    format!(
        "gaussian_clusters({}, 128, 64, 0.25, {FIXTURE_SEED}), {:?}, {:?}, {load}, {} s",
        fixture_nodes(args),
        serve_config(),
        scheduler_config().batch,
        args.seconds
    )
}

pub fn run(args: &RunArgs, out: &mut Outcome) {
    let open = args.workload == "serve_steady";
    let nodes = fixture_nodes(args);
    let window = Duration::from_secs_f64(args.seconds);

    let (fixture, setup_s) = median_setup(SETUP_REPEATS, || build_fixture(nodes, FIXTURE_SEED));
    let Fixture {
        embeddings,
        engine,
        index_build_s,
        engine_build_s,
    } = fixture;
    let scheduler = Scheduler::new(engine, scheduler_config());
    let arrivals = poisson_arrivals(STEADY_RATE_QPS, window, args.seed);
    let query_nodes = seeded_nodes(nodes, arrivals.len().max(1 << 16), args.seed ^ 0x51ed);

    let (load, timeline) = traced(args.trace, || {
        let _job = distger::obs::span!("bench.job");
        if open {
            open_loop(&scheduler, &embeddings, &query_nodes, &arrivals)
        } else {
            closed_loop(&scheduler, &embeddings, &query_nodes, window)
        }
    });

    out.check(!load.latencies_ms.is_empty(), || {
        "no request was answered".into()
    });
    let (p50_ms, p99_ms, qps) = slice_quartiles(&load.latencies_ms, args.seconds);
    // The limit is on the p99. Single late requests are counted for the
    // traced report but are not failed operations: on a shared 2-core box a
    // neighbour's burst makes hundreds late in one run and none in the next.
    let late = load
        .latencies_ms
        .iter()
        .filter(|(_, ms)| open && *ms > LATENCY_LIMIT_MS)
        .count();
    out.check(!open || p99_ms <= LATENCY_LIMIT_MS, || {
        format!("p99 {p99_ms:.2} ms is over the {LATENCY_LIMIT_MS} ms limit")
    });
    out.attempted = load.submitted;
    out.failed = load.shed + load.errors + load.wrong;
    out.check(load.wrong == 0, || {
        format!(
            "{} self-queries did not return their own node first",
            load.wrong
        )
    });
    let stats = scheduler.stats();
    out.check(stats.shed == load.shed, || {
        format!(
            "scheduler counted {} shed requests, the callers {}",
            stats.shed, load.shed
        )
    });

    out.set("setup_s", setup_s);
    out.set("job_wall_s", load.wall_s);
    out.set("link_auc", NOT_APPLICABLE);
    out.set("cross_machine_bytes", NOT_APPLICABLE);
    out.set("serve_p50_ms", p50_ms);
    out.set("serve_p99_ms", p99_ms);
    out.set("serve_qps", qps);
    out.set("peak_rss_mb", peak_rss_mib());
    if !args.trace {
        return;
    }

    // One direct batch and the recall check, after the measured window.
    let engine = scheduler.engine();
    let batch_nodes = &query_nodes[..1000.min(query_nodes.len())];
    let direct = engine.top_k(&QueryBatch::from_nodes(engine.index(), batch_nodes));
    let recall = recall_vs_exact(engine, &embeddings, &query_nodes[..RECALL_QUERIES]);
    out.check(args.smoke || recall >= RECALL_FLOOR, || {
        format!("LSH recall@10 {recall:.3} is below the floor {RECALL_FLOOR}")
    });

    let spans = timeline.spans();
    out.set("core.job_wall_s", spans.total_s("bench.job", None));
    out.set("serve.index_build_s", index_build_s);
    out.set("serve.engine_build_s", engine_build_s);
    out.set("serve.batch_qps", direct.stats.qps(batch_nodes.len()));
    out.set("serve.candidate_s", direct.stats.candidate_secs);
    out.set("serve.rerank_s", direct.stats.rerank_secs);
    out.set(
        "serve.candidates_per_query",
        direct.stats.candidates_scored as f64 / batch_nodes.len() as f64,
    );
    out.set("serve.recall_at_10", recall);
    out.set("serve.batches", stats.batches as f64);
    out.set("serve.avg_batch", stats.avg_batch());
    out.set("serve.shed", stats.shed as f64);
    out.set("serve.late", late as f64);
    out.set("serve.gen_lag_max_ms", load.gen_lag_max_ms);
    out.set("serve.dispatch_s", spans.total_s("batch", None));
    timeline.report(&args.workload, out);
}
