//! Figure 10(a) at micro scale: random-walk time of the routine KnightKing
//! configuration, the HuGE-D full-path baseline, and DistGER's InCoM engine —
//! plus the ratios the end-to-end benchmark (`BENCHMARK.json`) cannot
//! express: the walk ladder (steps/s per layer of the walk), the serving
//! layer's top-k throughput (multi-probe LSH vs the exact scan, with LSH
//! recall@10 against the exact ground truth), and the overhead of
//! checkpointing, span tracing, the request scheduler and the shard merge,
//! exported together to `BENCH_walks.json`. Every `*_speedup` report row is
//! enforced by the CI regression gate against `crates/bench/baselines.json`
//! (see `distger_bench::gate`).

use criterion::{criterion_group, criterion_main, Criterion};
use distger_bench::json::{object, Value};
use distger_bench::{bench_dataset, BenchScale, Report};
use distger_cluster::machine_split;
use distger_eval::recall_at_k;
use distger_graph::generate::PaperDataset;
use distger_graph::NodeId;
use distger_graph::{barabasi_albert, CsrGraph};
use distger_partition::{
    balanced::workload_balanced_partition, mpgp_partition, MpgpConfig, Partitioning,
};
use distger_serve::{
    gaussian_clusters, merge_topk, BatchPolicy, EmbeddingIndex, EngineShard, PendingQuery,
    QueryBackend, QueryBatch, QueryEngine, Scheduler, SchedulerConfig, ServeConfig, TopK,
};
use distger_walks::freq::FreqStore;
use distger_walks::info::IncrementalInfo;
use distger_walks::models::{huge_acceptance, propose_next};
use distger_walks::rng::SplitMix64;
use distger_walks::{
    run_distributed_walks, CheckpointPolicy, LengthPolicy, TransitionTables, WalkCountPolicy,
    WalkEngineConfig, WalkModel, WalkResult,
};
use std::hint::black_box;
use std::time::Instant;

fn bench_walks(c: &mut Criterion) {
    let graph = bench_dataset(PaperDataset::Flickr, BenchScale::Smoke, 3);
    let balanced = workload_balanced_partition(&graph, 4);
    let mpgp = mpgp_partition(&graph, 4, MpgpConfig::default());

    let mut group = c.benchmark_group("walk_engines_flickr_standin");
    group.sample_size(10);
    group.bench_function("knightking_routine", |b| {
        b.iter(|| {
            black_box(run_distributed_walks(
                &graph,
                &balanced,
                &WalkEngineConfig::knightking_routine(WalkModel::Huge),
            ))
        })
    });
    group.bench_function("huge_d_full_path", |b| {
        b.iter(|| {
            black_box(run_distributed_walks(
                &graph,
                &balanced,
                &WalkEngineConfig::huge_d(),
            ))
        })
    });
    group.bench_function("distger_incom", |b| {
        b.iter(|| {
            black_box(run_distributed_walks(
                &graph,
                &mpgp,
                &WalkEngineConfig::distger(),
            ))
        })
    });
    group.finish();
}

/// Batched top-k query throughput of the serving layer's two backends on the
/// Gaussian-cluster fixture — exact brute-force scan vs multi-probe LSH with
/// exact re-rank (both fanned out over the same worker pool).
fn bench_query_backends(c: &mut Criterion) {
    let (index, batch) = query_workload();
    let mut group = c.benchmark_group("query_backend_qps");
    group.sample_size(10);
    for (label, backend) in QUERY_BACKENDS {
        let engine = QueryEngine::new(index.clone(), query_config(backend));
        group.bench_function(label, |b| b.iter(|| black_box(engine.top_k(batch))));
    }
    group.finish();
}

const QUERY_BACKENDS: [(&str, QueryBackend); 2] =
    [("exact", QueryBackend::Exact), ("lsh", QueryBackend::Lsh)];

/// Top-10 on 4 worker threads. The LSH signature scheme is tuned for the
/// 20k-node fixture: 14-bit signatures keep same-cluster nodes colliding,
/// 10 Hamming-1 probes recover the marginal ones — measured ~10x exact QPS
/// at recall@10 ≈ 0.97 (the gate floors sit well below both).
fn query_config(backend: QueryBackend) -> ServeConfig {
    ServeConfig {
        backend,
        k: 10,
        threads: 4,
        lsh: distger_serve::LshConfig {
            bits: 14,
            probes: 10,
            ..distger_serve::LshConfig::default()
        },
    }
}

/// The serving bench fixture, shared by the criterion group and the JSON
/// export: 20k nodes in 64 dims across 40 Gaussian clusters (σ = 0.08 noise
/// around unit centers keeps within-cluster angles small enough that a
/// query's true top-10 are cluster mates — the regime LSH recall is
/// meaningful in), queried with 250 node vectors spread across every
/// cluster.
fn query_workload() -> &'static (EmbeddingIndex, QueryBatch) {
    static WORKLOAD: std::sync::OnceLock<(EmbeddingIndex, QueryBatch)> = std::sync::OnceLock::new();
    WORKLOAD.get_or_init(|| {
        let index = EmbeddingIndex::build(&gaussian_clusters(20_000, 64, 40, 0.08, 97));
        let nodes: Vec<u32> = (0..index.num_nodes() as u32).step_by(80).collect();
        let batch = QueryBatch::from_nodes(&index, &nodes);
        (index, batch)
    })
}

/// Routine DeepWalk with short walks (`L = 8`) and many rounds (`r = 12`)
/// over 8 machines: with a workload-balanced partition most steps hop
/// machines, so each round runs ~8 supersteps of ~250 walkers per machine —
/// the many-short-rounds regime DistGER's early termination produces, where
/// per-superstep and per-round costs (barriers, harvests, checkpoints,
/// spans) weigh the most.
fn small_rounds_config() -> WalkEngineConfig {
    let mut config = WalkEngineConfig::knightking_routine(WalkModel::DeepWalk).with_seed(29);
    config.length = LengthPolicy::Fixed(8);
    config.walks_per_node = WalkCountPolicy::Fixed(12);
    config
}

/// The graph and 8-machine partition of the many-small-rounds workload.
fn small_rounds_workload() -> &'static (CsrGraph, Partitioning) {
    static WORKLOAD: std::sync::OnceLock<(CsrGraph, Partitioning)> = std::sync::OnceLock::new();
    WORKLOAD.get_or_init(|| {
        let graph = barabasi_albert(2_000, 8, 19);
        let partitioning = workload_balanced_partition(&graph, 8);
        (graph, partitioning)
    })
}

/// One rung of the walk ladder, on one thread with no engine around it:
/// `rounds` walks from every node, the next node chosen by `step`, every
/// accepted node (the start included) shown to `stop`, which ends the walk by
/// returning `true`. Returns `(steps taken, seconds)`.
fn ladder_rung(
    graph: &CsrGraph,
    rounds: u64,
    mut step: impl FnMut(NodeId, &mut SplitMix64) -> Option<NodeId>,
    mut stop: impl FnMut(u64, NodeId, usize) -> bool,
) -> (u64, f64) {
    let n = graph.num_nodes() as u64;
    let (mut steps, mut checksum) = (0u64, 0u64);
    let clock = Instant::now();
    for walk_id in 0..rounds * n {
        let mut rng = SplitMix64::for_walker(11, walk_id);
        let mut cur = (walk_id % n) as NodeId;
        let mut len = 1;
        while !stop(walk_id, cur, len) {
            let Some(next) = step(cur, &mut rng) else {
                break;
            };
            cur = next;
            len += 1;
            steps += 1;
            checksum += cur as u64;
        }
    }
    let secs = clock.elapsed().as_secs_f64();
    black_box(checksum);
    (steps, secs)
}

/// The parent's HuGE step, kept here as the ladder's *before* row: the
/// acceptance of every candidate recomputed from the graph (a galloping
/// intersection, a weight search and a `tanh`), up to 64 trials per step.
fn huge_step_per_candidate(
    graph: &CsrGraph,
    tables: &TransitionTables,
    cur: NodeId,
    rng: &mut SplitMix64,
) -> Option<NodeId> {
    let mut candidate = tables.sample(graph, cur, rng)?;
    for _ in 0..64 {
        if rng.next_f64() < huge_acceptance(graph, cur, candidate) {
            return Some(candidate);
        }
        candidate = tables.sample(graph, cur, rng)?;
    }
    Some(candidate)
}

/// ROADMAP 2(b)'s ladder: what each layer between two flat arrays and the
/// BSP engine costs per step, on the `orkut_walk_heavy` graph. Rungs 1–4 run
/// on one thread through [`ladder_rung`]; the last is the engine itself.
fn walk_ladder_report(reps: usize) -> Report {
    let graph = PaperDataset::ComOrkut.generate(0.75, 11);
    let mut report = Report::new(
        "walk_ladder",
        "Steps/s per layer of the walk, one thread, com-Orkut stand-in \
         (PaperDataset::ComOrkut.generate(0.75, 11)): flat uniform step, + slot draw through the \
         tables, + HuGE accept (per-candidate formula = the parent's step, vs the acceptance \
         table), + InCoM info, then the BSP engine on 4 machines (4 threads, its table build included)",
        &["steps_per_sec", "total_steps", "best_secs"],
    );
    let mut push = |label: &str, run: &mut dyn FnMut() -> (u64, f64)| {
        let (steps, secs) = (0..reps)
            .map(|_| run())
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("reps >= 1");
        println!(
            "walk_ladder/{label}: {:.0} steps/s ({steps} steps in {secs:.4}s)",
            steps as f64 / secs
        );
        report.push(label, vec![steps as f64 / secs, steps as f64, secs]);
    };
    // Fixed-length rungs walk 18 nodes, the information-driven average on
    // this graph (17.2), so every rung sees the same reuse of a walk's rows.
    let fixed = |_: u64, _: NodeId, len: usize| len >= 18;
    let draw_only = TransitionTables::build(&graph, &WalkModel::DeepWalk, 1);
    let huge = TransitionTables::build(&graph, &WalkModel::Huge, 1);
    let uniform = |cur: NodeId, rng: &mut SplitMix64| {
        let range = graph.arc_range(cur);
        (!range.is_empty())
            .then(|| graph.arc_targets()[range.start + rng.next_bounded(range.len())])
    };
    let huge_step = |cur: NodeId, rng: &mut SplitMix64| {
        propose_next(&WalkModel::Huge, &graph, &huge, None, cur, rng)
    };
    push("1_flat_uniform", &mut || {
        ladder_rung(&graph, 10, uniform, fixed)
    });
    push("2_slot_draw", &mut || {
        ladder_rung(
            &graph,
            10,
            |cur, rng| draw_only.sample(&graph, cur, rng),
            fixed,
        )
    });
    // The before row is ≈ 40× slower per step: two rounds are enough.
    push("3_huge_accept_per_candidate_parent", &mut || {
        ladder_rung(
            &graph,
            2,
            |cur, rng| huge_step_per_candidate(&graph, &draw_only, cur, rng),
            fixed,
        )
    });
    push("3_huge_accept_table", &mut || {
        ladder_rung(&graph, 10, huge_step, fixed)
    });
    push("4_incom_info", &mut || {
        let LengthPolicy::InfoDriven {
            mu,
            min_len,
            max_len,
        } = LengthPolicy::info_driven_default()
        else {
            unreachable!("the information-driven default is information-driven");
        };
        let mut freq = FreqStore::new();
        let mut info = IncrementalInfo::default();
        ladder_rung(&graph, 10, huge_step, |walk_id, node, len| {
            if len == 1 {
                info = IncrementalInfo::default();
            }
            let r_squared = info.accept(freq.accept(walk_id, node) as u64).r_squared;
            let done = len >= max_len || (len >= min_len && r_squared < mu);
            if done {
                freq.release(walk_id);
            }
            done
        })
    });
    let mpgp = mpgp_partition(&graph, 4, MpgpConfig::default());
    push("5_bsp_engine_4_machines", &mut || {
        let config = WalkEngineConfig::distger().with_seed(11);
        let clock = Instant::now();
        let result = black_box(run_distributed_walks(&graph, &mpgp, &config));
        (result.comm.total_steps(), clock.elapsed().as_secs_f64())
    });
    report
}

/// The timed measurements exported for the repo's records
/// (`BENCH_walks.json`).
fn export_reports(_c: &mut Criterion) {
    let reps = 5;

    // Part 1: the walk ladder (informational, no gate floor).
    let ladder_report = walk_ladder_report(3);

    // Part 2: the serving layer — batched top-k query throughput of the
    // exact scan vs multi-probe LSH, plus LSH recall@10 against the exact
    // ground truth. Both rows of the speedup report are gated: the QPS
    // advantage is what the LSH complexity buys, and recall is the quality
    // it must not buy it with.
    let (index, batch) = query_workload();
    let k = query_config(QueryBackend::Exact).k;
    let mut query_report = Report::new(
        "query_throughput",
        "Top-10 query throughput: exact scan vs multi-probe LSH \
         (20k nodes x 64 dims, 40 Gaussian clusters, 250-query batches, 4 threads)",
        &[
            "qps",
            "queries",
            "best_secs",
            "candidate_cpu_secs",
            "rerank_cpu_secs",
            "candidates_scored",
            "recall_at_10",
        ],
    );
    let mut query_speedup_report = Report::new(
        "query_backend_speedup",
        "LSH-over-exact QPS ratio and LSH recall@10 vs the exact ground truth",
        &["value"],
    );
    let mut query_rates = Vec::new();
    let mut backend_results: Vec<Vec<TopK>> = Vec::new();
    for (label, backend) in QUERY_BACKENDS {
        let engine = QueryEngine::new(index.clone(), query_config(backend));
        let mut best: Option<(f64, distger_serve::BatchResults)> = None;
        for _ in 0..reps {
            let started = Instant::now();
            let out = black_box(engine.top_k(batch));
            let secs = started.elapsed().as_secs_f64();
            if best.as_ref().is_none_or(|(b, _)| secs < *b) {
                best = Some((secs, out));
            }
        }
        let (best_secs, out) = best.expect("reps >= 1");
        backend_results.push(out.results);
        let qps = batch.len() as f64 / best_secs;
        println!(
            "query_throughput/{label}: {qps:.0} queries/s \
             ({} queries in {best_secs:.4}s best of {reps}, {} candidates scored)",
            batch.len(),
            out.stats.candidates_scored
        );
        query_report.push(
            label,
            vec![
                qps,
                batch.len() as f64,
                best_secs,
                out.stats.candidate_secs,
                out.stats.rerank_secs,
                out.stats.candidates_scored as f64,
                f64::NAN, // recall column patched below once both backends ran
            ],
        );
        query_rates.push(qps);
    }
    let recall = recall_at_k(&backend_results[0], &backend_results[1]);
    for (row, value) in query_report.rows.iter_mut().zip([1.0, recall]) {
        *row.values.last_mut().expect("recall column") = value;
    }
    if let [exact, lsh] = query_rates[..] {
        println!(
            "query_throughput: lsh/exact speedup = {:.2}x at recall@{k} {recall:.3}",
            lsh / exact
        );
        query_speedup_report.push("lsh_over_exact_qps", vec![lsh / exact]);
        query_speedup_report.push("lsh_recall_at_10", vec![recall]);
    }

    // Part 3: fault-tolerance overhead — the walk engine with an
    // every-round checkpoint policy vs the plain fault-free run, on the
    // many-small-rounds workload (many rounds means many checkpoints: the
    // worst case for the policy). `checkpoint_secs` and
    // `checkpoint_bytes` are the engine's own accounting of the snapshot
    // cost. The gated ratio row follows the `lsh_recall_at_10` idiom: a 1.06
    // floor under the 15% tolerance makes the *effective* floor 0.90 — i.e.
    // every-round checkpointing must cost at most 10% of the fault-free
    // throughput, which is the robustness PR's acceptance contract.
    let (graph, partitioning) = small_rounds_workload();
    let mut checkpoint_report = Report::new(
        "checkpoint_overhead",
        "Walk throughput with round-granular checkpointing (every round) vs fault-free \
         (Barabási–Albert n=2000 m=8, 8 machines, L=8, r=12)",
        &[
            "steps_per_sec",
            "total_steps",
            "best_secs",
            "checkpoint_secs",
            "checkpoint_bytes",
        ],
    );
    let mut checkpoint_speedup_report = Report::new(
        "checkpoint_overhead_speedup",
        "Checkpointed-over-fault-free walk throughput ratio (>= 0.90 effective floor: \
         every-round snapshots may cost at most 10%)",
        &["checkpointed_over_fault_free"],
    );
    let base_config = small_rounds_config();
    let checkpointed_config = base_config.with_checkpoint_policy(CheckpointPolicy::every(1));
    // The two configs run the identical walk and differ by ~1 ms of snapshot
    // encoding on a ~17 ms run, so the ratio is noise-sensitive: reps are
    // interleaved (fault-free, checkpointed, fault-free, ...) at triple the
    // usual count so both sides sample the same machine-load phases and
    // reliably reach their floor times.
    let checkpoint_configs = [
        ("fault_free", &base_config),
        ("checkpointed", &checkpointed_config),
    ];
    let mut checkpoint_best: [Option<(f64, WalkResult)>; 2] = [None, None];
    for _ in 0..3 * reps {
        for (slot, (_, config)) in checkpoint_configs.iter().enumerate() {
            let start = Instant::now();
            let result = black_box(run_distributed_walks(graph, partitioning, config));
            let secs = start.elapsed().as_secs_f64();
            if checkpoint_best[slot]
                .as_ref()
                .is_none_or(|(best, _)| secs < *best)
            {
                checkpoint_best[slot] = Some((secs, result));
            }
        }
    }
    let mut checkpoint_rates = Vec::new();
    for ((label, _), slot) in checkpoint_configs.into_iter().zip(checkpoint_best) {
        let (best_secs, result) = slot.expect("reps >= 1");
        let total_steps = result.comm.total_steps();
        let steps_per_sec = total_steps as f64 / best_secs;
        println!(
            "checkpoint_overhead/{label}: {steps_per_sec:.0} steps/s \
             ({total_steps} steps in {best_secs:.4}s, {:.4}s checkpointing, \
             {} checkpoint bytes)",
            result.checkpoint_secs, result.checkpoint_bytes
        );
        checkpoint_report.push(
            label,
            vec![
                steps_per_sec,
                total_steps as f64,
                best_secs,
                result.checkpoint_secs,
                result.checkpoint_bytes as f64,
            ],
        );
        checkpoint_rates.push(steps_per_sec);
    }
    if let [fault_free, checkpointed] = checkpoint_rates[..] {
        println!(
            "checkpoint_overhead: checkpointed/fault_free = {:.3}x \
             ({:.1}% overhead at an every-round policy)",
            checkpointed / fault_free,
            (1.0 - checkpointed / fault_free) * 100.0
        );
        checkpoint_speedup_report.push(
            "checkpointed_over_fault_free",
            vec![checkpointed / fault_free],
        );
    }

    // Part 4: the serving front door on `serve_saturated`'s shape — one
    // closed-loop caller keeping 128 single-query requests outstanding
    // through the dynamic-batching scheduler (max_batch 64) — against the
    // serial one-query-at-a-time reference (`top_k_one` in a loop, answered
    // on the calling thread, which is what a caller without the scheduler
    // would do). Reps interleave the two sides so machine-load phases cancel
    // in the ratio. Gated at min 1.2 -> effective 1.02 under the 15%
    // tolerance: the scheduler must beat serial queries.
    let (index, _) = query_workload();
    let serve_queries: Vec<u32> = (0..index.num_nodes() as u32).step_by(80).collect();
    const OUTSTANDING: usize = 128;
    let requests: Vec<u32> = (0..4000)
        .map(|i| serve_queries[(i * 7) % serve_queries.len()])
        .collect();
    let scheduler_config = SchedulerConfig::default().with_batch(BatchPolicy {
        max_batch: 64,
        max_delay: std::time::Duration::from_micros(500),
    });
    // Two threads, as `serve_saturated` serves with.
    let scheduler_engine_config = ServeConfig {
        threads: 2,
        ..query_config(QueryBackend::Lsh)
    };
    let serial_engine = QueryEngine::new(index.clone(), scheduler_engine_config);
    let (mut serial_best, mut scheduled_best) = (f64::INFINITY, f64::INFINITY);
    let mut avg_batch = 0.0;
    for _ in 0..reps {
        let started = Instant::now();
        for &node in &requests {
            black_box(serial_engine.top_k_one(index.unit_vector(node)));
        }
        serial_best = serial_best.min(started.elapsed().as_secs_f64());

        // A fresh scheduler per rep so each rep's stats cover exactly one
        // run (the engine build is outside the timed window).
        let engine = QueryEngine::new(index.clone(), scheduler_engine_config);
        let scheduler = Scheduler::new(engine, scheduler_config.clone());
        let client = scheduler.client();
        let mut in_flight = std::collections::VecDeque::with_capacity(OUTSTANDING);
        let started = Instant::now();
        for &node in &requests {
            if in_flight.len() == OUTSTANDING {
                let pending: PendingQuery = in_flight.pop_front().expect("window is full");
                black_box(pending.wait().expect("scheduler alive"));
            }
            in_flight.push_back(
                client
                    .submit(index.unit_vector(node))
                    .expect("max_inflight not reached"),
            );
        }
        for pending in in_flight {
            black_box(pending.wait().expect("scheduler alive"));
        }
        let secs = started.elapsed().as_secs_f64();
        let stats = scheduler.stats();
        assert_eq!(stats.completed, requests.len() as u64);
        assert_eq!(stats.shed, 0, "one caller never exceeds max_inflight");
        if secs < scheduled_best {
            scheduled_best = secs;
            avg_batch = stats.avg_batch();
        }
    }
    // The `QueryStats::qps` contract, enforced here too: a non-positive
    // wall time is a degenerate measurement, not a 0-QPS data point.
    assert!(
        serial_best > 0.0 && scheduled_best > 0.0,
        "degenerate serve bench: zero wall time"
    );
    let serial_qps = requests.len() as f64 / serial_best;
    let scheduled_qps = requests.len() as f64 / scheduled_best;
    println!(
        "serve_scheduler: {scheduled_qps:.0} qps scheduled ({OUTSTANDING} outstanding, \
         avg batch {avg_batch:.1}) vs {serial_qps:.0} qps serial = {:.2}x",
        scheduled_qps / serial_qps
    );
    let mut serve_speedup_report = Report::new(
        "serve_scheduler_speedup",
        "Scheduled over serial QPS: one closed-loop caller with 128 requests \
         outstanding through the scheduler (max_batch 64, max_delay 500us, 2 \
         engine threads) vs top_k_one in a loop, LSH top-10, 4000 requests, best \
         of 5 interleaved reps (>= 1.02 effective floor: the scheduler must beat \
         serial queries)",
        &[
            "scheduled_over_serial",
            "scheduled_qps",
            "serial_qps",
            "avg_batch",
        ],
    );
    serve_speedup_report.push(
        "scheduled_over_serial_qps",
        vec![
            scheduled_qps / serial_qps,
            scheduled_qps,
            serial_qps,
            avg_batch,
        ],
    );

    // Part 5: the observability layer — end-to-end walk throughput with span
    // tracing enabled vs disabled, on the same many-small-rounds workload as
    // Part 3 (many rounds means many `superstep`/`round` spans: the worst
    // case for the per-span cost). Like Part 3, the two sides run
    // the identical walk and differ only by the ring-buffer writes, so reps
    // are interleaved at triple the usual count. The gated ratio follows the
    // checkpoint-overhead idiom — min 0.98, effective 0.833 under the 15%
    // tolerance: enabling tracing on the walk hot path may cost at most a
    // few percent (recorded ~1.00x; the floor absorbs runner noise, and the
    // disabled path's cost is bounded transitively by every other gated
    // throughput floor in this file, all measured with tracing off).
    let obs_config = small_rounds_config();
    let mut obs_best: [Option<(f64, WalkResult)>; 2] = [None, None];
    let mut traced_events = 0usize;
    for _ in 0..3 * reps {
        for (slot, best) in obs_best.iter_mut().enumerate() {
            distger_obs::set_tracing(slot == 1);
            let start = Instant::now();
            let result = black_box(run_distributed_walks(graph, partitioning, &obs_config));
            let secs = start.elapsed().as_secs_f64();
            distger_obs::set_tracing(false);
            // Drain outside the timed window so ring contents never pile up
            // across reps (a full ring drops events, not time).
            let events = distger_obs::drain_all();
            if slot == 1 {
                traced_events = events.len();
                assert!(!events.is_empty(), "enabled runs must record spans");
            } else {
                assert!(events.is_empty(), "disabled runs must record nothing");
            }
            if best.as_ref().is_none_or(|(b, _)| secs < *b) {
                *best = Some((secs, result));
            }
        }
    }
    let mut obs_report = Report::new(
        "obs_overhead",
        "Walk throughput with span tracing disabled vs enabled \
         (Barabási–Albert n=2000 m=8, 8 machines, L=8, r=12; trace_events is \
         the per-run span event count of the enabled side)",
        &["steps_per_sec", "total_steps", "best_secs", "trace_events"],
    );
    let mut obs_speedup_report = Report::new(
        "obs_overhead_speedup",
        "Tracing-enabled over tracing-disabled walk throughput ratio \
         (>= 0.833 effective floor: recording every superstep/round span on \
         the hot path may cost at most a few percent plus runner noise)",
        &["enabled_over_disabled"],
    );
    let mut obs_rates = Vec::new();
    for (label, slot) in [("disabled", &obs_best[0]), ("enabled", &obs_best[1])] {
        let (best_secs, result) = slot.as_ref().expect("reps >= 1");
        let total_steps = result.comm.total_steps();
        let steps_per_sec = total_steps as f64 / best_secs;
        let events = if label == "enabled" { traced_events } else { 0 };
        println!(
            "obs_overhead/{label}: {steps_per_sec:.0} steps/s \
             ({total_steps} steps in {best_secs:.4}s, {events} trace events)"
        );
        obs_report.push(
            label,
            vec![steps_per_sec, total_steps as f64, *best_secs, events as f64],
        );
        obs_rates.push(steps_per_sec);
    }
    if let [disabled, enabled] = obs_rates[..] {
        println!(
            "obs_overhead: enabled/disabled = {:.3}x ({:.1}% tracing overhead)",
            enabled / disabled,
            (1.0 - enabled / disabled) * 100.0
        );
        obs_speedup_report.push("enabled_over_disabled", vec![enabled / disabled]);
    }

    // Part 6: the coordinator's k-way bounded merge of per-shard top-k heaps
    // against a naive concatenate-and-resort of the same heaps (16 shards x
    // k=10 — the merge pops only k of the 160 candidates, the resort pays for
    // all of them), interleaved reps, gated as a genuine speedup.
    let serve_embeddings = gaussian_clusters(20_000, 64, 40, 0.08, 97);
    let merge_config = query_config(QueryBackend::Lsh);
    const MERGE_SHARDS: usize = 16;
    let merge_k = merge_config.k;
    let shard_parts: Vec<Vec<TopK>> = (0..MERGE_SHARDS)
        .map(|endpoint| {
            let range = machine_split(serve_embeddings.num_nodes(), MERGE_SHARDS, endpoint);
            EngineShard::from_rows(&serve_embeddings, range, merge_config)
                .top_k(batch)
                .results
        })
        .collect();
    let merge_queries = batch.len();
    let mut merge_best = f64::INFINITY;
    let mut resort_best = f64::INFINITY;
    for _ in 0..3 * reps {
        let start = Instant::now();
        for q in 0..merge_queries {
            let parts: Vec<&TopK> = shard_parts.iter().map(|s| &s[q]).collect();
            black_box(merge_topk(&parts, merge_k));
        }
        merge_best = merge_best.min(start.elapsed().as_secs_f64());

        let start = Instant::now();
        for q in 0..merge_queries {
            let mut all: Vec<_> = shard_parts
                .iter()
                .flat_map(|s| s[q].neighbors().iter().copied())
                .collect();
            all.sort_unstable_by(|a, b| b.cmp(a));
            all.truncate(merge_k);
            black_box(all);
        }
        resort_best = resort_best.min(start.elapsed().as_secs_f64());
    }
    let mut shard_merge_report = Report::new(
        "shard_merge",
        "Coordinator-side gather merge: bounded k-way heap merge vs naive \
         concatenate-and-resort of the same 16 per-shard top-10 heaps \
         (250 queries per rep, interleaved best-of reps)",
        &["merges_per_sec", "best_secs"],
    );
    shard_merge_report.push(
        "kway_heap",
        vec![merge_queries as f64 / merge_best, merge_best],
    );
    shard_merge_report.push(
        "concat_resort",
        vec![merge_queries as f64 / resort_best, resort_best],
    );
    let mut shard_merge_speedup_report = Report::new(
        "shard_merge_speedup",
        "Bounded k-way merge over concatenate-and-resort throughput ratio \
         on 16 shards x k=10 (the merge inspects s + k*log(s) heads, the \
         resort sorts all s*k candidates)",
        &["merge_over_resort"],
    );
    shard_merge_speedup_report.push("merge_over_resort", vec![resort_best / merge_best]);
    println!(
        "shard_merge: heap {:.0}/s vs resort {:.0}/s -> {:.2}x",
        merge_queries as f64 / merge_best,
        merge_queries as f64 / resort_best,
        resort_best / merge_best,
    );

    let combined = object([
        ("id", Value::from("bench_walks".to_string())),
        (
            "title",
            Value::from(
                "Walk ladder, serving throughput and the overhead ratios the end-to-end \
                 benchmark cannot express"
                    .to_string(),
            ),
        ),
        (
            "reports",
            Value::Array(vec![
                ladder_report.to_json(),
                query_report.to_json(),
                query_speedup_report.to_json(),
                checkpoint_report.to_json(),
                checkpoint_speedup_report.to_json(),
                serve_speedup_report.to_json(),
                obs_report.to_json(),
                obs_speedup_report.to_json(),
                shard_merge_report.to_json(),
                shard_merge_speedup_report.to_json(),
            ]),
        ),
    ]);
    // Benches run with the package directory as cwd; anchor the report at
    // the workspace root.
    let out = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_walks.json");
    std::fs::write(&out, combined.to_string_pretty()).expect("write BENCH_walks.json");
    println!("{}", ladder_report.to_text());
    println!("{}", query_report.to_text());
    println!("{}", query_speedup_report.to_text());
    println!("{}", checkpoint_report.to_text());
    println!("{}", checkpoint_speedup_report.to_text());
    println!("{}", serve_speedup_report.to_text());
    println!("{}", obs_report.to_text());
    println!("{}", obs_speedup_report.to_text());
    println!("{}", shard_merge_report.to_text());
    println!("{}", shard_merge_speedup_report.to_text());
}

criterion_group!(benches, bench_walks, bench_query_backends, export_reports);
criterion_main!(benches);
