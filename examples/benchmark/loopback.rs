//! `ba_loopback4`: the walk → train → sharded-serve job across four
//! endpoints over loopback TCP, checked against single-process twins.

use std::time::Instant;

use distger::obs::{set_tracing, span};
use distger::prelude::*;

use crate::embedding::{all_finite, latency_queries, ALGORITHM_SEED, SPLIT_SEED};
use crate::outcome::{median_setup, peak_rss_mib, Outcome};
use crate::stats::strided_nodes;
use crate::trace::Timeline;
use crate::RunArgs;

const WORKERS: usize = 3;
const SETUP_REPEATS: usize = 5;
/// Reconstruction AUC measured at these seeds, minus 0.05.
const AUC_FLOOR: f64 = 0.60;

/// Fixed for the reason `embedding::GRAPH_SEED` is: the round count is
/// data-driven (7 or 8 on this graph as the generator seed varies).
/// `serve_queries` stays ≤ 1024: beyond the scheduler's `max_inflight` the
/// coordinator fails with `Overloaded`.
fn spec(args: &RunArgs) -> JobSpec {
    let (graph_nodes, serve_queries) = if args.smoke {
        (800, 200)
    } else {
        (16_000, 1000)
    };
    JobSpec {
        graph_nodes,
        graph_attachment: 6,
        graph_seed: 42,
        machines: 4,
        seed: ALGORITHM_SEED,
        epochs: 1,
        dim: 32,
        trace: args.trace,
        serve_queries,
        serve_k: 10,
    }
}

pub fn describe(args: &RunArgs) -> String {
    format!("launch_over_loopback(&{:?}, {WORKERS})", spec(args))
}

pub fn run(args: &RunArgs, out: &mut Outcome) {
    let spec = spec(args);
    // The job rebuilds its graph inside every endpoint; set-up here is what
    // the checks need beforehand: the same graph and the pairs to score.
    let ((graph, pairs), setup_s) = median_setup(SETUP_REPEATS, || {
        let graph = spec.build_graph();
        let pairs = split_edges(&graph, 0.2, SPLIT_SEED);
        (graph, pairs)
    });

    set_tracing(args.trace);
    let clock = Instant::now();
    let job_span = span!("bench.job");
    let mut report = launch_over_loopback(&spec, WORKERS);
    drop(job_span);
    let job_wall_s = clock.elapsed().as_secs_f64();
    set_tracing(false);
    let mut timeline = Timeline::default();
    // The coordinator drained every ring when it finished, this thread's
    // `bench.job` Begin included; the End is still in the ring.
    timeline.extend(std::mem::take(&mut report.trace));
    timeline.drain();

    let nodes = graph.num_nodes();
    let tokens = report.walk.corpus.total_tokens();
    out.check(tokens > 0, || "the walk corpus is empty".into());
    out.check(
        report.embeddings.num_nodes() == nodes && all_finite(&report.embeddings),
        || "embeddings are not one finite row per node".into(),
    );
    // The job trains on the whole graph, so the positives are edges it saw:
    // this is how well the embeddings reconstruct the graph.
    let link_auc = evaluate_link_prediction(&report.embeddings, &pairs);
    out.check(args.smoke || link_auc >= AUC_FLOOR, || {
        format!("link_auc {link_auc:.4} is below the floor {AUC_FLOOR}")
    });

    // Sharded answers must be bit-identical to one process over the same rows.
    let oracle = QueryEngine::new(
        EmbeddingIndex::build(&report.embeddings),
        spec.build_serve_config(),
    );
    let serve = report.serve.as_ref().expect("serve_queries > 0");
    out.check(serve.results.len() == spec.serve_queries as usize, || {
        format!(
            "{} of {} queries answered",
            serve.results.len(),
            spec.serve_queries
        )
    });
    let diverged = serve
        .query_nodes
        .iter()
        .zip(&serve.results)
        .filter(|(&node, sharded)| {
            let expected = oracle.top_k_one(report.embeddings.vector(node));
            let bits = |top: &TopK| -> Vec<(u32, u32)> {
                top.neighbors()
                    .iter()
                    .map(|n| (n.node, n.score.to_bits()))
                    .collect()
            };
            bits(sharded) != bits(&expected)
        })
        .count();
    out.check(diverged == 0, || {
        format!("{diverged} sharded answers differ from the single-process engine")
    });
    out.attempted = 1;
    out.failed = u64::from(!out.correct());

    let batch = QueryBatch::from_nodes(oracle.index(), &serve.query_nodes);
    let latency_nodes = strided_nodes(nodes, latency_queries(args), args.seed);
    let probe = crate::serving::probe_engine(&oracle, &batch, &latency_nodes);
    out.set("setup_s", setup_s);
    out.set("job_wall_s", job_wall_s);
    out.set("link_auc", link_auc);
    out.set(
        "cross_machine_bytes",
        (report.walk.comm.bytes + report.train_stats.sync_comm.bytes) as f64,
    );
    out.set("serve_p50_ms", probe.p50_ms);
    out.set("serve_p99_ms", probe.p99_ms);
    out.set("serve_qps", probe.qps);
    out.set("peak_rss_mb", peak_rss_mib());
    if !args.trace {
        return;
    }

    // The in-process twin: same spec, in-memory transport, no serve phase.
    let twin_config = spec.build_config().with_transport(TransportKind::InMemory);
    let clock = Instant::now();
    let twin = run_pipeline(&graph, &twin_config);
    let twin_wall_s = clock.elapsed().as_secs_f64();
    out.check(
        twin.corpus_tokens == tokens && twin.walk_comm == report.walk.comm,
        || "the in-process twin sampled a different corpus or message trace".into(),
    );

    // Walls of the coordinator endpoint (pid 0 hosts machine 0): the only
    // timers the launcher exposes are the spans the crates emit.
    let spans = timeline.spans();
    let busiest = |name: &str| spans.busiest_s(name, None);
    let walks_s = busiest("round");
    let embed_s = busiest("train_chunk") + busiest("replica_sync");
    let serve_s = serve.scheduler.elapsed.as_secs_f64();
    let job_s = spans
        .first("bench.job")
        .expect("the job span closed")
        .secs();
    out.set("core.job_wall_s", job_s);
    // What the endpoints spend outside those spans: four graph builds and
    // partitionings on two cores, the handshake, corpus and shard shipping.
    out.set(
        "core.residual_frac",
        (job_s - walks_s - embed_s - serve_s) / job_s,
    );
    out.set("cluster.loopback_over_inproc", twin_wall_s / job_wall_s);

    out.set("graph.nodes", nodes as f64);
    out.set("graph.arcs", graph.num_arcs() as f64);
    let walk = &report.walk;
    out.set("walks.wall_s", walks_s);
    out.set("walks.tokens", tokens as f64);
    out.set("walks.steps_per_s", tokens as f64 / walks_s);
    out.set("walks.rounds", walk.rounds as f64);
    out.set("walks.supersteps", walk.comm.supersteps as f64);
    out.set("walks.avg_len", walk.avg_walk_length());
    out.set("walks.msgs", walk.comm.messages as f64);
    out.set("walks.bytes", walk.comm.bytes as f64);
    out.set("walks.local_step_frac", walk.comm.locality());
    out.set("walks.alias_build_s", walk.alias_build_secs);
    out.set("walks.walker_peak_bytes", walk.walker_peak_bytes as f64);
    out.set("walks.corpus_bytes", walk.corpus.memory_bytes() as f64);
    out.set("walks.exchange_s", busiest("exchange"));

    let train = &report.train_stats;
    out.set("embed.wall_s", embed_s);
    out.set("embed.train_s", train.training_secs);
    out.set("embed.pairs", train.pairs_processed as f64);
    out.set("embed.pairs_per_s", train.throughput_pairs_per_sec);
    out.set("embed.sync_msgs", train.sync_comm.messages as f64);
    out.set("embed.sync_bytes", train.sync_comm.bytes as f64);
    out.set("embed.machine_bytes", train.avg_machine_memory_bytes as f64);
    out.set("embed.chunk_busy_s", busiest("train_chunk"));
    out.set("embed.replica_sync_s", busiest("replica_sync"));

    let wire = &report.wire;
    out.set(
        "cluster.wire_frames",
        (wire.frames_sent + wire.frames_received) as f64,
    );
    out.set(
        "cluster.wire_bytes",
        (wire.bytes_sent + wire.bytes_received) as f64,
    );
    out.set("cluster.wire_s", wire.wire_secs());
    out.set(
        "cluster.wire_over_accounted",
        walk.comm.wire.batch_bytes_sent as f64 / walk.comm.bytes as f64,
    );

    let shards = &serve.shard_stats;
    let queries = f64::from(spec.serve_queries);
    out.set("serve.sharded_qps", queries / serve_s);
    out.set("serve.batches", serve.scheduler.batches as f64);
    out.set("serve.avg_batch", serve.scheduler.avg_batch());
    out.set("serve.shed", serve.scheduler.shed as f64);
    out.set("serve.dispatch_s", spans.total_s("batch", None));
    out.set(
        "serve.shard_scan_s",
        shards.iter().map(|s| s.scan_secs).fold(0.0, f64::max),
    );
    out.set(
        "serve.shard_reply_bytes",
        shards.iter().map(|s| s.reply_bytes).sum::<u64>() as f64,
    );
    out.set(
        "serve.candidate_s",
        shards.iter().map(|s| s.candidate_secs).sum(),
    );
    out.set("serve.rerank_s", shards.iter().map(|s| s.rerank_secs).sum());
    out.set(
        "serve.candidates_per_query",
        shards.iter().map(|s| s.candidates_scored).sum::<u64>() as f64 / queries,
    );
    out.set("serve.scatter_s", spans.total_s("scatter", None));
    out.set("serve.merge_s", spans.total_s("merge", None));

    timeline.report(&args.workload, out);
}
