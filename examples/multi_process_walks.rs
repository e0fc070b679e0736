//! Multi-process walk→train→serve run over loopback TCP.
//!
//! The example re-executes itself as four worker *processes* (`--worker
//! <addr>`), each connecting a [`SocketTransport`] back to the coordinator.
//! Every superstep's message batches, every training synchronization, and
//! every serve-phase query scatter cross real OS sockets; the coordinator
//! reports the traffic it *measured* on the wire next to the bytes the walk
//! accounted in its [`CommStats`], and checks the sharded serving answers
//! bit-for-bit against a single-process engine over the same embeddings.
//!
//! Run with: `cargo run --release --example multi_process_walks`
//!
//! Pass `-- --trace-out trace.json` to enable span tracing on all four
//! processes and write their merged, clock-aligned timeline as Chrome
//! trace-event JSON (load it at <https://ui.perfetto.dev>).

use std::net::TcpListener;
use std::process::Command;
use std::time::Duration;

use distger::prelude::*;

const WORKERS: usize = 3; // + the coordinator = 4 processes

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.len() >= 3 && args[1] == "--worker" {
        let addr = args[2].parse().expect("worker address");
        run_worker(addr, Duration::from_secs(30)).expect("worker run");
        return;
    }

    let trace_out = args
        .iter()
        .position(|a| a == "--trace-out")
        .map(|i| args.get(i + 1).expect("--trace-out needs a path").clone());

    let spec = JobSpec {
        graph_nodes: 2_000,
        machines: 4,
        seed: 7,
        trace: trace_out.is_some(),
        ..JobSpec::default()
    };

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback listener");
    let addr = listener.local_addr().expect("listener address");
    let exe = std::env::current_exe().expect("own executable path");
    let children: Vec<_> = (0..WORKERS)
        .map(|_| {
            Command::new(&exe)
                .arg("--worker")
                .arg(addr.to_string())
                .spawn()
                .expect("spawn worker process")
        })
        .collect();

    let report = run_coordinator(&listener, WORKERS, &spec).expect("coordinator run");
    for mut child in children {
        let status = child.wait().expect("join worker process");
        assert!(status.success(), "worker process failed: {status}");
    }

    println!(
        "== {} walk machines across {} processes over {} ==",
        spec.machines,
        WORKERS + 1,
        addr
    );
    println!(
        "corpus: {} tokens in {} rounds; trained {} pairs -> {} x {} embeddings",
        report.walk.corpus.total_tokens(),
        report.walk.rounds,
        report.train_stats.pairs_processed,
        report.embeddings.num_nodes(),
        report.embeddings.dim(),
    );

    // The walk's accounted message bytes vs the batch payload bytes this
    // endpoint measured on the wire, then the whole run's wire traffic
    // (frame headers and control frames included).
    println!(
        "walk batches: {} accounted bytes, {} measured on the wire",
        report.walk.comm.bytes, report.walk.comm.wire.batch_bytes_sent,
    );
    println!(
        "whole run: {} frames, {} bytes, {:.3} ms measured on the wire",
        report.wire.frames_sent,
        report.wire.bytes_sent,
        report.wire.wire_secs() * 1e3,
    );
    assert!(report.wire.batch_bytes_sent > 0, "wire must be measured");

    // Serve phase: the trained embeddings stayed sharded across the four
    // processes, yet the scatter-gather answers must be bit-identical to one
    // engine holding the whole index.
    let serve = report.serve.as_ref().expect("serve phase ran");
    assert_eq!(serve.results.len(), spec.serve_queries as usize);
    assert_eq!(
        serve.shard_stats.len(),
        WORKERS + 1,
        "one shard per process"
    );
    let oracle = QueryEngine::new(
        EmbeddingIndex::build(&report.embeddings),
        spec.build_serve_config(),
    );
    for (&node, sharded) in serve.query_nodes.iter().zip(&serve.results) {
        let expected = oracle.top_k_one(report.embeddings.vector(node));
        assert_eq!(
            sharded.neighbors(),
            expected.neighbors(),
            "sharded answer for node {node} diverged from the single-process engine"
        );
    }
    println!(
        "serve: {} top-{} queries over {} shards, {} candidates scored, answers bit-identical",
        serve.results.len(),
        serve.k,
        serve.shard_stats.len(),
        serve
            .shard_stats
            .iter()
            .map(|s| s.candidates_scored)
            .sum::<u64>(),
    );

    if let Some(path) = trace_out {
        // The merged timeline must carry spans from every process of the
        // job: each endpoint stamps its events with its endpoint id as pid.
        let mut pids: Vec<u32> = report.trace.iter().map(|e| e.pid).collect();
        pids.sort_unstable();
        pids.dedup();
        assert!(
            pids.len() > WORKERS,
            "merged trace covers {} process(es), expected {}",
            pids.len(),
            WORKERS + 1
        );
        std::fs::write(&path, chrome_trace_json(&report.trace)).expect("write trace file");
        println!(
            "trace: {} events from {} processes -> {path} (load at ui.perfetto.dev)",
            report.trace.len(),
            pids.len(),
        );
    }
}
