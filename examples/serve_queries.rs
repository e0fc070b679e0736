//! Serving quickstart: train embeddings, export them through the binary
//! store, answer batched top-k similarity queries on both query backends,
//! then serve concurrent callers through the dynamic-batching request
//! scheduler (the front door a deployment would expose).
//!
//! Run with: `cargo run --release --example serve_queries`

use distger::prelude::*;

fn main() {
    // 1. Train: the full DistGER pipeline on 4 machines hosted in this process.
    let graph = powerlaw_cluster(2_000, 6, 0.6, 42);
    let mut config = DistGerConfig::distger(4).with_seed(7);
    config.training.dim = 64;
    config.training.epochs = 2;
    let result = run_pipeline(&graph, &config);
    println!(
        "trained {} nodes x {} dims in {:.2}s",
        result.embeddings.num_nodes(),
        result.embeddings.dim(),
        result.end_to_end_secs()
    );

    // 2. Export through the versioned binary store (the hot path between a
    //    training run and a serving process: bit-exact, checksummed, no
    //    float formatting).
    let path = std::env::temp_dir().join("distger_serve_queries.dgeb");
    result.embeddings.save_binary(&path).expect("export");
    let loaded = Embeddings::load_binary(&path).expect("import");
    assert_eq!(loaded, result.embeddings, "binary store must round-trip");
    let store_bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("binary store: {store_bytes} bytes at {}", path.display());

    // 3. Serve: build the read-optimized index once, then answer a batch of
    //    "more like this node" queries on both backends.
    let index = EmbeddingIndex::build(&loaded);
    let query_nodes: Vec<NodeId> = (0..graph.num_nodes() as NodeId).step_by(16).collect();
    let batch = QueryBatch::from_nodes(&index, &query_nodes);
    println!(
        "querying top-10 for {} nodes on {} worker threads",
        batch.len(),
        ServeConfig::default().threads
    );

    let mut results = Vec::new();
    for backend in [QueryBackend::Exact, QueryBackend::Lsh] {
        let engine = QueryEngine::new(
            index.clone(),
            ServeConfig {
                backend,
                k: 10,
                ..ServeConfig::default()
            },
        );
        let out = engine.top_k(&batch);
        println!(
            "{:>5}: {:7.0} queries/s  (candidate {:.4}s + rerank {:.4}s cpu, \
             {:.4}s wall, {} candidates scored, engine {} KiB)",
            backend.name(),
            out.stats.qps(batch.len()),
            out.stats.candidate_secs,
            out.stats.rerank_secs,
            out.stats.wall_secs,
            out.stats.candidates_scored,
            engine.memory_bytes() / 1024,
        );
        results.push(out.results);
    }

    // 4. Quality: LSH recall against the exact ground truth.
    let recall = recall_at_k(&results[0], &results[1]);
    println!("lsh recall@10 vs exact: {recall:.3}");

    // A peek at one answer: the most similar nodes to node 0.
    print!("node 0 top-5 (exact):");
    for n in results[0][0].neighbors().iter().take(5) {
        print!("  {} ({:.3})", n.node, n.score);
    }
    println!();

    // 5. The front door: independent callers submit *single* queries
    //    through the dynamic-batching scheduler — no caller assembles a
    //    QueryBatch; the dispatcher does, under a size-or-deadline policy —
    //    here wired straight off the pipeline result via
    //    `PipelineResult::request_scheduler`.
    let scheduler = result.request_scheduler(
        ServeConfig {
            k: 10,
            ..ServeConfig::default()
        },
        SchedulerConfig::default().with_batch(BatchPolicy {
            max_batch: 64,
            max_delay: std::time::Duration::from_micros(300),
        }),
    );
    let callers = 4;
    let queries_per_caller = 100;
    std::thread::scope(|scope| {
        for caller in 0..callers {
            let client = scheduler.client();
            let engine = scheduler.engine();
            scope.spawn(move || {
                for i in 0..queries_per_caller {
                    let node = ((caller * 31 + i * 7) % engine.index().num_nodes()) as NodeId;
                    let answer = client
                        .submit(engine.index().unit_vector(node))
                        .expect("under the admission bound")
                        .wait()
                        .expect("scheduler alive");
                    assert_eq!(answer.neighbors()[0].node, node, "self-query ranks itself");
                }
            });
        }
    });
    let stats = scheduler.stats();
    println!(
        "scheduler: {:.0} queries/s across {callers} callers \
         (p99 {:.2}ms, avg batch {:.1} over {} batches, {} shed)",
        stats.qps(),
        stats.latency_quantile(0.99).as_secs_f64() * 1e3,
        stats.avg_batch(),
        stats.batches,
        stats.shed,
    );
    std::fs::remove_file(&path).ok();
}
