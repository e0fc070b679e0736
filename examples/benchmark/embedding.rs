//! The in-process embedding job — partition → walk → train → index → one
//! query batch on four simulated machines — behind `lj_train_heavy` and
//! `orkut_walk_heavy`, which differ only in dataset and dimension.

use std::time::Instant;

use distger::obs::{set_tracing, span};
use distger::prelude::*;
use distger::walks::Corpus;

use crate::flat_walk::FlatGraph;
use crate::outcome::{median_setup, peak_rss_mib, Outcome};
use crate::serving::{probe_engine, recall_vs_exact, serve_config};
use crate::stats::strided_nodes;
use crate::trace::Timeline;
use crate::RunArgs;

/// With 2 machines `mpgp_partition` puts nearly every node on one of them
/// (balance 1.99), which would measure no distribution at all.
const MACHINES: usize = 4;
/// The dataset is fixed, like the paper's: generator, edge-split and
/// algorithm seeds are workload constants, and `--seed` picks only which
/// nodes are queried. InCoM decides the number of walk rounds from the data (9 to 12 on
/// the same graph as these seeds vary), so a seeded dataset would turn every
/// count and wall time into a 30 % lottery between runs.
const GRAPH_SEED: u64 = 11;
pub const SPLIT_SEED: u64 = 7;
pub const ALGORITHM_SEED: u64 = 7;
const SETUP_REPEATS: usize = 5;

/// Nodes the latency probe queries (20 beyond the p99 at full size).
pub fn latency_queries(args: &RunArgs) -> usize {
    if args.smoke {
        300
    } else {
        2000
    }
}

struct Params {
    dataset: PaperDataset,
    scale: f64,
    dim: usize,
    /// `link_auc` measured at these seeds, minus 0.05.
    auc_floor: f64,
    queries: usize,
}

fn params(args: &RunArgs) -> Params {
    let lj = args.workload == "lj_train_heavy";
    let (dataset, scale, dim, auc_floor) = if lj {
        (PaperDataset::LiveJournal, 1.0, 64, 0.80)
    } else {
        (PaperDataset::ComOrkut, 0.75, 32, 0.58)
    };
    if args.smoke {
        // A twentieth of the nodes; too small a graph for the AUC floor.
        Params {
            dataset,
            scale: scale / 20.0,
            dim,
            auc_floor: 0.0,
            queries: 200,
        }
    } else {
        Params {
            dataset,
            scale,
            dim,
            auc_floor,
            queries: 1000,
        }
    }
}

pub fn describe(args: &RunArgs) -> String {
    let p = params(args);
    format!(
        "{}.generate({}, {GRAPH_SEED}), split 0.2 seed {SPLIT_SEED}, DistGerConfig::distger({MACHINES}).with_seed({ALGORITHM_SEED}), dim {}, 1 epoch, 1 trainer thread, {} queries",
        p.dataset.short_name(),
        p.scale,
        p.dim,
        p.queries
    )
}

fn config(dim: usize) -> DistGerConfig {
    let mut config = DistGerConfig::distger(MACHINES).with_seed(ALGORITHM_SEED);
    config.training.dim = dim;
    config.training.epochs = 1;
    config.training.threads = 1;
    config
}

pub fn all_finite(embeddings: &Embeddings) -> bool {
    (0..embeddings.num_nodes() as u32).all(|u| embeddings.vector(u).iter().all(|x| x.is_finite()))
}

pub fn run(args: &RunArgs, out: &mut Outcome) {
    let params = params(args);
    let ((graph, split, generate_s, split_s), setup_s) = median_setup(SETUP_REPEATS, || {
        let clock = Instant::now();
        let graph = params.dataset.generate(params.scale, GRAPH_SEED);
        let generate_s = clock.elapsed().as_secs_f64();
        let clock = Instant::now();
        let split = split_edges(&graph, 0.2, SPLIT_SEED);
        (graph, split, generate_s, clock.elapsed().as_secs_f64())
    });
    let train = &split.train_graph;
    let config = config(params.dim);
    let query_nodes = strided_nodes(train.num_nodes(), params.queries, args.seed);

    set_tracing(args.trace);
    let clock = Instant::now();
    let job_span = span!("bench.job");
    let partitioning = {
        let _span = span!("bench.partition");
        config.partitioner.partition(train, MACHINES, config.seed)
    };
    let walks = {
        let _span = span!("bench.walks");
        run_distributed_walks(train, &partitioning, &config.walks)
    };
    let (embeddings, train_stats) = {
        let _span = span!("bench.embed");
        train_distributed(&walks.corpus, MACHINES, &config.training)
    };
    let index = {
        let _span = span!("bench.index");
        EmbeddingIndex::build(&embeddings)
    };
    let engine = {
        let _span = span!("bench.engine");
        QueryEngine::new(index, serve_config())
    };
    let (batch, answers) = {
        let _span = span!("bench.query");
        let batch = QueryBatch::from_nodes(engine.index(), &query_nodes);
        let answers = engine.top_k(&batch);
        (batch, answers)
    };
    drop(job_span);
    let job_wall_s = clock.elapsed().as_secs_f64();
    set_tracing(false);
    let mut timeline = Timeline::default();
    timeline.drain();

    // Correctness, outside the timed region.
    let nodes = train.num_nodes();
    out.check(
        partitioning.num_nodes() == nodes
            && partitioning.num_machines() == MACHINES
            && partitioning.node_counts().iter().all(|&count| count > 0),
        || format!("partition does not cover {nodes} nodes on {MACHINES} machines"),
    );
    let tokens = walks.corpus.total_tokens();
    out.check(tokens > 0, || "the walk corpus is empty".into());
    out.check(
        embeddings.num_nodes() == nodes && all_finite(&embeddings),
        || "embeddings are not one finite row per node".into(),
    );
    let link_auc = evaluate_link_prediction(&embeddings, &split);
    out.check(link_auc >= params.auc_floor, || {
        format!(
            "link_auc {link_auc:.4} is below the floor {}",
            params.auc_floor
        )
    });
    let self_first = answers
        .results
        .iter()
        .zip(&query_nodes)
        .filter(|(top, &node)| top.neighbors().first().map(|n| n.node) == Some(node))
        .count();
    out.check(self_first == query_nodes.len(), || {
        format!(
            "{} of {} self-queries did not return their own node first",
            query_nodes.len() - self_first,
            query_nodes.len()
        )
    });
    out.attempted = 1;
    out.failed = u64::from(!out.correct());

    let latency_nodes = strided_nodes(nodes, latency_queries(args), args.seed);
    let probe = probe_engine(&engine, &batch, &latency_nodes);
    out.set("setup_s", setup_s);
    out.set("job_wall_s", job_wall_s);
    out.set("link_auc", link_auc);
    out.set(
        "cross_machine_bytes",
        (walks.comm.bytes + train_stats.sync_comm.bytes) as f64,
    );
    out.set("serve_p50_ms", probe.p50_ms);
    out.set("serve_p99_ms", probe.p99_ms);
    out.set("serve_qps", probe.qps);
    out.set("peak_rss_mb", peak_rss_mib());
    if !args.trace {
        return;
    }

    // Walls come from the benchmark's own spans; the spans the crates emit
    // are summed by name inside the layer call they belong to.
    let spans = timeline.spans();
    let wall = |name: &str| spans.first(name).map_or(0.0, |s| s.secs());
    let job = spans.first("bench.job").expect("the job span closed");
    let residual = job.self_secs() / job.secs();
    out.set("core.job_wall_s", job.secs());
    out.set("core.residual_frac", residual);
    out.check(residual <= 0.03, || {
        format!(
            "the layers leave {:.1} % of the job unaccounted",
            100.0 * residual
        )
    });

    out.set("graph.nodes", graph.num_nodes() as f64);
    out.set("graph.arcs", graph.num_arcs() as f64);
    out.set("graph.generate_s", generate_s);
    out.set("graph.split_s", split_s);

    out.set("partition.mpgp_s", wall("bench.partition"));
    out.set(
        "partition.local_edge_frac",
        partitioning.local_edge_fraction(train),
    );
    out.set("partition.balance", partitioning.balance_factor());
    out.set(
        "partition.arc_balance",
        partitioning.arc_balance_factor(train),
    );
    partitioner_table(args, out);

    let walks_span = spans.first("bench.walks");
    let walks_s = wall("bench.walks");
    let steps_per_s = tokens as f64 / walks_s;
    out.set("walks.wall_s", walks_s);
    out.set("walks.tokens", tokens as f64);
    out.set("walks.steps_per_s", steps_per_s);
    out.set("walks.rounds", walks.rounds as f64);
    out.set("walks.supersteps", walks.comm.supersteps as f64);
    out.set("walks.avg_len", walks.avg_walk_length());
    out.set("walks.msgs", walks.comm.messages as f64);
    out.set("walks.bytes", walks.comm.bytes as f64);
    out.set("walks.local_step_frac", walks.comm.locality());
    out.set("walks.barrier_wait_s", walks.superstep_sync_secs);
    out.set("walks.alias_build_s", walks.alias_build_secs);
    out.set("walks.walker_peak_bytes", walks.walker_peak_bytes as f64);
    out.set("walks.corpus_bytes", walks.corpus.memory_bytes() as f64);
    out.set(
        "walks.superstep_busy_s",
        spans.busiest_s("superstep", walks_span),
    );
    out.set("walks.exchange_s", spans.total_s("exchange", walks_span));
    out.set("walks.control_s", spans.total_s("control", walks_span));
    let flat = FlatGraph::from_csr(train).uniform_steps_per_s(
        tokens as u64,
        walks.avg_walk_length().round() as usize,
        ALGORITHM_SEED,
    );
    out.set("walks.flat_uniform_steps_per_s", flat);
    out.set("walks.engine_over_flat", steps_per_s / flat);

    let embed_span = spans.first("bench.embed");
    let embed_s = wall("bench.embed");
    out.set("embed.wall_s", embed_s);
    out.set("embed.train_s", train_stats.training_secs);
    out.set("embed.prep_s", embed_s - train_stats.training_secs);
    out.set("embed.pairs", train_stats.pairs_processed as f64);
    out.set("embed.pairs_per_s", train_stats.throughput_pairs_per_sec);
    out.set("embed.barrier_wait_s", train_stats.superstep_sync_secs);
    out.set("embed.sync_msgs", train_stats.sync_comm.messages as f64);
    out.set("embed.sync_bytes", train_stats.sync_comm.bytes as f64);
    out.set(
        "embed.machine_bytes",
        train_stats.avg_machine_memory_bytes as f64,
    );
    out.set(
        "embed.chunk_busy_s",
        spans.busiest_s("train_chunk", embed_span),
    );
    out.set(
        "embed.replica_sync_s",
        spans.total_s("replica_sync", embed_span),
    );
    out.set(
        "embed.single_sgns_pairs_per_s",
        single_worker_sgns(&walks.corpus, &config.training),
    );

    let queries = query_nodes.len();
    out.set("serve.index_build_s", wall("bench.index"));
    out.set("serve.engine_build_s", wall("bench.engine"));
    out.set("serve.batch_qps", queries as f64 / wall("bench.query"));
    out.set("serve.candidate_s", answers.stats.candidate_secs);
    out.set("serve.rerank_s", answers.stats.rerank_secs);
    out.set(
        "serve.candidates_per_query",
        answers.stats.candidates_scored as f64 / queries as f64,
    );
    let recall = recall_vs_exact(&engine, &embeddings, &query_nodes[..200.min(queries)]);
    out.check(recall >= 0.9, || {
        format!("LSH recall@10 {recall:.3} is below 0.9")
    });
    out.set("serve.recall_at_10", recall);

    timeline.report(&args.workload, out);
}

/// The single-worker baseline: plain Hogwild SGNS, one machine, one thread,
/// on the first eighth of the corpus.
fn single_worker_sgns(corpus: &Corpus, training: &TrainerConfig) -> f64 {
    let walks = corpus.walks();
    let eighth = Corpus::from_walks(walks[..walks.len() / 8].to_vec(), corpus.num_nodes());
    let config = TrainerConfig {
        kind: TrainerKind::Hogwild,
        ..*training
    };
    train_distributed(&eighth, 1, &config)
        .1
        .throughput_pairs_per_sec
}

/// ROADMAP's unmeasured row: every partitioner on the Twitter stand-in
/// (40 k nodes / 1.36 M arcs), time and the share of edges it keeps local.
fn partitioner_table(args: &RunArgs, out: &mut Outcome) {
    let scale = if args.smoke { 0.05 } else { 1.0 };
    let twitter = PaperDataset::Twitter.generate(scale, GRAPH_SEED);
    let table: [(PartitionerChoice, &'static str, &'static str); 5] = [
        (
            PartitionerChoice::Mpgp(MpgpConfig::default()),
            "partition.tw.mpgp_s",
            "partition.tw.mpgp_local_edge_frac",
        ),
        (
            PartitionerChoice::MpgpParallel {
                segments: 4,
                config: MpgpConfig::parallel_default(),
            },
            "partition.tw.mpgp_par4_s",
            "partition.tw.mpgp_par4_local_edge_frac",
        ),
        (
            PartitionerChoice::Ldg,
            "partition.tw.ldg_s",
            "partition.tw.ldg_local_edge_frac",
        ),
        (
            PartitionerChoice::Fennel,
            "partition.tw.fennel_s",
            "partition.tw.fennel_local_edge_frac",
        ),
        (
            PartitionerChoice::WorkloadBalanced,
            "partition.tw.balanced_s",
            "partition.tw.balanced_local_edge_frac",
        ),
    ];
    for (choice, secs, local) in table {
        let clock = Instant::now();
        let partitioning = choice.partition(&twitter, MACHINES, ALGORITHM_SEED);
        out.set(secs, clock.elapsed().as_secs_f64());
        out.set(local, partitioning.local_edge_fraction(&twitter));
    }
}
