//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation (§6, §8) on the synthetic stand-in datasets.
//!
//! Usage:
//! ```text
//! cargo run -p distger-bench --release --bin repro -- all
//! cargo run -p distger-bench --release --bin repro -- fig5 fig10 table4
//! cargo run -p distger-bench --release --bin repro -- --smoke all
//! ```
//!
//! Each experiment prints a paper-style table and also writes
//! `target/experiments/<id>.json`.

use std::time::Instant;

use distger_bench::{bench_dataset, labelled_dataset, BenchScale, Report};
use distger_core::{run_pipeline, DistGerConfig, PipelineResult, SystemKind};
use distger_embed::{train_distributed, SyncStrategy, TrainerConfig, TrainerKind};
use distger_eval::{evaluate_classification, evaluate_link_prediction, split_edges};
use distger_graph::generate::PaperDataset;
use distger_graph::{rmat, CsrGraph, GraphStats};
use distger_obs::Stopwatch;
use distger_partition::{
    balanced::workload_balanced_partition,
    fennel::{fennel_partition, FennelConfig},
    ldg::ldg_default,
    mpgp_partition, parallel_mpgp_partition, MpgpConfig, Partitioning, StreamingOrder,
};
use distger_walks::{run_distributed_walks, WalkEngineConfig, WalkModel};

const MACHINES: usize = 4;
const SEED: u64 = 7;

/// Datasets used by most experiments (the Twitter stand-in is reserved for
/// the scalability experiments to keep the harness laptop-friendly).
const CORE_DATASETS: [PaperDataset; 3] = [
    PaperDataset::Flickr,
    PaperDataset::Youtube,
    PaperDataset::LiveJournal,
];

/// `system` at the harness's shared effort scale (dimension 32, fixed seed),
/// so comparisons stay fair at laptop scale.
fn system_config(system: SystemKind, machines: usize, epochs: usize) -> DistGerConfig {
    let mut config = system.config(machines).with_seed(SEED);
    config.training.dim = 32;
    config.training.epochs = epochs;
    config
}

fn run_preset(
    system: SystemKind,
    graph: &CsrGraph,
    machines: usize,
    epochs: usize,
) -> PipelineResult {
    run_pipeline(graph, &system_config(system, machines, epochs))
}

fn distger_config(machines: usize) -> DistGerConfig {
    system_config(SystemKind::DistGer, machines, 1)
}

fn knightking_config(machines: usize) -> DistGerConfig {
    system_config(SystemKind::KnightKing, machines, 1)
}

// ---------------------------------------------------------------------------
// Table 2: dataset statistics
// ---------------------------------------------------------------------------
fn table2(scale: BenchScale) -> Vec<Report> {
    let mut report = Report::new(
        "table2",
        "dataset statistics (synthetic stand-ins)",
        &["nodes", "edges", "avg degree", "max degree"],
    );
    for ds in PaperDataset::ALL {
        let factor = if ds == PaperDataset::Twitter {
            scale.factor() * 0.4
        } else {
            scale.factor()
        };
        let g = ds.generate(factor, SEED);
        let stats = GraphStats::compute(&g);
        report.push(
            ds.short_name(),
            vec![
                stats.num_nodes as f64,
                stats.num_edges as f64,
                stats.avg_degree,
                stats.max_degree as f64,
            ],
        );
    }
    vec![report]
}

// ---------------------------------------------------------------------------
// Table 3 / Table 8: memory footprints
// ---------------------------------------------------------------------------
fn table3(scale: BenchScale) -> Vec<Report> {
    let mut sampling = Report::new(
        "table3-sampling",
        "avg per-machine sampling memory (MB): KnightKing vs HuGE-D vs DistGER",
        &["KnightKing", "HuGE-D", "DistGER"],
    );
    let mut training = Report::new(
        "table3-training",
        "avg per-machine training memory (MB): KnightKing vs DistGER",
        &["KnightKing", "DistGER"],
    );
    for ds in CORE_DATASETS {
        let g = bench_dataset(ds, scale, SEED);
        let kk = run_pipeline(&g, &knightking_config(MACHINES));
        let hd = run_pipeline(&g, &DistGerConfig::huge_d(MACHINES).with_seed(SEED).small());
        let dg = run_pipeline(&g, &distger_config(MACHINES));
        sampling.push(
            ds.short_name(),
            vec![
                kk.sampling_memory.total_bytes() as f64 / 1e6,
                hd.sampling_memory.total_bytes() as f64 / 1e6,
                dg.sampling_memory.total_bytes() as f64 / 1e6,
            ],
        );
        training.push(
            ds.short_name(),
            vec![
                kk.training_memory.total_bytes() as f64 / 1e6,
                dg.training_memory.total_bytes() as f64 / 1e6,
            ],
        );
    }
    vec![sampling, training]
}

// ---------------------------------------------------------------------------
// Figure 5: end-to-end running time per system
// ---------------------------------------------------------------------------
fn fig5(scale: BenchScale) -> Vec<Report> {
    let mut report = Report::new(
        "figure5",
        "end-to-end running time (s) per system and dataset",
        &["KnightKing", "HuGE-D", "DistGER"],
    );
    for ds in CORE_DATASETS {
        let g = bench_dataset(ds, scale, SEED);
        let row = SystemKind::ALL
            .iter()
            .map(|&system| run_preset(system, &g, MACHINES, 1).end_to_end_secs())
            .collect();
        report.push(ds.short_name(), row);
    }
    vec![report]
}

// ---------------------------------------------------------------------------
// Figure 6: scalability with the number of machines
// ---------------------------------------------------------------------------
fn fig6(scale: BenchScale) -> Vec<Report> {
    let g = bench_dataset(PaperDataset::LiveJournal, scale, SEED);
    let mut report = Report::new(
        "figure6",
        "end-to-end time (s) on the LJ stand-in vs number of machines",
        &["1", "2", "4", "8"],
    );
    for system in SystemKind::ALL {
        let mut row = Vec::new();
        for machines in [1usize, 2, 4, 8] {
            let run = run_preset(system, &g, machines, 1);
            row.push(run.end_to_end_secs());
        }
        report.push(system.name(), row);
    }
    vec![report]
}

// ---------------------------------------------------------------------------
// Figure 7: scalability on synthetic R-MAT graphs
// ---------------------------------------------------------------------------
fn fig7(scale: BenchScale) -> Vec<Report> {
    let mut report = Report::new(
        "figure7",
        "DistGER on R-MAT graphs: walk + training time (s) vs node count",
        &["nodes", "edges", "walk time (s)", "training time (s)"],
    );
    let scales: &[u32] = match scale {
        BenchScale::Smoke => &[9, 10, 11],
        BenchScale::Default => &[10, 11, 12, 13],
    };
    for &s in scales {
        let g = rmat(s, 10, (0.57, 0.19, 0.19, 0.05), SEED);
        let result = run_pipeline(&g, &distger_config(MACHINES));
        report.push(
            format!("2^{s}"),
            vec![
                g.num_nodes() as f64,
                g.num_edges() as f64,
                result.times.sampling_secs,
                result.times.training_secs,
            ],
        );
    }
    vec![report]
}

// ---------------------------------------------------------------------------
// Figure 8: effectiveness vs running time
// ---------------------------------------------------------------------------
fn fig8(scale: BenchScale) -> Vec<Report> {
    let g = bench_dataset(PaperDataset::LiveJournal, scale, SEED);
    let split = split_edges(&g, 0.5, SEED);
    let mut report = Report::new(
        "figure8",
        "AUC vs cumulative running time (s) on the LJ stand-in",
        &[
            "time@1ep", "AUC@1ep", "time@2ep", "AUC@2ep", "time@4ep", "AUC@4ep",
        ],
    );
    for system in [SystemKind::KnightKing, SystemKind::DistGer] {
        let mut row = Vec::new();
        for epochs in [1usize, 2, 4] {
            let run = run_preset(system, &split.train_graph, MACHINES, epochs);
            row.push(run.end_to_end_secs());
            row.push(evaluate_link_prediction(&run.embeddings, &split));
        }
        report.push(system.name(), row);
    }
    vec![report]
}

// ---------------------------------------------------------------------------
// Table 4: link-prediction AUC per system
// ---------------------------------------------------------------------------
fn table4(scale: BenchScale) -> Vec<Report> {
    let mut report = Report::new(
        "table4",
        "link-prediction AUC per system and dataset",
        &["KnightKing", "DistGER"],
    );
    for ds in CORE_DATASETS {
        let g = bench_dataset(ds, scale, SEED);
        let split = split_edges(&g, 0.5, SEED);
        let row = [SystemKind::KnightKing, SystemKind::DistGer]
            .iter()
            .map(|&system| {
                let run = run_preset(system, &split.train_graph, MACHINES, 3);
                evaluate_link_prediction(&run.embeddings, &split)
            })
            .collect();
        report.push(ds.short_name(), row);
    }
    vec![report]
}

// ---------------------------------------------------------------------------
// Figure 9: multi-label node classification
// ---------------------------------------------------------------------------
fn fig9(scale: BenchScale) -> Vec<Report> {
    let mut reports = Vec::new();
    for name in ["FL", "YT"] {
        let labelled = labelled_dataset(name, scale, SEED);
        let mut micro = Report::new(
            &format!("figure9-{name}-micro"),
            &format!("Micro-F1 vs training ratio ({name} stand-in)"),
            &["10%", "30%", "50%", "70%", "90%"],
        );
        let mut macro_r = Report::new(
            &format!("figure9-{name}-macro"),
            &format!("Macro-F1 vs training ratio ({name} stand-in)"),
            &["10%", "30%", "50%", "70%", "90%"],
        );
        for system in [SystemKind::KnightKing, SystemKind::DistGer] {
            let run = run_preset(system, &labelled.graph, MACHINES, 3);
            let mut micro_row = Vec::new();
            let mut macro_row = Vec::new();
            for ratio in [0.1, 0.3, 0.5, 0.7, 0.9] {
                let scores = evaluate_classification(
                    &run.embeddings,
                    &labelled.labels,
                    labelled.num_labels,
                    ratio,
                    3,
                    SEED,
                );
                micro_row.push(scores.micro_f1);
                macro_row.push(scores.macro_f1);
            }
            micro.push(system.name(), micro_row);
            macro_r.push(system.name(), macro_row);
        }
        reports.push(micro);
        reports.push(macro_r);
    }
    reports
}

// ---------------------------------------------------------------------------
// Figure 10: component efficiency
// ---------------------------------------------------------------------------
fn fig10(scale: BenchScale) -> Vec<Report> {
    let mut walk_time = Report::new(
        "figure10a",
        "random-walk time (s): KnightKing vs HuGE-D vs DistGER",
        &["KnightKing", "HuGE-D", "DistGER"],
    );
    let mut train_eff = Report::new(
        "figure10b",
        "training throughput (M pairs/s): Pword2vec vs DSGL (same corpus)",
        &["Pword2vec", "DSGL"],
    );
    let mut messages = Report::new(
        "figure10c",
        "cross-machine walker messages: workload-balancing vs MPGP",
        &["Workload-balancing", "MPGP"],
    );
    let mut mpgp_walk = Report::new(
        "figure10d",
        "random-walk time (s): workload-balancing vs MPGP (same walks)",
        &["Workload-balancing", "MPGP"],
    );

    for ds in CORE_DATASETS {
        let g = bench_dataset(ds, scale, SEED);
        let balanced = workload_balanced_partition(&g, MACHINES);
        let mpgp = mpgp_partition(&g, MACHINES, MpgpConfig::default());

        // (a) walk time per engine on its own partitioning scheme.
        let mut watch = Stopwatch::start();
        let kk = run_distributed_walks(
            &g,
            &balanced,
            &WalkEngineConfig::knightking_routine(WalkModel::Huge).with_seed(SEED),
        );
        let kk_time = watch.lap();
        let hd = run_distributed_walks(&g, &balanced, &WalkEngineConfig::huge_d().with_seed(SEED));
        let hd_time = watch.lap();
        let dg = run_distributed_walks(&g, &mpgp, &WalkEngineConfig::distger().with_seed(SEED));
        let dg_time = watch.lap();
        walk_time.push(ds.short_name(), vec![kk_time, hd_time, dg_time]);

        // (b) training throughput on the same (DistGER) corpus.
        let mut row = Vec::new();
        for kind in [
            TrainerKind::Pword2vec,
            TrainerKind::Dsgl { multi_windows: 2 },
        ] {
            let cfg = TrainerConfig {
                dim: 32,
                epochs: 1,
                kind,
                sync_rounds_per_epoch: 2,
                ..TrainerConfig::default()
            };
            let (_, stats) = train_distributed(&dg.corpus, MACHINES, &cfg);
            row.push(stats.throughput_pairs_per_sec / 1e6);
        }
        train_eff.push(ds.short_name(), row);

        // (c)+(d): same engine (DistGER walks) under the two partitionings.
        let mut watch = Stopwatch::start();
        let wb_walk =
            run_distributed_walks(&g, &balanced, &WalkEngineConfig::distger().with_seed(SEED));
        let wb_time = watch.lap();
        let mp_walk =
            run_distributed_walks(&g, &mpgp, &WalkEngineConfig::distger().with_seed(SEED));
        let mp_time = watch.lap();
        messages.push(
            ds.short_name(),
            vec![wb_walk.comm.messages as f64, mp_walk.comm.messages as f64],
        );
        mpgp_walk.push(ds.short_name(), vec![wb_time, mp_time]);
        let _ = (kk, hd);
    }
    vec![walk_time, train_eff, messages, mpgp_walk]
}

// ---------------------------------------------------------------------------
// Figure 11: streaming orders
// ---------------------------------------------------------------------------
fn fig11(scale: BenchScale) -> Vec<Report> {
    let g = bench_dataset(PaperDataset::LiveJournal, scale, SEED);
    let mut report = Report::new(
        "figure11",
        "MPGP streaming orders on the LJ stand-in (4 machines)",
        &[
            "partition time (s)",
            "walk time (s)",
            "local steps",
            "cross-machine msgs",
        ],
    );
    for order in StreamingOrder::ALL {
        let mut watch = Stopwatch::start();
        let p = mpgp_partition(
            &g,
            MACHINES,
            MpgpConfig {
                order,
                seed: SEED,
                ..MpgpConfig::default()
            },
        );
        let partition_time = watch.lap();
        let walk = run_distributed_walks(&g, &p, &WalkEngineConfig::distger().with_seed(SEED));
        let walk_time = watch.lap();
        report.push(
            order.name(),
            vec![
                partition_time,
                walk_time,
                walk.comm.local_steps as f64,
                walk.comm.messages as f64,
            ],
        );
    }
    vec![report]
}

// ---------------------------------------------------------------------------
// Table 5: partitioning efficiency
// ---------------------------------------------------------------------------
fn table5(scale: BenchScale) -> Vec<Report> {
    let mut a = Report::new(
        "table5a",
        "partitioning time (s): LDG vs FENNEL vs MPGP vs MPGP-P",
        &["LDG", "FENNEL", "MPGP", "MPGP-P"],
    );
    for ds in CORE_DATASETS {
        let g = bench_dataset(ds, scale, SEED);
        let time = |f: &dyn Fn() -> Partitioning| -> f64 {
            let start = Instant::now();
            let p = f();
            assert_eq!(p.num_nodes(), g.num_nodes());
            start.elapsed().as_secs_f64()
        };
        a.push(
            ds.short_name(),
            vec![
                time(&|| ldg_default(&g, MACHINES, SEED)),
                time(&|| fennel_partition(&g, MACHINES, FennelConfig::default(), SEED)),
                time(&|| mpgp_partition(&g, MACHINES, MpgpConfig::default())),
                time(&|| parallel_mpgp_partition(&g, MACHINES, 4, MpgpConfig::parallel_default())),
            ],
        );
    }

    let mut b = Report::new(
        "table5b",
        "parallel MPGP: DFS+degree vs BFS+degree (partition / walk time, s)",
        &[
            "DFS+deg part",
            "DFS+deg walk",
            "BFS+deg part",
            "BFS+deg walk",
        ],
    );
    for ds in [PaperDataset::LiveJournal, PaperDataset::ComOrkut] {
        let g = bench_dataset(ds, scale, SEED);
        let mut row = Vec::new();
        for order in [StreamingOrder::DfsDegree, StreamingOrder::BfsDegree] {
            let mut watch = Stopwatch::start();
            let p = parallel_mpgp_partition(
                &g,
                MACHINES,
                4,
                MpgpConfig {
                    order,
                    seed: SEED,
                    ..MpgpConfig::default()
                },
            );
            row.push(watch.lap());
            run_distributed_walks(&g, &p, &WalkEngineConfig::distger().with_seed(SEED));
            row.push(watch.lap());
        }
        b.push(ds.short_name(), row);
    }
    vec![a, b]
}

// ---------------------------------------------------------------------------
// Figure 12: generality (DeepWalk / node2vec / HuGE+ on DistGER)
// ---------------------------------------------------------------------------
fn fig12(scale: BenchScale) -> Vec<Report> {
    let mut report = Report::new(
        "figure12",
        "generality on the YT stand-in: routine (KnightKing) vs info-driven (DistGER)",
        &[
            "walk time routine (s)",
            "walk time DistGER (s)",
            "corpus routine (tokens)",
            "corpus DistGER (tokens)",
            "AUC ratio (DistGER/KnightKing)",
        ],
    );
    let g = bench_dataset(PaperDataset::Youtube, scale, SEED);
    let split = split_edges(&g, 0.5, SEED);
    let balanced = workload_balanced_partition(&split.train_graph, MACHINES);
    let mpgp = mpgp_partition(&split.train_graph, MACHINES, MpgpConfig::default());

    for model in [
        WalkModel::DeepWalk,
        WalkModel::Node2Vec { p: 4.0, q: 1.0 },
        WalkModel::Huge,
    ] {
        let mut watch = Stopwatch::start();
        let routine = run_distributed_walks(
            &split.train_graph,
            &balanced,
            &WalkEngineConfig::knightking_routine(model).with_seed(SEED),
        );
        let routine_time = watch.lap();
        let info = run_distributed_walks(
            &split.train_graph,
            &mpgp,
            &WalkEngineConfig::distger_general(model).with_seed(SEED),
        );
        let info_time = watch.lap();

        let train = |corpus| {
            let cfg = TrainerConfig {
                dim: 32,
                epochs: 2,
                sync_rounds_per_epoch: 2,
                ..TrainerConfig::default()
            };
            let (emb, _) = train_distributed(corpus, MACHINES, &cfg);
            evaluate_link_prediction(&emb, &split)
        };
        let auc_routine = train(&routine.corpus);
        let auc_info = train(&info.corpus);

        report.push(
            model.name(),
            vec![
                routine_time,
                info_time,
                routine.corpus.total_tokens() as f64,
                info.corpus.total_tokens() as f64,
                auc_info / auc_routine.max(1e-9),
            ],
        );
    }
    vec![report]
}

// ---------------------------------------------------------------------------
// Figure 13: varying the load-balancing slack γ
// ---------------------------------------------------------------------------
fn fig13(scale: BenchScale) -> Vec<Report> {
    let g = bench_dataset(PaperDataset::LiveJournal, scale, SEED);
    let mut report = Report::new(
        "figure13",
        "MPGP slack γ on the LJ stand-in: balance vs walk efficiency",
        &["balance factor", "local edge fraction", "walk time (s)"],
    );
    for gamma in [1.0, 2.0, 4.0, 8.0] {
        let p = mpgp_partition(
            &g,
            MACHINES,
            MpgpConfig {
                gamma,
                seed: SEED,
                ..MpgpConfig::default()
            },
        );
        let mut watch = Stopwatch::start();
        run_distributed_walks(&g, &p, &WalkEngineConfig::distger().with_seed(SEED));
        let walk_time = watch.lap();
        report.push(
            format!("gamma={gamma}"),
            vec![p.balance_factor(), p.local_edge_fraction(&g), walk_time],
        );
    }
    vec![report]
}

// ---------------------------------------------------------------------------
// Table 6: weighted vs unweighted graphs
// ---------------------------------------------------------------------------
fn table6(scale: BenchScale) -> Vec<Report> {
    let mut report = Report::new(
        "table6",
        "DistGER end-to-end time (s): unweighted vs weighted graphs",
        &["unweighted", "weighted [1,5)"],
    );
    for ds in CORE_DATASETS {
        let g = bench_dataset(ds, scale, SEED);
        let gw = g.with_random_weights(1.0, 5.0, SEED);
        let unweighted = run_pipeline(&g, &distger_config(MACHINES));
        let weighted = run_pipeline(&gw, &distger_config(MACHINES));
        report.push(
            ds.short_name(),
            vec![unweighted.end_to_end_secs(), weighted.end_to_end_secs()],
        );
    }
    vec![report]
}

// ---------------------------------------------------------------------------
// Table 7: directed vs undirected
// ---------------------------------------------------------------------------
fn table7(scale: BenchScale) -> Vec<Report> {
    let g = bench_dataset(PaperDataset::LiveJournal, scale, SEED);
    let directed = distger_graph::generate::randomly_orient(&g, SEED);
    let mut report = Report::new(
        "table7",
        "DistGER on the LJ stand-in: undirected vs directed",
        &[
            "edges",
            "partition (s)",
            "sampling (s)",
            "training (s)",
            "memory (MB)",
        ],
    );
    for (name, graph) in [("undirected", &g), ("directed", &directed)] {
        let result = run_pipeline(graph, &distger_config(MACHINES));
        report.push(
            name,
            vec![
                graph.num_edges() as f64,
                result.times.partition_secs,
                result.times.sampling_secs,
                result.times.training_secs,
                (result.sampling_memory.total_bytes() + result.training_memory.total_bytes())
                    as f64
                    / 1e6,
            ],
        );
    }
    vec![report]
}

// ---------------------------------------------------------------------------
// Extra ablation: Figure 3 (a)→(d), the trainer kinds as settings of one body
// ---------------------------------------------------------------------------
fn ablation(scale: BenchScale) -> Vec<Report> {
    let g = bench_dataset(PaperDataset::Youtube, scale, SEED);
    let p = mpgp_partition(&g, MACHINES, MpgpConfig::default());
    let walks = run_distributed_walks(&g, &p, &WalkEngineConfig::distger().with_seed(SEED));
    let mut report = Report::new(
        "ablation-dsgl",
        "Figure 3 (a)→(d) on the YT stand-in corpus, every row under hotness-block sync",
        &["throughput (M pairs/s)", "sync MB"],
    );
    // One sync strategy for every row, so the rows differ in the trainer's
    // settings alone: per-pair negatives (a), window-shared negatives (b),
    // rows staged for a batch (c), several windows in lockstep (d).
    let variants: [(&str, TrainerKind); 5] = [
        ("SGNS", TrainerKind::Hogwild),
        ("Pword2vec", TrainerKind::Pword2vec),
        ("DSGL (mw=1)", TrainerKind::Dsgl { multi_windows: 1 }),
        ("DSGL (mw=2)", TrainerKind::Dsgl { multi_windows: 2 }),
        ("DSGL (mw=4)", TrainerKind::Dsgl { multi_windows: 4 }),
    ];
    for (name, kind) in variants {
        let cfg = TrainerConfig {
            dim: 32,
            epochs: 1,
            kind,
            sync: SyncStrategy::HotnessBlock,
            sync_rounds_per_epoch: 2,
            ..TrainerConfig::default()
        };
        let (_, stats) = train_distributed(&walks.corpus, MACHINES, &cfg);
        report.push(
            name,
            vec![
                stats.throughput_pairs_per_sec / 1e6,
                stats.sync_comm.bytes as f64 / 1e6,
            ],
        );
    }
    vec![report]
}

// ---------------------------------------------------------------------------
// PBG / DistDGL: the paper's parameter-server and GNN baselines
// ---------------------------------------------------------------------------
fn baselines(_: BenchScale) -> Vec<Report> {
    println!(
        "PBG and DistDGL (figures 5 and 8, table 4; the 2.33x-129x speed-up claim): \
         not reproduced: no faithful implementation"
    );
    Vec::new()
}

// ---------------------------------------------------------------------------
// main
// ---------------------------------------------------------------------------
type Experiment = (&'static str, fn(BenchScale) -> Vec<Report>);

const EXPERIMENTS: &[Experiment] = &[
    ("table2", table2),
    ("table3", table3),
    ("fig5", fig5),
    ("fig6", fig6),
    ("fig7", fig7),
    ("fig8", fig8),
    ("table4", table4),
    ("fig9", fig9),
    ("fig10", fig10),
    ("fig11", fig11),
    ("table5", table5),
    ("fig12", fig12),
    ("fig13", fig13),
    ("table6", table6),
    ("table7", table7),
    ("ablation", ablation),
    ("baselines", baselines),
];

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let selected: Vec<String> = args.into_iter().filter(|a| !a.starts_with("--")).collect();
    let scale = if smoke {
        BenchScale::Smoke
    } else {
        BenchScale::Default
    };

    if selected.is_empty() {
        eprintln!("usage: repro [--smoke] <experiment...|all>");
        eprintln!(
            "experiments: {}",
            EXPERIMENTS
                .iter()
                .map(|(n, _)| *n)
                .collect::<Vec<_>>()
                .join(", ")
        );
        std::process::exit(2);
    }

    let run_all = selected.iter().any(|s| s == "all");
    let out_dir = std::path::Path::new("target/experiments");
    std::fs::create_dir_all(out_dir).expect("create output directory");

    let mut all_json = Vec::new();
    for (name, f) in EXPERIMENTS {
        if !run_all && !selected.iter().any(|s| s == name) {
            continue;
        }
        let start = Instant::now();
        let reports = f(scale);
        let elapsed = start.elapsed().as_secs_f64();
        for report in &reports {
            println!("{}", report.to_text());
            let path = out_dir.join(format!("{}.json", report.id));
            std::fs::write(&path, report.to_json().to_string_pretty()).expect("write report JSON");
            all_json.push(report.to_json());
        }
        println!("[{name} completed in {elapsed:.1}s]\n");
    }
    std::fs::write(
        out_dir.join("all.json"),
        distger_bench::json::Value::Array(all_json).to_string_pretty(),
    )
    .expect("write combined JSON");
}
