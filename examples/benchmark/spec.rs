//! The benchmark's contract as tables: workload names, end-to-end metrics
//! with their regression bounds, and per-layer metrics. `BENCHMARK.json` at
//! the repo root states the same tables for the driver; a unit test keeps the
//! two in step. README.md defines every name.

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "lj_train_heavy",
        why: "LiveJournal stand-in, dim 64: SGNS training is ~80% of the job and walking ~13%, so a trainer or dot-kernel change shows here and a walk change barely does",
    },
    Workload {
        name: "orkut_walk_heavy",
        why: "com-Orkut stand-in, avg degree 40, dim 32: HuGE's O(deg) common-neighbour step makes walking over half the job, the mirror image of lj_train_heavy",
    },
    Workload {
        name: "ba_loopback4",
        why: "the same walk/train/serve layers over four loopback-TCP endpoints, plus the transport and codec; moves apart from the in-process jobs when only one path gains",
    },
    Workload {
        name: "serve_steady",
        why: "open loop, Poisson 4000 qps (~37% of capacity) on a 100k x 128 index: small batches, so deadline wait and dispatch set latency; no walk or train code runs",
    },
    Workload {
        name: "serve_saturated",
        why: "closed loop, 128 requests outstanding on the same index: batches are full, so the LSH probe + re-rank kernel sets throughput",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "job_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.2,
    },
    EndToEnd {
        name: "link_auc",
        unit: "AUC",
        better: Better::Higher,
        bound: 0.012,
    },
    EndToEnd {
        name: "cross_machine_bytes",
        unit: "bytes",
        better: Better::Lower,
        bound: 0.01,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MiB",
        better: Better::Lower,
        bound: 0.1,
    },
    EndToEnd {
        name: "serve_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "serve_qps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit, better }
}

use Better::{Higher, Lower};

/// Reported by the traced run, in this order. A metric a workload has no
/// layer for reads 0 there.
pub const PER_LAYER: [PerLayer; 76] = [
    layer("graph.nodes", "count", Higher),
    layer("graph.arcs", "count", Higher),
    layer("graph.generate_s", "s", Lower),
    layer("graph.split_s", "s", Lower),
    layer("partition.mpgp_s", "s", Lower),
    layer("partition.local_edge_frac", "ratio", Higher),
    layer("partition.balance", "ratio", Lower),
    layer("partition.arc_balance", "ratio", Lower),
    layer("partition.tw.mpgp_s", "s", Lower),
    layer("partition.tw.mpgp_local_edge_frac", "ratio", Higher),
    layer("partition.tw.mpgp_par4_s", "s", Lower),
    layer("partition.tw.mpgp_par4_local_edge_frac", "ratio", Higher),
    layer("partition.tw.ldg_s", "s", Lower),
    layer("partition.tw.ldg_local_edge_frac", "ratio", Higher),
    layer("partition.tw.fennel_s", "s", Lower),
    layer("partition.tw.fennel_local_edge_frac", "ratio", Higher),
    layer("partition.tw.balanced_s", "s", Lower),
    layer("partition.tw.balanced_local_edge_frac", "ratio", Higher),
    layer("walks.wall_s", "s", Lower),
    layer("walks.tokens", "count", Higher),
    layer("walks.steps_per_s", "1/s", Higher),
    layer("walks.rounds", "count", Lower),
    layer("walks.supersteps", "count", Lower),
    layer("walks.avg_len", "count", Higher),
    layer("walks.msgs", "count", Lower),
    layer("walks.bytes", "bytes", Lower),
    layer("walks.local_step_frac", "ratio", Higher),
    layer("walks.barrier_wait_s", "s", Lower),
    layer("walks.alias_build_s", "s", Lower),
    layer("walks.walker_peak_bytes", "bytes", Lower),
    layer("walks.corpus_bytes", "bytes", Lower),
    layer("walks.superstep_busy_s", "s", Lower),
    layer("walks.exchange_s", "s", Lower),
    layer("walks.control_s", "s", Lower),
    layer("walks.flat_uniform_steps_per_s", "1/s", Higher),
    layer("walks.engine_over_flat", "ratio", Higher),
    layer("embed.wall_s", "s", Lower),
    layer("embed.train_s", "s", Lower),
    layer("embed.prep_s", "s", Lower),
    layer("embed.pairs", "count", Higher),
    layer("embed.pairs_per_s", "1/s", Higher),
    layer("embed.barrier_wait_s", "s", Lower),
    layer("embed.sync_msgs", "count", Lower),
    layer("embed.sync_bytes", "bytes", Lower),
    layer("embed.machine_bytes", "bytes", Lower),
    layer("embed.chunk_busy_s", "s", Lower),
    layer("embed.replica_sync_s", "s", Lower),
    layer("embed.single_sgns_pairs_per_s", "1/s", Higher),
    layer("cluster.wire_frames", "count", Lower),
    layer("cluster.wire_bytes", "bytes", Lower),
    layer("cluster.wire_s", "s", Lower),
    layer("cluster.wire_over_accounted", "ratio", Lower),
    layer("cluster.loopback_over_inproc", "ratio", Higher),
    layer("serve.index_build_s", "s", Lower),
    layer("serve.engine_build_s", "s", Lower),
    layer("serve.batch_qps", "1/s", Higher),
    layer("serve.candidate_s", "s", Lower),
    layer("serve.rerank_s", "s", Lower),
    layer("serve.candidates_per_query", "count", Lower),
    layer("serve.recall_at_10", "ratio", Higher),
    layer("serve.batches", "count", Lower),
    layer("serve.avg_batch", "count", Higher),
    layer("serve.shed", "count", Lower),
    layer("serve.late", "count", Lower),
    layer("serve.gen_lag_max_ms", "ms", Lower),
    layer("serve.dispatch_s", "s", Lower),
    layer("serve.shard_scan_s", "s", Lower),
    layer("serve.shard_reply_bytes", "bytes", Lower),
    layer("serve.sharded_qps", "1/s", Higher),
    layer("serve.scatter_s", "s", Lower),
    layer("serve.merge_s", "s", Lower),
    layer("obs.trace_events", "count", Lower),
    layer("obs.trace_overhead_frac", "ratio", Lower),
    layer("obs.ring_overflow", "count", Lower),
    layer("core.job_wall_s", "s", Lower),
    layer("core.residual_frac", "ratio", Lower),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
        entry.get(key).and_then(Json::as_str).unwrap_or("")
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must name the same things.
    #[test]
    fn benchmark_json_states_the_same_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/BENCHMARK.json");
        let alt = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path)
            .or_else(|_| std::fs::read_to_string(alt))
            .expect("BENCHMARK.json at the repo root");
        let file = Json::parse(&text).expect("BENCHMARK.json parses");

        let workloads = file.get("workloads").expect("workloads").items();
        assert_eq!(workloads.len(), WORKLOADS.len());
        for (entry, w) in workloads.iter().zip(&WORKLOADS) {
            assert_eq!(field(entry, "name"), w.name);
            assert_eq!(field(entry, "why"), w.why);
            assert!(
                w.why.len() <= 200,
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
        }

        let end_to_end = file.get("end_to_end").expect("end_to_end").items();
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (entry, m) in end_to_end.iter().zip(&END_TO_END) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.name());
            assert_eq!(entry.get("bound").and_then(Json::as_f64), Some(m.bound));
            assert!(m.bound <= 0.25);
        }

        let per_layer = file.get("per_layer").expect("per_layer").items();
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (entry, m) in per_layer.iter().zip(&PER_LAYER) {
            assert_eq!(field(entry, "name"), m.name);
            assert_eq!(field(entry, "unit"), m.unit);
            assert_eq!(field(entry, "better"), m.better.name());
        }
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut names: Vec<&str> = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
            .collect();
        for name in &names {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
    }
}
