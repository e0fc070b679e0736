//! What one run hands back: named values, operation counts and failed
//! checks — and the one-line JSON object the driver reads.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::json::Json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::median;

/// What a metric reads on a workload that has no such quantity (`link_auc`
/// without a graph, `cross_machine_bytes` in one process). The driver divides
/// by medians, so a true 0 cannot be printed; 1 is constant and cannot regress.
pub const NOT_APPLICABLE: f64 = 1.0;

/// Whether an end-to-end metric is a real measurement on a workload: the
/// serving workloads have no graph to score links on and no second machine.
pub fn applies(workload: &str, metric: &str) -> bool {
    !(workload.starts_with("serve_") && matches!(metric, "link_auc" | "cross_machine_bytes"))
}

#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name) || PER_LAYER.iter().any(|m| m.name == name),
            "`{name}` is not a metric of the benchmark"
        );
        self.values.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// A correctness check: a false `ok` fails the run and the command.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let what = what();
            eprintln!("CHECK FAILED: {what}");
            self.failures.push(what);
        }
    }

    pub fn correct(&self) -> bool {
        self.failures.is_empty()
    }

    /// `(name, value, unit)` of the metrics this kind of run reports: every
    /// end-to-end metric untraced, every per-layer metric traced.
    pub fn reported(&self, trace: bool) -> Vec<(&'static str, f64, &'static str)> {
        if trace {
            PER_LAYER
                .iter()
                .map(|m| (m.name, self.get(m.name).unwrap_or(0.0), m.unit))
                .collect()
        } else {
            END_TO_END
                .iter()
                .map(|m| {
                    let value = self
                        .get(m.name)
                        .unwrap_or_else(|| panic!("the run did not measure `{}`", m.name));
                    (m.name, value, m.unit)
                })
                .collect()
        }
    }

    /// The result object: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self, trace: bool) -> Json {
        let metrics = self.reported(trace).into_iter().map(|(name, value, unit)| {
            let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
            (name, entry)
        });
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted.max(1) as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", Json::obj(metrics)),
        ])
    }
}

/// Runs `build` `repeats` times, each on a clean slate (the previous product
/// is dropped first, so peak memory is one product's), and returns the last
/// product with the median build time: set-up is short, so one timing of it
/// is mostly noise.
pub fn median_setup<T>(repeats: usize, mut build: impl FnMut() -> T) -> (T, f64) {
    let mut secs = Vec::with_capacity(repeats);
    let mut product = None;
    for _ in 0..repeats.max(1) {
        drop(product.take());
        let clock = Instant::now();
        product = Some(build());
        secs.push(clock.elapsed().as_secs_f64());
    }
    (product.expect("at least one repeat ran"), median(&secs))
}

/// Peak resident set of this process so far (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status (Linux)");
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("a VmHWM line in /proc/self/status");
    kib / 1024.0
}
