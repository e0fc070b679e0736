//! Bench throughput regression gate.
//!
//! The end-to-end benchmark (`BENCHMARK.json`) bounds whole-job metrics; a
//! few contracts are ratios it cannot express — LSH over the exact scan,
//! the cost of checkpointing and of span tracing, the scheduler over serial
//! queries, the k-way shard merge over a resort. The gate turns
//! `BENCH_walks.json` from a passive artifact into an enforced contract:
//! every row of every report whose id ends in a [`GATED_SUFFIXES`] suffix
//! (`_speedup` ratios) is compared against a floor committed in
//! `crates/bench/baselines.json`, and CI fails when a measured value drops
//! below `floor × (1 − tolerance)`.
//!
//! The tolerance absorbs runner-to-runner noise (shared CI machines easily
//! wobble ±10%); the floors themselves are deliberately set well below the
//! speedups recorded in the committed `BENCH_walks.json`, so only a genuine
//! regression — not an unlucky scheduler — trips the gate. Completeness is
//! enforced in both directions: a floor whose key is *missing* from the
//! measurements fails (silently dropping a report must not pass), and a
//! measured speedup with *no committed floor* fails too (see [`unfloored`] —
//! a new speedup report must land together with its floor).

use crate::json::Value;

/// The committed floors (`crates/bench/baselines.json`).
#[derive(Clone, Debug, PartialEq)]
pub struct Baselines {
    /// Fractional slack applied to every floor: a check passes while
    /// `measured ≥ min_speedup × (1 − tolerance)`.
    pub tolerance: f64,
    /// `(key, min_speedup)` pairs; keys are `"<report_id>/<row_label>"`.
    pub floors: Vec<(String, f64)>,
}

impl Baselines {
    /// Parses the baselines document.
    ///
    /// Expected shape:
    /// ```json
    /// {
    ///   "tolerance": 0.15,
    ///   "floors": [
    ///     { "key": "shard_merge_speedup/merge_over_resort", "min_speedup": 2.0 }
    ///   ]
    /// }
    /// ```
    pub fn from_json(doc: &Value) -> Result<Baselines, String> {
        let tolerance = doc["tolerance"]
            .as_f64()
            .ok_or("baselines: missing numeric `tolerance`")?;
        if !(0.0..1.0).contains(&tolerance) {
            return Err(format!("baselines: tolerance {tolerance} outside [0, 1)"));
        }
        let entries = doc["floors"]
            .as_array()
            .ok_or("baselines: missing `floors` array")?;
        if entries.is_empty() {
            return Err("baselines: `floors` is empty — the gate would check nothing".to_string());
        }
        let mut floors = Vec::with_capacity(entries.len());
        for entry in entries {
            let key = entry["key"]
                .as_str()
                .ok_or("baselines: floor entry missing string `key`")?;
            let min = entry["min_speedup"]
                .as_f64()
                .filter(|m| *m > 0.0)
                .ok_or_else(|| {
                    format!("baselines: floor {key:?} missing positive `min_speedup`")
                })?;
            floors.push((key.to_string(), min));
        }
        Ok(Baselines { tolerance, floors })
    }
}

/// Report-id suffixes the gate enforces: `_speedup` (ratio contracts,
/// "bigger is better").
pub const GATED_SUFFIXES: [&str; 1] = ["_speedup"];

/// Extracts every gated measurement from a `BENCH_walks.json` document:
/// each row of each report whose `id` ends in one of [`GATED_SUFFIXES`],
/// keyed as `"<report_id>/<row_label>"` with the row's first value.
pub fn collect_speedups(bench: &Value) -> Vec<(String, f64)> {
    let mut out = Vec::new();
    let Some(reports) = bench["reports"].as_array() else {
        return out;
    };
    for report in reports {
        let Some(id) = report["id"].as_str() else {
            continue;
        };
        if !GATED_SUFFIXES.iter().any(|suffix| id.ends_with(suffix)) {
            continue;
        }
        let Some(rows) = report["rows"].as_array() else {
            continue;
        };
        for row in rows {
            if let (Some(label), Some(value)) = (row["label"].as_str(), row["values"][0].as_f64()) {
                out.push((format!("{id}/{label}"), value));
            }
        }
    }
    out
}

/// One floor comparison.
#[derive(Clone, Debug, PartialEq)]
pub struct GateCheck {
    /// `"<report_id>/<row_label>"`.
    pub key: String,
    /// The committed floor.
    pub min_speedup: f64,
    /// `min_speedup × (1 − tolerance)` — the enforced threshold.
    pub effective_floor: f64,
    /// The measured speedup, or `None` when the key is absent from the
    /// bench report (which fails the check).
    pub measured: Option<f64>,
}

impl GateCheck {
    /// Whether this check passes.
    pub fn passed(&self) -> bool {
        self.measured.is_some_and(|m| m >= self.effective_floor)
    }

    /// One aligned human-readable line for the gate's output.
    pub fn render(&self) -> String {
        match self.measured {
            Some(m) => format!(
                "{}  {:<52} measured {m:>7.3}x  floor {:.3}x (≥ {:.3}x after {:.0}% tolerance)",
                if self.passed() { "PASS" } else { "FAIL" },
                self.key,
                self.min_speedup,
                self.effective_floor,
                (1.0 - self.effective_floor / self.min_speedup) * 100.0,
            ),
            None => format!(
                "FAIL  {:<52} missing from bench report (floor {:.3}x)",
                self.key, self.min_speedup
            ),
        }
    }
}

/// Compares every committed floor against the measured speedups.
pub fn evaluate(baselines: &Baselines, measured: &[(String, f64)]) -> Vec<GateCheck> {
    baselines
        .floors
        .iter()
        .map(|(key, min_speedup)| GateCheck {
            key: key.clone(),
            min_speedup: *min_speedup,
            effective_floor: min_speedup * (1.0 - baselines.tolerance),
            measured: measured
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, value)| *value),
        })
        .collect()
}

/// Measured speedup keys that have **no** committed floor. The gate fails on
/// these too: "every `*_speedup` row is enforced" is the contract, so a new
/// speedup report must land together with its `baselines.json` floor — an
/// unfloored speedup would otherwise be silently unprotected against
/// regression.
pub fn unfloored(baselines: &Baselines, measured: &[(String, f64)]) -> Vec<String> {
    measured
        .iter()
        .filter(|(key, _)| {
            !baselines
                .floors
                .iter()
                .any(|(floor_key, _)| floor_key == key)
        })
        .map(|(key, _)| key.clone())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bench_doc() -> Value {
        Value::parse(
            r#"{
              "id": "bench_walks",
              "reports": [
                { "id": "obs_overhead", "rows": [ {"label": "enabled", "values": [100.0]} ] },
                { "id": "obs_overhead_speedup",
                  "rows": [ {"label": "enabled_over_disabled", "values": [1.9]} ] },
                { "id": "query_backend_speedup",
                  "rows": [ {"label": "lsh_recall_at_10", "values": [1.0]},
                            {"label": "lsh_over_exact_qps", "values": [3.5]} ] },
                { "id": "shard_merge",
                  "rows": [ {"label": "kway_heap", "values": [90000.0]} ] },
                { "id": "serve_scheduler_speedup",
                  "rows": [ {"label": "scheduled_over_serial_qps", "values": [1.6]} ] }
              ]
            }"#,
        )
        .unwrap()
    }

    fn baselines_doc() -> Value {
        Value::parse(
            r#"{
              "tolerance": 0.2,
              "floors": [
                { "key": "obs_overhead_speedup/enabled_over_disabled", "min_speedup": 1.5 },
                { "key": "query_backend_speedup/lsh_over_exact_qps", "min_speedup": 2.0 },
                { "key": "serve_scheduler_speedup/scheduled_over_serial_qps", "min_speedup": 1.2 }
              ]
            }"#,
        )
        .unwrap()
    }

    #[test]
    fn collects_only_gated_suffixes() {
        // `obs_overhead` and `shard_merge` (plain measurements) are skipped;
        // every `_speedup` row is collected.
        let speedups = collect_speedups(&bench_doc());
        assert_eq!(
            speedups,
            vec![
                (
                    "obs_overhead_speedup/enabled_over_disabled".to_string(),
                    1.9
                ),
                ("query_backend_speedup/lsh_recall_at_10".to_string(), 1.0),
                ("query_backend_speedup/lsh_over_exact_qps".to_string(), 3.5),
                (
                    "serve_scheduler_speedup/scheduled_over_serial_qps".to_string(),
                    1.6
                ),
            ]
        );
    }

    #[test]
    fn passing_floors_pass() {
        let baselines = Baselines::from_json(&baselines_doc()).unwrap();
        let checks = evaluate(&baselines, &collect_speedups(&bench_doc()));
        assert_eq!(checks.len(), 3);
        assert!(checks.iter().all(GateCheck::passed), "{checks:?}");
    }

    #[test]
    fn tolerance_absorbs_noise_but_not_regressions() {
        let baselines = Baselines::from_json(&baselines_doc()).unwrap();
        let rest = [
            ("query_backend_speedup/lsh_over_exact_qps".to_string(), 2.0),
            (
                "serve_scheduler_speedup/scheduled_over_serial_qps".to_string(),
                1.6,
            ),
        ];
        // 1.25 is below the 1.5 floor but above 1.5 × 0.8 = 1.2: noise, pass.
        let mut measured = rest.to_vec();
        measured.push((
            "obs_overhead_speedup/enabled_over_disabled".to_string(),
            1.25,
        ));
        let checks = evaluate(&baselines, &measured);
        assert!(checks.iter().all(GateCheck::passed));
        // 1.19 is below the effective floor: regression, fail.
        let mut measured = rest.to_vec();
        measured.insert(
            0,
            (
                "obs_overhead_speedup/enabled_over_disabled".to_string(),
                1.19,
            ),
        );
        let checks = evaluate(&baselines, &measured);
        assert!(!checks[0].passed());
        assert!(checks[1].passed());
        assert!(checks[0].render().starts_with("FAIL"));
    }

    #[test]
    fn unfloored_speedups_are_reported() {
        let baselines = Baselines::from_json(&baselines_doc()).unwrap();
        // `query_backend_speedup/lsh_recall_at_10` is measured in the bench
        // doc but has no floor committed.
        let missing = unfloored(&baselines, &collect_speedups(&bench_doc()));
        assert_eq!(
            missing,
            vec!["query_backend_speedup/lsh_recall_at_10".to_string()]
        );
        // With every measurement floored, nothing is reported.
        assert!(unfloored(
            &baselines,
            &[(
                "obs_overhead_speedup/enabled_over_disabled".to_string(),
                1.9
            )]
        )
        .is_empty());
    }

    #[test]
    fn missing_measurement_fails_the_gate() {
        let baselines = Baselines::from_json(&baselines_doc()).unwrap();
        let checks = evaluate(&baselines, &[]);
        assert!(checks.iter().all(|c| !c.passed()));
        assert!(checks[0].render().contains("missing"));
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        for bad in [
            r#"{}"#,
            r#"{"tolerance": 1.5, "floors": [{"key": "a", "min_speedup": 1.0}]}"#,
            r#"{"tolerance": 0.1, "floors": []}"#,
            r#"{"tolerance": 0.1, "floors": [{"key": "a"}]}"#,
            r#"{"tolerance": 0.1, "floors": [{"min_speedup": 2.0}]}"#,
            r#"{"tolerance": 0.1, "floors": [{"key": "a", "min_speedup": -1.0}]}"#,
        ] {
            let doc = Value::parse(bad).unwrap();
            assert!(Baselines::from_json(&doc).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn render_is_humane() {
        let baselines = Baselines::from_json(&baselines_doc()).unwrap();
        let checks = evaluate(&baselines, &collect_speedups(&bench_doc()));
        let line = checks[0].render();
        assert!(line.starts_with("PASS"), "{line}");
        assert!(line.contains("obs_overhead_speedup/enabled_over_disabled"));
        assert!(line.contains("1.900x"));
    }
}
