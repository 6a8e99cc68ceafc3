//! The metric vocabulary (kept equal to `BENCHMARK.json` by a unit test)
//! and what one run of one workload hands back.

use crate::stats::Summary;
use std::collections::BTreeMap;

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// The share of the parent's median an end-to-end metric may worsen
    /// by; layers have no bound.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

/// A per-layer cost: lower is better, no bound.
const fn layer(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "lower",
        bound: None,
    }
}

/// A per-layer rate or hit count: higher is better, no bound.
const fn layer_up(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: "higher",
        bound: None,
    }
}

pub const WORKLOADS: [&str; 5] = [
    "convert",
    "read-point",
    "read-analytic",
    "read-wide",
    "mixed",
];

/// What a user of the system sees. Every workload reports all five; the
/// README's binding table says what an operation, path B and set-up are
/// on each workload.
pub const END_TO_END: [MetricDef; 5] = [
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("p50_us", "us", "lower", 0.20),
    e2e("p50_b_us", "us", "lower", 0.25),
    e2e("mem_bytes_per_triple", "B", "lower", 0.10),
    e2e("setup_s", "s", "lower", 0.25),
];

/// One line per crate-level stage, timed from outside. A layer that does
/// no work on a workload reports 0 there.
pub const PER_LAYER: [MetricDef; 42] = [
    // Offline pipeline, seconds per pass (also every served workload's
    // cold start, which the harness's own engine build repeats).
    layer("rdf.parse_s", "s"),
    layer_up("rdf.parse_mb_per_s", "MB/s"),
    layer("shacl.parse_s", "s"),
    layer("s3pg.f_st_s", "s"),
    layer("s3pg.phase1_s", "s"),
    layer("s3pg.phase2_s", "s"),
    layer("pg.conformance_s", "s"),
    layer("pg.freeze_s", "s"),
    layer("wal.checkpoint_write_s", "s"),
    // Served read, mean self time per replayed request.
    layer("server.request_decode_us", "us"),
    layer("server.plan_cache_us", "us"),
    layer("server.params_us", "us"),
    layer("query.parse_us", "us"),
    layer("query.plan_us", "us"),
    layer("query.cypher_execute_us", "us"),
    layer("query.sparql_execute_us", "us"),
    layer("query.render_us", "us"),
    layer("server.response_encode_us", "us"),
    layer("bolt.unpack_us", "us"),
    layer("bolt.pack_us", "us"),
    layer("client.decode_us", "us"),
    layer("server.residual_us", "us"),
    layer("query.execute_share", "share"),
    layer_up("server.plan_cache_hits", "count"),
    layer("server.plan_cache_misses", "count"),
    layer("query.rows_examined_per_row", "rows"),
    layer("server.response_bytes_per_row", "B"),
    // Served write, mean self time per replayed update.
    layer("s3pg.incremental_apply_ms", "ms"),
    layer("rdf.mirror_ms", "ms"),
    layer("wal.append_ms", "ms"),
    layer("wal.commit_ms", "ms"),
    layer("pg.conformance_ms", "ms"),
    layer("rdf.clone_ms", "ms"),
    layer("pg.clone_ms", "ms"),
    layer("pg.refreeze_ms", "ms"),
    layer("wal.fsyncs_per_update", "count"),
    layer("wal.bytes_per_delta_byte", "B/B"),
    layer("server.freeze_lag_ms", "ms"),
    // Recovery, seconds per restart.
    layer("wal.recover_checkpoint_load_s", "s"),
    layer("wal.recover_tail_replay_s", "s"),
    // Bookkeeping of the ledger itself.
    layer("unattributed_share", "share"),
    layer("trace.overhead_share", "share"),
];

/// What one run of one workload hands back.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// First few failure descriptions, for the human reading the output.
    pub failures: Vec<String>,
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Sample count and tail behind an end-to-end timing.
    pub summaries: BTreeMap<&'static str, Summary>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Counts that must repeat bit-for-bit under one seed (sizes of the
    /// inputs and outputs; nothing a time-bounded window decides).
    pub exact: Vec<(&'static str, u64)>,
    /// Diagnostics that are printed but never gated.
    pub notes: Vec<String>,
}

/// Failure descriptions kept per run.
const MAX_FAILURES_KEPT: usize = 10;

impl Outcome {
    pub fn fail(&mut self, count: u64, what: impl FnOnce() -> String) {
        if count == 0 {
            return;
        }
        self.failed += count;
        if self.failures.len() < MAX_FAILURES_KEPT {
            self.failures.push(what());
        }
    }

    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            END_TO_END.iter().any(|m| m.name == name),
            "{name} is not an end-to-end metric"
        );
        self.end_to_end.insert(name, value);
    }

    /// Set a timing metric from its samples (median), keeping the count
    /// and tail for the printout.
    pub fn set_timing(&mut self, name: &'static str, samples: &[f64]) -> Result<(), String> {
        let summary = Summary::of(samples).ok_or_else(|| format!("no samples behind {name}"))?;
        self.set(name, summary.p50);
        self.summaries.insert(name, summary);
        Ok(())
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|m| m.name == name),
            "{name} is not a per-layer metric"
        );
        self.per_layer
            .insert(name, if value.is_finite() { value } else { 0.0 });
    }

    /// The driver's result line: `--trace 0` carries every end-to-end
    /// metric, `--trace 1` every per-layer metric.
    pub fn result_json(&self, trace: bool) -> Result<String, String> {
        let defs: &[MetricDef] = if trace { &PER_LAYER } else { &END_TO_END };
        let mut metrics = Vec::new();
        for def in defs {
            let value = if trace {
                self.per_layer.get(def.name).copied().unwrap_or(0.0)
            } else {
                *self
                    .end_to_end
                    .get(def.name)
                    .ok_or_else(|| format!("workload did not report {}", def.name))?
            };
            metrics.push(format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                def.name,
                json_number(value),
                def.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        ))
    }
}

/// A finite number with all its digits (`{}` on f64 round-trips).
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3pg_server::json::{self, Json};

    fn manifest() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        json::parse(&std::fs::read_to_string(path).unwrap()).unwrap()
    }

    fn names(value: &Json) -> Vec<String> {
        value
            .as_array()
            .unwrap()
            .iter()
            .map(|m| m.get("name").unwrap().as_str().unwrap().to_string())
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let manifest = manifest();
        assert_eq!(names(manifest.get("workloads").unwrap()), WORKLOADS);
        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = manifest.get(key).unwrap().as_array().unwrap();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (m, def) in listed.iter().zip(defs) {
                assert_eq!(m.get("name").unwrap().as_str(), Some(def.name));
                assert_eq!(m.get("unit").unwrap().as_str(), Some(def.unit));
                assert_eq!(m.get("better").unwrap().as_str(), Some(def.better));
                assert_eq!(
                    m.get("bound").and_then(Json::as_f64),
                    def.bound,
                    "{}",
                    def.name
                );
            }
        }
    }

    #[test]
    fn result_line_carries_every_metric_of_the_requested_kind() {
        let mut outcome = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        for def in &END_TO_END {
            outcome.set(def.name, 1.25);
        }
        let line = outcome.result_json(false).unwrap();
        let parsed = json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct").unwrap().as_bool(), Some(true));
        assert_eq!(parsed.get("attempted").unwrap().as_u64(), Some(3));
        for def in &END_TO_END {
            let m = parsed.get("metrics").unwrap().get(def.name).unwrap();
            assert_eq!(m.get("value").unwrap().as_f64(), Some(1.25));
            assert_eq!(m.get("unit").unwrap().as_str(), Some(def.unit));
        }
        let traced = json::parse(&outcome.result_json(true).unwrap()).unwrap();
        for def in &PER_LAYER {
            assert!(traced.get("metrics").unwrap().get(def.name).is_some());
        }
        outcome.end_to_end.remove("setup_s");
        assert!(outcome.result_json(false).is_err());
    }
}
