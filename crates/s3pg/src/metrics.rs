//! Per-phase pipeline metrics: wall-clock spans, throughput, and shard
//! balance for the parallel transformation.
//!
//! The parallel pipeline (parse → `F_st` → phase 1 → phase 2 →
//! conformance) reports one [`PhaseSpan`] per phase, measured with
//! [`std::time::Instant`] around each stage. Shard balance is summarized
//! as *skew* — the ratio of the largest shard to the mean shard — because
//! a hash-sharded pipeline's wall-clock is bounded by its fullest shard.
//!
//! This module renders the per-run report two ways: the human-readable
//! [`PipelineMetrics::report`] and the machine-readable
//! [`PipelineMetrics::to_json`] consumed by `scripts/run-experiments`.
//! [`PipelineMetrics::export_to`] additionally publishes the same numbers
//! as gauges on an [`s3pg_obs::Registry`], which is how a long-lived
//! `s3pg-serve` exposes its initial-transform cost over the `metrics`
//! endpoint. The general-purpose primitives that used to live here —
//! atomic counters, latency histograms, endpoint metrics — are now the
//! `s3pg-obs` crate's [`s3pg_obs::Counter`]/[`s3pg_obs::Histogram`],
//! shared by every layer.

use std::fmt;
use std::fmt::Write as _;
use std::time::Duration;

/// One timed pipeline phase: name, wall-clock, and how many items it
/// processed (for throughput).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseSpan {
    pub name: &'static str,
    pub wall: Duration,
    /// Items processed (triples, nodes, edges — see the phase name).
    pub items: u64,
    /// Unit of `items`, for the report ("triples", "nodes", ...).
    pub unit: &'static str,
}

impl PhaseSpan {
    /// Items per second, or 0 if the span was too short to measure.
    pub fn per_second(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.items as f64 / secs
        } else {
            0.0
        }
    }
}

/// Metrics of one pipeline run.
#[derive(Debug, Clone, Default)]
pub struct PipelineMetrics {
    /// Worker threads the sharded phases ran with (1 = sequential).
    pub threads: usize,
    /// Timed phases in execution order.
    pub phases: Vec<PhaseSpan>,
    /// Phase-2 statements processed per shard; one entry at `threads = 1`.
    pub shard_triples: Vec<u64>,
    /// Distinct node-type sets the pass met, and distinct `(type set,
    /// predicate)` pairs it resolved to an encoding — the sizes of phase
    /// 2's two memo tables (the largest shard's). This *schema width*, not
    /// the node count, is what per-statement work is amortised over.
    pub type_sets: usize,
    pub resolved_pairs: usize,
    /// Phase-2 items by encoding.
    pub phase2_items: EncodingCounts,
}

/// What phase 2 produced, split by how Algorithm 1 encoded it: key/value
/// properties (lines 21–23), edges between entity nodes (lines 16–20), and
/// literal-carrier nodes with their edge (lines 24–31).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EncodingCounts {
    pub key_values: u64,
    pub edges: u64,
    pub carriers: u64,
}

impl EncodingCounts {
    /// `(encoding label, count)` in report order.
    pub fn by_encoding(&self) -> [(&'static str, u64); 3] {
        [
            ("key_value", self.key_values),
            ("edge", self.edges),
            ("carrier", self.carriers),
        ]
    }
}

impl PipelineMetrics {
    /// Create metrics for a run with `threads` workers.
    pub fn new(threads: usize) -> Self {
        PipelineMetrics {
            threads: threads.max(1),
            ..Default::default()
        }
    }

    /// Record a completed phase.
    pub fn record(&mut self, name: &'static str, wall: Duration, items: u64, unit: &'static str) {
        self.phases.push(PhaseSpan {
            name,
            wall,
            items,
            unit,
        });
    }

    /// Look up a phase by name.
    pub fn phase(&self, name: &str) -> Option<&PhaseSpan> {
        self.phases.iter().find(|p| p.name == name)
    }

    /// Sum of all recorded phase wall-clocks.
    pub fn total_wall(&self) -> Duration {
        self.phases.iter().map(|p| p.wall).sum()
    }

    /// Largest shard over mean shard (1.0 = perfectly balanced; 1.0 also
    /// when the run was sequential or processed nothing).
    pub fn shard_skew(&self) -> f64 {
        let max = self.shard_triples.iter().copied().max().unwrap_or(0);
        let sum: u64 = self.shard_triples.iter().sum();
        if max == 0 {
            return 1.0;
        }
        let mean = sum as f64 / self.shard_triples.len() as f64;
        max as f64 / mean
    }

    /// Human-readable multi-line report.
    pub fn report(&self) -> String {
        self.to_string()
    }

    /// Machine-readable JSON summary: per-phase wall/items/throughput,
    /// shard statement counts, and skew. One object, no trailing newline;
    /// consumed by `scripts/run-experiments` and the CI obs smoke step.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{");
        let _ = write!(s, "\"threads\":{},\"phases\":[", self.threads);
        for (i, p) in self.phases.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(
                s,
                "{{\"name\":\"{}\",\"wall_micros\":{},\"items\":{},\"unit\":\"{}\",\"per_second\":{:.1}}}",
                p.name,
                p.wall.as_micros(),
                p.items,
                p.unit,
                p.per_second()
            );
        }
        let _ = write!(
            s,
            "],\"total_wall_micros\":{},\"shard_triples\":[",
            self.total_wall().as_micros()
        );
        for (i, n) in self.shard_triples.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let _ = write!(s, "{n}");
        }
        let _ = write!(
            s,
            "],\"shard_skew\":{:.4},\"type_sets\":{},\"resolved_pairs\":{},\"phase2_items\":{{",
            self.shard_skew(),
            self.type_sets,
            self.resolved_pairs
        );
        for (i, (encoding, n)) in self.phase2_items.by_encoding().iter().enumerate() {
            let _ = write!(s, "{}\"{encoding}\":{n}", if i > 0 { "," } else { "" });
        }
        s.push_str("}}");
        s
    }

    /// Publish this run's numbers as gauges on `registry`:
    /// `s3pg_phase_wall_microseconds{phase=…}`, `s3pg_phase_items{phase=…}`,
    /// `s3pg_pipeline_threads`, `s3pg_shard_skew`, `s3pg_pass_type_sets`,
    /// `s3pg_pass_resolved_pairs` and `s3pg_phase2_items{encoding=…}`.
    pub fn export_to(&self, registry: &s3pg_obs::Registry) {
        for p in &self.phases {
            registry
                .gauge(&format!(
                    "s3pg_phase_wall_microseconds{{phase=\"{}\"}}",
                    p.name
                ))
                .set_u64(u64::try_from(p.wall.as_micros()).unwrap_or(u64::MAX));
            registry
                .gauge(&format!("s3pg_phase_items{{phase=\"{}\"}}", p.name))
                .set_u64(p.items);
        }
        registry
            .gauge("s3pg_pipeline_threads")
            .set_u64(self.threads as u64);
        registry.gauge("s3pg_shard_skew").set(self.shard_skew());
        registry
            .gauge("s3pg_pass_type_sets")
            .set_u64(self.type_sets as u64);
        registry
            .gauge("s3pg_pass_resolved_pairs")
            .set_u64(self.resolved_pairs as u64);
        for (encoding, n) in self.phase2_items.by_encoding() {
            registry
                .gauge(&format!("s3pg_phase2_items{{encoding=\"{encoding}\"}}"))
                .set_u64(n);
        }
    }
}

impl fmt::Display for PipelineMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pipeline metrics ({} thread(s))", self.threads)?;
        for p in &self.phases {
            write!(f, "  {:<18} {:>12}", p.name, format_duration(p.wall))?;
            if p.items > 0 {
                write!(
                    f,
                    "  {:>10} {:<8} {:>10}/s",
                    p.items,
                    p.unit,
                    format_rate(p.per_second())
                )?;
            }
            writeln!(f)?;
        }
        writeln!(
            f,
            "  {:<18} {:>12}",
            "total",
            format_duration(self.total_wall())
        )?;
        if self.resolved_pairs > 0 {
            let items = self.phase2_items;
            writeln!(
                f,
                "  phase 2: {} key/values, {} edges, {} carriers over {} type sets, {} (type set, predicate) pairs",
                items.key_values, items.edges, items.carriers, self.type_sets, self.resolved_pairs
            )?;
        }
        if !self.shard_triples.is_empty() {
            let max = self.shard_triples.iter().copied().max().unwrap_or(0);
            writeln!(
                f,
                "  shard skew {:.2} (max {} statements over {} shards)",
                self.shard_skew(),
                max,
                self.shard_triples.len()
            )?;
        }
        Ok(())
    }
}

fn format_duration(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 10_000 {
        format!("{ns}ns")
    } else if ns < 10_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 10_000_000_000 {
        format!("{:.1}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

fn format_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.2}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}k", r / 1e3)
    } else {
        format!("{r:.0}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_of_balanced_shards_is_one() {
        let mut m = PipelineMetrics::new(4);
        m.shard_triples = vec![100, 100, 100, 100];
        assert!((m.shard_skew() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn skew_reflects_imbalance() {
        let mut m = PipelineMetrics::new(2);
        m.shard_triples = vec![300, 100];
        assert!((m.shard_skew() - 1.5).abs() < 1e-9);
    }

    #[test]
    fn skew_defaults_to_one_when_empty() {
        assert_eq!(PipelineMetrics::new(1).shard_skew(), 1.0);
        let mut m = PipelineMetrics::new(2);
        m.shard_triples = vec![0, 0];
        assert_eq!(m.shard_skew(), 1.0);
    }

    #[test]
    fn report_includes_phases_and_throughput() {
        let mut m = PipelineMetrics::new(8);
        m.record("parse", Duration::from_millis(100), 1_000_000, "triples");
        m.record("phase2_edges", Duration::from_millis(50), 0, "triples");
        m.shard_triples = vec![10, 20];
        let report = m.report();
        assert!(report.contains("8 thread(s)"), "{report}");
        assert!(report.contains("parse"), "{report}");
        assert!(report.contains("triples"), "{report}");
        assert!(report.contains("shard skew"), "{report}");
        assert!(m.phase("parse").is_some());
        assert!(m.phase("missing").is_none());
        assert!(m.total_wall() >= Duration::from_millis(150));
    }

    #[test]
    fn json_summary_is_complete_and_parseable() {
        let mut m = PipelineMetrics::new(2);
        m.record("parse", Duration::from_millis(10), 500, "triples");
        m.record("phase2_props", Duration::from_millis(5), 250, "triples");
        m.shard_triples = vec![150, 100];
        m.type_sets = 3;
        m.resolved_pairs = 17;
        m.phase2_items = EncodingCounts {
            key_values: 120,
            edges: 90,
            carriers: 40,
        };
        let json = m.to_json();
        assert!(json.starts_with('{') && json.ends_with('}'), "{json}");
        assert!(json.contains("\"threads\":2"), "{json}");
        assert!(json.contains("\"name\":\"parse\""), "{json}");
        assert!(json.contains("\"wall_micros\":10000"), "{json}");
        assert!(json.contains("\"items\":500"), "{json}");
        assert!(json.contains("\"per_second\":50000.0"), "{json}");
        assert!(json.contains("\"shard_triples\":[150,100]"), "{json}");
        assert!(json.contains("\"shard_skew\":1.2000"), "{json}");
        assert!(json.contains("\"total_wall_micros\":15000"), "{json}");
        assert!(
            json.ends_with(
                "\"type_sets\":3,\"resolved_pairs\":17,\
                 \"phase2_items\":{\"key_value\":120,\"edge\":90,\"carrier\":40}}"
            ),
            "{json}"
        );
    }

    #[test]
    fn registry_export_publishes_phase_gauges() {
        let mut m = PipelineMetrics::new(4);
        m.record("phase1_nodes", Duration::from_millis(3), 42, "nodes");
        m.shard_triples = vec![30, 10];
        m.type_sets = 5;
        m.phase2_items.carriers = 9;
        let registry = s3pg_obs::Registry::new();
        m.export_to(&registry);
        let text = registry.expose();
        let samples = s3pg_obs::parse_exposition(&text).unwrap();
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing {name} in:\n{text}"))
                .value
        };
        assert_eq!(
            get("s3pg_phase_wall_microseconds{phase=\"phase1_nodes\"}"),
            3000.0
        );
        assert_eq!(get("s3pg_phase_items{phase=\"phase1_nodes\"}"), 42.0);
        assert_eq!(get("s3pg_pipeline_threads"), 4.0);
        assert_eq!(get("s3pg_shard_skew"), 1.5);
        assert_eq!(get("s3pg_pass_type_sets"), 5.0);
        assert_eq!(get("s3pg_pass_resolved_pairs"), 0.0);
        assert_eq!(get("s3pg_phase2_items{encoding=\"carrier\"}"), 9.0);
        assert_eq!(get("s3pg_phase2_items{encoding=\"edge\"}"), 0.0);
    }
}
