//! Per-phase pipeline metrics: wall-clock spans, throughput, and the size
//! of phase 2's memo tables.
//!
//! The offline pipeline (parse → `F_st` → phase 1 → phase 2 →
//! conformance) reports one [`PhaseSpan`] per phase, measured with
//! [`std::time::Instant`] around each stage.
//!
//! This module renders the per-run report two ways: the human-readable
//! [`PipelineMetrics::report`] and the machine-readable
//! [`PipelineMetrics::to_json`] that `s3pg-convert --metrics` writes. A
//! server's boot is timed by its own `s3pg_boot_step_seconds` gauges. The
//! general-purpose primitives that used to live here — atomic counters,
//! latency histograms, endpoint metrics — are the `s3pg-obs` crate's
//! [`s3pg_obs::Counter`]/[`s3pg_obs::Histogram`], shared by every layer.

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
    /// Timed phases in execution order.
    pub phases: Vec<PhaseSpan>,
    /// Distinct node-type sets the pass met, and distinct `(type set,
    /// predicate)` pairs it resolved to an encoding — the sizes of phase
    /// 2's two memo tables. This *schema width*, not
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

    /// Human-readable multi-line report.
    pub fn report(&self) -> String {
        self.to_string()
    }

    /// Machine-readable JSON summary: per-phase wall/items/throughput and
    /// phase 2's table sizes and items. One object, no trailing newline;
    /// `s3pg-convert --metrics` writes it to `metrics.json`.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"phases\":[");
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
            "],\"total_wall_micros\":{},\"type_sets\":{},\"resolved_pairs\":{},\"phase2_items\":{{",
            self.total_wall().as_micros(),
            self.type_sets,
            self.resolved_pairs
        );
        for (i, (encoding, n)) in self.phase2_items.by_encoding().iter().enumerate() {
            let _ = write!(s, "{}\"{encoding}\":{n}", if i > 0 { "," } else { "" });
        }
        s.push_str("}}");
        s
    }
}

impl fmt::Display for PipelineMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "pipeline metrics")?;
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
    fn report_includes_phases_and_throughput() {
        let mut m = PipelineMetrics::default();
        m.record("parse", Duration::from_millis(100), 1_000_000, "triples");
        m.record("phase2_edges", Duration::from_millis(50), 0, "triples");
        let report = m.report();
        assert!(report.contains("parse"), "{report}");
        assert!(report.contains("triples"), "{report}");
        assert!(!report.contains("thread"), "{report}");
        assert!(m.phase("parse").is_some());
        assert!(m.phase("missing").is_none());
        assert!(m.total_wall() >= Duration::from_millis(150));
    }

    #[test]
    fn json_summary_is_complete_and_parseable() {
        let mut m = PipelineMetrics::default();
        m.record("parse", Duration::from_millis(10), 500, "triples");
        m.record("phase2_props", Duration::from_millis(5), 250, "triples");
        m.type_sets = 3;
        m.resolved_pairs = 17;
        m.phase2_items = EncodingCounts {
            key_values: 120,
            edges: 90,
            carriers: 40,
        };
        let json = m.to_json();
        assert!(
            json.starts_with("{\"phases\":[") && json.ends_with('}'),
            "{json}"
        );
        assert!(json.contains("\"name\":\"parse\""), "{json}");
        assert!(json.contains("\"wall_micros\":10000"), "{json}");
        assert!(json.contains("\"items\":500"), "{json}");
        assert!(json.contains("\"per_second\":50000.0"), "{json}");
        assert!(json.contains("\"total_wall_micros\":15000"), "{json}");
        assert!(
            json.ends_with(
                "\"type_sets\":3,\"resolved_pairs\":17,\
                 \"phase2_items\":{\"key_value\":120,\"edge\":90,\"carrier\":40}}"
            ),
            "{json}"
        );
    }
}
