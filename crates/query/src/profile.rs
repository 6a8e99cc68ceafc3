//! Operator trees and per-operator execution profiling.
//!
//! Both engines ([`crate::cypher`] and [`crate::sparql`]) can render their
//! execution strategy as a [`PlanNode`] tree — label scans, index probes,
//! adjacency expansions, join order, filters, shaping — without
//! executing anything (`EXPLAIN`), and can thread a [`ProfSink`] through
//! planned evaluation to annotate that same tree with per-operator row
//! counts and wall time (`PROFILE`).
//!
//! Profiling is counted at **stage boundaries** (the length of the row
//! vector an operator hands to the next one), never per row, so profiled
//! evaluation produces bit-identical answers to unprofiled evaluation.
//! The hook is a compile-time type parameter (the crate-private
//! `ProfHook` trait): unprofiled calls instantiate the zero-sized
//! `NoProf` and pay nothing at all —
//! comfortably inside the ≤3% bar the tracing layer holds.
//!
//! Operator identity is a stable string id (`"p0.pat1"`, `"filter"`, …)
//! assigned identically by the explain renderer and the profiled
//! evaluator, so [`PlanNode::annotate`] joins the two by id.

use std::collections::HashMap;
use std::fmt::Arguments;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One operator in a rendered execution plan.
///
/// `rows`/`time_us`/`batches` are `None` for `EXPLAIN` (nothing executed)
/// and filled in by [`PlanNode::annotate`] after a `PROFILE` run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PlanNode {
    /// Operator name, e.g. `NodeByLabelScan`, `Expand`, `Filter`.
    pub op: String,
    /// Stable identity joining explain output to profile records.
    pub id: String,
    /// Operator arguments as ordered key/value pairs (label, key, values…).
    pub args: Vec<(String, String)>,
    /// Rows this operator emitted (profile only).
    pub rows: Option<u64>,
    /// Cumulative time spent in this operator, microseconds (profile only).
    pub time_us: Option<u64>,
    /// Column batches this operator processed on the vectorized path
    /// (profile only; absent for interpreted operators).
    pub batches: Option<u64>,
    /// Input operators (leaf-first execution: children run before parents).
    pub children: Vec<PlanNode>,
}

impl PlanNode {
    /// A new operator node with no args, stats, or children.
    pub fn new(op: impl Into<String>, id: impl Into<String>) -> PlanNode {
        PlanNode {
            op: op.into(),
            id: id.into(),
            ..PlanNode::default()
        }
    }

    /// Append one argument (builder style).
    pub fn arg(mut self, key: impl Into<String>, value: impl Into<String>) -> PlanNode {
        self.args.push((key.into(), value.into()));
        self
    }

    /// Make `self` the input of `parent` and return `parent` — reads as
    /// "this operator feeds that one", matching leaf-first construction.
    pub fn feed(self, mut parent: PlanNode) -> PlanNode {
        parent.children.push(self);
        parent
    }

    /// Fill `rows`/`time_us`/`batches` from `sink` wherever an operator id
    /// has a recorded stat; untouched operators keep `None` (e.g. stages
    /// skipped because an earlier stage produced no rows).
    pub fn annotate(&mut self, sink: &ProfSink) {
        if let Some(stat) = sink.get(&self.id) {
            self.rows = Some(stat.rows);
            self.time_us = Some(stat.time_us);
            if stat.batches > 0 {
                self.batches = Some(stat.batches);
            }
        }
        for child in &mut self.children {
            child.annotate(sink);
        }
    }

    /// The node with operator id `id`, searching pre-order (tests).
    pub fn find(&self, id: &str) -> Option<&PlanNode> {
        if self.id == id {
            return Some(self);
        }
        self.children.iter().find_map(|c| c.find(id))
    }

    /// All operator names in pre-order (tests/assertions).
    pub fn ops(&self) -> Vec<&str> {
        let mut out = Vec::new();
        self.collect_ops(&mut out);
        out
    }

    fn collect_ops<'a>(&'a self, out: &mut Vec<&'a str>) {
        out.push(self.op.as_str());
        for child in &self.children {
            child.collect_ops(out);
        }
    }
}

/// Accumulated execution statistics for one operator id.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct OpStat {
    /// Rows emitted, summed across invocations.
    pub rows: u64,
    /// Cumulative operator time in microseconds.
    pub time_us: u64,
    /// Times the operator ran.
    pub invocations: u64,
    /// Column batches recorded via [`ProfSink::note_batches`] (vectorized
    /// operators only; zero on the interpreted path).
    pub batches: u64,
}

/// A sink collecting per-operator stats during one profiled evaluation.
///
/// Recording takes a mutex, so a sink can be shared by reference across
/// threads, but records happen once per operator stage — never per row —
/// so the lock is cold.
#[derive(Debug, Default)]
pub struct ProfSink {
    stats: Mutex<HashMap<String, OpStat>>,
}

impl ProfSink {
    /// An empty sink.
    pub fn new() -> ProfSink {
        ProfSink::default()
    }

    /// Record one operator invocation: `rows` emitted in `elapsed`.
    pub fn record(&self, id: &str, rows: u64, elapsed: Duration) {
        let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        let stat = stats.entry(id.to_string()).or_default();
        stat.rows += rows;
        stat.time_us += u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        stat.invocations += 1;
    }

    /// Record that operator `id` processed `n` column batches (the
    /// vectorized physical path).
    pub fn note_batches(&self, id: &str, n: u64) {
        let mut stats = self.stats.lock().unwrap_or_else(|e| e.into_inner());
        stats.entry(id.to_string()).or_default().batches += n;
    }

    /// The accumulated stat for `id`, if any invocation recorded.
    pub fn get(&self, id: &str) -> Option<OpStat> {
        self.stats
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(id)
            .copied()
    }

    /// Number of distinct operator ids recorded (tests).
    pub fn len(&self) -> usize {
        self.stats.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Compile-time profiling hook threaded through both evaluators.
///
/// The unprofiled path instantiates the zero-sized [`NoProf`], so every
/// stage-boundary instrumentation site monomorphizes to *nothing* — the
/// disabled-profiling code is instruction-identical to an evaluator with
/// no instrumentation at all. The profiled path instantiates a sink-backed
/// hook. Operator ids are passed as [`Arguments`] so the disabled path
/// never formats a string.
pub(crate) trait ProfHook: Copy {
    /// Stage start mark — `None` when profiling is off.
    fn begin(self) -> Option<Instant>;
    /// Record `rows` emitted by stage `id` since `started`.
    fn record(self, id: Arguments<'_>, rows: usize, started: Option<Instant>);
    /// Record that stage `id` processed `batches` column batches
    /// (vectorized operators only).
    fn note_batches(self, id: Arguments<'_>, batches: usize);
}

/// The disabled hook: all methods compile away.
#[derive(Clone, Copy)]
pub(crate) struct NoProf;

impl ProfHook for NoProf {
    #[inline(always)]
    fn begin(self) -> Option<Instant> {
        None
    }
    #[inline(always)]
    fn record(self, _id: Arguments<'_>, _rows: usize, _started: Option<Instant>) {}
    #[inline(always)]
    fn note_batches(self, _id: Arguments<'_>, _batches: usize) {}
}

/// The enabled hook with unprefixed ids (the SPARQL engine).
impl ProfHook for &ProfSink {
    fn begin(self) -> Option<Instant> {
        Some(Instant::now())
    }
    fn record(self, id: Arguments<'_>, rows: usize, started: Option<Instant>) {
        let elapsed = started.map(|s| s.elapsed()).unwrap_or_default();
        ProfSink::record(self, &id.to_string(), rows as u64, elapsed);
    }
    fn note_batches(self, id: Arguments<'_>, batches: usize) {
        ProfSink::note_batches(self, &id.to_string(), batches as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn annotate_joins_stats_by_id() {
        let sink = ProfSink::new();
        sink.record("scan", 10, Duration::from_micros(5));
        sink.record("scan", 7, Duration::from_micros(3));
        sink.note_batches("scan", 2);
        let mut tree = PlanNode::new("NodeByLabelScan", "scan")
            .arg("label", "Person")
            .feed(PlanNode::new("Filter", "filter"));
        tree.annotate(&sink);
        let scan = tree.find("scan").unwrap();
        assert_eq!(scan.rows, Some(17));
        assert_eq!(scan.time_us, Some(8));
        assert_eq!(scan.batches, Some(2));
        // Unrecorded operators stay unannotated.
        assert_eq!(tree.rows, None);
        assert_eq!(tree.ops(), ["Filter", "NodeByLabelScan"]);
    }

    #[test]
    fn sink_accumulates_across_threads() {
        let sink = ProfSink::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| sink.record("op", 3, Duration::from_micros(1)));
            }
        });
        let stat = sink.get("op").unwrap();
        assert_eq!(stat.rows, 12);
        assert_eq!(stat.invocations, 4);
    }
}
