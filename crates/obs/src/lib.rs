//! Unified observability for the S3PG workspace: metrics, tracing, and
//! memory accounting — std-only, zero dependencies, lock-free on every
//! hot path.
//!
//! Three facilities, threaded through every layer of the system:
//!
//! - **Metrics** ([`metrics`], [`registry`]): atomic [`Counter`]s,
//!   [`Gauge`]s, and log-bucket [`Histogram`]s collected in a named
//!   [`Registry`] and rendered with [`Registry::expose`] in the
//!   Prometheus text format. The pipeline, the incremental maintainer,
//!   the query engines, and the serving worker pool all report through
//!   this one interface; [`parse_exposition`] validates the output.
//! - **Tracing** ([`trace`]): per-run/per-request trace IDs and
//!   begin/end span events in a lock-free ring ([`Tracer`]), exportable
//!   as JSONL. A transform decomposes into
//!   `parse → schema_transform → phase1_nodes → phase2_props →
//!   conformance`, a served request into
//!   `request → decode → execute → serialize`. The process-global
//!   [`tracer()`] is disabled (one atomic load per span) until a
//!   consumer — `--trace-out`, the server — switches it on.
//! - **Memory accounting** ([`mem`]): deep-size building blocks the
//!   store crates use to estimate the resident footprint of the term
//!   interner, the triple indexes, and the property graph, published as
//!   gauges at snapshot time.

pub mod mem;
pub mod metrics;
pub mod registry;
pub mod trace;

pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, HISTOGRAM_BUCKETS};
pub use registry::{family_of, parse_exposition, Registry, Sample};
pub use trace::{
    validate_span_tree, EventKind, SpanGuard, TraceEvent, Tracer, DEFAULT_RING_CAPACITY,
};

use std::sync::OnceLock;

/// The process-global tracer. Disabled until a consumer calls
/// `tracer().set_enabled(true)`; events from independent runs/requests
/// coexist in the ring and are separated by trace ID.
pub fn tracer() -> &'static Tracer {
    static TRACER: OnceLock<Tracer> = OnceLock::new();
    TRACER.get_or_init(Tracer::default)
}
