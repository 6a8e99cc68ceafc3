//! End-to-end transformation pipeline.
//!
//! Mirrors the measurement methodology of Table 4 of the paper, which
//! separates transformation (T) from loading (L): [`transform`] runs
//! `F_st` + `F_dt`, and [`load`] simulates the DBMS bulk-loading stage by
//! exporting the transformed graph to CSV and re-ingesting it with all
//! indexes rebuilt.
//!
//! A [`TransformOutput`] is not only a batch result: its `pg`, `schema`,
//! and `state` together are the live handle that [`crate::incremental`]
//! (and, on top of it, the `s3pg-server` serving subsystem) keeps
//! mutating as deltas arrive — one-shot and incrementally-maintained
//! outputs stay isomorphic.

use crate::data_transform::{
    transform_data_with, DataTransform, TransformCounters, TransformState,
};
use crate::metrics::PipelineMetrics;
use crate::mode::Mode;
use crate::schema_transform::{transform_schema, SchemaTransform};
use s3pg_pg::conformance::{self, ConformanceReport};
use s3pg_pg::csv;
use s3pg_pg::PropertyGraph;
use s3pg_rdf::Graph;
use s3pg_shacl::ShapeSchema;
use std::time::{Duration, Instant};

/// The argument of [`transform_with`]. The pipeline runs on the calling
/// thread and ignores `threads`; the struct stays only for
/// `benchmark/src/replay.rs` and goes with ROADMAP 1(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Ignored.
    pub threads: usize,
}

/// The result of the full pipeline.
#[derive(Debug, Clone)]
pub struct TransformOutput {
    /// The transformed property graph.
    pub pg: PropertyGraph,
    /// The transformed schema plus name mapping (`F_st`'s output pair).
    pub schema: SchemaTransform,
    /// Mutable state for incremental updates: entity-type table, carrier
    /// bookkeeping, and pending forward references awaiting repair
    /// (`PendingRef`) — required by [`crate::incremental`].
    pub state: TransformState,
    /// What the data pass produced.
    pub counters: TransformCounters,
    /// `PG ⊨ S_PG` check result (Definition 2.6).
    pub conformance: ConformanceReport,
    /// Per-phase spans, throughput, and phase 2's table sizes; Table 4's
    /// "T" is [`PipelineMetrics::transform_wall`].
    pub metrics: PipelineMetrics,
}

/// Run `F_st` then `F_dt` and check conformance, on the calling thread.
/// Phase spans (`schema_transform`, `phase1_nodes`, `phase2_props`,
/// `conformance`) land in [`TransformOutput::metrics`].
pub fn transform(graph: &Graph, shapes: &ShapeSchema, mode: Mode) -> TransformOutput {
    let (schema, data, mut metrics) = transform_stages(graph, shapes, mode);
    let t2 = Instant::now();
    let conformance = {
        let _span = s3pg_obs::tracer().span_here("conformance");
        conformance::check(&data.pg, &schema.pg_schema)
    };
    metrics.record(
        "conformance",
        t2.elapsed(),
        data.pg.node_count() as u64,
        "nodes",
    );

    TransformOutput {
        pg: data.pg,
        schema,
        state: data.state,
        counters: data.counters,
        conformance,
        metrics,
    }
}

/// [`transform`]; `_config` is ignored. Kept only for
/// `benchmark/src/replay.rs`; it goes with ROADMAP 1(b).
#[doc(hidden)]
pub fn transform_with(
    graph: &Graph,
    shapes: &ShapeSchema,
    mode: Mode,
    _config: PipelineConfig,
) -> TransformOutput {
    transform(graph, shapes, mode)
}

/// [`transform`] without its closing `PG ⊨ S_PG` check: for a caller
/// that changes the graph further (a recovering server replaying its WAL
/// tail) and checks once at the end.
pub fn transform_unchecked(
    graph: &Graph,
    shapes: &ShapeSchema,
    mode: Mode,
) -> (SchemaTransform, DataTransform) {
    let (schema, data, ..) = transform_stages(graph, shapes, mode);
    (schema, data)
}

/// `F_st` then `F_dt`, timed and traced.
fn transform_stages(
    graph: &Graph,
    shapes: &ShapeSchema,
    mode: Mode,
) -> (SchemaTransform, DataTransform, PipelineMetrics) {
    let mut metrics = PipelineMetrics::default();

    let t0 = Instant::now();
    let mut schema = {
        let _span = s3pg_obs::tracer().span_here("schema_transform");
        transform_schema(shapes, mode)
    };
    metrics.record("schema_transform", t0.elapsed(), 0, "");

    let data = transform_data_with(graph, &mut schema, mode, &mut metrics);
    (schema, data, metrics)
}

/// Simulate the loading stage: CSV bulk export + indexed re-ingest.
/// Returns the loaded graph and the load duration (the "L" column of
/// Table 4).
pub fn load(pg: &PropertyGraph) -> (PropertyGraph, Duration) {
    let t0 = Instant::now();
    let exported = csv::export(pg);
    let loaded = csv::import(&exported).expect("round-trip of own export cannot fail");
    (loaded, t0.elapsed())
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3pg_rdf::parser::parse_turtle;
    use s3pg_shacl::parser::parse_shacl_turtle;

    fn inputs() -> (Graph, ShapeSchema) {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Student ; :regNo "Bs12" ; :takesCourse :db, "Self Study" .
:db a :Course ; :title "DB" .
"#,
        )
        .unwrap();
        let s = parse_shacl_turtle(
            r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .
shape:Student a sh:NodeShape ; sh:targetClass :Student ;
    sh:property [ sh:path :regNo ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] ;
    sh:property [ sh:path :takesCourse ;
        sh:or ( [ sh:class :Course ] [ sh:datatype xsd:string ] ) ;
        sh:minCount 1 ] .
shape:Course a sh:NodeShape ; sh:targetClass :Course ;
    sh:property [ sh:path :title ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] .
"#,
        )
        .unwrap();
        (g, s)
    }

    #[test]
    fn pipeline_produces_conforming_graph() {
        let (g, s) = inputs();
        let out = transform(&g, &s, Mode::Parsimonious);
        assert!(out.conformance.conforms(), "{:?}", out.conformance.failures);
        assert_eq!(out.pg.node_count(), 2 + 1); // bob, db, "Self Study" carrier
        assert!(out.metrics.transform_wall() > Duration::ZERO);
    }

    #[test]
    fn load_round_trips_counts() {
        let (g, s) = inputs();
        let out = transform(&g, &s, Mode::Parsimonious);
        let (loaded, duration) = load(&out.pg);
        assert_eq!(loaded.node_count(), out.pg.node_count());
        assert_eq!(loaded.edge_count(), out.pg.edge_count());
        assert!(duration > Duration::ZERO);
    }

    #[test]
    fn both_modes_run_end_to_end() {
        let (g, s) = inputs();
        for mode in [Mode::Parsimonious, Mode::NonParsimonious] {
            let out = transform(&g, &s, mode);
            assert!(out.conformance.conforms(), "{mode:?}");
        }
    }

    #[test]
    fn transform_reports_metrics_for_every_phase() {
        let (g, s) = inputs();
        let out = transform(&g, &s, Mode::Parsimonious);
        assert!(out.conformance.conforms());
        for phase in [
            "schema_transform",
            "phase1_nodes",
            "phase2_props",
            "conformance",
        ] {
            assert!(out.metrics.phase(phase).is_some(), "missing {phase}");
        }
        assert!(out.metrics.report().contains("phase 2:"));
    }
}
