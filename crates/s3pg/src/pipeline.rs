//! End-to-end transformation pipeline with stage timings.
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

use crate::data_transform::{DataTransform, TransformCounters, TransformState};
use crate::metrics::PipelineMetrics;
use crate::mode::Mode;
use crate::parallel::transform_data_with;
use crate::schema_transform::{transform_schema, SchemaTransform};
use s3pg_pg::conformance::{self, ConformanceReport};
use s3pg_pg::csv;
use s3pg_pg::PropertyGraph;
use s3pg_rdf::Graph;
use s3pg_shacl::ShapeSchema;
use std::time::{Duration, Instant};

/// Wall-clock timings of the pipeline stages.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StageTimings {
    /// `F_st` duration.
    pub schema_transform: Duration,
    /// `F_dt` duration (Algorithm 1, both phases).
    pub data_transform: Duration,
}

impl StageTimings {
    /// Total transformation time (the "T" column of Table 4).
    pub fn total(&self) -> Duration {
        self.schema_transform + self.data_transform
    }
}

/// How to run the pipeline: worker-thread count for the sharded phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PipelineConfig {
    /// Phase-2 workers, one subject shard each. `1` is the sequential
    /// case of the same driver: one shard, run inline.
    pub threads: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { threads: 1 }
    }
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
    /// Stage timings.
    pub timings: StageTimings,
    /// Per-phase spans, throughput, and shard statistics.
    pub metrics: PipelineMetrics,
}

/// Run `F_st` then `F_dt` and check conformance: [`transform_with`] at
/// `threads = 1`.
pub fn transform(graph: &Graph, shapes: &ShapeSchema, mode: Mode) -> TransformOutput {
    transform_with(graph, shapes, mode, PipelineConfig::default())
}

/// Run `F_st` then `F_dt` — phase 2 sharded over `config.threads` workers
/// — and check conformance. Phase spans (`schema_transform`, `phase1_nodes`,
/// `phase2_props`, `conformance`) land in [`TransformOutput::metrics`].
pub fn transform_with(
    graph: &Graph,
    shapes: &ShapeSchema,
    mode: Mode,
    config: PipelineConfig,
) -> TransformOutput {
    let (schema, data, timings, mut metrics) = transform_stages(graph, shapes, mode, config);
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
        timings,
        metrics,
    }
}

/// [`transform_with`] without its closing `PG ⊨ S_PG` check: for a caller
/// that changes the graph further (a recovering server replaying its WAL
/// tail) and checks once at the end.
pub fn transform_unchecked(
    graph: &Graph,
    shapes: &ShapeSchema,
    mode: Mode,
    config: PipelineConfig,
) -> (SchemaTransform, DataTransform) {
    let (schema, data, ..) = transform_stages(graph, shapes, mode, config);
    (schema, data)
}

/// `F_st` then `F_dt`, timed and traced.
fn transform_stages(
    graph: &Graph,
    shapes: &ShapeSchema,
    mode: Mode,
    config: PipelineConfig,
) -> (
    SchemaTransform,
    DataTransform,
    StageTimings,
    PipelineMetrics,
) {
    let mut metrics = PipelineMetrics::new(config.threads);

    let t0 = Instant::now();
    let mut schema = {
        let _span = s3pg_obs::tracer().span_here("schema_transform");
        transform_schema(shapes, mode)
    };
    let schema_time = t0.elapsed();
    metrics.record("schema_transform", schema_time, 0, "");

    let t1 = Instant::now();
    let data = transform_data_with(graph, &mut schema, mode, config.threads, &mut metrics);
    let timings = StageTimings {
        schema_transform: schema_time,
        data_transform: t1.elapsed(),
    };
    (schema, data, timings, metrics)
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
        assert!(out.timings.total() > Duration::ZERO);
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
    fn transform_with_reports_metrics_and_matches_sequential() {
        let (g, s) = inputs();
        let seq = transform(&g, &s, Mode::Parsimonious);
        let par = transform_with(&g, &s, Mode::Parsimonious, PipelineConfig { threads: 4 });
        assert_eq!(par.pg.node_count(), seq.pg.node_count());
        assert_eq!(par.pg.edge_count(), seq.pg.edge_count());
        assert!(par.conformance.conforms());
        for phase in [
            "schema_transform",
            "phase1_nodes",
            "phase2_props",
            "conformance",
        ] {
            assert!(par.metrics.phase(phase).is_some(), "missing {phase}");
        }
        assert_eq!(par.metrics.threads, 4);
        assert_eq!(par.metrics.shard_triples.len(), 4);
        assert!(par.metrics.report().contains("shard skew"));
    }
}
