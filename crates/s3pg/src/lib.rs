//! # S3PG — Standardized SHACL Shapes-based Property Graph Transformation
//!
//! A from-scratch implementation of the transformation system described in
//! *"Transforming RDF Graphs to Property Graphs using Standardized
//! Schemas"* (Rabbani, Lissandrini, Bonifati, Hose): lossless, semantics-
//! preserving, monotone conversion of RDF knowledge graphs (with SHACL
//! shape schemas) into property graphs (with PG-Schema).
//!
//! * [`schema_transform`] — `F_st : S_G → S_PG` (Problem 1, §4.1).
//! * [`data_transform`] — `F_dt[F_st] : G → PG`, Algorithm 1 (§4.2), in
//!   parsimonious and non-parsimonious [`Mode`]s.
//! * [`incremental`] — monotone delta application (§4.2.1, §5.4).
//! * [`inverse`] — the computable mappings `M : PG → G` and
//!   `N : S_PG → S_G` witnessing information preservation (Prop. 4.1).
//! * [`query_translate`] — `F_qt`, SPARQL → Cypher over the transformed
//!   graph (§4.3).
//! * [`pipeline`] — end-to-end API with stage timings: parse → `F_st` →
//!   `F_dt` → `PG ⊨ S_PG`, one sequential pass on the calling thread
//!   (`phase2.rs` holds phase 2's classifier and the driver of both
//!   phases).
//! * [`metrics`] — per-phase wall-clock spans, throughput, and phase 2's
//!   table sizes for that pipeline.
//!
//! ```
//! use s3pg::{pipeline::transform, Mode};
//! use s3pg_rdf::parser::parse_turtle;
//! use s3pg_shacl::parser::parse_shacl_turtle;
//!
//! let data = parse_turtle(r#"
//! @prefix : <http://ex/> .
//! :bob a :Student ; :regNo "Bs12" .
//! "#).unwrap();
//! let shapes = parse_shacl_turtle(r#"
//! @prefix sh: <http://www.w3.org/ns/shacl#> .
//! @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
//! @prefix : <http://ex/> .
//! <http://ex/shape/Student> a sh:NodeShape ; sh:targetClass :Student ;
//!     sh:property [ sh:path :regNo ; sh:datatype xsd:string ;
//!                   sh:minCount 1 ; sh:maxCount 1 ] .
//! "#).unwrap();
//! let out = transform(&data, &shapes, Mode::Parsimonious);
//! assert_eq!(out.pg.node_count(), 1);
//! assert!(out.conformance.conforms());
//! ```

pub mod cli;
pub mod data_transform;
pub mod error;
pub mod g2gml;
pub mod incremental;
pub mod inverse;
pub mod mapping;
pub mod metrics;
pub mod mode;
pub mod optimize;
mod phase2;
pub mod pipeline;
pub mod query_translate;
pub mod schema_transform;

pub use data_transform::{transform_data, DataTransform, TransformCounters, TransformState};
pub use error::S3pgError;
pub use mapping::{Handling, Mapping};
pub use mode::Mode;
pub use pipeline::{transform, TransformOutput};
pub use schema_transform::{transform_schema, SchemaTransform};
