//! Property graphs and PG-Schema for the S3PG system.
//!
//! This crate is the *target* side of the transformation pipeline of the
//! paper *"Transforming RDF Graphs to Property Graphs using Standardized
//! Schemas"*:
//!
//! * the [`graph`] module implements the property-graph model of
//!   Definition 2.4 — multi-labelled nodes and edges with key/value records —
//!   with label, adjacency, and IRI indexes,
//! * [`value`] provides typed property values and the XSD ↔ content-type
//!   mapping,
//! * [`schema`] implements PG-Schema (Definition 2.5): PG-Types (node and
//!   edge types, hierarchies) and PG-Keys (COUNT qualifiers),
//! * [`conformance`] checks `PG ⊨ S_PG` per Definition 2.6,
//! * [`ddl`] renders schemas in the Figure 5 DDL style,
//! * [`csv`] bulk-exports and re-ingests graphs, standing in for the
//!   Neo4j loading stage of the paper's Table 4,
//! * [`stats`] computes the Table 5 statistics,
//! * [`compact`] freezes a graph into the read-optimized [`CompactGraph`]
//!   snapshot the server's hot path serves from, and [`snapshot`] gives
//!   that frozen form a checksummed binary serialization so durability
//!   checkpoints can reload it without re-freezing.

pub mod compact;
pub mod conformance;
pub mod csv;
pub mod ddl;
pub mod ddl_parse;
pub mod graph;
pub mod read;
pub mod schema;
pub mod snapshot;
pub mod stats;
pub mod value;
pub mod yarspg;

pub use compact::{CValue, CompactGraph};
pub use conformance::{check, check_since, CheckScope, ConformanceReport, NonConformance};
pub use ddl_parse::parse_ddl;
pub use graph::{Edge, EdgeId, Node, NodeId, PropertyGraph, Touched, IRI_KEY, VALUE_KEY};
pub use read::PgRead;
pub use schema::{CountKey, EdgeType, NodeType, NodeTypeKind, PgSchema, PropertySpec};
pub use stats::PgStats;
pub use value::{ContentType, Scalar, Value};
