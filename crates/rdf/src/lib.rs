//! RDF data model and triple store for the S3PG system.
//!
//! This crate provides the *source* data model of the transformation pipeline
//! described in the paper *"Transforming RDF Graphs to Property Graphs using
//! Standardized Schemas"*:
//!
//! * interned [`Term`]s (IRIs, blank nodes, typed literals) backed by an
//!   [`Interner`] so that triples are three machine words,
//! * an indexed, set-semantics triple store [`Graph`] (Definition 2.1 of the
//!   paper) with subject/predicate/object indexes and pattern matching,
//! * streaming [N-Triples](parser::ntriples) and a practical
//!   [Turtle subset](parser::turtle) parser plus serializers,
//! * the RDF/RDFS/XSD/SHACL [vocabulary](vocab) used throughout the system,
//! * dataset [statistics](stats) matching Table 2 of the paper,
//! * a dependency-free deterministic [xorshift generator](rng) powering the
//!   workload generators and randomized test suites in an offline build,
//! * compile-time-tabled [CRC-32 checksums](crc32) framing the durability
//!   layer's write-ahead-log records and checkpoint files.
//!
//! # Example
//!
//! ```
//! use s3pg_rdf::{Graph, Term};
//!
//! let mut g = Graph::new();
//! let alice = g.intern_iri("http://example.org/alice");
//! let knows = g.intern_iri("http://example.org/knows");
//! let bob = g.intern_iri("http://example.org/bob");
//! g.insert(alice, knows, bob);
//! assert_eq!(g.len(), 1);
//! assert!(g.contains(alice, knows, bob));
//! ```

pub mod crc32;
pub mod error;
pub mod fxhash;
pub mod graph;
pub mod interner;
pub mod parser;
pub mod rng;
pub mod serializer;
pub mod stats;
mod table;
pub mod term;
pub mod vocab;

pub use error::RdfError;
pub use graph::{Graph, Triple};
pub use interner::{Interner, Sym};
pub use stats::DatasetStats;
pub use term::{Literal, Term};
