//! RDF parsers.
//!
//! * [`ntriples`] — the line-oriented N-Triples format the paper's datasets
//!   ship in; streaming, one triple per line.
//! * [`turtle`] — a practical Turtle subset (prefixes, `a`, `;`/`,` lists,
//!   blank-node property lists `[...]`, RDF collections `(...)`, numeric and
//!   boolean shorthand). Collections are required because SHACL encodes
//!   `sh:or` alternatives as RDF lists.

pub mod ntriples;
pub mod turtle;

pub use ntriples::parse_ntriples;
pub use turtle::parse_turtle;
