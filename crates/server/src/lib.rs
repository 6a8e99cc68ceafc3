//! # `s3pg-serve` — a concurrent graph-serving subsystem
//!
//! Serves the transformed property graph *and* the source RDF store over
//! one std-only multi-threaded TCP server, turning the batch pipeline into
//! the unified RDF+PG serving scenario the paper's incremental result
//! (§4.2.1) enables: Cypher and SPARQL reads answer from immutable
//! snapshots while N-Triples deltas stream through the monotonic update
//! path — no re-transformation, no downtime.
//!
//! With `--wal-dir` the server is also *durable*: every acknowledged
//! update is fsynced to a write-ahead log of N-Triples deltas
//! ([`s3pg_wal`]) before the ack, periodic checkpoints bound restart
//! time, and read replicas (`--replica-of`) follow the primary's
//! committed log — all riding on the same monotonicity property
//! (F(G∪Δ) = F(G)∪F(Δ)) that powers the incremental update path.
//!
//! With `--bolt-addr` the same store is also served over a subset of
//! the Bolt protocol (the Neo4j wire protocol), so stock drivers and
//! `cypher-shell` can run parameterized Cypher against the transformed
//! graph; both listeners share one dispatch — validation, parameter
//! conversion, plan cache, row rendering — so answers are identical by
//! construction.
//!
//! * [`json`] — dependency-free JSON for the wire protocol.
//! * [`protocol`] — line-delimited JSON requests/responses with *typed*
//!   error frames (`bad_request`, `parse`, `query`, `overloaded`,
//!   `shutting_down`, `internal`, `recovering`, `read_only`); `cypher`
//!   and `sparql` carry an optional `params` object binding `$name`
//!   references.
//! * [`params`] — wire parameters → engine bindings, plus the strict
//!   undeclared/unused/duplicate validation both listeners share.
//! * `bolt` (private) — the Bolt listener: thread-per-session accept
//!   loop and the RUN/PULL state machine over the [`s3pg_bolt`] codec,
//!   funneling into the same dispatch as the JSON listener.
//! * [`store`] — `RwLock`-published `Arc` snapshots for lock-free reads;
//!   a mutex-serialized writer applying deltas via [`s3pg::incremental`],
//!   logging each applied delta to the WAL and group-committing outside
//!   the write lock.
//! * [`plan_cache`] — normalized-text → parsed AST + epoch-tagged query
//!   plan; repeat queries skip parse and planning entirely.
//! * `query_stats` (private) — the per-query statistics registry keyed on
//!   the plan-cache's normalized text: calls, errors, rows, latency
//!   quantiles, per-listener counts, and the last rendered operator tree,
//!   served by the `query_stats` endpoint and the `s3pg_query_*` series.
//! * [`server`] — fixed worker pool, bounded accept queue with load
//!   shedding, per-endpoint request/error/latency metrics and per-request
//!   trace spans built on [`s3pg_obs`], a slow-query log, graceful drain
//!   on `shutdown`/signal, deferred store install (typed `recovering`
//!   frames while the WAL replays), and the `replicate`/`wal` endpoints.
//! * [`recovery`] — boot-time checkpoint load + WAL tail replay.
//! * [`replica`] — the read replica's pull-and-apply loop.
//! * [`client`] — blocking typed client (the replica and the tests).
//! * [`cli`] — argument parsing/startup for the `s3pg-serve` binary.
//!
//! ```no_run
//! use s3pg_server::{server, store::GraphStore, client::Client, protocol::Request};
//! use s3pg::Mode;
//!
//! let rdf = s3pg_rdf::parser::parse_turtle("…").unwrap();
//! let shapes = s3pg_shacl::extract_shapes(&rdf);
//! let store = GraphStore::new(rdf, &shapes, Mode::Parsimonious);
//! let handle = server::serve("127.0.0.1:0", store, Default::default()).unwrap();
//! let mut client = Client::connect(&handle.addr.to_string()).unwrap();
//! let pong = client.call(&Request::Ping).unwrap();
//! ```

mod bolt;
pub mod cli;
pub mod client;
pub mod json;
pub mod params;
pub mod plan_cache;
pub mod protocol;
mod query_stats;
pub mod recovery;
pub mod replica;
pub mod server;
pub mod store;

pub use client::Client;
pub use protocol::{ErrorKind, Request, Response};
pub use server::{serve, serve_deferred, ServerConfig, ServerHandle, SlowQuery, StoreInstaller};
pub use store::GraphStore;
