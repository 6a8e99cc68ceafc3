//! The concurrent TCP server: fixed worker pool, bounded accept queue,
//! load shedding, per-endpoint metrics, graceful shutdown.
//!
//! ## Threading model
//!
//! One *acceptor* thread polls a non-blocking [`TcpListener`]. Accepted
//! connections go into a bounded queue; when the queue is full the
//! acceptor *sheds load* — it writes one typed `overloaded` error frame
//! and closes the connection, so a saturated server degrades with explicit
//! rejections instead of unbounded queueing or hangs. A fixed pool of
//! *worker* threads pops connections and serves them to completion
//! (line-delimited JSON, one request per line, one response per line).
//!
//! ## Read/write paths
//!
//! Workers answer `cypher`/`sparql` against an immutable
//! [`GraphStore`] snapshot (no lock held while the query runs) and route
//! `update` frames through the store's serialized monotonic write path.
//! Handler panics are caught per request and surfaced as typed `internal`
//! error frames — one bad request can never take down the server.
//!
//! ## Shutdown
//!
//! A `shutdown` request (or [`ServerHandle::shutdown`], or the binary's
//! signal handler) flips a shared flag. The acceptor stops accepting,
//! workers finish the request in flight on their current connection, any
//! queued-but-unserved connections receive a typed `shutting_down` frame,
//! and [`ServerHandle::join`] returns once every thread has exited.

use crate::json::Json;
use crate::params;
use crate::plan_cache::{CachedCypher, CachedEntry, CachedSparql, PlanCache};
use crate::protocol::{plan_to_json, write_frame, ErrorFrame, ErrorKind, Request, Response};
use crate::query_stats::QueryStats;
use crate::store::GraphStore;
use s3pg::S3pgError;
use s3pg_obs::{tracer, Counter, Histogram, Registry};
use s3pg_pg::PgRead;
use s3pg_query::profile::ProfSink;
use s3pg_query::{cypher, render_term, render_value, sparql};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, ErrorKind as IoErrorKind};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Server tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads (each serves one connection at a time).
    pub workers: usize,
    /// Accepted connections that may wait for a worker before the server
    /// starts shedding load.
    pub queue_capacity: usize,
    /// Requests slower than this land in the slow-query log (endpoint,
    /// query text, per-stage timings, rows returned). `None` disables the
    /// log; `Some(Duration::ZERO)` logs every request.
    pub slow_query_threshold: Option<Duration>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            workers: 4,
            queue_capacity: 64,
            slow_query_threshold: None,
        }
    }
}

/// How many entries the slow-query log retains (oldest evicted first).
const SLOW_QUERY_CAPACITY: usize = 128;

/// How often blocked threads re-check the shutdown flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// How often the acceptor polls the nonblocking listener. Much tighter
/// than [`POLL_INTERVAL`]: this bounds the latency of a connection's
/// *first* request (accept → queue → worker pickup), which would
/// otherwise show up as a multi-millisecond p99 artifact under load.
pub(crate) const ACCEPT_POLL: Duration = Duration::from_millis(1);

/// Obs handles for one endpoint, resolved once at startup so the hot
/// path never touches the registry's name maps.
struct EndpointHandles {
    requests: Arc<Counter>,
    errors: Arc<Counter>,
    latency: Arc<Histogram>,
}

/// The two snapshot forms a Cypher evaluation can run on: the frozen
/// compact graph, or the mutable graph in the window after an update
/// publishes and before its freeze lands. Slow-query entries and
/// `s3pg_cypher_evaluations_total{form}` name them with these strings.
const FORMS: [&str; 2] = ["compact", "mutable"];

/// Per-endpoint metric handles, in [`Request::ENDPOINTS`] order, backed
/// by the store's [`Registry`].
struct ServerMetrics {
    endpoints: Vec<(&'static str, EndpointHandles)>,
    /// `s3pg_cypher_evaluations_total{form}`, in [`FORMS`] order.
    cypher_evaluations: [Arc<Counter>; 2],
}

impl ServerMetrics {
    fn new(registry: &Registry) -> Self {
        ServerMetrics {
            cypher_evaluations: FORMS.map(|form| {
                registry.counter(&format!("s3pg_cypher_evaluations_total{{form=\"{form}\"}}"))
            }),
            endpoints: Request::ENDPOINTS
                .iter()
                .map(|&name| {
                    let series = |family: &str| format!("{family}{{endpoint=\"{name}\"}}");
                    (
                        name,
                        EndpointHandles {
                            requests: registry.counter(&series("s3pg_requests_total")),
                            errors: registry.counter(&series("s3pg_request_errors_total")),
                            latency: registry
                                .histogram(&series("s3pg_request_latency_microseconds")),
                        },
                    )
                })
                .collect(),
        }
    }

    fn of(&self, endpoint: &str) -> &EndpointHandles {
        // The handle set is fixed at construction; unknown names account
        // to the `invalid` bucket rather than panicking.
        self.endpoints
            .iter()
            .find(|(name, _)| *name == endpoint)
            .map(|(_, m)| m)
            .unwrap_or_else(|| &self.endpoints[self.endpoints.len() - 1].1)
    }

    /// Count one Cypher evaluation on snapshot form `form` (one of
    /// [`FORMS`]).
    fn count_cypher_evaluation(&self, form: &str) {
        if let Some(i) = FORMS.iter().position(|f| *f == form) {
            self.cypher_evaluations[i].inc();
        }
    }

    fn observe(&self, endpoint: &str, elapsed: Duration, ok: bool) {
        let handles = self.of(endpoint);
        handles.requests.inc();
        if !ok {
            handles.errors.inc();
        }
        handles.latency.record(elapsed);
    }
}

/// One entry of the slow-query log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    pub endpoint: &'static str,
    /// Which listener served the request: `"json"` or `"bolt"`.
    pub listener: &'static str,
    /// Which snapshot form a Cypher evaluation ran on: `"compact"` or
    /// `"mutable"`. `None` when nothing was evaluated on a property graph
    /// (other endpoints, `EXPLAIN`, a request rejected before evaluation).
    pub form: Option<&'static str>,
    /// The query text for `cypher`/`sparql`, a size summary for `update`,
    /// empty for bodyless endpoints.
    pub query: String,
    /// Result rows returned (query endpoints only).
    pub rows: u64,
    pub total_micros: u64,
    pub decode_micros: u64,
    pub execute_micros: u64,
    pub serialize_micros: u64,
    /// The query's last rendered operator tree as a JSON object, when the
    /// statistics registry has captured one (plan-cache miss for Cypher,
    /// any `EXPLAIN`/`PROFILE` run for either language).
    pub plan: Option<String>,
}

/// Leading `EXPLAIN`/`PROFILE` keyword on a query, for either language.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Introspect {
    /// Execute normally.
    None,
    /// Render the operator tree; execute nothing.
    Explain,
    /// Execute with a per-operator [`ProfSink`] and return rows + the
    /// annotated tree.
    Profile,
}

/// Split a leading `EXPLAIN`/`PROFILE` keyword (case-insensitive, must be
/// followed by whitespace) off the query text. The remainder is what the
/// plan cache and statistics registry key on, so `EXPLAIN q`, `PROFILE q`,
/// and `q` share one cache entry.
pub(crate) fn strip_introspection(query: &str) -> (Introspect, &str) {
    let trimmed = query.trim_start();
    for (word, mode) in [
        ("EXPLAIN", Introspect::Explain),
        ("PROFILE", Introspect::Profile),
    ] {
        if trimmed.len() > word.len()
            && trimmed[..word.len()].eq_ignore_ascii_case(word)
            && trimmed[word.len()..].starts_with(char::is_whitespace)
        {
            return (mode, trimmed[word.len()..].trim_start());
        }
    }
    (Introspect::None, query)
}

/// The installed store plus its serving role.
pub(crate) struct ServingState {
    pub(crate) store: Arc<GraphStore>,
    /// Replicas reject `update` frames with a typed `read_only` error;
    /// their state advances only through the replication loop.
    pub(crate) replica: bool,
}

/// State every listener (JSON and Bolt) shares: the installed store, the
/// plan cache, metrics, and the shutdown flag. The Bolt front end holds an
/// `Arc<Shared>` and funnels its RUN requests through the same
/// [`Shared::run_cypher`] the JSON dispatch uses.
pub(crate) struct Shared {
    /// Empty while the binary is still recovering (loading a checkpoint,
    /// replaying the WAL tail); requests that need graph state get a typed
    /// `recovering` error until [`StoreInstaller::install`] fills it.
    serving: OnceLock<ServingState>,
    metrics: ServerMetrics,
    plan_cache: PlanCache,
    query_stats: QueryStats,
    registry: Arc<Registry>,
    started: Instant,
    slow_query_threshold: Option<Duration>,
    slow_queries: Mutex<VecDeque<SlowQuery>>,
    shutdown: AtomicBool,
    queue: Mutex<VecDeque<TcpStream>>,
    queue_signal: Condvar,
}

impl Shared {
    /// The installed store, or `None` while recovery is still replaying.
    pub(crate) fn serving(&self) -> Option<&ServingState> {
        self.serving.get()
    }

    /// Whether shutdown has been requested (listener loops poll this).
    pub(crate) fn is_shutdown(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// The shared metrics registry.
    pub(crate) fn registry(&self) -> &Registry {
        &self.registry
    }

    /// Account one served request to the per-endpoint counters and
    /// latency histogram. The JSON dispatch calls this from `respond`;
    /// the Bolt session calls it around each `RUN`, so
    /// `s3pg_requests_total{endpoint="cypher"}` counts queries from both
    /// listeners.
    pub(crate) fn observe_request(&self, endpoint: &str, elapsed: Duration, ok: bool) {
        self.metrics.observe(endpoint, elapsed, ok);
    }

    /// The configured slow-query threshold. The Bolt session checks this
    /// around each `RUN`, mirroring the JSON dispatch, so queries from
    /// both listeners land in one log.
    pub(crate) fn slow_query_threshold(&self) -> Option<Duration> {
        self.slow_query_threshold
    }

    /// Append one entry to the slow-query log (either listener).
    pub(crate) fn log_slow_query(&self, entry: SlowQuery) {
        record_slow_query(self, entry);
    }

    /// The statistics registry's last rendered plan for `query`, as a JSON
    /// line — what slow-query entries embed. Any `EXPLAIN`/`PROFILE`
    /// prefix is stripped so the lookup hits the same registry entry the
    /// execution recorded against.
    pub(crate) fn last_plan_json(&self, endpoint: &str, query: &str) -> Option<String> {
        let (_, bare) = strip_introspection(query);
        self.query_stats
            .last_plan(endpoint, bare)
            .map(|p| plan_to_json(&p).to_line())
    }

    /// Run one Cypher query through the shared plan cache and parameter
    /// pipeline. `listener` labels the cache accounting
    /// (`s3pg_plan_cache_*_total{listener=...}`); both the JSON dispatch
    /// and the Bolt session funnel through here, so the two wire protocols
    /// cannot drift in semantics. Returns the response and the snapshot
    /// form the evaluation ran on, if it ran (see [`SlowQuery::form`]).
    pub(crate) fn run_cypher(
        &self,
        store: &GraphStore,
        query: &str,
        params: &[(String, Json)],
        listener: &'static str,
    ) -> (Response, Option<&'static str>) {
        let started = Instant::now();
        let (mode, bare) = strip_introspection(query);
        let mut form = None;
        let response = self.run_cypher_inner(store, bare, mode, params, listener, &mut form);
        // EXPLAIN executes nothing, so it does not count as a query
        // execution in the statistics registry.
        if mode != Introspect::Explain {
            self.query_stats.observe(
                "cypher",
                bare,
                listener,
                started.elapsed(),
                response_rows(&response),
            );
        }
        (response, form)
    }

    fn run_cypher_inner(
        &self,
        store: &GraphStore,
        query: &str,
        mode: Introspect,
        params: &[(String, Json)],
        listener: &'static str,
        form: &mut Option<&'static str>,
    ) -> Response {
        let snap = store.snapshot();
        // Read the form once: the frozen form may land mid-request.
        let compact = snap.compact();
        // Plan-cache hit: no reparse, no `query_plan` span. Miss: parse +
        // plan under one `query_plan` span, then cache the outcome (parse
        // errors included) for the next issue. Parameter values are not in
        // the key, so `$iri = "a"` and `$iri = "b"` share one entry.
        let entry = self
            .plan_cache
            .lookup(listener, "cypher", query)
            .unwrap_or_else(|| {
                let _span = tracer().span_here("query_plan");
                let entry = Arc::new(CachedEntry::Cypher(match cypher::parse(query) {
                    Ok(ast) => {
                        let ast = Arc::new(ast);
                        // Plan against whichever representation the
                        // evaluation below will use; the statistics
                        // (and so the plan) are identical either way.
                        let plan = Arc::new(match compact {
                            Some(compact) => cypher::plan(compact.as_ref(), &ast),
                            None => cypher::plan(&snap.pg, &ast),
                        });
                        // A fresh plan is the cheapest moment to render the
                        // operator tree once, so the statistics registry
                        // and slow-query log always have a plan to show.
                        let tree = cypher::explain(&ast, &plan);
                        self.query_stats.record_plan("cypher", query, tree);
                        Ok(CachedCypher::new(ast, snap.epoch, plan))
                    }
                    Err(e) => Err(e.to_string()),
                }));
                self.plan_cache.insert("cypher", query, Arc::clone(&entry));
                entry
            });
        let cached = match &*entry {
            CachedEntry::Cypher(Ok(cached)) => cached,
            CachedEntry::Cypher(Err(message)) | CachedEntry::Sparql(Err(message)) => {
                return Response::Error(ErrorFrame {
                    kind: ErrorKind::Query,
                    message: message.clone(),
                })
            }
            CachedEntry::Sparql(Ok(_)) => unreachable!("endpoint-prefixed cache key"),
        };
        let replans = self.plan_cache.replan_counter(listener);
        // EXPLAIN: render the (epoch-refreshed) plan's operator tree and
        // return before parameter validation — a plan never depends on
        // parameter values, so `EXPLAIN q` works without bindings.
        if mode == Introspect::Explain {
            let plan = match compact {
                Some(compact) => cached.plan_for(compact.as_ref(), snap.epoch, replans),
                None => cached.plan_for(&snap.pg, snap.epoch, replans),
            };
            let tree = cypher::explain(&cached.ast, &plan);
            self.query_stats.record_plan("cypher", query, tree.clone());
            return Response::Explain {
                language: "cypher".to_string(),
                plan: tree,
            };
        }
        // Parameter names must match the query exactly (no undeclared, no
        // unused) before any evaluation work happens.
        if let Err(frame) = params::check_names(&cached.params, params) {
            return Response::Error(frame);
        }
        let bound = match params::cypher_params(params) {
            Ok(bound) => bound,
            Err(frame) => return Response::Error(frame),
        };
        // Serve from the read-optimized compact form when background
        // compaction has landed it; fall back to the mutable PG in the
        // window right after an update. Both run the same executor.
        // PROFILE threads a sink through the same planned evaluation —
        // answers stay bit-identical.
        let sink = (mode == Introspect::Profile).then(ProfSink::new);
        let (served, (result, plan)) = match compact {
            Some(compact) => (
                "compact",
                evaluate_cypher(compact.as_ref(), cached, snap.epoch, replans, &bound, &sink),
            ),
            None => (
                "mutable",
                evaluate_cypher(&snap.pg, cached, snap.epoch, replans, &bound, &sink),
            ),
        };
        *form = Some(served);
        self.metrics.count_cypher_evaluation(served);
        match result {
            Ok(rows) => {
                let rendered: Vec<Vec<Option<String>>> = rows
                    .rows
                    .iter()
                    .map(|row| row.iter().map(|v| v.as_ref().map(render_value)).collect())
                    .collect();
                match sink {
                    Some(sink) => {
                        let mut tree = cypher::explain(&cached.ast, &plan);
                        tree.annotate(&sink);
                        self.query_stats.record_plan("cypher", query, tree.clone());
                        Response::Profile {
                            language: "cypher".to_string(),
                            columns: rows.columns.clone(),
                            rows: rendered,
                            plan: tree,
                        }
                    }
                    None => Response::Cypher {
                        columns: rows.columns.clone(),
                        rows: rendered,
                    },
                }
            }
            Err(e) => Response::Error(ErrorFrame {
                kind: ErrorKind::Query,
                message: e.to_string(),
            }),
        }
    }

    /// Run one SPARQL query through the shared plan cache and parameter
    /// pipeline (see [`Shared::run_cypher`]).
    pub(crate) fn run_sparql(
        &self,
        store: &GraphStore,
        query: &str,
        params: &[(String, Json)],
        listener: &'static str,
    ) -> Response {
        let started = Instant::now();
        let (mode, bare) = strip_introspection(query);
        let response = self.run_sparql_inner(store, bare, mode, params, listener);
        if mode != Introspect::Explain {
            self.query_stats.observe(
                "sparql",
                bare,
                listener,
                started.elapsed(),
                response_rows(&response),
            );
        }
        response
    }

    fn run_sparql_inner(
        &self,
        store: &GraphStore,
        query: &str,
        mode: Introspect,
        params: &[(String, Json)],
        listener: &'static str,
    ) -> Response {
        let snap = store.snapshot();
        let entry = self
            .plan_cache
            .lookup(listener, "sparql", query)
            .unwrap_or_else(|| {
                let _span = tracer().span_here("query_plan");
                let entry = Arc::new(CachedEntry::Sparql(match sparql::parse(query) {
                    Ok(ast) => Ok(CachedSparql::new(Arc::new(ast))),
                    Err(e) => Err(e.to_string()),
                }));
                self.plan_cache.insert("sparql", query, Arc::clone(&entry));
                entry
            });
        let cached = match &*entry {
            CachedEntry::Sparql(Ok(cached)) => cached,
            CachedEntry::Sparql(Err(message)) | CachedEntry::Cypher(Err(message)) => {
                return Response::Error(ErrorFrame {
                    kind: ErrorKind::Query,
                    message: message.clone(),
                })
            }
            CachedEntry::Cypher(Ok(_)) => unreachable!("endpoint-prefixed cache key"),
        };
        if let Err(frame) = params::check_names(&cached.params, params) {
            return Response::Error(frame);
        }
        let bound = match params::sparql_params(params) {
            Ok(bound) => bound,
            Err(frame) => return Response::Error(frame),
        };
        // SPARQL has no persisted plan: the greedy join order is recomputed
        // per evaluation, so EXPLAIN renders it fresh (after parameter
        // binding — ordering uses the substituted cardinalities).
        if mode == Introspect::Explain {
            return match sparql::explain(&snap.rdf, &cached.ast, &bound) {
                Ok(tree) => {
                    self.query_stats.record_plan("sparql", query, tree.clone());
                    Response::Explain {
                        language: "sparql".to_string(),
                        plan: tree,
                    }
                }
                Err(e) => Response::Error(ErrorFrame {
                    kind: ErrorKind::Query,
                    message: e.to_string(),
                }),
            };
        }
        let sink = (mode == Introspect::Profile).then(ProfSink::new);
        let result = {
            let _span = tracer().span_here("query_eval");
            match &sink {
                Some(sink) => {
                    sparql::evaluate_outcome_profiled(&snap.rdf, &cached.ast, &bound, sink)
                }
                None => sparql::evaluate_outcome_threads_params(&snap.rdf, &cached.ast, &bound, 1),
            }
        };
        match result {
            Ok(sparql::Outcome::Solutions(solutions)) => {
                let rendered: Vec<Vec<Option<String>>> = solutions
                    .rows
                    .iter()
                    .map(|row| {
                        row.iter()
                            .map(|t| t.map(|t| render_term(&snap.rdf, t)))
                            .collect()
                    })
                    .collect();
                match sink {
                    Some(sink) => match sparql::explain(&snap.rdf, &cached.ast, &bound) {
                        Ok(mut tree) => {
                            tree.annotate(&sink);
                            self.query_stats.record_plan("sparql", query, tree.clone());
                            Response::Profile {
                                language: "sparql".to_string(),
                                columns: solutions.vars.clone(),
                                rows: rendered,
                                plan: tree,
                            }
                        }
                        Err(e) => Response::Error(ErrorFrame {
                            kind: ErrorKind::Internal,
                            message: format!("profiled query lost its plan: {e}"),
                        }),
                    },
                    None => Response::Sparql {
                        vars: solutions.vars.clone(),
                        rows: rendered,
                    },
                }
            }
            // The wire endpoints have never served aggregate projections;
            // keep the error message they have always answered with.
            Ok(sparql::Outcome::Count { .. }) => Response::Error(ErrorFrame {
                kind: ErrorKind::Query,
                message: "aggregate query: use execute_outcome/evaluate_outcome".to_string(),
            }),
            Err(e) => Response::Error(ErrorFrame {
                kind: ErrorKind::Query,
                message: e.to_string(),
            }),
        }
    }
}

/// Rows returned by a query response, as the statistics registry counts
/// them: `Some(n)` for success frames, `None` for typed errors (counted
/// as an error, not zero rows).
fn response_rows(response: &Response) -> Option<u64> {
    match response {
        Response::Cypher { rows, .. }
        | Response::Sparql { rows, .. }
        | Response::Profile { rows, .. } => Some(rows.len() as u64),
        Response::Error(_) => None,
        _ => Some(0),
    }
}

/// A running server; dropping the handle does *not* stop it — call
/// [`ServerHandle::shutdown`] then [`ServerHandle::join`].
pub struct ServerHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// Request graceful shutdown (idempotent, non-blocking).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.queue_signal.notify_all();
    }

    /// Whether shutdown has been requested.
    pub fn is_shutting_down(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// A cheap watcher auxiliary threads (checkpointer, replicator) poll
    /// to learn the server is going down.
    pub fn shutdown_watcher(&self) -> ShutdownWatcher {
        ShutdownWatcher {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Adopt an auxiliary thread so [`ServerHandle::join`] waits for it.
    /// The thread must exit once [`ShutdownWatcher::is_shutdown`] turns
    /// true.
    pub fn adopt_thread(&mut self, handle: JoinHandle<()>) {
        self.threads.push(handle);
    }

    /// Block until every server thread has exited, then flush the WAL
    /// tail. The final fsync means a *clean* shutdown leaves nothing for
    /// the next boot to lose: every acknowledged update is on disk even
    /// if its group-commit window was still open when shutdown began.
    pub fn join(self) {
        for t in self.threads {
            let _ = t.join();
        }
        if let Some(state) = self.shared.serving.get() {
            if let Err(e) = state.store.sync_wal() {
                eprintln!("shutdown WAL flush failed: {e}");
            }
        }
    }

    /// Point-in-time Prometheus-style exposition (same text as the
    /// `metrics` endpoint).
    pub fn metrics_exposition(&self) -> String {
        self.shared.registry.expose()
    }

    /// The store's metrics registry (endpoint + memory series).
    pub fn registry(&self) -> Arc<Registry> {
        Arc::clone(&self.shared.registry)
    }

    /// The shared listener state (store, plan cache, metrics) — this is
    /// what the Bolt front end runs against.
    pub(crate) fn shared(&self) -> Arc<Shared> {
        Arc::clone(&self.shared)
    }

    /// Bind a Bolt listener on `addr` serving the same store, plan
    /// cache, and metrics as the JSON listener (port 0 picks an
    /// ephemeral port; the bound address is returned). The listener's
    /// threads join through [`ServerHandle::join`] and honor the same
    /// shutdown flag.
    pub fn listen_bolt(&mut self, addr: &str) -> std::io::Result<SocketAddr> {
        let (local, thread) = crate::bolt::spawn(addr, self.shared())?;
        self.threads.push(thread);
        Ok(local)
    }

    /// The current slow-query log, oldest first (empty when no threshold
    /// is configured or nothing crossed it).
    pub fn slow_queries(&self) -> Vec<SlowQuery> {
        self.shared
            .slow_queries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .cloned()
            .collect()
    }
}

/// Lets threads outside the server watch for shutdown.
pub struct ShutdownWatcher {
    shared: Arc<Shared>,
}

impl ShutdownWatcher {
    /// Whether shutdown has been requested.
    pub fn is_shutdown(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }
}

/// One-shot handle that makes a recovered store live. Until
/// [`StoreInstaller::install`] is called, the already-listening server
/// answers `ping`/`health`/`metrics`/`shutdown` but returns a typed
/// `recovering` error for anything that needs graph state.
pub struct StoreInstaller {
    shared: Arc<Shared>,
}

impl StoreInstaller {
    /// Install the store and start serving it. `replica` makes the server
    /// read-only: `update` frames are rejected with a typed `read_only`
    /// error.
    pub fn install(self, store: Arc<GraphStore>, replica: bool) {
        let _ = self.shared.serving.set(ServingState { store, replica });
    }
}

/// Bind `addr` and start serving `store`. Returns once the listener is
/// bound and all threads are running.
pub fn serve(addr: &str, store: GraphStore, config: ServerConfig) -> std::io::Result<ServerHandle> {
    let registry = Arc::clone(store.registry());
    let (handle, installer) = serve_deferred(addr, config, registry)?;
    installer.install(Arc::new(store), false);
    Ok(handle)
}

/// Bind `addr` and start the listener/worker threads *before* a store
/// exists. This is how the binary boots durably: the port is reachable
/// (and answers health checks with a typed `recovering` error) while the
/// checkpoint loads and the WAL tail replays, then the recovered store is
/// made live through the returned [`StoreInstaller`].
pub fn serve_deferred(
    addr: &str,
    config: ServerConfig,
    registry: Arc<Registry>,
) -> std::io::Result<(ServerHandle, StoreInstaller)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;

    // Enable the process tracer so every request records a span tree the
    // `trace` endpoint can tail.
    tracer().set_enabled(true);
    let shared = Arc::new(Shared {
        serving: OnceLock::new(),
        metrics: ServerMetrics::new(&registry),
        plan_cache: PlanCache::new(&registry),
        query_stats: QueryStats::new(&registry),
        registry,
        started: Instant::now(),
        slow_query_threshold: config.slow_query_threshold,
        slow_queries: Mutex::new(VecDeque::new()),
        shutdown: AtomicBool::new(false),
        queue: Mutex::new(VecDeque::new()),
        queue_signal: Condvar::new(),
    });

    let workers = config.workers.max(1);
    let capacity = config.queue_capacity.max(1);
    let mut threads = Vec::with_capacity(workers + 1);

    {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || {
            accept_loop(&listener, &shared, capacity)
        }));
    }
    for _ in 0..workers {
        let shared = Arc::clone(&shared);
        threads.push(std::thread::spawn(move || worker_loop(&shared)));
    }

    let installer = StoreInstaller {
        shared: Arc::clone(&shared),
    };
    Ok((
        ServerHandle {
            addr: local,
            shared,
            threads,
        },
        installer,
    ))
}

fn accept_loop(listener: &TcpListener, shared: &Shared, capacity: usize) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((stream, _)) => {
                let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
                if queue.len() >= capacity {
                    drop(queue);
                    shed(stream, ErrorKind::Overloaded, "accept queue full");
                } else {
                    queue.push_back(stream);
                    drop(queue);
                    shared.queue_signal.notify_one();
                }
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    // Drain: connections accepted but never served get a typed goodbye.
    let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
    while let Some(stream) = queue.pop_front() {
        shed(stream, ErrorKind::ShuttingDown, "server is shutting down");
    }
    shared.queue_signal.notify_all();
}

/// Reject a connection with one typed error frame. Best-effort: the peer
/// may already be gone.
fn shed(mut stream: TcpStream, kind: ErrorKind, message: &str) {
    let frame = Response::Error(ErrorFrame {
        kind,
        message: message.to_string(),
    });
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = write_frame(&mut stream, frame.encode());
}

fn worker_loop(shared: &Shared) {
    loop {
        let stream = {
            let mut queue = shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if let Some(stream) = queue.pop_front() {
                    break Some(stream);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                let (q, _) = shared
                    .queue_signal
                    .wait_timeout(queue, POLL_INTERVAL)
                    .unwrap_or_else(|e| e.into_inner());
                queue = q;
            }
        };
        match stream {
            Some(stream) => handle_connection(stream, shared),
            None => return,
        }
    }
}

/// Serve one connection until EOF, a fatal I/O error, or shutdown.
fn handle_connection(stream: TcpStream, shared: &Shared) {
    if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
        return;
    }
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    // Responses are single short frames: without TCP_NODELAY, Nagle plus
    // the client's delayed ACK turns every request into a ~40ms round
    // trip.
    let _ = stream.set_nodelay(true);
    let mut writer = match stream.try_clone() {
        Ok(w) => w,
        Err(_) => return,
    };
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            shed_open(&mut writer);
            return;
        }
        match reader.read_line(&mut line) {
            Ok(0) => return, // EOF
            Ok(_) => {
                if !line.ends_with('\n') {
                    // Timed out mid-line; keep accumulating.
                    continue;
                }
                if line.trim().is_empty() {
                    line.clear();
                    continue;
                }
                let reply = respond(&line, shared);
                line.clear();
                if write_frame(&mut writer, reply.encoded).is_err() {
                    return;
                }
                if reply.shutdown_ack {
                    shared.shutdown.store(true, Ordering::SeqCst);
                    shared.queue_signal.notify_all();
                    return;
                }
                if reply.endpoint == "shutdown" {
                    return;
                }
            }
            // Read timeout: loop to re-check the shutdown flag. Partial
            // data already read stays appended to `line`.
            Err(e) if matches!(e.kind(), IoErrorKind::WouldBlock | IoErrorKind::TimedOut) => {}
            Err(_) => return,
        }
    }
}

fn shed_open(writer: &mut TcpStream) {
    let frame = Response::Error(ErrorFrame {
        kind: ErrorKind::ShuttingDown,
        message: "server is shutting down".to_string(),
    });
    let _ = write_frame(writer, frame.encode());
}

/// One fully processed request line, ready to write back.
struct Reply {
    encoded: String,
    endpoint: &'static str,
    shutdown_ack: bool,
}

/// Decode, dispatch, serialize, and meter one request line. Each request
/// gets its own trace with a `request` → `decode`/`execute`/`serialize`
/// span tree, and the same stage boundaries feed the slow-query log.
fn respond(line: &str, shared: &Shared) -> Reply {
    let tracer = tracer();
    let request_span = tracer.span(tracer.new_trace(), "request");
    let start = Instant::now();
    let decoded = {
        let _span = tracer.span_here("decode");
        Request::decode(line)
    };
    let decoded_at = Instant::now();
    let mut form = None;
    let (response, endpoint, query) = match decoded {
        Ok(request) => {
            let endpoint = request.endpoint();
            // Query text is only kept when the slow-query log could want
            // it; the fast path never clones the body.
            let query = if shared.slow_query_threshold.is_some() {
                query_text(&request)
            } else {
                String::new()
            };
            // A panicking handler must not unwind through the worker: turn
            // it into a typed internal error and keep serving.
            let response = {
                let _span = tracer.span_here("execute");
                catch_unwind(AssertUnwindSafe(|| dispatch(&request, shared, &mut form)))
                    .unwrap_or_else(|panic| {
                        Response::Error(ErrorFrame {
                            kind: ErrorKind::Internal,
                            message: format!("handler panicked: {}", panic_message(&panic)),
                        })
                    })
            };
            (response, endpoint, query)
        }
        Err(frame) => (Response::Error(frame), "invalid", String::new()),
    };
    let executed_at = Instant::now();
    let encoded = {
        let _span = tracer.span_here("serialize");
        response.encode()
    };
    let serialized_at = Instant::now();
    drop(request_span);
    let total = serialized_at - start;
    shared.metrics.observe(endpoint, total, response.is_ok());
    if let Some(threshold) = shared.slow_query_threshold {
        if total >= threshold {
            let plan = match endpoint {
                "cypher" | "sparql" => shared.last_plan_json(endpoint, &query),
                _ => None,
            };
            record_slow_query(
                shared,
                SlowQuery {
                    endpoint,
                    listener: "json",
                    form,
                    query,
                    rows: rows_returned(&response),
                    total_micros: total.as_micros() as u64,
                    decode_micros: (decoded_at - start).as_micros() as u64,
                    execute_micros: (executed_at - decoded_at).as_micros() as u64,
                    serialize_micros: (serialized_at - executed_at).as_micros() as u64,
                    plan,
                },
            );
        }
    }
    Reply {
        encoded,
        endpoint,
        shutdown_ack: matches!(response, Response::ShuttingDown),
    }
}

/// Plan (refreshing the cached plan for the snapshot's `epoch`) and
/// evaluate one Cypher query on one snapshot form — the compact and the
/// mutable form run this same code. `sink` turns the run into a PROFILE.
fn evaluate_cypher<G: PgRead>(
    pg: &G,
    cached: &CachedCypher,
    epoch: u64,
    replans: &Counter,
    bound: &cypher::Params,
    sink: &Option<ProfSink>,
) -> (
    Result<cypher::Rows, cypher::CypherError>,
    Arc<cypher::CypherPlan>,
) {
    let plan = cached.plan_for(pg, epoch, replans);
    let _span = tracer().span_here("query_eval");
    let result = match sink {
        Some(sink) => cypher::evaluate_planned_profiled(pg, &cached.ast, &plan, bound, 1, sink),
        None => cypher::evaluate_planned_params(pg, &cached.ast, &plan, bound, 1),
    };
    (result, plan)
}

/// What the slow-query log shows as the request body.
fn query_text(request: &Request) -> String {
    match request {
        Request::Cypher { query, .. } | Request::Sparql { query, .. } => query.clone(),
        Request::Update {
            additions,
            deletions,
        } => format!(
            "update(+{} bytes, -{} bytes)",
            additions.len(),
            deletions.len()
        ),
        _ => String::new(),
    }
}

fn rows_returned(response: &Response) -> u64 {
    response_rows(response).unwrap_or(0)
}

fn record_slow_query(shared: &Shared, entry: SlowQuery) {
    eprintln!(
        "slow-query endpoint={} listener={} form={} total_us={} decode_us={} execute_us={} serialize_us={} rows={} query={:?} plan={}",
        entry.endpoint,
        entry.listener,
        entry.form.unwrap_or("-"),
        entry.total_micros,
        entry.decode_micros,
        entry.execute_micros,
        entry.serialize_micros,
        entry.rows,
        entry.query,
        entry.plan.as_deref().unwrap_or("null"),
    );
    let mut log = shared
        .slow_queries
        .lock()
        .unwrap_or_else(|e| e.into_inner());
    if log.len() >= SLOW_QUERY_CAPACITY {
        log.pop_front();
    }
    log.push_back(entry);
}

pub(crate) fn panic_message(panic: &(dyn std::any::Any + Send)) -> &str {
    panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("unknown panic")
}

/// Answer one decoded request. `form` receives the snapshot form a Cypher
/// evaluation ran on, for the slow-query log.
fn dispatch(request: &Request, shared: &Shared, form: &mut Option<&'static str>) -> Response {
    // Endpoints that don't need graph state work even while the store is
    // still recovering — health checks and metrics scrapes must succeed
    // during a long WAL replay.
    match request {
        Request::Metrics => {
            return Response::Metrics {
                exposition: shared.registry.expose(),
            }
        }
        Request::Health => {
            return Response::Health {
                uptime_micros: shared.started.elapsed().as_micros() as u64,
            }
        }
        Request::Ping => return Response::Pong,
        Request::Shutdown => return Response::ShuttingDown,
        Request::QueryStats => {
            return Response::QueryStats {
                queries: shared.query_stats.snapshot(),
            }
        }
        _ => {}
    }
    let Some(serving) = shared.serving.get() else {
        return Response::Error(ErrorFrame {
            kind: ErrorKind::Recovering,
            message: "store is recovering (checkpoint load / WAL replay); retry shortly"
                .to_string(),
        });
    };
    let store = serving.store.as_ref();
    match request {
        Request::Cypher { query, params } => {
            let (response, served) = shared.run_cypher(store, query, params, "json");
            *form = served;
            response
        }
        Request::Sparql { query, params } => shared.run_sparql(store, query, params, "json"),
        Request::Update {
            additions,
            deletions,
        } => {
            if serving.replica {
                return Response::Error(ErrorFrame {
                    kind: ErrorKind::ReadOnly,
                    message: "this server is a replica; send updates to the primary".to_string(),
                });
            }
            match store.apply_update(additions, deletions) {
                Ok(summary) => Response::Update {
                    added_nodes: summary.added_nodes,
                    added_edges: summary.added_edges,
                    added_properties: summary.added_properties,
                    removed: summary.removed,
                    conforms: summary.conforms,
                },
                Err(e @ S3pgError::Rdf(_)) => Response::Error(ErrorFrame {
                    kind: ErrorKind::Parse,
                    message: e.to_string(),
                }),
                Err(e) => Response::Error(ErrorFrame {
                    kind: ErrorKind::Internal,
                    message: e.to_string(),
                }),
            }
        }
        Request::Stats => {
            let snap = store.snapshot();
            Response::Stats {
                nodes: snap.pg.node_count() as u64,
                edges: snap.pg.edge_count() as u64,
                triples: snap.rdf.len() as u64,
                conforms: snap.conforms(),
                mem_bytes: snap.mem_bytes(),
            }
        }
        Request::Replicate { from, max } => match store.wal() {
            // Only committed (fsynced) records are streamed: a replica
            // must never apply a record the primary could lose in a crash.
            Some(wal) => {
                // A cursor below the oldest retained record would make
                // `read_since` silently start past the hole the pruning
                // checkpoint left; refuse with a typed frame so the
                // replica knows it must be re-seeded, not retried.
                match wal.oldest_retained_seq() {
                    Ok(oldest) if from + 1 < oldest => {
                        return Response::Error(ErrorFrame {
                            kind: ErrorKind::ReseedRequired,
                            message: format!(
                                "records {}..{} were pruned by a checkpoint (oldest retained \
                                 is {oldest}); re-seed this replica from a fresh copy of the \
                                 primary's state",
                                from + 1,
                                oldest - 1
                            ),
                        });
                    }
                    Ok(_) => {}
                    Err(e) => {
                        return Response::Error(ErrorFrame {
                            kind: ErrorKind::Internal,
                            message: format!("WAL scan failed: {e}"),
                        });
                    }
                }
                match wal.read_since(*from, (*max).min(4096) as usize) {
                    Ok(records) => Response::Replicate {
                        records: records
                            .into_iter()
                            .map(|r| crate::protocol::ReplicaRecord {
                                seq: r.seq,
                                additions: r.additions,
                                deletions: r.deletions,
                            })
                            .collect(),
                        last_seq: wal.last_seq(),
                    },
                    Err(e) => Response::Error(ErrorFrame {
                        kind: ErrorKind::Internal,
                        message: format!("WAL read failed: {e}"),
                    }),
                }
            }
            None => Response::Error(ErrorFrame {
                kind: ErrorKind::ReadOnly,
                message: "this server has no WAL to replicate from (no --wal-dir)".to_string(),
            }),
        },
        Request::WalStatus => {
            let role = if serving.replica {
                "replica"
            } else if store.wal().is_some() {
                "primary"
            } else {
                "ephemeral"
            };
            let (last_seq, durable_seq, wal_bytes) = match store.wal() {
                Some(wal) => (wal.last_seq(), wal.durable_seq(), wal.total_bytes()),
                None => (0, 0, 0),
            };
            Response::WalStatus {
                role: role.to_string(),
                last_seq,
                durable_seq,
                wal_bytes,
                checkpoint_seq: store.checkpoint_seq(),
                applied_seq: store.applied_seq(),
            }
        }
        // `limit` tails the ring first; `since` then drops events at or
        // before the cursor (µs since server start), so a poller resumes
        // from the newest `t_us` it has seen without re-downloading.
        Request::Trace { limit, since } => Response::Trace {
            events: tracer()
                .tail((*limit).min(u32::MAX as u64) as usize)
                .iter()
                .filter(|e| e.t_us > *since)
                .map(|e| e.to_json())
                .collect(),
        },
        // Handled in the recovery-independent prefix above.
        Request::Metrics
        | Request::Health
        | Request::Ping
        | Request::Shutdown
        | Request::QueryStats => {
            unreachable!("stateless endpoints answered before store lookup")
        }
    }
}
