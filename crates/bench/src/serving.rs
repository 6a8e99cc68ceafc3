//! Differential load generation against a running `s3pg-serve` instance.
//!
//! The loadgen drives N concurrent connections of mixed traffic — Cypher
//! reads, SPARQL reads, and monotonic N-Triples update writes — and
//! *differentially checks every server response* against direct in-process
//! engine calls over a per-connection replica:
//!
//! * each connection writes only subjects in its own namespace
//!   (`http://load.example.org/c{i}/…`), so its replica (base graph + its
//!   own deltas, maintained through the same [`s3pg::incremental`] path
//!   the server uses) predicts its scoped reads exactly, independent of
//!   what the other connections are doing concurrently;
//! * reads over base-graph entities are stable under everyone's monotone
//!   namespaced additions, so they are checked against the replica too;
//! * after all connections finish (a barrier), a global read phase checks
//!   full-graph queries against a replica holding *all* deltas, and the
//!   server must report a conforming PG.
//!
//! Any response that disagrees with the in-process engines is recorded as
//! a mismatch; a clean run proves the serving path returns exactly what
//! the engines return, under concurrency, while the graph evolves.
//!
//! After the global phase, two post-run sweeps exercise the plan cache
//! from both sides: a *literal* sweep of distinct query texts that must
//! all miss, then a *parameterized* sweep of one fixed text over many
//! `$name` bindings that must plan once and hit thereafter (>95%), with
//! every parameterized answer checked against the engine's own
//! parameterized evaluation and against the literal answers.

use s3pg::incremental::apply_ntriples_delta;
use s3pg::pipeline::transform;
use s3pg::Mode;
use s3pg_query::{cypher, sparql, ResultSet};
use s3pg_rdf::parser::{parse_ntriples, parse_turtle};
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::Graph;
use s3pg_server::client::Client;
use s3pg_server::json::Json;
use s3pg_server::protocol::{ErrorKind, Request, Response};
use s3pg_shacl::parser::parse_shacl_turtle;
use s3pg_shacl::ShapeSchema;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The demo universe the loadgen's synthesized traffic speaks: a `Person`
/// class with a required `name` and optional `knows` edges. Servers under
/// differential load must be started from exactly this base state.
pub fn demo_data_turtle() -> &'static str {
    r#"@prefix : <http://ex/> .
:a a :Person ; :name "A" ; :knows :b .
:b a :Person ; :name "B" ; :knows :c .
:c a :Person ; :name "C" .
"#
}

/// SHACL shapes for [`demo_data_turtle`].
pub fn demo_shapes_turtle() -> &'static str {
    r#"@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
<http://ex/shape/Person> a sh:NodeShape ; sh:targetClass :Person ;
    sh:property [ sh:path :name ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] ;
    sh:property [ sh:path :knows ; sh:class :Person ; sh:minCount 0 ] .
"#
}

/// Loadgen parameters.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Concurrent client connections.
    pub connections: usize,
    /// Update+read rounds each connection performs.
    pub rounds: usize,
    /// RNG seed (traffic interleaving within a connection).
    pub seed: u64,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            connections: 8,
            rounds: 20,
            seed: 42,
        }
    }
}

/// One recorded latency sample.
#[derive(Debug, Clone, Copy)]
struct Sample {
    endpoint: &'static str,
    latency: Duration,
}

/// Aggregated outcome of a loadgen run.
#[derive(Debug)]
pub struct LoadReport {
    /// Server responses checked (every one of them differentially).
    pub requests: u64,
    /// Human-readable descriptions of every differential mismatch.
    pub mismatches: Vec<String>,
    /// Whether the server reported `PG ⊨ S_PG` after the run.
    pub conforms: bool,
    /// Wall-clock of the concurrent phase.
    pub wall: Duration,
    /// Client-side latency samples, per endpoint.
    latencies: Vec<Sample>,
    /// The server's Prometheus-style metrics exposition (fetched post-run,
    /// after all checked traffic, so request counters cover the whole run).
    pub exposition: String,
}

impl LoadReport {
    /// Requests per second over the concurrent phase.
    pub fn throughput(&self) -> f64 {
        if self.wall.as_secs_f64() > 0.0 {
            self.requests as f64 / self.wall.as_secs_f64()
        } else {
            0.0
        }
    }

    /// Client-observed latency quantile (exact, over all endpoints).
    pub fn quantile(&self, q: f64) -> Duration {
        let mut all: Vec<Duration> = self.latencies.iter().map(|s| s.latency).collect();
        if all.is_empty() {
            return Duration::ZERO;
        }
        all.sort();
        let rank = ((q.clamp(0.0, 1.0) * all.len() as f64).ceil() as usize).max(1) - 1;
        all[rank.min(all.len() - 1)]
    }

    /// A sample from the server's exposition, by exact series name.
    pub fn server_sample(&self, name: &str) -> Option<f64> {
        s3pg_obs::parse_exposition(&self.exposition)
            .ok()?
            .into_iter()
            .find(|s| s.name == name)
            .map(|s| s.value)
    }

    /// Render the run as a human-readable report.
    pub fn render(&self, show_server_metrics: bool) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadgen: {} requests in {:?} ({:.0} req/s), {} mismatches, PG {} S_PG",
            self.requests,
            self.wall,
            self.throughput(),
            self.mismatches.len(),
            if self.conforms { "⊨" } else { "⊭" },
        );
        let _ = writeln!(
            out,
            "client latency: p50 {:?}, p99 {:?}",
            self.quantile(0.50),
            self.quantile(0.99)
        );
        for m in self.mismatches.iter().take(10) {
            let _ = writeln!(out, "  MISMATCH: {m}");
        }
        if show_server_metrics {
            let _ = writeln!(out, "server metrics (per endpoint):");
            let samples = s3pg_obs::parse_exposition(&self.exposition).unwrap_or_default();
            let value = |name: String| {
                samples
                    .iter()
                    .find(|s| s.name == name)
                    .map(|s| s.value)
                    .unwrap_or(0.0)
            };
            for endpoint in Request::ENDPOINTS {
                let requests = value(format!("s3pg_requests_total{{endpoint=\"{endpoint}\"}}"));
                if requests > 0.0 {
                    let errors = value(format!(
                        "s3pg_request_errors_total{{endpoint=\"{endpoint}\"}}"
                    ));
                    let p50 = value(format!(
                        "s3pg_request_latency_microseconds{{endpoint=\"{endpoint}\",quantile=\"0.5\"}}"
                    ));
                    let p99 = value(format!(
                        "s3pg_request_latency_microseconds{{endpoint=\"{endpoint}\",quantile=\"0.99\"}}"
                    ));
                    let _ = writeln!(
                        out,
                        "  {endpoint:<9} {requests:>7.0} requests {errors:>5.0} errors  \
                         p50 {p50:>8.0}µs  p99 {p99:>8.0}µs",
                    );
                }
            }
            let mem = value("s3pg_mem_total_bytes".to_string());
            let _ = writeln!(
                out,
                "  snapshot footprint: {}",
                s3pg_obs::mem::format_bytes(mem as usize)
            );
        }
        out
    }
}

/// A per-connection differential replica: the same base state the server
/// started from, advanced by this connection's own deltas through the same
/// incremental path.
struct Replica {
    rdf: Graph,
    out: s3pg::pipeline::TransformOutput,
}

impl Replica {
    fn new(base: &Graph, shapes: &ShapeSchema, mode: Mode) -> Replica {
        Replica {
            rdf: base.clone(),
            out: transform(base, shapes, mode),
        }
    }

    fn apply(&mut self, additions: &str) {
        let outcome = apply_ntriples_delta(
            &mut self.out.pg,
            &mut self.out.schema,
            &mut self.out.state,
            additions,
            "",
        )
        .expect("loadgen generates well-formed deltas");
        self.rdf.absorb(&outcome.additions);
    }
}

/// The name value connection `c` writes in round `r` — unique per
/// (connection, round), so scoped queries have deterministic answers.
fn marker(c: usize, r: usize) -> String {
    format!("load-c{c}-r{r}")
}

/// Fresh values each post-run plan-cache sweep issues — large enough that
/// the parameterized form's single planning miss stays well under 5% of
/// its phase even at the smallest loadgen configuration.
const PARAM_SWEEP: usize = 64;

fn delta_for(c: usize, r: usize, rng: &mut XorShiftRng) -> String {
    let iri = format!("http://load.example.org/c{c}/p{r}");
    let mut nt = format!(
        "<{iri}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
         <{iri}> <http://ex/name> \"{}\" .\n",
        marker(c, r)
    );
    // Mix in edges: to a base person, and sometimes to an earlier subject
    // of the same connection.
    nt.push_str(&format!(
        "<{iri}> <http://ex/knows> <http://ex/{}> .\n",
        ["a", "b", "c"][rng.choose_index(3).unwrap()]
    ));
    if r > 0 && rng.random_bool(0.5) {
        let back = rng.choose_index(r).unwrap();
        nt.push_str(&format!(
            "<{iri}> <http://ex/knows> <http://load.example.org/c{c}/p{back}> .\n"
        ));
    }
    nt
}

/// Check one server response against the in-process engines; returns a
/// description of the disagreement, if any.
fn check_cypher(replica: &Replica, query: &str, response: &Response) -> Option<String> {
    check_cypher_params(replica, query, &[], response)
}

/// [`check_cypher`] with wire-shaped parameter bindings: the local
/// expectation runs the engine's own parameterized evaluation over the
/// same JSON → value conversion the server applies.
fn check_cypher_params(
    replica: &Replica,
    query: &str,
    bindings: &[(String, Json)],
    response: &Response,
) -> Option<String> {
    let params = match s3pg_server::params::cypher_params(bindings) {
        Ok(p) => p,
        Err(e) => return Some(format!("cypher {query:?}: local bindings rejected: {e}")),
    };
    let expected = cypher::execute_params(&replica.out.pg, query, &params);
    match (response, expected) {
        (Response::Cypher { rows, .. }, Ok(local)) => {
            let server_set = ResultSet::from_rendered_rows(rows.clone());
            let local_set = ResultSet::from_cypher(&local);
            (!server_set.same_as(&local_set)).then(|| {
                format!(
                    "cypher {query:?}: server {} rows vs engine {} rows",
                    server_set.len(),
                    local_set.len()
                )
            })
        }
        (Response::Error(e), Err(_)) if e.kind == ErrorKind::Query => None,
        (got, expected) => Some(format!(
            "cypher {query:?}: server {got:?} vs engine {:?}",
            expected.map(|r| r.rows.len())
        )),
    }
}

fn check_sparql(replica: &Replica, query: &str, response: &Response) -> Option<String> {
    let expected = sparql::execute(&replica.rdf, query);
    match (response, expected) {
        (Response::Sparql { rows, .. }, Ok(local)) => {
            let server_set = ResultSet::from_rendered_rows(rows.clone());
            let local_set = ResultSet::from_sparql(&replica.rdf, &local);
            (!server_set.same_as(&local_set)).then(|| {
                format!(
                    "sparql {query:?}: server {} rows vs engine {} rows",
                    server_set.len(),
                    local_set.len()
                )
            })
        }
        (Response::Error(e), Err(_)) if e.kind == ErrorKind::Query => None,
        (got, expected) => Some(format!(
            "sparql {query:?}: server {got:?} vs engine {:?}",
            expected.map(|s| s.rows.len())
        )),
    }
}

/// Run the mixed differential workload against `addr`. The server must
/// have been started from `base_turtle`/`shapes_turtle` in `mode`.
pub fn run_loadgen(
    addr: &str,
    base_turtle: &str,
    shapes_turtle: &str,
    mode: Mode,
    config: LoadConfig,
) -> Result<LoadReport, String> {
    let base = parse_turtle(base_turtle).map_err(|e| e.to_string())?;
    let shapes = parse_shacl_turtle(shapes_turtle).map_err(|e| e.to_string())?;

    let mismatches: Mutex<Vec<String>> = Mutex::new(Vec::new());
    let samples: Mutex<Vec<Sample>> = Mutex::new(Vec::new());
    let request_count = std::sync::atomic::AtomicU64::new(0);

    let start = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let mut handles = Vec::new();
        for c in 0..config.connections {
            let base = &base;
            let shapes = &shapes;
            let mismatches = &mismatches;
            let samples = &samples;
            let request_count = &request_count;
            handles.push(scope.spawn(move || -> Result<(), String> {
                let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
                let mut replica = Replica::new(base, shapes, mode);
                let mut rng = XorShiftRng::seed_from_u64(config.seed ^ ((c as u64) << 32));
                let mut local_samples = Vec::new();
                let mut local_mismatches = Vec::new();
                let timed_call = |client: &mut Client,
                                  request: &Request,
                                  out: &mut Vec<Sample>|
                 -> Result<Response, String> {
                    let t = Instant::now();
                    let response = client.call(request).map_err(|e| e.to_string())?;
                    out.push(Sample {
                        endpoint: request.endpoint(),
                        latency: t.elapsed(),
                    });
                    request_count.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    Ok(response)
                };
                for r in 0..config.rounds {
                    // Write: a namespaced monotonic delta.
                    let delta = delta_for(c, r, &mut rng);
                    let response = timed_call(
                        &mut client,
                        &Request::Update {
                            additions: delta.clone(),
                            deletions: String::new(),
                        },
                        &mut local_samples,
                    )?;
                    match response {
                        Response::Update { conforms, .. } => {
                            replica.apply(&delta);
                            if !conforms {
                                local_mismatches
                                    .push(format!("update c{c}r{r}: PG no longer conforms"));
                            }
                        }
                        other => local_mismatches
                            .push(format!("update c{c}r{r}: unexpected response {other:?}")),
                    }

                    // Scoped Cypher read: this connection's latest marker.
                    let query = format!(
                        "MATCH (p:Person) WHERE p.name = \"{}\" RETURN p.name",
                        marker(c, rng.choose_index(r + 1).unwrap())
                    );
                    let response = timed_call(
                        &mut client,
                        &Request::Cypher {
                            query: query.clone(),
                            params: Vec::new(),
                        },
                        &mut local_samples,
                    )?;
                    if let Some(m) = check_cypher(&replica, &query, &response) {
                        local_mismatches.push(format!("c{c}r{r}: {m}"));
                    }

                    // Scoped SPARQL read: a subject this connection wrote.
                    let probe = rng.choose_index(r + 1).unwrap();
                    let query = format!(
                        "SELECT ?n ?k WHERE {{ <http://load.example.org/c{c}/p{probe}> \
                         <http://ex/name> ?n . \
                         <http://load.example.org/c{c}/p{probe}> <http://ex/knows> ?k }}"
                    );
                    let response = timed_call(
                        &mut client,
                        &Request::Sparql {
                            query: query.clone(),
                            params: Vec::new(),
                        },
                        &mut local_samples,
                    )?;
                    if let Some(m) = check_sparql(&replica, &query, &response) {
                        local_mismatches.push(format!("c{c}r{r}: {m}"));
                    }

                    // Base-graph read: stable under everyone's namespaced
                    // monotone additions.
                    if rng.random_bool(0.5) {
                        let query = "MATCH (p:Person) WHERE p.name = \"B\" \
                                     RETURN p.name"
                            .to_string();
                        let response = timed_call(
                            &mut client,
                            &Request::Cypher {
                                query: query.clone(),
                                params: Vec::new(),
                            },
                            &mut local_samples,
                        )?;
                        if let Some(m) = check_cypher(&replica, &query, &response) {
                            local_mismatches.push(format!("c{c}r{r}: {m}"));
                        }
                    }

                    // Occasionally: a malformed query must come back as a
                    // typed error on both sides, and must not kill the
                    // connection.
                    if rng.random_bool(0.15) {
                        let query = "MATCH (p:Person RETURN".to_string();
                        let response = timed_call(
                            &mut client,
                            &Request::Cypher {
                                query: query.clone(),
                                params: Vec::new(),
                            },
                            &mut local_samples,
                        )?;
                        if let Some(m) = check_cypher(&replica, &query, &response) {
                            local_mismatches.push(format!("c{c}r{r}: {m}"));
                        }
                    }
                }
                samples.lock().unwrap().extend(local_samples);
                mismatches.lock().unwrap().extend(local_mismatches);
                Ok(())
            }));
        }
        for h in handles {
            h.join()
                .map_err(|_| "loadgen thread panicked".to_string())??;
        }
        Ok(())
    })?;
    let wall = start.elapsed();

    // ---- Global phase: all writers are done; check full-graph queries
    // against a replica holding every delta. ----
    let mut global = Replica::new(&base, &shapes, mode);
    for c in 0..config.connections {
        let mut rng = XorShiftRng::seed_from_u64(config.seed ^ ((c as u64) << 32));
        for r in 0..config.rounds {
            let delta = delta_for(c, r, &mut rng);
            global.apply(&delta);
            // Re-consume the RNG draws the reads made, keeping the
            // generator in lockstep with the connection's sequence.
            let _ = rng.choose_index(r + 1);
            let _ = rng.choose_index(r + 1);
            let _ = rng.random_bool(0.5);
            let _ = rng.random_bool(0.15);
        }
    }

    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    let mut mismatches = mismatches.into_inner().unwrap();
    let mut final_requests = 0u64;
    for query in [
        "MATCH (p:Person) RETURN p.name".to_string(),
        "MATCH (p:Person)-[:knows]->(q:Person) WHERE q.name = \"A\" RETURN p.name".to_string(),
    ] {
        let response = client
            .call(&Request::Cypher {
                query: query.clone(),
                params: Vec::new(),
            })
            .map_err(|e| e.to_string())?;
        final_requests += 1;
        if let Some(m) = check_cypher(&global, &query, &response) {
            mismatches.push(format!("global: {m}"));
        }
    }
    let query = "SELECT ?s WHERE { ?s <http://ex/knows> <http://ex/b> }".to_string();
    let response = client
        .call(&Request::Sparql {
            query: query.clone(),
            params: Vec::new(),
        })
        .map_err(|e| e.to_string())?;
    final_requests += 1;
    if let Some(m) = check_sparql(&global, &query, &response) {
        mismatches.push(format!("global: {m}"));
    }

    // Post-run conformance + server-side metrics.
    let conforms = match client.call(&Request::Stats).map_err(|e| e.to_string())? {
        Response::Stats {
            conforms, nodes, ..
        } => {
            final_requests += 1;
            let expected_nodes = global.out.pg.node_count() as u64;
            if nodes != expected_nodes {
                mismatches.push(format!(
                    "global: server has {nodes} nodes, replica {expected_nodes}"
                ));
            }
            conforms
        }
        other => {
            mismatches.push(format!("stats: unexpected response {other:?}"));
            false
        }
    };
    // Health probe: liveness plus uptime, metered like any endpoint.
    match client.call(&Request::Health).map_err(|e| e.to_string())? {
        Response::Health { .. } => final_requests += 1,
        other => {
            final_requests += 1;
            mismatches.push(format!("health: unexpected response {other:?}"));
        }
    }

    // ---- Plan-cache exercise: one fixed query text, many issues. The
    // first issue may miss; every later one must hit the server's plan
    // cache (the exposition check below asserts hit rate > 0.9 across the
    // whole run). Sized so exercise hits alone outvote the worst-case
    // miss count — every other query text in the run is distinct at most
    // once per (connection, round), plus the distinct texts the literal
    // sweep below deliberately burns. Responses stay differentially
    // checked.
    let cache_query = "MATCH (p:Person) WHERE p.name = \"B\" RETURN p.name".to_string();
    let cache_repeats = 10 * (2 * config.connections * config.rounds + 8 + PARAM_SWEEP + 1) as u64;
    for i in 0..cache_repeats {
        let response = client
            .call(&Request::Cypher {
                query: cache_query.clone(),
                params: Vec::new(),
            })
            .map_err(|e| e.to_string())?;
        final_requests += 1;
        if let Some(m) = check_cypher(&global, &cache_query, &response) {
            mismatches.push(format!("cache-exercise #{i}: {m}"));
            break; // one disagreement would repeat thousands of times
        }
    }

    // ---- Parameterized exercise: the same selective lookup issued two
    // ways over fresh values. Inlined as literal text, every value makes a
    // new query string, so every issue must *miss* the plan cache; carried
    // as a `$name` binding over one fixed text, the server plans once and
    // every later issue must *hit*. The bracketed counter fetches prove
    // both halves; like [`plan_cache_probe`], the brackets assume nothing
    // else drives the server during the post-run phases. Every response is
    // still differentially checked, and the parameterized answers for the
    // sweep values must equal the literal answers exactly — the cached
    // plan may not change what the query returns.
    let plan_counters = |client: &mut Client| -> Result<(f64, f64), String> {
        match client.call(&Request::Metrics).map_err(|e| e.to_string())? {
            Response::Metrics { exposition } => {
                let parsed = s3pg_obs::parse_exposition(&exposition).map_err(|e| e.to_string())?;
                let value = |name: &str| {
                    parsed
                        .iter()
                        .find(|s| s.name == name)
                        .map(|s| s.value)
                        .unwrap_or(0.0)
                };
                Ok((
                    value("s3pg_plan_cache_hits_total{listener=\"json\"}"),
                    value("s3pg_plan_cache_misses_total{listener=\"json\"}"),
                ))
            }
            other => Err(format!("metrics: unexpected response {other:?}")),
        }
    };
    let sweep: Vec<String> = (0..PARAM_SWEEP)
        .map(|i| format!("param-sweep-{i}"))
        .collect();

    // Literal half. The swept names exist nowhere, so the expected rows
    // are empty — emptiness is itself differentially checked.
    let (hits_start, misses_start) = plan_counters(&mut client)?;
    final_requests += 1;
    let mut literal_answers: Vec<Response> = Vec::with_capacity(sweep.len());
    for value in &sweep {
        let query = format!("MATCH (p:Person) WHERE p.name = \"{value}\" RETURN p.name");
        let response = client
            .call(&Request::Cypher {
                query: query.clone(),
                params: Vec::new(),
            })
            .map_err(|e| e.to_string())?;
        final_requests += 1;
        if let Some(m) = check_cypher(&global, &query, &response) {
            mismatches.push(format!("literal-sweep {value}: {m}"));
        }
        literal_answers.push(response);
    }
    let (hits_mid, misses_mid) = plan_counters(&mut client)?;
    final_requests += 1;
    if misses_mid - misses_start < sweep.len() as f64 {
        mismatches.push(format!(
            "plan cache: literal sweep of {} distinct texts produced only {:.0} misses",
            sweep.len(),
            misses_mid - misses_start
        ));
    }
    let literal_denominator = ((hits_mid - hits_start) + (misses_mid - misses_start)).max(1.0);
    let literal_rate = (hits_mid - hits_start) / literal_denominator;
    if literal_rate >= 0.05 {
        mismatches.push(format!(
            "plan cache: distinct literal texts hit at {literal_rate:.3}; expected ~0"
        ));
    }

    // Parameterized half: one text over every value the run has touched —
    // the base names, every connection's markers, and the literal sweep's
    // values (whose answers must match the literal half bit-for-bit).
    let param_query = "MATCH (p:Person) WHERE p.name = $name RETURN p.name";
    let mut values: Vec<String> = vec!["A".into(), "B".into(), "C".into()];
    for c in 0..config.connections {
        for r in 0..config.rounds {
            values.push(marker(c, r));
        }
    }
    values.extend(sweep.iter().cloned());
    for (i, value) in values.iter().enumerate() {
        let bindings = vec![("name".to_string(), Json::Str(value.clone()))];
        let response = client
            .call(&Request::Cypher {
                query: param_query.to_string(),
                params: bindings.clone(),
            })
            .map_err(|e| e.to_string())?;
        final_requests += 1;
        if let Some(m) = check_cypher_params(&global, param_query, &bindings, &response) {
            mismatches.push(format!("param-sweep $name={value}: {m}"));
        }
        // The tail of `values` is the literal sweep, in order.
        if let Some(j) = i.checked_sub(values.len() - sweep.len()) {
            if response != literal_answers[j] {
                mismatches.push(format!(
                    "param-sweep $name={value}: parameterized answer {response:?} \
                     differs from literal answer {:?}",
                    literal_answers[j]
                ));
            }
        }
    }
    let (hits_end, misses_end) = plan_counters(&mut client)?;
    final_requests += 1;
    let param_denominator = ((hits_end - hits_mid) + (misses_end - misses_mid)).max(1.0);
    let param_rate = (hits_end - hits_mid) / param_denominator;
    if param_rate <= 0.95 {
        mismatches.push(format!(
            "plan cache: parameterized issues hit at {param_rate:.3} ≤ 0.95 \
             ({:.0} hits, {:.0} misses over {} issues of one text)",
            hits_end - hits_mid,
            misses_end - misses_mid,
            values.len()
        ));
    }

    // Metrics: the exposition must be well-formed, and the server's
    // per-endpoint request counters must cover everything this client
    // sent. (The metrics request itself is metered only after it is
    // answered, so it is excluded from its own tally.)
    let latencies = samples.into_inner().unwrap();
    let mut tally: std::collections::BTreeMap<&str, u64> = std::collections::BTreeMap::new();
    for s in &latencies {
        *tally.entry(s.endpoint).or_default() += 1;
    }
    *tally.entry("cypher").or_default() += 2 + cache_repeats + (sweep.len() + values.len()) as u64;
    *tally.entry("sparql").or_default() += 1;
    *tally.entry("stats").or_default() += 1;
    *tally.entry("health").or_default() += 1;
    let exposition = match client.call(&Request::Metrics).map_err(|e| e.to_string())? {
        Response::Metrics { exposition } => {
            final_requests += 1;
            exposition
        }
        other => {
            mismatches.push(format!("metrics: unexpected response {other:?}"));
            String::new()
        }
    };
    if !exposition.is_empty() {
        match s3pg_obs::parse_exposition(&exposition) {
            Ok(parsed) => {
                for (endpoint, sent) in &tally {
                    let name = format!("s3pg_requests_total{{endpoint=\"{endpoint}\"}}");
                    let counted = parsed
                        .iter()
                        .find(|s| s.name == name)
                        .map(|s| s.value as u64)
                        .unwrap_or(0);
                    // `<` rather than `!=`: another client may be driving
                    // the same server, but it can never *uncount* ours.
                    if counted < *sent {
                        mismatches.push(format!(
                            "metrics: server counted {counted} {endpoint} requests, \
                             this client sent {sent}"
                        ));
                    }
                }
                let value = |name: &str| {
                    parsed
                        .iter()
                        .find(|s| s.name == name)
                        .map(|s| s.value)
                        .unwrap_or(0.0)
                };
                // The plan cache must be doing its job: on this repeat-heavy
                // workload more than 9 in 10 query lookups hit. (This
                // client speaks JSON; the bolt listener's counters are a
                // separate series.)
                let hits = value("s3pg_plan_cache_hits_total{listener=\"json\"}");
                let misses = value("s3pg_plan_cache_misses_total{listener=\"json\"}");
                if hits + misses <= 0.0 {
                    mismatches.push("metrics: plan-cache counters missing or zero".to_string());
                } else {
                    let rate = hits / (hits + misses);
                    if rate <= 0.9 {
                        mismatches.push(format!(
                            "metrics: plan-cache hit rate {rate:.3} ≤ 0.9 \
                             ({hits:.0} hits, {misses:.0} misses)"
                        ));
                    }
                }
                // The property-value index is accounted for in the memory
                // gauges (the demo graph has indexed name properties).
                if value("s3pg_mem_pg_prop_index_bytes") <= 0.0 {
                    mismatches
                        .push("metrics: s3pg_mem_pg_prop_index_bytes missing or zero".to_string());
                }
                // The query-statistics aggregates must cover everything
                // this client executed (`<` not `!=`: other clients may
                // add, never subtract).
                for language in ["cypher", "sparql"] {
                    let sent = tally.get(language).copied().unwrap_or(0);
                    let series = format!("s3pg_query_executions_total{{language=\"{language}\"}}");
                    let executed = value(&series) as u64;
                    if executed < sent {
                        mismatches.push(format!(
                            "query stats: {series} counted {executed} executions, \
                             this client issued {sent}"
                        ));
                    }
                }
            }
            Err(e) => mismatches.push(format!("metrics: exposition did not parse: {e}")),
        }
    }

    // The per-query registry must agree with the issued counts for the
    // two texts this run hammered: the plan-cache exercise query and the
    // parameterized sweep's single normalized text (one entry across all
    // bindings, since values never reach the key).
    match client
        .call(&Request::QueryStats)
        .map_err(|e| e.to_string())?
    {
        Response::QueryStats { queries } => {
            final_requests += 1;
            let calls_for = |text: &str| {
                queries
                    .iter()
                    .find(|e| e.endpoint == "cypher" && e.query == text)
                    .map(|e| e.calls)
            };
            match calls_for(&cache_query) {
                Some(calls) if calls >= cache_repeats => {}
                got => mismatches.push(format!(
                    "query stats: cache-exercise text shows {got:?} calls, \
                     client issued ≥{cache_repeats}"
                )),
            }
            match calls_for(param_query) {
                Some(calls) if calls >= values.len() as u64 => {}
                got => mismatches.push(format!(
                    "query stats: parameterized text shows {got:?} calls, \
                     client issued {} bindings of one text",
                    values.len()
                )),
            }
        }
        other => mismatches.push(format!("query_stats: unexpected response {other:?}")),
    }

    Ok(LoadReport {
        requests: request_count.into_inner() + final_requests,
        mismatches,
        conforms,
        wall,
        latencies,
        exposition,
    })
}

/// Parse the N-Triples delta documents the loadgen emits — exposed so the
/// incremental property tests can reuse the generator as a workload source.
pub fn parse_delta(nt: &str) -> Graph {
    parse_ntriples(nt).expect("loadgen deltas are well-formed")
}

/// Issue a never-seen query twice and assert — via the server's trace
/// endpoint — that only the *first* issue paid for planning: its trace
/// contains a `query_plan` span, the repeat's trace does not (the plan
/// cache serves the parsed AST and plan without touching the planner).
pub fn plan_cache_probe(addr: &str) -> Result<(), String> {
    let mut client = Client::connect(addr).map_err(|e| e.to_string())?;
    // A query text no other traffic uses, so the first issue must miss.
    let query = "MATCH (p:Person) WHERE p.name = \"plan-cache-probe\" RETURN p.name";
    for issue in 0..2 {
        match client
            .call(&Request::Cypher {
                query: query.to_string(),
                params: Vec::new(),
            })
            .map_err(|e| e.to_string())?
        {
            Response::Cypher { .. } => {}
            other => return Err(format!("probe issue {issue}: unexpected {other:?}")),
        }
    }
    let events = match client
        .call(&Request::Trace {
            limit: 4096,
            since: 0,
        })
        .map_err(|e| e.to_string())?
    {
        Response::Trace { events } => events,
        other => return Err(format!("trace fetch: unexpected {other:?}")),
    };
    // Decode (trace id, span name, kind) out of the JSONL tail; events are
    // oldest-first, so the last two `query_eval` begins are our two issues
    // (nothing else talks to the server while the probe runs).
    use s3pg_server::json;
    let mut eval_traces: Vec<u64> = Vec::new();
    let mut plan_traces: Vec<u64> = Vec::new();
    for (i, line) in events.iter().enumerate() {
        let value = json::parse(line).map_err(|e| format!("trace event {i}: {e}"))?;
        let (Some(trace), Some(name), Some(ev)) = (
            value.get("trace").and_then(Json::as_u64),
            value.get("name").and_then(Json::as_str),
            value.get("ev").and_then(Json::as_str),
        ) else {
            return Err(format!("trace event {i}: missing trace/name/ev: {line}"));
        };
        if ev == "begin" {
            match name {
                "query_eval" => eval_traces.push(trace),
                "query_plan" => plan_traces.push(trace),
                _ => {}
            }
        }
    }
    let [first, second] = eval_traces.last_chunk::<2>().ok_or(format!(
        "trace tail holds {} query_eval spans, need 2",
        eval_traces.len()
    ))?;
    if first == second {
        return Err(format!("probe issues share trace {first}"));
    }
    if !plan_traces.contains(first) {
        return Err(format!(
            "first issue (trace {first}) shows no query_plan span — cache miss did not plan?"
        ));
    }
    if plan_traces.contains(second) {
        return Err(format!(
            "repeat issue (trace {second}) replanned: query_plan span present, plan cache missed"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_are_well_formed_and_deterministic() {
        let mut rng1 = XorShiftRng::seed_from_u64(7);
        let mut rng2 = XorShiftRng::seed_from_u64(7);
        for r in 0..10 {
            let d1 = delta_for(3, r, &mut rng1);
            let d2 = delta_for(3, r, &mut rng2);
            assert_eq!(d1, d2);
            assert!(parse_delta(&d1).len() >= 3);
        }
    }

    #[test]
    fn demo_documents_parse() {
        let g = parse_turtle(demo_data_turtle()).unwrap();
        assert_eq!(g.len(), 8);
        let s = parse_shacl_turtle(demo_shapes_turtle()).unwrap();
        assert_eq!(s.len(), 1);
    }

    #[test]
    fn replica_applies_deltas_through_the_incremental_path() {
        let base = parse_turtle(demo_data_turtle()).unwrap();
        let shapes = parse_shacl_turtle(demo_shapes_turtle()).unwrap();
        let mut replica = Replica::new(&base, &shapes, Mode::Parsimonious);
        let nodes = replica.out.pg.node_count();
        let mut rng = XorShiftRng::seed_from_u64(1);
        replica.apply(&delta_for(0, 0, &mut rng));
        assert_eq!(replica.out.pg.node_count(), nodes + 1);
        assert!(replica.rdf.len() > base.len());
    }
}
