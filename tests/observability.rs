//! Integration tests for the unified observability layer: the server's
//! `metrics`/`health`/`stats`/`trace` endpoints, the slow-query log, and
//! span-tree validity of the traces both the pipeline and the serving
//! path record.

#[path = "support/demo.rs"]
mod demo;

use s3pg::pipeline::transform;
use s3pg::Mode;
use s3pg_bolt::message::{self, ClientMessage, ServerMessage};
use s3pg_bolt::packstream::Value as BoltValue;
use s3pg_bolt::{frame, handshake, DEFAULT_MAX_MESSAGE_BYTES};
use s3pg_obs::{parse_exposition, tracer, validate_span_tree, EventKind, TraceEvent};
use s3pg_rdf::parser::parse_turtle;
use s3pg_server::client::Client;
use s3pg_server::json::{self, Json};
use s3pg_server::protocol::{Request, Response};
use s3pg_server::server::{serve, ServerConfig, ServerHandle};
use s3pg_server::store::{GraphStore, StoreParts};
use s3pg_shacl::parser::parse_shacl_turtle;
use s3pg_wal::{Wal, WalOptions};
use std::sync::Arc;
use std::time::Duration;

fn start_server(config: ServerConfig) -> ServerHandle {
    let rdf = parse_turtle(demo::DATA).unwrap();
    let shapes = parse_shacl_turtle(demo::SHAPES).unwrap();
    let store = GraphStore::new(rdf, &shapes, Mode::Parsimonious);
    serve("127.0.0.1:0", store, config).unwrap()
}

fn cypher_request(query: &str) -> Request {
    Request::Cypher {
        query: query.to_string(),
        params: Vec::new(),
    }
}

/// `(trace, name)` of every span begun in the server's trace ring tail,
/// oldest first.
fn begun_spans(client: &mut Client) -> Vec<(u64, String)> {
    let request = Request::Trace {
        limit: 4096,
        since: 0,
    };
    let Response::Trace { events } = client.call(&request).unwrap() else {
        panic!("expected trace response");
    };
    let begins = events
        .iter()
        .map(|line| json::parse(line).unwrap())
        .filter(|v| v.get("ev").and_then(Json::as_str) == Some("begin"));
    begins
        .map(|v| {
            let trace = v.get("trace").and_then(Json::as_u64).unwrap();
            (trace, v.get("name").and_then(Json::as_str).unwrap().into())
        })
        .collect()
}

#[test]
fn metrics_endpoint_exposes_counters_and_memory_gauges() {
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();

    // Drive a known request mix before asking for metrics.
    for _ in 0..3 {
        client.call(&Request::Ping).unwrap();
    }
    client
        .call(&cypher_request("MATCH (p:Person) RETURN p.name"))
        .unwrap();
    client.call(&Request::Stats).unwrap();

    let Response::Metrics { exposition } = client.call(&Request::Metrics).unwrap() else {
        panic!("expected metrics response");
    };
    // Every line of the exposition is well-formed Prometheus text.
    let samples = parse_exposition(&exposition).unwrap();
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from exposition:\n{exposition}"))
            .value
    };
    // Request counters match the client's own tally exactly (fresh server,
    // single client; the metrics request is metered only after encoding).
    assert_eq!(get("s3pg_requests_total{endpoint=\"ping\"}"), 3.0);
    assert_eq!(get("s3pg_requests_total{endpoint=\"cypher\"}"), 1.0);
    assert_eq!(get("s3pg_requests_total{endpoint=\"stats\"}"), 1.0);
    assert_eq!(get("s3pg_requests_total{endpoint=\"metrics\"}"), 0.0);
    assert_eq!(get("s3pg_request_errors_total{endpoint=\"cypher\"}"), 0.0);
    // Startup freezes synchronously, so the one query ran on the compact
    // form; both form series are registered from the start.
    assert_eq!(get("s3pg_cypher_evaluations_total{form=\"compact\"}"), 1.0);
    assert_eq!(get("s3pg_cypher_evaluations_total{form=\"mutable\"}"), 0.0);
    // Both listeners' caught-panic series exist from boot.
    assert_eq!(get("s3pg_handler_panics_total{listener=\"json\"}"), 0.0);
    assert_eq!(get("s3pg_handler_panics_total{listener=\"bolt\"}"), 0.0);
    // Latency summaries carry counts and quantiles.
    assert_eq!(
        get("s3pg_request_latency_microseconds_count{endpoint=\"ping\"}"),
        3.0
    );
    // Memory accounting gauges are published with the snapshot.
    assert!(get("s3pg_mem_rdf_bytes") > 0.0);
    assert!(get("s3pg_mem_pg_bytes") > 0.0);
    assert_eq!(
        get("s3pg_mem_total_bytes"),
        get("s3pg_mem_rdf_bytes") + get("s3pg_mem_pg_bytes")
    );
    assert_eq!(get("s3pg_snapshot_nodes"), 3.0);
    assert_eq!(get("s3pg_snapshot_conforms"), 1.0);

    handle.shutdown();
    handle.join();
}

#[test]
fn health_and_stats_report_uptime_and_footprint() {
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();

    let Response::Health { uptime_micros } = client.call(&Request::Health).unwrap() else {
        panic!("expected health response");
    };
    std::thread::sleep(Duration::from_millis(5));
    let Response::Health {
        uptime_micros: later,
    } = client.call(&Request::Health).unwrap()
    else {
        panic!("expected health response");
    };
    assert!(later > uptime_micros, "uptime must advance");

    let Response::Stats {
        nodes,
        edges,
        triples,
        conforms,
        mem_bytes,
    } = client.call(&Request::Stats).unwrap()
    else {
        panic!("expected stats response");
    };
    assert_eq!((nodes, edges, triples), (3, 2, 8));
    assert!(conforms);
    assert!(mem_bytes > 0);

    // The snapshot's accounted footprint grows with the graph.
    client
        .call(&Request::Update {
            additions:
                "<http://ex/d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
                 <http://ex/d> <http://ex/name> \"D\" .\n"
                    .to_string(),
            deletions: String::new(),
        })
        .unwrap();
    let Response::Stats {
        mem_bytes: after, ..
    } = client.call(&Request::Stats).unwrap()
    else {
        panic!("expected stats response");
    };
    assert!(after >= mem_bytes);

    handle.shutdown();
    handle.join();
}

#[test]
fn trace_endpoint_tails_request_span_trees() {
    let handle = start_server(ServerConfig::default());
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();

    client.call(&Request::Ping).unwrap();
    client
        .call(&Request::Sparql {
            query: "SELECT ?s WHERE { ?s <http://ex/name> ?n }".to_string(),
            params: Vec::new(),
        })
        .unwrap();

    let Response::Trace { events } = client
        .call(&Request::Trace {
            limit: 4096,
            since: 0,
        })
        .unwrap()
    else {
        panic!("expected trace response");
    };
    assert!(!events.is_empty(), "the ring must hold request spans");
    // Every tailed line is a JSON object with the span fields; request
    // stages appear with the expected names.
    for line in &events {
        let value = json::parse(line).unwrap();
        for field in ["trace", "span", "parent", "t_us"] {
            assert!(value.get(field).is_some(), "{field} missing in {line}");
        }
        let ev = value.get("ev").and_then(Json::as_str);
        assert!(matches!(ev, Some("begin") | Some("end")), "{line}");
    }
    for name in ["\"request\"", "\"decode\"", "\"execute\"", "\"serialize\""] {
        assert!(
            events.iter().any(|l| l.contains(name)),
            "{name} missing from tail: {events:#?}"
        );
    }
    // Query endpoints nest engine spans under `execute`.
    assert!(events.iter().any(|l| l.contains("\"query_plan\"")));
    assert!(events.iter().any(|l| l.contains("\"query_eval\"")));

    // A plan-cache hit skips the planner: of one text issued twice, the
    // first request's span tree has `query_plan`, the second's only
    // `query_eval`. The ring is shared with the other tests of this
    // binary, so an attempt whose window holds someone else's query is
    // retried with a fresh text.
    let probed = (0..20).any(|attempt| {
        let before = begun_spans(&mut client).iter().map(|s| s.0).max();
        let query = format!("MATCH (p:Person) WHERE p.name = \"probe-{attempt}\" RETURN p.name");
        for _ in 0..2 {
            let response = client.call(&cypher_request(&query)).unwrap();
            assert!(matches!(response, Response::Cypher { .. }), "{response:?}");
        }
        let spans = begun_spans(&mut client);
        let spans: Vec<_> = spans.iter().filter(|s| Some(s.0) > before).collect();
        let began = |trace: u64, name: &str| spans.iter().any(|s| s.0 == trace && s.1 == name);
        let evaluated: Vec<u64> = spans
            .iter()
            .filter(|s| s.1 == "query_eval")
            .map(|s| s.0)
            .collect();
        let [miss, hit] = evaluated[..] else {
            return false;
        };
        assert!(
            began(miss, "query_plan"),
            "the first issue must plan: {spans:?}"
        );
        assert!(
            !began(hit, "query_plan"),
            "the repeat must hit the cache: {spans:?}"
        );
        true
    });
    assert!(probed, "every attempt shared its window with another query");

    handle.shutdown();
    handle.join();
}

#[test]
fn slow_query_log_records_stage_timings_and_rows() {
    // Threshold zero: every request is a slow query. One worker, so a
    // request that killed it would leave nobody to serve the next one.
    let handle = start_server(ServerConfig {
        slow_query_threshold: Some(Duration::ZERO),
        workers: 1,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();

    let query = "MATCH (p:Person) RETURN p.name".to_string();
    client.call(&cypher_request(&query)).unwrap();
    client.call(&Request::Ping).unwrap();

    let log = handle.slow_queries();
    assert_eq!(log.len(), 2);
    let slow = &log[0];
    assert_eq!(slow.endpoint, "cypher");
    assert_eq!(slow.query, query);
    assert_eq!(slow.rows, 3);
    assert_eq!(slow.form, Some("compact"));
    assert!(
        slow.total_micros >= slow.decode_micros + slow.execute_micros + slow.serialize_micros,
        "stage timings must not exceed the total: {slow:?}"
    );
    assert_eq!(log[1].endpoint, "ping");
    assert_eq!(log[1].rows, 0);
    assert_eq!(log[1].form, None);

    // A query whose 7th byte is inside a character: a typed error, and
    // the slow-query entry's plan lookup must not panic the one worker,
    // which then serves the next request on this connection.
    let answer = client.call(&cypher_request("ééééé MATCH (n) RETURN n"));
    assert!(matches!(answer, Ok(Response::Error(_))), "{answer:?}");
    assert_eq!(handle.slow_queries().len(), 3);
    assert!(matches!(client.call(&Request::Ping), Ok(Response::Pong)));

    handle.shutdown();
    handle.join();
}

/// A scripted Bolt session: handshake, HELLO, then one RUN + PULL per
/// query.
struct BoltSession(std::net::TcpStream);

impl BoltSession {
    fn connect(addr: std::net::SocketAddr) -> BoltSession {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        handshake::client_handshake(&mut stream).unwrap();
        let mut session = BoltSession(stream);
        let hello = session.call(ClientMessage::Hello(Vec::new()));
        assert!(matches!(hello, ServerMessage::Success(_)), "{hello:?}");
        session
    }

    fn call(&mut self, message: ClientMessage) -> ServerMessage {
        frame::write_message(&mut self.0, &message::encode_client(&message)).unwrap();
        let payload = frame::read_message(&mut self.0, DEFAULT_MAX_MESSAGE_BYTES)
            .unwrap()
            .expect("server closed the session");
        message::decode_server(&payload).unwrap()
    }

    /// RUN + PULL every row; panics on a failure.
    fn run(&mut self, query: &str) {
        let run = self.call(ClientMessage::Run {
            query: query.to_string(),
            parameters: Vec::new(),
            extra: Vec::new(),
        });
        assert!(matches!(run, ServerMessage::Success(_)), "{run:?}");
        let mut answer = self.call(ClientMessage::Pull(vec![("n".into(), BoltValue::Int(-1))]));
        while let ServerMessage::Record(_) = answer {
            let payload = frame::read_message(&mut self.0, DEFAULT_MAX_MESSAGE_BYTES)
                .unwrap()
                .expect("server closed the session");
            answer = message::decode_server(&payload).unwrap();
        }
        assert!(matches!(answer, ServerMessage::Success(_)), "{answer:?}");
    }
}

#[test]
fn slow_query_lines_and_counters_name_the_snapshot_form() {
    let rdf = parse_turtle(demo::DATA).unwrap();
    let shapes = parse_shacl_turtle(demo::SHAPES).unwrap();
    let store = GraphStore::new(rdf, &shapes, Mode::Parsimonious);
    let config = ServerConfig {
        slow_query_threshold: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    let mut handle = serve("127.0.0.1:0", store, config).unwrap();
    let mut bolt = BoltSession::connect(handle.listen_bolt("127.0.0.1:0").unwrap());
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    let query = "MATCH (p:Person) RETURN p.name";

    // Startup froze synchronously: both listeners are served compact.
    client.call(&cypher_request(query)).unwrap();
    bolt.run(query);
    // Nothing is evaluated on a graph for EXPLAIN or for other endpoints.
    client
        .call(&cypher_request(&format!("EXPLAIN {query}")))
        .unwrap();
    client.call(&Request::Ping).unwrap();
    let log = handle.slow_queries();
    let forms: Vec<(&str, &str, Option<&str>)> = log
        .iter()
        .map(|e| (e.endpoint, e.listener, e.form))
        .collect();
    assert_eq!(
        forms,
        [
            ("cypher", "json", Some("compact")),
            ("cypher", "bolt", Some("compact")),
            ("cypher", "json", None),
            ("ping", "json", None),
        ]
    );

    // Right after an update either form may serve (the freeze runs in the
    // background); whichever did is named, and the counters agree with
    // the log entry by entry.
    client
        .call(&Request::Update {
            additions: "<http://ex/d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n"
                .to_string(),
            deletions: String::new(),
        })
        .unwrap();
    client.call(&cypher_request(query)).unwrap();
    bolt.run(query);
    let log = handle.slow_queries();
    let Response::Metrics { exposition } = client.call(&Request::Metrics).unwrap() else {
        panic!("expected metrics response");
    };
    let samples = parse_exposition(&exposition).unwrap();
    for form in ["compact", "mutable"] {
        let series = format!("s3pg_cypher_evaluations_total{{form=\"{form}\"}}");
        let counted = samples.iter().find(|s| s.name == series).map(|s| s.value);
        let logged = log.iter().filter(|e| e.form == Some(form)).count();
        assert_eq!(counted, Some(logged as f64), "{series}: {log:#?}");
    }
    let evaluated: Vec<Option<&str>> = log
        .iter()
        .filter(|e| e.endpoint == "cypher" && !e.query.starts_with("EXPLAIN"))
        .map(|e| e.form)
        .collect();
    assert_eq!(evaluated.len(), 4, "{log:#?}");
    assert!(
        evaluated
            .iter()
            .all(|f| matches!(f, Some("compact") | Some("mutable"))),
        "{log:#?}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn one_update_publishes_its_write_path_metrics_and_spans() {
    // A durable store, so the update also waits on its WAL commit.
    let dir = std::env::temp_dir().join(format!("s3pg-obs-update-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let registry = Arc::new(s3pg_obs::Registry::new());
    let (wal, _) = Wal::open(&dir, WalOptions::default(), &registry).unwrap();
    let rdf = parse_turtle(demo::DATA).unwrap();
    let shapes = parse_shacl_turtle(demo::SHAPES).unwrap();
    let out = transform(&rdf, &shapes, Mode::Parsimonious);
    let parts = StoreParts {
        rdf,
        pg: out.pg,
        schema: out.schema,
        state: out.state,
        conformance: Some(out.conformance),
    };
    let store = GraphStore::from_parts(parts, registry, Some(Arc::new(wal)), 0, None);
    let handle = serve("127.0.0.1:0", store, ServerConfig::default()).unwrap();
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    client
        .call(&Request::Update {
            additions:
                "<http://ex/d> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
                 <http://ex/d> <http://ex/name> \"D\" .\n"
                    .to_string(),
            deletions: String::new(),
        })
        .unwrap();

    let Response::Metrics { exposition } = client.call(&Request::Metrics).unwrap() else {
        panic!("expected metrics response");
    };
    let samples = parse_exposition(&exposition).unwrap();
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from exposition:\n{exposition}"))
            .value
    };
    assert_eq!(get("s3pg_updates_applied_total"), 1.0);
    assert_eq!(get("s3pg_update_conformance_microseconds_count"), 1.0);
    assert_eq!(get("s3pg_update_clone_microseconds_count"), 1.0);
    assert_eq!(get("s3pg_update_commit_microseconds_count"), 1.0);
    // The startup graph records its changes from the start, so even the
    // first update's check is delta-scoped; both series exist from boot.
    assert_eq!(get("s3pg_conformance_checks_total{scope=\"delta\"}"), 1.0);
    assert_eq!(get("s3pg_conformance_checks_total{scope=\"full\"}"), 0.0);
    // A lone writer's flush covers its own record only.
    assert_eq!(get("s3pg_wal_group_commit_batch_count"), 1.0);
    assert_eq!(get("s3pg_wal_group_commit_batch_sum"), 1.0);
    // The first update has no standby yet, so it copied the live snapshot.
    assert_eq!(get("s3pg_update_side_total{outcome=\"cloned\"}"), 1.0);
    assert!(!exposition.contains("outcome=\"reused\""), "{exposition}");
    assert_eq!(get("s3pg_snapshot_conforms"), 1.0);
    assert_eq!(get("s3pg_snapshot_nonconforming_elements"), 0.0);

    // The three steps held under the writer lock are children of the
    // update request's `execute` span, as is the parse before the lock.
    let Response::Trace { events } = client
        .call(&Request::Trace {
            limit: 4096,
            since: 0,
        })
        .unwrap()
    else {
        panic!("expected trace response");
    };
    let begins: Vec<Json> = events
        .iter()
        .map(|line| json::parse(line).unwrap())
        .filter(|v| v.get("ev").and_then(Json::as_str) == Some("begin"))
        .collect();
    let id = |v: &Json, field: &str| v.get(field).and_then(Json::as_u64);
    let named = |name: &str, trace: Option<u64>| {
        begins
            .iter()
            .find(|v| {
                v.get("name").and_then(Json::as_str) == Some(name)
                    && (trace.is_none() || id(v, "trace") == trace)
            })
            .unwrap_or_else(|| panic!("{name} span missing from tail: {events:#?}"))
    };
    // Other tests' servers take ephemeral updates; only this one commits.
    let trace = id(named("update_commit", None), "trace");
    let execute = id(named("execute", trace), "span");
    for name in [
        "parse_delta",
        "update_clone",
        "update_apply",
        "update_conformance",
        "update_commit",
    ] {
        assert_eq!(
            id(named(name, trace), "parent"),
            execute,
            "{name} must hang under the update's execute span"
        );
    }
    // The delta goes through the pipeline's phases but not its
    // instrument: an update's trace holds the server's spans only.
    for name in ["phase1_nodes", "phase2_props"] {
        let leaked = begins
            .iter()
            .any(|v| v.get("name").and_then(Json::as_str) == Some(name) && id(v, "trace") == trace);
        assert!(!leaked, "{name} span recorded under an update: {events:#?}");
    }

    handle.shutdown();
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_boot_times_its_four_steps() {
    use s3pg_server::recovery::{recover, RecoveryConfig};
    let dir = std::env::temp_dir().join(format!("s3pg-obs-boot-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.nt");
    std::fs::write(
        &data,
        "<http://ex/a> <http://ex/knows> <http://ex/b> .\n<http://ex/a> <http://ex/name> \"A\" .\n",
    )
    .unwrap();
    let config = RecoveryConfig {
        data,
        shapes: None,
        mode: Mode::Parsimonious,
        wal_dir: Some(dir.join("wal")),
        wal_options: Default::default(),
    };
    let tracer = tracer();
    tracer.set_enabled(true);
    // A first boot, one acknowledged update, then the boot that replays it.
    let first = recover(&config, Default::default()).unwrap();
    first
        .store
        .apply_update("<http://ex/b> <http://ex/name> \"B\" .\n", "")
        .unwrap();
    drop(first);
    let registry = std::sync::Arc::new(s3pg_obs::Registry::new());
    let second = recover(&config, registry.clone()).unwrap();
    assert_eq!(second.store.snapshot().rdf.len(), 3);

    let samples = parse_exposition(&registry.expose()).unwrap();
    for step in ["parse", "transform", "replay", "freeze"] {
        let name = format!("s3pg_boot_step_seconds{{step=\"{step}\"}}");
        let sample = samples.iter().find(|s| s.name == name);
        assert!(
            sample.is_some_and(|s| s.value > 0.0 && s.value < 60.0),
            "{name}: {sample:?}"
        );
    }
    // The same four steps are the children of the last `boot` span.
    let events = tracer.tail(usize::MAX);
    let boot = events
        .iter()
        .rev()
        .find(|e| e.kind == EventKind::Begin && e.name == "boot")
        .expect("a boot span");
    assert_eq!(boot.parent, 0);
    let steps: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.trace == boot.trace && e.parent == boot.span)
        .map(|e| e.name)
        .collect();
    assert_eq!(steps, ["parse", "transform", "replay", "freeze"]);
    validate_span_tree(&tracer.events_for(boot.trace)).unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn pipeline_trace_forms_a_valid_span_tree() {
    let rdf = parse_turtle(demo::DATA).unwrap();
    let shapes = parse_shacl_turtle(demo::SHAPES).unwrap();

    let tracer = tracer();
    tracer.set_enabled(true);
    let trace = tracer.new_trace();
    {
        let _root = tracer.span(trace, "convert");
        let out = transform(&rdf, &shapes, Mode::Parsimonious);
        assert!(out.conformance.conforms());
        // The pass reports its schema width and what phase 2 made of the
        // statements, split by encoding.
        let (m, items) = (&out.metrics, out.metrics.phase2_items);
        assert!(
            m.type_sets > 0
                && m.resolved_pairs >= m.type_sets
                && items.key_values == out.counters.key_values as u64
                && items.edges + items.carriers == out.counters.edges as u64,
            "{m:?} vs {:?}",
            out.counters
        );
    }

    let events = tracer.events_for(trace);
    validate_span_tree(&events).unwrap();
    assert_eq!(events.len() % 2, 0);
    let begins: Vec<&str> = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin)
        .map(|e| e.name)
        .collect();
    for name in [
        "convert",
        "schema_transform",
        "phase1_nodes",
        "phase2_props",
        "conformance",
    ] {
        assert!(begins.contains(&name), "{name} missing from {begins:?}");
    }
    // One pass: each phase runs once, the two side by side.
    let begun = |name: &str| {
        events
            .iter()
            .filter(|e| e.kind == EventKind::Begin && e.name == name)
            .collect::<Vec<_>>()
    };
    let (phase1, phase2) = (begun("phase1_nodes"), begun("phase2_props"));
    assert_eq!((phase1.len(), phase2.len()), (1, 1), "{begins:?}");
    assert_eq!(phase2[0].parent, phase1[0].parent);
}

/// `s3pg-convert --metrics --trace-out` leaves a trace file that is a
/// valid span tree with one `phase2_props` span, beside a complete
/// `metrics.json`.
#[test]
fn convert_writes_a_valid_trace_beside_a_complete_metrics_json() {
    let dir = std::env::temp_dir().join(format!("s3pg-obs-convert-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("data.ttl"), demo::DATA).unwrap();
    std::fs::write(dir.join("shapes.ttl"), demo::SHAPES).unwrap();
    let path = |name: &str| dir.join(name).to_string_lossy().to_string();
    let argv = [
        "--data",
        &path("data.ttl"),
        "--shapes",
        &path("shapes.ttl"),
        "--out-dir",
        &path("convert"),
        "--metrics",
        "--trace-out",
        &path("convert/trace.jsonl"),
    ];
    let options = s3pg::cli::parse_args(argv.iter().map(|a| a.to_string())).unwrap();
    s3pg::cli::run(&options).unwrap();

    // Every line is one event with every field present and typed (an
    // empty line does not parse).
    let text = std::fs::read_to_string(path("convert/trace.jsonl")).unwrap();
    let mut events = Vec::new();
    for (n, line) in (1..).zip(text.lines()) {
        let value = json::parse(line).unwrap_or_else(|e| panic!("line {n}: {e}"));
        let field = |name: &str| {
            value
                .get(name)
                .unwrap_or_else(|| panic!("line {n}: no {name}"))
        };
        let num = |name: &str| {
            field(name)
                .as_u64()
                .unwrap_or_else(|| panic!("line {n}: {name}"))
        };
        let kind = match field("ev").as_str() {
            Some("begin") => EventKind::Begin,
            Some("end") => EventKind::End,
            other => panic!("line {n}: bad \"ev\" field {other:?}"),
        };
        let name = field("name")
            .as_str()
            .unwrap_or_else(|| panic!("line {n}: name"));
        events.push(TraceEvent {
            trace: num("trace"),
            span: num("span"),
            parent: num("parent"),
            name: Box::leak(name.to_string().into_boxed_str()),
            kind,
            t_us: num("t_us"),
        });
    }
    assert!(!events.is_empty() && events.len() % 2 == 0, "{text}");
    validate_span_tree(&events).unwrap();
    let phase2 = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == "phase2_props");
    assert_eq!(phase2.count(), 1, "{text}");

    let text = std::fs::read_to_string(path("convert/metrics.json")).unwrap();
    let value = json::parse(text.trim()).unwrap();
    let phases = value.get("phases").and_then(Json::as_array).unwrap();
    assert!(!phases.is_empty(), "{text}");
    for phase in phases {
        assert!(phase.get("name").and_then(Json::as_str).is_some(), "{text}");
        for field in ["wall_micros", "items"] {
            assert!(phase.get(field).and_then(Json::as_u64).is_some(), "{text}");
        }
    }
    assert!(value
        .get("total_wall_micros")
        .and_then(Json::as_u64)
        .is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// OPERATIONS.md §7's metric rows: `(family, documented type, subsection)`.
fn documented_metrics() -> Vec<(String, String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../OPERATIONS.md");
    let text = std::fs::read_to_string(path).unwrap();
    let section = text
        .split("\n## 7. ")
        .nth(1)
        .and_then(|rest| rest.split("\n## 8. ").next())
        .expect("OPERATIONS.md has a §7 before a §8");
    let mut heading = String::new();
    let mut rows = Vec::new();
    for line in section.lines() {
        if let Some(h) = line.strip_prefix("### ") {
            heading = h.to_string();
            continue;
        }
        // `| `name` | type | meaning |`
        let cells: Vec<&str> = line.split('|').map(str::trim).collect();
        let Some(name) = cells
            .get(1)
            .and_then(|c| c.strip_prefix("`s3pg_"))
            .and_then(|c| c.strip_suffix('`'))
        else {
            continue;
        };
        let family = format!("s3pg_{}", s3pg_obs::family_of(name));
        rows.push((family, cells[2].to_string(), heading.clone()));
    }
    rows
}

/// §7 rows that a durable boot with one update and one query per language
/// does not register, with what registers them.
const REGISTERED_LATER: [(&str, &str); 3] = [
    (
        "s3pg_compaction_spawn_failures_total",
        "the OS refusing a background freeze thread",
    ),
    ("s3pg_checkpoints_total", "the first checkpoint"),
    ("s3pg_checkpoint_wall_microseconds", "the first checkpoint"),
];

#[test]
fn operations_metric_reference_matches_the_registry() {
    let dir = std::env::temp_dir().join(format!("s3pg-obs-reference-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let data = dir.join("data.ttl");
    std::fs::write(&data, demo::DATA).unwrap();
    let shapes = dir.join("shapes.ttl");
    std::fs::write(&shapes, demo::SHAPES).unwrap();
    let path = |p: &std::path::Path| p.to_string_lossy().to_string();
    let argv = [
        "--data",
        &path(&data),
        "--shapes",
        &path(&shapes),
        "--addr",
        "127.0.0.1:0",
        "--bolt-addr",
        "127.0.0.1:0",
        "--wal-dir",
        &path(&dir.join("wal")),
    ];
    let options = s3pg_server::cli::parse_args(argv.iter().map(|s| s.to_string())).unwrap();
    let (handle, _) = s3pg_server::cli::start(&options).unwrap();
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    client
        .call(&Request::Update {
            additions: "<http://ex/d> <http://ex/name> \"D\" .\n".to_string(),
            deletions: String::new(),
        })
        .unwrap();
    client
        .call(&cypher_request("MATCH (p:Person) RETURN p.name"))
        .unwrap();
    client
        .call(&Request::Sparql {
            query: "SELECT ?s WHERE { ?s <http://ex/name> ?n }".to_string(),
            params: Vec::new(),
        })
        .unwrap();
    let Response::Metrics { exposition } = client.call(&Request::Metrics).unwrap() else {
        panic!("expected metrics response");
    };
    handle.shutdown();
    handle.join();
    std::fs::remove_dir_all(&dir).unwrap();

    parse_exposition(&exposition).unwrap();
    // The registry exposes a histogram as a Prometheus summary.
    let registered: std::collections::BTreeMap<&str, &str> = exposition
        .lines()
        .filter_map(|line| line.strip_prefix("# TYPE "))
        .filter_map(|rest| rest.split_once(' '))
        .filter(|(family, _)| family.starts_with("s3pg_"))
        .map(|(family, kind)| (family, if kind == "summary" { "histogram" } else { kind }))
        .collect();
    let documented = documented_metrics();
    assert!(documented.len() > 40, "§7 scan found {documented:?}");

    let mut wrong = Vec::new();
    for (&family, &kind) in &registered {
        match documented.iter().find(|(name, ..)| name == family) {
            None => wrong.push(format!("{family} ({kind}) is registered but not in §7")),
            Some((_, doc, _)) if doc != kind => {
                wrong.push(format!("{family} is a {kind}, §7 says {doc}"))
            }
            Some(_) => {}
        }
    }
    for (family, kind, heading) in &documented {
        let later = REGISTERED_LATER.iter().find(|(name, _)| name == family);
        if !registered.contains_key(family.as_str())
            && later.is_none()
            && heading != "Replica (replicas only)"
        {
            wrong.push(format!(
                "§7 {heading}: {family} ({kind}) is never registered"
            ));
        }
    }
    for (family, condition) in REGISTERED_LATER {
        if !documented.iter().any(|(name, ..)| name == family) {
            wrong.push(format!(
                "{family} is listed as registered later but not in §7"
            ));
        }
        if registered.contains_key(family) {
            wrong.push(format!(
                "{family} is registered at boot, not by {condition}"
            ));
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}
