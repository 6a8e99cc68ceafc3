//! Integration tests for the unified observability layer: the server's
//! `metrics`/`health`/`stats`/`trace` endpoints, the slow-query log, and
//! span-tree validity of the traces both the pipeline and the serving
//! path record.

use s3pg::pipeline::{transform_with, PipelineConfig};
use s3pg::Mode;
use s3pg_bench::serving::{demo_data_turtle, demo_shapes_turtle};
use s3pg_bolt::message::{self, ClientMessage, ServerMessage};
use s3pg_bolt::packstream::Value as BoltValue;
use s3pg_bolt::{frame, handshake, DEFAULT_MAX_MESSAGE_BYTES};
use s3pg_obs::{parse_exposition, tracer, validate_span_tree, EventKind};
use s3pg_rdf::parser::parse_turtle;
use s3pg_server::client::Client;
use s3pg_server::protocol::{Request, Response};
use s3pg_server::server::{serve, ServerConfig, ServerHandle};
use s3pg_server::store::{GraphStore, StoreParts};
use s3pg_shacl::parser::parse_shacl_turtle;
use s3pg_wal::{Wal, WalOptions};
use std::sync::Arc;
use std::time::Duration;

fn start_server(config: ServerConfig) -> ServerHandle {
    let rdf = parse_turtle(demo_data_turtle()).unwrap();
    let shapes = parse_shacl_turtle(demo_shapes_turtle()).unwrap();
    let store = GraphStore::new(rdf, &shapes, Mode::Parsimonious, 1);
    serve("127.0.0.1:0", store, config).unwrap()
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
        .call(&Request::Cypher {
            query: "MATCH (p:Person) RETURN p.name".to_string(),
            params: Vec::new(),
        })
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
        let value = s3pg_server::json::parse(line).unwrap();
        for field in ["trace", "span", "parent", "t_us"] {
            assert!(value.get(field).is_some(), "{field} missing in {line}");
        }
        let ev = value.get("ev").and_then(s3pg_server::json::Json::as_str);
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

    handle.shutdown();
    handle.join();
}

#[test]
fn slow_query_log_records_stage_timings_and_rows() {
    // Threshold zero: every request is a slow query.
    let handle = start_server(ServerConfig {
        slow_query_threshold: Some(Duration::ZERO),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();

    let query = "MATCH (p:Person) RETURN p.name".to_string();
    client
        .call(&Request::Cypher {
            query: query.clone(),
            params: Vec::new(),
        })
        .unwrap();
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
    let rdf = parse_turtle(demo_data_turtle()).unwrap();
    let shapes = parse_shacl_turtle(demo_shapes_turtle()).unwrap();
    let store = GraphStore::new(rdf, &shapes, Mode::Parsimonious, 1);
    let config = ServerConfig {
        slow_query_threshold: Some(Duration::ZERO),
        ..ServerConfig::default()
    };
    let mut handle = serve("127.0.0.1:0", store, config).unwrap();
    let mut bolt = BoltSession::connect(handle.listen_bolt("127.0.0.1:0").unwrap());
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();
    let cypher = |query: &str| Request::Cypher {
        query: query.to_string(),
        params: Vec::new(),
    };
    let query = "MATCH (p:Person) RETURN p.name";

    // Startup froze synchronously: both listeners are served compact.
    client.call(&cypher(query)).unwrap();
    bolt.run(query);
    // Nothing is evaluated on a graph for EXPLAIN or for other endpoints.
    client.call(&cypher(&format!("EXPLAIN {query}"))).unwrap();
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
    client.call(&cypher(query)).unwrap();
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
    let rdf = parse_turtle(demo_data_turtle()).unwrap();
    let shapes = parse_shacl_turtle(demo_shapes_turtle()).unwrap();
    let out = transform_with(&rdf, &shapes, Mode::Parsimonious, PipelineConfig::default());
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
    use s3pg_server::json::Json;
    let begins: Vec<Json> = events
        .iter()
        .map(|line| s3pg_server::json::parse(line).unwrap())
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
    // The delta goes through the pipeline's classifier but not its
    // instrument: an update's trace holds the server's spans only.
    for name in ["phase1_nodes", "phase2_props", "shard"] {
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
        threads: 1,
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
    let rdf = parse_turtle(demo_data_turtle()).unwrap();
    let shapes = parse_shacl_turtle(demo_shapes_turtle()).unwrap();

    let tracer = tracer();
    tracer.set_enabled(true);
    let trace = tracer.new_trace();
    {
        let _root = tracer.span(trace, "convert");
        let out = transform_with(
            &rdf,
            &shapes,
            Mode::Parsimonious,
            PipelineConfig { threads: 2 },
        );
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
        "shard",
        "conformance",
    ] {
        assert!(begins.contains(&name), "{name} missing from {begins:?}");
    }
    // Two parallel shards, each its own child span of phase2.
    assert_eq!(begins.iter().filter(|n| **n == "shard").count(), 2);
}
