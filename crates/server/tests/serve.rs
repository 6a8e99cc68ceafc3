//! End-to-end tests of the serving subsystem over real TCP connections:
//! reads, live monotonic updates, typed error frames on malformed input,
//! load shedding at saturation, and graceful shutdown drain.

use s3pg::Mode;
use s3pg_rdf::parser::parse_turtle;
use s3pg_server::client::{Client, ClientError};
use s3pg_server::protocol::{ErrorKind, Request, Response};
use s3pg_server::server::{serve, ServerConfig, ServerHandle};
use s3pg_server::store::GraphStore;
use s3pg_shacl::parser::parse_shacl_turtle;
use std::net::TcpStream;
use std::time::{Duration, Instant};

const SHAPES: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
<http://ex/shape/Person> a sh:NodeShape ; sh:targetClass :Person ;
    sh:property [ sh:path :name ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] ;
    sh:property [ sh:path :knows ; sh:class :Person ; sh:minCount 0 ] .
"#;

const DATA: &str = r#"
@prefix : <http://ex/> .
:a a :Person ; :name "A" ; :knows :b .
:b a :Person ; :name "B" .
"#;

fn start_server(config: ServerConfig) -> ServerHandle {
    let rdf = parse_turtle(DATA).unwrap();
    let shapes = parse_shacl_turtle(SHAPES).unwrap();
    let store = GraphStore::new(rdf, &shapes, Mode::Parsimonious);
    serve("127.0.0.1:0", store, config).unwrap()
}

fn connect(handle: &ServerHandle) -> Client {
    Client::connect(&handle.addr.to_string()).unwrap()
}

#[test]
fn serves_reads_updates_and_metrics_over_tcp() {
    let handle = start_server(ServerConfig::default());
    let mut client = connect(&handle);

    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);

    // Cypher read.
    let response = client
        .call(&Request::Cypher {
            query: "MATCH (p:Person) RETURN p.name".to_string(),
            params: Vec::new(),
        })
        .unwrap();
    let Response::Cypher { columns, mut rows } = response else {
        panic!("expected cypher rows");
    };
    assert_eq!(columns, vec!["p.name"]);
    rows.sort();
    assert_eq!(
        rows,
        vec![vec![Some("A".to_string())], vec![Some("B".to_string())]]
    );

    // SPARQL read over the same logical state.
    let response = client
        .call(&Request::Sparql {
            query: "PREFIX ex: <http://ex/> SELECT ?n WHERE { ?s ex:name ?n }".to_string(),
            params: Vec::new(),
        })
        .unwrap();
    let Response::Sparql { vars, rows } = response else {
        panic!("expected sparql rows");
    };
    assert_eq!(vars, vec!["n"]);
    assert_eq!(rows.len(), 2);

    // Monotonic live update…
    let response = client
        .call(&Request::Update {
            additions:
                "<http://ex/c> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
                 <http://ex/c> <http://ex/name> \"C\" .\n\
                 <http://ex/c> <http://ex/knows> <http://ex/a> .\n"
                    .to_string(),
            deletions: String::new(),
        })
        .unwrap();
    assert_eq!(
        response,
        Response::Update {
            added_nodes: 1,
            added_edges: 1,
            added_properties: 1,
            removed: 0,
            conforms: true
        }
    );

    // …visible to reads issued after the ack, on both engines.
    let response = client
        .call(&Request::Cypher {
            query: "MATCH (p:Person) RETURN p.name".to_string(),
            params: Vec::new(),
        })
        .unwrap();
    let Response::Cypher { rows, .. } = response else {
        panic!("expected cypher rows");
    };
    assert_eq!(rows.len(), 3);
    let response = client.call(&Request::Stats).unwrap();
    let Response::Stats {
        nodes,
        triples,
        conforms,
        mem_bytes,
        ..
    } = response
    else {
        panic!("expected stats");
    };
    assert_eq!(nodes, 3);
    assert_eq!(triples, 8);
    assert!(conforms);
    assert!(mem_bytes > 0);

    // Metrics: a well-formed Prometheus-style exposition with request
    // counters and memory gauges.
    let response = client.call(&Request::Metrics).unwrap();
    let Response::Metrics { exposition } = response else {
        panic!("expected metrics");
    };
    let samples = s3pg_obs::parse_exposition(&exposition).unwrap();
    let sample = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from exposition:\n{exposition}"))
            .value
    };
    assert_eq!(sample("s3pg_requests_total{endpoint=\"ping\"}"), 1.0);
    assert_eq!(sample("s3pg_requests_total{endpoint=\"cypher\"}"), 2.0);
    assert_eq!(sample("s3pg_requests_total{endpoint=\"sparql\"}"), 1.0);
    assert_eq!(sample("s3pg_requests_total{endpoint=\"update\"}"), 1.0);
    assert_eq!(
        sample("s3pg_request_errors_total{endpoint=\"cypher\"}"),
        0.0
    );
    assert!(sample("s3pg_mem_total_bytes") > 0.0);
    assert_eq!(sample("s3pg_snapshot_nodes"), 3.0);

    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_input_yields_typed_errors_not_panics() {
    let handle = start_server(ServerConfig::default());
    let mut client = connect(&handle);

    // Garbage frame.
    let Response::Error(e) = client.call_raw("this is not json").unwrap() else {
        panic!("expected error frame");
    };
    assert_eq!(e.kind, ErrorKind::BadRequest);

    // Unknown op.
    let Response::Error(e) = client.call_raw(r#"{"op":"explode"}"#).unwrap() else {
        panic!("expected error frame");
    };
    assert_eq!(e.kind, ErrorKind::BadRequest);

    // Bad Cypher.
    let Response::Error(e) = client
        .call(&Request::Cypher {
            query: "MATCH (((".to_string(),
            params: Vec::new(),
        })
        .unwrap()
    else {
        panic!("expected error frame");
    };
    assert_eq!(e.kind, ErrorKind::Query);

    // Bad SPARQL.
    let Response::Error(e) = client
        .call(&Request::Sparql {
            query: "SELECT WHERE {".to_string(),
            params: Vec::new(),
        })
        .unwrap()
    else {
        panic!("expected error frame");
    };
    assert_eq!(e.kind, ErrorKind::Query);

    // Bad N-Triples delta.
    let Response::Error(e) = client
        .call(&Request::Update {
            additions: "<unterminated <garbage>".to_string(),
            deletions: String::new(),
        })
        .unwrap()
    else {
        panic!("expected error frame");
    };
    assert_eq!(e.kind, ErrorKind::Parse);

    // The connection survived all of it.
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);

    // And the metrics recorded the failures.
    let Response::Metrics { exposition } = client.call(&Request::Metrics).unwrap() else {
        panic!("expected metrics");
    };
    let samples = s3pg_obs::parse_exposition(&exposition).unwrap();
    let sample = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from exposition:\n{exposition}"))
            .value
    };
    assert_eq!(sample("s3pg_requests_total{endpoint=\"invalid\"}"), 2.0);
    assert_eq!(
        sample("s3pg_request_errors_total{endpoint=\"invalid\"}"),
        2.0
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn parameterized_queries_plan_once_and_validate_names() {
    use s3pg_server::json::Json;

    let handle = start_server(ServerConfig::default());
    let mut client = connect(&handle);

    let query = "MATCH (p:Person) WHERE p.name = $who RETURN p.name";
    let rows = |client: &mut Client, query: &str, params: Vec<(String, Json)>| {
        let response = client
            .call(&Request::Cypher {
                query: query.to_string(),
                params,
            })
            .unwrap();
        let Response::Cypher { rows, .. } = response else {
            panic!("expected cypher rows, got {response:?}");
        };
        rows
    };
    let run = |client: &mut Client, who: &str| {
        rows(
            client,
            query,
            vec![("who".to_string(), Json::Str(who.to_string()))],
        )
    };

    let cache_series = |handle: &ServerHandle, family: &str| {
        let exposition = handle.metrics_exposition();
        s3pg_obs::parse_exposition(&exposition)
            .unwrap()
            .iter()
            .find(|s| s.name == format!("s3pg_plan_cache_{family}_total{{listener=\"json\"}}"))
            .map(|s| s.value as u64)
            .unwrap_or(0)
    };

    // Two different bindings of one query text: correct rows both times,
    // and the second issue is a plan-cache hit (same normalized text).
    assert_eq!(run(&mut client, "A"), vec![vec![Some("A".to_string())]]);
    let (hits, misses) = (
        cache_series(&handle, "hits"),
        cache_series(&handle, "misses"),
    );
    assert_eq!(run(&mut client, "B"), vec![vec![Some("B".to_string())]]);
    assert_eq!(
        run(&mut client, "nobody"),
        Vec::<Vec<Option<String>>>::new()
    );
    // Inlined as literal text, each value is a new query string that
    // misses, and answers what the bound form does.
    for who in ["A", "B", "nobody"] {
        let literal = format!("MATCH (p:Person) WHERE p.name = \"{who}\" RETURN p.name");
        let bound = run(&mut client, who);
        assert_eq!(rows(&mut client, &literal, Vec::new()), bound, "{who:?}");
    }
    // Every bound issue after the first hit; every literal text missed.
    assert_eq!(cache_series(&handle, "hits"), hits + 5);
    assert_eq!(cache_series(&handle, "misses"), misses + 3);

    // Values never reach the query-stats key: six bindings, one entry.
    let Response::QueryStats { queries } = client.call(&Request::QueryStats).unwrap() else {
        panic!("expected query stats");
    };
    let entry = queries
        .iter()
        .find(|e| e.endpoint == "cypher" && e.query == query)
        .unwrap_or_else(|| panic!("no entry for {query}: {queries:?}"));
    assert_eq!(entry.calls, 6);

    // Unused binding (query never references $typo) → typed bad_request.
    let response = client
        .call(&Request::Cypher {
            query: query.to_string(),
            params: vec![
                ("who".to_string(), Json::Str("A".to_string())),
                ("typo".to_string(), Json::Str("x".to_string())),
            ],
        })
        .unwrap();
    let Response::Error(e) = response else {
        panic!("expected error, got {response:?}");
    };
    assert_eq!(e.kind, ErrorKind::BadRequest);
    assert!(
        e.message.contains("unused parameter $typo"),
        "{}",
        e.message
    );

    // Undeclared (query references $who, no binding) → typed bad_request.
    let response = client
        .call(&Request::Cypher {
            query: query.to_string(),
            params: Vec::new(),
        })
        .unwrap();
    let Response::Error(e) = response else {
        panic!("expected error, got {response:?}");
    };
    assert_eq!(e.kind, ErrorKind::BadRequest);
    assert!(
        e.message.contains("undeclared parameter $who"),
        "{}",
        e.message
    );

    // SPARQL shares the exact same parameter semantics: an "<iri>" string
    // binds an IRI term, and validation applies identically.
    let response = client
        .call(&Request::Sparql {
            query: "PREFIX ex: <http://ex/> SELECT ?n WHERE { $s ex:name ?n }".to_string(),
            params: vec![("s".to_string(), Json::Str("<http://ex/a>".to_string()))],
        })
        .unwrap();
    let Response::Sparql { rows, .. } = response else {
        panic!("expected sparql rows, got {response:?}");
    };
    assert_eq!(rows, vec![vec![Some("A".to_string())]]);
    let response = client
        .call(&Request::Sparql {
            query: "PREFIX ex: <http://ex/> SELECT ?n WHERE { ?s ex:name ?n }".to_string(),
            params: vec![("ghost".to_string(), Json::Str("x".to_string()))],
        })
        .unwrap();
    let Response::Error(e) = response else {
        panic!("expected error, got {response:?}");
    };
    assert_eq!(e.kind, ErrorKind::BadRequest);
    assert!(
        e.message.contains("unused parameter $ghost"),
        "{}",
        e.message
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn explain_profile_and_query_stats_over_tcp() {
    use s3pg_server::json;

    let handle = start_server(ServerConfig::default());
    let mut client = connect(&handle);

    // EXPLAIN on both languages: a plan comes back, nothing executes.
    let response = client
        .call(&Request::Cypher {
            query: "EXPLAIN MATCH (p:Person) RETURN p.name ORDER BY p.name".to_string(),
            params: Vec::new(),
        })
        .unwrap();
    let Response::Explain { language, plan } = response else {
        panic!("expected explain plan, got {response:?}");
    };
    assert_eq!(language, "cypher");
    assert!(plan.ops().contains(&"Sort"), "{:?}", plan.ops());
    assert!(plan.rows.is_none(), "EXPLAIN must carry no profile fields");

    let response = client
        .call(&Request::Sparql {
            query: "explain PREFIX ex: <http://ex/> SELECT ?n WHERE { ?s ex:name ?n }".to_string(),
            params: Vec::new(),
        })
        .unwrap();
    let Response::Explain { language, plan } = response else {
        panic!("expected explain plan, got {response:?}");
    };
    assert_eq!(language, "sparql");
    assert!(
        plan.ops().contains(&"TriplePatternScan"),
        "{:?}",
        plan.ops()
    );
    assert!(plan.rows.is_none(), "EXPLAIN must carry no profile fields");

    // Neither EXPLAIN counted as an execution: the registry captured the
    // plans but shows zero calls for both texts.
    let Response::QueryStats { queries } = client.call(&Request::QueryStats).unwrap() else {
        panic!("expected query stats");
    };
    assert!(queries.iter().all(|q| q.calls == 0), "{queries:?}");

    // PROFILE returns bit-identical rows plus an annotated operator tree.
    let cypher_text = "MATCH (p:Person) RETURN p.name";
    let Response::Cypher { rows: plain, .. } = client
        .call(&Request::Cypher {
            query: cypher_text.to_string(),
            params: Vec::new(),
        })
        .unwrap()
    else {
        panic!("expected cypher rows");
    };
    let response = client
        .call(&Request::Cypher {
            query: format!("PROFILE {cypher_text}"),
            params: Vec::new(),
        })
        .unwrap();
    let Response::Profile {
        language,
        columns,
        rows,
        plan,
    } = response
    else {
        panic!("expected profile, got {response:?}");
    };
    assert_eq!(language, "cypher");
    assert_eq!(columns, vec!["p.name"]);
    assert_eq!(rows, plain);
    assert_eq!(plan.rows, Some(plain.len() as u64), "{plan:?}");

    let sparql_text = "PREFIX ex: <http://ex/> SELECT ?n WHERE { ?s ex:name ?n }";
    let Response::Sparql { rows: splain, .. } = client
        .call(&Request::Sparql {
            query: sparql_text.to_string(),
            params: Vec::new(),
        })
        .unwrap()
    else {
        panic!("expected sparql rows");
    };
    let response = client
        .call(&Request::Sparql {
            query: format!("PROFILE {sparql_text}"),
            params: Vec::new(),
        })
        .unwrap();
    let Response::Profile {
        language,
        columns,
        rows,
        plan,
    } = response
    else {
        panic!("expected profile, got {response:?}");
    };
    assert_eq!(language, "sparql");
    assert_eq!(columns, vec!["n"]);
    assert_eq!(rows, splain);
    assert_eq!(plan.rows, Some(splain.len() as u64), "{plan:?}");

    // Whitespace variants of one text share a registry entry; a failing
    // query counts as an error under its own text.
    for _ in 0..2 {
        client
            .call(&Request::Cypher {
                query: "MATCH (p:Person)   RETURN   p.name".to_string(),
                params: Vec::new(),
            })
            .unwrap();
    }
    let Response::Error(_) = client
        .call(&Request::Cypher {
            query: "MATCH (((".to_string(),
            params: Vec::new(),
        })
        .unwrap()
    else {
        panic!("expected parse error");
    };
    let Response::QueryStats { queries } = client.call(&Request::QueryStats).unwrap() else {
        panic!("expected query stats");
    };
    let entry = queries
        .iter()
        .find(|e| e.endpoint == "cypher" && e.query == cypher_text)
        .unwrap_or_else(|| panic!("no entry for {cypher_text}: {queries:?}"));
    // One plain run, one PROFILE run, two whitespace variants.
    assert_eq!(entry.calls, 4);
    assert_eq!(entry.json_calls, 4);
    assert_eq!(entry.errors, 0);
    assert_eq!(entry.rows, 4 * plain.len() as u64);
    assert!(entry.last_plan.is_some());
    let bad = queries
        .iter()
        .find(|e| e.query == "MATCH (((")
        .expect("failing text is tracked");
    assert_eq!((bad.calls, bad.errors, bad.rows), (1, 1, 0));

    // Aggregate series appear in the Prometheus exposition.
    let Response::Metrics { exposition } = client.call(&Request::Metrics).unwrap() else {
        panic!("expected metrics");
    };
    let samples = s3pg_obs::parse_exposition(&exposition).unwrap();
    let sample = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from exposition:\n{exposition}"))
            .value
    };
    assert_eq!(
        sample("s3pg_query_executions_total{language=\"cypher\"}"),
        5.0
    );
    assert_eq!(sample("s3pg_query_errors_total{language=\"cypher\"}"), 1.0);
    assert_eq!(
        sample("s3pg_query_executions_total{language=\"sparql\"}"),
        2.0
    );
    assert!(sample("s3pg_query_tracked") >= 4.0);

    // The trace cursor: `since` returns only events newer than the mark.
    let t_us = |line: &str| {
        json::parse(line)
            .unwrap()
            .get("t_us")
            .and_then(json::Json::as_u64)
            .unwrap_or_else(|| panic!("no t_us in {line}"))
    };
    let Response::Trace { events } = client
        .call(&Request::Trace {
            limit: 4096,
            since: 0,
        })
        .unwrap()
    else {
        panic!("expected trace events");
    };
    assert!(!events.is_empty());
    let cursor = t_us(events.last().unwrap());
    client.call(&Request::Ping).unwrap();
    let Response::Trace { events: newer } = client
        .call(&Request::Trace {
            limit: 4096,
            since: cursor,
        })
        .unwrap()
    else {
        panic!("expected trace events");
    };
    // The tracer ring is process-wide and the other tests of this binary
    // write to it between the two calls (1000+ events is common), so the
    // count of `newer` is not bounded here; `tests/trace_cursor.rs` asserts
    // `newer.len() < events.len() + 4` in a process of its own.
    assert!(!newer.is_empty());
    assert!(newer.iter().all(|e| t_us(e) > cursor), "{newer:?}");

    handle.shutdown();
    handle.join();
}

/// PROFILE of the join-filter shape: the rank-like pattern seeds (none
/// of its first 64 names passes the filter, so its sampled estimate
/// undercuts the `knows` pattern), and its FILTER sits directly above the
/// seed scan, profiled with the rows that survive it.
#[test]
fn profile_shows_the_filter_directly_above_the_seed_scan() {
    let mut rdf = s3pg_rdf::Graph::new();
    for i in 0..200 {
        let person = format!("http://ex/p{i}");
        rdf.insert_type(&person, "http://ex/Person");
        rdf.insert_iri(
            &person,
            "http://ex/knows",
            &format!("http://ex/p{}", (i + 1) % 200),
        );
        let (s, name, value) = (
            rdf.intern_iri(&person),
            rdf.intern("http://ex/name"),
            rdf.string_literal(&format!("P{i}")),
        );
        rdf.insert(s, name, value);
    }
    let shapes = parse_shacl_turtle(SHAPES).unwrap();
    let store = GraphStore::new(rdf, &shapes, Mode::Parsimonious);
    let handle = serve("127.0.0.1:0", store, ServerConfig::default()).unwrap();
    let mut client = connect(&handle);

    let text = r#"PREFIX ex: <http://ex/> SELECT ?s ?n WHERE { ?s ex:knows ?t . ?t ex:name ?n . FILTER(?n > "P95") }"#;
    let response = client
        .call(&Request::Sparql {
            query: format!("PROFILE {text}"),
            params: Vec::new(),
        })
        .unwrap();
    let Response::Profile { rows, plan, .. } = response else {
        panic!("expected profile, got {response:?}");
    };
    // P96 … P99.
    assert_eq!(rows.len(), 4, "{rows:?}");
    let filter = plan.find("filter0").expect("a Filter node");
    assert_eq!(filter.rows, Some(4), "{plan:?}");
    let [seed] = filter.children.as_slice() else {
        panic!("the filter has one input: {plan:?}");
    };
    assert_eq!(
        (seed.op.as_str(), seed.id.as_str(), seed.rows),
        ("TriplePatternScan", "pat1", Some(200)),
        "{plan:?}"
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn sheds_load_with_typed_rejection_when_saturated() {
    // One worker, queue of one: the third concurrent connection must be
    // rejected immediately with an `overloaded` frame.
    let handle = start_server(ServerConfig {
        workers: 1,
        queue_capacity: 1,
        ..ServerConfig::default()
    });

    // Occupy the only worker: a connected client that sends nothing.
    let busy = connect(&handle);
    std::thread::sleep(Duration::from_millis(200)); // let the worker claim it
                                                    // Fill the queue.
    let _queued = connect(&handle);
    std::thread::sleep(Duration::from_millis(100));

    // This one must be shed.
    let mut rejected = connect(&handle);
    let response = rejected.read_response().unwrap();
    let Response::Error(e) = response else {
        panic!("expected overloaded rejection, got {response:?}");
    };
    assert_eq!(e.kind, ErrorKind::Overloaded);

    // Releasing the worker lets the queued connection proceed.
    drop(busy);
    let mut queued = _queued;
    assert_eq!(queued.call(&Request::Ping).unwrap(), Response::Pong);

    handle.shutdown();
    handle.join();
}

#[test]
fn shutdown_command_drains_and_exits() {
    let handle = start_server(ServerConfig::default());
    let mut client = connect(&handle);
    // Another connection sitting idle mid-session must not wedge shutdown.
    let _idle = connect(&handle);

    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    assert_eq!(
        client.call(&Request::Shutdown).unwrap(),
        Response::ShuttingDown
    );

    let addr = handle.addr;
    let deadline = Instant::now() + Duration::from_secs(10);
    handle.join();
    assert!(Instant::now() < deadline, "join hung past the deadline");

    // The listener is gone: new connections are refused (or at least no
    // longer served).
    std::thread::sleep(Duration::from_millis(50));
    if let Ok(stream) = TcpStream::connect(addr) {
        let mut late = Client::from_stream(stream).unwrap();
        match late.call(&Request::Ping) {
            Err(ClientError::Closed) | Err(ClientError::Io(_)) => {}
            Ok(Response::Error(e)) => assert_eq!(e.kind, ErrorKind::ShuttingDown),
            other => panic!("post-shutdown connection was served: {other:?}"),
        }
    }
}

#[test]
fn concurrent_clients_see_consistent_monotonic_state() {
    let handle = start_server(ServerConfig {
        workers: 8,
        queue_capacity: 64,
        ..ServerConfig::default()
    });
    let addr = handle.addr.to_string();
    let clients = 8;
    let rounds = 10;

    std::thread::scope(|scope| {
        for c in 0..clients {
            let addr = addr.clone();
            scope.spawn(move || {
                let mut client = Client::connect(&addr).unwrap();
                for i in 0..rounds {
                    let iri = format!("http://ex/c{c}x{i}");
                    let additions = format!(
                        "<{iri}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
                         <{iri}> <{p}> \"c{c}x{i}\" .\n",
                        p = "http://ex/name"
                    );
                    let response = client
                        .call(&Request::Update {
                            additions,
                            deletions: String::new(),
                        })
                        .unwrap();
                    let Response::Update { conforms, .. } = response else {
                        panic!("expected update ack");
                    };
                    assert!(conforms);
                    // Read-your-writes through the snapshot swap.
                    let response = client
                        .call(&Request::Sparql {
                            query: format!(
                                "SELECT ?n WHERE {{ <{iri}> <http://ex/name> ?n }}"
                            ),
                            params: Vec::new(),
                        })
                        .unwrap();
                    let Response::Sparql { rows, .. } = response else {
                        panic!("expected sparql rows");
                    };
                    assert_eq!(rows, vec![vec![Some(format!("c{c}x{i}"))]]);
                }
            });
        }
    });

    let mut client = connect(&handle);
    let Response::Stats {
        nodes, conforms, ..
    } = client.call(&Request::Stats).unwrap()
    else {
        panic!("expected stats");
    };
    assert_eq!(nodes, 2 + (clients * rounds) as u64);
    assert!(conforms);

    handle.shutdown();
    handle.join();
}

/// Write `bytes` as one request line on a raw socket, pausing for
/// `pause` after the first `split` bytes, and read the answer.
fn send_split(
    writer: &mut TcpStream,
    client: &mut Client,
    bytes: &[u8],
    split: usize,
    pause: Duration,
) -> Result<Response, ClientError> {
    use std::io::Write;
    writer.write_all(&bytes[..split])?;
    writer.flush()?;
    std::thread::sleep(pause);
    writer.write_all(&bytes[split..])?;
    writer.write_all(b"\n")?;
    client.read_response()
}

#[test]
fn a_request_paused_inside_a_character_is_answered() {
    let handle = start_server(ServerConfig::default());
    let request = Request::cypher("MATCH (p:Person) WHERE p.name <> \"é\" RETURN p.name");
    let expected = connect(&handle).call(&request).unwrap();
    let Response::Cypher { rows, .. } = &expected else {
        panic!("expected cypher rows, got {expected:?}");
    };
    assert_eq!(rows.len(), 2);

    let mut writer = TcpStream::connect(handle.addr).unwrap();
    let mut client = Client::from_stream(writer.try_clone().unwrap()).unwrap();
    let line = request.encode();
    // Split between the two bytes of `é` and pause for longer than the
    // server's read timeout, so one read ends inside the character.
    let split = line.find('é').unwrap() + 1;
    let response = send_split(
        &mut writer,
        &mut client,
        line.as_bytes(),
        split,
        Duration::from_millis(60),
    )
    .unwrap();
    assert_eq!(response, expected);
    // The connection still serves.
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);

    handle.shutdown();
    handle.join();
}

#[test]
fn a_line_of_invalid_utf8_gets_bad_request_and_the_connection_survives() {
    let handle = start_server(ServerConfig::default());
    let mut writer = TcpStream::connect(handle.addr).unwrap();
    let mut client = Client::from_stream(writer.try_clone().unwrap()).unwrap();
    let response = send_split(&mut writer, &mut client, b"\xFF", 1, Duration::ZERO).unwrap();
    let Response::Error(e) = response else {
        panic!("expected a bad_request frame, got {response:?}");
    };
    assert_eq!(e.kind, ErrorKind::BadRequest);
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);

    handle.shutdown();
    handle.join();
}
