//! End-to-end tests of the Bolt listener over real TCP connections, and
//! differential tests pinning Bolt `RUN`/`PULL` results to the JSON
//! listener's parameterized `cypher` endpoint: same store, same plan
//! cache, same parameter pipeline — so the answers must be identical on
//! pristine, incrementally-updated, and tombstoned graphs, in both the
//! mutable-PG window right after an update and the compacted form.

use s3pg::Mode;
use s3pg_bolt::handshake;
use s3pg_bolt::message::{self, ClientMessage, ServerMessage};
use s3pg_bolt::packstream::Value;
use s3pg_bolt::{frame, DEFAULT_MAX_MESSAGE_BYTES};
use s3pg_rdf::parser::parse_turtle;
use s3pg_server::client::Client;
use s3pg_server::json::Json;
use s3pg_server::protocol::{Request, Response};
use s3pg_server::server::{serve, ServerConfig, ServerHandle};
use s3pg_server::store::GraphStore;
use s3pg_shacl::parser::parse_shacl_turtle;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
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
:b a :Person ; :name "B" ; :knows :a .
"#;

fn start_server() -> (ServerHandle, SocketAddr) {
    let rdf = parse_turtle(DATA).unwrap();
    let shapes = parse_shacl_turtle(SHAPES).unwrap();
    let store = GraphStore::new(rdf, &shapes, Mode::Parsimonious);
    let mut handle = serve("127.0.0.1:0", store, ServerConfig::default()).unwrap();
    let bolt = handle.listen_bolt("127.0.0.1:0").unwrap();
    (handle, bolt)
}

/// A minimal scripted Bolt client: handshake, HELLO, then RUN/PULL.
struct BoltClient {
    stream: TcpStream,
}

impl BoltClient {
    fn connect(addr: SocketAddr) -> BoltClient {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let version = handshake::client_handshake(&mut stream).unwrap();
        assert_eq!(version.map(|v| v.major), Some(5), "negotiates Bolt 5.x");
        let mut client = BoltClient { stream };
        let answer = client.call(ClientMessage::Hello(vec![(
            "user_agent".into(),
            Value::String("s3pg-test/0".into()),
        )]));
        let ServerMessage::Success(meta) = answer else {
            panic!("HELLO must succeed, got {answer:?}");
        };
        assert!(meta.iter().any(|(k, _)| k == "server"));
        assert!(meta.iter().any(|(k, _)| k == "connection_id"));
        client
    }

    fn send(&mut self, message: ClientMessage) {
        let payload = message::encode_client(&message);
        frame::write_message(&mut self.stream, &payload).unwrap();
    }

    fn recv(&mut self) -> ServerMessage {
        let payload = frame::read_message(&mut self.stream, DEFAULT_MAX_MESSAGE_BYTES)
            .unwrap()
            .expect("server closed mid-conversation");
        message::decode_server(&payload).unwrap()
    }

    fn call(&mut self, message: ClientMessage) -> ServerMessage {
        self.send(message);
        self.recv()
    }

    /// RUN + PULL(-1), returning `(fields, rows)` or the failure
    /// `(code, message)`. On failure the session is RESET so the client
    /// is reusable.
    #[allow(clippy::type_complexity)]
    fn run(
        &mut self,
        query: &str,
        parameters: Vec<(String, Value)>,
    ) -> Result<(Vec<String>, Vec<Vec<Option<String>>>), (String, String)> {
        let answer = self.call(ClientMessage::Run {
            query: query.to_string(),
            parameters,
            extra: Vec::new(),
        });
        let fields = match answer {
            ServerMessage::Success(meta) => {
                let Some(Value::List(fields)) = meta
                    .iter()
                    .find(|(k, _)| k == "fields")
                    .map(|(_, v)| v.clone())
                else {
                    panic!("RUN success must carry fields, got {meta:?}");
                };
                fields
                    .into_iter()
                    .map(|v| v.as_str().unwrap().to_string())
                    .collect()
            }
            ServerMessage::Failure { code, message } => {
                // Park-and-reset so the next test step gets a clean session.
                assert_eq!(
                    self.call(ClientMessage::Reset),
                    ServerMessage::Success(vec![])
                );
                return Err((code, message));
            }
            other => panic!("unexpected RUN answer {other:?}"),
        };
        self.send(ClientMessage::Pull(vec![("n".into(), Value::Int(-1))]));
        let mut rows = Vec::new();
        loop {
            match self.recv() {
                ServerMessage::Record(values) => rows.push(
                    values
                        .into_iter()
                        .map(|v| match v {
                            Value::Null => None,
                            Value::String(s) => Some(s),
                            other => panic!("rows are strings or null, got {other:?}"),
                        })
                        .collect(),
                ),
                ServerMessage::Success(_) => break,
                other => panic!("unexpected PULL answer {other:?}"),
            }
        }
        Ok((fields, rows))
    }
}

/// Run the same parameterized query over both listeners and assert the
/// answers are identical (columns, rows, order — or the same typed
/// error).
fn assert_listeners_agree(
    json: &mut Client,
    bolt: &mut BoltClient,
    query: &str,
    bindings: &[(&str, &str)],
) {
    let params: Vec<(String, Json)> = bindings
        .iter()
        .map(|(k, v)| (k.to_string(), Json::Str(v.to_string())))
        .collect();
    let bolt_params: Vec<(String, Value)> = bindings
        .iter()
        .map(|(k, v)| (k.to_string(), Value::String(v.to_string())))
        .collect();
    let json_answer = json
        .call(&Request::Cypher {
            query: query.to_string(),
            params,
        })
        .unwrap();
    let bolt_answer = bolt.run(query, bolt_params);
    match (json_answer, bolt_answer) {
        (Response::Cypher { columns, rows }, Ok((fields, bolt_rows))) => {
            assert_eq!(columns, fields, "columns diverge for {query:?}");
            assert_eq!(rows, bolt_rows, "rows diverge for {query:?}");
        }
        (Response::Error(frame), Err((_code, message))) => {
            assert_eq!(frame.message, message, "error text diverges for {query:?}");
        }
        (json_answer, bolt_answer) => {
            panic!("listeners disagree for {query:?}: json={json_answer:?} bolt={bolt_answer:?}")
        }
    }
}

/// Scrape one counter from the metrics exposition.
fn counter(handle: &ServerHandle, series: &str) -> u64 {
    s3pg_obs::parse_exposition(&handle.metrics_exposition())
        .unwrap()
        .iter()
        .find(|s| s.name == series)
        .map(|s| s.value as u64)
        .unwrap_or(0)
}

/// Block until background compaction has produced `want` total compact
/// forms (startup counts as the first).
fn await_compactions(handle: &ServerHandle, want: u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while counter(handle, "s3pg_compactions_total") < want {
        assert!(Instant::now() < deadline, "compaction never landed");
        std::thread::sleep(Duration::from_millis(10));
    }
}

const QUERIES: &[(&str, &[(&str, &str)])] = &[
    ("MATCH (p:Person) RETURN p.name", &[]),
    (
        "MATCH (p:Person) WHERE p.name = $name RETURN p.name",
        &[("name", "A")],
    ),
    (
        "MATCH (p:Person) WHERE p.name = $name RETURN p.name",
        &[("name", "C")],
    ),
    (
        "MATCH (p:Person) WHERE p.name = $name RETURN p.name",
        &[("name", "nobody")],
    ),
    (
        "MATCH (p:Person)-[:knows]->(q:Person) RETURN p.name, q.name",
        &[],
    ),
    (
        "MATCH (p:Person)-[:knows]->(q:Person) WHERE p.name = $who RETURN q.name",
        &[("who", "B")],
    ),
];

#[test]
fn bolt_and_json_agree_across_graph_lifecycles() {
    let (handle, bolt_addr) = start_server();
    let mut json = Client::connect(&handle.addr.to_string()).unwrap();
    let mut bolt = BoltClient::connect(bolt_addr);

    // Pristine graph, compacted form (startup compacts synchronously).
    await_compactions(&handle, 1);
    for (query, bindings) in QUERIES {
        assert_listeners_agree(&mut json, &mut bolt, query, bindings);
    }

    // Incremental update: add :c, re-point :b's edge. Immediately after
    // the ack the snapshot serves the mutable PG (compaction is
    // detached), so this pass covers the non-compact form.
    let response = json
        .call(&Request::Update {
            additions:
                "<http://ex/c> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
                 <http://ex/c> <http://ex/name> \"C\" .\n\
                 <http://ex/c> <http://ex/knows> <http://ex/a> .\n"
                    .to_string(),
            deletions: String::new(),
        })
        .unwrap();
    assert!(matches!(response, Response::Update { .. }));
    for (query, bindings) in QUERIES {
        assert_listeners_agree(&mut json, &mut bolt, query, bindings);
    }

    // Tombstoned graph: delete :a's edge and re-check, then wait for the
    // update's compaction to land and check the compact form too.
    let response = json
        .call(&Request::Update {
            additions: String::new(),
            deletions: "<http://ex/a> <http://ex/knows> <http://ex/b> .\n".to_string(),
        })
        .unwrap();
    assert!(matches!(response, Response::Update { .. }));
    for (query, bindings) in QUERIES {
        assert_listeners_agree(&mut json, &mut bolt, query, bindings);
    }
    await_compactions(&handle, 3);
    for (query, bindings) in QUERIES {
        assert_listeners_agree(&mut json, &mut bolt, query, bindings);
    }

    // Parameter validation is shared verbatim: same message either way.
    let query = "MATCH (p:Person) WHERE p.name = $name RETURN p.name";
    for bindings in [&[][..], &[("name", "A"), ("typo", "x")][..]] {
        assert_listeners_agree(&mut json, &mut bolt, query, bindings);
    }
    let (code, message) = bolt.run(query, vec![]).unwrap_err();
    assert_eq!(code, "Neo.ClientError.Request.Invalid");
    assert!(message.contains("undeclared parameter $name"), "{message}");
    let (code, message) = bolt
        .run(
            query,
            vec![
                ("name".into(), Value::String("A".into())),
                ("typo".into(), Value::String("x".into())),
            ],
        )
        .unwrap_err();
    assert_eq!(code, "Neo.ClientError.Request.Invalid");
    assert!(message.contains("unused parameter $typo"), "{message}");
    let (code, _) = bolt.run("MATCH (p:Person RETURN", vec![]).unwrap_err();
    assert_eq!(code, "Neo.ClientError.Statement.SyntaxError");

    bolt.send(ClientMessage::Goodbye);
    handle.shutdown();
    handle.join();
}

#[test]
fn plan_cache_is_shared_between_listeners() {
    let (handle, bolt_addr) = start_server();
    let mut json = Client::connect(&handle.addr.to_string()).unwrap();
    let mut bolt = BoltClient::connect(bolt_addr);

    let query = "MATCH (p:Person) WHERE p.name = $name RETURN p.name";
    // JSON plans it once (a miss)…
    let _ = json.call(&Request::Cypher {
        query: query.to_string(),
        params: vec![("name".to_string(), Json::Str("A".to_string()))],
    });
    assert_eq!(
        counter(&handle, "s3pg_plan_cache_misses_total{listener=\"json\"}"),
        1
    );
    // …and Bolt's first issue of the same text is already a hit: one
    // cache, keyed on parameterized text, shared across listeners.
    let (_, rows) = bolt
        .run(query, vec![("name".into(), Value::String("B".into()))])
        .unwrap();
    assert_eq!(rows, vec![vec![Some("B".to_string())]]);
    assert_eq!(
        counter(&handle, "s3pg_plan_cache_hits_total{listener=\"bolt\"}"),
        1
    );
    assert_eq!(
        counter(&handle, "s3pg_plan_cache_misses_total{listener=\"bolt\"}"),
        0
    );

    handle.shutdown();
    handle.join();
}

#[test]
fn pull_batches_and_discard_follow_bolt_semantics() {
    let (handle, bolt_addr) = start_server();
    let mut bolt = BoltClient::connect(bolt_addr);

    // Two rows, pulled one at a time.
    let answer = bolt.call(ClientMessage::Run {
        query: "MATCH (p:Person) RETURN p.name".into(),
        parameters: vec![],
        extra: vec![],
    });
    assert!(matches!(answer, ServerMessage::Success(_)), "{answer:?}");
    bolt.send(ClientMessage::Pull(vec![("n".into(), Value::Int(1))]));
    assert!(matches!(bolt.recv(), ServerMessage::Record(_)));
    let ServerMessage::Success(meta) = bolt.recv() else {
        panic!("expected batch summary");
    };
    assert_eq!(
        meta.iter().find(|(k, _)| k == "has_more").map(|(_, v)| v),
        Some(&Value::Bool(true))
    );
    // Discard the rest.
    let answer = bolt.call(ClientMessage::Discard(vec![("n".into(), Value::Int(-1))]));
    let ServerMessage::Success(meta) = answer else {
        panic!("expected DISCARD summary");
    };
    assert!(meta.iter().any(|(k, _)| k == "t_last"));

    // After a failure: RUN/PULL are IGNORED until RESET.
    let answer = bolt.call(ClientMessage::Run {
        query: "MATCH syntax error".into(),
        parameters: vec![],
        extra: vec![],
    });
    assert!(matches!(answer, ServerMessage::Failure { .. }));
    let answer = bolt.call(ClientMessage::Pull(vec![("n".into(), Value::Int(-1))]));
    assert_eq!(answer, ServerMessage::Ignored);
    assert_eq!(
        bolt.call(ClientMessage::Reset),
        ServerMessage::Success(vec![])
    );
    let (_, rows) = bolt.run("MATCH (p:Person) RETURN p.name", vec![]).unwrap();
    assert_eq!(rows.len(), 2);

    bolt.send(ClientMessage::Goodbye);
    handle.shutdown();
    handle.join();
}

#[test]
fn explain_profile_and_stats_over_bolt() {
    // Zero threshold: every query lands in the slow-query log, so the
    // test can assert Bolt-path entries carry the listener tag.
    let rdf = parse_turtle(DATA).unwrap();
    let shapes = parse_shacl_turtle(SHAPES).unwrap();
    let store = GraphStore::new(rdf, &shapes, Mode::Parsimonious);
    let mut handle = serve(
        "127.0.0.1:0",
        store,
        ServerConfig {
            slow_query_threshold: Some(Duration::ZERO),
            ..ServerConfig::default()
        },
    )
    .unwrap();
    let bolt_addr = handle.listen_bolt("127.0.0.1:0").unwrap();
    let mut json = Client::connect(&handle.addr.to_string()).unwrap();
    let mut bolt = BoltClient::connect(bolt_addr);

    let text = "MATCH (p:Person) RETURN p.name";
    let meta_plan = |meta: &[(String, Value)], key: &str| -> Vec<(String, Value)> {
        let Some(Value::Map(entries)) = meta.iter().find(|(k, _)| k == key).map(|(_, v)| v.clone())
        else {
            panic!("expected {key} map in summary, got {meta:?}");
        };
        entries
    };

    // EXPLAIN: an empty result whose final SUCCESS carries `plan`.
    let answer = bolt.call(ClientMessage::Run {
        query: format!("EXPLAIN {text}"),
        parameters: vec![],
        extra: vec![],
    });
    let ServerMessage::Success(meta) = answer else {
        panic!("EXPLAIN RUN must succeed, got {answer:?}");
    };
    assert_eq!(
        meta.iter().find(|(k, _)| k == "fields").map(|(_, v)| v),
        Some(&Value::List(Vec::new())),
        "EXPLAIN executes nothing, so no fields"
    );
    bolt.send(ClientMessage::Pull(vec![("n".into(), Value::Int(-1))]));
    let ServerMessage::Success(meta) = bolt.recv() else {
        panic!("EXPLAIN PULL yields no records, just the summary");
    };
    let plan = meta_plan(&meta, "plan");
    assert!(
        plan.iter()
            .any(|(k, v)| k == "operatorType" && matches!(v, Value::String(_))),
        "{plan:?}"
    );
    assert!(
        !plan.iter().any(|(k, _)| k == "rows"),
        "EXPLAIN plans carry no profile annotations: {plan:?}"
    );

    // PROFILE: real rows plus a `profile` tree annotated with row counts.
    let answer = bolt.call(ClientMessage::Run {
        query: format!("PROFILE {text}"),
        parameters: vec![],
        extra: vec![],
    });
    let ServerMessage::Success(run_meta) = answer else {
        panic!("PROFILE RUN must succeed, got {answer:?}");
    };
    bolt.send(ClientMessage::Pull(vec![("n".into(), Value::Int(-1))]));
    let mut rows: Vec<Vec<Option<String>>> = Vec::new();
    let meta = loop {
        match bolt.recv() {
            ServerMessage::Record(values) => rows.push(
                values
                    .iter()
                    .map(|v| v.as_str().map(str::to_string))
                    .collect(),
            ),
            ServerMessage::Success(meta) => break meta,
            other => panic!("unexpected PULL answer {other:?}"),
        }
    };
    assert_eq!(rows.len(), 2);
    let profile = meta_plan(&meta, "profile");
    assert!(
        profile
            .iter()
            .any(|(k, v)| k == "operatorType" && matches!(v, Value::String(_))),
        "{profile:?}"
    );
    assert_eq!(
        profile.iter().find(|(k, _)| k == "rows").map(|(_, v)| v),
        Some(&Value::Int(2)),
        "{profile:?}"
    );
    assert!(profile.iter().any(|(k, _)| k == "dbHits"), "{profile:?}");

    // A plain Bolt run answers what PROFILE did, and counts in the
    // registry under bolt_calls; the EXPLAIN above did not (nothing
    // executed).
    let (fields, plain) = bolt.run(text, vec![]).unwrap();
    let fields = Value::List(fields.into_iter().map(Value::String).collect());
    assert_eq!(
        run_meta.iter().find(|(k, _)| k == "fields").map(|(_, v)| v),
        Some(&fields)
    );
    assert_eq!(rows, plain);
    let Response::QueryStats { queries } = json.call(&Request::QueryStats).unwrap() else {
        panic!("expected query stats");
    };
    let entry = queries
        .iter()
        .find(|e| e.endpoint == "cypher" && e.query == text)
        .unwrap_or_else(|| panic!("no entry for {text}: {queries:?}"));
    // PROFILE + plain run, both over Bolt.
    assert_eq!((entry.calls, entry.bolt_calls, entry.json_calls), (2, 2, 0));
    assert!(entry.last_plan.is_some());

    // Every Bolt query hit the shared slow-query log tagged with its
    // listener, and the profiled entry embeds the operator tree.
    let log = handle.slow_queries();
    assert!(
        log.iter()
            .filter(|e| e.endpoint == "cypher")
            .all(|e| e.listener == "bolt"),
        "{log:?}"
    );
    let profiled = log
        .iter()
        .find(|e| e.query.starts_with("PROFILE"))
        .expect("profiled run logged");
    assert_eq!(profiled.endpoint, "cypher");
    assert_eq!(profiled.rows, 2);
    assert!(
        profiled
            .plan
            .as_deref()
            .is_some_and(|p| p.contains("\"op\"")),
        "{profiled:?}"
    );

    // A query whose 7th byte is inside a character: a typed failure, and
    // the slow-query entry's plan lookup must not panic the session.
    let failure = bolt.run("ééééé MATCH (n) RETURN n", vec![]);
    assert!(failure.is_err(), "{failure:?}");
    assert_eq!(bolt.run(text, vec![]).unwrap().1, plain);

    bolt.send(ClientMessage::Goodbye);
    handle.shutdown();
    handle.join();
}

#[test]
fn malformed_peers_get_typed_closes_not_hangs() {
    let (handle, bolt_addr) = start_server();

    // Garbage instead of the magic: deterministic close, no response.
    let mut stream = TcpStream::connect(bolt_addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    stream.write_all(&[0u8; 20]).unwrap();
    let mut sink = Vec::new();
    let n = stream.read_to_end(&mut sink).unwrap();
    assert_eq!(n, 0, "bad magic closes without a version answer");

    // No version overlap: all-zeros answer, then close.
    let mut stream = TcpStream::connect(bolt_addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut wire = handshake::MAGIC.to_vec();
    wire.extend_from_slice(&[0, 0, 0, 3]); // Bolt 3.0 only
    wire.extend_from_slice(&[0u8; 12]);
    stream.write_all(&wire).unwrap();
    let mut answer = [0u8; 4];
    stream.read_exact(&mut answer).unwrap();
    assert_eq!(answer, [0, 0, 0, 0]);

    // A message that grows past the reassembly limit: typed FAILURE,
    // then close — not a hang, not an OOM.
    let mut bolt = BoltClient::connect(bolt_addr);
    let chunk = vec![0u8; frame::MAX_CHUNK];
    for _ in 0..(DEFAULT_MAX_MESSAGE_BYTES / frame::MAX_CHUNK + 2) {
        bolt.stream
            .write_all(&(frame::MAX_CHUNK as u16).to_be_bytes())
            .unwrap();
        if bolt.stream.write_all(&chunk).is_err() {
            break; // server already slammed the door; fine
        }
    }
    let failed = frame::read_message(&mut bolt.stream, DEFAULT_MAX_MESSAGE_BYTES)
        .unwrap()
        .expect("server answers before closing");
    let ServerMessage::Failure { code, message } = message::decode_server(&failed).unwrap() else {
        panic!("expected FAILURE");
    };
    assert_eq!(code, "Neo.ClientError.Request.Invalid");
    assert!(message.contains("limit"), "{message}");

    // RUN before HELLO: typed FAILURE, then close.
    let mut stream = TcpStream::connect(bolt_addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    assert!(handshake::client_handshake(&mut stream).unwrap().is_some());
    let payload = message::encode_client(&ClientMessage::Run {
        query: "RETURN 1".into(),
        parameters: vec![],
        extra: vec![],
    });
    frame::write_message(&mut stream, &payload).unwrap();
    let failed = frame::read_message(&mut stream, DEFAULT_MAX_MESSAGE_BYTES)
        .unwrap()
        .unwrap();
    let ServerMessage::Failure { code, message } = message::decode_server(&failed).unwrap() else {
        panic!("expected FAILURE");
    };
    assert_eq!(code, "Neo.ClientError.Request.Invalid");
    assert!(message.contains("expected HELLO"), "{message}");

    handle.shutdown();
    handle.join();
}
