//! The `trace` endpoint's `since` cursor, in a test binary of its own: the
//! tracer ring is process-wide, so only a process that runs nothing else
//! can bound how many events arrive between two polls. `serve.rs` checks
//! the same cursor under concurrent writers, without the count.

use s3pg::Mode;
use s3pg_rdf::parser::parse_turtle;
use s3pg_server::client::Client;
use s3pg_server::json;
use s3pg_server::protocol::{Request, Response};
use s3pg_server::server::{serve, ServerConfig};
use s3pg_server::store::GraphStore;
use s3pg_shacl::parser::parse_shacl_turtle;

const SHAPES: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
<http://ex/shape/Person> a sh:NodeShape ; sh:targetClass :Person ;
    sh:property [ sh:path :name ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] .
"#;

const DATA: &str = r#"
@prefix : <http://ex/> .
:a a :Person ; :name "A" .
:b a :Person ; :name "B" .
"#;

fn trace(client: &mut Client, since: u64) -> Vec<String> {
    let Response::Trace { events } = client.call(&Request::Trace { limit: 4096, since }).unwrap()
    else {
        panic!("expected trace events");
    };
    events
}

#[test]
fn since_returns_only_events_newer_than_the_cursor() {
    let rdf = parse_turtle(DATA).unwrap();
    let shapes = parse_shacl_turtle(SHAPES).unwrap();
    let store = GraphStore::new(rdf, &shapes, Mode::Parsimonious, 1);
    let handle = serve("127.0.0.1:0", store, ServerConfig::default()).unwrap();
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();

    // Fill the ring with a few request traces so "everything" and "what is
    // newer than the cursor" differ by far more than the slack below.
    for _ in 0..8 {
        client
            .call(&Request::Cypher {
                query: "MATCH (p:Person) RETURN p.name".to_string(),
                params: Vec::new(),
            })
            .unwrap();
    }

    let t_us = |line: &str| {
        json::parse(line)
            .unwrap()
            .get("t_us")
            .and_then(json::Json::as_u64)
            .unwrap_or_else(|| panic!("no t_us in {line}"))
    };
    let events = trace(&mut client, 0);
    assert!(events.len() > 32, "{events:?}");
    let cursor = t_us(events.last().unwrap());
    client.call(&Request::Ping).unwrap();
    let newer = trace(&mut client, cursor);
    assert!(!newer.is_empty());
    assert!(newer.iter().all(|e| t_us(e) > cursor), "{newer:?}");
    // The tail of the first poll, the ping, the head of the second poll.
    assert!(newer.len() < events.len() + 4, "cursor failed to filter");
    assert!(newer.len() <= 16, "{newer:?}");

    handle.shutdown();
    handle.join();
}
