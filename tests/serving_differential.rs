//! Acceptance test for the serving subsystem (ISSUE PR 2): eight
//! concurrent connections of mixed Cypher/SPARQL reads and N-Triples
//! delta writes, with **every** server response differentially checked
//! against direct in-process engine calls, must complete with zero
//! mismatches; the post-run PG must conform to S_PG; and the server's
//! metrics endpoint must report per-endpoint counts and percentiles.

use s3pg::Mode;
use s3pg_bench::serving::{demo_data_turtle, demo_shapes_turtle, run_loadgen, LoadConfig};
use s3pg_rdf::parser::parse_turtle;
use s3pg_server::server::{serve, ServerConfig, ServerHandle};
use s3pg_server::store::GraphStore;
use s3pg_shacl::parser::parse_shacl_turtle;

fn start_demo_server(workers: usize, mode: Mode) -> ServerHandle {
    let rdf = parse_turtle(demo_data_turtle()).unwrap();
    let shapes = parse_shacl_turtle(demo_shapes_turtle()).unwrap();
    let store = GraphStore::new(rdf, &shapes, mode);
    serve(
        "127.0.0.1:0",
        store,
        ServerConfig {
            workers,
            queue_capacity: 64,
            ..ServerConfig::default()
        },
    )
    .unwrap()
}

#[test]
fn eight_connections_of_mixed_traffic_with_zero_mismatches() {
    let handle = start_demo_server(10, Mode::Parsimonious);
    let report = run_loadgen(
        &handle.addr.to_string(),
        demo_data_turtle(),
        demo_shapes_turtle(),
        Mode::Parsimonious,
        LoadConfig {
            connections: 8,
            rounds: 15,
            seed: 0xC0FFEE,
        },
    )
    .unwrap();

    assert_eq!(
        report.mismatches,
        Vec::<String>::new(),
        "every server response must match the in-process engines"
    );
    assert!(report.conforms, "post-run PG must conform to S_PG");
    // 8 connections × 15 rounds × ≥3 requests, plus the global phase.
    assert!(report.requests >= 8 * 15 * 3, "got {}", report.requests);

    // The server's own metrics agree on the traffic shape and expose
    // latency percentiles for every exercised endpoint.
    let get = |name: &str| {
        report
            .server_sample(name)
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
    };
    assert_eq!(
        get("s3pg_requests_total{endpoint=\"update\"}"),
        (8 * 15) as f64
    );
    assert_eq!(get("s3pg_request_errors_total{endpoint=\"update\"}"), 0.0);
    assert!(get("s3pg_requests_total{endpoint=\"cypher\"}") >= (8 * 15) as f64);
    assert!(get("s3pg_requests_total{endpoint=\"sparql\"}") >= (8 * 15) as f64);
    for endpoint in ["update", "cypher", "sparql"] {
        let p50 = get(&format!(
            "s3pg_request_latency_microseconds{{endpoint=\"{endpoint}\",quantile=\"0.5\"}}"
        ));
        let p99 = get(&format!(
            "s3pg_request_latency_microseconds{{endpoint=\"{endpoint}\",quantile=\"0.99\"}}"
        ));
        assert!(p50 > 0.0, "{endpoint} p50 missing");
        assert!(p99 >= p50, "{endpoint} p99 < p50");
    }
    // Memory accounting rides along in the same exposition.
    assert!(get("s3pg_mem_total_bytes") > 0.0);

    handle.shutdown();
    handle.join();
}

#[test]
fn differential_load_holds_in_non_parsimonious_mode() {
    let handle = start_demo_server(6, Mode::NonParsimonious);
    let report = run_loadgen(
        &handle.addr.to_string(),
        demo_data_turtle(),
        demo_shapes_turtle(),
        Mode::NonParsimonious,
        LoadConfig {
            connections: 4,
            rounds: 8,
            seed: 7,
        },
    )
    .unwrap();
    assert_eq!(report.mismatches, Vec::<String>::new());
    assert!(report.conforms);
    handle.shutdown();
    handle.join();
}
