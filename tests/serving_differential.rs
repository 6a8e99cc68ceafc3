//! Differential serving under concurrent load. Connections of mixed
//! Cypher and SPARQL reads and N-Triples deltas run against one server,
//! and every answer is checked against the in-process engines over a
//! replica that applied the same deltas through the same incremental
//! path. Each connection writes only subjects in its own namespace, so
//! its replica predicts its scoped reads whatever the others do. Once
//! every connection has finished, full-graph reads are checked against a
//! replica holding all the deltas, and the server must report a
//! conforming PG.

#[path = "support/demo.rs"]
mod demo;

use s3pg::incremental::apply_ntriples_delta;
use s3pg::pipeline::{transform, TransformOutput};
use s3pg::Mode;
use s3pg_obs::{parse_exposition, Sample};
use s3pg_query::{cypher, sparql, ResultSet};
use s3pg_rdf::parser::parse_turtle;
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::Graph;
use s3pg_server::client::Client;
use s3pg_server::json::Json;
use s3pg_server::protocol::{ErrorKind, Request, Response};
use s3pg_server::server::{serve, ServerConfig};
use s3pg_server::store::GraphStore;
use s3pg_shacl::parser::parse_shacl_turtle;

/// The demo graph as the server started from it, advanced by deltas
/// through the incremental path the server's `update` runs.
struct Replica {
    rdf: Graph,
    out: TransformOutput,
}

impl Replica {
    fn new(mode: Mode) -> Replica {
        let rdf = parse_turtle(demo::DATA).unwrap();
        let shapes = parse_shacl_turtle(demo::SHAPES).unwrap();
        let out = transform(&rdf, &shapes, mode);
        Replica { rdf, out }
    }

    fn apply(&mut self, additions: &str) {
        let out = &mut self.out;
        let outcome =
            apply_ntriples_delta(&mut out.pg, &mut out.schema, &mut out.state, additions, "")
                .unwrap();
        self.rdf.absorb(&outcome.additions);
    }

    /// The server answers a Cypher text with the engine's rows, or both
    /// reject it as a query error. Bindings go through the server's own
    /// JSON → value conversion.
    fn cypher(&self, client: &mut Client, query: &str, params: Vec<(String, Json)>) {
        let bindings = s3pg_server::params::cypher_params(&params).unwrap();
        let local = cypher::execute_params(&self.out.pg, query, &bindings);
        let request = Request::Cypher {
            query: query.to_string(),
            params,
        };
        match (client.call(&request).unwrap(), local) {
            (Response::Cypher { rows, .. }, Ok(local)) => assert!(
                ResultSet::from_rendered_rows(rows.clone())
                    .same_as(&ResultSet::from_cypher(&local)),
                "{request:?}: {rows:?} vs {local:?}"
            ),
            (Response::Error(e), Err(_)) => assert_eq!(e.kind, ErrorKind::Query),
            (response, local) => panic!("{request:?}: {response:?} vs {local:?}"),
        }
    }

    /// The server answers a SPARQL text with the engine's rows.
    fn sparql(&self, client: &mut Client, query: &str) {
        let local = sparql::execute(&self.rdf, query).unwrap();
        let local = ResultSet::from_sparql(&self.rdf, &local);
        let request = Request::Sparql {
            query: query.to_string(),
            params: Vec::new(),
        };
        let response = client.call(&request).unwrap();
        let Response::Sparql { rows, .. } = response else {
            panic!("{request:?}: {response:?}");
        };
        assert!(
            ResultSet::from_rendered_rows(rows.clone()).same_as(&local),
            "{request:?}: {rows:?}"
        );
    }
}

/// The name connection `c` gives its subject of round `r`.
fn marker(c: usize, r: usize) -> String {
    format!("load-c{c}-r{r}")
}

/// Connection `c`'s delta of round `r`: a new person in its namespace who
/// knows a base person and, sometimes, one of its own earlier subjects.
fn delta(c: usize, r: usize, rng: &mut XorShiftRng) -> String {
    let iri = format!("http://load.example.org/c{c}/p{r}");
    let mut nt = format!(
        "<{iri}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
         <{iri}> <http://ex/name> \"{}\" .\n\
         <{iri}> <http://ex/knows> <http://ex/{}> .\n",
        marker(c, r),
        ["a", "b", "c"][rng.choose_index(3).unwrap()]
    );
    if r > 0 && rng.random_bool(0.5) {
        let back = rng.choose_index(r).unwrap();
        nt.push_str(&format!(
            "<{iri}> <http://ex/knows> <http://load.example.org/c{c}/p{back}> .\n"
        ));
    }
    nt
}

/// One connection's rounds: a delta, then reads of its own subjects and
/// of the base graph, each checked against its replica. Returns the
/// deltas it applied.
fn connection(addr: &str, mode: Mode, c: usize, rounds: usize, seed: u64) -> Vec<String> {
    let mut client = Client::connect(addr).unwrap();
    let mut replica = Replica::new(mode);
    let mut rng = XorShiftRng::seed_from_u64(seed ^ ((c as u64) << 32));
    let mut deltas = Vec::new();
    for r in 0..rounds {
        let additions = delta(c, r, &mut rng);
        let response = client
            .call(&Request::Update {
                additions: additions.clone(),
                deletions: String::new(),
            })
            .unwrap();
        assert!(
            matches!(response, Response::Update { conforms: true, .. }),
            "c{c}r{r}: {response:?}"
        );
        replica.apply(&additions);
        deltas.push(additions);

        // One of its own subjects by name, the value inlined or bound.
        let name = marker(c, rng.choose_index(r + 1).unwrap());
        if rng.random_bool(0.5) {
            let query = format!("MATCH (p:Person) WHERE p.name = \"{name}\" RETURN p.name");
            replica.cypher(&mut client, &query, Vec::new());
        } else {
            let query = "MATCH (p:Person) WHERE p.name = $name RETURN p.name";
            replica.cypher(&mut client, query, vec![("name".into(), Json::Str(name))]);
        }
        let subject = format!(
            "<http://load.example.org/c{c}/p{}>",
            rng.choose_index(r + 1).unwrap()
        );
        let query = format!(
            "SELECT ?n ?k WHERE {{ {subject} <http://ex/name> ?n . {subject} <http://ex/knows> ?k }}"
        );
        replica.sparql(&mut client, &query);
        // The base graph is stable under everyone's namespaced additions.
        let query = "MATCH (p:Person) WHERE p.name = \"B\" RETURN p.name";
        replica.cypher(&mut client, query, Vec::new());
        // A malformed query is a typed error that keeps the connection.
        if rng.random_bool(0.15) {
            replica.cypher(&mut client, "MATCH (p:Person RETURN", Vec::new());
        }
    }
    deltas
}

/// `connections` × `rounds` of checked traffic against a fresh demo
/// server, then full-graph reads and the server's node count and
/// conformance verdict against a replica holding every delta. Returns
/// the server's exposition after the run. Each open connection holds a
/// worker, so the server has two more workers than connections.
fn differential_load(mode: Mode, connections: usize, rounds: usize, seed: u64) -> Vec<Sample> {
    let rdf = parse_turtle(demo::DATA).unwrap();
    let shapes = parse_shacl_turtle(demo::SHAPES).unwrap();
    let config = ServerConfig {
        workers: connections + 2,
        queue_capacity: 64,
        ..ServerConfig::default()
    };
    let handle = serve("127.0.0.1:0", GraphStore::new(rdf, &shapes, mode), config).unwrap();
    let addr = handle.addr.to_string();

    let deltas: Vec<String> = std::thread::scope(|scope| {
        let addr = &addr;
        let threads: Vec<_> = (0..connections)
            .map(|c| scope.spawn(move || connection(addr, mode, c, rounds, seed)))
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().unwrap())
            .collect()
    });

    let mut global = Replica::new(mode);
    for additions in &deltas {
        global.apply(additions);
    }
    let mut client = Client::connect(&addr).unwrap();
    for query in [
        "MATCH (p:Person) RETURN p.name",
        "MATCH (p:Person)-[:knows]->(q:Person) WHERE q.name = \"A\" RETURN p.name",
    ] {
        global.cypher(&mut client, query, Vec::new());
    }
    let query = "SELECT ?s WHERE { ?s <http://ex/knows> <http://ex/b> }";
    global.sparql(&mut client, query);
    let Response::Stats {
        nodes, conforms, ..
    } = client.call(&Request::Stats).unwrap()
    else {
        panic!("expected stats");
    };
    assert_eq!(nodes, global.out.pg.node_count() as u64);
    assert!(conforms, "post-run PG must conform to S_PG");

    let exposition = handle.metrics_exposition();
    handle.shutdown();
    handle.join();
    parse_exposition(&exposition).unwrap()
}

#[test]
fn eight_connections_of_mixed_traffic_with_zero_mismatches() {
    let samples = differential_load(Mode::Parsimonious, 8, 15, 0xC0FFEE);

    // The server's own metrics agree on the traffic shape and expose
    // latency percentiles for every exercised endpoint.
    let get = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("{name} missing from exposition"))
            .value
    };
    assert_eq!(get("s3pg_requests_total{endpoint=\"update\"}"), 120.0);
    assert_eq!(get("s3pg_request_errors_total{endpoint=\"update\"}"), 0.0);
    assert!(get("s3pg_requests_total{endpoint=\"cypher\"}") >= 240.0);
    assert!(get("s3pg_requests_total{endpoint=\"sparql\"}") >= 120.0);
    for endpoint in ["update", "cypher", "sparql"] {
        let quantile = |q: &str| {
            get(&format!(
                "s3pg_request_latency_microseconds{{endpoint=\"{endpoint}\",quantile=\"{q}\"}}"
            ))
        };
        assert!(quantile("0.5") > 0.0, "{endpoint} p50 missing");
        assert!(quantile("0.99") >= quantile("0.5"), "{endpoint} p99 < p50");
    }
    // Memory accounting rides along in the same exposition.
    assert!(get("s3pg_mem_total_bytes") > 0.0);
}

#[test]
fn differential_load_holds_in_non_parsimonious_mode() {
    differential_load(Mode::NonParsimonious, 4, 8, 7);
}
