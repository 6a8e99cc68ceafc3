//! Differential testing of profiled execution: `PROFILE` must never
//! change an answer. For deterministic pseudo-random graphs in three
//! lifecycle states (pristine, updated, tombstoned) and both snapshot
//! forms (mutable [`PropertyGraph`], frozen [`CompactGraph`]), the
//! profiled evaluators must return results *bit-identical* to their
//! unprofiled counterparts, and both must agree with the naive scan
//! reference. The per-operator row counts the sink records must join
//! back onto the `explain` tree and agree with the observed result
//! sizes.

use s3pg_pg::{CompactGraph, EdgeId, PropertyGraph, Value, IRI_KEY};
use s3pg_query::cypher::{self, Params, Rows};
use s3pg_query::profile::ProfSink;
use s3pg_query::sparql::{self, Outcome};
use s3pg_rdf::rng::XorShiftRng;

// ---- cypher: profiled ≡ planned ≡ scan -------------------------------------

/// Graph lifecycle states exercised by every case.
#[derive(Clone, Copy, PartialEq)]
enum Stage {
    Pristine,
    Updated,
    Tombstoned,
}

const STAGES: [Stage; 3] = [Stage::Pristine, Stage::Updated, Stage::Tombstoned];

/// Build a deterministic pseudo-random property graph. `Updated` layers
/// extra nodes, edges, and property overwrites on top of the pristine
/// graph; `Tombstoned` additionally removes a slice of the edges and any
/// node left isolated, so the mutable form carries real tombstones for
/// `freeze` to compact away.
fn build_pg(seed: u64, stage: Stage) -> PropertyGraph {
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let mut pg = PropertyGraph::new();
    let n = rng.random_range(6..14usize);
    let mut nodes = Vec::new();
    for i in 0..n {
        let id = if i % 2 == 0 {
            pg.add_node(["Person"])
        } else {
            pg.add_node(["Course"])
        };
        pg.set_prop(id, IRI_KEY, Value::String(format!("http://d/n{i}")));
        if i % 2 == 0 {
            pg.set_prop(id, "age", Value::Int(rng.random_range(18..30usize) as i64));
            pg.set_prop(
                id,
                "nums",
                Value::List(vec![Value::Int(i as i64), Value::Int(i as i64 + 1)]),
            );
        } else {
            pg.set_prop(id, "title", Value::String(format!("t{i}")));
        }
        nodes.push(id);
    }
    let mut edges: Vec<EdgeId> = Vec::new();
    for _ in 0..rng.random_range(5..20usize) {
        let src = nodes[rng.random_range(0..nodes.len())];
        let dst = nodes[rng.random_range(0..nodes.len())];
        let label = if rng.random_range(0..2usize) == 0 {
            "knows"
        } else {
            "takesCourse"
        };
        edges.push(pg.add_edge(src, dst, label));
    }
    if stage == Stage::Pristine {
        return pg;
    }
    // Updated: new nodes, new edges, overwritten properties.
    for i in 0..3usize {
        let id = pg.add_node(["Person"]);
        pg.set_prop(id, IRI_KEY, Value::String(format!("http://d/u{i}")));
        pg.set_prop(id, "age", Value::Int(rng.random_range(18..30usize) as i64));
        edges.push(pg.add_edge(id, nodes[rng.random_range(0..nodes.len())], "knows"));
        nodes.push(id);
    }
    for &node in nodes.iter().step_by(3) {
        pg.set_prop(
            node,
            "age",
            Value::Int(rng.random_range(30..40usize) as i64),
        );
    }
    if stage == Stage::Updated {
        return pg;
    }
    // Tombstoned: drop a third of the edges, then any node the removals
    // left without live edges (remove_node refuses otherwise).
    for &edge in edges.iter().step_by(3) {
        pg.remove_edge_by_id(edge);
    }
    for &node in &nodes {
        pg.remove_node(node);
    }
    pg
}

/// Order-independent rendering for the scan comparison: the planner's
/// reordering and reverse anchoring legitimately permute row order.
fn sorted_rows(rows: &Rows) -> Vec<String> {
    let mut out: Vec<String> = rows.rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

const CYPHER_QUERIES: &[&str] = &[
    "MATCH (a:Person) RETURN a.iri",
    "MATCH (a:Person)-[:knows]->(b:Person) RETURN a.iri, b.iri",
    "MATCH (a:Person) WHERE a.age >= 21 RETURN a.iri, a.age ORDER BY a.iri SKIP 1 LIMIT 4",
    "MATCH (a:Person) OPTIONAL MATCH (a)-[:knows]->(b) RETURN a.iri, b.iri",
    "MATCH (a:Person)-[:knows]->(b) RETURN DISTINCT b.iri",
    "MATCH (a:Person) RETURN count(*) AS c",
    "MATCH (a:Person) UNWIND a.nums AS v RETURN a.iri, v",
    "MATCH (a:Person) RETURN a.iri UNION ALL MATCH (c:Course) RETURN c.iri",
];

/// One graph form (mutable or compact): every query, profiled vs
/// unprofiled vs scan, plus the explain-tree join.
fn check_cypher_form<G: s3pg_pg::PgRead>(pg: &G, seed: u64, form: &str) {
    let params = Params::default();
    for text in CYPHER_QUERIES {
        let q = cypher::parse(text).unwrap();
        let plan = cypher::plan(pg, &q);
        let scan = cypher::evaluate_scan(pg, &q).unwrap();
        let plain = cypher::evaluate_planned_params(pg, &q, &plan, &params, 1).unwrap();
        let sink = ProfSink::new();
        let profiled = cypher::evaluate_planned_profiled(pg, &q, &plan, &params, 1, &sink).unwrap();
        assert_eq!(
            profiled, plain,
            "profiled ≠ plain: seed {seed} {form} {text}"
        );
        assert_eq!(
            sorted_rows(&plain),
            sorted_rows(&scan),
            "planned ≠ scan: seed {seed} {form} {text}"
        );
        assert!(!sink.is_empty(), "empty sink: seed {seed} {form} {text}");

        // The sink's ids join onto the explain tree; after annotation the
        // root operator's row count is the observed result size (union
        // roots are synthetic and never execute, so check their parts).
        let mut tree = cypher::explain(&q, &plan);
        tree.annotate(&sink);
        if q.parts.len() == 1 {
            assert_eq!(
                tree.rows,
                Some(plain.rows.len() as u64),
                "root rows: seed {seed} {form} {text}"
            );
        } else {
            let total: u64 = tree.children.iter().map(|c| c.rows.unwrap_or(0)).sum();
            assert_eq!(
                total,
                plain.rows.len() as u64,
                "union rows: seed {seed} {form} {text}"
            );
        }
    }
}

#[test]
fn cypher_profiled_matches_plain_and_scan_across_lifecycles() {
    for seed in 0..16u64 {
        for stage in STAGES {
            let pg = build_pg(seed, stage);
            check_cypher_form(&pg, seed, "mutable");
            let compact: CompactGraph = pg.freeze();
            check_cypher_form(&compact, seed, "compact");
        }
    }
}

// ---- sparql: profiled ≡ unprofiled, sink joins explain ---------------------

fn build_rdf(seed: u64) -> s3pg_rdf::Graph {
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let mut g = s3pg_rdf::Graph::new();
    for _ in 0..rng.random_range(4..24usize) {
        let s = g.intern_iri(&format!("http://d/e{}", rng.random_range(0..4usize)));
        let p = g.intern(&format!("http://d/p{}", rng.random_range(0..3usize)));
        let o = match rng.random_range(0..6usize) {
            n @ 0..=3 => g.intern_iri(&format!("http://d/e{n}")),
            n => g.string_literal(&format!("lit{}", n - 4)),
        };
        g.insert(s, p, o);
    }
    g
}

const SPARQL_QUERIES: &[&str] = &[
    "SELECT ?s WHERE { ?s <http://d/p0> ?o }",
    "SELECT ?s ?o WHERE { ?s <http://d/p0> ?m . ?m <http://d/p1> ?o }",
    "SELECT ?s WHERE { ?s ?p ?o . FILTER(isLiteral(?o)) } ORDER BY ?s LIMIT 5",
    "SELECT ?s ?o WHERE { ?s <http://d/p0> ?x OPTIONAL { ?s <http://d/p1> ?o } }",
    "SELECT DISTINCT ?s WHERE { ?s ?p ?o }",
    "SELECT (COUNT(*) AS ?n) WHERE { ?s ?p ?o }",
];

#[test]
fn sparql_profiled_matches_plain_and_annotates_explain() {
    let params = sparql::Params::default();
    for seed in 0..16u64 {
        let g = build_rdf(seed);
        for text in SPARQL_QUERIES {
            let q = sparql::parse(text).unwrap();
            let plain = sparql::evaluate_outcome(&g, &q).unwrap();
            let sink = ProfSink::new();
            let profiled = sparql::evaluate_outcome_profiled(&g, &q, &params, &sink).unwrap();
            assert_eq!(profiled, plain, "profiled ≠ plain: seed {seed} {text}");
            assert!(!sink.is_empty(), "empty sink: seed {seed} {text}");

            let mut tree = sparql::explain(&g, &q, &params).unwrap();
            tree.annotate(&sink);
            match &plain {
                Outcome::Solutions(s) => assert_eq!(
                    tree.rows,
                    Some(s.rows.len() as u64),
                    "root rows: seed {seed} {text}"
                ),
                Outcome::Count { .. } => {
                    assert_eq!(tree.rows, Some(1), "aggregate rows: seed {seed} {text}")
                }
            }
        }
    }
}
