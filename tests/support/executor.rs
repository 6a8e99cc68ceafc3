//! Shared harness of the Cypher executor gates (`executor_differential`,
//! `vectorized_differential`): the workload generator and its query set,
//! and the check that holds the batch pipeline to the scan oracle on
//! every snapshot form — the frozen [`CompactGraph`], the same snapshot
//! after a round trip through its binary codec, and the mutable
//! [`PropertyGraph`] it was frozen from — and holds the planner to one
//! plan per query across those forms, which a server's plan cache relies
//! on when one epoch's entry serves whichever form is current.

use s3pg::pipeline::{transform, TransformOutput};
use s3pg::query_translate;
use s3pg::Mode;
use s3pg_pg::{CompactGraph, PgRead, PropertyGraph};
use s3pg_query::cypher;
use s3pg_query::profile::PlanNode;
use s3pg_shacl::extract_shapes;
use s3pg_workloads::generate_queries;
use s3pg_workloads::spec::{generate, DatasetSpec, GeneratedDataset};
use std::collections::BTreeMap;

/// Seed of the uniform workload generator.
pub const WORKLOAD_SEED: u64 = 0x5EED;
/// Seed of the tombstone pass.
pub const TOMBSTONE_SEED: u64 = 0x7157;

/// Big enough that the cartesian queries answer tens of thousands of
/// rows on every form.
const INSTANCES: usize = 150;

pub fn workload() -> GeneratedDataset {
    generate(&DatasetSpec {
        name: "execdiff".into(),
        namespace: "http://execdiff.test/".into(),
        classes: 3,
        subclass_fraction: 0.25,
        instances_per_class: INSTANCES,
        single_literal: 3,
        single_non_literal: 2,
        mt_homo_literal: 1,
        mt_homo_non_literal: 1,
        mt_hetero: 1,
        density: 0.7,
        multi_value_p: 0.3,
        seed: WORKLOAD_SEED,
    })
}

/// The workload transformed in parsimonious mode.
pub fn transformed_workload() -> (GeneratedDataset, TransformOutput) {
    let generated = workload();
    let shapes = extract_shapes(&generated.graph);
    let out = transform(&generated.graph, &shapes, Mode::Parsimonious);
    (generated, out)
}

/// One query plus its parameter bindings.
pub struct Query {
    pub text: String,
    pub params: cypher::Params,
}

pub fn plain(text: String) -> Query {
    Query {
        text,
        params: cypher::Params::default(),
    }
}

/// Order-independent row rendering for the multiset comparison with the
/// scan oracle.
fn sorted_rows(rows: &cypher::Rows) -> Vec<String> {
    let mut out: Vec<String> = rows.rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

fn identifier_safe(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The two identifier-safe node labels with the most live nodes.
pub fn busiest_labels(pg: &PropertyGraph) -> (String, String) {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for id in pg.node_ids() {
        for label in pg.labels_of(id) {
            if identifier_safe(label) {
                *counts.entry(label.to_string()).or_insert(0) += 1;
            }
        }
    }
    let mut ranked: Vec<(String, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    assert!(
        ranked.len() >= 2,
        "workload graph has fewer than two labels (seed {WORKLOAD_SEED:#x})"
    );
    (ranked[0].0.clone(), ranked[1].0.clone())
}

/// The identifier-safe edge label with the most live edges, paired with
/// the most common label among its source nodes.
fn busiest_edge(pg: &PropertyGraph) -> (String, String) {
    let mut edges: BTreeMap<String, usize> = BTreeMap::new();
    for id in pg.edge_ids() {
        for label in pg.edge_labels_of(id) {
            if identifier_safe(label) {
                *edges.entry(label.to_string()).or_insert(0) += 1;
            }
        }
    }
    let (edge_label, _) = edges
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .expect("workload graph has no edges");
    let mut sources: BTreeMap<String, usize> = BTreeMap::new();
    for id in pg.edge_ids() {
        if pg.edge_labels_of(id).contains(&edge_label.as_str()) {
            for label in pg.labels_of(pg.edge(id).src) {
                *sources.entry(label.to_string()).or_insert(0) += 1;
            }
        }
    }
    let (src_label, _) = sources
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .expect("busiest edge has no labeled sources");
    (edge_label, src_label)
}

/// The workload query set: translated workload SPARQL, cartesian products
/// (one with a top-K `ORDER BY … LIMIT`) and joins, one-hop / two-hop /
/// reverse-anchored traversals, a filter, grouped and ungrouped
/// aggregates, `DISTINCT`, `UNION ALL`, UNWIND, `OPTIONAL MATCH`, and the
/// empty-postings / all-filtered edge cases.
pub fn workload_queries(generated: &GeneratedDataset, out: &TransformOutput) -> Vec<Query> {
    let mut queries: Vec<String> = generate_queries(&generated.meta, 2)
        .iter()
        .map(|spec| query_translate::translate_str(&spec.sparql, &out.schema.mapping).unwrap())
        .collect();
    let (l0, l1) = busiest_labels(&out.pg);
    let (edge, src) = busiest_edge(&out.pg);
    queries.extend([
        format!("MATCH (a:{l0}) MATCH (b:{l1}) RETURN a.iri, b.iri"),
        format!(
            "MATCH (a:{src})-[:{edge}]->(v) MATCH (b:{src})-[:{edge}]->(v) RETURN a.iri, b.iri"
        ),
        format!("MATCH (a:{src})-[:{edge}]->(v) RETURN a.iri, v.iri"),
        format!("MATCH (a:{src})-[:{edge}]->(v)-[:{edge}]->(w) RETURN a.iri, w.iri"),
        format!("MATCH (a:{src}) MATCH (b)-[:{edge}]->(a) RETURN a.iri, b.iri"),
        format!("MATCH (a:{src})-[:{edge}]->(v) WHERE a.iri <> v.iri RETURN a.iri, v.iri"),
        format!("MATCH (a:{l0}) RETURN a.iri, count(*) AS n"),
        format!("MATCH (a:{l0}) RETURN min(a.iri) AS lo, max(a.iri) AS hi"),
        format!(
            "MATCH (a:{l0}) RETURN count(*) AS n UNION ALL MATCH (b:{l1}) RETURN count(b) AS n"
        ),
        format!(
            "MATCH (a:{l0}) RETURN count(a) AS n UNION ALL MATCH (b:{l1}) RETURN count(b) AS n"
        ),
        format!("MATCH (a:{l0}) RETURN DISTINCT a.iri ORDER BY a.iri DESC SKIP 3 LIMIT 7"),
        format!("MATCH (a:{l0}) MATCH (b:{l1}) RETURN a.iri ORDER BY a.iri LIMIT 11"),
        format!("MATCH (a:{l0}) UNWIND a.iri AS x RETURN x LIMIT 40"),
        format!("MATCH (a:{l0}) OPTIONAL MATCH (a)-[:{edge}]->(v) RETURN a.iri, v.iri"),
        "MATCH (n:NoSuchLabelAnywhere) RETURN n.iri".to_string(),
        format!("MATCH (a:{src})-[:NoSuchEdgeLabel]->(v) RETURN a.iri, v.iri"),
        format!("MATCH (a:{l0}) WHERE a.iri = 'nope' RETURN a.iri"),
    ]);
    queries.into_iter().map(plain).collect()
}

/// One query on one form: the executor's rows agree with the oracle as a
/// multiset. Returns the rows and the `EXPLAIN` of the plan they ran.
fn check_form<G: PgRead>(
    pg: &G,
    query: &Query,
    oracle: &[String],
    ctx: &str,
) -> (cypher::Rows, PlanNode) {
    let q =
        cypher::parse(&query.text).unwrap_or_else(|e| panic!("{ctx}: parse {}: {e}", query.text));
    let plan = cypher::plan(pg, &q);
    let rows = cypher::evaluate_planned_params(pg, &q, &plan, &query.params, 1)
        .unwrap_or_else(|e| panic!("{ctx}: {}: {e}", query.text));
    assert_eq!(
        sorted_rows(&rows),
        oracle,
        "{ctx}: executor != scan for {}",
        query.text
    );
    (rows, cypher::explain(&q, &plan))
}

/// Every query on every form of `pg` against the scan oracle over the
/// mutable graph, with the same plan on every form.
pub fn assert_executor_matches(pg: &PropertyGraph, queries: &[Query], ctx: &str) {
    let compact = pg.freeze();
    let mut image = Vec::new();
    compact.write_to(&mut image).expect("snapshot encodes");
    let decoded = CompactGraph::read_from(image.as_slice()).expect("snapshot decodes");
    let mut nonempty = 0usize;
    for query in queries {
        let q = cypher::parse(&query.text).unwrap();
        let scan = cypher::evaluate_scan_params(pg, &q, &query.params)
            .unwrap_or_else(|e| panic!("{ctx}: scan {}: {e}", query.text));
        let oracle = sorted_rows(&scan);
        let (frozen, frozen_plan) =
            check_form(&compact, query, &oracle, &format!("{ctx}, compact"));
        let (roundtripped, decoded_plan) =
            check_form(&decoded, query, &oracle, &format!("{ctx}, decoded"));
        assert_eq!(
            frozen, roundtripped,
            "{ctx}: codec roundtrip diverges for {}",
            query.text
        );
        let (_, mutable_plan) = check_form(pg, query, &oracle, &format!("{ctx}, mutable"));
        assert_eq!(
            frozen_plan, decoded_plan,
            "{ctx}: compact and decoded forms plan {} differently",
            query.text
        );
        assert_eq!(
            frozen_plan, mutable_plan,
            "{ctx}: compact and mutable forms plan {} differently",
            query.text
        );
        nonempty += usize::from(!scan.is_empty());
    }
    assert!(nonempty > 0, "{ctx}: every query returned no rows");
}
