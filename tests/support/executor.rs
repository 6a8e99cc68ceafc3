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
pub fn sorted_rows(rows: &cypher::Rows) -> Vec<String> {
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

/// A hand-built graph whose values exercise the row kernels' typed
/// semantics: int and float properties that compare equal, a string where
/// a number is expected, a missing property, list-valued properties,
/// `-0.0` beside `0.0`, and NaN. Every `:Item` has an `iri`; `n` is an
/// int everywhere it is set.
pub fn kernel_graph() -> PropertyGraph {
    use s3pg_pg::{Value, IRI_KEY};
    let strings =
        |xs: &[&str]| Value::List(xs.iter().map(|x| Value::String(x.to_string())).collect());
    let items: Vec<Vec<(&str, Value)>> = vec![
        vec![
            ("v", Value::Int(1)),
            ("w", Value::Float(-0.0)),
            ("tag", Value::String("a".into())),
            ("tags", strings(&["x", "y"])),
            ("n", Value::Int(3)),
        ],
        vec![
            ("v", Value::Float(1.0)),
            ("w", Value::Float(0.0)),
            ("tag", Value::String("b".into())),
            ("tags", strings(&["x", "y"])),
            ("n", Value::Int(4)),
        ],
        vec![
            ("v", Value::Int(2)),
            ("w", Value::Float(0.0)),
            ("tag", Value::Int(7)),
            ("tags", strings(&["y"])),
        ],
        vec![
            ("v", Value::String("2".into())),
            ("w", Value::Float(f64::NAN)),
            ("tag", Value::String("c".into())),
            ("tags", Value::String("x".into())),
            ("n", Value::Int(5)),
        ],
        vec![
            ("w", Value::Float(-0.0)),
            ("tag", Value::Float(7.0)),
            ("tags", Value::List(vec![Value::Int(1), Value::Float(1.0)])),
        ],
        vec![
            ("v", Value::Float(2.5)),
            ("w", Value::Float(-f64::NAN)),
            ("tag", Value::Year(2020)),
            ("n", Value::Int(-2)),
        ],
        vec![
            ("v", Value::Int(1)),
            ("w", Value::Float(0.0)),
            ("tag", Value::Int(2020)),
        ],
    ];
    let mut pg = PropertyGraph::new();
    let mut ids = Vec::new();
    for (i, props) in items.into_iter().enumerate() {
        let id = pg.add_node(["Item"]);
        pg.set_prop(
            id,
            IRI_KEY,
            Value::String(format!("http://kernel.test/i{i}")),
        );
        for (key, value) in props {
            pg.set_prop(id, key, value);
        }
        ids.push(id);
    }
    for (src, dst) in [(0, 1), (0, 2), (1, 2), (3, 4), (5, 0), (6, 0)] {
        let e = pg.add_edge(ids[src], ids[dst], "next");
        pg.set_edge_prop(e, "weight", Value::Float(src as f64 - dst as f64 / 2.0));
    }
    pg
}

/// Queries over [`kernel_graph`], one per typed rule of the row kernels,
/// each held to the scan oracle on every form.
pub fn kernel_queries() -> Vec<Query> {
    use s3pg_pg::Value;
    let with = |text: &str, params: &[(&str, Value)]| Query {
        text: text.to_string(),
        params: params
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    };
    vec![
        // Int and float parameters against int properties, and `<>`.
        with("MATCH (i:Item) WHERE i.v = $one RETURN i.iri", &[("one", Value::Int(1))]),
        with("MATCH (i:Item) WHERE i.v = $one RETURN i.iri", &[("one", Value::Float(1.0))]),
        with("MATCH (i:Item) WHERE i.n > $x RETURN i.iri, i.n", &[("x", Value::Float(3.5))]),
        with("MATCH (i:Item) WHERE i.v <> 1 RETURN i.iri, i.v", &[]),
        with("MATCH (i:Item) WHERE i.tag = 2020 RETURN i.iri, i.tag", &[]),
        // A string compared with a number is NULL, under NOT too.
        with("MATCH (i:Item) WHERE i.tag = 7 RETURN i.iri", &[]),
        with("MATCH (i:Item) WHERE NOT (i.tag < 'b') RETURN i.iri", &[]),
        with("MATCH (i:Item) WHERE i.v > 1 OR i.tag = 'a' RETURN i.iri", &[]),
        with("MATCH (i:Item) WHERE i.v >= 1 AND i.tag <> 'b' RETURN i.iri", &[]),
        // A missing property.
        with("MATCH (i:Item) WHERE i.v IS NULL RETURN i.iri", &[]),
        with("MATCH (i:Item) WHERE i.nope IS NOT NULL RETURN count(*) AS n", &[]),
        with("MATCH (i:Item) RETURN coalesce(i.v, i.tag) AS c, count(*) AS n", &[]),
        // Lists in WHERE and as a group key.
        with("MATCH (i:Item) WHERE i.tags = 'x' RETURN i.iri", &[]),
        with("MATCH (i:Item) WHERE i.tags IS NOT NULL RETURN i.iri, i.tags", &[]),
        with("MATCH (i:Item) RETURN i.tags AS tags, count(*) AS n, min(i.tags) AS lo", &[]),
        with("MATCH (i:Item) RETURN DISTINCT i.tags", &[]),
        // min/max ties between Int(1) and Float(1.0): the first row wins.
        with("MATCH (i:Item) WHERE i.v <= 1 RETURN min(i.v) AS lo, max(i.v) AS hi", &[]),
        with("MATCH (i:Item) RETURN min(i.v) AS lo, max(i.v) AS hi, min(i.tag) AS t", &[]),
        // A sum that promotes int to float, and one that stays int.
        with("MATCH (i:Item) RETURN sum(i.v) AS s, sum(i.n) AS n, sum(DISTINCT i.v) AS d", &[]),
        with("MATCH (a:Item)-[e:next]->(b) RETURN a.iri, sum(e.weight) AS w, max(e.weight) AS m", &[]),
        // count(DISTINCT) over mixed types, and over bindings.
        with("MATCH (i:Item) RETURN count(DISTINCT i.v) AS v, count(DISTINCT i.tag) AS t, count(i.v) AS c", &[]),
        with("MATCH (a:Item)-[e:next]->(b) RETURN count(e) AS e, count(DISTINCT b) AS b, count(DISTINCT a) AS a", &[]),
        // A float group key with -0.0 and 0.0 (and NaN of both signs).
        with("MATCH (i:Item) RETURN i.w AS w, count(*) AS n", &[]),
        with("MATCH (i:Item) RETURN DISTINCT i.w", &[]),
        // ORDER BY … LIMIT over groups, cut inside a tie.
        with("MATCH (i:Item) RETURN i.w AS w, count(*) AS n ORDER BY n DESC LIMIT 2", &[]),
        with("MATCH (i:Item) RETURN i.v AS v, count(*) AS n ORDER BY v SKIP 1 LIMIT 2", &[]),
        // Top-K over mixed types.
        with("MATCH (i:Item) RETURN i.iri, i.v ORDER BY i.v DESC LIMIT 3", &[]),
        with("MATCH (i:Item) RETURN i.iri, i.tag ORDER BY i.tag SKIP 1 LIMIT 4", &[]),
    ]
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
