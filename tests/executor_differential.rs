//! Differential gate for the one Cypher executor on an adversarially
//! skewed graph whose hub vertex owns ~30% of all edges: over the frozen
//! [`CompactGraph`], the same snapshot after a round trip through its
//! binary codec, and the mutable `PropertyGraph` it was frozen from, the
//! batch pipeline must answer every query with the same row multiset as
//! the planner-independent scan oracle (`evaluate_scan`). The uniform
//! workload runs through the same harness in `vectorized_differential`.
//!
//! The skew set covers hub-heavy traversal; grouped `count`/`sum`/`min`/
//! `max` including `DISTINCT` aggregates and the zero-row aggregate;
//! `DISTINCT`; `ORDER BY` with and without a top-K-eligible `LIMIT`; the
//! probe-seeded top-K reads of the benchmark (`hub-topk`, `warm-topk`);
//! and the empty cases. Every failure message names the xorshift seed its
//! graph came from.
//!
//! [`CompactGraph`]: s3pg_pg::CompactGraph

#[allow(dead_code)]
#[path = "support/executor.rs"]
mod support;

use s3pg::pipeline::transform;
use s3pg::Mode;
use s3pg_pg::{CompactGraph, PgRead, Value};
use s3pg_query::cypher;
use s3pg_shacl::extract_shapes;
use s3pg_workloads::skew::{self, generate_skewed};
use support::{assert_executor_matches, kernel_graph, kernel_queries, plain, sorted_rows, Query};

/// Seed of the skew generator.
const SKEW_SEED: u64 = 0xD1CE;

/// Skew scale: 4800 sources, a hub owning ~30% of the edges, and a gate
/// that stays fast.
const SKEW_SCALE: f64 = 1.2;

/// The skew query set: hub-heavy traversal, grouped and distinct
/// aggregates, top-K-eligible and -ineligible ORDER BY, the empty cases,
/// and the benchmark's probe-seeded `hub-topk` / `warm-topk` reads.
fn skew_queries() -> Vec<Query> {
    const LINKS: &str = "(s:Source)-[:linksTo]->(t:Target)";
    let mut queries: Vec<Query> = [
        "RETURN s.iri, t.iri",
        "WHERE t.rank > 50000 RETURN s.iri, t.rank",
        "RETURN count(*) AS n",
        "RETURN s.iri, count(t) AS n, sum(t.rank) AS total, min(t.rank) AS lo, max(t.rank) AS hi",
        "RETURN count(DISTINCT t.iri) AS targets, sum(DISTINCT t.rank) AS ranks",
        "RETURN DISTINCT t.iri",
        "RETURN t.iri, t.rank ORDER BY t.rank SKIP 3 LIMIT 17",
        "RETURN DISTINCT t.rank ORDER BY t.rank DESC LIMIT 9",
        // The benchmark's `group-agg-top5`: ORDER BY … LIMIT over groups,
        // with ties at the cut (the four warm sources).
        "RETURN s.iri, count(t) AS n, sum(t.rank) AS total ORDER BY n DESC LIMIT 5",
        "RETURN s.iri, count(*) AS n ORDER BY n SKIP 2 LIMIT 4",
        // Zero-row aggregate: one row of count 0 / sum 0 / NULL min.
        "WHERE t.rank < 0 RETURN count(*) AS n, sum(t.rank) AS total, min(t.rank) AS lo",
    ]
    .iter()
    .map(|tail| plain(format!("MATCH {LINKS} {tail}")))
    .collect();
    queries.extend(
        [
            "MATCH (t:Target) RETURN t.iri, t.rank ORDER BY t.rank",
            "MATCH (n:NoSuchLabelAnywhere) RETURN n.iri",
            "MATCH (s:Source) WHERE s.iri = 'nope' RETURN s.iri",
        ]
        .map(|text| plain(text.to_string())),
    );
    let sources = (skew::BASE_SOURCES as f64 * SKEW_SCALE).round() as usize;
    let hot =
        std::iter::once(0).chain((1..=skew::WARM_COUNT).map(|k| (k * skew::HOT_SPACING) % sources));
    for source in hot {
        let hub = format!("{}s{source}", skew::NAMESPACE);
        queries.push(Query {
            text: format!(
                "MATCH {LINKS} WHERE s.iri = $hub RETURN t.rank ORDER BY t.rank DESC LIMIT 10"
            ),
            params: [("hub".to_string(), Value::String(hub))]
                .into_iter()
                .collect(),
        });
    }
    queries
}

#[test]
fn executor_matches_scan_on_skewed_graph() {
    let skewed = generate_skewed(SKEW_SCALE, SKEW_SEED);
    assert!(
        skewed.hub_edge_share() > 0.25,
        "skew generator lost its hub (seed {SKEW_SEED:#x})"
    );
    let shapes = extract_shapes(&skewed.graph);
    let out = transform(&skewed.graph, &shapes, Mode::Parsimonious);
    assert_executor_matches(
        &out.pg,
        &skew_queries(),
        &format!("skewed (seed {SKEW_SEED:#x})"),
    );
}

#[test]
fn executor_kernels_match_scan_on_typed_values() {
    assert_executor_matches(&kernel_graph(), &kernel_queries(), "kernel graph");
}

/// The answers of [`kernel_queries`], in order, as sorted `Debug` rows:
/// recorded from the scan oracle of the evaluator these kernels replaced
/// (which keyed groups and DISTINCT on `format!("{v:?}")` and compared
/// through owned `Value`s), so a change to the shared key equality or
/// ordering cannot pass by changing both sides of the differential.
const KERNEL_ANSWERS: [&[&str]; 28] = [
        // MATCH (i:Item) WHERE i.v = $one RETURN i.iri {"one": Int(1)}
        &[
            "[Some(String(\"http://kernel.test/i0\"))]",
            "[Some(String(\"http://kernel.test/i1\"))]",
            "[Some(String(\"http://kernel.test/i6\"))]",
        ],
        // MATCH (i:Item) WHERE i.v = $one RETURN i.iri {"one": Float(1.0)}
        &[
            "[Some(String(\"http://kernel.test/i0\"))]",
            "[Some(String(\"http://kernel.test/i1\"))]",
            "[Some(String(\"http://kernel.test/i6\"))]",
        ],
        // MATCH (i:Item) WHERE i.n > $x RETURN i.iri, i.n {"x": Float(3.5)}
        &[
            "[Some(String(\"http://kernel.test/i1\")), Some(Int(4))]",
            "[Some(String(\"http://kernel.test/i3\")), Some(Int(5))]",
        ],
        // MATCH (i:Item) WHERE i.v <> 1 RETURN i.iri, i.v
        &[
            "[Some(String(\"http://kernel.test/i2\")), Some(Int(2))]",
            "[Some(String(\"http://kernel.test/i5\")), Some(Float(2.5))]",
        ],
        // MATCH (i:Item) WHERE i.tag = 2020 RETURN i.iri, i.tag
        &[
            "[Some(String(\"http://kernel.test/i5\")), Some(Year(2020))]",
            "[Some(String(\"http://kernel.test/i6\")), Some(Int(2020))]",
        ],
        // MATCH (i:Item) WHERE i.tag = 7 RETURN i.iri
        &[
            "[Some(String(\"http://kernel.test/i2\"))]",
            "[Some(String(\"http://kernel.test/i4\"))]",
        ],
        // MATCH (i:Item) WHERE NOT (i.tag < 'b') RETURN i.iri
        &[
            "[Some(String(\"http://kernel.test/i1\"))]",
            "[Some(String(\"http://kernel.test/i3\"))]",
        ],
        // MATCH (i:Item) WHERE i.v > 1 OR i.tag = 'a' RETURN i.iri
        &[
            "[Some(String(\"http://kernel.test/i0\"))]",
            "[Some(String(\"http://kernel.test/i2\"))]",
            "[Some(String(\"http://kernel.test/i5\"))]",
        ],
        // MATCH (i:Item) WHERE i.v >= 1 AND i.tag <> 'b' RETURN i.iri
        &[
            "[Some(String(\"http://kernel.test/i0\"))]",
        ],
        // MATCH (i:Item) WHERE i.v IS NULL RETURN i.iri
        &[
            "[Some(String(\"http://kernel.test/i4\"))]",
        ],
        // MATCH (i:Item) WHERE i.nope IS NOT NULL RETURN count(*) AS n
        &[
            "[Some(Int(0))]",
        ],
        // MATCH (i:Item) RETURN coalesce(i.v, i.tag) AS c, count(*) AS n
        &[
            "[Some(Float(1.0)), Some(Int(1))]",
            "[Some(Float(2.5)), Some(Int(1))]",
            "[Some(Float(7.0)), Some(Int(1))]",
            "[Some(Int(1)), Some(Int(2))]",
            "[Some(Int(2)), Some(Int(1))]",
            "[Some(String(\"2\")), Some(Int(1))]",
        ],
        // MATCH (i:Item) WHERE i.tags = 'x' RETURN i.iri
        &[
            "[Some(String(\"http://kernel.test/i3\"))]",
        ],
        // MATCH (i:Item) WHERE i.tags IS NOT NULL RETURN i.iri, i.tags
        &[
            "[Some(String(\"http://kernel.test/i0\")), Some(List([String(\"x\"), String(\"y\")]))]",
            "[Some(String(\"http://kernel.test/i1\")), Some(List([String(\"x\"), String(\"y\")]))]",
            "[Some(String(\"http://kernel.test/i2\")), Some(List([String(\"y\")]))]",
            "[Some(String(\"http://kernel.test/i3\")), Some(String(\"x\"))]",
            "[Some(String(\"http://kernel.test/i4\")), Some(List([Int(1), Float(1.0)]))]",
        ],
        // MATCH (i:Item) RETURN i.tags AS tags, count(*) AS n, min(i.tags) AS lo
        &[
            "[None, Some(Int(2)), None]",
            "[Some(List([Int(1), Float(1.0)])), Some(Int(1)), Some(List([Int(1), Float(1.0)]))]",
            "[Some(List([String(\"x\"), String(\"y\")])), Some(Int(2)), Some(List([String(\"x\"), String(\"y\")]))]",
            "[Some(List([String(\"y\")])), Some(Int(1)), Some(List([String(\"y\")]))]",
            "[Some(String(\"x\")), Some(Int(1)), Some(String(\"x\"))]",
        ],
        // MATCH (i:Item) RETURN DISTINCT i.tags
        &[
            "[None]",
            "[Some(List([Int(1), Float(1.0)]))]",
            "[Some(List([String(\"x\"), String(\"y\")]))]",
            "[Some(List([String(\"y\")]))]",
            "[Some(String(\"x\"))]",
        ],
        // MATCH (i:Item) WHERE i.v <= 1 RETURN min(i.v) AS lo, max(i.v) AS hi
        &[
            "[Some(Int(1)), Some(Int(1))]",
        ],
        // MATCH (i:Item) RETURN min(i.v) AS lo, max(i.v) AS hi, min(i.tag) AS t
        &[
            "[Some(Int(1)), Some(Float(2.5)), Some(Int(7))]",
        ],
        // MATCH (i:Item) RETURN sum(i.v) AS s, sum(i.n) AS n, sum(DISTINCT i.v) AS d
        &[
            "[Some(Float(7.5)), Some(Int(10)), Some(Float(6.5))]",
        ],
        // MATCH (a:Item)-[e:next]->(b) RETURN a.iri, sum(e.weight) AS w, max(e.weight) AS m
        &[
            "[Some(String(\"http://kernel.test/i0\")), Some(Float(-1.5)), Some(Float(-0.5))]",
            "[Some(String(\"http://kernel.test/i1\")), Some(Float(0.0)), Some(Float(0.0))]",
            "[Some(String(\"http://kernel.test/i3\")), Some(Float(1.0)), Some(Float(1.0))]",
            "[Some(String(\"http://kernel.test/i5\")), Some(Float(5.0)), Some(Float(5.0))]",
            "[Some(String(\"http://kernel.test/i6\")), Some(Float(6.0)), Some(Float(6.0))]",
        ],
        // MATCH (i:Item) RETURN count(DISTINCT i.v) AS v, count(DISTINCT i.tag) AS t, count(i.v) AS c
        &[
            "[Some(Int(5)), Some(Int(7)), Some(Int(6))]",
        ],
        // MATCH (a:Item)-[e:next]->(b) RETURN count(e) AS e, count(DISTINCT b) AS b, count(DISTINCT a) AS a
        // (the parent answered 0, 0, 0: it counted NULLs, not bindings;
        // these are the six edges, their four targets and five sources)
        &[
            "[Some(Int(6)), Some(Int(4)), Some(Int(5))]",
        ],
        // MATCH (i:Item) RETURN i.w AS w, count(*) AS n
        &[
            "[Some(Float(-0.0)), Some(Int(2))]",
            "[Some(Float(0.0)), Some(Int(3))]",
            "[Some(Float(NaN)), Some(Int(2))]",
        ],
        // MATCH (i:Item) RETURN DISTINCT i.w
        &[
            "[Some(Float(-0.0))]",
            "[Some(Float(0.0))]",
            "[Some(Float(NaN))]",
        ],
        // MATCH (i:Item) RETURN i.w AS w, count(*) AS n ORDER BY n DESC LIMIT 2
        &[
            "[Some(Float(-0.0)), Some(Int(2))]",
            "[Some(Float(0.0)), Some(Int(3))]",
        ],
        // MATCH (i:Item) RETURN i.v AS v, count(*) AS n ORDER BY v SKIP 1 LIMIT 2
        &[
            "[Some(Int(1)), Some(Int(2))]",
            "[Some(Int(2)), Some(Int(1))]",
        ],
        // MATCH (i:Item) RETURN i.iri, i.v ORDER BY i.v DESC LIMIT 3
        &[
            "[Some(String(\"http://kernel.test/i2\")), Some(Int(2))]",
            "[Some(String(\"http://kernel.test/i4\")), None]",
            "[Some(String(\"http://kernel.test/i5\")), Some(Float(2.5))]",
        ],
        // MATCH (i:Item) RETURN i.iri, i.tag ORDER BY i.tag SKIP 1 LIMIT 4
        &[
            "[Some(String(\"http://kernel.test/i0\")), Some(String(\"a\"))]",
            "[Some(String(\"http://kernel.test/i4\")), Some(Float(7.0))]",
            "[Some(String(\"http://kernel.test/i5\")), Some(Year(2020))]",
            "[Some(String(\"http://kernel.test/i6\")), Some(Int(2020))]",
        ],
];

#[test]
fn executor_kernels_give_recorded_answers() {
    let pg = kernel_graph();
    let compact = pg.freeze();
    let mut image = Vec::new();
    compact.write_to(&mut image).expect("snapshot encodes");
    let decoded = CompactGraph::read_from(image.as_slice()).expect("snapshot decodes");
    let queries = kernel_queries();
    assert_eq!(queries.len(), KERNEL_ANSWERS.len());
    for (query, expected) in queries.iter().zip(KERNEL_ANSWERS) {
        let q = cypher::parse(&query.text).unwrap();
        let params = &query.params;
        let forms = [
            ("scan", cypher::evaluate_scan_params(&pg, &q, params)),
            ("compact", run(&compact, &q, params)),
            ("decoded", run(&decoded, &q, params)),
            ("mutable", run(&pg, &q, params)),
        ];
        for (form, rows) in forms {
            let rows = rows.unwrap_or_else(|e| panic!("{form}: {}: {e}", query.text));
            assert_eq!(sorted_rows(&rows), expected, "{form}: {}", query.text);
        }
    }
}

/// The planned executor's answer on one form.
fn run<G: PgRead>(
    pg: &G,
    q: &cypher::CypherQuery,
    params: &cypher::Params,
) -> Result<cypher::Rows, cypher::CypherError> {
    cypher::evaluate_planned_params(pg, q, &cypher::plan(pg, q), params, 1)
}

/// `count(v)` over a node variable counts bindings and `count(DISTINCT v)`
/// ids, against answers read off the generator and the RDF graph, not
/// off any evaluator.
#[test]
fn count_over_bindings_on_skewed_graph() {
    let skewed = generate_skewed(SKEW_SCALE, SKEW_SEED);
    let sources = (skew::BASE_SOURCES as f64 * SKEW_SCALE).round() as i64;
    let links_to = skewed.graph.interner().get(skew::LINKS_TO).unwrap();
    let links = skewed.graph.match_pattern(None, Some(links_to), None);
    let targets: std::collections::BTreeSet<_> = links.iter().map(|t| t.o).collect();
    let shapes = extract_shapes(&skewed.graph);
    let pg = transform(&skewed.graph, &shapes, Mode::Parsimonious).pg;
    let compact = pg.freeze();
    let int = |n: usize| Some(Value::Int(n as i64));
    let cases = [
        (
            "MATCH (s:Source) RETURN count(s) AS n, count(*) AS m".to_string(),
            vec![vec![int(sources as usize), int(sources as usize)]],
        ),
        (
            "MATCH (s:Source)-[e:linksTo]->(t:Target) \
             RETURN count(DISTINCT t) AS t, count(t) AS n, count(e) AS e"
                .to_string(),
            vec![vec![int(targets.len()), int(links.len()), int(links.len())]],
        ),
    ];
    for (text, expected) in cases {
        let q = cypher::parse(&text).unwrap();
        let params = cypher::Params::default();
        let ctx = format!("seed {SKEW_SEED:#x}: {text}");
        for rows in [
            cypher::evaluate_planned_params(&compact, &q, &cypher::plan(&compact, &q), &params, 1),
            cypher::evaluate_planned_params(&pg, &q, &cypher::plan(&pg, &q), &params, 1),
            cypher::evaluate_scan(&pg, &q),
        ] {
            assert_eq!(rows.unwrap().rows, expected, "{ctx}");
        }
    }
}
