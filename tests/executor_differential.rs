//! Differential gate for the one Cypher executor on an adversarially
//! skewed graph whose hub vertex owns ~30% of all edges: over the frozen
//! [`CompactGraph`], the same snapshot after a round trip through its
//! binary codec, and the mutable `PropertyGraph` it was frozen from, the
//! morsel batch pipeline must answer every query with the same row
//! multiset as the planner-independent scan oracle (`evaluate_scan`), and
//! rows at 2 and 8 threads must be identical, in order, to the rows at
//! 1 thread. The uniform workload runs through the same harness in
//! `vectorized_differential` and `morsel_differential`.
//!
//! The skew set covers hub-heavy traversal; grouped `count`/`sum`/`min`/
//! `max` including `DISTINCT` aggregates and the zero-row aggregate;
//! `DISTINCT`; `ORDER BY` with and without a top-K-eligible `LIMIT`; the
//! probe-seeded top-K reads of the benchmark (`hub-topk`, `warm-topk`);
//! and the empty cases. The file also pins the SPARQL flat-batch join
//! sequential ≡ parallel. Every failure message names the xorshift seed
//! its graph came from.
//!
//! [`CompactGraph`]: s3pg_pg::CompactGraph

#[allow(dead_code)]
#[path = "support/executor.rs"]
mod support;

use s3pg::pipeline::transform;
use s3pg::Mode;
use s3pg_pg::Value;
use s3pg_query::sparql;
use s3pg_shacl::extract_shapes;
use s3pg_workloads::generate_queries;
use s3pg_workloads::skew::{self, generate_skewed};
use support::{assert_executor_matches, plain, workload, Query, WORKLOAD_SEED};

/// Seed of the skew generator.
const SKEW_SEED: u64 = 0xD1CE;

/// Skew scale picked so estimated work clears the parallel engagement
/// floor (4800 sources × per-row cost > 4096) while the gate stays fast.
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
fn sparql_flat_join_is_thread_invariant() {
    let generated = workload();
    for spec in generate_queries(&generated.meta, 3) {
        let q = sparql::parse(&spec.sparql).unwrap();
        let seq = sparql::evaluate(&generated.graph, &q).unwrap();
        let par = sparql::evaluate_threads(&generated.graph, &q, 4).unwrap();
        assert_eq!(
            seq, par,
            "sparql {} diverges at 4 threads (seed {WORKLOAD_SEED:#x})",
            spec.sparql
        );
    }
}
