//! Differential gate for the morsel scheduler of
//! `crates/query/src/morsel.rs`: on a transform-shaped graph (multi-label
//! nodes, mixed properties) the morsel pipeline must answer the
//! parallel-eligible cartesian, grouped-aggregate, `DISTINCT` and top-K
//! queries with the same row multiset as the row-at-a-time scan
//! interpreter (`evaluate_scan`), and with rows at 2 and 8 threads
//! identical, in order, to the rows at 1 thread — on the frozen,
//! codec-roundtripped and mutable forms, pristine and after a quarter of
//! the nodes and a third of the edges are tombstoned. Every failure
//! message names the xorshift seeds its graph came from.

#[allow(dead_code)]
#[path = "support/executor.rs"]
mod support;

use s3pg_pg::PropertyGraph;
use s3pg_rdf::rng::XorShiftRng;
use support::{
    assert_executor_matches, busiest_labels, plain, transformed_workload, Query, TOMBSTONE_SEED,
    WORKLOAD_SEED,
};

/// The morsel query set: the two cartesian products clear the parallel
/// engagement floor, so the morsel workers and the top-K merge run; the
/// single-label aggregates, `DISTINCT` and `UNION ALL` pin the inline path
/// beside them.
fn morsel_queries(pg: &PropertyGraph) -> Vec<Query> {
    let (l0, l1) = busiest_labels(pg);
    [
        format!("MATCH (a:{l0}) MATCH (b:{l1}) RETURN a.iri, b.iri"),
        format!("MATCH (a:{l0}) RETURN a.iri, count(*) AS n"),
        format!("MATCH (a:{l0}) RETURN min(a.iri) AS lo, max(a.iri) AS hi"),
        format!("MATCH (a:{l0}) RETURN DISTINCT a.iri ORDER BY a.iri DESC SKIP 3 LIMIT 7"),
        format!("MATCH (a:{l0}) MATCH (b:{l1}) RETURN a.iri ORDER BY a.iri LIMIT 11"),
        format!(
            "MATCH (a:{l0}) RETURN count(a) AS n UNION ALL MATCH (b:{l1}) RETURN count(b) AS n"
        ),
    ]
    .into_iter()
    .map(plain)
    .collect()
}

#[test]
fn morsel_matches_interpreter_on_pristine_workload() {
    let (_, out) = transformed_workload();
    let queries = morsel_queries(&out.pg);
    assert_executor_matches(
        &out.pg,
        &queries,
        &format!("pristine (seed {WORKLOAD_SEED:#x})"),
    );
}

#[test]
fn morsel_matches_interpreter_after_tombstones() {
    let (_, out) = transformed_workload();
    let queries = morsel_queries(&out.pg);
    let mut pg = out.pg;
    let mut rng = XorShiftRng::seed_from_u64(TOMBSTONE_SEED);
    let ids: Vec<_> = pg.node_ids().collect();
    for id in ids {
        if rng.choose_index(4).unwrap() == 0 {
            pg.remove_node(id);
        }
    }
    let edge_ids: Vec<_> = pg.edge_ids().collect();
    for (i, id) in edge_ids.into_iter().enumerate() {
        if i % 3 == 0 {
            pg.remove_edge_by_id(id);
        }
    }
    assert_executor_matches(
        &pg,
        &queries,
        &format!("after tombstones (seeds {WORKLOAD_SEED:#x}, {TOMBSTONE_SEED:#x})"),
    );
}
