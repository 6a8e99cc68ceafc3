//! Differential gate for the batch pipeline of `crates/query/src/morsel.rs`
//! on its six shaping queries: on a transform-shaped graph (multi-label
//! nodes, mixed properties) the pipeline must answer the cartesian,
//! grouped-aggregate, `DISTINCT`, top-K and `UNION ALL` queries with the
//! same row multiset as the row-at-a-time scan interpreter
//! (`evaluate_scan`) on the frozen, codec-roundtripped and mutable forms.
//! The same queries run inside the full workload set of
//! `vectorized_differential.rs`, pristine and after tombstones; this gate
//! keeps them on their own so a failure names the shaping query directly.
//! Every failure message names the xorshift seed its graph came from.

#[allow(dead_code)]
#[path = "support/executor.rs"]
mod support;

use s3pg_pg::PropertyGraph;
use support::{
    assert_executor_matches, busiest_labels, plain, transformed_workload, Query, WORKLOAD_SEED,
};

/// The shaping query set: two cartesian products (one under a top-K
/// `ORDER BY … LIMIT`), single-label aggregates, `DISTINCT` and
/// `UNION ALL`.
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
