//! Differential gate for the batched columnar operators of
//! `crates/query/src/vectorized.rs`, which the one Cypher executor runs
//! over either snapshot form: on the frozen [`CompactGraph`], the same
//! snapshot after a round trip through its binary codec, and the mutable
//! `PropertyGraph` it was frozen from, every query must answer with the
//! same row multiset as the scan oracle (`evaluate_scan`), and the two
//! compact forms bit-identically — on a pristine transform, after
//! tombstone-heavy mutation (the mutable form's adjacency rows then hold
//! tombstones the operators must skip), and after re-growth.
//!
//! Alongside the translated workload queries, the set covers the
//! vectorized edge cases: a label absent from the dictionary (empty
//! postings run), an always-false predicate (every row filtered, empty
//! selection vector), and multi-hop traversal under a property filter
//! (selection vectors threaded through consecutive gathers). Every
//! failure message names the xorshift seeds its graph came from.
//!
//! [`CompactGraph`]: s3pg_pg::CompactGraph

#[allow(dead_code)]
#[path = "support/executor.rs"]
mod support;

use s3pg_pg::Value;
use s3pg_rdf::rng::XorShiftRng;
use support::{
    assert_executor_matches, plain, transformed_workload, workload_queries, TOMBSTONE_SEED,
    WORKLOAD_SEED,
};

#[test]
fn vectorized_matches_references_on_pristine_transform() {
    let (generated, out) = transformed_workload();
    let queries = workload_queries(&generated, &out);
    assert_executor_matches(
        &out.pg,
        &queries,
        &format!("pristine (seed {WORKLOAD_SEED:#x})"),
    );
}

#[test]
fn vectorized_matches_references_after_tombstone_heavy_mutation() {
    let (generated, out) = transformed_workload();
    let queries = workload_queries(&generated, &out);
    let mut pg = out.pg;

    // Deterministically drop a third of the edges, then tombstone nodes
    // (those left without live edges), strip properties and labels: the
    // mutable form's adjacency rows now hold tombstones the executor must
    // skip, and the frozen form must renumber the survivors.
    let edge_ids: Vec<_> = pg.edge_ids().collect();
    for (i, id) in edge_ids.into_iter().enumerate() {
        if i % 3 == 0 {
            pg.remove_edge_by_id(id);
        }
    }
    let mut rng = XorShiftRng::seed_from_u64(TOMBSTONE_SEED);
    let ids: Vec<_> = pg.node_ids().collect();
    for id in ids {
        match rng.choose_index(6).unwrap() {
            0 | 1 => {
                pg.remove_node(id);
            }
            2 => {
                if let Some((key, _)) = pg.node(id).props.first() {
                    let key = pg.resolve(*key).to_string();
                    pg.remove_prop(id, &key);
                }
            }
            3 => {
                if let Some(label) = pg.labels_of(id).first().map(|l| l.to_string()) {
                    pg.remove_label(id, &label);
                }
            }
            _ => {}
        }
    }
    let ctx = format!("tombstoned (seeds {WORKLOAD_SEED:#x}, {TOMBSTONE_SEED:#x})");
    assert_executor_matches(&pg, &queries, &ctx);

    // Re-growth after the tombstones lands in the next freeze and in the
    // mutable form's existing rows.
    let survivors: Vec<_> = pg.node_ids().take(8).collect();
    for &id in &survivors {
        pg.set_prop(id, "readd", Value::String("back".into()));
    }
    for pair in survivors.windows(2) {
        pg.add_edge(pair[0], pair[1], "regrown");
    }
    let ctx = format!("re-grown (seeds {WORKLOAD_SEED:#x}, {TOMBSTONE_SEED:#x})");
    let mut regrown = queries;
    regrown.push(plain(
        "MATCH (a)-[:regrown]->(b) RETURN a.iri, b.readd".to_string(),
    ));
    assert_executor_matches(&pg, &regrown, &ctx);
}
