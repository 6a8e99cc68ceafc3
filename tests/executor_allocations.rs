//! Allocation budget of the Cypher executor's row kernels: a query's
//! heap allocations must not grow with the rows it reads.
//!
//! Each query runs on the skew graph at two scales, `0.3` and `1.2`
//! (4× the `linksTo` edges), on the frozen and the mutable forms, under a
//! counting global allocator. The queries are the benchmark's hot
//! `read-analytic` shapes: `edge-minmax` (a filter and an ungrouped
//! `count`/`min`/`max`), `hub-topk` (a probe, a string filter and a top-K)
//! and a grouped aggregate whose group count does not depend on the scale.
//! A per-row allocation (an owned property read, a cloned parameter, a
//! rendered group key) costs thousands of allocations at the larger scale;
//! what may grow is the logarithmic doubling of the operators' `Vec`s and
//! of the top-K's admitted rows, well inside [`SLACK`].

use s3pg::pipeline::transform;
use s3pg::Mode;
use s3pg_pg::{PgRead, PropertyGraph, Value};
use s3pg_query::cypher;
use s3pg_shacl::extract_shapes;
use s3pg_workloads::skew::{self, generate_skewed};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the calling thread's allocations; frees are not counted.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread being torn down still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Seed of the skew generator.
const SKEW_SEED: u64 = 0xA11C;

/// How many more allocations the 4× graph may cost: `Vec` doubling in
/// the seed, expand and filter operators, and the top-K's extra admitted
/// rows.
const SLACK: u64 = 48;

const LINKS: &str = "(s:Source)-[:linksTo]->(t:Target)";

fn queries() -> Vec<(&'static str, String, cypher::Params)> {
    let hub = format!("{}s0", skew::NAMESPACE);
    vec![
        (
            "edge-minmax",
            format!(
                "MATCH {LINKS} WHERE t.rank > $r RETURN count(*) AS n, min(t.rank) AS lo, max(t.rank) AS hi"
            ),
            [("r".to_string(), Value::Int(50_000))].into_iter().collect(),
        ),
        (
            "hub-topk",
            format!("MATCH {LINKS} WHERE s.iri = $hub RETURN t.rank ORDER BY t.rank DESC LIMIT 10"),
            [("hub".to_string(), Value::String(hub))]
                .into_iter()
                .collect(),
        ),
        (
            "grouped-count",
            format!(
                "MATCH {LINKS} RETURN t.rank > $r AS high, count(t) AS n, sum(t.rank) AS total"
            ),
            [("r".to_string(), Value::Int(50_000))].into_iter().collect(),
        ),
    ]
}

fn transformed(scale: f64) -> PropertyGraph {
    let skewed = generate_skewed(scale, SKEW_SEED);
    let shapes = extract_shapes(&skewed.graph);
    transform(&skewed.graph, &shapes, Mode::Parsimonious).pg
}

/// Allocations of one planned evaluation, plus the rows it read (the
/// `linksTo` edges) and its answer.
fn measure<G: PgRead>(pg: &G, text: &str, params: &cypher::Params) -> (u64, cypher::Rows) {
    let q = cypher::parse(text).unwrap();
    let plan = cypher::plan(pg, &q);
    let before = ALLOCATIONS.with(Cell::get);
    let rows = cypher::evaluate_planned_params(pg, &q, &plan, params, 1).unwrap();
    let allocations = ALLOCATIONS.with(Cell::get) - before;
    let scan = cypher::evaluate_scan_params(pg, &q, params).unwrap();
    assert_eq!(rows, scan, "{text}: executor != scan");
    (allocations, rows)
}

fn check_form<G: PgRead>(small: &G, large: &G, form: &str) {
    for (name, text, params) in queries() {
        let (a_small, _) = measure(small, &text, &params);
        let (a_large, rows) = measure(large, &text, &params);
        assert!(!rows.is_empty(), "{name} on {form}: no rows");
        println!("{name} on {form}: {a_small} allocations at scale 0.3, {a_large} at 1.2");
        assert!(
            a_large <= a_small + SLACK,
            "{name} on {form}: {a_small} allocations at scale 0.3 but {a_large} at 1.2 \
             (seed {SKEW_SEED:#x}): the executor allocates per row"
        );
    }
}

#[test]
fn executor_allocations_do_not_grow_with_rows() {
    let small = transformed(0.3);
    let large = transformed(1.2);
    let links = |pg: &PropertyGraph| pg.nodes_with_label("Source").len();
    assert_eq!(links(&large), 4 * links(&small), "scales are not 4× apart");
    check_form(&small.freeze(), &large.freeze(), "compact");
    check_form(&small, &large, "mutable");
}
