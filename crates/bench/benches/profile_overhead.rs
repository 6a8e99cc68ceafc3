//! Profiling overhead: planned query evaluation with the per-operator
//! profiler disabled vs enabled, on both engines. The disabled path is
//! the production default — every stage boundary tests one `Option` and
//! does nothing else — so its cost over the pre-profiling evaluator is
//! structurally a handful of predictable branches per query; the number
//! that matters operationally is the *enabled* cost, since `PROFILE` runs
//! share the worker pool with regular traffic. The acceptance bar for the
//! disabled path is < 3% end-to-end overhead (same bar as tracing).
//!
//! ```text
//! cargo bench --bench profile_overhead -- [--scale F]
//! ```

use s3pg::query_translate;
use s3pg_bench::experiments::{accuracy_context, Dataset, Scale};
use s3pg_bench::timing::section;
use s3pg_query::profile::ProfSink;
use s3pg_query::{cypher, sparql};
use s3pg_workloads::generate_queries;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ITERS: usize = 30;

/// Mean wall-clock of `f` over [`ITERS`] runs (after two warm-ups).
fn mean<R>(mut f: impl FnMut() -> R) -> Duration {
    black_box(f());
    black_box(f());
    let mut total = Duration::ZERO;
    for _ in 0..ITERS {
        let t = Instant::now();
        black_box(f());
        total += t.elapsed();
    }
    total / ITERS as u32
}

fn report(name: &str, disabled: Duration, enabled: Duration) {
    let overhead = (enabled.as_secs_f64() / disabled.as_secs_f64() - 1.0) * 100.0;
    println!("{name}: disabled {disabled:?}, enabled {enabled:?} ({overhead:+.2}%)");
}

fn main() {
    let mut scale = 0.15f64;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        if arg == "--scale" {
            if let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) {
                scale = v;
            }
        }
    }

    let cx = accuracy_context(Dataset::DBpedia2022, Scale(scale));
    let graph = &cx.prepared.generated.graph;
    let queries = generate_queries(&cx.prepared.generated.meta, 1);
    let params = cypher::Params::default();
    let sparql_params = sparql::Params::default();

    section("profile/query_overhead");
    let mut cy_disabled = Duration::ZERO;
    let mut cy_enabled = Duration::ZERO;
    let mut sp_disabled = Duration::ZERO;
    let mut sp_enabled = Duration::ZERO;
    for q in &queries {
        let sparql_q = sparql::parse(&q.sparql).unwrap();
        let cypher_q = cypher::parse(
            &query_translate::translate_str(&q.sparql, &cx.s3pg.schema.mapping).unwrap(),
        )
        .unwrap();
        let plan = cypher::plan(&cx.s3pg.pg, &cypher_q);
        let name = q.category.name();

        let disabled = mean(|| {
            cypher::evaluate_planned_params(&cx.s3pg.pg, &cypher_q, &plan, &params, 1).unwrap()
        });
        let enabled = mean(|| {
            let sink = ProfSink::new();
            cypher::evaluate_planned_profiled(&cx.s3pg.pg, &cypher_q, &plan, &params, 1, &sink)
                .unwrap()
        });
        report(&format!("cypher/{name}"), disabled, enabled);
        cy_disabled += disabled;
        cy_enabled += enabled;

        let disabled = mean(|| {
            sparql::evaluate_outcome_threads_params(graph, &sparql_q, &sparql_params, 1).unwrap()
        });
        let enabled = mean(|| {
            let sink = ProfSink::new();
            sparql::evaluate_outcome_profiled(graph, &sparql_q, &sparql_params, &sink).unwrap()
        });
        report(&format!("sparql/{name}"), disabled, enabled);
        sp_disabled += disabled;
        sp_enabled += enabled;
    }
    println!();
    report("cypher/total", cy_disabled, cy_enabled);
    report("sparql/total", sp_disabled, sp_enabled);

    // The raw cost of the sink itself: what one recorded stage boundary
    // pays when profiling is on (a mutex lock + hash-map upsert).
    section("profile/primitives");
    let sink = ProfSink::new();
    let record = mean(|| {
        for i in 0..1000u64 {
            sink.record("bench.op", i, Duration::from_micros(1));
        }
    });
    println!("sink_record x1000: {record:?}");
}
