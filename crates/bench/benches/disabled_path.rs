//! A/B probe for the disabled-profiling claim: planned evaluation through
//! entry points that exist both before and after the profiling hook was
//! added, so the same bench source compiled against both trees measures
//! the disabled path's overhead directly (EXPERIMENTS.md "Profiling
//! overhead" records the method — interleaved min-of-N against a worktree
//! at the parent commit, with a codegen-units=1 control). Not run in CI
//! (it needs a second tree to compare against); `profile_overhead` is the
//! self-contained benchmark.

use s3pg::query_translate;
use s3pg_bench::experiments::{accuracy_context, Dataset, Scale};
use s3pg_query::{cypher, sparql};
use s3pg_workloads::generate_queries;
use std::hint::black_box;
use std::time::{Duration, Instant};

const ITERS: usize = 200;

fn mean<R>(mut f: impl FnMut() -> R) -> Duration {
    for _ in 0..10 {
        black_box(f());
    }
    let mut total = Duration::ZERO;
    for _ in 0..ITERS {
        let t = Instant::now();
        black_box(f());
        total += t.elapsed();
    }
    total / ITERS as u32
}

fn main() {
    let cx = accuracy_context(Dataset::DBpedia2022, Scale(0.15));
    let graph = &cx.prepared.generated.graph;
    let queries = generate_queries(&cx.prepared.generated.meta, 1);
    let params = cypher::Params::default();

    let mut cy_total = Duration::ZERO;
    let mut sp_total = Duration::ZERO;
    for (qi, q) in queries.iter().enumerate() {
        let sparql_q = sparql::parse(&q.sparql).unwrap();
        let cypher_q = cypher::parse(
            &query_translate::translate_str(&q.sparql, &cx.s3pg.schema.mapping).unwrap(),
        )
        .unwrap();
        let plan = cypher::plan(&cx.s3pg.pg, &cypher_q);
        let cy = mean(|| {
            cypher::evaluate_planned_params(&cx.s3pg.pg, &cypher_q, &plan, &params, 1).unwrap()
        });
        let sp = mean(|| sparql::evaluate_outcome(graph, &sparql_q).unwrap());
        println!("cypher/q{qi}: {}ns", cy.as_nanos());
        println!("sparql/q{qi}: {}ns", sp.as_nanos());
        cy_total += cy;
        sp_total += sp;
    }
    println!("cypher/total: {}ns", cy_total.as_nanos());
    println!("sparql/total: {}ns", sp_total.as_nanos());
}
