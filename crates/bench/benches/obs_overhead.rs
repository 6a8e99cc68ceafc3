//! Observability overhead: the full transform pipeline with the tracer
//! disabled vs enabled (every phase span recording into the ring), plus
//! the raw cost of the individual obs primitives. The acceptance bar for
//! the tracing layer is < 3% end-to-end overhead.

use s3pg::pipeline::transform;
use s3pg::Mode;
use s3pg_bench::experiments::{prepare, Dataset, Scale};
use s3pg_bench::timing::{bench, section};
use s3pg_obs::tracer;
use std::hint::black_box;
use std::time::{Duration, Instant};

const SCALE: Scale = Scale(0.3);
const ITERS: usize = 12;

/// Mean wall-clock of `f` over [`ITERS`] runs (after one warm-up).
fn mean<R>(mut f: impl FnMut() -> R) -> Duration {
    black_box(f());
    let mut total = Duration::ZERO;
    for _ in 0..ITERS {
        let t = Instant::now();
        black_box(f());
        total += t.elapsed();
    }
    total / ITERS as u32
}

fn main() {
    let prepared = prepare(Dataset::DBpedia2022, SCALE);
    let graph = &prepared.generated.graph;
    let run = || transform(graph, &prepared.shapes, Mode::Parsimonious);

    section("obs/transform_overhead");
    tracer().set_enabled(false);
    let disabled = mean(run);
    tracer().set_enabled(true);
    let enabled = mean(|| {
        // A live root span, as `s3pg-convert --trace-out` opens one, so
        // every `span_here` in the pipeline takes its recording path.
        let trace = tracer().new_trace();
        let _root = tracer().span(trace, "convert");
        run()
    });
    tracer().set_enabled(false);
    let overhead = (enabled.as_secs_f64() / disabled.as_secs_f64() - 1.0) * 100.0;
    println!(
        "transform ({} triples): disabled {disabled:?}, enabled {enabled:?}",
        graph.len()
    );
    println!("tracing overhead: {overhead:+.2}% (acceptance bar: < 3%)");

    section("obs/primitives");
    let registry = s3pg_obs::Registry::new();
    let counter = registry.counter("bench_total");
    bench("counter_inc x1000", || {
        for _ in 0..1000 {
            counter.inc();
        }
    });
    let histogram = registry.histogram("bench_micros");
    bench("histogram_record x1000", || {
        for i in 0..1000u64 {
            histogram.record_micros(i);
        }
    });
    tracer().set_enabled(true);
    bench("span_begin_end x1000", || {
        let trace = tracer().new_trace();
        let _root = tracer().span(trace, "root");
        for _ in 0..1000 {
            let _s = tracer().span_here("leaf");
        }
    });
    tracer().set_enabled(false);
    bench("span_here_disabled x1000", || {
        for _ in 0..1000 {
            let _s = tracer().span_here("leaf");
        }
    });
    bench("registry_expose", || registry.expose());
}
