//! `convert`: the paper's Table 4 path and the server's cold start, run
//! in-process with `threads = 1`. N-Triples text + SHACL Turtle →
//! `parse_ntriples` → `transform_with` (F_st, F_dt phase 1/2,
//! conformance) → `CompactGraph::freeze` → `wal::write_checkpoint`.
//! `rdf`, `shacl`, `s3pg`, `pg` and `wal` do all the work; `query`,
//! `server` and `bolt` none.

use crate::inputs::{generate_inputs, Inputs};
use crate::ledger::pipeline_layers;
use crate::replay::{convert_once, Phases};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::{finish_trace, RunArgs, SCALE_LARGE, SETUP_REPEATS};
use std::time::{Duration, Instant};

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let scratch = crate::wire::Scratch::new(&args.bench_root, "convert")?;
    let checkpoints = scratch.join("checkpoints");
    std::fs::create_dir_all(&checkpoints).map_err(|e| format!("{}: {e}", checkpoints.display()))?;

    // Set-up is making the inputs: generate the graph and its shapes and
    // serialise both to the text the pipeline starts from.
    let mut setups = Vec::new();
    let mut inputs: Option<Inputs> = None;
    for _ in 0..SETUP_REPEATS {
        let started = Instant::now();
        inputs = Some(generate_inputs(SCALE_LARGE));
        setups.push(started.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("SETUP_REPEATS >= 1");
    outcome.set_timing("setup_s", &setups)?;
    let triples = inputs.triples() as f64;

    let mut tracer = Tracer::new(args.trace);
    let mut iterations = Vec::new();
    let mut loads = Vec::new();
    let mut phases: Vec<Phases> = Vec::new();
    let mut first_shape: Option<(usize, usize, usize)> = None;
    let mut bytes_per_triple = 0.0;
    let window = Instant::now();
    while window.elapsed().as_secs_f64() < args.seconds {
        let seq = iterations.len() as u64 + 1;
        let root = tracer.enter("convert.iteration");
        let started = Instant::now();
        let converted = convert_once(&mut tracer, &inputs, &checkpoints, seq);
        let elapsed = started.elapsed();
        tracer.exit(root);
        outcome.attempted += 1;
        let converted = match converted {
            Ok(c) => c,
            Err(e) => {
                outcome.fail(1, || format!("iteration {seq}: {e}"));
                continue;
            }
        };
        iterations.push(elapsed);
        loads.push(converted.load);
        phases.push(converted.phases);

        // Off the clock: the outputs must conform, repeat exactly, and —
        // once — invert back to the input graph (M(F_dt(G)) = G).
        let shape = (
            converted.rdf.len(),
            converted.out.pg.node_count(),
            converted.out.pg.edge_count(),
        );
        let first = *first_shape.get_or_insert(shape);
        if !converted.out.conformance.conforms() {
            outcome.fail(1, || {
                format!("iteration {seq}: PG does not conform to S_PG")
            });
        } else if shape != first || shape.0 != inputs.triples() {
            outcome.fail(1, || {
                format!("iteration {seq}: sizes {shape:?}, first {first:?}")
            });
        } else if seq == 1 {
            match s3pg::inverse::recover_graph(&converted.out.pg, &converted.out.schema.mapping) {
                Ok(back) if back.same_triples(&inputs.dataset.graph) => {}
                Ok(_) => outcome.fail(1, || "M(F_dt(G)) differs from G".to_string()),
                Err(e) => outcome.fail(1, || format!("inverse mapping failed: {e}")),
            }
            let deep = converted.rdf.deep_size_bytes()
                + converted.out.pg.deep_size_bytes()
                + converted.compact.deep_size_bytes();
            bytes_per_triple = deep as f64 / triples;
            outcome.exact = vec![
                ("triples", shape.0 as u64),
                ("nodes", shape.1 as u64),
                ("edges", shape.2 as u64),
                ("deep_bytes", deep as u64),
                ("ntriples_bytes", inputs.ntriples.len() as u64),
            ];
        }
    }
    if iterations.is_empty() {
        return Err("no convert iteration completed".into());
    }
    // The last checkpoint on disk must be the one just written, intact.
    match s3pg_wal::load_latest(&checkpoints) {
        Ok(Some(cp))
            if cp.seq == outcome.attempted && cp.rdf == inputs.ntriples && cp.compact.is_some() => {
        }
        Ok(_) => outcome.fail(1, || {
            "checkpoint on disk is not the last one written".into()
        }),
        Err(e) => outcome.fail(1, || format!("checkpoint unreadable: {e}")),
    }

    let busy: f64 = iterations.iter().map(Duration::as_secs_f64).sum();
    let micros = |d: &Duration| d.as_secs_f64() * 1e6;
    outcome.set("ops_per_s", triples * iterations.len() as f64 / busy);
    outcome.set_timing("p50_us", &iterations.iter().map(micros).collect::<Vec<_>>())?;
    outcome.set_timing("p50_b_us", &loads.iter().map(micros).collect::<Vec<_>>())?;
    outcome.set("mem_bytes_per_triple", bytes_per_triple);
    outcome.notes.push(format!(
        "convert: G({SCALE_LARGE}) = {} triples, {:.1} MB N-Triples, {} iterations, threads = 1",
        inputs.triples(),
        inputs.ntriples.len() as f64 / 1e6,
        iterations.len()
    ));

    if args.trace {
        let (attributed, total) = pipeline_layers(
            &mut outcome,
            tracer.spans(),
            "convert.iteration",
            &phases,
            inputs.ntriples.len(),
        );
        outcome.layer("unattributed_share", (total - attributed) / total);
        outcome.notes.push(format!(
            "ledger: iteration {total:.4} s = attributed {attributed:.4} s + unattributed {:.4} s",
            total - attributed
        ));
        finish_trace(args, &mut outcome, tracer)?;
    }
    Ok(outcome)
}
