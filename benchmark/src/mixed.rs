//! `mixed`: reads and durable writes contending for one store, then a
//! crash and restarts.
//!
//! Over `G(SCALE_SMALL)` with `--checkpoint-every 32`: one open-loop
//! writer posts deltas of new entities on a fixed schedule (latency
//! timed from each due instant, generator lateness reported) beside one
//! closed-loop reader running the analytic templates over the skew
//! subgraph, which the deltas never touch. Reads fall back to the mutable
//! graph in every publish→freeze window and contend with the writer's
//! conformance check and two full clones, so a read gain that costs
//! writes (or the reverse) shows. The server is killed with `kill -9`
//! right after the last acknowledgement and restarted from fresh copies
//! of its WAL directory; every acknowledged delta's marker must be served
//! before a restart counts as recovered.

use crate::inputs::{delta_stream, Delta};
use crate::ledger::{recover_layers, write_layers};
use crate::oracle::marker_request;
use crate::oracle::Oracle;
use crate::reads::{
    build_engine, class_micros, drive, exact_counts, finish_replay, ops_per_second,
    plan_cache_line, replay_reads, stage, template_notes, verify, wire_mean_us, Encoded, Listener,
    ReplayLeg, Staged,
};
use crate::replay::{convert_once, recover_once, ReadEngine, WriteEngine};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::Summary;
use crate::templates::{self, connection_rng, Class};
use crate::wire::{copy_dir, decode_json, request_line, JsonConn, Server};
use crate::{finish_trace, RunArgs, SCALE_SMALL, SETUP_REPEATS};
use s3pg_server::protocol::{Request, Response};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The writer's schedule: one delta every 250 ms, whatever the server does.
pub const UPDATES_PER_SECOND: f64 = 4.0;
const CHECKPOINT_EVERY: u64 = 32;

/// When update `i` of an open-loop schedule is due, as an offset from the
/// schedule's start.
pub fn due_offset(i: usize) -> Duration {
    Duration::from_secs_f64(i as f64 / UPDATES_PER_SECOND)
}

/// Open-loop accounting for one update: how late the generator sent it,
/// and its latency **from the due instant** — so a stall charges the
/// updates queued behind it, not just the one that stalled.
pub fn account(due: Duration, sent: Duration, acked: Duration) -> (Duration, Duration) {
    (sent.saturating_sub(due), acked.saturating_sub(due))
}

#[derive(Default)]
struct WriteLog {
    latency_ms: Vec<f64>,
    lateness_ms: Vec<f64>,
    /// Indices of the deltas the server acknowledged.
    acked: Vec<usize>,
    errors: Vec<String>,
    /// The server's counters, scraped in the idle gap before the last
    /// delta (after it there is no server left to ask).
    counters: Vec<(String, f64)>,
}

fn write(server: &Server, deltas: &[Delta], ready: &Barrier, stop: &AtomicBool) -> WriteLog {
    let mut log = WriteLog::default();
    let lines: Vec<Vec<u8>> = deltas
        .iter()
        .map(|d| {
            request_line(&Request::Update {
                additions: d.additions.clone(),
                deletions: d.deletions.clone(),
            })
        })
        .collect();
    let mut conn = JsonConn::connect(&server.addr);
    ready.wait();
    let start = Instant::now();
    let mut raw = Vec::new();
    for (i, line) in lines.iter().enumerate() {
        if i + 1 == lines.len() {
            log.counters = server.counters().unwrap_or_default();
        }
        let due = due_offset(i);
        if let Some(wait) = due.checked_sub(start.elapsed()) {
            std::thread::sleep(wait);
        }
        let sent = start.elapsed();
        let exchanged = match conn.as_mut() {
            Ok(conn) => conn.exchange(line, &mut raw).map(|_| ()),
            Err(e) => Err(e.clone()),
        };
        let (lateness, latency) = account(due, sent, start.elapsed());
        log.lateness_ms.push(lateness.as_secs_f64() * 1e3);
        match exchanged.and_then(|()| decode_json(&raw)) {
            Ok(Response::Update { conforms: true, .. }) => {
                log.latency_ms.push(latency.as_secs_f64() * 1e3);
                log.acked.push(i);
            }
            Ok(Response::Update { .. }) => {
                log.acked.push(i);
                log.errors
                    .push(format!("delta {i}: PG no longer conforms to S_PG"));
            }
            Ok(other) => log.errors.push(format!("delta {i}: {other:?}")),
            Err(e) => {
                log.errors.push(format!("delta {i}: {e}"));
                conn = JsonConn::connect(&server.addr);
            }
        }
    }
    stop.store(true, Ordering::SeqCst);
    log
}

pub fn run(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut staged = stage(args, SCALE_SMALL, Some(CHECKPOINT_EVERY))?;
    let mix = templates::mixed_reads(&staged.inputs);
    mix.validate()?;
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let count = (UPDATES_PER_SECOND * seconds).ceil() as usize;
    let deltas = delta_stream(&staged.inputs, args.seed, count);

    // Traced runs replay reads and writes in-process first, on a clean
    // heap (see `replay_reads`); recovery is replayed after the crash it
    // recovers from.
    let replayed = if args.trace {
        let (tracer, converted) = build_engine(&mut outcome, &staged)?;
        let mut engine = ReadEngine::new(converted);
        let legs = [ReplayLeg {
            mix: &mix,
            listener: Listener::Json,
            class: None,
            share: 1.0,
        }];
        let budget = Duration::from_secs_f64(args.seconds / 8.0);
        let mut replayed =
            replay_reads(&mut outcome, tracer, &mut engine, args.seed, &legs, budget);
        drop(engine);
        replayed
            .tracer
            .absorb(replay_writes(&mut outcome, &staged, &deltas)?);
        Some(replayed)
    } else {
        None
    };
    let mut oracle = Oracle::build(&staged.inputs)?;

    let live = staged.scratch.join("wal-live");
    staged.spec.wal_dir = live.clone();
    let server = Server::spawn(&staged.spec)?;
    let cold_start = server.startup;

    let encoded = Encoded::new(&mix, Listener::Json);
    let ready = Barrier::new(3);
    let stop = AtomicBool::new(false);
    let (reads, writes, elapsed, rss) = std::thread::scope(|scope| {
        let (server, mix, encoded, ready, stop, deltas) =
            (&server, &mix, &encoded, &ready, &stop, &deltas);
        let rng = connection_rng(args.seed, 0);
        let reader = scope
            .spawn(move || drive(server, Listener::Json, mix, None, encoded, rng, ready, stop));
        let writer = scope.spawn(move || write(server, deltas, ready, stop));
        ready.wait();
        let started = Instant::now();
        let writes = writer.join().expect("writer thread panicked");
        let elapsed = started.elapsed();
        let rss = server.peak_rss_bytes();
        // `kill -9` immediately after the last acknowledgement: nothing
        // gets to flush on the way out. (The reader's in-flight request
        // dies with the server; `drive` does not count errors once `stop`
        // is raised.)
        server.kill();
        let reads = vec![reader.join().expect("reader thread panicked")];
        (reads, writes, elapsed, rss)
    });

    if writes.latency_ms.is_empty() {
        return Err(format!(
            "no update was acknowledged: {}",
            writes
                .errors
                .first()
                .map_or("no error recorded", String::as_str)
        ));
    }
    let class_b: Vec<f64> = writes.latency_ms.iter().map(|ms| ms * 1e3).collect();
    let class_a = class_micros(&mix, &reads, Class::A);
    outcome.set("ops_per_s", ops_per_second(&reads, elapsed));
    outcome.set_timing("p50_us", &class_a)?;
    outcome.set_timing("p50_b_us", &class_b)?;
    outcome.set(
        "mem_bytes_per_triple",
        rss? as f64 / staged.inputs.triples() as f64,
    );

    let wire = verify(&mut outcome, &mix, &reads, &oracle);
    outcome.exact = exact_counts(&staged.inputs, &mix);
    outcome.exact.push(("deltas", deltas.len() as u64));
    outcome.exact.push((
        "delta_bytes",
        deltas
            .iter()
            .map(|d| (d.additions.len() + d.deletions.len()) as u64)
            .sum(),
    ));
    outcome.attempted += deltas.len() as u64;
    for e in &writes.errors {
        outcome.fail(1, || format!("update: {e}"));
    }
    template_notes(&mut outcome, &mix, &reads);

    // Recovery: restart from fresh copies of what the killed server left.
    for i in &writes.acked {
        oracle.apply(&deltas[*i])?;
    }
    let mut recoveries = Vec::new();
    for round in 0..SETUP_REPEATS {
        let copy = staged.scratch.join(format!("wal-recover-{round}"));
        copy_dir(&live, &copy).map_err(|e| format!("copy WAL: {e}"))?;
        staged.spec.wal_dir = copy;
        let started = Instant::now();
        let restarted = Server::spawn(&staged.spec)?;
        let mut conn = JsonConn::connect(&restarted.addr)?;
        for i in &writes.acked {
            let request = marker_request(&deltas[*i]);
            outcome.attempted += 1;
            match conn.call(&request) {
                Ok(response) => {
                    if let Some(wrong) = oracle.check(&request, &response) {
                        outcome.fail(1, || {
                            format!("restart {round}: acked delta {i} unreadable: {wrong}")
                        });
                    }
                }
                Err(e) => outcome.fail(1, || format!("restart {round}: delta {i}: {e}")),
            }
        }
        recoveries.push(started.elapsed().as_secs_f64());
        drop(restarted);
    }
    outcome.set_timing("setup_s", &recoveries)?;

    let lateness = Summary::of(&writes.lateness_ms);
    let latency = Summary::of(&writes.latency_ms);
    outcome.notes.push(format!(
        "mixed: G({SCALE_SMALL}) = {} triples, 1 reader closed loop + 1 writer open loop at {UPDATES_PER_SECOND}/s, {} deltas ({} acked) in {:.2} s, cold start {:.3} s, {SETUP_REPEATS} restarts after kill -9",
        staged.inputs.triples(),
        deltas.len(),
        writes.acked.len(),
        elapsed.as_secs_f64(),
        cold_start.as_secs_f64()
    ));
    if let (Some(late), Some(lat)) = (lateness, latency) {
        outcome.notes.push(format!(
            "mixed: update latency from due instant p50 {:.1} ms p{} {:.1} ms (n {}); generator lateness p50 {:.3} ms max {:.3} ms",
            lat.p50,
            lat.tail_p,
            lat.tail,
            lat.n,
            late.p50,
            writes.lateness_ms.iter().copied().fold(0.0, f64::max)
        ));
    }
    for (name, value) in &writes.counters {
        if [
            "s3pg_updates_applied_total",
            "s3pg_compactions_total",
            "s3pg_wal_fsyncs_total",
            "s3pg_wal_bytes",
            "s3pg_checkpoints_total",
            "s3pg_compaction_wall_microseconds",
        ]
        .contains(&name.as_str())
        {
            outcome.notes.push(format!(
                "server counter {name} = {value} (before the last delta)"
            ));
        }
        if name == "s3pg_compaction_wall_microseconds" {
            outcome.layer("server.freeze_lag_ms", value / 1e3);
        }
        plan_cache_line(&mut outcome, name, *value);
    }

    if let Some(replayed) = replayed {
        let mean = wire_mean_us(&[&reads[0]]);
        let mut tracer = finish_replay(&mut outcome, replayed, mean, &[&wire]);
        outcome.notes.push(format!(
            "ledger: the wire's update median from the due instant is {:.1} ms",
            latency.map_or(0.0, |l| l.p50)
        ));
        // Recovery, step for step, from a copy of the killed server's WAL.
        let copy = staged.scratch.join("wal-recover-replay");
        copy_dir(&live, &copy).map_err(|e| format!("copy WAL: {e}"))?;
        let mut recover_tracer = Tracer::new(true);
        recover_once(&mut recover_tracer, &staged.inputs, &copy)?;
        recover_layers(&mut outcome, recover_tracer.spans());
        tracer.absorb(recover_tracer);
        finish_trace(args, &mut outcome, tracer)?;
    }
    Ok(outcome)
}

/// The write path, step for step, over a fresh engine and a WAL of the
/// harness's own: every delta of the stream, in order.
fn replay_writes(
    outcome: &mut Outcome,
    staged: &Staged,
    deltas: &[Delta],
) -> Result<Tracer, String> {
    let mut tracer = Tracer::new(true);
    let converted = convert_once(
        &mut Tracer::new(false),
        &staged.inputs,
        &staged.scratch.join("engine"),
        2,
    )?;
    let mut engine = WriteEngine::new(converted, &staged.scratch.join("wal-replay"))?;
    // On a spawned thread, as the server applies updates on a worker.
    std::thread::scope(|scope| {
        let replay = scope.spawn(|| {
            for (i, delta) in deltas.iter().enumerate() {
                outcome.attempted += 1;
                match engine.update(&mut tracer, delta) {
                    Ok(true) => {}
                    Ok(false) => {
                        outcome.fail(1, || format!("replayed delta {i} breaks conformance"))
                    }
                    Err(e) => outcome.fail(1, || format!("replayed delta {i}: {e}")),
                }
            }
        });
        replay.join().expect("write replay thread panicked");
    });
    let foreground = write_layers(outcome, tracer.spans());
    let (fsyncs, wal_bytes) = engine.wal_counts();
    let delta_bytes: usize = deltas
        .iter()
        .map(|d| d.additions.len() + d.deletions.len())
        .sum();
    outcome.layer("wal.fsyncs_per_update", fsyncs as f64 / deltas.len() as f64);
    outcome.layer(
        "wal.bytes_per_delta_byte",
        wal_bytes as f64 / delta_bytes as f64,
    );
    outcome.notes.push(format!(
        "ledger: an update holds its caller {foreground:.1} ms in-process"
    ));
    Ok(tracer)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_latency_runs_from_the_due_instant() {
        let ms = Duration::from_millis;
        // On time: no lateness, latency is the wire time.
        assert_eq!(account(ms(250), ms(250), ms(330)), (ms(0), ms(80)));
        // The previous update stalled for 400 ms, so this one went out
        // 150 ms late: the stall is charged to it from its due instant.
        assert_eq!(account(ms(250), ms(400), ms(480)), (ms(150), ms(230)));
        // A generator running early is never credited.
        assert_eq!(account(ms(250), ms(240), ms(300)), (ms(0), ms(50)));
        assert_eq!(due_offset(0), ms(0));
        assert_eq!(due_offset(6), ms(1500));
    }
}
