//! The three read workloads over `G(SCALE_LARGE)`, and the pieces `mixed`
//! shares with them: preparing inputs and oracle, cold-starting the
//! server, the closed-loop connection driver, answer verification, and
//! the traced in-process replay.
//!
//! Load shape: one generator process, two client threads, one connection
//! each, closed loop (a database client holds a connection and waits for
//! its reply). The server is the real `s3pg-serve` binary.

use crate::inputs::{generate_inputs, Inputs};
use crate::ledger::{pipeline_layers, read_layers};
use crate::oracle::Oracle;
use crate::replay::{convert_once, ReadEngine};
use crate::report::Outcome;
use crate::spans::Tracer;
use crate::stats::Summary;
use crate::templates::{self, connection_rng, Class, Mix, Pick};
use crate::wire::{
    decode_bolt, decode_json, request_line, run_pull_bytes, BoltConn, JsonConn, Scratch, Server,
    ServerSpec,
};
use crate::{finish_trace, RunArgs, SCALE_LARGE, SETUP_REPEATS};
use s3pg_rdf::rng::XorShiftRng;
use s3pg_server::protocol::{Request, Response};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Client connections of a read window.
pub const CONNECTIONS: usize = 2;
/// Untimed requests each connection sends before its window opens, so
/// lazily built state (plan-cache entries, allocator arenas) is in place.
const WARMUP_REQUESTS: usize = 200;
/// Requests the traced replay pushes through the in-process engine.
const REPLAY_REQUESTS: usize = 20_000;
/// Distinct Cypher requests profiled for rows examined per row returned.
const PROFILED_REQUESTS: usize = 64;
/// Differing answers to one request kept per connection for checking.
const MAX_VARIANTS_KEPT: usize = 256;

/// The generated inputs, written where the server will read them, and
/// how to start the server on them.
pub struct Staged {
    pub inputs: Inputs,
    pub scratch: Scratch,
    pub spec: ServerSpec,
}

pub fn stage(args: &RunArgs, scale: f64, checkpoint_every: Option<u64>) -> Result<Staged, String> {
    let scratch = Scratch::new(&args.bench_root, &args.workload)?;
    let inputs = generate_inputs(scale);
    let data = scratch.join("data.nt");
    let shapes = scratch.join("shapes.ttl");
    std::fs::write(&data, &inputs.ntriples).map_err(|e| format!("write data: {e}"))?;
    std::fs::write(&shapes, &inputs.shacl).map_err(|e| format!("write shapes: {e}"))?;
    Ok(Staged {
        spec: ServerSpec {
            binary: args.server_bin.clone(),
            data,
            shapes,
            wal_dir: scratch.join("wal-0"),
            checkpoint_every,
        },
        inputs,
        scratch,
    })
}

/// Cold-start the server `SETUP_REPEATS` times (spawn → first `health`
/// answered, each from an empty WAL directory), report the median as
/// `setup_s`, and keep the last one running.
pub fn cold_starts(outcome: &mut Outcome, staged: &mut Staged) -> Result<Server, String> {
    let mut startups = Vec::new();
    let mut server = None;
    for attempt in 0..SETUP_REPEATS {
        drop(server.take());
        staged.spec.wal_dir = staged.scratch.join(format!("wal-{attempt}"));
        let started = Server::spawn(&staged.spec)?;
        startups.push(started.startup.as_secs_f64());
        server = Some(started);
    }
    outcome.set_timing("setup_s", &startups)?;
    Ok(server.expect("SETUP_REPEATS >= 1"))
}

/// A response as it came off the socket.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Raw {
    Json(Vec<u8>),
    Bolt(Vec<Vec<u8>>),
}

impl Raw {
    pub fn decode(&self) -> Result<Response, String> {
        match self {
            Raw::Json(bytes) => decode_json(bytes),
            Raw::Bolt(payloads) => decode_bolt(payloads),
        }
    }
}

/// What one connection saw during its window.
#[derive(Default)]
pub struct ConnLog {
    /// (request, wire nanoseconds), in issue order.
    pub samples: Vec<(Pick, u64)>,
    /// Requests completed in each whole second since the window opened.
    pub per_second: Vec<u32>,
    /// The first answer to each distinct request.
    pub first: HashMap<Pick, Raw>,
    /// Later answers that differed from the first byte-wise.
    pub variants: Vec<(Pick, Raw)>,
    /// Requests that failed on the wire (I/O error, timeout, close).
    pub errors: Vec<String>,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Listener {
    Json,
    Bolt,
}

/// The bytes each (template, variant) puts on the socket, encoded once,
/// off the clock.
pub struct Encoded(Vec<Vec<Vec<u8>>>);

impl Encoded {
    pub fn new(mix: &Mix, listener: Listener) -> Encoded {
        Encoded(
            mix.templates
                .iter()
                .map(|t| {
                    t.variants
                        .iter()
                        .map(|r| match (listener, r) {
                            (Listener::Bolt, Request::Cypher { .. }) => run_pull_bytes(r),
                            // SPARQL has no Bolt form; never drawn there.
                            (Listener::Bolt, _) => Vec::new(),
                            (Listener::Json, _) => request_line(r),
                        })
                        .collect()
                })
                .collect(),
        )
    }

    pub fn get(&self, pick: Pick) -> &[u8] {
        &self.0[pick.0 as usize][pick.1 as usize]
    }
}

enum Conn {
    Json(JsonConn, Vec<u8>),
    Bolt(BoltConn, Vec<Vec<u8>>),
}

impl Conn {
    fn open(listener: Listener, server: &Server) -> Result<Conn, String> {
        Ok(match listener {
            Listener::Json => Conn::Json(JsonConn::connect(&server.addr)?, Vec::new()),
            Listener::Bolt => Conn::Bolt(BoltConn::connect(&server.bolt_addr)?, Vec::new()),
        })
    }

    /// One exchange; the answer stays in the connection's buffer.
    fn exchange(&mut self, bytes: &[u8]) -> Result<Duration, String> {
        match self {
            Conn::Json(conn, buffer) => conn.exchange(bytes, buffer),
            Conn::Bolt(conn, buffer) => conn.exchange(bytes, buffer),
        }
    }

    fn same_as(&self, raw: &Raw) -> bool {
        match (self, raw) {
            (Conn::Json(_, buffer), Raw::Json(bytes)) => buffer == bytes,
            (Conn::Bolt(_, buffer), Raw::Bolt(payloads)) => buffer == payloads,
            _ => false,
        }
    }

    fn raw(&self) -> Raw {
        match self {
            Conn::Json(_, buffer) => Raw::Json(buffer.clone()),
            Conn::Bolt(_, buffer) => Raw::Bolt(buffer.clone()),
        }
    }
}

/// Drive one closed-loop connection until `stop` is raised: draw, send,
/// time, and (off the clock) file the answer.
#[allow(clippy::too_many_arguments)]
pub fn drive(
    server: &Server,
    listener: Listener,
    mix: &Mix,
    class: Option<Class>,
    encoded: &Encoded,
    mut rng: XorShiftRng,
    ready: &Barrier,
    stop: &AtomicBool,
) -> ConnLog {
    let mut log = ConnLog::default();
    let draw = |rng: &mut XorShiftRng| match class {
        Some(class) => mix.draw_in(class, rng),
        None => mix.draw(rng),
    };
    let mut conn = match Conn::open(listener, server) {
        Ok(conn) => conn,
        Err(e) => {
            log.errors.push(e);
            ready.wait();
            return log;
        }
    };
    for _ in 0..WARMUP_REQUESTS {
        let pick = draw(&mut rng);
        if let Err(e) = conn.exchange(encoded.get(pick)) {
            log.errors.push(format!("warm-up: {e}"));
            break;
        }
    }
    ready.wait();
    let opened = Instant::now();
    while !stop.load(Ordering::Relaxed) {
        let pick = draw(&mut rng);
        match conn.exchange(encoded.get(pick)) {
            Ok(elapsed) => {
                log.samples.push((pick, elapsed.as_nanos() as u64));
                let second = opened.elapsed().as_secs() as usize;
                if log.per_second.len() <= second {
                    log.per_second.resize(second + 1, 0);
                }
                log.per_second[second] += 1;
                match log.first.get(&pick) {
                    Some(first) if conn.same_as(first) => {}
                    Some(_) if log.variants.len() < MAX_VARIANTS_KEPT => {
                        log.variants.push((pick, conn.raw()));
                    }
                    Some(_) => log
                        .errors
                        .push("answer varied more often than is kept".into()),
                    None => {
                        log.first.insert(pick, conn.raw());
                    }
                }
            }
            // A window that is closing may take the server down with it.
            Err(_) if stop.load(Ordering::Relaxed) => break,
            Err(e) => {
                // The connection is in an unknown state: count the
                // failure and reconnect rather than hang or cascade.
                log.errors
                    .push(format!("{}: {e}", mix.templates[pick.0 as usize].name));
                match Conn::open(listener, server) {
                    Ok(fresh) => conn = fresh,
                    Err(_) => break,
                }
            }
        }
    }
    log
}

/// Run `CONNECTIONS` closed-loop connections for `window`; returns their
/// logs and the measured window length.
pub fn window(
    server: &Server,
    listener: Listener,
    mix: &Mix,
    class: Option<Class>,
    seed: u64,
    window: Duration,
) -> (Vec<ConnLog>, Duration) {
    let encoded = Encoded::new(mix, listener);
    let ready = Barrier::new(CONNECTIONS + 1);
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|c| {
                let (encoded, ready, stop) = (&encoded, &ready, &stop);
                let rng = connection_rng(seed, c + 2 * (listener == Listener::Bolt) as usize);
                scope.spawn(move || drive(server, listener, mix, class, encoded, rng, ready, stop))
            })
            .collect();
        ready.wait();
        let started = Instant::now();
        std::thread::sleep(window);
        stop.store(true, Ordering::Relaxed);
        let logs: Vec<ConnLog> = handles
            .into_iter()
            .map(|h| h.join().expect("connection thread panicked"))
            .collect();
        (logs, started.elapsed())
    })
}

/// Check every distinct answer of a window against the oracle, count
/// wire errors, and return per-request decoded first answers.
pub fn verify(
    outcome: &mut Outcome,
    mix: &Mix,
    logs: &[ConnLog],
    oracle: &Oracle,
) -> HashMap<Pick, Response> {
    let mut decoded: HashMap<Pick, Response> = HashMap::new();
    let mut checked: HashMap<Pick, Vec<&Raw>> = HashMap::new();
    for log in logs {
        outcome.attempted += log.samples.len() as u64 + log.errors.len() as u64;
        for e in &log.errors {
            outcome.fail(1, || format!("wire: {e}"));
        }
        // How often each request was issued, to weigh a wrong answer by
        // the operations that received it.
        let mut issued: HashMap<Pick, u64> = HashMap::new();
        for (pick, _) in &log.samples {
            *issued.entry(*pick).or_insert(0) += 1;
        }
        let variants: HashMap<Pick, u64> =
            log.variants.iter().fold(HashMap::new(), |mut m, (p, _)| {
                *m.entry(*p).or_insert(0) += 1;
                m
            });
        let firsts = log
            .first
            .iter()
            .map(|(p, raw)| (*p, raw, issued[p] - variants.get(p).copied().unwrap_or(0)));
        let laters = log.variants.iter().map(|(p, raw)| (*p, raw, 1));
        for (pick, raw, weight) in firsts.chain(laters) {
            let seen = checked.entry(pick).or_default();
            if seen.contains(&raw) {
                continue;
            }
            seen.push(raw);
            let name = mix.templates[pick.0 as usize].name;
            match raw.decode() {
                Ok(response) => {
                    if let Some(wrong) = oracle.check(mix.request(pick), &response) {
                        outcome.fail(weight, || format!("{name}#{}: {wrong}", pick.1));
                    }
                    decoded.entry(pick).or_insert(response);
                }
                Err(e) => outcome.fail(weight, || format!("{name}#{}: undecodable: {e}", pick.1)),
            }
        }
    }
    decoded
}

/// Requests per second over a window: the upper quartile of its whole
/// seconds (counts summed over connections). Interference from outside
/// the benchmark only ever lowers a second's count — on this box two to
/// four seconds in ten of a `read-point` window run 20-40% low, and a
/// plain mean or median moved 12% between identical runs — while
/// anything the system does periodically at the workload's own time scale
/// (the four update cycles a second of `mixed`, with their fallback
/// windows and lock stalls) sits inside every second.
pub fn ops_per_second(logs: &[ConnLog], elapsed: Duration) -> f64 {
    let whole = elapsed.as_secs() as usize;
    let mut seconds: Vec<f64> = (0..whole)
        .map(|s| {
            logs.iter()
                .map(|l| f64::from(l.per_second.get(s).copied().unwrap_or(0)))
                .sum()
        })
        .collect();
    if seconds.is_empty() {
        let total: usize = logs.iter().map(|l| l.samples.len()).sum();
        return total as f64 / elapsed.as_secs_f64();
    }
    seconds.sort_by(f64::total_cmp);
    crate::stats::percentile(&seconds, 75.0)
}

/// What a served run fixes before its window opens: the graph's size and
/// the bytes of every distinct request of the mix.
pub fn exact_counts(inputs: &Inputs, mix: &Mix) -> Vec<(&'static str, u64)> {
    let requests = mix.templates.iter().flat_map(|t| &t.variants);
    vec![
        ("triples", inputs.triples() as u64),
        ("distinct_requests", requests.clone().count() as u64),
        (
            "request_bytes",
            requests.map(|r| r.encode().len() as u64).sum(),
        ),
    ]
}

/// Latencies (µs) of one class across connections.
pub fn class_micros(mix: &Mix, logs: &[ConnLog], class: Class) -> Vec<f64> {
    logs.iter()
        .flat_map(|l| &l.samples)
        .filter(|(pick, _)| mix.templates[pick.0 as usize].class == class)
        .map(|(_, ns)| *ns as f64 / 1e3)
        .collect()
}

/// Per-template medians and tails: the diagnostics behind the mix's
/// declared cost ranks. Never gated.
pub fn template_notes(outcome: &mut Outcome, mix: &Mix, logs: &[ConnLog]) {
    for (i, t) in mix.templates.iter().enumerate() {
        let micros: Vec<f64> = logs
            .iter()
            .flat_map(|l| &l.samples)
            .filter(|(pick, _)| pick.0 as usize == i)
            .map(|(_, ns)| *ns as f64 / 1e3)
            .collect();
        if let Some(s) = Summary::of(&micros) {
            outcome.notes.push(format!(
                "template {:<24} class {:?} rank {} n {:>7} p50 {:>10.1} us p{} {:>10.1} us",
                t.name, t.class, t.cost_rank, s.n, s.p50, s.tail_p, s.tail
            ));
        }
    }
}

/// Add a plan-cache series of the server (one per listener) to the
/// ledger's hit or miss line.
pub fn plan_cache_line(outcome: &mut Outcome, series: &str, count: f64) {
    for (prefix, line) in [
        ("s3pg_plan_cache_hits_total", "server.plan_cache_hits"),
        ("s3pg_plan_cache_misses_total", "server.plan_cache_misses"),
    ] {
        if series.starts_with(prefix) {
            *outcome.per_layer.entry(line).or_insert(0.0) += count;
        }
    }
}

/// Deltas of the server's own counters across a window; any error the
/// server counted is a failed operation.
pub fn counter_notes(outcome: &mut Outcome, before: &[(String, f64)], after: &[(String, f64)]) {
    const WATCHED: [&str; 8] = [
        "s3pg_requests_total",
        "s3pg_request_errors_total",
        "s3pg_plan_cache_hits_total",
        "s3pg_plan_cache_misses_total",
        "s3pg_plan_cache_replans_total",
        "s3pg_compactions_total",
        "s3pg_updates_applied_total",
        "s3pg_wal_fsyncs_total",
    ];
    let old: HashMap<&str, f64> = before.iter().map(|(k, v)| (k.as_str(), *v)).collect();
    for (name, value) in after {
        if !WATCHED.iter().any(|w| name.starts_with(w)) {
            continue;
        }
        let delta = value - old.get(name.as_str()).copied().unwrap_or(0.0);
        if delta == 0.0 {
            continue;
        }
        outcome
            .notes
            .push(format!("server counter {name} +{delta}"));
        // The control connection's own `metrics` calls are not errors, so
        // any counted error belongs to the workload.
        if name.starts_with("s3pg_request_errors_total") {
            outcome.fail(delta as u64, || {
                format!("server counted {delta} errors on {name}")
            });
        }
        plan_cache_line(outcome, name, delta);
    }
}

/// The end-to-end metrics every served read workload derives the same
/// way: requests per second, one median per class, and the server's peak
/// resident memory per triple served.
pub fn read_metrics(
    outcome: &mut Outcome,
    class_a: &[f64],
    class_b: &[f64],
    ops_per_s: f64,
    server: &Server,
    triples: usize,
) -> Result<(), String> {
    outcome.set("ops_per_s", ops_per_s);
    outcome.set_timing("p50_us", class_a)?;
    outcome.set_timing("p50_b_us", class_b)?;
    outcome.set(
        "mem_bytes_per_triple",
        server.peak_rss_bytes()? as f64 / triples as f64,
    );
    Ok(())
}

/// Mean wire latency (µs) over every sample of the given logs.
pub fn wire_mean_us(logs: &[&ConnLog]) -> f64 {
    let (sum, n) = logs
        .iter()
        .flat_map(|l| &l.samples)
        .fold((0.0, 0u64), |(s, n), (_, ns)| (s + *ns as f64, n + 1));
    sum / n.max(1) as f64 / 1e3
}

/// One leg of a traced replay: a mix, the listener it travels over, the
/// class drawn (None = the mix's own split) and its share of the budget.
pub struct ReplayLeg<'a> {
    pub mix: &'a Mix,
    pub listener: Listener,
    pub class: Option<Class>,
    pub share: f64,
}

/// What a traced replay recorded, waiting for the wire window's numbers.
pub struct Replayed {
    /// The engine build's spans (pipeline layers).
    pub tracer: Tracer,
    /// The read path's spans.
    reads: Tracer,
    /// The replay's answer to each distinct request, per leg.
    answers: Vec<HashMap<Pick, Response>>,
}

/// The harness's own engine, built as the server builds its own on a cold
/// start, with a span around each stage.
pub fn build_engine(
    outcome: &mut Outcome,
    staged: &Staged,
) -> Result<(Tracer, crate::replay::Converted), String> {
    let mut tracer = Tracer::new(true);
    let root = tracer.enter("engine.build");
    let converted = convert_once(
        &mut tracer,
        &staged.inputs,
        &staged.scratch.join("engine"),
        1,
    );
    tracer.exit(root);
    let converted = converted?;
    pipeline_layers(
        outcome,
        tracer.spans(),
        "engine.build",
        &[converted.phases],
        staged.inputs.ntriples.len(),
    );
    Ok((tracer, converted))
}

/// Replay the legs' schedules through the engine, untraced and then
/// traced.
///
/// Two things make the replay's timings the server's, both found by
/// holding per-template replay means against wire medians. It runs
/// *before* the oracle is built and the wire window is driven, so the
/// engine sits on a heap as clean as a freshly started server's; and it
/// runs on a spawned thread, as the server's workers do, so a query's
/// temporary buffers come from a thread arena and not from the main
/// arena the graph was built in. Without either, the pointer-chasing
/// templates (IRI-anchored traversals, SPARQL joins) ran 30-80% slower
/// in-process than through the server and the residual came out negative.
pub fn replay_reads(
    outcome: &mut Outcome,
    tracer: Tracer,
    engine: &mut ReadEngine,
    seed: u64,
    legs: &[ReplayLeg<'_>],
    budget: Duration,
) -> Replayed {
    std::thread::scope(|scope| {
        scope
            .spawn(|| replay_reads_here(outcome, tracer, engine, seed, legs, budget))
            .join()
            .expect("replay thread panicked")
    })
}

fn replay_reads_here(
    outcome: &mut Outcome,
    tracer: Tracer,
    engine: &mut ReadEngine,
    seed: u64,
    legs: &[ReplayLeg<'_>],
    budget: Duration,
) -> Replayed {
    // The untraced pass runs first and stops a leg when its share of
    // `budget` is spent; the traced pass then replays exactly as many
    // requests, so the two walls compare like with like.
    let mut counts: Vec<usize> = vec![REPLAY_REQUESTS; legs.len()];
    let mut walls = Vec::new();
    let mut reads = Tracer::new(false);
    let (mut bytes, mut rows) = (0u64, 0u64);
    let mut answers: Vec<HashMap<Pick, Response>> = vec![HashMap::new(); legs.len()];
    // The client's decode of an answer is timed once per distinct request
    // and pass: decoding a wide JSON answer costs tens of milliseconds,
    // and paying that on every request would leave the replay's budget
    // with a few dozen requests.
    let mut decoded: std::collections::HashSet<(usize, Pick)> = Default::default();
    let mut per_template: std::collections::BTreeMap<&str, (u64, f64)> = Default::default();
    for traced in [false, true] {
        engine.reset_cache();
        decoded.clear();
        reads = Tracer::new(traced);
        let started = Instant::now();
        for (l, leg) in legs.iter().enumerate() {
            let encoded = Encoded::new(leg.mix, leg.listener);
            let mut rng = connection_rng(seed, 2 * (leg.listener == Listener::Bolt) as usize);
            let slice = budget.mul_f64(leg.share);
            let leg_started = Instant::now();
            let mut n = 0;
            while n < counts[l] && (traced || leg_started.elapsed() < slice) {
                n += 1;
                let pick = match leg.class {
                    Some(class) => leg.mix.draw_in(class, &mut rng),
                    None => leg.mix.draw(&mut rng),
                };
                let client_decode = decoded.insert((l, pick));
                let op_started = Instant::now();
                let replayed = match leg.listener {
                    Listener::Json => {
                        let line = std::str::from_utf8(encoded.get(pick)).expect("JSON is UTF-8");
                        engine.json_read(&mut reads, line.trim_end(), client_decode)
                    }
                    Listener::Bolt => {
                        engine.bolt_read(&mut reads, encoded.get(pick), client_decode)
                    }
                };
                if !traced {
                    continue;
                }
                outcome.attempted += 1;
                let name = leg.mix.templates[pick.0 as usize].name;
                let e = per_template.entry(name).or_insert((0u64, 0.0f64));
                e.0 += 1;
                e.1 += op_started.elapsed().as_secs_f64() * 1e6;
                match replayed {
                    Ok(replayed) => {
                        bytes += replayed.response_bytes as u64;
                        rows += match &replayed.response {
                            Response::Cypher { rows, .. } | Response::Sparql { rows, .. } => {
                                rows.len() as u64
                            }
                            _ => 0,
                        };
                        answers[l].entry(pick).or_insert(replayed.response);
                    }
                    Err(e) => outcome.fail(1, || format!("replay of {name}#{}: {e}", pick.1)),
                }
            }
            counts[l] = n;
        }
        walls.push(started.elapsed().as_secs_f64());
    }
    for (name, (n, total)) in &per_template {
        outcome.notes.push(format!(
            "replay template {name:<24} n {n:>7} mean {:>10.1} us in-process",
            total / *n as f64
        ));
    }
    outcome.layer("trace.overhead_share", (walls[1] - walls[0]) / walls[0]);
    outcome.layer(
        "server.response_bytes_per_row",
        bytes as f64 / rows.max(1) as f64,
    );
    outcome.notes.push(format!(
        "replay: {} requests untraced in {:.3} s, traced in {:.3} s",
        counts.iter().sum::<usize>(),
        walls[0],
        walls[1]
    ));

    // Rows the operators emitted per row returned, over a sample of the
    // distinct Cypher requests (profiled evaluation, off every clock).
    let (mut examined, mut returned) = (0u64, 0u64);
    let mut profiled = 0;
    'legs: for leg in legs {
        for t in &leg.mix.templates {
            for request in t.variants.iter().take(PROFILED_REQUESTS / 8) {
                if let Some((e, r)) = engine.rows_examined(request) {
                    examined += e;
                    returned += r;
                    profiled += 1;
                    if profiled >= PROFILED_REQUESTS {
                        break 'legs;
                    }
                }
            }
        }
    }
    outcome.layer(
        "query.rows_examined_per_row",
        examined as f64 / returned.max(1) as f64,
    );
    Replayed {
        tracer,
        reads,
        answers,
    }
}

/// Close the read ledger once the wire window has run: the residual
/// against the wire's mean latency, and the replay's answers held against
/// the server's (or the ledger describes some other program).
pub fn finish_replay(
    outcome: &mut Outcome,
    replayed: Replayed,
    wire_mean: f64,
    wire: &[&HashMap<Pick, Response>],
) -> Tracer {
    read_layers(outcome, replayed.reads.spans(), wire_mean);
    for (answers, wire) in replayed.answers.iter().zip(wire) {
        for (pick, answer) in answers {
            if wire.get(pick).is_some_and(|w| w != answer) {
                outcome.fail(1, || {
                    format!("replay of request {pick:?} differs from the wire")
                });
            }
        }
    }
    let mut tracer = replayed.tracer;
    tracer.absorb(replayed.reads);
    tracer
}

/// `read-point` and `read-analytic`: one mix on the JSON listener.
fn run_json_mix(args: &RunArgs, mix_of: impl FnOnce(&Inputs) -> Mix) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut staged = stage(args, SCALE_LARGE, None)?;
    let mix = mix_of(&staged.inputs);
    mix.validate()?;
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let replayed = if args.trace {
        let (tracer, converted) = build_engine(&mut outcome, &staged)?;
        let mut engine = ReadEngine::new(converted);
        let legs = [ReplayLeg {
            mix: &mix,
            listener: Listener::Json,
            class: None,
            share: 1.0,
        }];
        let budget = Duration::from_secs_f64(args.seconds / 4.0);
        Some(replay_reads(
            &mut outcome,
            tracer,
            &mut engine,
            args.seed,
            &legs,
            budget,
        ))
    } else {
        None
    };
    let oracle = Oracle::build(&staged.inputs)?;
    let server = cold_starts(&mut outcome, &mut staged)?;

    let before = server.counters()?;
    let (logs, elapsed) = window(
        &server,
        Listener::Json,
        &mix,
        None,
        args.seed,
        Duration::from_secs_f64(seconds),
    );
    let after = server.counters()?;
    read_metrics(
        &mut outcome,
        &class_micros(&mix, &logs, Class::A),
        &class_micros(&mix, &logs, Class::B),
        ops_per_second(&logs, elapsed),
        &server,
        staged.inputs.triples(),
    )?;
    drop(server);
    let wire = verify(&mut outcome, &mix, &logs, &oracle);
    outcome.exact = exact_counts(&staged.inputs, &mix);
    counter_notes(&mut outcome, &before, &after);
    template_notes(&mut outcome, &mix, &logs);
    outcome.notes.push(format!(
        "{}: G({SCALE_LARGE}) = {} triples, {CONNECTIONS} connections closed loop, {:.2} s window, {} distinct requests checked",
        args.workload,
        staged.inputs.triples(),
        elapsed.as_secs_f64(),
        wire.len()
    ));

    if let Some(replayed) = replayed {
        let mean = wire_mean_us(&logs.iter().collect::<Vec<_>>());
        let tracer = finish_replay(&mut outcome, replayed, mean, &[&wire]);
        finish_trace(args, &mut outcome, tracer)?;
    }
    Ok(outcome)
}

pub fn run_point(args: &RunArgs) -> Result<Outcome, String> {
    run_json_mix(args, |inputs| templates::read_point(inputs, args.seed))
}

pub fn run_analytic(args: &RunArgs) -> Result<Outcome, String> {
    run_json_mix(args, templates::read_analytic)
}

/// `read-wide`: a JSON phase (class A) then a Bolt phase (class B), half
/// the window each.
pub fn run_wide(args: &RunArgs) -> Result<Outcome, String> {
    let mut outcome = Outcome::default();
    let mut staged = stage(args, SCALE_LARGE, None)?;
    let seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let phase = Duration::from_secs_f64(seconds / 2.0);
    // The category queries need F_qt's mapping: the engine's own on a
    // traced run (built first, on a clean heap), the oracle's otherwise.
    let (mix, replayed, oracle) = if args.trace {
        let (tracer, converted) = build_engine(&mut outcome, &staged)?;
        let mix = templates::read_wide(&staged.inputs, &converted.out.schema.mapping);
        let mut engine = ReadEngine::new(converted);
        let legs = [
            ReplayLeg {
                mix: &mix,
                listener: Listener::Json,
                class: Some(Class::A),
                share: 0.5,
            },
            ReplayLeg {
                mix: &mix,
                listener: Listener::Bolt,
                class: Some(Class::B),
                share: 0.5,
            },
        ];
        let budget = Duration::from_secs_f64(args.seconds / 4.0);
        let replayed = replay_reads(&mut outcome, tracer, &mut engine, args.seed, &legs, budget);
        drop(engine);
        (mix, Some(replayed), Oracle::build(&staged.inputs)?)
    } else {
        let oracle = Oracle::build(&staged.inputs)?;
        let mix = templates::read_wide(&staged.inputs, &oracle.out.schema.mapping);
        (mix, None, oracle)
    };
    mix.validate()?;
    let server = cold_starts(&mut outcome, &mut staged)?;

    let before = server.counters()?;
    let (json, json_elapsed) = window(
        &server,
        Listener::Json,
        &mix,
        Some(Class::A),
        args.seed,
        phase,
    );
    let (bolt, bolt_elapsed) = window(
        &server,
        Listener::Bolt,
        &mix,
        Some(Class::B),
        args.seed,
        phase,
    );
    let after = server.counters()?;
    read_metrics(
        &mut outcome,
        &class_micros(&mix, &json, Class::A),
        &class_micros(&mix, &bolt, Class::B),
        // Equal time on each listener, so the mean of the two rates.
        (ops_per_second(&json, json_elapsed) + ops_per_second(&bolt, bolt_elapsed)) / 2.0,
        &server,
        staged.inputs.triples(),
    )?;
    drop(server);
    outcome.exact = exact_counts(&staged.inputs, &mix);
    let wire_json = verify(&mut outcome, &mix, &json, &oracle);
    let wire_bolt = verify(&mut outcome, &mix, &bolt, &oracle);
    // A Bolt answer must equal the JSON answer to the same query, row for
    // row: both listeners funnel through one dispatch.
    let json_cypher = mix
        .templates
        .iter()
        .position(|t| t.name == "category-cypher")
        .expect("read-wide has a JSON Cypher template") as u16;
    for (pick, over_bolt) in &wire_bolt {
        if let Some(over_json) = wire_json.get(&(json_cypher, pick.1)) {
            let rows = |r: &Response| match r {
                Response::Cypher { rows, .. } => Some(rows.clone()),
                _ => None,
            };
            if rows(over_bolt) != rows(over_json) {
                outcome.fail(1, || {
                    format!("category query {} differs between Bolt and JSON", pick.1)
                });
            }
        }
    }
    counter_notes(&mut outcome, &before, &after);
    let all: Vec<ConnLog> = json.into_iter().chain(bolt).collect();
    template_notes(&mut outcome, &mix, &all);
    let rows: usize = wire_json
        .values()
        .map(|r| match r {
            Response::Cypher { rows, .. } | Response::Sparql { rows, .. } => rows.len(),
            _ => 0,
        })
        .sum();
    outcome.notes.push(format!(
        "read-wide: G({SCALE_LARGE}) = {} triples, {CONNECTIONS} connections closed loop, JSON {:.2} s then Bolt {:.2} s, mean {:.0} rows per answer",
        staged.inputs.triples(),
        json_elapsed.as_secs_f64(),
        bolt_elapsed.as_secs_f64(),
        rows as f64 / wire_json.len().max(1) as f64
    ));

    if let Some(replayed) = replayed {
        let mean = wire_mean_us(&all.iter().collect::<Vec<_>>());
        let tracer = finish_replay(&mut outcome, replayed, mean, &[&wire_json, &wire_bolt]);
        finish_trace(args, &mut outcome, tracer)?;
    }
    Ok(outcome)
}
