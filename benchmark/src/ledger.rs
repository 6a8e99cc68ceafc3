//! From spans to the per-layer ledger: each span name's total self time,
//! divided by the operations replayed, becomes one named line. Means, not
//! medians, because means add up: the lines of one path sum to the mean
//! in-process time of an operation, and what is left of the wire latency
//! is `server.residual_us`.

use crate::replay::Phases;
use crate::report::Outcome;
use crate::spans::{totals, Span};
use std::collections::BTreeMap;

type Totals = BTreeMap<&'static str, (u64, u64)>;

fn self_ns(totals: &Totals, name: &str) -> f64 {
    totals.get(name).map_or(0.0, |&(_, ns)| ns as f64)
}

/// The offline pipeline's lines, per pass. `root` is the span name the
/// passes ran under; returns (attributed, total) seconds per pass.
pub fn pipeline_layers(
    outcome: &mut Outcome,
    spans: &[Span],
    root: &'static str,
    phases: &[Phases],
    ntriples_bytes: usize,
) -> (f64, f64) {
    let totals = totals(spans);
    let passes = phases.len().max(1) as f64;
    let per_pass = |name: &str| self_ns(&totals, name) / passes / 1e9;
    let mean = |f: fn(&Phases) -> std::time::Duration| {
        phases.iter().map(|p| f(p).as_secs_f64()).sum::<f64>() / passes
    };
    let lines = [
        ("rdf.parse_s", per_pass("rdf.parse")),
        ("shacl.parse_s", per_pass("shacl.parse")),
        ("s3pg.f_st_s", mean(|p| p.f_st)),
        ("s3pg.phase1_s", mean(|p| p.phase1)),
        ("s3pg.phase2_s", mean(|p| p.phase2)),
        ("pg.conformance_s", mean(|p| p.conformance)),
        ("pg.freeze_s", per_pass("pg.freeze")),
        ("wal.checkpoint_write_s", per_pass("wal.checkpoint_write")),
    ];
    let mut attributed = 0.0;
    for (name, value) in lines {
        outcome.layer(name, value);
        attributed += value;
    }
    let parse = per_pass("rdf.parse");
    if parse > 0.0 {
        outcome.layer("rdf.parse_mb_per_s", ntriples_bytes as f64 / 1e6 / parse);
    }
    // The root's whole interval: its own self time plus every descendant's.
    let total: f64 = [
        root,
        "rdf.parse",
        "shacl.parse",
        "s3pg.transform",
        "pg.freeze",
        "wal.checkpoint_write",
    ]
    .iter()
    .map(|n| per_pass(n))
    .sum();
    (attributed, total)
}

/// Server-side layers of a read, in the order a request meets them.
const READ_LAYERS: [(&str, &str); 11] = [
    ("server.request_decode_us", "server.request_decode"),
    ("bolt.unpack_us", "bolt.unpack"),
    ("server.plan_cache_us", "server.plan_cache"),
    ("query.parse_us", "query.parse"),
    ("query.plan_us", "query.plan"),
    ("server.params_us", "server.params"),
    ("query.cypher_execute_us", "query.cypher_execute"),
    ("query.sparql_execute_us", "query.sparql_execute"),
    ("query.render_us", "query.render"),
    ("server.response_encode_us", "server.response_encode"),
    ("bolt.pack_us", "bolt.pack"),
];

/// The read path's lines, per replayed request, and the residual against
/// the wire's mean latency for the same mix.
pub fn read_layers(outcome: &mut Outcome, spans: &[Span], wire_mean_us: f64) {
    let totals = totals(spans);
    let requests = totals.get("request").map_or(0, |&(n, _)| n).max(1) as f64;
    let mut attributed = 0.0;
    let mut largest = ("", 0.0);
    for (metric, span) in READ_LAYERS {
        let us = self_ns(&totals, span) / requests / 1e3;
        outcome.layer(metric, us);
        attributed += us;
        if us > largest.1 {
            largest = (metric, us);
        }
    }
    // Per answer decoded (the replay decodes each distinct answer once).
    let decodes = totals.get("client.decode").map_or(0, |&(n, _)| n).max(1) as f64;
    outcome.layer(
        "client.decode_us",
        self_ns(&totals, "client.decode") / decodes / 1e3,
    );
    // The executors' share of a request as its client sees it (of the
    // in-process total where that came out above the wire's mean).
    let execute =
        outcome.per_layer["query.cypher_execute_us"] + outcome.per_layer["query.sparql_execute_us"];
    outcome.layer(
        "query.execute_share",
        execute / wire_mean_us.max(attributed),
    );
    let residual = wire_mean_us - attributed;
    outcome.layer("server.residual_us", residual);
    outcome.layer("unattributed_share", residual / wire_mean_us);
    outcome.notes.push(format!(
        "ledger: wire mean {wire_mean_us:.1} us = attributed {attributed:.1} us + residual {residual:.1} us; largest line {} ({:.1} us)",
        largest.0, largest.1
    ));
}

const WRITE_LAYERS: [(&str, &str); 8] = [
    ("s3pg.incremental_apply_ms", "s3pg.incremental_apply"),
    ("rdf.mirror_ms", "rdf.mirror"),
    ("wal.append_ms", "wal.append"),
    ("pg.conformance_ms", "pg.conformance"),
    ("rdf.clone_ms", "rdf.clone"),
    ("pg.clone_ms", "pg.clone"),
    ("wal.commit_ms", "wal.commit"),
    ("pg.refreeze_ms", "pg.refreeze"),
];

/// The write path's lines, per replayed update. Returns the ms an update
/// holds its caller (everything but the background re-freeze).
pub fn write_layers(outcome: &mut Outcome, spans: &[Span]) -> f64 {
    let totals = totals(spans);
    let updates = totals.get("update").map_or(0, |&(n, _)| n).max(1) as f64;
    let mut foreground = 0.0;
    for (metric, span) in WRITE_LAYERS {
        let ms = self_ns(&totals, span) / updates / 1e6;
        outcome.layer(metric, ms);
        if span != "pg.refreeze" {
            foreground += ms;
        }
    }
    foreground
}

/// The recovery path's two lines that are not already pipeline lines.
pub fn recover_layers(outcome: &mut Outcome, spans: &[Span]) {
    let totals = totals(spans);
    let restarts = totals.get("recover").map_or(0, |&(n, _)| n).max(1) as f64;
    let per = |name: &str| self_ns(&totals, name) / restarts / 1e9;
    outcome.layer("wal.recover_checkpoint_load_s", per("wal.load_checkpoint"));
    outcome.layer(
        "wal.recover_tail_replay_s",
        per("wal.open") + per("s3pg.replay_deltas"),
    );
}
