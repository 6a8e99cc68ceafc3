//! `trace_check` — CI validator for observability artifacts.
//!
//! Validates a `--trace-out` JSONL file (every line parses, required
//! fields present, begins/ends balanced with proper nesting via
//! [`s3pg_obs::validate_span_tree`]), optionally the `metrics.json`
//! summary `s3pg-convert --metrics` writes, and/or the
//! `BENCH_compact.json` document the `compact` bench emits — without
//! needing any external tooling in CI.
//!
//! ```text
//! trace_check --trace out/trace.jsonl [--metrics out/metrics.json]
//! trace_check --compact-bench BENCH_compact.json
//! ```
//!
//! Exits 0 and prints one summary line per artifact on success; prints
//! the first violation and exits 1 otherwise.

use s3pg_obs::{validate_span_tree, EventKind, TraceEvent};
use s3pg_server::json::{self, Json};
use std::collections::HashMap;
use std::path::PathBuf;

const USAGE: &str =
    "usage: trace_check [--trace FILE.jsonl] [--metrics FILE.json] [--compact-bench FILE.json]";

fn main() {
    let mut trace_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut compact_bench_path: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => trace_path = it.next().map(PathBuf::from),
            "--metrics" => metrics_path = it.next().map(PathBuf::from),
            "--compact-bench" => compact_bench_path = it.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    if trace_path.is_none() && compact_bench_path.is_none() {
        fail(&format!("--trace or --compact-bench is required\n{USAGE}"));
    }

    if let Some(trace_path) = trace_path {
        let text = std::fs::read_to_string(&trace_path)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", trace_path.display())));
        match check_trace(&text) {
            Ok(summary) => println!("{}: {summary}", trace_path.display()),
            Err(e) => fail(&format!("{}: {e}", trace_path.display())),
        }
    }

    if let Some(metrics_path) = metrics_path {
        let text = std::fs::read_to_string(&metrics_path)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", metrics_path.display())));
        match check_metrics(&text) {
            Ok(summary) => println!("{}: {summary}", metrics_path.display()),
            Err(e) => fail(&format!("{}: {e}", metrics_path.display())),
        }
    }

    if let Some(path) = compact_bench_path {
        let text = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", path.display())));
        match check_compact_bench(&text) {
            Ok(summary) => println!("{}: {summary}", path.display()),
            Err(e) => fail(&format!("{}: {e}", path.display())),
        }
    }
}

fn fail(message: &str) -> ! {
    eprintln!("error: {message}");
    std::process::exit(1);
}

/// Decode and validate a trace JSONL document; returns a summary line.
fn check_trace(text: &str) -> Result<String, String> {
    let mut events = Vec::new();
    // Span names are `&'static str` in [`TraceEvent`]; intern each distinct
    // name once so a one-shot validator leaks O(names), not O(events).
    let mut names: HashMap<String, &'static str> = HashMap::new();
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            return Err(format!("line {n}: empty line in JSONL trace"));
        }
        let value = json::parse(line).map_err(|e| format!("line {n}: {e}"))?;
        let num = |field: &str| {
            value
                .get(field)
                .and_then(Json::as_u64)
                .ok_or(format!("line {n}: missing numeric field \"{field}\""))
        };
        let name = value
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("line {n}: missing string field \"name\""))?;
        let kind = match value.get("ev").and_then(Json::as_str) {
            Some("begin") => EventKind::Begin,
            Some("end") => EventKind::End,
            other => return Err(format!("line {n}: bad \"ev\" field {other:?}")),
        };
        let name: &'static str = names
            .entry(name.to_string())
            .or_insert_with(|| Box::leak(name.to_string().into_boxed_str()));
        events.push(TraceEvent {
            trace: num("trace")?,
            span: num("span")?,
            parent: num("parent")?,
            name,
            kind,
            t_us: num("t_us")?,
        });
    }
    if events.is_empty() {
        return Err("trace is empty".to_string());
    }
    if events.len() % 2 != 0 {
        return Err(format!(
            "odd event count {}: begins and ends cannot balance",
            events.len()
        ));
    }
    validate_span_tree(&events)?;
    let traces: std::collections::BTreeSet<u64> = events.iter().map(|e| e.trace).collect();
    Ok(format!(
        "ok — {} events, {} spans, {} trace(s), {} distinct span name(s)",
        events.len(),
        events.len() / 2,
        traces.len(),
        names.len(),
    ))
}

/// Validate the `BENCH_compact.json` document emitted by the `compact`
/// bench. Byte sizes are deterministic for a fixed dataset and scale, so
/// the ≥2× compaction ratio is enforced outright; latency ratios are
/// shape-checked only — CI runs on a workload too small for stable timing
/// thresholds.
fn check_compact_bench(text: &str) -> Result<String, String> {
    let value = json::parse(text.trim()).map_err(|e| e.to_string())?;
    value
        .get("dataset")
        .and_then(Json::as_str)
        .ok_or("missing string field \"dataset\"")?;
    value
        .get("scale")
        .and_then(Json::as_f64)
        .ok_or("missing numeric field \"scale\"")?;
    let mutable_bytes = value
        .get("mutable_bytes")
        .and_then(Json::as_u64)
        .filter(|&b| b > 0)
        .ok_or("missing positive field \"mutable_bytes\"")?;
    let compact_bytes = value
        .get("compact_bytes")
        .and_then(Json::as_u64)
        .filter(|&b| b > 0)
        .ok_or("missing positive field \"compact_bytes\"")?;
    let ratio = value
        .get("bytes_ratio_mutable_over_compact")
        .and_then(Json::as_f64)
        .ok_or("missing numeric field \"bytes_ratio_mutable_over_compact\"")?;
    let recomputed = mutable_bytes as f64 / compact_bytes as f64;
    if (ratio - recomputed).abs() > 0.01 {
        return Err(format!(
            "bytes ratio {ratio} disagrees with mutable/compact = {recomputed:.3}"
        ));
    }
    if ratio < 2.0 {
        return Err(format!(
            "compact form is only {ratio:.2}x smaller than mutable (need >= 2x): \
             {compact_bytes} vs {mutable_bytes} bytes"
        ));
    }
    value
        .get("freeze_micros")
        .and_then(Json::as_u64)
        .ok_or("missing numeric field \"freeze_micros\"")?;
    let dict = value.get("dict").ok_or("missing \"dict\" object")?;
    for field in ["entries", "bytes", "encodes"] {
        dict.get(field)
            .and_then(Json::as_u64)
            .ok_or(format!("dict: missing numeric field \"{field}\""))?;
    }
    let hit_rate = dict
        .get("hit_rate")
        .and_then(Json::as_f64)
        .ok_or("dict: missing numeric field \"hit_rate\"")?;
    if !(0.0..=1.0).contains(&hit_rate) {
        return Err(format!("dict.hit_rate {hit_rate} outside [0, 1]"));
    }

    let queries = value
        .get("queries")
        .and_then(Json::as_array)
        .ok_or("missing \"queries\" array")?;
    if queries.is_empty() {
        return Err("\"queries\" is empty".to_string());
    }
    for (i, entry) in queries.iter().enumerate() {
        let context = format!("queries[{i}]");
        for field in ["tag", "query"] {
            entry
                .get(field)
                .and_then(Json::as_str)
                .ok_or(format!("{context}: missing string field \"{field}\""))?;
        }
        entry
            .get("rows")
            .and_then(Json::as_u64)
            .ok_or(format!("{context}: missing numeric field \"rows\""))?;
        for side in ["mutable", "compact"] {
            let s = entry
                .get(side)
                .ok_or(format!("{context}: missing field \"{side}\""))?;
            for stat in ["p50_us", "p99_us", "mean_us"] {
                let v = s
                    .get(stat)
                    .and_then(Json::as_f64)
                    .ok_or(format!("{context}.{side}: missing numeric \"{stat}\""))?;
                if !v.is_finite() || v < 0.0 {
                    return Err(format!("{context}.{side}.{stat}: bad value {v}"));
                }
            }
            s.get("iters")
                .and_then(Json::as_u64)
                .filter(|&n| n > 0)
                .ok_or(format!("{context}.{side}: missing positive \"iters\""))?;
        }
        let p50_ratio = entry
            .get("p50_compact_over_mutable")
            .and_then(Json::as_f64)
            .ok_or(format!(
                "{context}: missing numeric \"p50_compact_over_mutable\""
            ))?;
        if !p50_ratio.is_finite() || p50_ratio <= 0.0 {
            return Err(format!(
                "{context}.p50_compact_over_mutable: bad value {p50_ratio}"
            ));
        }
    }

    Ok(format!(
        "ok — compact {ratio:.2}x smaller ({compact_bytes} vs {mutable_bytes} bytes), \
         {} queries benched",
        queries.len(),
    ))
}

/// Validate the machine-readable `metrics.json` summary.
fn check_metrics(text: &str) -> Result<String, String> {
    let value = json::parse(text.trim()).map_err(|e| e.to_string())?;
    let phases = value
        .get("phases")
        .and_then(Json::as_array)
        .ok_or("missing \"phases\" array")?;
    if phases.is_empty() {
        return Err("\"phases\" is empty".to_string());
    }
    for (i, phase) in phases.iter().enumerate() {
        phase
            .get("name")
            .and_then(Json::as_str)
            .ok_or(format!("phase {i}: missing string field \"name\""))?;
        for field in ["wall_micros", "items"] {
            phase
                .get(field)
                .and_then(Json::as_u64)
                .ok_or(format!("phase {i}: missing numeric field \"{field}\""))?;
        }
    }
    value
        .get("total_wall_micros")
        .and_then(Json::as_u64)
        .ok_or("missing numeric field \"total_wall_micros\"")?;
    value
        .get("shard_skew")
        .ok_or("missing field \"shard_skew\"")?;
    Ok(format!("ok — {} phases", phases.len()))
}
