//! `trace_check` — CI validator for observability artifacts.
//!
//! Validates a `--trace-out` JSONL file (every line parses, required
//! fields present, begins/ends balanced with proper nesting via
//! [`s3pg_obs::validate_span_tree`]) and optionally the `metrics.json`
//! summary `s3pg-convert --metrics` writes — without needing any external
//! tooling in CI.
//!
//! ```text
//! trace_check --trace out/trace.jsonl [--metrics out/metrics.json]
//! ```
//!
//! Exits 0 and prints one summary line per artifact on success; prints
//! the first violation and exits 1 otherwise.

use s3pg_obs::{validate_span_tree, EventKind, TraceEvent};
use s3pg_server::json::{self, Json};
use std::collections::HashMap;
use std::path::PathBuf;

const USAGE: &str = "usage: trace_check --trace FILE.jsonl [--metrics FILE.json]";

fn main() {
    let mut trace_path: Option<PathBuf> = None;
    let mut metrics_path: Option<PathBuf> = None;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--trace" => trace_path = it.next().map(PathBuf::from),
            "--metrics" => metrics_path = it.next().map(PathBuf::from),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => fail(&format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    let Some(trace_path) = trace_path else {
        fail(&format!("--trace is required\n{USAGE}"));
    };

    let text = std::fs::read_to_string(&trace_path)
        .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", trace_path.display())));
    match check_trace(&text) {
        Ok(summary) => println!("{}: {summary}", trace_path.display()),
        Err(e) => fail(&format!("{}: {e}", trace_path.display())),
    }

    if let Some(metrics_path) = metrics_path {
        let text = std::fs::read_to_string(&metrics_path)
            .unwrap_or_else(|e| fail(&format!("cannot read {}: {e}", metrics_path.display())));
        match check_metrics(&text) {
            Ok(summary) => println!("{}: {summary}", metrics_path.display()),
            Err(e) => fail(&format!("{}: {e}", metrics_path.display())),
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
    Ok(format!("ok — {} phases", phases.len()))
}
