//! The named metrics registry and its Prometheus-style text exposition.
//!
//! A [`Registry`] maps fully-labelled metric names — e.g.
//! `s3pg_requests_total{endpoint="cypher"}` — to shared [`Counter`],
//! [`Gauge`], and [`Histogram`] handles. Registration is get-or-create and
//! returns an [`Arc`], so hot paths resolve their handles once and then
//! record lock-free; the registry lock is only taken at registration and
//! exposition time.
//!
//! [`Registry::expose`] renders the whole registry in the Prometheus text
//! format (counters and gauges as samples, histograms as summaries with
//! `quantile` labels plus `_sum`/`_count`), and [`parse_exposition`]
//! validates such a document back into samples — used by the loadgen and
//! the smoke tests to assert that every line the server emits is
//! well-formed.

use crate::metrics::{Counter, Gauge, Histogram};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::{Arc, OnceLock, RwLock};

/// A named collection of counters, gauges, and histograms.
///
/// Names follow the Prometheus convention: `family{label="value",...}` or
/// a bare `family`. The family (the part before `{`) determines the
/// `# TYPE` line; registering the same family under two different metric
/// kinds is a caller bug and produces a double `# TYPE` entry.
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<String, Arc<Counter>>>,
    gauges: RwLock<BTreeMap<String, Arc<Gauge>>>,
    histograms: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

/// The process-wide default registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::default)
}

impl Registry {
    /// Create an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the counter `name`.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        get_or_create(&self.counters, name)
    }

    /// Get or create the gauge `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        get_or_create(&self.gauges, name)
    }

    /// Get or create the histogram `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        get_or_create(&self.histograms, name)
    }

    /// Render every metric in the Prometheus text exposition format,
    /// sorted by name, one `# TYPE` comment per family.
    pub fn expose(&self) -> String {
        let mut out = String::new();
        let mut last_family = String::new();
        let mut type_line = |out: &mut String, name: &str, kind: &str| {
            let family = family_of(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} {kind}");
                last_family = family.to_string();
            }
        };

        for (name, counter) in self
            .counters
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            type_line(&mut out, name, "counter");
            let _ = writeln!(out, "{name} {}", counter.get());
        }
        let mut last_family = String::new();
        for (name, gauge) in self.gauges.read().unwrap_or_else(|e| e.into_inner()).iter() {
            let family = family_of(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} gauge");
                last_family = family.to_string();
            }
            let _ = writeln!(out, "{name} {}", format_value(gauge.get()));
        }
        let mut last_family = String::new();
        for (name, histogram) in self
            .histograms
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
        {
            let family = family_of(name);
            if family != last_family {
                let _ = writeln!(out, "# TYPE {family} summary");
                last_family = family.to_string();
            }
            let snap = histogram.snapshot();
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
                let value = snap.quantile_micros(q).unwrap_or(0);
                let _ = writeln!(out, "{} {value}", with_label(name, "quantile", label));
            }
            let _ = writeln!(out, "{} {}", suffixed(name, "_sum"), snap.sum_micros);
            let _ = writeln!(out, "{} {}", suffixed(name, "_count"), snap.count);
        }
        out
    }
}

fn get_or_create<T: Default>(map: &RwLock<BTreeMap<String, Arc<T>>>, name: &str) -> Arc<T> {
    if let Some(existing) = map.read().unwrap_or_else(|e| e.into_inner()).get(name) {
        return Arc::clone(existing);
    }
    let mut map = map.write().unwrap_or_else(|e| e.into_inner());
    Arc::clone(
        map.entry(name.to_string())
            .or_insert_with(|| Arc::new(T::default())),
    )
}

/// The metric family of a full name: everything before the label block.
pub fn family_of(name: &str) -> &str {
    name.split('{').next().unwrap_or(name)
}

/// Insert an extra label into a (possibly already labelled) metric name.
fn with_label(name: &str, key: &str, value: &str) -> String {
    match name.strip_suffix('}') {
        Some(open) => format!("{open},{key}=\"{value}\"}}"),
        None => format!("{name}{{{key}=\"{value}\"}}"),
    }
}

/// Append a suffix to the family, keeping the label block in place.
fn suffixed(name: &str, suffix: &str) -> String {
    match name.find('{') {
        Some(brace) => format!("{}{suffix}{}", &name[..brace], &name[brace..]),
        None => format!("{name}{suffix}"),
    }
}

/// Render a gauge value: integers without a fractional part, everything
/// else in shortest-round-trip float notation.
fn format_value(v: f64) -> String {
    if v.fract() == 0.0 && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

/// One parsed exposition sample: full name (with labels) and value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub name: String,
    pub value: f64,
}

impl Sample {
    /// The sample's metric family (name before the label block).
    pub fn family(&self) -> &str {
        family_of(&self.name)
    }
}

/// Parse a Prometheus text exposition document, validating every line.
///
/// Accepts `# TYPE family kind` / `# HELP` comments and `name value`
/// samples; rejects anything else with a description of the offending
/// line. This is the well-formedness check the loadgen and smoke tests
/// run over the server's `metrics` endpoint output.
pub fn parse_exposition(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(comment) = line.strip_prefix('#') {
            let mut words = comment.split_whitespace();
            match words.next() {
                Some("TYPE") => {
                    let family = words
                        .next()
                        .ok_or(format!("line {}: # TYPE without a family", lineno + 1))?;
                    let kind = words
                        .next()
                        .ok_or(format!("line {}: # TYPE without a kind", lineno + 1))?;
                    if !matches!(
                        kind,
                        "counter" | "gauge" | "summary" | "histogram" | "untyped"
                    ) {
                        return Err(format!("line {}: unknown metric kind '{kind}'", lineno + 1));
                    }
                    validate_name(family).map_err(|e| format!("line {}: {e}", lineno + 1))?;
                }
                Some("HELP") => {}
                _ => {
                    return Err(format!(
                        "line {}: unrecognised comment '{line}'",
                        lineno + 1
                    ))
                }
            }
            continue;
        }
        let split = line.rfind(' ').ok_or(format!(
            "line {}: sample without a value: '{line}'",
            lineno + 1
        ))?;
        let (name, value) = (line[..split].trim_end(), line[split + 1..].trim());
        validate_sample_name(name).map_err(|e| format!("line {}: {e}", lineno + 1))?;
        let value: f64 = value
            .parse()
            .map_err(|_| format!("line {}: bad value '{value}'", lineno + 1))?;
        samples.push(Sample {
            name: name.to_string(),
            value,
        });
    }
    Ok(samples)
}

fn validate_name(family: &str) -> Result<(), String> {
    if family.is_empty() {
        return Err("empty metric name".to_string());
    }
    let mut chars = family.chars();
    let first = chars.next().unwrap();
    if !(first.is_ascii_alphabetic() || first == '_' || first == ':') {
        return Err(format!("metric name '{family}' starts with '{first}'"));
    }
    for c in chars {
        if !(c.is_ascii_alphanumeric() || c == '_' || c == ':') {
            return Err(format!("metric name '{family}' contains '{c}'"));
        }
    }
    Ok(())
}

fn validate_sample_name(name: &str) -> Result<(), String> {
    match name.find('{') {
        None => validate_name(name),
        Some(brace) => {
            validate_name(&name[..brace])?;
            let labels = &name[brace..];
            if !labels.ends_with('}') {
                return Err(format!("unterminated label block in '{name}'"));
            }
            let inner = &labels[1..labels.len() - 1];
            for pair in split_labels(inner) {
                let (k, v) = pair
                    .split_once('=')
                    .ok_or(format!("label '{pair}' in '{name}' has no '='"))?;
                validate_name(k).map_err(|e| format!("bad label key: {e}"))?;
                if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                    return Err(format!("label value {v} in '{name}' is not quoted"));
                }
            }
            Ok(())
        }
    }
}

/// Split a label block body on commas that are not inside quoted values.
fn split_labels(inner: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = 0;
    let mut in_quotes = false;
    let mut escaped = false;
    for (i, c) in inner.char_indices() {
        match c {
            '\\' if in_quotes => escaped = !escaped,
            '"' if !escaped => in_quotes = !in_quotes,
            ',' if !in_quotes => {
                if start < i {
                    out.push(&inner[start..i]);
                }
                start = i + 1;
            }
            _ => escaped = false,
        }
    }
    if start < inner.len() {
        out.push(&inner[start..]);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn handles_are_shared_by_name() {
        let r = Registry::new();
        r.counter("a_total").add(3);
        r.counter("a_total").add(4);
        assert_eq!(r.counter("a_total").get(), 7);
        r.gauge("g").set(2.5);
        assert_eq!(r.gauge("g").get(), 2.5);
        r.histogram("h").record(Duration::from_micros(10));
        assert_eq!(r.histogram("h").snapshot().count, 1);
    }

    #[test]
    fn exposition_round_trips_through_the_parser() {
        let r = Registry::new();
        r.counter("s3pg_requests_total{endpoint=\"cypher\"}").add(5);
        r.counter("s3pg_requests_total{endpoint=\"sparql\"}").add(2);
        r.gauge("s3pg_mem_pg_bytes").set_u64(1_234_567);
        r.gauge("s3pg_example_ratio").set(1.25);
        r.histogram("s3pg_request_duration_microseconds{endpoint=\"cypher\"}")
            .record(Duration::from_micros(500));
        let text = r.expose();
        let samples = parse_exposition(&text).unwrap();
        let get = |name: &str| {
            samples
                .iter()
                .find(|s| s.name == name)
                .unwrap_or_else(|| panic!("missing sample {name} in:\n{text}"))
                .value
        };
        assert_eq!(get("s3pg_requests_total{endpoint=\"cypher\"}"), 5.0);
        assert_eq!(get("s3pg_requests_total{endpoint=\"sparql\"}"), 2.0);
        assert_eq!(get("s3pg_mem_pg_bytes"), 1_234_567.0);
        assert_eq!(get("s3pg_example_ratio"), 1.25);
        assert_eq!(
            get("s3pg_request_duration_microseconds_count{endpoint=\"cypher\"}"),
            1.0
        );
        assert!(
            get("s3pg_request_duration_microseconds{endpoint=\"cypher\",quantile=\"0.5\"}") > 0.0
        );
        // One TYPE line per family.
        assert_eq!(
            text.matches("# TYPE s3pg_requests_total counter").count(),
            1
        );
        assert_eq!(
            text.matches("# TYPE s3pg_request_duration_microseconds summary")
                .count(),
            1
        );
    }

    #[test]
    fn exposition_is_sorted_and_deterministic() {
        let r = Registry::new();
        r.counter("z_total").inc();
        r.counter("a_total").inc();
        let text = r.expose();
        assert!(text.find("a_total").unwrap() < text.find("z_total").unwrap());
        assert_eq!(text, r.expose());
    }

    #[test]
    fn parser_rejects_malformed_documents() {
        for bad in [
            "no_value_here",
            "name{unterminated 3",
            "1leading_digit 3",
            "name three",
            "# TYPE only_family",
            "# TYPE fam sideways",
            "name{key=unquoted} 1",
            "name{=\"v\"} 1",
            "# WAT is this",
        ] {
            assert!(parse_exposition(bad).is_err(), "accepted: {bad}");
        }
    }

    #[test]
    fn parser_accepts_labels_with_commas_in_values() {
        let samples = parse_exposition("m{a=\"x,y\",b=\"z\"} 4.5\n# HELP m something\n").unwrap();
        assert_eq!(samples.len(), 1);
        assert_eq!(samples[0].family(), "m");
        assert_eq!(samples[0].value, 4.5);
    }

    #[test]
    fn global_registry_is_a_singleton() {
        global().counter("obs_test_global_total").inc();
        assert!(global().counter("obs_test_global_total").get() >= 1);
    }
}
