//! Implementation of the `s3pg-convert` command-line tool.
//!
//! ```text
//! s3pg-convert --data graph.ttl [--shapes shapes.ttl] [--mode parsimonious]
//!              [--out-dir out/] [--emit csv,ddl,yarspg,g2gml] [--validate]
//!              [--metrics] [--stats]
//! ```
//!
//! Reads an RDF graph (Turtle `.ttl` or N-Triples `.nt`), obtains a SHACL
//! schema (from `--shapes`, or extracted from the data as the paper does
//! with QSE), runs the S3PG transformation, and writes the requested
//! artifacts. The logic lives here (unit-testable); the binary is a thin
//! wrapper.

use crate::g2gml::to_g2gml;
use crate::inverse::recover_graph;
use crate::metrics::{PhaseSpan, PipelineMetrics};
use crate::mode::Mode;
use crate::pipeline::{self, transform};
use s3pg_pg::{csv, ddl, yarspg, PgStats};
use s3pg_rdf::parser::{parse_ntriples, parse_turtle};
use s3pg_rdf::Graph;
use s3pg_shacl::parser::parse_shacl_turtle;
use s3pg_shacl::{extract_shapes, validate, ShapeSchema};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    pub data: PathBuf,
    pub shapes: Option<PathBuf>,
    pub mode: Mode,
    pub out_dir: PathBuf,
    pub emit: Vec<Artifact>,
    pub validate_input: bool,
    pub verify_roundtrip: bool,
    /// Append the per-phase metrics report to the output (and write a
    /// machine-readable `metrics.json` next to the artifacts).
    pub show_metrics: bool,
    /// Freeze the transformed PG into its compact form and report the
    /// dictionary hit rate and compact/mutable byte ratio; the freeze is
    /// timed as a `compact` pipeline phase.
    pub show_stats: bool,
    /// Record the run's span tree and write it as JSONL to this path.
    pub trace_out: Option<PathBuf>,
}

/// Output artifacts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Artifact {
    Csv,
    Ddl,
    YarsPg,
    G2gml,
}

/// Usage text.
pub const USAGE: &str = "usage: s3pg-convert --data FILE[.ttl|.nt] [--shapes FILE.ttl] \
                         [--mode parsimonious|non-parsimonious] [--out-dir DIR] \
                         [--emit csv,ddl,yarspg,g2gml] [--validate] [--verify-roundtrip] \
                         [--metrics] [--stats] [--trace-out FILE.jsonl]";

/// Parse argv-style arguments (without the program name).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut data = None;
    let mut shapes = None;
    let mut mode = Mode::Parsimonious;
    let mut out_dir = PathBuf::from("s3pg-out");
    let mut emit = vec![Artifact::Csv, Artifact::Ddl];
    let mut validate_input = false;
    let mut verify_roundtrip = false;
    let mut show_metrics = false;
    let mut show_stats = false;
    let mut trace_out = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data" => data = Some(PathBuf::from(it.next().ok_or("--data needs a path")?)),
            "--shapes" => shapes = Some(PathBuf::from(it.next().ok_or("--shapes needs a path")?)),
            "--mode" => {
                mode = match it.next().as_deref() {
                    Some("parsimonious") => Mode::Parsimonious,
                    Some("non-parsimonious") => Mode::NonParsimonious,
                    other => return Err(format!("unknown mode {other:?}")),
                }
            }
            "--out-dir" => out_dir = PathBuf::from(it.next().ok_or("--out-dir needs a path")?),
            "--emit" => {
                let list = it.next().ok_or("--emit needs a list")?;
                emit = list
                    .split(',')
                    .map(|a| match a.trim() {
                        "csv" => Ok(Artifact::Csv),
                        "ddl" => Ok(Artifact::Ddl),
                        "yarspg" => Ok(Artifact::YarsPg),
                        "g2gml" => Ok(Artifact::G2gml),
                        other => Err(format!("unknown artifact '{other}'")),
                    })
                    .collect::<Result<_, _>>()?;
            }
            "--validate" => validate_input = true,
            "--verify-roundtrip" => verify_roundtrip = true,
            "--metrics" => show_metrics = true,
            "--stats" => show_stats = true,
            "--trace-out" => {
                trace_out = Some(PathBuf::from(it.next().ok_or("--trace-out needs a path")?))
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(Options {
        data: data.ok_or(format!("--data is required\n{USAGE}"))?,
        shapes,
        mode,
        out_dir,
        emit,
        validate_input,
        verify_roundtrip,
        show_metrics,
        show_stats,
        trace_out,
    })
}

/// Load an RDF graph by file extension.
pub fn load_graph(path: &Path) -> Result<Graph, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    parse_graph(path, &text)
}

fn is_ntriples(path: &Path) -> bool {
    matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("nt") | Some("ntriples")
    )
}

fn parse_graph(path: &Path, text: &str) -> Result<Graph, String> {
    if is_ntriples(path) {
        parse_ntriples(text).map_err(|e| e.to_string())
    } else {
        parse_turtle(text).map_err(|e| e.to_string())
    }
}

/// Run the conversion; returns the human-readable report.
pub fn run(options: &Options) -> Result<String, String> {
    let tracer = s3pg_obs::tracer();
    let trace = options.trace_out.as_ref().map(|_| {
        tracer.set_enabled(true);
        tracer.new_trace()
    });
    let root_span = trace.map(|t| tracer.span(t, "convert"));

    let mut report = String::new();
    let parse_start = std::time::Instant::now();
    let (graph, text) = {
        let _span = tracer.span_here("parse");
        let text = std::fs::read_to_string(&options.data)
            .map_err(|e| format!("cannot read {}: {e}", options.data.display()))?;
        (parse_graph(&options.data, &text)?, text)
    };
    let parse_time = parse_start.elapsed();
    let _ = writeln!(report, "input: {} triples", graph.len());
    if options.show_metrics {
        let _ = write!(
            report,
            "parse: {:.1} MB at {:.1} MB/s, {} distinct strings",
            text.len() as f64 / 1e6,
            text.len() as f64 / 1e6 / parse_time.as_secs_f64().max(1e-9),
            graph.interner().len()
        );
        // One statement a line is N-Triples' rule, not Turtle's.
        if is_ntriples(&options.data) {
            let statements = text
                .lines()
                .map(str::trim)
                .filter(|line| !line.is_empty() && !line.starts_with('#'))
                .count();
            let _ = write!(
                report,
                ", {} duplicate statements dropped",
                statements - graph.len()
            );
        }
        report.push('\n');
    }
    drop(text);

    let schema: ShapeSchema = match &options.shapes {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            parse_shacl_turtle(&text).map_err(|e| e.to_string())?
        }
        None => {
            let s = extract_shapes(&graph);
            let _ = writeln!(
                report,
                "shapes: extracted {} node shapes from the data",
                s.len()
            );
            s
        }
    };

    if options.validate_input {
        let v = validate(&graph, &schema);
        let _ = writeln!(
            report,
            "validation: {} ({} violations over {} checks)",
            if v.conforms() {
                "G ⊨ S_G"
            } else {
                "G ⊭ S_G"
            },
            v.violations.len(),
            v.checked
        );
    }

    let out = {
        let _span = tracer.span_here("transform");
        transform(&graph, &schema, options.mode)
    };
    let stats = PgStats::of(&out.pg);
    let _ = writeln!(
        report,
        "transformed ({}): {} nodes, {} edges, {} rel types in {:?}",
        options.mode.name(),
        stats.nodes,
        stats.edges,
        stats.rel_types,
        out.timings.total()
    );
    let _ = writeln!(
        report,
        "conformance: {}",
        if out.conformance.conforms() {
            "PG ⊨ S_PG"
        } else {
            "PG ⊭ S_PG"
        }
    );
    for failure in out.conformance.failures.iter().take(5) {
        let _ = writeln!(report, "  non-conformance: {failure}");
    }
    if out.conformance.failures.len() > 5 {
        let _ = writeln!(
            report,
            "  … and {} more failures",
            out.conformance.failures.len() - 5
        );
    }

    let compacted = options.show_stats.then(|| {
        let _span = tracer.span_here("compact");
        let started = std::time::Instant::now();
        let compact = out.pg.freeze();
        (compact, started.elapsed())
    });
    if let Some((compact, wall)) = &compacted {
        let mutable_bytes = out.pg.deep_size_bytes();
        let compact_bytes = compact.deep_size_bytes();
        let _ = writeln!(
            report,
            "compact: {compact_bytes} bytes vs {mutable_bytes} mutable ({:.2}x), frozen in {wall:?}",
            compact_bytes as f64 / mutable_bytes.max(1) as f64,
        );
        let _ = writeln!(
            report,
            "dictionary: {} entries, {} bytes, {:.1}% hit rate",
            compact.dict_len(),
            compact.dict_size_bytes(),
            compact.dict_hit_rate() * 100.0,
        );
    }

    let metrics_with_parse: Option<PipelineMetrics> = options.show_metrics.then(|| {
        let mut metrics = out.metrics.clone();
        metrics.phases.insert(
            0,
            PhaseSpan {
                name: "parse",
                wall: parse_time,
                items: graph.len() as u64,
                unit: "triples",
            },
        );
        if let Some((_, wall)) = &compacted {
            metrics.phases.push(PhaseSpan {
                name: "compact",
                wall: *wall,
                items: (stats.nodes + stats.edges) as u64,
                unit: "elements",
            });
        }
        metrics
    });
    if let Some(metrics) = &metrics_with_parse {
        let _ = writeln!(report, "{}", metrics.report());
    }

    std::fs::create_dir_all(&options.out_dir)
        .map_err(|e| format!("cannot create {}: {e}", options.out_dir.display()))?;
    if let Some(metrics) = &metrics_with_parse {
        let mut json = metrics.to_json();
        json.push('\n');
        write_file(&options.out_dir.join("metrics.json"), &json)?;
        let _ = writeln!(report, "wrote metrics.json");
    }
    let emit_span = tracer.span_here("emit");
    for artifact in &options.emit {
        match artifact {
            Artifact::Csv => {
                let exported = csv::export(&out.pg);
                write_file(&options.out_dir.join("nodes.csv"), &exported.nodes)?;
                write_file(
                    &options.out_dir.join("relationships.csv"),
                    &exported.relationships,
                )?;
                let _ = writeln!(report, "wrote nodes.csv, relationships.csv");
            }
            Artifact::Ddl => {
                write_file(
                    &options.out_dir.join("schema.pgs"),
                    &ddl::to_ddl(&out.schema.pg_schema),
                )?;
                let _ = writeln!(report, "wrote schema.pgs");
            }
            Artifact::YarsPg => {
                write_file(
                    &options.out_dir.join("graph.yarspg"),
                    &yarspg::to_yarspg(&out.pg),
                )?;
                let _ = writeln!(report, "wrote graph.yarspg");
            }
            Artifact::G2gml => {
                write_file(
                    &options.out_dir.join("mapping.g2gml"),
                    &to_g2gml(&out.schema),
                )?;
                let _ = writeln!(report, "wrote mapping.g2gml");
            }
        }
    }
    drop(emit_span);

    if options.verify_roundtrip {
        let recovered = recover_graph(&out.pg, &out.schema.mapping).map_err(|e| e.to_string())?;
        let ok = recovered.same_triples(&graph);
        let _ = writeln!(
            report,
            "round-trip: M(F_dt(G)) {} G ({} triples recovered)",
            if ok { "=" } else { "≠" },
            recovered.len()
        );
        if !ok {
            return Err(format!("round-trip verification failed\n{report}"));
        }
        // Also exercise the load stage.
        let (loaded, _) = pipeline::load(&out.pg);
        let _ = writeln!(
            report,
            "load check: {} nodes / {} edges after CSV re-ingest",
            loaded.node_count(),
            loaded.edge_count()
        );
    }

    // End the root span before export so the trace is balanced on disk.
    drop(root_span);
    if let (Some(trace), Some(path)) = (trace, options.trace_out.as_ref()) {
        write_file(path, &tracer.export_jsonl(trace))?;
        let _ = writeln!(report, "wrote trace to {}", path.display());
    }
    Ok(report)
}

fn write_file(path: &Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Options, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_minimal_args() {
        let o = args(&["--data", "g.ttl"]).unwrap();
        assert_eq!(o.data, PathBuf::from("g.ttl"));
        assert_eq!(o.mode, Mode::Parsimonious);
        assert_eq!(o.emit, vec![Artifact::Csv, Artifact::Ddl]);
        assert!(!o.validate_input);
        assert!(!o.show_metrics);
        assert!(!o.show_stats);
        assert_eq!(o.trace_out, None);
    }

    #[test]
    fn parses_full_args() {
        let o = args(&[
            "--data",
            "g.nt",
            "--shapes",
            "s.ttl",
            "--mode",
            "non-parsimonious",
            "--out-dir",
            "out",
            "--emit",
            "csv,yarspg,g2gml",
            "--validate",
            "--verify-roundtrip",
            "--metrics",
            "--stats",
            "--trace-out",
            "trace.jsonl",
        ])
        .unwrap();
        assert_eq!(o.mode, Mode::NonParsimonious);
        assert_eq!(
            o.emit,
            vec![Artifact::Csv, Artifact::YarsPg, Artifact::G2gml]
        );
        assert!(o.validate_input && o.verify_roundtrip);
        assert!(o.show_metrics);
        assert!(o.show_stats);
        assert_eq!(o.trace_out, Some(PathBuf::from("trace.jsonl")));
    }

    #[test]
    fn rejects_bad_args() {
        assert!(args(&[]).is_err());
        assert!(args(&["--data"]).is_err());
        assert!(args(&["--data", "g.ttl", "--mode", "fancy"]).is_err());
        assert!(args(&["--data", "g.ttl", "--emit", "png"]).is_err());
        assert!(args(&["--frobnicate"]).is_err());
        // The pipeline runs on one thread; there is nothing to set.
        let err = args(&["--data", "g.ttl", "--threads", "2"]).unwrap_err();
        assert!(err.starts_with("unknown argument '--threads'"), "{err}");
        assert!(args(&["--data", "g.ttl", "--trace-out"]).is_err());
    }

    #[test]
    fn malformed_inputs_are_typed_errors_not_panics() {
        let dir = std::env::temp_dir().join(format!("s3pg-cli-malformed-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let run_with = |data: &Path, shapes: Option<&Path>| {
            run(&Options {
                data: data.to_path_buf(),
                shapes: shapes.map(Path::to_path_buf),
                mode: Mode::Parsimonious,
                out_dir: dir.join("out"),
                emit: vec![Artifact::Csv],
                validate_input: false,
                verify_roundtrip: false,
                show_metrics: false,
                show_stats: false,
                trace_out: None,
            })
        };

        // Unreadable input.
        assert!(run_with(&dir.join("missing.ttl"), None)
            .unwrap_err()
            .contains("cannot read"));

        // Malformed N-Triples: unterminated IRI, stray tokens, bad escape.
        for (name, text) in [
            ("bad1.nt", "<http://ex/a <http://ex/p> <http://ex/b> .\n"),
            ("bad2.nt", "<http://ex/a> <http://ex/p> \"x\" extra .\n"),
            ("bad3.nt", "<http://ex/a> <http://ex/p> \"\\q\" .\n"),
            ("bad4.nt", "no triples here\n"),
        ] {
            let path = dir.join(name);
            std::fs::write(&path, text).unwrap();
            assert!(run_with(&path, None).is_err(), "{name} must be rejected");
        }

        // Malformed Turtle.
        let ttl = dir.join("bad.ttl");
        std::fs::write(&ttl, "@prefix : <http://ex/> .\n:a :p ; .\n:b :q\n").unwrap();
        assert!(run_with(&ttl, None).is_err());

        // Malformed SHACL shapes document alongside valid data.
        let data = dir.join("ok.ttl");
        std::fs::write(&data, "@prefix : <http://ex/> .\n:a a :T .\n").unwrap();
        let shapes = dir.join("bad-shapes.ttl");
        std::fs::write(&shapes, "@prefix sh: <oops\n").unwrap();
        assert!(run_with(&data, Some(&shapes)).is_err());

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn end_to_end_conversion_in_tempdir() {
        let dir = std::env::temp_dir().join(format!("s3pg-cli-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let data_path = dir.join("input.ttl");
        std::fs::write(
            &data_path,
            r#"
@prefix : <http://ex/> .
:bob a :Student ; :regNo "Bs12" ; :takesCourse :db, "Self Study" .
:db a :Course ; :title "DB" .
"#,
        )
        .unwrap();
        let options = Options {
            data: data_path,
            shapes: None,
            mode: Mode::Parsimonious,
            out_dir: dir.join("out"),
            emit: vec![
                Artifact::Csv,
                Artifact::Ddl,
                Artifact::YarsPg,
                Artifact::G2gml,
            ],
            validate_input: true,
            verify_roundtrip: true,
            show_metrics: true,
            show_stats: true,
            trace_out: Some(dir.join("out/trace.jsonl")),
        };
        let report = run(&options).unwrap();
        assert!(report.contains("input: 6 triples"), "{report}");
        assert!(report.contains("G ⊨ S_G"));
        assert!(report.contains("PG ⊨ S_PG"));
        assert!(report.contains("round-trip: M(F_dt(G)) = G"));
        assert!(report.contains("parse"), "{report}");
        // Turtle input: no one-statement-a-line count to take duplicates from.
        assert!(report.contains(" distinct strings\n"), "{report}");
        assert!(report.contains("phase 2: "), "{report}");
        assert!(report.contains("wrote metrics.json"), "{report}");
        assert!(report.contains("compact: "), "{report}");
        assert!(report.contains("% hit rate"), "{report}");
        for f in [
            "nodes.csv",
            "relationships.csv",
            "schema.pgs",
            "graph.yarspg",
            "mapping.g2gml",
            "metrics.json",
            "trace.jsonl",
        ] {
            assert!(dir.join("out").join(f).exists(), "missing {f}");
        }
        // The metrics JSON covers every phase including the inserted parse.
        let json = std::fs::read_to_string(dir.join("out/metrics.json")).unwrap();
        for phase in [
            "parse",
            "schema_transform",
            "phase1_nodes",
            "phase2_props",
            "conformance",
            "compact",
        ] {
            assert!(json.contains(&format!("\"name\":\"{phase}\"")), "{json}");
        }
        assert!(json.contains("\"phase2_items\":"), "{json}");
        // The trace JSONL is balanced and covers the whole span taxonomy.
        let trace = std::fs::read_to_string(dir.join("out/trace.jsonl")).unwrap();
        let lines: Vec<&str> = trace.lines().collect();
        assert!(lines.len() >= 2, "{trace}");
        assert_eq!(lines.len() % 2, 0, "unbalanced trace:\n{trace}");
        for name in [
            "convert",
            "parse",
            "transform",
            "schema_transform",
            "phase1_nodes",
            "phase2_props",
            "phase2_classify",
            "conformance",
            "compact",
            "emit",
        ] {
            assert!(
                trace.contains(&format!("\"name\":\"{name}\"")),
                "missing span {name}:\n{trace}"
            );
        }
        // The emitted artifacts parse back.
        let ddl_text = std::fs::read_to_string(dir.join("out/schema.pgs")).unwrap();
        assert!(s3pg_pg::parse_ddl(&ddl_text).is_ok());
        let yars_text = std::fs::read_to_string(dir.join("out/graph.yarspg")).unwrap();
        assert!(s3pg_pg::yarspg::from_yarspg(&yars_text).is_ok());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_graph_dispatches_on_extension() {
        let dir = std::env::temp_dir().join(format!("s3pg-cli-ext-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let nt = dir.join("g.nt");
        std::fs::write(&nt, "<http://ex/a> <http://ex/p> <http://ex/b> .\n").unwrap();
        assert_eq!(load_graph(&nt).unwrap().len(), 1);
        let ttl = dir.join("g.ttl");
        std::fs::write(&ttl, "@prefix : <http://ex/> .\n:a :p :b .\n").unwrap();
        assert_eq!(load_graph(&ttl).unwrap().len(), 1);
        assert!(load_graph(&dir.join("missing.ttl")).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }
}
