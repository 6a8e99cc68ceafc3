//! One function per paper artifact.
//!
//! Every experiment of §5 is regenerated here against the synthetic
//! emulations of the paper's datasets (see `DESIGN.md` §3 for the
//! substitution rationale). Functions return both a printable
//! [`Table`] and structured results so the
//! integration tests can assert the paper's qualitative findings (S3PG at
//! 100% accuracy, baselines lossy, incremental cheaper than full
//! recomputation).

use crate::report::{fmt_accuracy, fmt_duration, Table};
use s3pg::incremental;
use s3pg::pipeline::{self, TransformOutput};
use s3pg::query_translate;
use s3pg::Mode;
use s3pg_baselines::neosem::{NeoSemOutput, NeoSemantics};
use s3pg_baselines::rdf2pg::{Rdf2Pg, Rdf2PgOutput};
use s3pg_pg::PgStats;
use s3pg_query::results::{accuracy, ResultSet};
use s3pg_query::{cypher, sparql};
use s3pg_rdf::DatasetStats;
use s3pg_shacl::{extract_shapes, SchemaStats, ShapeSchema};
use s3pg_workloads::evolution::{self, EvolutionSpec};
use s3pg_workloads::queries::{generate_queries, QueryCategory, QuerySpec};
use s3pg_workloads::spec::{generate, GeneratedDataset};
use s3pg_workloads::{bio2rdf, dbpedia};
use std::time::{Duration, Instant};

/// The paper's three evaluation datasets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dataset {
    DBpedia2020,
    DBpedia2022,
    Bio2RdfCt,
}

impl Dataset {
    /// All datasets in the paper's column order.
    pub const ALL: [Dataset; 3] = [
        Dataset::DBpedia2020,
        Dataset::DBpedia2022,
        Dataset::Bio2RdfCt,
    ];

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Dataset::DBpedia2020 => "DBpedia2020",
            Dataset::DBpedia2022 => "DBpedia2022",
            Dataset::Bio2RdfCt => "Bio2RDF-CT",
        }
    }

    /// The generator spec at a given scale.
    pub fn spec(self, scale: f64) -> s3pg_workloads::DatasetSpec {
        match self {
            Dataset::DBpedia2020 => dbpedia::dbpedia2020(scale),
            Dataset::DBpedia2022 => dbpedia::dbpedia2022(scale),
            Dataset::Bio2RdfCt => bio2rdf::bio2rdf_ct(scale),
        }
    }
}

/// Experiment scale factor (1.0 = laptop default, larger = closer to paper
/// proportions).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale(pub f64);

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

/// A generated dataset with its extracted SHACL schema.
pub struct Prepared {
    pub dataset: Dataset,
    pub generated: GeneratedDataset,
    pub shapes: ShapeSchema,
    /// Time the shape extraction took (the paper uses QSE offline).
    pub extraction: Duration,
}

/// Generate a dataset and extract its shapes.
fn prepare(dataset: Dataset, scale: Scale) -> Prepared {
    let generated = generate(&dataset.spec(scale.0));
    let t = Instant::now();
    let shapes = extract_shapes(&generated.graph);
    Prepared {
        dataset,
        generated,
        shapes,
        extraction: t.elapsed(),
    }
}

// ---------------------------------------------------------------------------
// E1 — Table 2: dataset size and characteristics
// ---------------------------------------------------------------------------

/// Regenerate Table 2.
pub fn table2(scale: Scale) -> (Table, Vec<(Dataset, DatasetStats)>) {
    let mut table = Table::new(
        "Table 2: Size and characteristics of the datasets",
        &[
            "metric",
            Dataset::DBpedia2020.name(),
            Dataset::DBpedia2022.name(),
            Dataset::Bio2RdfCt.name(),
        ],
    );
    let stats: Vec<(Dataset, DatasetStats)> = Dataset::ALL
        .iter()
        .map(|&d| {
            let generated = generate(&d.spec(scale.0));
            (d, DatasetStats::of(&generated.graph))
        })
        .collect();
    let metric = |name: &str, f: &dyn Fn(&DatasetStats) -> String| {
        let mut row = vec![name.to_string()];
        for (_, s) in &stats {
            row.push(f(s));
        }
        row
    };
    table.row(metric("# of triples", &|s| s.triples.to_string()));
    table.row(metric("# of objects", &|s| s.objects.to_string()));
    table.row(metric("# of subjects", &|s| s.subjects.to_string()));
    table.row(metric("# of literals", &|s| s.literals.to_string()));
    table.row(metric("# of instances", &|s| s.instances.to_string()));
    table.row(metric("# of classes", &|s| s.classes.to_string()));
    table.row(metric("# of properties", &|s| s.properties.to_string()));
    table.row(metric("Size in MBs", &|s| {
        format!("{:.2}", s.size_bytes as f64 / 1e6)
    }));
    (table, stats)
}

// ---------------------------------------------------------------------------
// E2 — Table 3: SHACL shapes statistics
// ---------------------------------------------------------------------------

/// Regenerate Table 3.
pub fn table3(scale: Scale) -> (Table, Vec<(Dataset, SchemaStats)>) {
    let mut table = Table::new(
        "Table 3: SHACL Shapes Statistics",
        &[
            "dataset",
            "# NS",
            "# PS",
            "# Single",
            "# Multi",
            "ST-L",
            "ST-NL",
            "MT-Homo-L",
            "MT-Homo-NL",
            "MT-Hetero",
        ],
    );
    let mut out = Vec::new();
    for &d in &Dataset::ALL {
        let prepared = prepare(d, scale);
        let stats = SchemaStats::of(&prepared.shapes);
        table.row(vec![
            d.name().to_string(),
            stats.node_shapes.to_string(),
            stats.property_shapes.to_string(),
            stats.single_type.to_string(),
            stats.multi_type.to_string(),
            stats.single_literal.to_string(),
            stats.single_non_literal.to_string(),
            stats.multi_homo_literal.to_string(),
            stats.multi_homo_non_literal.to_string(),
            stats.multi_hetero.to_string(),
        ]);
        out.push((d, stats));
    }
    (table, out)
}

// ---------------------------------------------------------------------------
// E3 — Table 4: transformation and loading times
// ---------------------------------------------------------------------------

/// Timings of one method on one dataset.
#[derive(Debug, Clone, Copy)]
pub struct MethodTimes {
    pub transform: Duration,
    pub load: Duration,
}

impl MethodTimes {
    pub fn sum(&self) -> Duration {
        self.transform + self.load
    }
}

/// Per-dataset timings for the three methods.
pub struct Table4Row {
    pub dataset: Dataset,
    pub s3pg: MethodTimes,
    pub rdf2pg: MethodTimes,
    pub neosem: MethodTimes,
}

/// Regenerate Table 4.
pub fn table4(scale: Scale) -> (Table, Vec<Table4Row>) {
    let mut table = Table::new(
        "Table 4: Transformation (T) and Loading (L) times",
        &["dataset", "method", "T", "L", "Sum"],
    );
    let mut rows = Vec::new();
    for &d in &Dataset::ALL {
        let prepared = prepare(d, scale);
        let graph = &prepared.generated.graph;

        // S3PG: F_st + F_dt, then CSV load.
        let out = pipeline::transform(graph, &prepared.shapes, Mode::Parsimonious);
        let (_, s3pg_load) = pipeline::load(&out.pg);
        let s3pg_times = MethodTimes {
            transform: out.metrics.transform_wall(),
            load: s3pg_load,
        };

        // rdf2pg: transform, then CSV load (the paper's enhanced
        // Neo4JWriter CSV path).
        let t = Instant::now();
        let r2p = Rdf2Pg::transform(graph);
        let rdf2pg_transform = t.elapsed();
        let (_, rdf2pg_load) = pipeline::load(&r2p.pg);
        let rdf2pg_times = MethodTimes {
            transform: rdf2pg_transform,
            load: rdf2pg_load,
        };

        // NeoSemantics: "not possible to differentiate between the
        // transformation and loading times" — measured as one stage.
        let t = Instant::now();
        let neo = NeoSemantics::transform(graph);
        let (_, neo_load) = pipeline::load(&neo.pg);
        let neosem_times = MethodTimes {
            transform: t.elapsed() - neo_load,
            load: neo_load,
        };

        for (method, times, split) in [
            ("S3PG", s3pg_times, true),
            ("rdf2pg", rdf2pg_times, true),
            ("NeoSem", neosem_times, false),
        ] {
            table.row(vec![
                d.name().to_string(),
                method.to_string(),
                if split {
                    fmt_duration(times.transform)
                } else {
                    "-".into()
                },
                if split {
                    fmt_duration(times.load)
                } else {
                    "-".into()
                },
                fmt_duration(times.sum()),
            ]);
        }
        rows.push(Table4Row {
            dataset: d,
            s3pg: s3pg_times,
            rdf2pg: rdf2pg_times,
            neosem: neosem_times,
        });
    }
    (table, rows)
}

// ---------------------------------------------------------------------------
// E4 — Table 5: transformed graph statistics
// ---------------------------------------------------------------------------

/// Per-dataset, per-method PG statistics.
pub struct Table5Row {
    pub dataset: Dataset,
    pub s3pg: PgStats,
    pub neosem: PgStats,
    pub rdf2pg: PgStats,
}

/// Regenerate Table 5.
pub fn table5(scale: Scale) -> (Table, Vec<Table5Row>) {
    let mut table = Table::new(
        "Table 5: Transformed Graphs (PG models) Stats",
        &["dataset", "method", "# Nodes", "# Edges", "# Rel Types"],
    );
    let mut rows = Vec::new();
    for &d in &Dataset::ALL {
        let prepared = prepare(d, scale);
        let graph = &prepared.generated.graph;
        let s3pg_out = pipeline::transform(graph, &prepared.shapes, Mode::Parsimonious);
        let neo = NeoSemantics::transform(graph);
        let r2p = Rdf2Pg::transform(graph);
        let stats = [
            ("S3PG", PgStats::of(&s3pg_out.pg)),
            ("NeoSem", PgStats::of(&neo.pg)),
            ("rdf2pg", PgStats::of(&r2p.pg)),
        ];
        for (method, s) in &stats {
            table.row(vec![
                d.name().to_string(),
                method.to_string(),
                s.nodes.to_string(),
                s.edges.to_string(),
                s.rel_types.to_string(),
            ]);
        }
        rows.push(Table5Row {
            dataset: d,
            s3pg: stats[0].1,
            neosem: stats[1].1,
            rdf2pg: stats[2].1,
        });
    }
    (table, rows)
}

// ---------------------------------------------------------------------------
// E5/E6 — Tables 6–7: accuracy analysis
// ---------------------------------------------------------------------------

/// Accuracy of one query on all three transformed graphs.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    pub query: QuerySpec,
    pub ground_truth: usize,
    pub s3pg: f64,
    pub neosem: f64,
    pub rdf2pg: f64,
}

/// Everything needed to evaluate queries against the three PGs.
pub struct AccuracyContext {
    pub prepared: Prepared,
    pub s3pg: TransformOutput,
    pub neosem: NeoSemOutput,
    pub rdf2pg: Rdf2PgOutput,
}

/// Build the three transformed graphs for a dataset.
fn accuracy_context(dataset: Dataset, scale: Scale) -> AccuracyContext {
    let prepared = prepare(dataset, scale);
    let s3pg = pipeline::transform(
        &prepared.generated.graph,
        &prepared.shapes,
        Mode::Parsimonious,
    );
    let neosem = NeoSemantics::transform(&prepared.generated.graph);
    let rdf2pg = Rdf2Pg::transform(&prepared.generated.graph);
    AccuracyContext {
        prepared,
        s3pg,
        neosem,
        rdf2pg,
    }
}

/// Evaluate one query in an accuracy context.
fn evaluate_query(cx: &AccuracyContext, q: &QuerySpec) -> AccuracyRow {
    let graph = &cx.prepared.generated.graph;
    let sols = sparql::execute(graph, &q.sparql).expect("ground-truth query");
    let gt = ResultSet::from_sparql(graph, &sols);

    let s3pg_cypher = query_translate::translate_str(&q.sparql, &cx.s3pg.schema.mapping)
        .expect("S3PG translation");
    let s3pg_rows = cypher::execute(&cx.s3pg.pg, &s3pg_cypher).expect("S3PG query");
    let s3pg_acc = accuracy(&gt, &ResultSet::from_cypher(&s3pg_rows));

    let neo_cypher = NeoSemantics::query(Some(&q.class), &q.predicate);
    let neo_rows = cypher::execute(&cx.neosem.pg, &neo_cypher).expect("NeoSem query");
    let neo_acc = accuracy(&gt, &ResultSet::from_cypher(&neo_rows));

    let r2p_cypher = cx.rdf2pg.query(Some(&q.class), &q.predicate);
    let r2p_rows = cypher::execute(&cx.rdf2pg.pg, &r2p_cypher).expect("rdf2pg query");
    let r2p_acc = accuracy(&gt, &ResultSet::from_cypher(&r2p_rows));

    AccuracyRow {
        query: q.clone(),
        ground_truth: gt.len(),
        s3pg: s3pg_acc,
        neosem: neo_acc,
        rdf2pg: r2p_acc,
    }
}

/// Regenerate Table 6 (DBpedia2022) or Table 7 (Bio2RDF) depending on the
/// dataset.
pub fn accuracy_table(
    dataset: Dataset,
    scale: Scale,
    per_category: usize,
) -> (Table, Vec<AccuracyRow>) {
    let cx = accuracy_context(dataset, scale);
    let queries = generate_queries(&cx.prepared.generated.meta, per_category);
    let title = match dataset {
        Dataset::DBpedia2022 => "Table 6: Accuracy analysis for DBpedia2022",
        Dataset::Bio2RdfCt => "Table 7: Accuracy analysis for Bio2RDF",
        Dataset::DBpedia2020 => "Accuracy analysis for DBpedia2020",
    };
    let mut table = Table::new(
        title,
        &["query", "category", "# of GT", "S3PG", "NeoSem", "rdf2pg"],
    );
    let mut rows = Vec::new();
    for q in &queries {
        let row = evaluate_query(&cx, q);
        table.row(vec![
            format!("Q{}", q.id),
            q.category.name().to_string(),
            row.ground_truth.to_string(),
            fmt_accuracy(row.s3pg),
            fmt_accuracy(row.neosem),
            fmt_accuracy(row.rdf2pg),
        ]);
        rows.push(row);
    }
    (table, rows)
}

// ---------------------------------------------------------------------------
// E7 — Figure 6: query runtime analysis
// ---------------------------------------------------------------------------

/// Mean runtimes (µs) of one query on the four systems.
#[derive(Debug, Clone)]
pub struct RuntimeRow {
    pub query: QuerySpec,
    pub sparql_us: f64,
    pub s3pg_us: f64,
    pub neosem_us: f64,
    pub rdf2pg_us: f64,
}

/// Regenerate Figure 6 as a table of mean runtimes per query, grouped by
/// the four categories (the figure's four panels).
pub fn figure6(
    dataset: Dataset,
    scale: Scale,
    per_category: usize,
    repetitions: u32,
) -> (Table, Vec<RuntimeRow>) {
    let cx = accuracy_context(dataset, scale);
    let queries = generate_queries(&cx.prepared.generated.meta, per_category);
    let graph = &cx.prepared.generated.graph;
    let mut table = Table::new(
        format!(
            "Figure 6: Query runtime analysis on {} (mean µs over {repetitions} runs)",
            dataset.name()
        ),
        &["query", "category", "SPARQL", "S3PG", "NeoSem", "rdf2pg"],
    );
    let mut rows = Vec::new();

    let time = |f: &dyn Fn()| -> f64 {
        // Warm-up run, then timed repetitions.
        f();
        let t = Instant::now();
        for _ in 0..repetitions {
            f();
        }
        t.elapsed().as_secs_f64() * 1e6 / repetitions as f64
    };

    for q in &queries {
        let sparql_q = sparql::parse(&q.sparql).expect("sparql parse");
        let s3pg_cypher =
            query_translate::translate_str(&q.sparql, &cx.s3pg.schema.mapping).unwrap();
        let s3pg_q = cypher::parse(&s3pg_cypher).unwrap();
        let neo_q = cypher::parse(&NeoSemantics::query(Some(&q.class), &q.predicate)).unwrap();
        let r2p_q = cypher::parse(&cx.rdf2pg.query(Some(&q.class), &q.predicate)).unwrap();

        let row = RuntimeRow {
            query: q.clone(),
            sparql_us: time(&|| {
                sparql::evaluate(graph, &sparql_q).unwrap();
            }),
            s3pg_us: time(&|| {
                cypher::evaluate(&cx.s3pg.pg, &s3pg_q).unwrap();
            }),
            neosem_us: time(&|| {
                cypher::evaluate(&cx.neosem.pg, &neo_q).unwrap();
            }),
            rdf2pg_us: time(&|| {
                cypher::evaluate(&cx.rdf2pg.pg, &r2p_q).unwrap();
            }),
        };
        table.row(vec![
            format!("Q{}", q.id),
            q.category.name().to_string(),
            format!("{:.0}", row.sparql_us),
            format!("{:.0}", row.s3pg_us),
            format!("{:.0}", row.neosem_us),
            format!("{:.0}", row.rdf2pg_us),
        ]);
        rows.push(row);
    }
    (table, rows)
}

// ---------------------------------------------------------------------------
// E8 — §5.4: monotonicity analysis
// ---------------------------------------------------------------------------

/// The monotonicity measurements of §5.4.
#[derive(Debug, Clone, Copy)]
pub struct MonotonicityResult {
    /// Full parsimonious transform of the old snapshot.
    pub pars_full_base: Duration,
    /// Full non-parsimonious transform of the old snapshot.
    pub non_pars_full_base: Duration,
    /// Full parsimonious transform of the new snapshot from scratch.
    pub pars_full_snapshot2: Duration,
    /// Incremental Δ application on the non-parsimonious output.
    pub delta_only: Duration,
    /// Δ triple counts (additions, deletions).
    pub delta_size: (usize, usize),
    /// Whether the incremental result matches the full recomputation.
    pub incremental_matches_full: bool,
}

impl MonotonicityResult {
    /// The headline percentage of §5.4 ("70.87% reduction").
    pub fn savings_pct(&self) -> f64 {
        let full = self.pars_full_snapshot2.as_secs_f64();
        if full == 0.0 {
            return 0.0;
        }
        (full - self.delta_only.as_secs_f64()) / full * 100.0
    }
}

/// Regenerate the §5.4 monotonicity analysis.
pub fn monotonicity(scale: Scale) -> (Table, MonotonicityResult) {
    let spec = Dataset::DBpedia2022.spec(scale.0);
    let base = generate(&spec);
    let shapes = extract_shapes(&base.graph);
    let evo = evolution::evolve(&base, &spec, &EvolutionSpec::default());
    let snapshot2 = evo.apply(&base.graph);

    // Full transforms of the old snapshot.
    let t = Instant::now();
    let _ = pipeline::transform(&base.graph, &shapes, Mode::Parsimonious);
    let pars_full_base = t.elapsed();

    let t = Instant::now();
    let non_pars = pipeline::transform(&base.graph, &shapes, Mode::NonParsimonious);
    let non_pars_full_base = t.elapsed();

    // Full parsimonious transform of the new snapshot (the baseline the
    // paper compares the incremental path against).
    let shapes2 = extract_shapes(&snapshot2);
    let t = Instant::now();
    let _ = pipeline::transform(&snapshot2, &shapes2, Mode::Parsimonious);
    let pars_full_snapshot2 = t.elapsed();

    // Incremental: apply Δ to the non-parsimonious output only.
    let mut pg = non_pars.pg.clone();
    let mut schema = non_pars.schema.clone();
    let mut state = non_pars.state.clone();
    let t = Instant::now();
    incremental::apply_delta(
        &mut pg,
        &mut schema,
        &mut state,
        &evo.additions,
        &evo.deletions,
    );
    let delta_only = t.elapsed();

    // Correctness: incremental result ≅ full recomputation (same counts).
    let mut schema_full =
        s3pg::transform_schema(&extract_shapes(&snapshot2), Mode::NonParsimonious);
    let full = s3pg::transform_data(&snapshot2, &mut schema_full, Mode::NonParsimonious);
    let incremental_matches_full =
        pg.node_count() == full.pg.node_count() && pg.edge_count() == full.pg.edge_count();

    let result = MonotonicityResult {
        pars_full_base,
        non_pars_full_base,
        pars_full_snapshot2,
        delta_only,
        delta_size: (evo.additions.len(), evo.deletions.len()),
        incremental_matches_full,
    };

    let mut table = Table::new(
        "Section 5.4: Monotonicity analysis (DBpedia snapshots)",
        &["measurement", "time"],
    );
    table.row(vec![
        "full parsimonious (old snapshot)".into(),
        fmt_duration(result.pars_full_base),
    ]);
    table.row(vec![
        "full non-parsimonious (old snapshot)".into(),
        fmt_duration(result.non_pars_full_base),
    ]);
    table.row(vec![
        "full parsimonious (new snapshot, from scratch)".into(),
        fmt_duration(result.pars_full_snapshot2),
    ]);
    table.row(vec![
        format!(
            "incremental Δ only (+{} / -{} triples)",
            result.delta_size.0, result.delta_size.1
        ),
        fmt_duration(result.delta_only),
    ]);
    table.row(vec![
        "time saved vs full recomputation".into(),
        format!("{:.2}%", result.savings_pct()),
    ]);
    (table, result)
}

// ---------------------------------------------------------------------------
// Extension (§7 future work): optimizing non-parsimonious PGs
// ---------------------------------------------------------------------------

/// Measurements of the `parsimonize` optimization pass.
#[derive(Debug, Clone, Copy)]
pub struct OptimizeResult {
    pub nodes_before: usize,
    pub nodes_after: usize,
    pub edges_before: usize,
    pub edges_after: usize,
    pub csv_bytes_before: usize,
    pub csv_bytes_after: usize,
    pub duration: Duration,
    /// Accuracy of the translated query workload on the optimized graph
    /// (must stay 100%).
    pub accuracy_after: f64,
}

/// Run the §7 "optimize the non-parsimonious PG" extension on a dataset.
pub fn optimize_experiment(dataset: Dataset, scale: Scale) -> (Table, OptimizeResult) {
    let prepared = prepare(dataset, scale);
    let out = pipeline::transform(
        &prepared.generated.graph,
        &prepared.shapes,
        Mode::NonParsimonious,
    );
    let mut pg = out.pg.clone();
    let mut schema = out.schema.clone();
    let (csv_before, _) = (s3pg_pg::csv::export(&out.pg).size_bytes(), 0);

    let t = Instant::now();
    let report = s3pg::optimize::parsimonize(&mut pg, &mut schema);
    let duration = t.elapsed();
    let csv_after = s3pg_pg::csv::export(&pg).size_bytes();

    // Quality guard: the optimized graph must answer everything.
    let queries = generate_queries(&prepared.generated.meta, 2);
    let mut total_acc = 0.0;
    for q in &queries {
        let sols = sparql::execute(&prepared.generated.graph, &q.sparql).unwrap();
        let gt = ResultSet::from_sparql(&prepared.generated.graph, &sols);
        let cypher_q = query_translate::translate_str(&q.sparql, &schema.mapping).unwrap();
        let rows = cypher::execute(&pg, &cypher_q).unwrap();
        total_acc += accuracy(&gt, &ResultSet::from_cypher(&rows));
    }
    let accuracy_after = total_acc / queries.len().max(1) as f64;

    let result = OptimizeResult {
        nodes_before: out.pg.node_count(),
        nodes_after: pg.node_count(),
        edges_before: out.pg.edge_count(),
        edges_after: pg.edge_count(),
        csv_bytes_before: csv_before,
        csv_bytes_after: csv_after,
        duration,
        accuracy_after,
    };
    let mut table = Table::new(
        format!(
            "Extension: optimizing the non-parsimonious PG ({})",
            dataset.name()
        ),
        &["measurement", "before", "after"],
    );
    table.row(vec![
        "# nodes".into(),
        result.nodes_before.to_string(),
        result.nodes_after.to_string(),
    ]);
    table.row(vec![
        "# edges".into(),
        result.edges_before.to_string(),
        result.edges_after.to_string(),
    ]);
    table.row(vec![
        "CSV bytes".into(),
        result.csv_bytes_before.to_string(),
        result.csv_bytes_after.to_string(),
    ]);
    table.row(vec![
        "carrier groups kept (hetero/multi-dt)".into(),
        "-".into(),
        report.groups_kept.to_string(),
    ]);
    table.row(vec![
        "optimization time".into(),
        "-".into(),
        fmt_duration(result.duration),
    ]);
    table.row(vec![
        "query accuracy after".into(),
        "100%".into(),
        fmt_accuracy(result.accuracy_after),
    ]);
    (table, result)
}

// ---------------------------------------------------------------------------
// Category-level accuracy summary (used by integration tests)
// ---------------------------------------------------------------------------

/// Mean accuracy per category per method.
pub fn category_summary(rows: &[AccuracyRow]) -> Vec<(QueryCategory, f64, f64, f64)> {
    QueryCategory::ALL
        .iter()
        .filter_map(|&cat| {
            let in_cat: Vec<&AccuracyRow> =
                rows.iter().filter(|r| r.query.category == cat).collect();
            if in_cat.is_empty() {
                return None;
            }
            let n = in_cat.len() as f64;
            Some((
                cat,
                in_cat.iter().map(|r| r.s3pg).sum::<f64>() / n,
                in_cat.iter().map(|r| r.neosem).sum::<f64>() / n,
                in_cat.iter().map(|r| r.rdf2pg).sum::<f64>() / n,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMALL: Scale = Scale(0.15);

    #[test]
    fn table2_has_expected_relationships() {
        let (table, stats) = table2(SMALL);
        assert_eq!(table.len(), 8);
        let by_name = |d: Dataset| stats.iter().find(|(x, _)| *x == d).unwrap().1.clone();
        // DBpedia2022 is the largest; Bio2RDF has the fewest classes.
        assert!(by_name(Dataset::DBpedia2022).triples > by_name(Dataset::DBpedia2020).triples);
        assert!(by_name(Dataset::Bio2RdfCt).classes < by_name(Dataset::DBpedia2020).classes);
    }

    #[test]
    fn table3_category_pattern_matches_paper() {
        let (_, stats) = table3(SMALL);
        let get = |d: Dataset| stats.iter().find(|(x, _)| *x == d).unwrap().1;
        // DBpedia2020 has no heterogeneous shapes; DBpedia2022 has many.
        assert_eq!(get(Dataset::DBpedia2020).multi_hetero, 0);
        assert!(get(Dataset::DBpedia2022).multi_hetero > 0);
        assert!(get(Dataset::Bio2RdfCt).multi_hetero <= 2);
    }

    #[test]
    fn table5_s3pg_produces_more_nodes() {
        let (_, rows) = table5(SMALL);
        for row in rows {
            if row.dataset == Dataset::DBpedia2020 {
                continue; // no hetero/MT-L shapes → blow-up smaller
            }
            assert!(
                row.s3pg.nodes > row.neosem.nodes,
                "{}: S3PG {} vs NeoSem {}",
                row.dataset.name(),
                row.s3pg.nodes,
                row.neosem.nodes
            );
            assert!(row.s3pg.edges > row.neosem.edges);
        }
    }

    #[test]
    fn accuracy_s3pg_always_100() {
        let (_, rows) = accuracy_table(Dataset::DBpedia2022, SMALL, 2);
        assert!(!rows.is_empty());
        for row in &rows {
            assert_eq!(
                row.s3pg, 100.0,
                "Q{} {:?}",
                row.query.id, row.query.category
            );
        }
    }

    #[test]
    fn accuracy_baselines_lossy_on_hetero() {
        let (_, rows) = accuracy_table(Dataset::DBpedia2022, Scale(0.3), 4);
        let summary = category_summary(&rows);
        let hetero = summary
            .iter()
            .find(|(c, ..)| *c == QueryCategory::MultiTypeHetero)
            .expect("hetero rows");
        assert_eq!(hetero.1, 100.0, "S3PG must be lossless");
        assert!(
            hetero.3 < 100.0,
            "rdf2pg must lose answers on hetero, got {}",
            hetero.3
        );
        // NeoSem loses only on same-node conflicts; depending on data it is
        // below or at 100, but never below rdf2pg's floor.
        assert!(hetero.2 >= hetero.3);
    }

    #[test]
    fn optimize_extension_shrinks_and_stays_complete() {
        let (_, result) = optimize_experiment(Dataset::DBpedia2022, SMALL);
        assert!(result.nodes_after < result.nodes_before);
        assert!(result.csv_bytes_after < result.csv_bytes_before);
        assert_eq!(result.accuracy_after, 100.0);
    }

    #[test]
    fn monotonicity_incremental_is_faster() {
        let (_, result) = monotonicity(Scale(0.4));
        assert!(result.delta_only < result.pars_full_snapshot2);
        assert!(
            result.savings_pct() > 20.0,
            "savings {}",
            result.savings_pct()
        );
        assert!(result.incremental_matches_full);
    }
}
