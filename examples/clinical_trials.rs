//! Domain-specific scenario: the Bio2RDF Clinical Trials emulation.
//!
//! Generates the Bio2RDF-CT workload, extracts its SHACL schema (the QSE
//! substitute), transforms it with S3PG, and answers a clinical-trials
//! style question over both models, comparing the answers.
//!
//! ```sh
//! cargo run --release --example clinical_trials
//! ```

use s3pg::pipeline::{load, transform};
use s3pg::query_translate;
use s3pg::Mode;
use s3pg_pg::PgStats;
use s3pg_query::results::{accuracy, ResultSet};
use s3pg_query::{cypher, sparql};
use s3pg_rdf::DatasetStats;
use s3pg_shacl::{extract_shapes, SchemaStats};
use s3pg_workloads::bio2rdf;
use s3pg_workloads::spec::generate;
use s3pg_workloads::QueryCategory;

fn main() {
    // 1. Generate the Bio2RDF-CT emulation (see DESIGN.md §3 for why a
    //    synthetic stand-in preserves the relevant behaviour).
    let spec = bio2rdf::bio2rdf_ct(0.5);
    let dataset = generate(&spec);
    let stats = DatasetStats::of(&dataset.graph);
    println!(
        "Bio2RDF-CT emulation: {} triples, {} instances, {} classes, {} properties",
        stats.triples, stats.instances, stats.classes, stats.properties
    );

    // 2. Extract the SHACL schema from the data.
    let shapes = extract_shapes(&dataset.graph);
    let shape_stats = SchemaStats::of(&shapes);
    println!(
        "extracted shapes: {} node shapes, {} property shapes ({} single-type, {} multi-type)",
        shape_stats.node_shapes,
        shape_stats.property_shapes,
        shape_stats.single_type,
        shape_stats.multi_type
    );

    // 3. Transform and load.
    let out = transform(&dataset.graph, &shapes, Mode::Parsimonious);
    let (loaded, load_time) = load(&out.pg);
    let pg_stats = PgStats::of(&loaded);
    println!(
        "S3PG transform: {:?} (+ {:?} load) → {} nodes, {} edges, {} rel types",
        out.metrics.transform_wall(),
        load_time,
        pg_stats.nodes,
        pg_stats.edges,
        pg_stats.rel_types
    );
    assert!(out.conformance.conforms(), "PG ⊨ S_PG");

    // 4. Ask a domain question over both models: pick one multi-type
    //    homogeneous literal property (e.g. a trial attribute recorded in
    //    several formats) and compare answers.
    let prop = dataset
        .meta
        .by_category(s3pg_shacl::PsCategory::MultiTypeHomoLiteral)
        .first()
        .cloned()
        .cloned()
        .expect("Bio2RDF has multi-type literal properties");
    let sparql_q = format!(
        "SELECT ?trial ?value WHERE {{ ?trial a <{}> . ?trial <{}> ?value . }}",
        prop.class, prop.predicate
    );
    let sols = sparql::execute(&dataset.graph, &sparql_q).unwrap();
    let gt = ResultSet::from_sparql(&dataset.graph, &sols);

    let cypher_q = query_translate::translate_str(&sparql_q, &out.schema.mapping).unwrap();
    let rows = cypher::execute(&loaded, &cypher_q).unwrap();
    let observed = ResultSet::from_cypher(&rows);

    println!(
        "\n{} query ({} recorded formats): SPARQL answers = {}, Cypher answers = {}, accuracy = {:.1}%",
        QueryCategory::MultiTypeHomoLiteral.name(),
        prop.datatypes.len(),
        gt.len(),
        observed.len(),
        accuracy(&gt, &observed)
    );
    assert_eq!(accuracy(&gt, &observed), 100.0);
    println!("query preservation holds on the loaded graph ✓");
}
