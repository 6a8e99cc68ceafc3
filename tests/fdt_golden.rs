//! Golden digests of `F_dt`: the property graph (node ids, edge ids,
//! labels, records), the widened `S_PG`, and the writer-side state
//! (`Mapping`, `TransformState`, the PG's label/key interning order) for
//! every generator × mode, one-shot, after a delta sequence, and after a
//! sample of the triples is deleted and re-added (`churn`).
//!
//! The one-shot and delta digests were recorded from the string-keyed
//! phase-2 loop (`ingest_phase2` at bcb45ff) before it was replaced by the
//! symbol-table phase 2; the `churn` digests from the first delete path
//! that re-derives every subject a deletion touches. They must never
//! change unasked. A `compact.bin` adopted on restart was frozen from a PG
//! with these node and edge ids, and a replica replaying the same WAL
//! re-derives them, so "isomorphic" is not enough here: ids, label
//! registration order and schema registration order are all pinned.
//!
//! To re-record after an *intended* change of the mapping, paste the
//! `actual` digests a failing assertion prints.

use s3pg::incremental::apply_ntriples_delta;
use s3pg::inverse::recover_node;
use s3pg::pipeline::{transform, TransformOutput};
use s3pg::{Mode, SchemaTransform, TransformState};
use s3pg_pg::ddl::to_ddl;
use s3pg_pg::{csv, PropertyGraph};
use s3pg_rdf::crc32::Crc32;
use s3pg_rdf::parser::{parse_ntriples, parse_turtle};
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::serializer::to_ntriples;
use s3pg_rdf::Graph;
use s3pg_shacl::parser::parse_shacl_turtle;
use s3pg_shacl::{extract_shapes, ShapeSchema};
use s3pg_workloads::evolution::random_entity_split;
use s3pg_workloads::spec::generate;
use s3pg_workloads::university::{self, UniversitySpec};
use s3pg_workloads::{bio2rdf, dbpedia, generate_skewed};

/// Seed of every random split below (in every assertion message too).
const SPLIT_SEED: u64 = 0x601D;
const BATCHES: usize = 5;
/// Seed of the `churn` path's sample, and the share of triples it takes.
const CHURN_SEED: u64 = 0xC4A2;
const CHURN_SHARE: f64 = 0.1;

/// What the paper's generators never emit but the mapping must still pin:
/// blank-node subjects and objects, language tags, a non-canonical
/// integer, an untyped subject, forward and backward references, an IRI
/// object under a key/value handling, and an out-of-schema predicate.
const EDGE_CASES: &str = r#"
@prefix : <http://ex/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
:late :name "Late" ; :knows :bob .
:bob a :Person ; :name "Bob" ; :age "042"^^xsd:integer ; :knows _:anon, :late, :nobody .
_:anon a :Person ; :name "Anon"@en ; :knows :bob ; :age 7 .
:carol a :Person, :Student ; :name :bob ; :regNo "R1" ; :surprise "boo", 3.5 ; :knows _:loose .
_:loose :name "Loose" .
:late a :Student ; :regNo "R2", "R3" .
"#;

const EDGE_SHAPES: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .
shape:Person a sh:NodeShape ; sh:targetClass :Person ;
    sh:property [ sh:path :name ; sh:datatype xsd:string ; sh:minCount 1 ; sh:maxCount 1 ] ;
    sh:property [ sh:path :age ; sh:datatype xsd:integer ; sh:maxCount 1 ] ;
    sh:property [ sh:path :knows ; sh:class :Person ; sh:minCount 0 ] .
shape:Student a sh:NodeShape ; sh:targetClass :Student ;
    sh:property [ sh:path :regNo ; sh:datatype xsd:string ; sh:minCount 1 ; sh:maxCount 1 ] .
"#;

fn datasets() -> Vec<(&'static str, Graph, ShapeSchema)> {
    let extracted = |graph: Graph| {
        let shapes = extract_shapes(&graph);
        (graph, shapes)
    };
    let (dbpedia, dbpedia_shapes) = extracted(generate(&dbpedia::dbpedia2022(0.25)).graph);
    let (skew, skew_shapes) = extracted(generate_skewed(0.5, 0xD1CE).graph);
    let (bio, bio_shapes) = extracted(generate(&bio2rdf::bio2rdf_ct(0.1)).graph);
    vec![
        ("dbpedia", dbpedia, dbpedia_shapes),
        ("skew", skew, skew_shapes),
        (
            "university",
            university::generate(&UniversitySpec::default()),
            parse_shacl_turtle(university::shacl_schema()).expect("university schema"),
        ),
        ("bio2rdf", bio, bio_shapes),
        (
            "edge-cases",
            parse_turtle(EDGE_CASES).expect("edge-case data"),
            parse_shacl_turtle(EDGE_SHAPES).expect("edge-case shapes"),
        ),
    ]
}

fn crc_of(parts: &[&str]) -> u32 {
    let mut crc = Crc32::new();
    for part in parts {
        crc.update(part.as_bytes());
        crc.update(&[0]);
    }
    crc.finish()
}

/// CRC-32 of the CSV export plus the DDL of the widened schema: what a
/// reader of the transformed graph can see.
fn output_digest(pg: &PropertyGraph, schema: &SchemaTransform) -> u32 {
    let exported = csv::export(pg);
    crc_of(&[
        &exported.nodes,
        &exported.relationships,
        &to_ddl(&schema.pg_schema),
    ])
}

/// CRC-32 of what only the writer sees: the PG's interning order (the
/// symbol numbering a frozen image is written in) and the string-keyed
/// `Mapping` and `TransformState`, hash maps rendered in key order.
fn state_digest(pg: &PropertyGraph, schema: &SchemaTransform, state: &TransformState) -> u32 {
    fn sorted<K: std::fmt::Debug, V: std::fmt::Debug>(
        entries: impl Iterator<Item = (K, V)>,
    ) -> String {
        let mut lines: Vec<String> = entries.map(|(k, v)| format!("{k:?}={v:?}")).collect();
        lines.sort();
        lines.join("\n")
    }
    let interned: Vec<&str> = pg.interner().iter().map(|(_, s)| s).collect();
    let m = &schema.mapping;
    let widen_cache = state.widen_cache.iter().map(|(k, targets)| {
        let mut targets: Vec<&String> = targets.iter().collect();
        targets.sort();
        (k, targets)
    });
    crc_of(&[
        &interned.join("\n"),
        &sorted(m.type_of_class.iter()),
        &sorted(m.label_of_class.iter()),
        &sorted(m.key_of_pred.iter()),
        &sorted(m.edge_label_of_pred.iter()),
        &sorted(m.carrier_of_datatype.iter()),
        &sorted(state.entity_types.iter()),
        &sorted(state.pending_refs.iter()),
        &sorted(widen_cache),
    ])
}

fn digests(out: &TransformOutput) -> (u32, u32) {
    (
        output_digest(&out.pg, &out.schema),
        state_digest(&out.pg, &out.schema, &out.state),
    )
}

/// `graph` folded in as [`BATCHES`] N-Triples deltas on top of the
/// transform of the empty graph — the server's write path.
fn batched(graph: &Graph, shapes: &ShapeSchema, mode: Mode) -> TransformOutput {
    let mut rng = XorShiftRng::seed_from_u64(SPLIT_SEED);
    let mut out = transform(&Graph::new(), shapes, mode);
    for batch in random_entity_split(graph, BATCHES, &mut rng) {
        apply_ntriples_delta(
            &mut out.pg,
            &mut out.schema,
            &mut out.state,
            &to_ntriples(&batch),
            "",
        )
        .expect("own serialisation parses");
    }
    out
}

/// [`batched`], then a seeded sample of about [`CHURN_SHARE`] of `graph`'s
/// triples deleted in one N-Triples delta and re-added in the next: the
/// deleting deltas the server's write path takes.
fn churned(graph: &Graph, shapes: &ShapeSchema, mode: Mode) -> TransformOutput {
    let mut out = batched(graph, shapes, mode);
    let mut rng = XorShiftRng::seed_from_u64(CHURN_SEED);
    let mut sample = Graph::new();
    for t in graph.triples() {
        if rng.random_bool(CHURN_SHARE) {
            let s = sample.import_term(graph, t.s);
            let p = sample.import_sym(graph, t.p);
            let o = sample.import_term(graph, t.o);
            sample.insert(s, p, o);
        }
    }
    let sample = to_ntriples(&sample);
    for (additions, deletions) in [("", sample.as_str()), (sample.as_str(), "")] {
        apply_ntriples_delta(
            &mut out.pg,
            &mut out.schema,
            &mut out.state,
            additions,
            deletions,
        )
        .expect("own serialisation parses");
    }
    out
}

/// `(dataset, mode, path) → (output digest, state digest)`. The one-shot
/// and `deltas` entries were recorded at bcb45ff, the `churn` entries when
/// deletions began to re-derive the subjects they touch.
const GOLDEN: &[(&str, &str, &str, u32, u32)] = &[
    (
        "dbpedia",
        "parsimonious",
        "one-shot",
        0x6eb62665,
        0xe715052c,
    ),
    ("dbpedia", "parsimonious", "deltas", 0xb093ae6a, 0x707ba289),
    (
        "dbpedia",
        "non-parsimonious",
        "one-shot",
        0x2274aad2,
        0x99b8c92e,
    ),
    (
        "dbpedia",
        "non-parsimonious",
        "deltas",
        0x8e777e4a,
        0x8dab81b9,
    ),
    ("skew", "parsimonious", "one-shot", 0x25f929cd, 0xbbb51711),
    ("skew", "parsimonious", "deltas", 0x75513696, 0xe89646a8),
    (
        "skew",
        "non-parsimonious",
        "one-shot",
        0xe93b0349,
        0xffdff17a,
    ),
    ("skew", "non-parsimonious", "deltas", 0xb480ed6b, 0xadd2e417),
    (
        "university",
        "parsimonious",
        "one-shot",
        0x58a42ae1,
        0x0f3e91d8,
    ),
    (
        "university",
        "parsimonious",
        "deltas",
        0xc35c5e18,
        0xd63da2ea,
    ),
    (
        "university",
        "non-parsimonious",
        "one-shot",
        0x51a11fbd,
        0x637fa75d,
    ),
    (
        "university",
        "non-parsimonious",
        "deltas",
        0xc1856b7d,
        0x5c8a17eb,
    ),
    (
        "bio2rdf",
        "parsimonious",
        "one-shot",
        0xdbe7247a,
        0x1665a4b0,
    ),
    ("bio2rdf", "parsimonious", "deltas", 0xc8638759, 0xc9f79a97),
    (
        "bio2rdf",
        "non-parsimonious",
        "one-shot",
        0x04ce6c47,
        0x47ac6c97,
    ),
    (
        "bio2rdf",
        "non-parsimonious",
        "deltas",
        0x6aeb5a42,
        0xc2c7e2c4,
    ),
    (
        "edge-cases",
        "parsimonious",
        "one-shot",
        0x77d98f51,
        0x317967d6,
    ),
    (
        "edge-cases",
        "parsimonious",
        "deltas",
        0x326b0305,
        0xe40ad45b,
    ),
    (
        "edge-cases",
        "non-parsimonious",
        "one-shot",
        0xe6eda863,
        0x8515b929,
    ),
    (
        "edge-cases",
        "non-parsimonious",
        "deltas",
        0xea613101,
        0x9bc673a7,
    ),
    ("dbpedia", "parsimonious", "churn", 0x560ae3c2, 0x58089cd1),
    (
        "dbpedia",
        "non-parsimonious",
        "churn",
        0x5e5bf279,
        0x95f8aea1,
    ),
    ("skew", "parsimonious", "churn", 0xf9709038, 0xad8c3fa7),
    ("skew", "non-parsimonious", "churn", 0xe603d63a, 0x241c5647),
    (
        "university",
        "parsimonious",
        "churn",
        0xdecff05e,
        0xfcbd1536,
    ),
    (
        "university",
        "non-parsimonious",
        "churn",
        0x352df559,
        0xa3a5e147,
    ),
    ("bio2rdf", "parsimonious", "churn", 0x1967c312, 0x6b835b73),
    (
        "bio2rdf",
        "non-parsimonious",
        "churn",
        0xef17e932,
        0xb263c425,
    ),
    (
        "edge-cases",
        "parsimonious",
        "churn",
        0x6adbb13f,
        0xb7adfdca,
    ),
    (
        "edge-cases",
        "non-parsimonious",
        "churn",
        0xb80c8088,
        0x006cdd6f,
    ),
];

#[test]
fn f_dt_output_is_pinned_for_every_generator_mode_and_path() {
    let mut seen = 0;
    let mut mismatches: Vec<String> = Vec::new();
    for (name, graph, shapes) in datasets() {
        // The text the pipeline really starts from: interning order is the
        // parser's, not the generator's.
        let graph = parse_ntriples(&to_ntriples(&graph)).expect("own serialisation parses");
        for (mode, mode_name) in [
            (Mode::Parsimonious, "parsimonious"),
            (Mode::NonParsimonious, "non-parsimonious"),
        ] {
            let runs = [
                ("one-shot", transform(&graph, &shapes, mode)),
                ("deltas", batched(&graph, &shapes, mode)),
                ("churn", churned(&graph, &shapes, mode)),
            ];
            for (path, out) in runs {
                let context = format!(
                    "{name} {mode_name} {path} (split seed {SPLIT_SEED:#x}, {BATCHES} batches, \
                     churn seed {CHURN_SEED:#x})"
                );
                // Deleting and re-adding a sample gives G back: as many
                // statements as G holds, none twice.
                let mut back = Graph::new();
                let walked: usize = out
                    .pg
                    .node_ids()
                    .map(|n| {
                        recover_node(&out.pg, &out.schema.mapping, n, None, &mut back).unwrap()
                    })
                    .sum();
                assert!(
                    walked == graph.len() && back.same_triples(&graph),
                    "{context}: M walked {walked} statements, {} distinct, G holds {}",
                    back.len(),
                    graph.len()
                );
                let (output, state) = digests(&out);
                let golden = GOLDEN
                    .iter()
                    .find(|g| (g.0, g.1, g.2) == (name, mode_name, path))
                    .unwrap_or_else(|| panic!("no golden entry for {name} {mode_name} {path}"));
                if (output, state) != (golden.3, golden.4) {
                    mismatches.push(format!(
                        "{context}: F_dt no longer produces the recorded (output, state) \
                         digests: actual ({output:#010x}, {state:#010x}), recorded \
                         ({:#010x}, {:#010x})",
                        golden.3, golden.4
                    ));
                }
                seen += 1;
            }
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
    assert_eq!(seen, GOLDEN.len(), "stale golden entries");
}
