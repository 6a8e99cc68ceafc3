//! Monotonicity (Definition 3.4, Proposition 4.3):
//! `F_dt(S1) ⊆ F_dt(S2)` for `S1 ⊆ S2`, and
//! `F_dt(S2) ≅ F_dt(S1) ∪ F_dt(Δ)` — incremental application equals full
//! recomputation, including under schema evolution. A deleting delta
//! equals a recompute too: `M(PG)` is `G \ Δ⁻` as a multiset, with the
//! recompute's node and edge counts and its conformance verdict.

use s3pg::incremental::{apply_additions, apply_delta, apply_ntriples_delta};
use s3pg::inverse::recover_node;
use s3pg::pipeline::transform;
use s3pg::{transform_data, transform_schema, Mode};
use s3pg_pg::conformance;
use s3pg_query::cypher;
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::serializer::to_ntriples;
use s3pg_rdf::{Graph, Triple};
use s3pg_shacl::parser::parse_shacl_turtle;
use s3pg_shacl::{extract_shapes, ShapeSchema};
use s3pg_workloads::evolution::{evolve, EvolutionSpec};
use s3pg_workloads::spec::{generate, DatasetSpec};
use s3pg_workloads::university::{self, UniversitySpec};
use s3pg_workloads::{bio2rdf, dbpedia, generate_skewed};

/// Compare two PGs structurally: node/edge/rel-type counts and the answers
/// to a label-scan probe query.
fn assert_equivalent(a: &s3pg_pg::PropertyGraph, b: &s3pg_pg::PropertyGraph, context: &str) {
    assert_eq!(a.node_count(), b.node_count(), "{context}: node counts");
    assert_eq!(a.edge_count(), b.edge_count(), "{context}: edge counts");
    assert_eq!(
        a.relationship_type_count(),
        b.relationship_type_count(),
        "{context}: rel types"
    );
}

#[test]
fn incremental_equals_full_on_additions() {
    let spec = dbpedia::dbpedia2022(0.1);
    let base = generate(&spec);
    let shapes = extract_shapes(&base.graph);
    let evo = evolve(
        &base,
        &spec,
        &EvolutionSpec {
            delete_fraction: 0.0,
            update_fraction: 0.0,
            ..Default::default()
        },
    );
    let snapshot2 = evo.apply(&base.graph);

    for mode in [Mode::Parsimonious, Mode::NonParsimonious] {
        // Incremental path.
        let out = transform(&base.graph, &shapes, mode);
        let mut pg = out.pg;
        let mut schema = out.schema;
        let mut state = out.state;
        apply_additions(&mut pg, &mut schema, &mut state, &evo.additions);

        // Full path.
        let shapes2 = extract_shapes(&snapshot2);
        let mut schema_full = transform_schema(&shapes2, mode);
        let full = transform_data(&snapshot2, &mut schema_full, mode);

        assert_equivalent(&pg, &full.pg, &format!("additions, {mode:?}"));
    }
}

#[test]
fn incremental_equals_full_with_deletions_and_updates() {
    let spec = dbpedia::dbpedia2022(0.1);
    let base = generate(&spec);
    let shapes = extract_shapes(&base.graph);
    let evo = evolve(&base, &spec, &EvolutionSpec::default());
    let snapshot2 = evo.apply(&base.graph);

    let out = transform(&base.graph, &shapes, Mode::NonParsimonious);
    let mut pg = out.pg;
    let mut schema = out.schema;
    let mut state = out.state;
    apply_delta(
        &mut pg,
        &mut schema,
        &mut state,
        &evo.additions,
        &evo.deletions,
    );

    let shapes2 = extract_shapes(&snapshot2);
    let mut schema_full = transform_schema(&shapes2, Mode::NonParsimonious);
    let full = transform_data(&snapshot2, &mut schema_full, Mode::NonParsimonious);

    assert_eq!(pg.edge_count(), full.pg.edge_count(), "edges after delta");
    assert_eq!(pg.node_count(), full.pg.node_count(), "nodes after delta");
}

/// Seed of the deletion sample, and the share of `G` it takes.
const DELETE_SEED: u64 = 0xC4A2;
const DELETE_SHARE: f64 = 0.1;

/// The generators `tests/fdt_golden.rs` pins, with the same shapes.
fn deletion_datasets() -> Vec<(&'static str, Graph, ShapeSchema)> {
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
    ]
}

/// The statements of `graph` that `keep` admits, as a graph of their own.
fn sub_graph(graph: &Graph, keep: impl Fn(&Triple) -> bool) -> Graph {
    let mut out = Graph::new();
    for t in graph.triples().filter(|t| keep(t)) {
        let s = out.import_term(graph, t.s);
        let p = out.import_sym(graph, t.p);
        let o = out.import_term(graph, t.o);
        out.insert(s, p, o);
    }
    out
}

/// The `Δ⁻` variants: a seeded sample of about [`DELETE_SHARE`] of `G`
/// (any triple, its non-type triples, its `rdf:type` triples), and every
/// statement of the first subject that another subject references.
fn deletion_variants(graph: &Graph) -> Vec<(&'static str, Graph)> {
    let mut rng = XorShiftRng::seed_from_u64(DELETE_SEED);
    let mut sampled: Vec<Triple> = graph
        .triples()
        .filter(|_| rng.random_bool(DELETE_SHARE))
        .collect();
    sampled.sort_unstable();
    let in_sample = |t: &Triple| sampled.binary_search(t).is_ok();
    let is_type = |t: &Triple| Some(t.p) == graph.type_predicate_opt();
    let referenced = graph
        .triples()
        .find(|t| t.o.is_resource() && t.o != t.s && graph.statements_of(t.o).next().is_some())
        .expect("some subject is referenced")
        .o;
    vec![
        ("any", sub_graph(graph, |t| in_sample(t))),
        (
            "non-type",
            sub_graph(graph, |t| in_sample(t) && !is_type(t)),
        ),
        (
            "type-only",
            sub_graph(graph, |t| in_sample(t) && is_type(t)),
        ),
        (
            "referenced subject",
            sub_graph(graph, |t| t.s == referenced),
        ),
    ]
}

/// `Δ⁻` through the write path against a recompute of `G \ Δ⁻` under the
/// same shapes, on every dataset and mode: `M(PG)` equals `G \ Δ⁻` as a
/// multiset (the same set, and as many statements walked as it holds),
/// the live node and edge counts are equal, and so is the conformance
/// verdict, each side checked against its own schema.
#[test]
fn deleting_delta_equals_recompute() {
    let mut failures: Vec<String> = Vec::new();
    for (name, graph, shapes) in deletion_datasets() {
        for (variant, deletions) in deletion_variants(&graph) {
            let rest = graph.difference(&deletions);
            for mode in [Mode::Parsimonious, Mode::NonParsimonious] {
                let context = format!(
                    "{name} {mode:?} {variant} (seed {DELETE_SEED:#x}, {} of {} deleted)",
                    deletions.len(),
                    graph.len()
                );
                let mut out = transform(&graph, &shapes, mode);
                apply_ntriples_delta(
                    &mut out.pg,
                    &mut out.schema,
                    &mut out.state,
                    "",
                    &to_ntriples(&deletions),
                )
                .expect("own serialisation parses");
                let full = transform(&rest, &shapes, mode);

                let mut back = Graph::new();
                let walked: usize = out
                    .pg
                    .node_ids()
                    .map(|n| {
                        recover_node(&out.pg, &out.schema.mapping, n, None, &mut back).unwrap()
                    })
                    .sum();
                if !back.same_triples(&rest) {
                    let leaked = back.difference(&rest).len();
                    let lost = rest.difference(&back).len();
                    failures.push(format!(
                        "{context}: M(PG) != G \\ Δ⁻ ({leaked} leaked, {lost} lost)"
                    ));
                }
                if walked != rest.len() {
                    failures.push(format!(
                        "{context}: M walked {walked} statements, G \\ Δ⁻ holds {}",
                        rest.len()
                    ));
                }
                let counts = |pg: &s3pg_pg::PropertyGraph| (pg.node_count(), pg.edge_count());
                if counts(&out.pg) != counts(&full.pg) {
                    failures.push(format!(
                        "{context}: (nodes, edges) {:?}, recompute {:?}",
                        counts(&out.pg),
                        counts(&full.pg)
                    ));
                }
                let verdict = conformance::check(&out.pg, &out.schema.pg_schema);
                if verdict.conforms() != full.conformance.conforms() {
                    failures.push(format!(
                        "{context}: conforms {} with {} failures, recompute {} with {}",
                        verdict.conforms(),
                        verdict.failures.len(),
                        full.conformance.conforms(),
                        full.conformance.failures.len()
                    ));
                }
            }
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

#[test]
fn incremental_result_answers_queries_like_full() {
    let spec = dbpedia::dbpedia2022(0.1);
    let base = generate(&spec);
    let shapes = extract_shapes(&base.graph);
    let evo = evolve(&base, &spec, &EvolutionSpec::default());
    let snapshot2 = evo.apply(&base.graph);

    let out = transform(&base.graph, &shapes, Mode::NonParsimonious);
    let mut pg = out.pg;
    let mut schema = out.schema;
    let mut state = out.state;
    apply_delta(
        &mut pg,
        &mut schema,
        &mut state,
        &evo.additions,
        &evo.deletions,
    );

    let shapes2 = extract_shapes(&snapshot2);
    let full = transform(&snapshot2, &shapes2, Mode::NonParsimonious);

    // Probe with label-scan + one-hop queries over a few classes.
    for class in base.meta.classes.iter().take(3) {
        let label = s3pg_rdf::vocab::local_name(class);
        let q = format!("MATCH (n:{label}) RETURN n.iri");
        let inc = cypher::execute(&pg, &q).unwrap();
        let ful = cypher::execute(&full.pg, &q).unwrap();
        assert_eq!(inc.len(), ful.len(), "label scan {label}");
    }
}

#[test]
fn monotone_growth_f_s1_subset_f_s2() {
    // F_dt(S1) ⊆ F_dt(S2): every edge of the old PG (modulo deletions)
    // appears in the new one. With additions only, counts strictly grow.
    let spec = dbpedia::dbpedia2020(0.15);
    let base = generate(&spec);
    let shapes = extract_shapes(&base.graph);
    let out1 = transform(&base.graph, &shapes, Mode::NonParsimonious);

    let evo = evolve(
        &base,
        &spec,
        &EvolutionSpec {
            delete_fraction: 0.0,
            update_fraction: 0.0,
            ..Default::default()
        },
    );
    let snapshot2 = evo.apply(&base.graph);
    let shapes2 = extract_shapes(&snapshot2);
    let out2 = transform(&snapshot2, &shapes2, Mode::NonParsimonious);
    assert!(out2.pg.node_count() > out1.pg.node_count());
    assert!(out2.pg.edge_count() > out1.pg.edge_count());
}

#[test]
fn schema_monotone_under_type_widening() {
    // A single-type property becoming multi-type must not invalidate
    // previously transformed data in non-parsimonious mode (§4.1.1).
    let mut base = Graph::new();
    base.insert_type("http://ex/s1", "http://ex/Student");
    {
        let s = base.intern_iri("http://ex/s1");
        let p = base.intern("http://ex/regNo");
        let o = base.string_literal("Bs1");
        base.insert(s, p, o);
    }
    let shapes = extract_shapes(&base);
    let out = transform(&base, &shapes, Mode::NonParsimonious);
    let mut pg = out.pg;
    let mut schema = out.schema;
    let mut state = out.state;
    let edges_before = pg.edge_count();

    // Delta: regNo values become integers too.
    let mut delta = Graph::new();
    delta.insert_type("http://ex/s2", "http://ex/Student");
    {
        let s = delta.intern_iri("http://ex/s2");
        let p = delta.intern("http://ex/regNo");
        let o = delta.integer_literal(42);
        delta.insert(s, p, o);
    }
    apply_additions(&mut pg, &mut schema, &mut state, &delta);

    // Old data untouched, new data added, edge type widened.
    assert_eq!(pg.edge_count(), edges_before + 1);
    let et = schema
        .pg_schema
        .edge_types_by_label("regNo")
        .next()
        .expect("regNo edge type");
    assert!(et.targets.iter().any(|t| t == "stringType"));
    assert!(et.targets.iter().any(|t| t == "integerType"));
    // The widened graph still conforms.
    assert!(s3pg_pg::conformance::check(&pg, &schema.pg_schema).conforms());
}

/// Property: for any generated base + additions-only delta,
/// incremental == full (node/edge counts). Randomized over 8 seeds via the
/// in-tree deterministic RNG.
#[test]
fn random_additions_are_monotone() {
    for case in 0..8u64 {
        let mut rng = XorShiftRng::seed_from_u64(case);
        let seed = rng.random_range(0..1_000u64);
        let delta_seed = rng.random_range(0..1_000u64);
        let spec = DatasetSpec {
            name: "prop".into(),
            namespace: "http://prop.test/".into(),
            classes: 3,
            subclass_fraction: 0.3,
            instances_per_class: 10,
            single_literal: 3,
            single_non_literal: 2,
            mt_homo_literal: 1,
            mt_homo_non_literal: 1,
            mt_hetero: 2,
            density: 0.8,
            multi_value_p: 0.4,
            seed,
        };
        let base = generate(&spec);
        let shapes = extract_shapes(&base.graph);
        let evo = evolve(
            &base,
            &spec,
            &EvolutionSpec {
                delete_fraction: 0.0,
                update_fraction: 0.0,
                add_fraction: 0.1,
                seed: delta_seed,
            },
        );
        let snapshot2 = evo.apply(&base.graph);

        let out = transform(&base.graph, &shapes, Mode::NonParsimonious);
        let mut pg = out.pg;
        let mut schema = out.schema;
        let mut state = out.state;
        apply_additions(&mut pg, &mut schema, &mut state, &evo.additions);

        let shapes2 = extract_shapes(&snapshot2);
        let mut schema_full = transform_schema(&shapes2, Mode::NonParsimonious);
        let full = transform_data(&snapshot2, &mut schema_full, Mode::NonParsimonious);
        assert_eq!(
            pg.node_count(),
            full.pg.node_count(),
            "case {case} seed {seed} delta {delta_seed}"
        );
        assert_eq!(
            pg.edge_count(),
            full.pg.edge_count(),
            "case {case} seed {seed} delta {delta_seed}"
        );
    }
}
