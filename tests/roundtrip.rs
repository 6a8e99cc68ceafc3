//! Information preservation (Proposition 4.1) across the whole pipeline:
//! `M(F_dt(G)) = G` and `N(F_st(S)) = S` on generated workloads, in both
//! modes, including randomized tests over generated datasets (driven by the
//! in-tree deterministic RNG; each case reproduces from its seed).

use s3pg::inverse::{recover_graph, recover_schema};
use s3pg::pipeline::transform;
use s3pg::Mode;
use s3pg_rdf::rng::XorShiftRng;
use s3pg_shacl::parser::parse_shacl_turtle;
use s3pg_shacl::{extract_shapes, ShapeSchema};
use s3pg_workloads::evolution::{self, EvolutionSpec};
use s3pg_workloads::spec::{generate, DatasetSpec};
use s3pg_workloads::university::{self, UniversitySpec};
use s3pg_workloads::{bio2rdf, dbpedia};

fn roundtrip_graph(graph: &s3pg_rdf::Graph, mode: Mode) {
    let shapes = extract_shapes(graph);
    let out = transform(graph, &shapes, mode);
    let recovered = recover_graph(&out.pg, &out.schema.mapping).expect("inverse mapping");
    assert_eq!(
        recovered.len(),
        graph.len(),
        "recovered triple count differs ({} vs {}) in {mode:?}",
        recovered.len(),
        graph.len()
    );
    assert!(
        recovered.same_triples(graph),
        "recovered graph differs from source in {mode:?}"
    );
}

/// `PG ⊨ S_PG` and `M(PG) = G` in both modes under the given shapes.
fn conforms_and_roundtrips(graph: &s3pg_rdf::Graph, shapes: &ShapeSchema, label: &str) {
    for mode in [Mode::Parsimonious, Mode::NonParsimonious] {
        let out = transform(graph, shapes, mode);
        assert!(
            out.conformance.conforms(),
            "{label} {mode:?}: {:?}",
            out.conformance.failures
        );
        let recovered = recover_graph(&out.pg, &out.schema.mapping).expect("inverse mapping");
        assert!(
            recovered.same_triples(graph),
            "{label} {mode:?}: M(PG) != G"
        );
    }
}

#[test]
fn university_with_fig2b_shapes_conforms_and_roundtrips() {
    let graph = university::generate(&UniversitySpec {
        departments: 4,
        professors: 25,
        students: 150,
        courses: 40,
        seed: 11,
    });
    let shapes = parse_shacl_turtle(university::shacl_schema()).expect("university schema");
    conforms_and_roundtrips(&graph, &shapes, "university");
}

#[test]
fn evolution_snapshot2_conforms_and_roundtrips() {
    let spec = dbpedia::dbpedia2022(0.25);
    let base = generate(&spec);
    let evo = evolution::evolve(&base, &spec, &EvolutionSpec::default());
    let snapshot2 = evo.apply(&base.graph);
    let shapes = extract_shapes(&snapshot2);
    conforms_and_roundtrips(&snapshot2, &shapes, "evolution snapshot2");
}

#[test]
fn university_roundtrips_in_both_modes() {
    let graph = university::generate(&UniversitySpec::default());
    roundtrip_graph(&graph, Mode::Parsimonious);
    roundtrip_graph(&graph, Mode::NonParsimonious);
}

#[test]
fn dbpedia2020_roundtrips() {
    let dataset = generate(&dbpedia::dbpedia2020(0.2));
    roundtrip_graph(&dataset.graph, Mode::Parsimonious);
}

#[test]
fn dbpedia2022_roundtrips() {
    let dataset = generate(&dbpedia::dbpedia2022(0.15));
    roundtrip_graph(&dataset.graph, Mode::Parsimonious);
    roundtrip_graph(&dataset.graph, Mode::NonParsimonious);
}

#[test]
fn bio2rdf_roundtrips() {
    let dataset = generate(&bio2rdf::bio2rdf_ct(0.15));
    roundtrip_graph(&dataset.graph, Mode::Parsimonious);
}

#[test]
fn schema_roundtrips_on_extracted_shapes() {
    for spec in [dbpedia::dbpedia2020(0.15), bio2rdf::bio2rdf_ct(0.1)] {
        let dataset = generate(&spec);
        let shapes = extract_shapes(&dataset.graph);
        for mode in [Mode::Parsimonious, Mode::NonParsimonious] {
            let st = s3pg::transform_schema(&shapes, mode);
            let recovered = recover_schema(&st);
            assert_eq!(
                recovered, shapes,
                "N(F_st(S)) ≠ S for {} in {mode:?}",
                spec.name
            );
        }
    }
}

#[test]
fn csv_load_preserves_roundtrip() {
    // The inverse must also work after the CSV bulk load stage.
    let graph = university::generate(&UniversitySpec::default());
    let shapes = extract_shapes(&graph);
    let out = transform(&graph, &shapes, Mode::Parsimonious);
    let (loaded, _) = s3pg::pipeline::load(&out.pg);
    let recovered = recover_graph(&loaded, &out.schema.mapping).expect("inverse after load");
    assert!(recovered.same_triples(&graph));
}

/// Property: any generated dataset round-trips exactly, whatever the seed
/// and category mix.
#[test]
fn random_datasets_roundtrip() {
    for case in 0..12u64 {
        let mut rng = XorShiftRng::seed_from_u64(case);
        let seed = rng.random_range(0..10_000u64);
        let spec = DatasetSpec {
            name: "prop".into(),
            namespace: "http://prop.test/".into(),
            classes: rng.random_range(2..6usize),
            subclass_fraction: 0.3,
            instances_per_class: 8,
            single_literal: rng.random_range(0..6usize),
            single_non_literal: rng.random_range(0..4usize),
            mt_homo_literal: rng.random_range(0..4usize),
            mt_homo_non_literal: 1,
            mt_hetero: rng.random_range(0..4usize),
            density: 0.8,
            multi_value_p: 0.4,
            seed,
        };
        let dataset = generate(&spec);
        let shapes = extract_shapes(&dataset.graph);
        for mode in [Mode::Parsimonious, Mode::NonParsimonious] {
            let out = transform(&dataset.graph, &shapes, mode);
            let recovered = recover_graph(&out.pg, &out.schema.mapping).unwrap();
            assert!(
                recovered.same_triples(&dataset.graph),
                "mode {mode:?} case {case} seed {seed}"
            );
        }
    }
}

/// Property: schema transformation is invertible for any extracted schema.
#[test]
fn random_schemas_roundtrip() {
    for case in 0..12u64 {
        let mut rng = XorShiftRng::seed_from_u64(1_000 + case);
        let seed = rng.random_range(0..10_000u64);
        let spec = DatasetSpec {
            name: "prop".into(),
            namespace: "http://prop.test/".into(),
            classes: 4,
            subclass_fraction: 0.4,
            instances_per_class: 6,
            single_literal: 3,
            single_non_literal: 2,
            mt_homo_literal: 2,
            mt_homo_non_literal: 1,
            mt_hetero: 2,
            density: 0.9,
            multi_value_p: 0.3,
            seed,
        };
        let dataset = generate(&spec);
        let shapes = extract_shapes(&dataset.graph);
        let st = s3pg::transform_schema(&shapes, Mode::Parsimonious);
        assert_eq!(recover_schema(&st), shapes, "case {case} seed {seed}");
    }
}
