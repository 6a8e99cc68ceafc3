//! Differential test: the sharded pipeline against its own single-shard
//! case (`threads = 1`, the sequential output `tests/fdt_golden.rs` pins) on
//! real workloads, in both modes — identical node, edge and node-property
//! counts, identical transform counters, a conforming output
//! (`PG ⊨ S_PG`), and, because three integers cannot tell two graphs
//! apart, `M(PG) = G` for every thread count.
//!
//! Entity nodes keep their ids (phase 1 does not shard); carrier-node ids,
//! edge ids and collision-suffixed names follow shard order.

use s3pg::inverse::recover_graph;
use s3pg::pipeline::{transform, transform_with, PipelineConfig, TransformOutput};
use s3pg::Mode;
use s3pg_pg::PropertyGraph;
use s3pg_rdf::Graph;
use s3pg_shacl::parser::parse_shacl_turtle;
use s3pg_shacl::{extract_shapes, ShapeSchema};
use s3pg_workloads::dbpedia;
use s3pg_workloads::evolution::{self, EvolutionSpec};
use s3pg_workloads::spec::generate;
use s3pg_workloads::university::{self, UniversitySpec};

const THREADS: [usize; 3] = [2, 3, 8];

fn counts(pg: &PropertyGraph) -> (usize, usize, usize) {
    let node_props: usize = pg.node_ids().map(|n| pg.node(n).props.len()).sum();
    (pg.node_count(), pg.edge_count(), node_props)
}

fn assert_isomorphic(graph: &Graph, shapes: &ShapeSchema, label: &str) {
    for mode in [Mode::Parsimonious, Mode::NonParsimonious] {
        let seq = transform(graph, shapes, mode);
        assert!(
            seq.conformance.conforms(),
            "{label} {mode:?} sequential: {:?}",
            seq.conformance.failures
        );
        let recovered = |out: &TransformOutput| {
            recover_graph(&out.pg, &out.schema.mapping).expect("inverse mapping")
        };
        assert!(
            recovered(&seq).same_triples(graph),
            "{label} {mode:?} single shard: M(PG) != G"
        );
        for threads in THREADS {
            let par = transform_with(graph, shapes, mode, PipelineConfig { threads });
            assert_eq!(
                counts(&par.pg),
                counts(&seq.pg),
                "{label} {mode:?} {threads} threads: counts diverged"
            );
            assert_eq!(
                par.counters, seq.counters,
                "{label} {mode:?} {threads} threads: counters diverged"
            );
            assert!(
                par.conformance.conforms(),
                "{label} {mode:?} {threads} threads: {:?}",
                par.conformance.failures
            );
            assert!(
                recovered(&par).same_triples(graph),
                "{label} {mode:?} {threads} threads: M(PG) != G"
            );
            assert_eq!(par.metrics.shard_triples.len(), threads);
        }
    }
}

#[test]
fn university_workload_parallel_matches_sequential() {
    let graph = university::generate(&UniversitySpec {
        departments: 4,
        professors: 25,
        students: 150,
        courses: 40,
        seed: 11,
    });
    let shapes = parse_shacl_turtle(university::shacl_schema()).expect("university schema");
    assert_isomorphic(&graph, &shapes, "university");
}

#[test]
fn evolution_workload_parallel_matches_sequential() {
    let spec = dbpedia::dbpedia2022(0.25);
    let base = generate(&spec);
    let evo = evolution::evolve(&base, &spec, &EvolutionSpec::default());
    let snapshot2 = evo.apply(&base.graph);
    let shapes = extract_shapes(&snapshot2);
    assert_isomorphic(&snapshot2, &shapes, "evolution snapshot2");
}
