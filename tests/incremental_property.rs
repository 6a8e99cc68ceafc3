//! Property-style tests for `s3pg::incremental` (§4.2.1): a workload
//! split at random into a sequence of delta batches and applied through
//! the monotone update algorithm must yield a PG isomorphic to the
//! one-shot transform of the whole graph — in both modes.
//!
//! Splits are drawn with the in-tree deterministic RNG at *entity*
//! granularity: every triple travels in the batch of its subject, so each
//! delta is a well-formed graph fragment (an entity arrives with its type
//! statements), which is the delta contract the serving write path
//! enforces too. Objects may be forward references to entities of later
//! batches — the algorithm must create the placeholder and upgrade it
//! when the entity's own batch lands.

use s3pg::incremental::apply_additions;
use s3pg::inverse::recover_graph;
use s3pg::pipeline::transform;
use s3pg::Mode;
use s3pg_pg::conformance;
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::Graph;
use s3pg_shacl::extract_shapes;
use s3pg_workloads::evolution::random_entity_split;
use s3pg_workloads::spec::{generate, DatasetSpec};

fn workload(seed: u64) -> Graph {
    generate(&DatasetSpec {
        name: "incprop".into(),
        namespace: "http://incprop.test/".into(),
        classes: 4,
        subclass_fraction: 0.25,
        instances_per_class: 12,
        single_literal: 3,
        single_non_literal: 2,
        mt_homo_literal: 1,
        mt_homo_non_literal: 1,
        mt_hetero: 1,
        density: 0.7,
        multi_value_p: 0.3,
        seed,
    })
    .graph
}

/// The property itself: for `graph` under `shapes`, applying a random
/// batch split incrementally equals the one-shot transform.
fn assert_batched_equals_one_shot(graph: &Graph, mode: Mode, batches: usize, rng_seed: u64) {
    let shapes = extract_shapes(graph);
    let full = transform(graph, &shapes, mode);

    let mut rng = XorShiftRng::seed_from_u64(rng_seed);
    let split = random_entity_split(graph, batches, &mut rng);
    assert_eq!(split.len(), batches);

    // Start from the transform of the empty graph and fold the batches in.
    let empty = Graph::new();
    let out = transform(&empty, &shapes, mode);
    let (mut pg, mut schema, mut state) = (out.pg, out.schema, out.state);
    for batch in &split {
        apply_additions(&mut pg, &mut schema, &mut state, batch);
    }

    let context = format!("{mode:?}, {batches} batches, rng {rng_seed}");
    assert_eq!(pg.node_count(), full.pg.node_count(), "{context}: nodes");
    assert_eq!(pg.edge_count(), full.pg.edge_count(), "{context}: edges");
    assert_eq!(
        pg.relationship_type_count(),
        full.pg.relationship_type_count(),
        "{context}: rel types"
    );

    // Isomorphism through the inverse mapping: both PGs recover the same
    // source triples (Definition 3.4 / Theorem 4.2 round-trip).
    let from_batched = recover_graph(&pg, &schema.mapping).expect("inverse of batched");
    let from_full = recover_graph(&full.pg, &full.schema.mapping).expect("inverse of full");
    assert!(
        from_batched.same_triples(&from_full),
        "{context}: recovered graphs differ"
    );

    // And the batched result still conforms to its (widened) schema.
    assert!(
        conformance::check(&pg, &schema.pg_schema).conforms(),
        "{context}: batched PG must conform to S_PG"
    );
}

#[test]
fn random_batch_splits_match_one_shot_parsimonious() {
    for case in 0..6u64 {
        let graph = workload(100 + case);
        let batches = 2 + (case as usize % 4);
        assert_batched_equals_one_shot(&graph, Mode::Parsimonious, batches, 9000 + case);
    }
}

#[test]
fn random_batch_splits_match_one_shot_non_parsimonious() {
    for case in 0..6u64 {
        let graph = workload(200 + case);
        let batches = 2 + (case as usize % 4);
        assert_batched_equals_one_shot(&graph, Mode::NonParsimonious, batches, 7000 + case);
    }
}

#[test]
fn single_batch_split_is_the_identity_case() {
    // Degenerate split: one batch containing everything must equal the
    // one-shot transform trivially — a sanity anchor for the property.
    let graph = workload(300);
    for mode in [Mode::Parsimonious, Mode::NonParsimonious] {
        assert_batched_equals_one_shot(&graph, mode, 1, 1);
    }
}

#[test]
fn many_tiny_batches_still_converge() {
    // Stress the per-entity path: more batches than entities means most
    // deltas hold zero or one entity.
    let graph = workload(400);
    assert_batched_equals_one_shot(&graph, Mode::NonParsimonious, 64, 5);
}
