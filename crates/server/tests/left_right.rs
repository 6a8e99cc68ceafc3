//! Left-right snapshot publication (`store.rs`): the store keeps two
//! publishable sides and alternates between them, so these tests pin what
//! readers are promised — every published snapshot is byte-identical to
//! what plain "apply sequentially, then deep-copy" publication would have
//! produced, a held snapshot never changes, and the fallback copy is taken
//! exactly when something still holds the standby.
//!
//! Snapshots are compared by fingerprint: the source graph as N-Triples
//! (insertion order) and the PG frozen and serialized with
//! `CompactGraph::write_to` — equal fingerprints mean equal down to node
//! ids and dictionary order. Every published `PG ⊨ S_PG` verdict, which
//! the store derives from the previous one and what changed, must also be
//! what a fresh whole-graph check of the reference says.

use s3pg::incremental::parse_delta;
use s3pg::pipeline::transform;
use s3pg::Mode;
use s3pg_obs::Registry;
use s3pg_pg::{conformance, PropertyGraph};
use s3pg_query::{cypher, sparql};
use s3pg_rdf::parser::{parse_ntriples, parse_turtle};
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::serializer::to_ntriples;
use s3pg_rdf::Graph;
use s3pg_server::store::{GraphStore, StoreParts};
use s3pg_shacl::parser::parse_shacl_turtle;
use s3pg_shacl::{extract_shapes, ShapeSchema};
use s3pg_workloads::evolution::random_entity_split;
use s3pg_workloads::spec::{generate, DatasetSpec};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

type Fingerprint = (String, Vec<u8>);

fn fingerprint(rdf: &Graph, pg: &PropertyGraph) -> Fingerprint {
    let mut frozen = Vec::new();
    pg.freeze().write_to(&mut frozen).unwrap();
    (to_ntriples(rdf), frozen)
}

fn published(store: &GraphStore) -> Fingerprint {
    let snap = store.snapshot();
    fingerprint(&snap.rdf, &snap.pg)
}

/// The publication scheme the store replaced: one writer-side state,
/// deltas applied to it in order, both stores deep-copied per update.
struct Reference(StoreParts);

impl Reference {
    fn apply(&mut self, additions: &str, deletions: &str) -> Fingerprint {
        let (add, del) = parse_delta(additions, deletions).unwrap();
        self.0.apply(&add, &del);
        let (rdf, pg) = (self.0.rdf.clone(), self.0.pg.clone());
        fingerprint(&rdf, &pg)
    }

    /// The published report, `conforms` and nonconforming-elements gauge
    /// against a fresh `check` of the reference's state.
    fn assert_verdict_published(&self, store: &GraphStore, context: &str) {
        let fresh = conformance::check(&self.0.pg, &self.0.schema.pg_schema);
        let snap = store.snapshot();
        assert_eq!(
            format!("{:?}", snap.conformance),
            format!("{fresh:?}"),
            "{context}: published report differs from a fresh check"
        );
        assert_eq!(snap.conforms(), fresh.conforms(), "{context}: conforms");
        assert_eq!(
            store
                .registry()
                .gauge("s3pg_snapshot_nonconforming_elements")
                .get(),
            fresh.failures.len() as f64,
            "{context}: s3pg_snapshot_nonconforming_elements"
        );
    }
}

/// A store and a reference over equal copies of `F_dt(rdf)`.
fn store_and_reference(rdf: Graph, shapes: &ShapeSchema, mode: Mode) -> (GraphStore, Reference) {
    let out = transform(&rdf, shapes, mode);
    let reference = Reference(StoreParts {
        rdf: rdf.clone(),
        pg: out.pg.clone(),
        schema: out.schema.clone(),
        state: out.state.clone(),
        conformance: None,
    });
    let parts = StoreParts {
        rdf,
        pg: out.pg,
        schema: out.schema,
        state: out.state,
        conformance: Some(out.conformance),
    };
    let store = GraphStore::from_parts(parts, Arc::new(Registry::new()), None, 0, None);
    (store, reference)
}

/// Wait until the live snapshot's freeze has landed and its thread has let
/// go of it, so the next-but-one update finds that snapshot unshared and
/// the reused/cloned outcome of every update is exact, not a race.
fn settle(store: &GraphStore, context: &str) {
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let snap = store.snapshot();
        // Two holders: the store and this function.
        if snap.compact().is_some() && Arc::strong_count(&snap) == 2 {
            return;
        }
        assert!(Instant::now() < deadline, "{context}: freeze never settled");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn side_counts(store: &GraphStore) -> (u64, u64) {
    let count = |outcome: &str| {
        store
            .registry()
            .counter(&format!("s3pg_update_side_total{{outcome=\"{outcome}\"}}"))
            .get()
    };
    (count("reused"), count("cloned"))
}

/// `tests/incremental_property.rs`'s generator.
fn workload(seed: u64) -> Graph {
    generate(&DatasetSpec {
        name: "leftright".into(),
        namespace: "http://leftright.test/".into(),
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

fn assert_left_right_equals_sequential(mode: Mode, graph_seed: u64, rng_seed: u64) {
    let context = format!("{mode:?}, graph seed {graph_seed}, rng seed {rng_seed}");
    let graph = workload(graph_seed);
    let shapes = extract_shapes(&graph);
    let mut rng = XorShiftRng::seed_from_u64(rng_seed);
    let batches = random_entity_split(&graph, 24, &mut rng);
    let (store, mut reference) = store_and_reference(Graph::new(), &shapes, mode);

    let mut applied_lines: Vec<String> = Vec::new();
    let mut updates = 0u64;
    for (i, batch) in batches.iter().enumerate() {
        let additions = to_ntriples(batch);
        // Every 10th delta also deletes three triples some earlier delta
        // added, type statements and edge endpoints included.
        let mut deletions = String::new();
        if i % 10 == 9 {
            for _ in 0..3 {
                let k = rng.choose_index(applied_lines.len()).unwrap();
                deletions.push_str(&applied_lines.swap_remove(k));
                deletions.push('\n');
            }
        }
        store.apply_update(&additions, &deletions).unwrap();
        updates += 1;
        let live = published(&store);
        assert!(
            live == reference.apply(&additions, &deletions),
            "{context}: delta {i}: published snapshot differs from sequential apply + clone"
        );
        reference.assert_verdict_published(&store, &format!("{context}: delta {i}"));
        applied_lines.extend(additions.lines().map(str::to_string));
        settle(&store, &context);

        // An empty delta publishes the *other* side after nothing but its
        // catch-up: it must equal the side it supersedes byte for byte.
        if i % 4 == 3 {
            store.apply_update("", "").unwrap();
            updates += 1;
            assert!(
                published(&store) == live,
                "{context}: after delta {i}: caught-up standby differs from the live side"
            );
            reference.assert_verdict_published(&store, &format!("{context}: after delta {i}"));
            settle(&store, &context);
        }
    }
    // Independent of both publication schemes: what is served is exactly
    // the triples added and not deleted.
    let expected = parse_ntriples(&applied_lines.join("\n")).unwrap();
    assert!(
        store.snapshot().rdf.same_triples(&expected),
        "{context}: final RDF graph is not the added-minus-deleted triple set"
    );
    // Nothing held a standby across an update, so only the first update
    // (no standby yet) took the copy.
    assert_eq!(
        side_counts(&store),
        (updates - 1, 1),
        "{context}: (reused, cloned) over {updates} updates"
    );
    let checks = |scope: &str| {
        store
            .registry()
            .counter(&format!(
                "s3pg_conformance_checks_total{{scope=\"{scope}\"}}"
            ))
            .get()
    };
    assert_eq!(
        checks("delta") + checks("full"),
        updates,
        "{context}: one check per update"
    );
    // Only a delta that widened the schema takes the whole-graph check.
    assert!(
        checks("delta") > checks("full"),
        "{context}: {} delta-scoped checks, {} full",
        checks("delta"),
        checks("full")
    );
}

#[test]
fn every_published_snapshot_equals_sequential_apply_and_clone() {
    for case in 0..3u64 {
        assert_left_right_equals_sequential(Mode::Parsimonious, 100 + case, 9000 + case);
        assert_left_right_equals_sequential(Mode::NonParsimonious, 200 + case, 7000 + case);
    }
}

const SHAPES: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
<http://ex/shape/Person> a sh:NodeShape ; sh:targetClass :Person ;
    sh:property [ sh:path :name ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] ;
    sh:property [ sh:path :knows ; sh:class :Person ; sh:minCount 0 ] .
"#;

const DATA: &str = r#"
@prefix : <http://ex/> .
:a a :Person ; :name "A" ; :knows :b .
:b a :Person ; :name "B" .
"#;

/// `DATA` holds this many triples and entity nodes.
const BASE_TRIPLES: usize = 5;
const BASE_NODES: usize = 2;

fn person_store() -> (GraphStore, Reference) {
    store_and_reference(
        parse_turtle(DATA).unwrap(),
        &parse_shacl_turtle(SHAPES).unwrap(),
        Mode::Parsimonious,
    )
}

/// One new person who knows `:a`: exactly 3 triples and 1 node.
fn person_delta(name: &str) -> String {
    format!(
        "<http://ex/{name}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
         <http://ex/{name}> <http://ex/name> \"{name}\" .\n\
         <http://ex/{name}> <http://ex/knows> <http://ex/a> .\n"
    )
}

/// What the two query engines answer over one state of the two models.
fn answers(rdf: &Graph, pg: &PropertyGraph) -> String {
    let rows = cypher::execute(
        pg,
        "MATCH (p:Person)-[:knows]->(q:Person) RETURN p.name, q.name ORDER BY p.name",
    )
    .unwrap();
    let solutions = sparql::execute(
        rdf,
        "SELECT ?n WHERE { ?s <http://ex/name> ?n } ORDER BY ?n",
    )
    .unwrap();
    format!("{rows:?} {solutions:?}")
}

#[test]
fn a_pinned_snapshot_never_changes_and_forces_the_copy() {
    let (store, mut reference) = person_store();
    // A reader that keeps every snapshot it is handed: each update finds
    // its standby (the snapshot before the live one) still held.
    let mut pinned = vec![store.snapshot()];
    let mut pinned_prints = vec![published(&store)];
    for round in 0..3 {
        let delta = person_delta(&format!("pin{round}"));
        store.apply_update(&delta, "").unwrap();
        let expected = reference.apply(&delta, "");
        let snap = store.snapshot();
        assert_eq!(snap.epoch, round + 1);
        assert!(
            fingerprint(&snap.rdf, &snap.pg) == expected,
            "round {round}: published snapshot differs from the reference"
        );
        reference.assert_verdict_published(&store, &format!("round {round}"));
        assert_eq!(
            answers(&snap.rdf, &snap.pg),
            answers(&reference.0.rdf, &reference.0.pg),
            "round {round}"
        );
        pinned_prints.push(expected);
        pinned.push(snap);
    }
    for (epoch, (snap, print)) in pinned.iter().zip(&pinned_prints).enumerate() {
        assert_eq!(snap.epoch, epoch as u64);
        assert_eq!(snap.rdf.len(), BASE_TRIPLES + 3 * epoch);
        assert!(
            fingerprint(&snap.rdf, &snap.pg) == *print,
            "the snapshot pinned at epoch {epoch} changed while it was held"
        );
    }
    assert_eq!(side_counts(&store), (0, 3), "(reused, cloned)");
}

#[test]
fn a_malformed_delta_after_a_catch_up_changes_nothing() {
    let (store, mut reference) = person_store();
    for name in ["m0", "m1"] {
        let delta = person_delta(name);
        store.apply_update(&delta, "").unwrap();
        assert!(published(&store) == reference.apply(&delta, ""), "{name}");
        settle(&store, name);
    }
    // The second update reused the startup snapshot, catching it up.
    assert_eq!(side_counts(&store), (1, 1), "(reused, cloned)");

    let before = store.snapshot();
    assert!(store
        .apply_update(&person_delta("m2"), "not n-triples")
        .is_err());
    assert!(store
        .apply_update("<http://ex/m2> <http://ex/name", "")
        .is_err());
    let after = store.snapshot();
    assert!(Arc::ptr_eq(&before, &after), "a rejected delta published");
    assert_eq!(side_counts(&store), (1, 1), "a rejected delta took a side");
    assert_eq!(
        store.registry().counter("s3pg_updates_applied_total").get(),
        2
    );
    drop((before, after));

    // The standby and its missed delta survived the rejections intact.
    let delta = person_delta("m3");
    let deletions = "<http://ex/m0> <http://ex/knows> <http://ex/a> .\n";
    let summary = store.apply_update(&delta, deletions).unwrap();
    assert_eq!((summary.added_nodes, summary.removed), (1, 1));
    assert!(summary.conforms);
    assert!(published(&store) == reference.apply(&delta, deletions));
    reference.assert_verdict_published(&store, "after m3");
    assert_eq!(side_counts(&store), (2, 1), "(reused, cloned)");
    let snap = store.snapshot();
    assert_eq!(
        answers(&snap.rdf, &snap.pg),
        answers(&reference.0.rdf, &reference.0.pg)
    );
}

#[test]
fn concurrent_writers_and_readers_see_only_whole_updates() {
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const UPDATES_EACH: usize = 12;
    let (store, _) = person_store();
    let start = Barrier::new(WRITERS + READERS);
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (store, start) = (&store, &start);
                scope.spawn(move || {
                    start.wait();
                    for i in 0..UPDATES_EACH {
                        store
                            .apply_update(&person_delta(&format!("w{w}n{i}")), "")
                            .unwrap();
                    }
                })
            })
            .collect();
        for r in 0..READERS {
            let (store, start, done) = (&store, &start, &done);
            scope.spawn(move || {
                start.wait();
                // Each reader holds its previous snapshot while it takes
                // the next, so standbys are pinned at arbitrary moments.
                let mut held = store.snapshot();
                let mut seen = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let snap = store.snapshot();
                    let epoch = snap.epoch as usize;
                    assert!(snap.epoch >= held.epoch, "reader {r}: epochs went back");
                    assert_eq!(
                        (snap.rdf.len(), snap.pg.node_count(), snap.pg.edge_count()),
                        (BASE_TRIPLES + 3 * epoch, BASE_NODES + epoch, 1 + epoch),
                        "reader {r}: snapshot at epoch {epoch} is not a whole number of updates"
                    );
                    held = snap;
                    seen += 1;
                }
                assert!(seen > 0);
            });
        }
        for writer in writers {
            writer.join().unwrap();
        }
        done.store(true, Ordering::SeqCst);
    });

    let updates = (WRITERS * UPDATES_EACH) as u64;
    let snap = store.snapshot();
    assert_eq!(snap.epoch, updates);
    assert_eq!(snap.pg.node_count(), BASE_NODES + updates as usize);
    assert!(snap.conforms());
    let (reused, cloned) = side_counts(&store);
    assert_eq!(
        reused + cloned,
        updates,
        "reused {reused} + cloned {cloned}"
    );
    assert!(cloned >= 1, "the first update has no standby to reuse");
}
