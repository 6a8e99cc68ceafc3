//! Differential tests for the query-performance layer: planned/indexed
//! evaluation must agree with the pre-planner scan path on real workloads,
//! profiling must not change a SPARQL join's answer, and the
//! `(label, key, value)` property index must stay consistent through
//! removals and incremental deltas.
//!
//! Two gates, mirroring the layer's invariants:
//!
//! 1. **Planned ≡ scan** — byte-identical on the single-pattern workload
//!    query set (index probes enumerate id-sorted, matching label-scan
//!    order); multiset-identical on multi-pattern value joins and on a
//!    cartesian two-pattern query per engine, where the planner's order
//!    differs from the written one. Beside them, SPARQL joins whose
//!    FILTERs run between join steps answer the same profiled or not.
//! 2. **Index ≡ full scan** — after arbitrary removals and after each
//!    incremental delta batch, every `(label, key, value)` posting list
//!    ever observed equals the answer a fresh full scan gives.

use s3pg::incremental::apply_additions;
use s3pg::pipeline::transform;
use s3pg::query_translate;
use s3pg::Mode;
use s3pg_pg::{NodeId, PropertyGraph, Value};
use s3pg_query::profile::ProfSink;
use s3pg_query::sparql::Outcome;
use s3pg_query::{cypher, sparql};
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::{Graph, Term};
use s3pg_shacl::extract_shapes;
use s3pg_workloads::spec::{generate, DatasetSpec, GeneratedDataset};
use s3pg_workloads::{generate_queries, generate_skewed, skew};
use std::collections::BTreeMap;

/// Large enough that a two-class cartesian query answers tens of
/// thousands of rows (~INSTANCES²).
const INSTANCES: usize = 150;

fn workload() -> GeneratedDataset {
    generate(&DatasetSpec {
        name: "querydiff".into(),
        namespace: "http://querydiff.test/".into(),
        classes: 3,
        subclass_fraction: 0.25,
        instances_per_class: INSTANCES,
        single_literal: 3,
        single_non_literal: 2,
        mt_homo_literal: 1,
        mt_homo_non_literal: 1,
        mt_hetero: 1,
        density: 0.7,
        multi_value_p: 0.3,
        seed: 0xD1FF,
    })
}

/// Order-independent row rendering for multiset comparison.
fn sorted_rows(rows: &cypher::Rows) -> Vec<String> {
    let mut out: Vec<String> = rows.rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

/// Cartesian two-pattern queries of roughly INSTANCES² ≈ 22k rows: both
/// engines answer them as their planner-free oracles do.
#[test]
fn planned_matches_scan_on_heavy_cartesian_queries() {
    let generated = workload();
    let shapes = extract_shapes(&generated.graph);
    let out = transform(&generated.graph, &shapes, Mode::Parsimonious);

    // SPARQL: unconstrained type-bucket cartesian product.
    let (c0, c1) = (&generated.meta.classes[0], &generated.meta.classes[1]);
    let text = format!("SELECT ?a ?b WHERE {{ ?a a <{c0}> . ?b a <{c1}> . }}");
    let q = sparql::parse(&text).unwrap();
    let planned = sparql::evaluate(&generated.graph, &q).unwrap();
    assert!(
        planned.len() >= INSTANCES * INSTANCES,
        "cartesian sparql too small: {} rows",
        planned.len()
    );
    let Outcome::Solutions(scan) = sparql::evaluate_scan(&generated.graph, &q).unwrap() else {
        unreachable!("no aggregate")
    };
    let (mut planned, mut scan) = (planned.rows, scan.rows);
    planned.sort();
    scan.sort();
    assert_eq!(planned, scan, "sparql {text}");

    // Cypher: same shape over the two busiest node labels.
    let (l0, l1) = busiest_labels(&out.pg);
    let text = format!("MATCH (a:{l0}) MATCH (b:{l1}) RETURN a.iri, b.iri");
    let q = cypher::parse(&text).unwrap();
    let planned = cypher::evaluate(&out.pg, &q).unwrap();
    assert!(
        planned.rows.len() >= INSTANCES * INSTANCES,
        "cartesian cypher too small: {} rows",
        planned.rows.len()
    );
    let scan = cypher::evaluate_scan(&out.pg, &q).unwrap();
    assert_eq!(sorted_rows(&scan), sorted_rows(&planned), "{text}");
}

/// Pushed filters under PROFILE: the benchmark's two skew join templates
/// at thresholds passing no, a few, half and all targets, and a filtered
/// cartesian product, answer profiled exactly as unprofiled — rows and
/// order — and the profile records each pushed filter.
#[test]
fn profiled_join_with_pushed_filters_matches_unprofiled() {
    let skewed = generate_skewed(0.3, 0xF117).graph;
    let rank = skewed.interner().get(skew::RANK).unwrap();
    let mut ranks: Vec<i64> = skewed
        .matches(None, Some(rank), None)
        .map(|t| match t.o {
            Term::Literal(l) => skewed.resolve(l.lexical).parse().unwrap(),
            _ => unreachable!("ranks are literals"),
        })
        .collect();
    ranks.sort_unstable();
    let n = ranks.len();
    let (links, rank) = (skew::LINKS_TO, skew::RANK);
    let (source, target) = (skew::SOURCE_CLASS, skew::TARGET_CLASS);
    let mut cases: Vec<(&Graph, String)> = Vec::new();
    for k in [ranks[n - 1], ranks[n - 4], ranks[n / 2], ranks[0] - 1] {
        cases.push((
            &skewed,
            format!("SELECT ?s ?r WHERE {{ ?s <{links}> ?t . ?t <{rank}> ?r . FILTER(?r > {k}) }}"),
        ));
        cases.push((
            &skewed,
            format!(
                "SELECT ?s ?t WHERE {{ ?s a <{source}> . ?s <{links}> ?t . ?t a <{target}> . ?t <{rank}> ?r . FILTER(?r > {k}) }}"
            ),
        ));
    }
    let generated = workload();
    let (c0, c1) = (&generated.meta.classes[0], &generated.meta.classes[1]);
    let c0_type = Term::Iri(generated.graph.interner().get(c0).unwrap());
    let mid = generated
        .graph
        .subjects(generated.graph.type_predicate_opt().unwrap(), c0_type)[INSTANCES / 2];
    let mid = generated.graph.resolve(match mid {
        Term::Iri(s) => s,
        _ => unreachable!("instances are IRIs"),
    });
    cases.push((
        &generated.graph,
        format!("SELECT ?a ?b WHERE {{ ?a a <{c0}> . ?b a <{c1}> . FILTER(?a > \"{mid}\" || !isIRI(?b)) }}"),
    ));

    let params = sparql::Params::default();
    for (graph, text) in &cases {
        let q = sparql::parse(text).unwrap();
        let plain = sparql::evaluate_outcome(graph, &q).unwrap();
        let sink = ProfSink::new();
        let profiled = sparql::evaluate_outcome_profiled(graph, &q, &params, &sink).unwrap();
        assert_eq!(plain, profiled, "profiled sparql {text}");
        assert!(sink.get("filter0").is_some(), "no filter ran: {text}");
    }
}

/// The two identifier-safe node labels with the most live nodes.
fn busiest_labels(pg: &PropertyGraph) -> (String, String) {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for id in pg.node_ids() {
        for label in pg.labels_of(id) {
            if label
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic())
                && label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                *counts.entry(label.to_string()).or_insert(0) += 1;
            }
        }
    }
    let mut ranked: Vec<(String, usize)> = counts.into_iter().collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
    assert!(
        ranked.len() >= 2,
        "workload graph has fewer than two labels"
    );
    (ranked[0].0.clone(), ranked[1].0.clone())
}

#[test]
fn planned_evaluation_matches_scan_on_workload_queries() {
    let generated = workload();
    let shapes = extract_shapes(&generated.graph);
    let out = transform(&generated.graph, &shapes, Mode::Parsimonious);

    // Single-pattern workload queries: byte-identical, order included.
    for spec in generate_queries(&generated.meta, 2) {
        let text = query_translate::translate_str(&spec.sparql, &out.schema.mapping).unwrap();
        let q = cypher::parse(&text).unwrap();
        let scan = cypher::evaluate_scan(&out.pg, &q).unwrap();
        let planned = cypher::evaluate(&out.pg, &q).unwrap();
        assert_eq!(scan, planned, "planned != scan for {text}");
    }

    // Multi-pattern value join on the busiest edge label: the planner
    // reverse-anchors the second pattern, so compare as multisets.
    let (edge_label, src_label) = busiest_edge(&out.pg);
    let text = format!(
        "MATCH (a:{src_label})-[:{edge_label}]->(v) \
         MATCH (b:{src_label})-[:{edge_label}]->(v) RETURN a.iri, b.iri"
    );
    let q = cypher::parse(&text).unwrap();
    let scan = cypher::evaluate_scan(&out.pg, &q).unwrap();
    let planned = cypher::evaluate(&out.pg, &q).unwrap();
    assert!(!planned.is_empty(), "join query returned no rows: {text}");
    assert_eq!(sorted_rows(&scan), sorted_rows(&planned), "{text}");
}

/// The identifier-safe edge label with the most live edges, paired with
/// the most common label among its source nodes.
fn busiest_edge(pg: &PropertyGraph) -> (String, String) {
    use std::collections::BTreeMap;
    let mut edges: BTreeMap<String, usize> = BTreeMap::new();
    for id in pg.edge_ids() {
        for label in pg.edge_labels_of(id) {
            if label
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphabetic())
                && label.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
            {
                *edges.entry(label.to_string()).or_insert(0) += 1;
            }
        }
    }
    let (edge_label, _) = edges
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .expect("workload graph has no edges");
    let mut sources: BTreeMap<String, usize> = BTreeMap::new();
    for id in pg.edge_ids() {
        if pg.edge_labels_of(id).contains(&edge_label.as_str()) {
            for label in pg.labels_of(pg.edge(id).src) {
                *sources.entry(label.to_string()).or_insert(0) += 1;
            }
        }
    }
    let (src_label, _) = sources
        .into_iter()
        .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
        .expect("busiest edge has no labeled sources");
    (edge_label, src_label)
}

/// Every `(label, key, scalar-value)` combination present on live nodes,
/// with the id-sorted node list a full scan produces for it. List values
/// are skipped — the index only covers scalars.
fn full_scan_index(pg: &PropertyGraph) -> BTreeMap<(String, String, String), Vec<NodeId>> {
    let mut expected: BTreeMap<(String, String, String), Vec<NodeId>> = BTreeMap::new();
    for id in pg.node_ids() {
        for label in pg.labels_of(id) {
            for (key, value) in &pg.node(id).props {
                if matches!(value, Value::List(_)) {
                    continue;
                }
                let key = pg.resolve(*key);
                expected
                    .entry((label.to_string(), key.to_string(), format!("{value:?}")))
                    .or_default()
                    .push(id);
            }
        }
    }
    for list in expected.values_mut() {
        list.sort_unstable();
        list.dedup();
    }
    expected
}

/// Assert every combination in `history` — including ones whose nodes
/// have since been removed — answers exactly what a full scan answers.
/// `history` maps the rendered value back to one concrete `Value` so the
/// index can be probed.
fn assert_index_matches_scan(
    pg: &PropertyGraph,
    history: &BTreeMap<(String, String, String), Value>,
    context: &str,
) {
    let expected = full_scan_index(pg);
    for ((label, key, rendered), value) in history {
        let got = pg.nodes_with_label_prop(label, key, value);
        let want = expected
            .get(&(label.clone(), key.clone(), rendered.clone()))
            .cloned()
            .unwrap_or_default();
        assert_eq!(
            got, want,
            "{context}: index mismatch for ({label}, {key}, {rendered})"
        );
    }
}

/// Record every current combination into `history` (first concrete value
/// wins; equal renderings probe equal index keys).
fn record_history(pg: &PropertyGraph, history: &mut BTreeMap<(String, String, String), Value>) {
    for id in pg.node_ids() {
        for label in pg.labels_of(id) {
            for (key, value) in &pg.node(id).props {
                if matches!(value, Value::List(_)) {
                    continue;
                }
                let key = pg.resolve(*key);
                history
                    .entry((label.to_string(), key.to_string(), format!("{value:?}")))
                    .or_insert_with(|| value.clone());
            }
        }
    }
}

#[test]
fn property_index_consistent_after_removals() {
    let generated = workload();
    let shapes = extract_shapes(&generated.graph);
    let mut pg = transform(&generated.graph, &shapes, Mode::Parsimonious).pg;
    let mut history = BTreeMap::new();
    record_history(&pg, &mut history);
    assert_index_matches_scan(&pg, &history, "before removals");

    // Deterministically remove a third of the nodes (tombstoning their
    // postings), strip properties and labels from others, and drop edges.
    let mut rng = XorShiftRng::seed_from_u64(0xDEAD);
    let ids: Vec<_> = pg.node_ids().collect();
    for id in ids {
        match rng.choose_index(6).unwrap() {
            0 | 1 => {
                pg.remove_node(id);
            }
            2 => {
                if let Some((key, _)) = pg.node(id).props.first() {
                    let key = pg.resolve(*key).to_string();
                    pg.remove_prop(id, &key);
                }
            }
            3 => {
                if let Some(label) = pg.labels_of(id).first().map(|l| l.to_string()) {
                    pg.remove_label(id, &label);
                }
            }
            _ => {}
        }
    }
    let edge_ids: Vec<_> = pg.edge_ids().collect();
    for (i, id) in edge_ids.into_iter().enumerate() {
        if i % 3 == 0 {
            pg.remove_edge_by_id(id);
        }
    }
    assert_index_matches_scan(&pg, &history, "after removals");

    // Re-adding properties after tombstones must land back in the index.
    let survivors: Vec<_> = pg.node_ids().take(8).collect();
    for id in survivors {
        pg.set_prop(id, "readd", Value::String("back".into()));
    }
    record_history(&pg, &mut history);
    assert_index_matches_scan(&pg, &history, "after re-adds");
}

/// Interleaved direct adds, tombstone-heavy removals, and incremental
/// delta batches: the `(label, key, value)` index must keep answering
/// exactly like a full scan at every step, and removal rounds must
/// *reclaim* index memory — `prop_index_size_bytes` cannot grow
/// monotonically across removals (empty value buckets are dropped, so a
/// tombstone-heavy round always ends below the round's peak).
#[test]
fn property_index_survives_interleaved_adds_removals_and_deltas() {
    let generated = workload();
    let shapes = extract_shapes(&generated.graph);

    // Entity-granular delta batches, as the serving write path delivers.
    let mut rng = XorShiftRng::seed_from_u64(0xBEEF);
    let batches = 3usize;
    let mut deltas: Vec<Graph> = (0..batches).map(|_| Graph::new()).collect();
    for s_term in generated.graph.subjects_distinct() {
        let k = rng.choose_index(batches).unwrap();
        let batch = &mut deltas[k];
        for t in generated.graph.match_pattern(Some(s_term), None, None) {
            let s = batch.import_term(&generated.graph, t.s);
            let p = batch.import_sym(&generated.graph, t.p);
            let o = batch.import_term(&generated.graph, t.o);
            batch.insert(s, p, o);
        }
    }

    let empty = Graph::new();
    let out = transform(&empty, &shapes, Mode::Parsimonious);
    let (mut pg, mut schema, mut state) = (out.pg, out.schema, out.state);
    let mut history = BTreeMap::new();
    for (round, delta) in deltas.iter().enumerate() {
        // Incremental-delta batch (may leave forward-reference placeholders
        // that a later round upgrades).
        apply_additions(&mut pg, &mut schema, &mut state, delta);

        // Direct adds: a burst of scratch nodes with unique and shared
        // values, linked pairwise so their removal also tombstones edges.
        let added: Vec<NodeId> = (0..40)
            .map(|i| {
                let id = pg.add_node(["Scratch"]);
                pg.set_prop(id, "round", Value::Int(round as i64));
                pg.set_prop(id, "tag", Value::String(format!("r{round}n{i}")));
                id
            })
            .collect();
        for pair in added.chunks(2) {
            if let [a, b] = pair {
                pg.add_edge(*a, *b, "scratch_link");
            }
        }
        record_history(&pg, &mut history);
        assert_index_matches_scan(&pg, &history, &format!("round {round}: after adds"));
        let peak = pg.prop_index_size_bytes();

        // Tombstone-heavy removals: every scratch node from this round,
        // a random slice of properties and labels, a third of the edges.
        for id in added {
            pg.remove_node(id);
        }
        let ids: Vec<NodeId> = pg.node_ids().collect();
        for id in ids {
            match rng.choose_index(6).unwrap() {
                0 => {
                    if let Some((key, _)) = pg.node(id).props.first() {
                        let key = pg.resolve(*key).to_string();
                        pg.remove_prop(id, &key);
                    }
                }
                1 => {
                    if let Some(label) = pg.labels_of(id).first().map(|l| l.to_string()) {
                        pg.remove_label(id, &label);
                    }
                }
                _ => {}
            }
        }
        let edge_ids: Vec<_> = pg.edge_ids().collect();
        for (j, id) in edge_ids.into_iter().enumerate() {
            if j % 3 == 0 {
                pg.remove_edge_by_id(id);
            }
        }
        assert_index_matches_scan(&pg, &history, &format!("round {round}: after removals"));
        let after = pg.prop_index_size_bytes();
        assert!(
            after < peak,
            "round {round}: removals must reclaim index bytes ({after} >= {peak})"
        );
    }

    // A final tombstone-heavy pass over everything that's left.
    let peak = pg.prop_index_size_bytes();
    let ids: Vec<NodeId> = pg.node_ids().collect();
    for (j, id) in ids.into_iter().enumerate() {
        if j % 2 == 0 {
            pg.remove_node(id);
        }
    }
    assert_index_matches_scan(&pg, &history, "after final removals");
    let end = pg.prop_index_size_bytes();
    assert!(
        end < peak,
        "final removals must reclaim index bytes ({end} >= {peak})"
    );
}

#[test]
fn property_index_consistent_after_incremental_deltas() {
    let generated = workload();
    let shapes = extract_shapes(&generated.graph);

    // Split the workload into entity-granular delta batches, as the
    // serving write path would deliver them.
    let mut rng = XorShiftRng::seed_from_u64(0xF00D);
    let batches = 4usize;
    let mut deltas: Vec<Graph> = (0..batches).map(|_| Graph::new()).collect();
    for s_term in generated.graph.subjects_distinct() {
        let k = rng.choose_index(batches).unwrap();
        let batch = &mut deltas[k];
        for t in generated.graph.match_pattern(Some(s_term), None, None) {
            let s = batch.import_term(&generated.graph, t.s);
            let p = batch.import_sym(&generated.graph, t.p);
            let o = batch.import_term(&generated.graph, t.o);
            batch.insert(s, p, o);
        }
    }

    // Fold the batches into the transform of the empty graph; the index
    // must answer exactly like a full scan after every delta — including
    // for combinations that existed in an earlier epoch (placeholder
    // upgrades must not leave stale postings behind).
    let empty = Graph::new();
    let out = transform(&empty, &shapes, Mode::Parsimonious);
    let (mut pg, mut schema, mut state) = (out.pg, out.schema, out.state);
    let mut history = BTreeMap::new();
    for (i, delta) in deltas.iter().enumerate() {
        apply_additions(&mut pg, &mut schema, &mut state, delta);
        record_history(&pg, &mut history);
        assert_index_matches_scan(&pg, &history, &format!("after delta {i}"));
    }
}
