//! Differential test for `s3pg_pg::conformance::check`.
//!
//! `check` types every node once against a schema compiled per call;
//! `node_conforms` / `edge_conforms_any` are the definition-following,
//! per-element predicates of Definition 2.6. [`reference_check`] rebuilds
//! the whole-graph check from those predicates alone, and the two must
//! return the identical report — same failures, same order — on every
//! generated graph, under planted violations of every kind, after
//! deletions tombstoned nodes and edges and removed labels, and after a
//! delta widened the schema.
//!
//! `check_since`, the delta-scoped check, is held to `check` the same way:
//! byte-identical reports after every delta of random entity batchings,
//! with deletions, forward-reference repairs, tombstones, a schema-widening
//! delta, hub edges and every planted-violation kind applied as a delta.
//!
//! Randomness is the in-tree xorshift; every assertion message carries the
//! seed that reproduces it.

use s3pg::incremental::{apply_deletions, apply_ntriples_delta};
use s3pg::pipeline::{transform, TransformOutput};
use s3pg::schema_transform::SchemaTransform;
use s3pg::Mode;
use s3pg_pg::conformance::{
    self, edge_conforms_any, node_conforms, CheckScope, ConformanceReport, NonConformance,
};
use s3pg_pg::{
    ContentType, EdgeId, NodeId, NodeType, PgSchema, PropertyGraph, PropertySpec, Value, IRI_KEY,
};
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::serializer::to_ntriples;
use s3pg_rdf::Graph;
use s3pg_shacl::parser::parse_shacl_turtle;
use s3pg_shacl::{extract_shapes, ShapeSchema};
use s3pg_workloads::bio2rdf::bio2rdf_ct;
use s3pg_workloads::dbpedia::dbpedia2022;
use s3pg_workloads::evolution::random_entity_split;
use s3pg_workloads::university::{self, UniversitySpec};
use s3pg_workloads::{generate, generate_skewed};

/// `PG ⊨ S_PG` decided element by element from the reference predicates.
fn reference_check(pg: &PropertyGraph, schema: &PgSchema) -> ConformanceReport {
    let mut report = ConformanceReport::default();
    for node in pg.node_ids() {
        if !schema
            .node_types()
            .iter()
            .any(|nt| node_conforms(pg, schema, node, nt))
        {
            report.failures.push(NonConformance::UntypedNode {
                node,
                labels: pg.labels_of(node).iter().map(|s| s.to_string()).collect(),
            });
        }
    }
    for edge in pg.edge_ids() {
        if !edge_conforms_any(pg, schema, edge) {
            let label = pg
                .edge_labels_of(edge)
                .first()
                .map(|s| s.to_string())
                .unwrap_or_default();
            report
                .failures
                .push(NonConformance::UntypedEdge { edge, label });
        }
    }
    for key in schema.keys() {
        let Some(for_type) = schema.node_type(&key.for_type) else {
            continue;
        };
        for &node in pg.nodes_with_label(&for_type.label) {
            if !node_conforms(pg, schema, node, for_type) {
                continue;
            }
            let count = pg
                .out_edges(node)
                .filter(|&e| {
                    pg.edge_labels_of(e).contains(&key.edge_label.as_str())
                        && key.target_types.iter().any(|t| {
                            schema
                                .node_type(t)
                                .is_some_and(|nt| node_conforms(pg, schema, pg.edge(e).dst, nt))
                        })
                })
                .count();
            if !key.admits(count) {
                report.failures.push(NonConformance::KeyViolation {
                    node,
                    key: key.to_string(),
                    count,
                });
            }
        }
    }
    report
}

/// Assert `check ≡ reference_check` and return the (shared) report.
fn assert_same(pg: &PropertyGraph, schema: &PgSchema, context: &str) -> ConformanceReport {
    let got = conformance::check(pg, schema);
    let want = reference_check(pg, schema);
    if let Some(i) = (0..got.failures.len().max(want.failures.len()))
        .find(|&i| got.failures.get(i) != want.failures.get(i))
    {
        panic!(
            "{context}: reports differ at failure {i} (check has {}, reference has {}): \
             check = {:?}, reference = {:?}",
            got.failures.len(),
            want.failures.len(),
            got.failures.get(i),
            want.failures.get(i),
        );
    }
    got
}

struct Dataset {
    name: &'static str,
    graph: Graph,
    shapes: ShapeSchema,
}

/// One small instance of every `crates/workloads` generator.
fn datasets() -> Vec<Dataset> {
    let extracted = |name, graph: Graph| Dataset {
        name,
        shapes: extract_shapes(&graph),
        graph,
    };
    vec![
        extracted("dbpedia", generate(&dbpedia2022(0.15)).graph),
        extracted("skew", generate_skewed(0.04, 0xD1CE).graph),
        Dataset {
            name: "university",
            graph: university::generate(&UniversitySpec::default()),
            shapes: parse_shacl_turtle(university::shacl_schema()).expect("university schema"),
        },
        extracted("bio2rdf", generate(&bio2rdf_ct(0.08)).graph),
    ]
}

const MODES: [Mode; 2] = [Mode::Parsimonious, Mode::NonParsimonious];

#[test]
fn generated_graphs_agree_in_both_modes() {
    for d in datasets() {
        for mode in MODES {
            let out = transform(&d.graph, &d.shapes, mode);
            let context = format!("{} {mode:?}", d.name);
            let report = assert_same(&out.pg, &out.schema.pg_schema, &context);
            assert_eq!(report, out.conformance, "{context}: pipeline's own report");
        }
    }
}

// ---- planted violations ----------------------------------------------------

/// What a planted violation must leave in the report.
enum Planted {
    UntypedNode(NodeId),
    UntypedEdge(EdgeId),
    Key { node: NodeId, key: String },
}

impl Planted {
    fn is_reported(&self, report: &ConformanceReport) -> bool {
        report.failures.iter().any(|f| match (self, f) {
            (Planted::UntypedNode(n), NonConformance::UntypedNode { node, .. }) => n == node,
            (Planted::UntypedEdge(e), NonConformance::UntypedEdge { edge, .. }) => e == edge,
            (Planted::Key { node: n, key: k }, NonConformance::KeyViolation { node, key, .. }) => {
                n == node && k == key
            }
            _ => false,
        })
    }
}

fn random_live_node(pg: &PropertyGraph, rng: &mut XorShiftRng) -> NodeId {
    let ids: Vec<NodeId> = pg.node_ids().collect();
    ids[rng.random_range(0..ids.len())]
}

/// A live node with one label that one node type carries, conforming to
/// that type: breaking the type's specs on it must leave it untyped.
/// `wants` filters on the type's effective specs and picks the spec to break.
fn solely_typed_node<'s>(
    pg: &PropertyGraph,
    schema: &'s PgSchema,
    rng: &mut XorShiftRng,
    wants: impl Fn(&PropertySpec) -> bool,
) -> Option<(NodeId, &'s NodeType, PropertySpec)> {
    let mut candidates = Vec::new();
    for node in pg.node_ids() {
        let labels = pg.labels_of(node);
        let [label] = labels.as_slice() else {
            continue;
        };
        let mut carriers = schema.node_types().iter().filter(|nt| nt.label == *label);
        let (Some(nt), None) = (carriers.next(), carriers.next()) else {
            continue;
        };
        if !node_conforms(pg, schema, node, nt) {
            continue;
        }
        if let Some(spec) = schema
            .effective_properties(nt)
            .into_iter()
            .find(|spec| wants(spec) && pg.prop(node, &spec.key).is_some())
        {
            candidates.push((node, nt, spec));
        }
    }
    let i = rng.choose_index(candidates.len())?;
    Some(candidates.swap_remove(i))
}

fn value_of_other_type(content: ContentType) -> Value {
    if content == ContentType::Int {
        Value::String("not a number".into())
    } else {
        Value::Int(7)
    }
}

fn drop_required_property(
    pg: &mut PropertyGraph,
    schema: &mut PgSchema,
    rng: &mut XorShiftRng,
) -> Option<Planted> {
    let (node, _, spec) = solely_typed_node(pg, schema, rng, |s| !s.optional)?;
    pg.remove_prop(node, &spec.key);
    Some(Planted::UntypedNode(node))
}

fn wrong_content_type(
    pg: &mut PropertyGraph,
    schema: &mut PgSchema,
    rng: &mut XorShiftRng,
) -> Option<Planted> {
    let (node, _, spec) = solely_typed_node(pg, schema, rng, |s| s.content != ContentType::Any)?;
    pg.set_prop(node, &spec.key, value_of_other_type(spec.content));
    Some(Planted::UntypedNode(node))
}

fn list_where_scalar_expected(
    pg: &mut PropertyGraph,
    schema: &mut PgSchema,
    rng: &mut XorShiftRng,
) -> Option<Planted> {
    let (node, _, spec) = solely_typed_node(pg, schema, rng, |s| s.array.is_none())?;
    let scalar = pg.prop(node, &spec.key).cloned()?;
    if matches!(scalar, Value::List(_)) {
        return None;
    }
    pg.set_prop(node, &spec.key, Value::List(vec![scalar.clone(), scalar]));
    Some(Planted::UntypedNode(node))
}

/// Gives the node's type an optional bounded array spec over a fresh key
/// (every other node of the type lacks it, which the spec allows) and
/// overfills it on one node.
fn array_over_max(
    pg: &mut PropertyGraph,
    schema: &mut PgSchema,
    rng: &mut XorShiftRng,
) -> Option<Planted> {
    let (node, nt, _) = solely_typed_node(pg, schema, rng, |_| true)?;
    let type_name = nt.name.clone();
    schema
        .node_type_mut(&type_name)?
        .properties
        .push(PropertySpec::array(
            "plantedTags",
            ContentType::String,
            0,
            Some(2),
        ));
    let tags = ["a", "b", "c"].map(|t| Value::String(t.into())).to_vec();
    pg.set_prop(node, "plantedTags", Value::List(tags));
    Some(Planted::UntypedNode(node))
}

fn edge_to_wrong_typed_target(
    pg: &mut PropertyGraph,
    schema: &mut PgSchema,
    rng: &mut XorShiftRng,
) -> Option<Planted> {
    let edges: Vec<EdgeId> = pg.edge_ids().collect();
    let template = edges[rng.choose_index(edges.len())?];
    let label = pg.edge_labels_of(template).first()?.to_string();
    let src = pg.edge(template).src;
    let admitted = |pg: &PropertyGraph, dst: NodeId| {
        schema.edge_types_by_label(&label).any(|et| {
            et.targets.iter().any(|t| {
                schema
                    .node_type(t)
                    .is_some_and(|nt| node_conforms(pg, schema, dst, nt))
            })
        })
    };
    let dst = (0..64)
        .map(|_| random_live_node(pg, rng))
        .find(|&dst| !admitted(pg, dst))?;
    Some(Planted::UntypedEdge(pg.add_edge(src, dst, &label)))
}

fn unknown_edge_label(
    pg: &mut PropertyGraph,
    _schema: &mut PgSchema,
    rng: &mut XorShiftRng,
) -> Option<Planted> {
    let (src, dst) = (random_live_node(pg, rng), random_live_node(pg, rng));
    Some(Planted::UntypedEdge(pg.add_edge(
        src,
        dst,
        "plantedUnknownLabel",
    )))
}

/// A PG-Key with a node of its FOR type and a node of one of its target
/// types, the key's bounds first rewritten by `rebound`.
fn key_with_witnesses(
    pg: &PropertyGraph,
    schema: &mut PgSchema,
    rng: &mut XorShiftRng,
    rebound: impl Fn(&mut s3pg_pg::CountKey),
) -> Option<(s3pg_pg::CountKey, NodeId, NodeId)> {
    let start = rng.choose_index(schema.keys().len())?;
    for offset in 0..schema.keys().len() {
        let i = (start + offset) % schema.keys().len();
        let key = schema.keys()[i].clone();
        let conforming = |type_name: &str| {
            let nt = schema.node_type(type_name)?;
            pg.nodes_with_label(&nt.label)
                .iter()
                .copied()
                .find(|&n| node_conforms(pg, schema, n, nt))
        };
        let Some(node) = conforming(&key.for_type) else {
            continue;
        };
        let Some(target) = key.target_types.iter().find_map(|t| conforming(t)) else {
            continue;
        };
        rebound(&mut schema.keys_mut()[i]);
        return Some((schema.keys()[i].clone(), node, target));
    }
    None
}

fn key_count_above_max(
    pg: &mut PropertyGraph,
    schema: &mut PgSchema,
    rng: &mut XorShiftRng,
) -> Option<Planted> {
    let (key, node, target) =
        key_with_witnesses(pg, schema, rng, |k| k.max = Some(k.max.unwrap_or(2)))?;
    for _ in 0..=key.max? {
        pg.add_edge(node, target, &key.edge_label);
    }
    Some(Planted::Key {
        node,
        key: key.to_string(),
    })
}

fn key_count_below_min(
    pg: &mut PropertyGraph,
    schema: &mut PgSchema,
    rng: &mut XorShiftRng,
) -> Option<Planted> {
    let (key, node, _) = key_with_witnesses(pg, schema, rng, |k| k.min = k.min.max(1))?;
    let counted: Vec<EdgeId> = pg
        .out_edges(node)
        .filter(|&e| pg.edge_labels_of(e).contains(&key.edge_label.as_str()))
        .collect();
    for e in counted {
        pg.remove_edge_by_id(e);
    }
    Some(Planted::Key {
        node,
        key: key.to_string(),
    })
}

type Mutation = fn(&mut PropertyGraph, &mut PgSchema, &mut XorShiftRng) -> Option<Planted>;

const MUTATIONS: [(&str, Mutation); 8] = [
    ("drop required property", drop_required_property),
    ("wrong ContentType", wrong_content_type),
    ("list where scalar expected", list_where_scalar_expected),
    ("array over max", array_over_max),
    ("edge to wrong-typed target", edge_to_wrong_typed_target),
    ("unknown edge label", unknown_edge_label),
    ("key count above max", key_count_above_max),
    ("key count below min", key_count_below_min),
];

#[test]
fn planted_violations_are_reported_identically() {
    let mut planted_somewhere = [false; MUTATIONS.len()];
    for (d_idx, d) in datasets().into_iter().enumerate() {
        for mode in MODES {
            let out = transform(&d.graph, &d.shapes, mode);
            for round in 0..2u64 {
                let seed = 0x5EED_0000 + (d_idx as u64) * 100 + (mode as u64) * 10 + round;
                let mut rng = XorShiftRng::seed_from_u64(seed);
                let (mut pg, mut schema) = (out.pg.clone(), out.schema.pg_schema.clone());
                // Each kind alone on a fresh copy, so one violation cannot
                // mask another's expected trace…
                for (k, (kind, mutate)) in MUTATIONS.iter().enumerate() {
                    let (mut pg, mut schema) = (pg.clone(), schema.clone());
                    let Some(planted) = mutate(&mut pg, &mut schema, &mut rng) else {
                        continue;
                    };
                    let context = format!("{} {mode:?} seed {seed:#x}: {kind}", d.name);
                    let report = assert_same(&pg, &schema, &context);
                    assert!(planted.is_reported(&report), "{context}: not reported");
                    planted_somewhere[k] = true;
                }
                // …then all of them piled onto one graph.
                for (_, mutate) in MUTATIONS {
                    mutate(&mut pg, &mut schema, &mut rng);
                }
                let context = format!("{} {mode:?} seed {seed:#x}: all kinds", d.name);
                assert!(!assert_same(&pg, &schema, &context).conforms(), "{context}");
            }
        }
    }
    for ((kind, _), planted) in MUTATIONS.iter().zip(planted_somewhere) {
        assert!(planted, "no dataset offered a place to plant: {kind}");
    }
}

// ---- deletions and schema-widening deltas ----------------------------------

/// A random tenth of `graph`'s triples, type statements included.
fn random_deletions(graph: &Graph, rng: &mut XorShiftRng) -> Graph {
    let mut removed = Graph::new();
    for t in graph.triples() {
        if rng.random_bool(0.1) {
            let s = removed.import_term(graph, t.s);
            let p = removed.import_sym(graph, t.p);
            let o = removed.import_term(graph, t.o);
            removed.insert(s, p, o);
        }
    }
    removed
}

/// Tombstone every node the deletions left without a live edge (orphaned
/// literal carriers, isolated entities), so raw ids run past `node_count()`.
fn remove_isolated_nodes(pg: &mut PropertyGraph) {
    let isolated: Vec<NodeId> = pg
        .node_ids()
        .filter(|&n| pg.out_edges(n).next().is_none() && pg.in_edges(n).next().is_none())
        .collect();
    for node in isolated {
        pg.remove_node(node);
    }
}

#[test]
fn graphs_after_deletions_agree() {
    let mut raw_ids_ran_past_count = false;
    for (d_idx, d) in datasets().into_iter().enumerate() {
        for mode in MODES {
            let seed = 0xDE1E_0000 + (d_idx as u64) * 10 + mode as u64;
            let mut rng = XorShiftRng::seed_from_u64(seed);
            let TransformOutput {
                mut pg,
                schema,
                mut state,
                ..
            } = transform(&d.graph, &d.shapes, mode);
            let context = format!("{} {mode:?} seed {seed:#x}", d.name);

            let removed = random_deletions(&d.graph, &mut rng);
            let changes = apply_deletions(&mut pg, &schema, &mut state, &removed);
            assert!(changes > 0, "{context}: deletions changed nothing");
            assert_same(
                &pg,
                &schema.pg_schema,
                &format!("{context}: after deletions"),
            );

            remove_isolated_nodes(&mut pg);
            let highest_raw_id = pg.node_ids().last().map_or(0, |n| n.0 as usize);
            raw_ids_ran_past_count |= highest_raw_id >= pg.node_count();
            assert_same(
                &pg,
                &schema.pg_schema,
                &format!("{context}: after tombstoning"),
            );
        }
    }
    assert!(raw_ids_ran_past_count, "no dataset left a tombstoned node");
}

/// The additions that widen the schema: an entity of an unseen class with
/// an unseen predicate linking to an existing subject, and one of that
/// subject's literal statements repeated with a datatype it never had.
fn widening_additions(graph: &Graph, rng: &mut XorShiftRng) -> String {
    let literal_triples: Vec<_> = graph.triples().filter(|t| t.o.is_literal()).collect();
    let t = literal_triples[rng.random_range(0..literal_triples.len())];
    let subject = graph.resolve(t.s.as_iri().expect("generated subjects are IRIs"));
    let predicate = graph.resolve(t.p);
    format!(
        "<http://planted.test/e1> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://planted.test/Fresh> .\n\
         <http://planted.test/e1> <http://planted.test/freshProp> \"v\" .\n\
         <http://planted.test/e1> <http://planted.test/freshLink> <{subject}> .\n\
         <{subject}> <{predicate}> \"1999-12-31\"^^<http://www.w3.org/2001/XMLSchema#date> .\n"
    )
}

#[test]
fn graphs_after_a_schema_widening_delta_agree() {
    for (d_idx, d) in datasets().into_iter().enumerate() {
        for mode in MODES {
            let seed = 0xDE17_A000 + (d_idx as u64) * 10 + mode as u64;
            let mut rng = XorShiftRng::seed_from_u64(seed);
            let TransformOutput {
                mut pg,
                mut schema,
                mut state,
                ..
            } = transform(&d.graph, &d.shapes, mode);
            let context = format!("{} {mode:?} seed {seed:#x}", d.name);

            let additions = widening_additions(&d.graph, &mut rng);
            let (types_before, edge_types_before) = (
                schema.pg_schema.node_type_count(),
                schema.pg_schema.edge_type_count(),
            );
            apply_ntriples_delta(&mut pg, &mut schema, &mut state, &additions, "")
                .unwrap_or_else(|e| panic!("{context}: {e}"));
            assert!(
                schema.pg_schema.node_type_count() > types_before
                    && schema.pg_schema.edge_type_count() > edge_types_before,
                "{context}: the delta did not widen the schema"
            );
            assert_same(&pg, &schema.pg_schema, &format!("{context}: after delta"));
        }
    }
}

// ---- the delta-scoped check -----------------------------------------------

/// Drain what changed since `previous`, ask `check_since`, and hold its
/// report to a fresh `check` byte for byte.
fn check_since_agrees(
    pg: &mut PropertyGraph,
    schema: &PgSchema,
    previous: &ConformanceReport,
    context: &str,
) -> (ConformanceReport, CheckScope) {
    let touched = pg.drain_touched();
    let (since, scope) = conformance::check_since(pg, schema, previous, touched.as_ref());
    let full = conformance::check(pg, schema);
    if format!("{since:?}") != format!("{full:?}") {
        let i = (0..since.failures.len().max(full.failures.len()))
            .find(|&i| since.failures.get(i) != full.failures.get(i));
        panic!(
            "{context}: check_since ({scope:?}) differs from check at failure {i:?} \
             ({} vs {} failures): check_since = {:?}, check = {:?}",
            since.failures.len(),
            full.failures.len(),
            i.and_then(|i| since.failures.get(i)),
            i.and_then(|i| full.failures.get(i)),
        );
    }
    (since, scope)
}

/// The live node with the most live in-edges.
fn hub(pg: &PropertyGraph) -> NodeId {
    pg.node_ids()
        .max_by_key(|&n| pg.in_edges(n).count())
        .expect("a node")
}

/// One more edge into the hub, copying one of its in-edges, and one more
/// out of it, copying one of its out-edges when it has any.
fn hub_edges(pg: &mut PropertyGraph) {
    let hub = hub(pg);
    let copy = |pg: &mut PropertyGraph, edge: EdgeId| {
        let (src, dst) = (pg.edge(edge).src, pg.edge(edge).dst);
        let label = pg.edge_labels_of(edge)[0].to_string();
        pg.add_edge(src, dst, &label);
    };
    let into = pg.in_edges(hub).next().expect("a hub has in-edges");
    let out = pg.out_edges(hub).next();
    copy(pg, into);
    if let Some(out) = out {
        copy(pg, out);
    }
}

#[test]
fn check_since_equals_check_after_every_delta() {
    let mut repaired_somewhere = false;
    for (d_idx, d) in datasets().into_iter().enumerate() {
        for mode in MODES {
            let seed = 0xD17A_0000 + (d_idx as u64) * 10 + mode as u64;
            let mut rng = XorShiftRng::seed_from_u64(seed);
            let context = format!("{} {mode:?} seed {seed:#x}", d.name);
            let TransformOutput {
                mut pg,
                mut schema,
                mut state,
                conformance: mut report,
                ..
            } = transform(&Graph::new(), &d.shapes, mode);
            let mut scopes = (0usize, 0usize);
            let mut step = |pg: &mut PropertyGraph,
                            schema: &SchemaTransform,
                            report: &mut ConformanceReport,
                            what: &str| {
                let (next, scope) = check_since_agrees(
                    pg,
                    &schema.pg_schema,
                    report,
                    &format!("{context}: {what}"),
                );
                *report = next;
                match scope {
                    CheckScope::Delta => scopes.0 += 1,
                    CheckScope::Full => scopes.1 += 1,
                }
                scope
            };

            // Random entity batchings: every 10th delta also deletes three
            // earlier lines and tombstones the literal carriers that
            // isolates (entities stay: later deltas may name them).
            let batches = random_entity_split(&d.graph, 24, &mut rng);
            let mut applied: Vec<String> = Vec::new();
            for (i, batch) in batches.iter().enumerate() {
                let additions = to_ntriples(batch);
                let mut deletions = String::new();
                if i % 10 == 9 {
                    for _ in 0..3 {
                        if let Some(k) = rng.choose_index(applied.len()) {
                            deletions.push_str(&applied.swap_remove(k));
                            deletions.push('\n');
                        }
                    }
                }
                let pending = state.pending_refs.len();
                apply_ntriples_delta(&mut pg, &mut schema, &mut state, &additions, &deletions)
                    .unwrap_or_else(|e| panic!("{context}: delta {i}: {e}"));
                repaired_somewhere |= state.pending_refs.len() < pending;
                if i % 10 == 9 {
                    let isolated: Vec<NodeId> = pg
                        .node_ids()
                        .filter(|&n| pg.prop(n, IRI_KEY).is_none())
                        .filter(|&n| pg.out_edges(n).chain(pg.in_edges(n)).next().is_none())
                        .collect();
                    for node in isolated {
                        pg.remove_node(node);
                    }
                }
                let scope = step(&mut pg, &schema, &mut report, &format!("delta {i}"));
                if i == 0 {
                    assert_eq!(
                        scope,
                        CheckScope::Full,
                        "{context}: the first drain records nothing"
                    );
                }
                applied.extend(additions.lines().map(str::to_string));
            }

            let revision = schema.pg_schema.revision();
            let additions = widening_additions(&d.graph, &mut rng);
            apply_ntriples_delta(&mut pg, &mut schema, &mut state, &additions, "")
                .unwrap_or_else(|e| panic!("{context}: widening delta: {e}"));
            assert_ne!(
                schema.pg_schema.revision(),
                revision,
                "{context}: nothing widened"
            );
            assert_eq!(
                step(&mut pg, &schema, &mut report, "widening delta"),
                CheckScope::Full,
                "{context}: a widened schema must take the whole-graph check"
            );

            hub_edges(&mut pg);
            assert_eq!(
                step(&mut pg, &schema, &mut report, "hub edges"),
                CheckScope::Delta,
                "{context}: hub edges leave the schema alone"
            );

            // Every planted-violation kind as a delta: alone on a copy, then
            // piled onto the graph one after another.
            for (kind, mutate) in MUTATIONS {
                let (mut pg, mut schema, mut report) = (pg.clone(), schema.clone(), report.clone());
                if mutate(&mut pg, &mut schema.pg_schema, &mut rng).is_some() {
                    step(&mut pg, &schema, &mut report, &format!("{kind} alone"));
                }
            }
            for (kind, mutate) in MUTATIONS {
                mutate(&mut pg, &mut schema.pg_schema, &mut rng);
                step(&mut pg, &schema, &mut report, &format!("{kind} piled"));
            }
            let (delta, full) = scopes;
            assert!(
                delta > full,
                "{context}: {delta} delta-scoped checks against {full} full ones"
            );
        }
    }
    assert!(
        repaired_somewhere,
        "no batching repaired a forward reference"
    );
}
