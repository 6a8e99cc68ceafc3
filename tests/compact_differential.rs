//! Differential gate for compact snapshots: the frozen [`CompactGraph`]
//! must answer every query exactly like the mutable [`PropertyGraph`] it
//! was frozen from — direct Cypher and translated SPARQL — on the pristine
//! transform, after tombstone-heavy mutation, and after incremental delta
//! batches whose forward references were rewired through placeholder
//! upgrades.
//!
//! Freezing renumbers live nodes and edges densely and sorts CSR
//! adjacency rows by edge label, so edge enumeration order can legally
//! differ between the two representations. Rows carry *values*, never
//! ids, so the gate compares result multisets across representations.

use s3pg::incremental::apply_additions;
use s3pg::pipeline::transform;
use s3pg::query_translate;
use s3pg::Mode;
use s3pg_pg::{CompactGraph, EdgeId, NodeId, PgRead, PropertyGraph, Value};
use s3pg_query::cypher;
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::Graph;
use s3pg_shacl::extract_shapes;
use s3pg_workloads::generate_queries;
use s3pg_workloads::spec::{generate, DatasetSpec, GeneratedDataset};
use std::collections::BTreeMap;

/// Big enough that the cartesian query answers roughly INSTANCES² rows on
/// both representations.
const INSTANCES: usize = 120;

fn workload() -> GeneratedDataset {
    generate(&DatasetSpec {
        name: "compactdiff".into(),
        namespace: "http://compactdiff.test/".into(),
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
        seed: 0xC0DE,
    })
}

/// Order-independent row rendering for cross-representation comparison.
fn sorted_rows(rows: &cypher::Rows) -> Vec<String> {
    let mut out: Vec<String> = rows.rows.iter().map(|r| format!("{r:?}")).collect();
    out.sort();
    out
}

fn identifier_safe(s: &str) -> bool {
    s.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// The two identifier-safe node labels with the most live nodes.
fn busiest_labels(pg: &PropertyGraph) -> (String, String) {
    let mut counts: BTreeMap<String, usize> = BTreeMap::new();
    for id in pg.node_ids() {
        for label in pg.labels_of(id) {
            if identifier_safe(label) {
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

/// The identifier-safe edge label with the most live edges, paired with
/// the most common label among its source nodes.
fn busiest_edge(pg: &PropertyGraph) -> (String, String) {
    let mut edges: BTreeMap<String, usize> = BTreeMap::new();
    for id in pg.edge_ids() {
        for label in pg.edge_labels_of(id) {
            if identifier_safe(label) {
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

/// One equality-probe query over a concrete `(label, key, string value)`
/// present in the graph, exercising the compact form's frozen eq-index
/// against the mutable hash index. `None` if no quotable combination
/// exists.
fn probe_query(pg: &PropertyGraph) -> Option<String> {
    for id in pg.node_ids() {
        for label in pg.labels_of(id) {
            if !identifier_safe(label) {
                continue;
            }
            for (key, value) in &pg.node(id).props {
                let key = pg.resolve(*key);
                if !identifier_safe(key) {
                    continue;
                }
                if let Value::String(s) = value {
                    if !s.is_empty() && s.chars().all(|c| c.is_ascii_alphanumeric()) {
                        return Some(format!(
                            "MATCH (n:{label}) WHERE n.{key} = '{s}' RETURN n.iri"
                        ));
                    }
                }
            }
        }
    }
    None
}

/// The query set every gate runs: translated workload SPARQL, a heavy
/// cartesian product, a value join on the busiest edge, a one-hop
/// traversal, and an equality probe.
fn query_set(generated: &GeneratedDataset, out: &s3pg::pipeline::TransformOutput) -> Vec<String> {
    let mut queries: Vec<String> = generate_queries(&generated.meta, 2)
        .iter()
        .map(|spec| query_translate::translate_str(&spec.sparql, &out.schema.mapping).unwrap())
        .collect();
    let (l0, l1) = busiest_labels(&out.pg);
    queries.push(format!("MATCH (a:{l0}) MATCH (b:{l1}) RETURN a.iri, b.iri"));
    let (edge_label, src_label) = busiest_edge(&out.pg);
    queries.push(format!(
        "MATCH (a:{src_label})-[:{edge_label}]->(v) \
         MATCH (b:{src_label})-[:{edge_label}]->(v) RETURN a.iri, b.iri"
    ));
    queries.push(format!(
        "MATCH (a:{src_label})-[:{edge_label}]->(v) RETURN a.iri, v.iri"
    ));
    queries.extend(probe_query(&out.pg));
    queries
}

/// Below the query engines: every [`PgRead`] accessor, every label scan
/// and every equality probe of the frozen form against the mutable graph
/// it was frozen from, through the monotone renumbering (the i-th live
/// node / edge of `pg` is node / edge `i` of `compact`). Adjacency rows
/// are compared as sorted sets — CSR rows are label-sorted — and every
/// postings slice as is: both sides promise id order.
fn assert_reads_match(pg: &PropertyGraph, compact: &CompactGraph, context: &str) {
    let nodes: Vec<NodeId> = pg.node_ids().collect();
    let edges: Vec<EdgeId> = pg.edge_ids().collect();
    let dense = |ids: &[NodeId]| -> Vec<NodeId> {
        ids.iter()
            .map(|id| NodeId(nodes.binary_search(id).expect("live node") as u32))
            .collect()
    };
    let dense_edges = |row: &[EdgeId]| -> Vec<EdgeId> {
        let mut out: Vec<EdgeId> = row
            .iter()
            .filter(|&&e| pg.edge_live(e))
            .map(|e| EdgeId(edges.binary_search(e).expect("live edge") as u32))
            .collect();
        out.sort_unstable();
        out
    };
    let names: Vec<String> = pg.interner().iter().map(|(_, s)| s.to_string()).collect();
    assert_eq!(
        compact.all_node_ids(),
        (0..nodes.len() as u32).map(NodeId).collect::<Vec<_>>(),
        "{context}: node ids are not dense"
    );

    for name in &names {
        assert_eq!(
            compact.nodes_with_label(name),
            dense(PgRead::nodes_with_label(pg, name)),
            "{context}: label scan {name}"
        );
        assert_eq!(
            compact.label_cardinality(name),
            PgRead::label_cardinality(pg, name),
            "{context}: label cardinality {name}"
        );
    }
    let mut probes = 0usize;
    for (new, &old) in nodes.iter().enumerate() {
        let new = NodeId(new as u32);
        for name in &names {
            assert_eq!(
                compact.has_label(new, name),
                PgRead::has_label(pg, old, name),
                "{context}: has_label({old:?}, {name})"
            );
            let value = pg.prop_value(old, name);
            assert_eq!(
                compact.prop_value(new, name),
                value,
                "{context}: prop_value({old:?}, {name})"
            );
            // Probe with what the node holds — a list probes with each
            // element, which must miss this node on both sides alike.
            for item in value.iter().flat_map(Value::iter_flat) {
                for label in pg.labels_of(old) {
                    assert_eq!(
                        compact.nodes_with_label_prop(label, name, item),
                        dense(PgRead::nodes_with_label_prop(pg, label, name, item)),
                        "{context}: eq probe ({label}, {name}, {item:?})"
                    );
                    probes += 1;
                }
            }
        }
        let mut out = compact.out_adjacency(new).to_vec();
        out.sort_unstable();
        assert_eq!(
            out,
            dense_edges(pg.out_adjacency(old)),
            "{context}: out {old:?}"
        );
        let mut inc = compact.in_adjacency(new).to_vec();
        inc.sort_unstable();
        assert_eq!(
            inc,
            dense_edges(pg.in_adjacency(old)),
            "{context}: in {old:?}"
        );
    }
    assert!(probes > 0, "{context}: no equality probe was made");
    for (new, &old) in edges.iter().enumerate() {
        let new = EdgeId(new as u32);
        let (src, dst) = PgRead::edge_endpoints(pg, old);
        assert_eq!(
            compact.edge_endpoints(new),
            (dense(&[src])[0], dense(&[dst])[0]),
            "{context}: endpoints {old:?}"
        );
        assert!(compact.edge_live(new));
        for name in &names {
            assert_eq!(
                compact.edge_prop_value(new, name),
                pg.edge_prop_value(old, name),
                "{context}: edge_prop_value({old:?}, {name})"
            );
            let set = std::slice::from_ref(name);
            assert_eq!(
                compact.edge_has_any_label(new, set),
                pg.edge_has_any_label(old, set),
                "{context}: edge label {name} on {old:?}"
            );
        }
    }

    // The image is a function of the graph: write → read → write is a
    // fixed point, and the reloaded graph answers the same.
    let mut image = Vec::new();
    compact.write_to(&mut image).expect("write to memory");
    let reloaded = CompactGraph::read_from(&image[..]).expect("own image loads");
    let mut again = Vec::new();
    reloaded.write_to(&mut again).expect("write to memory");
    assert!(
        image == again,
        "{context}: write_to ∘ read_from is not a fixed point"
    );
}

/// Freeze `pg` and assert representation equivalence, accessor by
/// accessor and over `queries`.
fn assert_compact_matches_mutable(pg: &PropertyGraph, queries: &[String], context: &str) {
    let compact = pg.freeze();
    assert_reads_match(pg, &compact, context);
    assert_eq!(
        PgRead::node_count(pg),
        compact.node_count(),
        "{context}: node counts diverge"
    );
    assert_eq!(
        PgRead::edge_count(pg),
        compact.edge_count(),
        "{context}: edge counts diverge"
    );
    let mut nonempty = 0usize;
    for text in queries {
        let q = cypher::parse(text).unwrap();
        let on_mutable = cypher::evaluate(pg, &q).unwrap();
        let on_compact = cypher::evaluate(&compact, &q).unwrap();
        assert_eq!(
            on_mutable.columns, on_compact.columns,
            "{context}: columns diverge for {text}"
        );
        assert_eq!(
            sorted_rows(&on_mutable),
            sorted_rows(&on_compact),
            "{context}: rows diverge for {text}"
        );
        nonempty += usize::from(!on_mutable.is_empty());
    }
    assert!(nonempty > 0, "{context}: every query returned no rows");
}

#[test]
fn compact_matches_mutable_on_pristine_transform() {
    let generated = workload();
    let shapes = extract_shapes(&generated.graph);
    let out = transform(&generated.graph, &shapes, Mode::Parsimonious);
    let queries = query_set(&generated, &out);
    assert_compact_matches_mutable(&out.pg, &queries, "pristine");
}

#[test]
fn compact_matches_mutable_after_tombstone_heavy_mutation() {
    let generated = workload();
    let shapes = extract_shapes(&generated.graph);
    let out = transform(&generated.graph, &shapes, Mode::Parsimonious);
    let queries = query_set(&generated, &out);
    let mut pg = out.pg;

    // Deterministically tombstone a third of the nodes, strip properties
    // and labels from others, and drop a third of the edges — the frozen
    // form must renumber the survivors densely and still agree.
    let mut rng = XorShiftRng::seed_from_u64(0x7057);
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
    assert_compact_matches_mutable(&pg, &queries, "after tombstones");

    // Post-tombstone re-adds land in both representations.
    let survivors: Vec<_> = pg.node_ids().take(8).collect();
    for id in survivors {
        pg.set_prop(id, "readd", Value::String("back".into()));
    }
    assert_compact_matches_mutable(&pg, &queries, "after re-adds");
}

#[test]
fn compact_matches_mutable_after_incremental_forward_references() {
    let generated = workload();
    let shapes = extract_shapes(&generated.graph);
    // The full transform only supplies label names for the query set; the
    // graph under test is grown delta by delta below.
    let reference = transform(&generated.graph, &shapes, Mode::Parsimonious);
    let queries = query_set(&generated, &reference);

    // Entity-granular batches: objects whose defining triples land in a
    // later batch enter as placeholders and are rewired on upgrade — the
    // freeze must agree with the mutable graph at every epoch.
    let mut rng = XorShiftRng::seed_from_u64(0xF0FF);
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

    let empty = Graph::new();
    let out = transform(&empty, &shapes, Mode::Parsimonious);
    let (mut pg, mut schema, mut state) = (out.pg, out.schema, out.state);
    for (i, delta) in deltas.iter().enumerate() {
        apply_additions(&mut pg, &mut schema, &mut state, delta);
        assert_compact_matches_mutable(&pg, &queries, &format!("after delta {i}"));
    }
    assert_eq!(
        PgRead::node_count(&pg),
        PgRead::node_count(&reference.pg),
        "folded deltas must converge to the full transform"
    );
}
