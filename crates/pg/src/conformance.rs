//! PG-Schema conformance checking (Definition 2.6 of the paper).
//!
//! A node conforms to a node type when it carries the type's expected labels
//! and its record satisfies the effective property specs; an edge conforms
//! to an edge type when its label matches and its endpoints conform to the
//! declared source/target types; a property graph conforms to its schema
//! (`PG ⊨ S_PG`) when the typing maps every element to a non-empty set of
//! types and every PG-Key holds.
//!
//! Content records are treated as *open*: extra keys (notably the `iri` and
//! `ov` bookkeeping keys S3PG adds) do not break conformance, which matches
//! the LOOSE graph-type option the paper adopts for transformed graphs.

use crate::graph::{EdgeId, NodeId, PropertyGraph, IRI_KEY, VALUE_KEY};
use crate::schema::compiled::{has_type, intersects, set_type, CompiledSchema, CompiledSpec};
use crate::schema::{NodeType, PgSchema};
use crate::value::{ContentType, Value};
use s3pg_rdf::Sym;
use std::fmt;

/// A conformance failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NonConformance {
    /// A node matched no node type.
    UntypedNode { node: NodeId, labels: Vec<String> },
    /// An edge matched no edge type.
    UntypedEdge { edge: EdgeId, label: String },
    /// A PG-Key was violated.
    KeyViolation {
        node: NodeId,
        key: String,
        count: usize,
    },
}

impl fmt::Display for NonConformance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NonConformance::UntypedNode { node, labels } => {
                write!(
                    f,
                    "node {:?} with labels {labels:?} matches no node type",
                    node
                )
            }
            NonConformance::UntypedEdge { edge, label } => {
                write!(f, "edge {:?} with label {label} matches no edge type", edge)
            }
            NonConformance::KeyViolation { node, key, count } => {
                write!(f, "node {:?} violates key [{key}] with count {count}", node)
            }
        }
    }
}

/// The result of checking `PG ⊨ S_PG`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ConformanceReport {
    /// All failures found.
    pub failures: Vec<NonConformance>,
}

impl ConformanceReport {
    /// Whether the graph conforms.
    pub fn conforms(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Check that every element of `pg` conforms to at least one type of
/// `schema` and that all PG-Keys hold.
///
/// Three linear passes over a schema compiled once per call: the node
/// typing `T(v)` is computed once per live node as a row of type bits
/// (visiting only the types carrying one of the node's labels), every edge
/// is decided by bit tests on its two endpoint rows, and every PG-Key by
/// counting out-edges against the same rows. Failures come out in the
/// order nodes, edges, keys (schema order), each by ascending id — the
/// same report the per-element predicates below would build, which
/// `tests/conformance_differential.rs` holds it to.
pub fn check(pg: &PropertyGraph, schema: &PgSchema) -> ConformanceReport {
    let mut report = ConformanceReport::default();
    let compiled = CompiledSchema::new(schema, pg.interner());
    let words = compiled.words;

    // T(v), indexed by raw node id; tombstoned nodes keep an empty row.
    let mut typing = vec![0u64; pg.node_slots() * words];
    for node in pg.node_ids() {
        let n = pg.node(node);
        let row = &mut typing[node.0 as usize * words..][..words];
        for &label in &n.labels {
            for &t in compiled.types_with_label(label) {
                if compiled
                    .specs_of(t)
                    .is_some_and(|specs| record_fits(&n.props, specs))
                {
                    set_type(row, t);
                }
            }
        }
        if row.iter().all(|&w| w == 0) {
            report.failures.push(NonConformance::UntypedNode {
                node,
                labels: n
                    .labels
                    .iter()
                    .map(|&l| pg.resolve(l).to_string())
                    .collect(),
            });
        }
    }
    let types_of = |node: NodeId| &typing[node.0 as usize * words..][..words];

    for edge in pg.edge_ids() {
        let e = pg.edge(edge);
        let (src, dst) = (types_of(e.src), types_of(e.dst));
        let typed = e.labels.iter().any(|&label| {
            compiled
                .rules_with_label(label)
                .iter()
                .any(|rule| has_type(src, rule.source) && intersects(dst, &rule.targets))
        });
        if !typed {
            let label = e
                .labels
                .first()
                .map(|&l| pg.resolve(l).to_string())
                .unwrap_or_default();
            report
                .failures
                .push(NonConformance::UntypedEdge { edge, label });
        }
    }

    for k in &compiled.keys {
        // Nodes of the FOR type: those carrying its primary label and conforming.
        for &node in pg.nodes_with_label(k.for_label) {
            if !has_type(types_of(node), k.for_type) {
                continue;
            }
            let count = k.edge_label.map_or(0, |label| {
                pg.out_edges(node)
                    .filter(|&e| {
                        let edge = pg.edge(e);
                        edge.labels.contains(&label) && intersects(types_of(edge.dst), &k.targets)
                    })
                    .count()
            });
            if !k.key.admits(count) {
                report.failures.push(NonConformance::KeyViolation {
                    node,
                    key: k.key.to_string(),
                    count,
                });
            }
        }
    }

    report
}

/// Whether a node record satisfies a node type's compiled effective specs.
fn record_fits(props: &[(Sym, Value)], specs: &[CompiledSpec]) -> bool {
    specs
        .iter()
        .all(|spec| match props.iter().find(|(k, _)| *k == spec.key) {
            None => spec.optional,
            Some((_, value)) => value_fits(value, spec.content, spec.array),
        })
}

/// Node typing `T(v) = {τ ∈ N_S | v ⊨ τ}` — whether `node ⊨ nt`.
///
/// A node conforms to a type when it carries the type's label and satisfies
/// the type's *effective* (own + inherited) property specs. Ancestor labels
/// are not required: Algorithm 1 assigns labels from the entity's explicit
/// `rdf:type` statements only, so a node typed only `GS` in the source data
/// carries only the `GS` label while still owing `regNo`/`name` through the
/// type hierarchy.
///
/// This is the definition-following, per-element predicate: it resolves
/// everything by name on every call, so it is the reference [`check`] is
/// tested against, not something to call once per node of a large graph.
pub fn node_conforms(pg: &PropertyGraph, schema: &PgSchema, node: NodeId, nt: &NodeType) -> bool {
    if !pg.has_label(node, &nt.label) {
        return false;
    }
    for spec in schema.effective_properties(nt) {
        match pg.prop(node, &spec.key) {
            None => {
                if !spec.optional {
                    return false;
                }
            }
            Some(value) => {
                if !value_fits(value, spec.content, spec.array) {
                    return false;
                }
            }
        }
    }
    true
}

fn value_fits(value: &Value, content: ContentType, array: Option<(u32, Option<u32>)>) -> bool {
    let type_ok = |v: &Value| content == ContentType::Any || v.content_type() == content;
    match (array, value) {
        (None, Value::List(_)) => false,
        (None, v) => type_ok(v),
        (Some((min, max)), Value::List(items)) => {
            items.len() >= min as usize
                && max.is_none_or(|m| items.len() <= m as usize)
                && items.iter().all(type_ok)
        }
        // A scalar counts as a singleton array.
        (Some((min, max)), v) => min <= 1 && max.is_none_or(|m| m >= 1) && type_ok(v),
    }
}

/// Whether an edge conforms to at least one edge type
/// (`∃⟨t1, t, t2⟩ ∈ η_S(σ)` with conforming endpoints).
///
/// Like [`node_conforms`], the per-element reference predicate: it
/// re-derives both endpoints' typing under every candidate edge type.
pub fn edge_conforms_any(pg: &PropertyGraph, schema: &PgSchema, edge: EdgeId) -> bool {
    let e = pg.edge(edge);
    pg.edge_labels_of(edge).iter().any(|label| {
        schema.edge_types_by_label(label).any(|et| {
            let src_ok = schema
                .node_type(&et.source)
                .is_some_and(|nt| node_conforms(pg, schema, e.src, nt));
            let dst_ok = et.targets.iter().any(|t| {
                schema
                    .node_type(t)
                    .is_some_and(|nt| node_conforms(pg, schema, e.dst, nt))
            });
            src_ok && dst_ok
        })
    })
}

/// The bookkeeping keys S3PG adds to every node, exempt from closed-record
/// interpretations.
pub const BOOKKEEPING_KEYS: &[&str] = &[IRI_KEY, VALUE_KEY];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{CountKey, EdgeType, NodeType, PropertySpec};

    fn schema() -> PgSchema {
        let mut s = PgSchema::new();
        let mut person = NodeType::entity("personType", "Person", "http://ex/Person");
        person
            .properties
            .push(PropertySpec::required("name", ContentType::String));
        let mut student = NodeType::entity("studentType", "Student", "http://ex/Student");
        student.extends.push("personType".into());
        student
            .properties
            .push(PropertySpec::required("regNo", ContentType::String));
        let dept = NodeType::entity("departmentType", "Department", "http://ex/Department");
        s.add_node_type(person);
        s.add_node_type(student);
        s.add_node_type(dept);
        s.add_edge_type(EdgeType {
            name: "worksForType".into(),
            label: "worksFor".into(),
            iri: None,
            source: "personType".into(),
            targets: vec!["departmentType".into()],
        });
        s
    }

    fn conforming_graph() -> PropertyGraph {
        let mut pg = PropertyGraph::new();
        let alice = pg.add_node(["Person"]);
        pg.set_prop(alice, "name", Value::String("Alice".into()));
        let bob = pg.add_node(["Person", "Student"]);
        pg.set_prop(bob, "name", Value::String("Bob".into()));
        pg.set_prop(bob, "regNo", Value::String("Bs12".into()));
        let cs = pg.add_node(["Department"]);
        pg.add_edge(alice, cs, "worksFor");
        pg
    }

    #[test]
    fn conforming_graph_passes() {
        let report = check(&conforming_graph(), &schema());
        assert!(report.conforms(), "{:?}", report.failures);
    }

    #[test]
    fn missing_mandatory_property_fails_typing() {
        let mut pg = PropertyGraph::new();
        pg.add_node(["Person"]); // no name
        let report = check(&pg, &schema());
        assert!(!report.conforms());
        assert!(matches!(
            report.failures[0],
            NonConformance::UntypedNode { .. }
        ));
    }

    #[test]
    fn student_without_inherited_name_fails() {
        let mut pg = PropertyGraph::new();
        let bob = pg.add_node(["Person", "Student"]);
        pg.set_prop(bob, "regNo", Value::String("Bs12".into()));
        // Missing inherited `name`; bob conforms to no type (Person requires
        // name too).
        assert!(!check(&pg, &schema()).conforms());
    }

    #[test]
    fn wrong_value_type_fails() {
        let mut pg = PropertyGraph::new();
        let p = pg.add_node(["Person"]);
        pg.set_prop(p, "name", Value::Int(42));
        assert!(!check(&pg, &schema()).conforms());
    }

    #[test]
    fn extra_properties_are_allowed_open_content() {
        let mut pg = conforming_graph();
        let alice = pg.node_by_iri("nope").unwrap_or(NodeId(0));
        pg.set_prop(alice, "iri", Value::String("http://ex/alice".into()));
        pg.set_prop(alice, "hobby", Value::String("chess".into()));
        assert!(check(&pg, &schema()).conforms());
    }

    #[test]
    fn edge_with_wrong_endpoint_type_fails() {
        let mut pg = PropertyGraph::new();
        let a = pg.add_node(["Person"]);
        pg.set_prop(a, "name", Value::String("A".into()));
        let b = pg.add_node(["Person"]);
        pg.set_prop(b, "name", Value::String("B".into()));
        pg.add_edge(a, b, "worksFor"); // target must be a Department
        let report = check(&pg, &schema());
        assert!(report
            .failures
            .iter()
            .any(|f| matches!(f, NonConformance::UntypedEdge { .. })));
    }

    #[test]
    fn unknown_edge_label_fails() {
        let mut pg = conforming_graph();
        pg.add_edge(NodeId(0), NodeId(2), "teleportsTo");
        assert!(!check(&pg, &schema()).conforms());
    }

    #[test]
    fn count_key_enforced() {
        let mut s = schema();
        s.add_key(CountKey {
            for_type: "personType".into(),
            edge_label: "worksFor".into(),
            min: 1,
            max: Some(1),
            target_types: vec!["departmentType".into()],
        });
        // Alice works for one department: fine. Bob (also a Person) works
        // for none: violation.
        let report = check(&conforming_graph(), &s);
        let key_violations: Vec<_> = report
            .failures
            .iter()
            .filter(|f| matches!(f, NonConformance::KeyViolation { .. }))
            .collect();
        assert_eq!(key_violations.len(), 1);
    }

    #[test]
    fn array_spec_accepts_bounded_lists() {
        let mut s = PgSchema::new();
        let mut t = NodeType::entity("tType", "T", "http://ex/T");
        t.properties
            .push(PropertySpec::array("tags", ContentType::String, 1, Some(2)));
        s.add_node_type(t);

        let mut pg = PropertyGraph::new();
        let ok = pg.add_node(["T"]);
        pg.set_prop(
            ok,
            "tags",
            Value::List(vec![Value::String("a".into()), Value::String("b".into())]),
        );
        assert!(check(&pg, &s).conforms());

        let mut pg2 = PropertyGraph::new();
        let over = pg2.add_node(["T"]);
        pg2.set_prop(
            over,
            "tags",
            Value::List(vec![
                Value::String("a".into()),
                Value::String("b".into()),
                Value::String("c".into()),
            ]),
        );
        assert!(!check(&pg2, &s).conforms());
    }

    #[test]
    fn scalar_satisfies_array_spec_as_singleton() {
        let mut s = PgSchema::new();
        let mut t = NodeType::entity("tType", "T", "http://ex/T");
        t.properties
            .push(PropertySpec::array("tags", ContentType::String, 1, None));
        s.add_node_type(t);
        let mut pg = PropertyGraph::new();
        let n = pg.add_node(["T"]);
        pg.set_prop(n, "tags", Value::String("solo".into()));
        assert!(check(&pg, &s).conforms());
    }

    #[test]
    fn list_where_scalar_expected_fails() {
        let mut s = PgSchema::new();
        let mut t = NodeType::entity("tType", "T", "http://ex/T");
        t.properties
            .push(PropertySpec::required("x", ContentType::Int));
        s.add_node_type(t);
        let mut pg = PropertyGraph::new();
        let n = pg.add_node(["T"]);
        pg.set_prop(n, "x", Value::List(vec![Value::Int(1)]));
        assert!(!check(&pg, &s).conforms());
    }

    // ---- what a compiled schema could get wrong ----------------------------

    #[test]
    fn key_over_an_edge_label_the_graph_never_interned_counts_zero() {
        let mut s = schema();
        s.add_key(CountKey {
            for_type: "departmentType".into(),
            edge_label: "fundedBy".into(), // occurs nowhere in the graph
            min: 1,
            max: None,
            target_types: vec!["personType".into()],
        });
        let pg = conforming_graph();
        assert!(pg.interner().get("fundedBy").is_none());
        let report = check(&pg, &s);
        assert_eq!(
            report.failures,
            vec![NonConformance::KeyViolation {
                node: NodeId(2),
                key: s.keys()[0].to_string(),
                count: 0,
            }]
        );
    }

    #[test]
    fn uninterned_required_key_is_unsatisfiable_but_optional_is_not() {
        let typed_by = |spec: PropertySpec| {
            let mut s = PgSchema::new();
            let mut t = NodeType::entity("tType", "T", "http://ex/T");
            t.properties.push(spec);
            s.add_node_type(t);
            let mut pg = PropertyGraph::new();
            pg.add_node(["T"]);
            assert!(pg.interner().get("neverSet").is_none());
            check(&pg, &s).conforms()
        };
        assert!(!typed_by(PropertySpec::required(
            "neverSet",
            ContentType::Int
        )));
        assert!(typed_by(PropertySpec::optional(
            "neverSet",
            ContentType::Int
        )));
    }

    #[test]
    fn two_node_types_sharing_one_label_are_both_tried() {
        let mut s = PgSchema::new();
        let mut by_name = NodeType::entity("namedType", "Thing", "http://ex/Named");
        by_name
            .properties
            .push(PropertySpec::required("name", ContentType::String));
        let mut by_code = NodeType::entity("codedType", "Thing", "http://ex/Coded");
        by_code
            .properties
            .push(PropertySpec::required("code", ContentType::Int));
        s.add_node_type(by_name);
        s.add_node_type(by_code);
        s.add_edge_type(EdgeType {
            name: "aliasType".into(),
            label: "alias".into(),
            iri: None,
            source: "namedType".into(),
            targets: vec!["codedType".into()],
        });

        let mut pg = PropertyGraph::new();
        let named = pg.add_node(["Thing"]);
        pg.set_prop(named, "name", Value::String("n".into()));
        let coded = pg.add_node(["Thing"]);
        pg.set_prop(coded, "code", Value::Int(1));
        let neither = pg.add_node(["Thing"]);
        pg.add_edge(named, coded, "alias");
        let backwards = pg.add_edge(coded, named, "alias");
        assert_eq!(
            check(&pg, &s).failures,
            vec![
                NonConformance::UntypedNode {
                    node: neither,
                    labels: vec!["Thing".into()],
                },
                NonConformance::UntypedEdge {
                    edge: backwards,
                    label: "alias".into(),
                },
            ]
        );
    }

    #[test]
    fn unknown_node_type_names_never_match_and_their_keys_are_skipped() {
        let mut s = schema();
        s.add_edge_type(EdgeType {
            name: "ghostSourceType".into(),
            label: "haunts".into(),
            iri: None,
            source: "ghostType".into(),
            targets: vec!["departmentType".into()],
        });
        s.add_edge_type(EdgeType {
            name: "ghostTargetType".into(),
            label: "visits".into(),
            iri: None,
            source: "personType".into(),
            targets: vec!["ghostType".into()],
        });
        s.add_key(CountKey {
            for_type: "ghostType".into(),
            edge_label: "worksFor".into(),
            min: 5,
            max: None,
            target_types: vec!["departmentType".into()],
        });
        // A known FOR type whose only target type is unknown counts nothing.
        s.add_key(CountKey {
            for_type: "personType".into(),
            edge_label: "worksFor".into(),
            min: 0,
            max: Some(0),
            target_types: vec!["ghostType".into()],
        });
        let mut pg = conforming_graph();
        let haunts = pg.add_edge(NodeId(0), NodeId(2), "haunts");
        let visits = pg.add_edge(NodeId(0), NodeId(2), "visits");
        assert_eq!(
            check(&pg, &s).failures,
            vec![
                NonConformance::UntypedEdge {
                    edge: haunts,
                    label: "haunts".into(),
                },
                NonConformance::UntypedEdge {
                    edge: visits,
                    label: "visits".into(),
                },
            ]
        );
    }

    #[test]
    fn extends_cycle_inherits_both_ways_and_terminates() {
        let mut s = PgSchema::new();
        let mut a = NodeType::entity("aType", "A", "http://ex/A");
        a.extends.push("bType".into());
        a.properties
            .push(PropertySpec::required("a", ContentType::Int));
        let mut b = NodeType::entity("bType", "B", "http://ex/B");
        b.extends.push("aType".into());
        b.properties
            .push(PropertySpec::required("b", ContentType::Int));
        s.add_node_type(a);
        s.add_node_type(b);

        let mut pg = PropertyGraph::new();
        let both = pg.add_node(["A"]);
        pg.set_prop(both, "a", Value::Int(1));
        pg.set_prop(both, "b", Value::Int(2));
        let own_only = pg.add_node(["B"]);
        pg.set_prop(own_only, "b", Value::Int(2));
        assert_eq!(
            check(&pg, &s).failures,
            vec![NonConformance::UntypedNode {
                node: own_only,
                labels: vec!["B".into()],
            }]
        );
    }

    #[test]
    fn more_than_64_node_types_use_multi_word_rows() {
        let mut s = PgSchema::new();
        let mut pg = PropertyGraph::new();
        for i in 0..130 {
            s.add_node_type(NodeType::entity(
                format!("t{i}Type"),
                format!("L{i}"),
                format!("http://ex/L{i}"),
            ));
            pg.add_node([format!("L{i}")]);
        }
        // One rule per word boundary: sources and targets in words 0, 1, 2.
        for (name, source, target) in [("low", 3, 70), ("mid", 70, 129), ("high", 129, 3)] {
            s.add_edge_type(EdgeType {
                name: format!("{name}Type"),
                label: name.into(),
                iri: None,
                source: format!("t{source}Type"),
                targets: vec![format!("t{target}Type")],
            });
            pg.add_edge(NodeId(source), NodeId(target), name);
        }
        s.add_key(CountKey {
            for_type: "t129Type".into(),
            edge_label: "high".into(),
            min: 1,
            max: Some(1),
            target_types: vec!["t3Type".into()],
        });
        assert!(check(&pg, &s).conforms());

        // Bit 6 of word 0 (type 6) is not bit 6 of word 1 (type 70).
        let wrong_word = pg.add_edge(NodeId(3), NodeId(6), "low");
        let second = pg.add_edge(NodeId(129), NodeId(3), "high");
        let report = check(&pg, &s);
        assert_eq!(
            report.failures,
            vec![
                NonConformance::UntypedEdge {
                    edge: wrong_word,
                    label: "low".into(),
                },
                NonConformance::KeyViolation {
                    node: NodeId(129),
                    key: s.keys()[0].to_string(),
                    count: 2,
                },
            ]
        );
        assert!(pg.edge_is_live(second));
    }

    #[test]
    fn raw_node_ids_above_node_count_after_removals() {
        let mut s = schema();
        s.add_key(CountKey {
            for_type: "personType".into(),
            edge_label: "worksFor".into(),
            min: 1,
            max: None,
            target_types: vec!["departmentType".into()],
        });
        let mut pg = PropertyGraph::new();
        // Five isolated placeholders first, so the live nodes get ids 5..8.
        let placeholders: Vec<NodeId> = (0..5).map(|_| pg.add_node(["Department"])).collect();
        let alice = pg.add_node(["Person"]);
        pg.set_prop(alice, "name", Value::String("Alice".into()));
        let cs = pg.add_node(["Department"]);
        let gone = pg.add_node(["Department"]);
        pg.add_edge(alice, cs, "worksFor");
        pg.add_edge(alice, gone, "worksFor");
        assert!(pg.remove_edge(alice, gone, "worksFor"));
        for id in placeholders.into_iter().chain([gone]) {
            assert!(pg.remove_node(id));
        }
        assert_eq!(pg.node_count(), 2);
        assert!(cs.0 as usize >= pg.node_count());
        assert!(check(&pg, &s).conforms());

        // The same ids still report by raw id when they stop conforming.
        pg.remove_prop(alice, "name");
        let report = check(&pg, &s);
        assert_eq!(
            report.failures,
            vec![
                NonConformance::UntypedNode {
                    node: alice,
                    labels: vec!["Person".into()],
                },
                NonConformance::UntypedEdge {
                    edge: EdgeId(0),
                    label: "worksFor".into(),
                },
            ]
        );
    }
}
