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
//!
//! [`check`] decides the whole graph; [`check_since`] re-decides only what
//! a delta touched and merges that into the previous report (§5.4: under an
//! unchanged schema, elements a delta did not touch keep their verdicts).

use crate::graph::{EdgeId, NodeId, PropertyGraph, Touched, IRI_KEY, VALUE_KEY};
use crate::schema::compiled::{
    has_type, intersects, set_type, CompiledKey, CompiledSchema, CompiledSpec,
};
use crate::schema::{NodeType, PgSchema};
use crate::value::{ContentType, Value};
use s3pg_rdf::fxhash::FxHashMap;
use s3pg_rdf::Sym;
use std::fmt;
use std::sync::Arc;

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

/// The result of checking `PG ⊨ S_PG`. Equality and `Debug` cover the
/// failures only.
#[derive(Clone, Default)]
pub struct ConformanceReport {
    /// All failures found.
    pub failures: Vec<NonConformance>,
    /// What the report was taken against, for [`check_since`]; `None` for
    /// a report no check produced.
    basis: Option<Basis>,
}

/// The schema a report was taken against: its [`PgSchema::revision`], and
/// its compiled form with the length of the interner it was compiled at.
#[derive(Clone)]
struct Basis {
    schema_revision: u64,
    interner_len: usize,
    compiled: Arc<CompiledSchema>,
}

impl Basis {
    fn new(pg: &PropertyGraph, schema: &PgSchema, compiled: Arc<CompiledSchema>) -> Self {
        Basis {
            schema_revision: schema.revision(),
            interner_len: pg.interner().len(),
            compiled,
        }
    }
}

impl PartialEq for ConformanceReport {
    fn eq(&self, other: &Self) -> bool {
        self.failures == other.failures
    }
}

impl Eq for ConformanceReport {}

impl fmt::Debug for ConformanceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ConformanceReport")
            .field("failures", &self.failures)
            .finish()
    }
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
    let mut failures = Vec::new();
    let compiled = Arc::new(CompiledSchema::new(schema, pg.interner()));

    // T(v), indexed by raw node id; tombstoned nodes keep an empty row.
    let mut typing = Typing::dense(compiled.words, pg.node_slots());
    for node in pg.node_ids() {
        let row = typing.row_mut(node);
        type_node(pg, &compiled, node, row);
        if is_empty(row) {
            failures.push(untyped_node(pg, node));
        }
    }
    for edge in pg.edge_ids() {
        if !edge_typed(pg, &compiled, &typing, edge) {
            failures.push(untyped_edge(pg, edge));
        }
    }
    for k in &compiled.keys {
        // Nodes of the FOR type: those carrying its primary label and conforming.
        for &node in pg.nodes_with_label(&k.for_label) {
            failures.extend(key_violation(pg, k, &typing, node));
        }
    }

    ConformanceReport {
        failures,
        basis: Some(Basis::new(pg, schema, compiled)),
    }
}

/// How [`check_since`] decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CheckScope {
    /// Only what the delta touched was re-decided.
    Delta,
    /// The whole graph was checked.
    Full,
}

impl CheckScope {
    /// The scope's name, as metric labels spell it.
    pub fn as_str(self) -> &'static str {
        match self {
            CheckScope::Delta => "delta",
            CheckScope::Full => "full",
        }
    }
}

/// [`check`] in O(|Δ|): the report `check(pg, schema)` returns, computed
/// from `previous` and what changed since.
///
/// `previous` must be the report of an earlier state of this graph, and
/// `touched` must cover every change made since that state (a superset is
/// fine; [`PropertyGraph::drain_touched`] records one). Under an unchanged
/// schema, an element's verdict can only move when something it depends on
/// was touched, so this re-decides exactly those elements:
///
/// * the touched nodes' typing;
/// * edges incident to a touched node, and the touched edges;
/// * PG-Key counts of touched nodes, of touched edges' sources, and of
///   touched nodes' in-neighbours. Adding an edge *to* a hub recounts the
///   edge's source only, not the hub's in-neighbours.
///
/// Symbols the graph interned since `previous` occur only on touched
/// elements, so compiling the schema against the grown interner moves no
/// other verdict; while the interner has not grown, `previous`'s compiled
/// schema is reused. Falls back to [`check`] when `touched` is `None` (the
/// graph's first drain) or the schema's revision moved since `previous`.
pub fn check_since(
    pg: &PropertyGraph,
    schema: &PgSchema,
    previous: &ConformanceReport,
    touched: Option<&Touched>,
) -> (ConformanceReport, CheckScope) {
    let full = || (check(pg, schema), CheckScope::Full);
    let Some(touched) = touched else {
        return full();
    };
    let Some(basis) = previous
        .basis
        .as_ref()
        .filter(|b| b.schema_revision == schema.revision())
    else {
        return full();
    };
    let compiled = if basis.interner_len == pg.interner().len() {
        Arc::clone(&basis.compiled)
    } else {
        Arc::new(CompiledSchema::new(schema, pg.interner()))
    };
    let Some(sections) = Sections::split(previous, &compiled) else {
        return full();
    };

    // What to re-decide.
    let src = |e: EdgeId| pg.edge(e).src;
    let mut edges = touched.edges().to_vec();
    let mut counted = touched.nodes().to_vec();
    counted.extend(touched.edges().iter().map(|&e| src(e)));
    for &node in touched.nodes() {
        edges.extend(pg.out_edges(node).chain(pg.in_edges(node)));
        counted.extend(pg.in_edges(node).map(src));
    }
    sort_dedup(&mut edges);
    sort_dedup(&mut counted);

    // Every node a decision reads the typing of.
    let mut typed = touched.nodes().to_vec();
    for &edge in &edges {
        let e = pg.edge(edge);
        typed.extend([e.src, e.dst]);
    }
    typed.extend(&counted);
    if !compiled.keys.is_empty() {
        for &node in &counted {
            typed.extend(pg.out_edges(node).map(|e| pg.edge(e).dst));
        }
    }
    sort_dedup(&mut typed);
    let typing = Typing::sparse(pg, &compiled, &typed);

    // Each section: the previous verdicts of what was not re-decided, plus
    // the new failures, in id order.
    let kept = |redecided: &[NodeId], f: &&NonConformance| {
        redecided.binary_search(&NodeId(f.id())).is_err()
    };
    let mut failures = Vec::with_capacity(previous.failures.len());
    extend_in_id_order(
        &mut failures,
        sections
            .nodes
            .into_iter()
            .filter(|f| kept(touched.nodes(), f))
            .cloned()
            .chain(
                touched
                    .nodes()
                    .iter()
                    .filter(|&&n| pg.node_is_live(n) && is_empty(typing.row(n)))
                    .map(|&n| untyped_node(pg, n)),
            ),
    );
    extend_in_id_order(
        &mut failures,
        sections
            .edges
            .into_iter()
            .filter(|f| edges.binary_search(&EdgeId(f.id())).is_err())
            .cloned()
            .chain(
                edges
                    .iter()
                    .filter(|&&e| pg.edge_is_live(e) && !edge_typed(pg, &compiled, &typing, e))
                    .map(|&e| untyped_edge(pg, e)),
            ),
    );
    for (k, before) in compiled.keys.iter().zip(sections.keys) {
        extend_in_id_order(
            &mut failures,
            before
                .into_iter()
                .filter(|f| kept(&counted, f))
                .cloned()
                .chain(
                    counted
                        .iter()
                        .filter(|&&n| pg.node_is_live(n))
                        .filter_map(|&n| key_violation(pg, k, &typing, n)),
                ),
        );
    }

    let report = ConformanceReport {
        failures,
        basis: Some(Basis::new(pg, schema, compiled)),
    };
    (report, CheckScope::Delta)
}

fn sort_dedup<T: Ord>(ids: &mut Vec<T>) {
    ids.sort_unstable();
    ids.dedup();
}

impl NonConformance {
    /// The raw id of the node (untyped node, key violation) or edge
    /// (untyped edge) the failure is about: [`check`] orders each section
    /// by it.
    fn id(&self) -> u32 {
        match self {
            NonConformance::UntypedNode { node, .. }
            | NonConformance::KeyViolation { node, .. } => node.0,
            NonConformance::UntypedEdge { edge, .. } => edge.0,
        }
    }
}

/// Append one section's failures in id order.
fn extend_in_id_order(
    out: &mut Vec<NonConformance>,
    section: impl Iterator<Item = NonConformance>,
) {
    let start = out.len();
    out.extend(section);
    out[start..].sort_by_key(NonConformance::id);
}

/// A previous report cut into [`check`]'s sections: untyped nodes, untyped
/// edges, then one run of key violations per compiled key.
struct Sections<'r> {
    nodes: Vec<&'r NonConformance>,
    edges: Vec<&'r NonConformance>,
    keys: Vec<Vec<&'r NonConformance>>,
}

impl<'r> Sections<'r> {
    /// `None` when the report does not have `check`'s shape under
    /// `compiled` (then it cannot be the report of this schema).
    fn split(report: &'r ConformanceReport, compiled: &CompiledSchema) -> Option<Self> {
        let mut sections = Sections {
            nodes: Vec::new(),
            edges: Vec::new(),
            keys: Vec::new(),
        };
        let mut violations = Vec::new();
        for f in &report.failures {
            match f {
                NonConformance::UntypedNode { .. } => sections.nodes.push(f),
                NonConformance::UntypedEdge { .. } => sections.edges.push(f),
                NonConformance::KeyViolation { .. } => violations.push(f),
            }
        }
        // A key's run is strictly ascending by node and names the key; two
        // keys that print alike are the same key and have the same run.
        let mut rest = violations.as_slice();
        for k in &compiled.keys {
            let mut len = 0;
            while let Some(NonConformance::KeyViolation { node, key, .. }) = rest.get(len) {
                if *key != k.text || (len > 0 && rest[len - 1].id() >= node.0) {
                    break;
                }
                len += 1;
            }
            sections.keys.push(rest[..len].to_vec());
            rest = &rest[len..];
        }
        rest.is_empty().then_some(sections)
    }
}

/// `T(v)` rows for the nodes a check reads.
struct Typing {
    words: usize,
    /// `None`: a row per node slot, node `n`'s at `n · words`. `Some`: the
    /// row index of each typed node.
    index: Option<FxHashMap<NodeId, usize>>,
    bits: Vec<u64>,
}

impl Typing {
    fn dense(words: usize, slots: usize) -> Self {
        Typing {
            words,
            index: None,
            bits: vec![0; slots * words],
        }
    }

    /// The rows of `nodes` alone; tombstoned nodes get an empty row.
    fn sparse(pg: &PropertyGraph, compiled: &CompiledSchema, nodes: &[NodeId]) -> Self {
        let mut typing = Typing {
            words: compiled.words,
            index: Some(nodes.iter().enumerate().map(|(i, &n)| (n, i)).collect()),
            bits: vec![0; nodes.len() * compiled.words],
        };
        for &node in nodes {
            if pg.node_is_live(node) {
                type_node(pg, compiled, node, typing.row_mut(node));
            }
        }
        typing
    }

    fn at(&self, node: NodeId) -> usize {
        self.words
            * match &self.index {
                None => node.0 as usize,
                Some(index) => index[&node],
            }
    }

    fn row(&self, node: NodeId) -> &[u64] {
        &self.bits[self.at(node)..][..self.words]
    }

    fn row_mut(&mut self, node: NodeId) -> &mut [u64] {
        let at = self.at(node);
        &mut self.bits[at..][..self.words]
    }
}

fn is_empty(row: &[u64]) -> bool {
    row.iter().all(|&w| w == 0)
}

/// Set `T(v)`'s bits, visiting only the types carrying one of its labels.
fn type_node(pg: &PropertyGraph, compiled: &CompiledSchema, node: NodeId, row: &mut [u64]) {
    let n = pg.node(node);
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
}

fn untyped_node(pg: &PropertyGraph, node: NodeId) -> NonConformance {
    NonConformance::UntypedNode {
        node,
        labels: pg
            .node(node)
            .labels
            .iter()
            .map(|&l| pg.resolve(l).to_string())
            .collect(),
    }
}

/// Whether some edge type admits `edge` given its endpoints' typing.
fn edge_typed(
    pg: &PropertyGraph,
    compiled: &CompiledSchema,
    typing: &Typing,
    edge: EdgeId,
) -> bool {
    let e = pg.edge(edge);
    let (src, dst) = (typing.row(e.src), typing.row(e.dst));
    e.labels.iter().any(|&label| {
        compiled
            .rules_with_label(label)
            .iter()
            .any(|rule| has_type(src, rule.source) && intersects(dst, &rule.targets))
    })
}

fn untyped_edge(pg: &PropertyGraph, edge: EdgeId) -> NonConformance {
    let label = pg
        .edge(edge)
        .labels
        .first()
        .map(|&l| pg.resolve(l).to_string())
        .unwrap_or_default();
    NonConformance::UntypedEdge { edge, label }
}

/// The violation of `k` at `node`, if `node` is of the key's FOR type and
/// its count of matching out-edges falls outside the key's bounds.
fn key_violation(
    pg: &PropertyGraph,
    k: &CompiledKey,
    typing: &Typing,
    node: NodeId,
) -> Option<NonConformance> {
    if !has_type(typing.row(node), k.for_type) {
        return None;
    }
    let count = k.edge_label.map_or(0, |label| {
        pg.out_edges(node)
            .filter(|&e| {
                let edge = pg.edge(e);
                edge.labels.contains(&label) && intersects(typing.row(edge.dst), &k.targets)
            })
            .count()
    });
    (!k.key.admits(count)).then(|| NonConformance::KeyViolation {
        node,
        key: k.text.clone(),
        count,
    })
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
    fn check_since_re_decides_what_changed_and_falls_back_when_it_must() {
        let mut s = schema();
        s.add_key(CountKey {
            for_type: "personType".into(),
            edge_label: "worksFor".into(),
            min: 1,
            max: Some(1),
            target_types: vec!["departmentType".into()],
        });
        let mut pg = conforming_graph();
        let (alice, bob, cs) = (NodeId(0), NodeId(1), NodeId(2));
        let since = |pg: &mut PropertyGraph, s: &PgSchema, previous: &ConformanceReport| {
            let touched = pg.drain_touched();
            let (report, scope) = check_since(pg, s, previous, touched.as_ref());
            assert_eq!(report, check(pg, s), "{scope:?}");
            (report, scope)
        };

        // Bob works nowhere. The first drain recorded nothing: whole check.
        let first = check(&pg, &s);
        let (report, scope) = since(&mut pg, &s, &first);
        assert_eq!((report.failures.len(), scope), (1, CheckScope::Full));

        // Bob gets a department, Alice a second one.
        pg.add_edge(bob, cs, "worksFor");
        pg.add_edge(alice, cs, "worksFor");
        let (report, scope) = since(&mut pg, &s, &report);
        assert_eq!(scope, CheckScope::Delta);
        assert!(matches!(
            report.failures[..],
            [NonConformance::KeyViolation { node, count: 2, .. }] if node == alice
        ));

        // The department loses its label: the edges into it and both
        // in-neighbours' counts move, though only `cs` was touched.
        assert!(pg.remove_label(cs, "Department"));
        let (report, scope) = since(&mut pg, &s, &report);
        assert_eq!(scope, CheckScope::Delta);
        assert_eq!(report.failures.len(), 1 + 3 + 2);

        // A schema the report was not taken against: whole check.
        s.keys_mut()[0].min = 0;
        let (_, scope) = since(&mut pg, &s, &report);
        assert_eq!(scope, CheckScope::Full);
        // Nor can a report no check produced be merged into.
        let touched = pg.drain_touched();
        let (_, scope) = check_since(&pg, &s, &ConformanceReport::default(), touched.as_ref());
        assert_eq!(scope, CheckScope::Full);
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
