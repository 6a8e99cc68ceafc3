//! Data transformation `F_dt[F_st] : G → PG` — Algorithm 1 of the paper.
//!
//! The two-phase algorithm:
//!
//! 1. **Entities to PG nodes** (lines 4–14): stream the `rdf:type` triples
//!    into the entity-type map `Ψ_ETD`, then create one PG node per entity
//!    with one label per declared type and the entity IRI as a key/value
//!    (`iri`) property. Untyped subjects get their `Resource` fallback node
//!    in this phase too, so that entity-ness is frozen before phase 2.
//!    This module holds that phase (`ingest_phase1`).
//! 2. **Properties to key/values and edges** (lines 15–31): stream the
//!    remaining triples. If the object is a typed entity, create an edge
//!    (lines 16–20). If the predicate is a single-type literal with
//!    cardinality at most one and the mode is parsimonious, encode the value
//!    as a key/value property (lines 21–23). Otherwise create a
//!    literal-carrier node labelled by the value's datatype, store the value
//!    under `ov`, and link it (lines 24–31). One loop classifies and writes
//!    each statement, for the one-shot transform and for a delta; it lives
//!    with the driver of both phases in `phase2.rs`.
//!
//! Data that falls outside the schema (unknown predicates, unexpected
//! datatypes, untyped subjects) never loses information: the schema is
//! *widened monotonically* on the fly (new carrier types, fallback edge
//! types, the `Resource` type), so `PG ⊨ S_PG` is maintained.
//!
//! # Strings are touched once
//!
//! The input graph's terms are interned symbols; everything the mapping
//! persists — [`TransformState`], the `Mapping`, the PG's `iri` index — is
//! keyed by string, because every delta arrives with an interner of its
//! own. `PassTables` is the bridge, built per pass and sized by *that
//! pass's* interner (so an update stays O(|Δ|)): a dense table from term
//! symbol to `(NodeId, type-set id)`, filled by one string lookup the first
//! time a term is met, after which a triple costs array indexing.

use crate::metrics::PipelineMetrics;
use crate::mode::Mode;
use crate::schema_transform::{ensure_entity_type, SchemaTransform, RESOURCE_LABEL, RESOURCE_TYPE};
use s3pg_pg::{CountKey, EdgeType, NodeId, PropertyGraph, Value, IRI_KEY};
use s3pg_rdf::fxhash::FxHashMap;
use s3pg_rdf::{Graph, Sym, Term};
use std::borrow::Cow;

/// Key under which language tags of `rdf:langString` carrier nodes are kept.
pub const LANG_KEY: &str = "lang";

/// A carrier node standing in for a resource object whose entity was
/// unknown when its triple was ingested — a *forward reference* across
/// deltas. If the entity materialises in a later delta, the carrier is
/// replaced with a real edge (see `repair_pending_refs`), which is what
/// keeps `F_dt(G ∪ Δ) = F_dt(G) ∪ F_dt(Δ)` exact regardless of how a
/// workload is split into deltas.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingRef {
    /// The subject node the carrier hangs off.
    pub src: NodeId,
    /// The edge label of the carrier edge.
    pub label: String,
    /// The source predicate (drives schema widening on repair).
    pub predicate: String,
    /// The placeholder carrier node.
    pub carrier: NodeId,
}

/// Mutable transformation state carried across incremental updates: the
/// persistent part of `Ψ_ETD` (entity → node-type names).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TransformState {
    /// Entity reference (IRI or `_:label`) → node type names of its classes.
    pub entity_types: FxHashMap<String, Vec<String>>,
    /// Resource objects currently represented by placeholder carriers,
    /// keyed by entity reference: repaired into real edges if/when the
    /// entity arrives in a later delta.
    pub pending_refs: FxHashMap<String, Vec<PendingRef>>,
    /// The mode the data was transformed under.
    pub mode: Mode,
    /// Memo of already-verified widenings: key
    /// (`widen_cache_key`: subject types + edge label) → admitted target
    /// types, so the monotone schema-widening check runs once per
    /// combination rather than once per triple. The subject types are part
    /// of the key because `widen_edge_type` creates edge types per
    /// source type — a label-only memo would skip source types it has
    /// never widened.
    pub widen_cache: FxHashMap<String, s3pg_rdf::fxhash::FxHashSet<String>>,
}

/// Key of [`TransformState::widen_cache`]: the subject's type names plus
/// the edge label, the exact inputs [`widen_edge_type`] dispatches on
/// (besides the targets, which form the cached set).
pub(crate) fn widen_cache_key(subject_types: &[String], label: &str) -> String {
    let mut key = subject_types.join(",");
    key.push('|');
    key.push_str(label);
    key
}

/// Counters describing what one transformation pass produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TransformCounters {
    pub entity_nodes: usize,
    pub carrier_nodes: usize,
    pub edges: usize,
    pub key_values: usize,
    /// Triples whose predicate had no handling in the schema (fallback path).
    pub fallback_triples: usize,
}

/// The result of a data transformation.
#[derive(Debug, Clone)]
pub struct DataTransform {
    pub pg: PropertyGraph,
    pub state: TransformState,
    pub counters: TransformCounters,
}

/// Transform `graph` into a property graph under `transform`'s schema and
/// mapping. The schema may be widened (monotonically) for out-of-schema
/// data.
pub fn transform_data(graph: &Graph, transform: &mut SchemaTransform, mode: Mode) -> DataTransform {
    transform_data_with(graph, transform, mode, &mut PipelineMetrics::default())
}

/// [`transform_data`], recording per-phase spans and phase-2 counts into
/// `metrics`.
pub(crate) fn transform_data_with(
    graph: &Graph,
    transform: &mut SchemaTransform,
    mode: Mode,
    metrics: &mut PipelineMetrics,
) -> DataTransform {
    let mut pg = PropertyGraph::with_capacity(graph.len() / 2, graph.len());
    let mut state = TransformState {
        mode,
        ..Default::default()
    };
    let mut counters = TransformCounters::default();
    crate::phase2::ingest(
        graph,
        transform,
        &mut pg,
        &mut state,
        &mut counters,
        Some(metrics),
    );
    DataTransform {
        pg,
        state,
        counters,
    }
}

/// What a pass knows about one resource term of its input graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Slot {
    /// Not met yet: the next lookup goes through the term's string.
    Unseen,
    /// Typed by this graph and waiting for phase 1 to reach it.
    Queued,
    /// No entity by this name — cached by phase 2 only, where entity-ness
    /// is frozen.
    NotEntity,
    /// An entity: its node and the id of its node-type set.
    Entity { node: NodeId, types: u32 },
}

/// The per-pass symbol tables (see the module docs): term → [`Slot`] with
/// IRIs and blank nodes kept apart, and the distinct node-type sets met,
/// which everything per `(subject types, predicate)` is memoised under.
#[derive(Debug)]
pub(crate) struct PassTables {
    iris: Vec<Slot>,
    blanks: Vec<Slot>,
    /// Type-set id → the type names, as `TransformState::entity_types`
    /// lists them.
    pub(crate) type_sets: Vec<Vec<String>>,
    type_set_ids: FxHashMap<Vec<String>, u32>,
}

impl PassTables {
    pub(crate) fn new(graph: &Graph) -> Self {
        let symbols = graph.interner().len();
        PassTables {
            iris: vec![Slot::Unseen; symbols],
            blanks: vec![Slot::Unseen; symbols],
            type_sets: Vec::new(),
            type_set_ids: FxHashMap::default(),
        }
    }

    fn slot_mut(&mut self, term: Term) -> &mut Slot {
        match term {
            Term::Iri(s) => &mut self.iris[s.index()],
            Term::Blank(s) => &mut self.blanks[s.index()],
            Term::Literal(_) => unreachable!("literals are not entities"),
        }
    }

    #[inline]
    pub(crate) fn get(&self, term: Term) -> Slot {
        match term {
            Term::Iri(s) => self.iris[s.index()],
            Term::Blank(s) => self.blanks[s.index()],
            Term::Literal(_) => Slot::NotEntity,
        }
    }

    fn type_set(&mut self, types: &[String]) -> u32 {
        if let Some(&id) = self.type_set_ids.get(types) {
            return id;
        }
        let id = u32::try_from(self.type_sets.len()).expect("too many type sets");
        self.type_sets.push(types.to_vec());
        self.type_set_ids.insert(types.to_vec(), id);
        id
    }

    /// Phase 2's view of an object term: an entity known to the frozen
    /// state, or not one. The answer is cached either way.
    pub(crate) fn object(
        &mut self,
        graph: &Graph,
        term: Term,
        state: &TransformState,
        pg: &PropertyGraph,
    ) -> Slot {
        let seen = self.get(term);
        if seen != Slot::Unseen {
            return seen;
        }
        let entity = entity_ref(graph, term);
        let slot = match state.entity_types.get(entity.as_ref()) {
            Some(types) => Slot::Entity {
                node: pg
                    .node_by_iri(&entity)
                    .expect("phase 1 materialised every entity node"),
                types: self.type_set(types),
            },
            None => Slot::NotEntity,
        };
        *self.slot_mut(term) = slot;
        slot
    }
}

/// A class of the input graph, registered with the mapping and the schema.
struct ClassEntry {
    type_name: String,
    label: String,
    /// The label's PG symbol, interned when the first node takes it.
    sym: Option<Sym>,
}

/// Phase 1 of Algorithm 1 (lines 4–14): materialise one PG node per entity.
///
/// All entity nodes — typed entities *and* untyped subjects (which get the
/// `Resource` fallback) — are created here, before any property is
/// processed: typed entities by their first `rdf:type` statement, then
/// untyped `subjects` as given. After this phase `state.entity_types` and
/// the set of entity nodes are frozen for the rest of the pass and every
/// subject has its [`Slot`] in `tables`, which is what lets phase 2 decide
/// edge versus carrier in one look-up per object.
pub(crate) fn ingest_phase1(
    graph: &Graph,
    subjects: &[Term],
    transform: &mut SchemaTransform,
    pg: &mut PropertyGraph,
    state: &mut TransformState,
    counters: &mut TransformCounters,
    tables: &mut PassTables,
) {
    let type_p = graph.type_predicate_opt();

    if let Some(type_p) = type_p {
        let mut typed: Vec<Term> = Vec::new();
        for t in graph.match_pattern(None, Some(type_p), None) {
            // A literal "type" is not a class.
            if t.o.is_iri() && tables.get(t.s) == Slot::Unseen {
                *tables.slot_mut(t.s) = Slot::Queued;
                typed.push(t.s);
            }
        }
        let mut classes: FxHashMap<Sym, ClassEntry> = FxHashMap::default();
        let mut labels: Vec<Sym> = Vec::new();
        for s_term in typed {
            let entity = entity_ref(graph, s_term);
            // Register the entity's types *before* materialising the node so
            // the untyped-Resource fallback does not fire for typed entities.
            let types = state
                .entity_types
                .entry(entity.as_ref().to_string())
                .or_default();
            labels.clear();
            for class in graph
                .statements_of(s_term)
                .filter(|t| t.p == type_p)
                .filter_map(|t| t.o.as_iri())
            {
                let entry = classes.entry(class).or_insert_with(|| {
                    let class_iri = graph.resolve(class);
                    let (type_name, label) = transform.mapping.register_class(class_iri);
                    ensure_entity_type(&mut transform.pg_schema, &type_name, &label, class_iri);
                    ClassEntry {
                        type_name,
                        label,
                        sym: None,
                    }
                });
                if !types.contains(&entry.type_name) {
                    types.push(entry.type_name.clone());
                }
                labels.push(class);
            }
            let types = tables.type_set(types);
            let node = ensure_entity_node(pg, transform, state, &entity, counters);
            for class in &labels {
                let entry = classes.get_mut(class).expect("registered above");
                let sym = *entry.sym.get_or_insert_with(|| pg.intern(&entry.label));
                pg.add_label_sym(node, sym);
            }
            *tables.slot_mut(s_term) = Slot::Entity { node, types };
        }
    }

    // Untyped subjects with at least one data statement get their
    // `Resource` node now, so that "is the object a typed entity?" in
    // phase 2 no longer depends on subject processing order; subjects an
    // earlier pass typed are looked up here, once.
    for &s_term in subjects {
        if tables.get(s_term) != Slot::Unseen {
            continue;
        }
        let subject = entity_ref(graph, s_term);
        if !state.entity_types.contains_key(subject.as_ref())
            && graph.statements_of(s_term).all(|t| Some(t.p) == type_p)
        {
            continue;
        }
        let node = ensure_entity_node(pg, transform, state, &subject, counters);
        let types = tables.type_set(&state.entity_types[subject.as_ref()]);
        *tables.slot_mut(s_term) = Slot::Entity { node, types };
    }
}

/// Reference string for an entity term: the IRI, or `_:label` for blanks.
pub fn entity_ref(graph: &Graph, term: Term) -> Cow<'_, str> {
    match term {
        Term::Iri(s) => Cow::Borrowed(graph.resolve(s)),
        Term::Blank(s) => Cow::Owned(format!("_:{}", graph.resolve(s))),
        Term::Literal(_) => unreachable!("literals are not entities"),
    }
}

/// Get or create the PG node for an entity. Entities first seen in subject
/// position without any type get the `Resource` label (and type).
fn ensure_entity_node(
    pg: &mut PropertyGraph,
    transform: &mut SchemaTransform,
    state: &mut TransformState,
    entity: &str,
    counters: &mut TransformCounters,
) -> NodeId {
    // Untyped entity: Resource fallback keeps PG ⊨ S_PG.
    // (resourceType is always present in the schema.)
    let untyped = (!state.entity_types.contains_key(entity)).then_some(RESOURCE_LABEL);
    if untyped.is_some() {
        let types = vec![RESOURCE_TYPE.to_string()];
        state.entity_types.insert(entity.to_string(), types);
    }
    // A subject that a deletion re-derives keeps its node.
    if let Some(node) = pg.node_by_iri(entity) {
        untyped.inspect(|label| pg.add_label(node, label));
        return node;
    }
    let node = pg.add_node(untyped);
    pg.set_prop(node, IRI_KEY, Value::String(entity.to_string()));
    counters.entity_nodes += 1;
    repair_pending_refs(pg, transform, state, entity, node);
    node
}

/// Replace carrier placeholders recorded for `entity` (triples that
/// referenced it before any of its own statements had arrived) with real
/// edges to its freshly materialised node, widening the edge types with the
/// entity's node types. Invoked whenever an entity node materialises, so
/// deltas may forward-reference entities of later deltas and the PG still
/// converges to the one-shot transform.
fn repair_pending_refs(
    pg: &mut PropertyGraph,
    transform: &mut SchemaTransform,
    state: &mut TransformState,
    entity: &str,
    node: NodeId,
) {
    let Some(refs) = state.pending_refs.remove(entity) else {
        return;
    };
    let targets = state.entity_types.get(entity).cloned().unwrap_or_default();
    for r in refs {
        // The carrier or its edge may have been deleted since it was
        // recorded; repair only what still stands.
        if !pg.node_is_live(r.carrier) || !pg.remove_edge(r.src, r.carrier, &r.label) {
            continue;
        }
        pg.remove_node(r.carrier);
        pg.add_edge(r.src, node, &r.label);
        let subject_types = match pg.prop(r.src, IRI_KEY) {
            Some(Value::String(iri)) => state.entity_types.get(iri).cloned().unwrap_or_default(),
            _ => Vec::new(),
        };
        widen_edge_type(
            transform,
            &subject_types,
            &r.label,
            &r.predicate,
            targets.clone(),
        );
    }
}

/// Convert an RDF literal to a PG value, keeping the exact lexical form:
/// when the typed parse does not round-trip (e.g. `"042"^^xsd:integer`),
/// the value is stored as a string so `M(F_dt(G)) = G` holds exactly.
pub fn preserve_value(lexical: &str, datatype: &str) -> Value {
    let v = Value::from_xsd(lexical, datatype);
    if v.lexical_eq(lexical) {
        v
    } else {
        Value::String(lexical.to_string())
    }
}

/// The value (and language tag, if any) a carrier node holds for an object
/// term that is not a typed entity.
pub(crate) fn carrier_value(graph: &Graph, o: Term) -> (Value, Option<Sym>) {
    match o {
        Term::Literal(l) => {
            let lex = graph.resolve(l.lexical);
            let value = if l.lang.is_some() {
                Value::String(lex.to_string())
            } else {
                preserve_value(lex, graph.resolve(l.datatype))
            };
            (value, l.lang)
        }
        resource => (
            Value::String(entity_ref(graph, resource).into_owned()),
            None,
        ),
    }
}

/// Monotone schema widening: make sure an edge type with `label` exists for
/// the subject's (first) type and that it admits the given targets.
pub(crate) fn widen_edge_type(
    transform: &mut SchemaTransform,
    subject_types: &[String],
    label: &str,
    predicate: &str,
    targets: Vec<String>,
) {
    // Prefer an edge type already declared for any of the subject's types
    // (the common case: the schema transformation declared it on the shape
    // that owns the property); only declare a fresh one when none exists.
    // The schema is borrowed mutably only to change it, so a widening that
    // admits nothing new leaves its revision alone.
    let schema = &transform.pg_schema;
    let existing = subject_types
        .iter()
        .map(|tn| format!("{label}_{tn}"))
        .find(|name| schema.edge_type(name).is_some());
    match existing {
        Some(name) => {
            if !targets
                .iter()
                .all(|t| schema.edge_type(&name).unwrap().allows_target(t))
            {
                let et = transform.pg_schema.edge_type_mut(&name).unwrap();
                for t in &targets {
                    et.add_target(t.clone());
                }
            }
        }
        None => {
            let source = subject_types
                .first()
                .cloned()
                .unwrap_or_else(|| RESOURCE_TYPE.to_string());
            transform.pg_schema.add_edge_type(EdgeType {
                name: format!("{label}_{source}"),
                label: label.to_string(),
                iri: Some(predicate.to_string()),
                source,
                targets: targets.clone(),
            });
        }
    }
    // PG-Keys counting this edge label must admit the new target types too,
    // or previously valid nodes would spuriously violate their COUNT keys.
    let narrow = |key: &CountKey| {
        key.edge_label == label
            && subject_types.contains(&key.for_type)
            && targets.iter().any(|t| !key.target_types.contains(t))
    };
    if transform.pg_schema.keys().iter().any(narrow) {
        for key in transform.pg_schema.keys_mut() {
            if narrow(key) {
                for t in &targets {
                    if !key.target_types.contains(t) {
                        key.target_types.push(t.clone());
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema_transform::transform_schema;
    use s3pg_pg::{conformance, VALUE_KEY};
    use s3pg_rdf::parser::parse_turtle;
    use s3pg_rdf::vocab;
    use s3pg_shacl::parser::parse_shacl_turtle;

    const SCHEMA: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .

shape:Person a sh:NodeShape ; sh:targetClass :Person ;
    sh:property [ sh:path :name ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] .

shape:Student a sh:NodeShape ; sh:targetClass :Student ;
    sh:node shape:Person ;
    sh:property [ sh:path :regNo ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] ;
    sh:property [ sh:path :advisedBy ; sh:class :Professor ; sh:minCount 0 ] ;
    sh:property [
        sh:path :takesCourse ;
        sh:or ( [ sh:class :Course ] [ sh:datatype xsd:string ] ) ;
        sh:minCount 1 ] .

shape:Professor a sh:NodeShape ; sh:targetClass :Professor ;
    sh:property [ sh:path :name ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] .

shape:Course a sh:NodeShape ; sh:targetClass :Course ;
    sh:property [ sh:path :title ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] .
"#;

    const DATA: &str = r#"
@prefix : <http://ex/> .
:bob a :Person, :Student ; :name "Bob" ; :regNo "Bs12" ;
     :advisedBy :alice ; :takesCourse :db, "Self Study" .
:alice a :Person, :Professor ; :name "Alice" .
:db a :Course ; :title "Databases" .
"#;

    fn setup(mode: Mode) -> (SchemaTransform, DataTransform) {
        let shapes = parse_shacl_turtle(SCHEMA).unwrap();
        let mut st = transform_schema(&shapes, mode);
        let g = parse_turtle(DATA).unwrap();
        let dt = transform_data(&g, &mut st, mode);
        (st, dt)
    }

    #[test]
    fn phase1_creates_multi_labelled_entity_nodes() {
        let (_, dt) = setup(Mode::Parsimonious);
        let bob = dt.pg.node_by_iri("http://ex/bob").unwrap();
        let labels = dt.pg.labels_of(bob);
        assert!(labels.contains(&"Person"));
        assert!(labels.contains(&"Student"));
        assert_eq!(
            dt.pg.prop(bob, IRI_KEY),
            Some(&Value::String("http://ex/bob".into()))
        );
    }

    #[test]
    fn parsimonious_literals_become_key_values() {
        let (_, dt) = setup(Mode::Parsimonious);
        let bob = dt.pg.node_by_iri("http://ex/bob").unwrap();
        assert_eq!(dt.pg.prop(bob, "name"), Some(&Value::String("Bob".into())));
        assert_eq!(
            dt.pg.prop(bob, "regNo"),
            Some(&Value::String("Bs12".into()))
        );
        assert!(dt.counters.key_values >= 3); // name×2, regNo
    }

    #[test]
    fn entity_objects_become_edges() {
        let (_, dt) = setup(Mode::Parsimonious);
        let bob = dt.pg.node_by_iri("http://ex/bob").unwrap();
        let alice = dt.pg.node_by_iri("http://ex/alice").unwrap();
        assert!(dt.pg.has_edge(bob, alice, "advisedBy"));
        let db = dt.pg.node_by_iri("http://ex/db").unwrap();
        assert!(dt.pg.has_edge(bob, db, "takesCourse"));
    }

    #[test]
    fn hetero_literal_values_become_carrier_nodes() {
        let (_, dt) = setup(Mode::Parsimonious);
        let bob = dt.pg.node_by_iri("http://ex/bob").unwrap();
        // "Self Study" must live on a STRING carrier linked via takesCourse.
        let carrier = dt
            .pg
            .out_edges(bob)
            .map(|e| dt.pg.edge(e).dst)
            .find(|&n| dt.pg.labels_of(n) == vec!["STRING"])
            .expect("carrier node");
        assert_eq!(
            dt.pg.prop(carrier, VALUE_KEY),
            Some(&Value::String("Self Study".into()))
        );
        assert_eq!(dt.counters.carrier_nodes, 1);
    }

    #[test]
    fn transformed_graph_conforms_to_transformed_schema() {
        let (st, dt) = setup(Mode::Parsimonious);
        let report = conformance::check(&dt.pg, &st.pg_schema);
        assert!(report.conforms(), "{:#?}", report.failures);
    }

    #[test]
    fn non_parsimonious_has_no_data_key_values() {
        let (st, dt) = setup(Mode::NonParsimonious);
        let bob = dt.pg.node_by_iri("http://ex/bob").unwrap();
        assert_eq!(dt.pg.prop(bob, "name"), None);
        assert_eq!(dt.counters.key_values, 0);
        // name values live on carriers instead.
        assert!(dt.counters.carrier_nodes >= 4); // 2 names, regNo, Self Study
        let report = conformance::check(&dt.pg, &st.pg_schema);
        assert!(report.conforms(), "{:#?}", report.failures);
    }

    #[test]
    fn non_parsimonious_creates_more_nodes_than_parsimonious() {
        let (_, pars) = setup(Mode::Parsimonious);
        let (_, non_pars) = setup(Mode::NonParsimonious);
        assert!(non_pars.pg.node_count() > pars.pg.node_count());
        assert!(non_pars.pg.edge_count() > pars.pg.edge_count());
    }

    #[test]
    fn unknown_predicate_uses_lossless_fallback() {
        let shapes = parse_shacl_turtle(SCHEMA).unwrap();
        let mut st = transform_schema(&shapes, Mode::Parsimonious);
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Person ; :name "Bob" ; :surprise "boo" .
"#,
        )
        .unwrap();
        let dt = transform_data(&g, &mut st, Mode::Parsimonious);
        assert_eq!(dt.counters.fallback_triples, 1);
        // The value is preserved on a carrier node.
        let bob = dt.pg.node_by_iri("http://ex/bob").unwrap();
        assert!(dt
            .pg
            .out_edges(bob)
            .any(|e| dt.pg.edge_labels_of(e).contains(&"surprise")));
        // Schema was widened, so conformance still holds.
        let report = conformance::check(&dt.pg, &st.pg_schema);
        assert!(report.conforms(), "{:#?}", report.failures);
    }

    #[test]
    fn untyped_subject_gets_resource_label() {
        let shapes = parse_shacl_turtle(SCHEMA).unwrap();
        let mut st = transform_schema(&shapes, Mode::Parsimonious);
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:mystery :name "Nobody" .
"#,
        )
        .unwrap();
        let dt = transform_data(&g, &mut st, Mode::Parsimonious);
        let node = dt.pg.node_by_iri("http://ex/mystery").unwrap();
        assert_eq!(dt.pg.labels_of(node), vec![RESOURCE_LABEL]);
        let report = conformance::check(&dt.pg, &st.pg_schema);
        assert!(report.conforms(), "{:#?}", report.failures);
    }

    #[test]
    fn lang_tagged_literal_keeps_tag_on_carrier() {
        let shapes = parse_shacl_turtle(SCHEMA).unwrap();
        let mut st = transform_schema(&shapes, Mode::Parsimonious);
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Person ; :name "Bob"@en .
"#,
        )
        .unwrap();
        let dt = transform_data(&g, &mut st, Mode::Parsimonious);
        let bob = dt.pg.node_by_iri("http://ex/bob").unwrap();
        // Not stored as a plain key/value: the tag would be lost.
        assert_eq!(dt.pg.prop(bob, "name"), None);
        let carrier = dt
            .pg
            .out_edges(bob)
            .map(|e| dt.pg.edge(e).dst)
            .next()
            .unwrap();
        assert_eq!(
            dt.pg.prop(carrier, LANG_KEY),
            Some(&Value::String("en".into()))
        );
        assert_eq!(
            dt.pg.prop(carrier, VALUE_KEY),
            Some(&Value::String("Bob".into()))
        );
    }

    #[test]
    fn non_canonical_lexical_forms_are_preserved() {
        assert_eq!(
            preserve_value("042", vocab::xsd::INTEGER),
            Value::String("042".into())
        );
        assert_eq!(preserve_value("42", vocab::xsd::INTEGER), Value::Int(42));
    }

    #[test]
    fn repeated_scalar_kv_values_accumulate_to_arrays() {
        // Violating data (regNo twice) must not silently lose a value.
        let shapes = parse_shacl_turtle(SCHEMA).unwrap();
        let mut st = transform_schema(&shapes, Mode::Parsimonious);
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Person ; :name "Bob", "Robert" .
"#,
        )
        .unwrap();
        let dt = transform_data(&g, &mut st, Mode::Parsimonious);
        let bob = dt.pg.node_by_iri("http://ex/bob").unwrap();
        match dt.pg.prop(bob, "name") {
            Some(Value::List(items)) => assert_eq!(items.len(), 2),
            other => panic!("expected array, got {other:?}"),
        }
        // And the PG must NOT conform — mirroring G ⊭ S_G (Def. 3.3).
        let report = conformance::check(&dt.pg, &st.pg_schema);
        assert!(!report.conforms());
    }

    #[test]
    fn blank_node_entities_are_supported() {
        let shapes = parse_shacl_turtle(SCHEMA).unwrap();
        let mut st = transform_schema(&shapes, Mode::Parsimonious);
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
_:b a :Person ; :name "Anon" .
"#,
        )
        .unwrap();
        let dt = transform_data(&g, &mut st, Mode::Parsimonious);
        let node = dt.pg.node_by_iri("_:b").unwrap();
        assert!(dt.pg.labels_of(node).contains(&"Person"));
    }

    #[test]
    fn counters_add_up() {
        let (_, dt) = setup(Mode::Parsimonious);
        assert_eq!(dt.counters.entity_nodes, 3);
        assert_eq!(dt.pg.node_count(), 3 + dt.counters.carrier_nodes);
        assert_eq!(dt.pg.edge_count(), dt.counters.edges);
    }
}
