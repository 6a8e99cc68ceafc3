//! Phase 2 of Algorithm 1 — classify, then apply — and the driver that
//! runs both phases.
//!
//! Phase 1 (`data_transform::ingest_phase1`) assigns every entity its
//! `NodeId` and mutates the mapping, and it leaves the mapping, the
//! entity-type map and the node set frozen. Phase 2 (properties →
//! key/values, edges, carriers) is then a classification of each statement
//! against that frozen view, done in two halves:
//!
//! * `classify` streams the subjects in term order and emits an
//!   **operation buffer** (`Op`) that refers to pass-local label / key /
//!   datatype tables. Per statement it does array indexing only: the
//!   subject's and object's `(NodeId, type-set id)` come from the pass's
//!   `PassTables`; `(type-set id, predicate symbol)` resolves once to an
//!   encoding (key/value key, edge label, fallback); and a
//!   `(type-set, label, target)` memo stands in front of
//!   `TransformState::widen_cache`, so a schema-widening request is emitted
//!   once per combination.
//! * `apply` replays the buffer through the property graph's `*_sym` bulk
//!   entry points. Labels, keys and carrier types are registered and
//!   interned *lazily, when the first operation that uses them is applied*,
//!   so `register_edge_label`, `ensure_carrier` and `widen_edge_type` run in
//!   statement order.
//!
//! The one-shot transform and every delta run the same [`ingest`] on the
//! calling thread, so F_dt's output — node ids, carrier ids, edge ids,
//! collision-suffixed names and registration order — is a function of
//! `(G, S_G, mode)` alone; `tests/fdt_golden.rs` pins it.
//!
//! For the one-shot pipeline, when a trace is active (the caller opened a
//! span on this thread), each phase records a span and `classify` a
//! `phase2_classify` span inside `phase2_props`. A delta is not
//! instrumented here.

use crate::data_transform::{
    carrier_value, ingest_phase1, preserve_value, widen_cache_key, widen_edge_type, PassTables,
    PendingRef, Slot, TransformCounters, TransformState, LANG_KEY,
};
use crate::mapping::Handling;
use crate::metrics::{EncodingCounts, PipelineMetrics};
use crate::schema_transform::{ensure_carrier, SchemaTransform, ANY_IRI_DATATYPE};
use s3pg_obs::tracer;
use s3pg_pg::{NodeId, PropertyGraph, Value, VALUE_KEY};
use s3pg_rdf::fxhash::{FxHashMap, FxHashSet};
use s3pg_rdf::{Graph, Sym, Term};
use std::time::Instant;

/// Both phases of Algorithm 1 over `graph`, adding to `pg`. `metrics` is
/// the one-shot pipeline's instrument: with it each phase is timed and,
/// under an active trace, records its span. The delta path passes `None`
/// and records nothing — an update's spans are the server's.
pub(crate) fn ingest(
    graph: &Graph,
    transform: &mut SchemaTransform,
    pg: &mut PropertyGraph,
    state: &mut TransformState,
    counters: &mut TransformCounters,
    mut metrics: Option<&mut PipelineMetrics>,
) {
    let traced = metrics.is_some();
    let span = |name| traced.then(|| tracer().span_here(name));
    // The subject list and the symbol tables serve both phases; making
    // them is phase 1's first step, so the two phase spans cover the pass.
    let t0 = Instant::now();
    let phase1_span = span("phase1_nodes");
    let subjects = graph.subjects_distinct();
    let mut tables = PassTables::new(graph);
    ingest_phase1(
        graph,
        &subjects,
        transform,
        pg,
        state,
        counters,
        &mut tables,
    );
    drop(phase1_span);
    if let Some(metrics) = metrics.as_deref_mut() {
        let nodes = counters.entity_nodes as u64;
        metrics.record("phase1_nodes", t0.elapsed(), nodes, "nodes");
    }

    let t1 = Instant::now();
    let phase2_span = span("phase2_props");
    let classify_span = span("phase2_classify");
    let classified = classify(graph, transform, state, pg, &subjects, tables);
    drop(classify_span);
    let statements = classified.statements;
    if let Some(metrics) = metrics.as_deref_mut() {
        metrics.type_sets = classified.type_sets.len();
        metrics.resolved_pairs = classified.resolved_pairs;
        let done = &classified.counters;
        metrics.phase2_items = EncodingCounts {
            key_values: done.key_values as u64,
            carriers: done.carrier_nodes as u64,
            edges: (done.edges - done.carrier_nodes) as u64,
        };
    }
    apply(graph, classified, transform, pg, state, counters);
    drop(phase2_span);
    if let Some(metrics) = metrics {
        metrics.record("phase2_props", t1.elapsed(), statements, "triples");
    }
}

/// Pass-local reference to an edge label that may not be registered yet.
enum LabelRef {
    /// Label known from the schema mapping (`Handling::Edge`).
    Known(String),
    /// No edge handling: the label is derived from this predicate by the
    /// apply step via `register_edge_label`.
    Fallback(Sym),
}

/// How statements of one `(subject type set, predicate)` pair are encoded,
/// as indexes into the pass's tables.
#[derive(Clone, Copy)]
struct Encoding {
    /// Key/value key for plain literals (`Handling::KeyValue`).
    key: Option<u32>,
    /// Edge label for everything else.
    label: u32,
    /// No handling in the schema: counts as a fallback triple.
    fallback: bool,
}

/// What a schema-widening request adds to an edge type's targets.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Target {
    /// The node types of type-set `id`.
    Types(u32),
    /// The carrier type of datatype-table entry `i` (its name is allocated
    /// by `ensure_carrier` during apply).
    CarrierOf(u32),
}

/// One fully-resolved phase-2 effect, referencing pass-local tables and
/// the input graph's symbols.
enum Op {
    /// First use of `(types, label, target)` in this pass: the edge type
    /// may need widening. Precedes the edge or carrier that caused it.
    Widen {
        types: u32,
        label: u32,
        predicate: Sym,
        target: Target,
    },
    Edge {
        src: NodeId,
        dst: NodeId,
        label: u32,
    },
    KeyValue {
        node: NodeId,
        key: u32,
        value: Value,
    },
    Carrier {
        src: NodeId,
        label: u32,
        datatype: u32,
        value: Value,
        lang: Option<Sym>,
        predicate: Sym,
    },
}

/// Everything `classify` produced: the buffer, its tables and counts.
struct Classified {
    ops: Vec<Op>,
    labels: Vec<LabelRef>,
    keys: Vec<String>,
    /// Carrier datatypes; `None` is the pseudo-datatype of resource objects.
    datatypes: Vec<Option<Sym>>,
    type_sets: Vec<Vec<String>>,
    resolved_pairs: usize,
    counters: TransformCounters,
    statements: u64,
}

/// Index of `item` in `table`, appended on first sight through `index`.
fn table_index<K: std::hash::Hash + Eq, T>(
    index: &mut FxHashMap<K, u32>,
    table: &mut Vec<T>,
    key: K,
    item: impl FnOnce() -> T,
) -> u32 {
    *index.entry(key).or_insert_with(|| {
        table.push(item());
        (table.len() - 1) as u32
    })
}

/// Phase 2's first half: stream `subjects` against the transform state
/// phase 1 froze, emitting an operation buffer. Reads only.
fn classify(
    graph: &Graph,
    transform: &SchemaTransform,
    state: &TransformState,
    pg: &PropertyGraph,
    subjects: &[Term],
    mut tables: PassTables,
) -> Classified {
    let type_p = graph.type_predicate_opt();
    // About one operation per statement.
    let mut ops = Vec::with_capacity(graph.len());
    let (mut labels, mut keys, mut datatypes) = (Vec::new(), Vec::new(), Vec::new());
    let mut counters = TransformCounters::default();
    let mut statements = 0u64;
    let mut encodings: FxHashMap<(u32, Sym), Encoding> = FxHashMap::default();
    let mut known_labels: FxHashMap<&str, u32> = FxHashMap::default();
    let mut fallback_labels: FxHashMap<Sym, u32> = FxHashMap::default();
    let mut key_index: FxHashMap<&str, u32> = FxHashMap::default();
    let mut datatype_index: FxHashMap<Option<Sym>, u32> = FxHashMap::default();
    let mut widened: FxHashSet<(u32, u32, Target)> = FxHashSet::default();

    for &s_term in subjects {
        // Phase 1 gave every subject with a data statement its slot.
        let Slot::Entity {
            node: s_node,
            types,
        } = tables.get(s_term)
        else {
            continue;
        };
        for t in graph.statements_of(s_term) {
            if Some(t.p) == type_p {
                continue;
            }
            statements += 1;
            let encoding = *encodings.entry((types, t.p)).or_insert_with(|| {
                let predicate = graph.resolve(t.p);
                let handling = tables.type_sets[types as usize]
                    .iter()
                    .find_map(|tn| transform.mapping.handling_for(tn, predicate));
                let mut fallback_label = || {
                    table_index(&mut fallback_labels, &mut labels, t.p, || {
                        LabelRef::Fallback(t.p)
                    })
                };
                match handling {
                    Some(Handling::Edge { label }) => Encoding {
                        key: None,
                        label: table_index(&mut known_labels, &mut labels, label, || {
                            LabelRef::Known(label.clone())
                        }),
                        fallback: false,
                    },
                    // A key/value property still needs an edge label for
                    // the objects a key/value cannot hold.
                    Some(Handling::KeyValue { key, .. }) => Encoding {
                        key: Some(table_index(&mut key_index, &mut keys, key, || key.clone())),
                        label: fallback_label(),
                        fallback: false,
                    },
                    None => Encoding {
                        key: None,
                        label: fallback_label(),
                        fallback: true,
                    },
                }
            });
            counters.fallback_triples += usize::from(encoding.fallback);
            let label = encoding.label;
            let mut widen_once = |ops: &mut Vec<Op>, target: Target| {
                if widened.insert((types, label, target)) {
                    ops.push(Op::Widen {
                        types,
                        label,
                        predicate: t.p,
                        target,
                    });
                }
            };

            // Object is a typed entity → edge (Algorithm 1, line 16).
            let object = match t.o {
                Term::Literal(_) => Slot::NotEntity,
                resource => tables.object(graph, resource, state, pg),
            };
            if let Slot::Entity {
                node: dst,
                types: target,
            } = object
            {
                widen_once(&mut ops, Target::Types(target));
                ops.push(Op::Edge {
                    src: s_node,
                    dst,
                    label,
                });
                counters.edges += 1;
                continue;
            }

            // Parsimonious key/value (lines 21–23). Language-tagged values
            // need the carrier to keep the tag, and an IRI the schema did
            // not anticipate takes the lossless carrier path too.
            if let (Some(key), Term::Literal(lit)) = (encoding.key, t.o) {
                if lit.lang.is_none() {
                    let value =
                        preserve_value(graph.resolve(lit.lexical), graph.resolve(lit.datatype));
                    ops.push(Op::KeyValue {
                        node: s_node,
                        key,
                        value,
                    });
                    counters.key_values += 1;
                    continue;
                }
            }

            // Carrier node (lines 24–31).
            let datatype = t.o.as_literal().map(|lit| lit.datatype);
            let datatype = table_index(&mut datatype_index, &mut datatypes, datatype, || datatype);
            let (value, lang) = carrier_value(graph, t.o);
            widen_once(&mut ops, Target::CarrierOf(datatype));
            ops.push(Op::Carrier {
                src: s_node,
                label,
                datatype,
                value,
                lang,
                predicate: t.p,
            });
            counters.carrier_nodes += 1;
            counters.edges += 1;
        }
    }
    Classified {
        ops,
        labels,
        keys,
        datatypes,
        type_sets: tables.type_sets,
        resolved_pairs: encodings.len(),
        counters,
        statements,
    }
}

/// An edge label of the pass, registered and interned on first use.
struct EdgeLabel {
    label: LabelRef,
    sym: Option<Sym>,
}

impl EdgeLabel {
    /// The label's name, registering a fallback predicate with the mapping
    /// the first time it is asked for.
    fn name(&mut self, graph: &Graph, transform: &mut SchemaTransform) -> &str {
        if let LabelRef::Fallback(predicate) = self.label {
            let predicate = graph.resolve(predicate);
            self.label = LabelRef::Known(transform.mapping.register_edge_label(predicate));
        }
        match &self.label {
            LabelRef::Known(name) => name,
            LabelRef::Fallback(_) => unreachable!("registered above"),
        }
    }

    /// The label's PG symbol, interned when the first edge takes it.
    fn sym(&mut self, graph: &Graph, schema: &mut SchemaTransform, pg: &mut PropertyGraph) -> Sym {
        if self.sym.is_none() {
            self.sym = Some(pg.intern(self.name(graph, schema)));
        }
        self.sym.expect("interned above")
    }
}

/// A carrier datatype of the pass: its node type is declared and its label
/// interned on first use.
struct CarrierType {
    datatype: Option<Sym>,
    /// `(carrier type name, carrier label)` once `ensure_carrier` ran.
    names: Option<(String, String)>,
    sym: Option<Sym>,
}

impl CarrierType {
    fn names(&mut self, graph: &Graph, transform: &mut SchemaTransform) -> &(String, String) {
        let datatype = self.datatype;
        self.names.get_or_insert_with(|| {
            let datatype = datatype.map_or(ANY_IRI_DATATYPE, |dt| graph.resolve(dt));
            ensure_carrier(&mut transform.pg_schema, &mut transform.mapping, datatype)
        })
    }

    /// The carrier label's PG symbol, interned when the first node takes it.
    fn sym(&mut self, graph: &Graph, schema: &mut SchemaTransform, pg: &mut PropertyGraph) -> Sym {
        if self.sym.is_none() {
            self.sym = Some(pg.intern(&self.names(graph, schema).1));
        }
        self.sym.expect("interned above")
    }
}

/// Phase 2's second half: apply the operation buffer. Table entries
/// are registered and interned when the first operation that uses them is
/// reached — so the mapping, the schema and the PG's interner see names in
/// statement order — and from then on an operation is symbols and
/// `NodeId`s only.
fn apply(
    graph: &Graph,
    output: Classified,
    transform: &mut SchemaTransform,
    pg: &mut PropertyGraph,
    state: &mut TransformState,
    counters: &mut TransformCounters,
) {
    let type_sets = output.type_sets;
    let mut labels: Vec<EdgeLabel> = output
        .labels
        .into_iter()
        .map(|label| EdgeLabel { label, sym: None })
        .collect();
    let mut keys: Vec<(String, Option<Sym>)> =
        output.keys.into_iter().map(|key| (key, None)).collect();
    let mut carriers: Vec<CarrierType> = output
        .datatypes
        .into_iter()
        .map(|datatype| CarrierType {
            datatype,
            names: None,
            sym: None,
        })
        .collect();
    let (mut value_key, mut lang_key) = (None, None);

    pg.reserve(output.counters.carrier_nodes, output.counters.edges);
    for op in output.ops {
        match op {
            Op::Widen {
                types,
                label,
                predicate,
                target,
            } => {
                // The memoised monotone widening: the pass's memo only
                // spares the string-keyed check.
                let targets = match target {
                    Target::Types(id) => type_sets[id as usize].clone(),
                    Target::CarrierOf(i) => {
                        vec![carriers[i as usize].names(graph, transform).0.clone()]
                    }
                };
                let label = labels[label as usize].name(graph, transform);
                let subject_types = &type_sets[types as usize];
                let cache_key = widen_cache_key(subject_types, label);
                let cached = state
                    .widen_cache
                    .get(&cache_key)
                    .is_some_and(|ok| targets.iter().all(|t| ok.contains(t)));
                if !cached {
                    let predicate = graph.resolve(predicate);
                    widen_edge_type(transform, subject_types, label, predicate, targets.clone());
                    state
                        .widen_cache
                        .entry(cache_key)
                        .or_default()
                        .extend(targets);
                }
            }
            Op::Edge { src, dst, label } => {
                let label = labels[label as usize].sym(graph, transform, pg);
                pg.add_edge_sym(src, dst, label);
            }
            Op::KeyValue { node, key, value } => {
                let (key, sym) = &mut keys[key as usize];
                let sym = *sym.get_or_insert_with(|| pg.intern(key));
                pg.push_prop_sym(node, sym, value);
            }
            Op::Carrier {
                src,
                label,
                datatype,
                value,
                lang,
                predicate,
            } => {
                // Schema first — carrier type, then edge label — then the
                // PG names, each interned as the element that needs it is
                // added.
                let carrier = &mut carriers[datatype as usize];
                carrier.names(graph, transform);
                let label = &mut labels[label as usize];
                label.name(graph, transform);
                // A carrier standing in for a resource holds that entity's
                // reference: a pending forward reference, so a later delta
                // can repair it into a real edge.
                let pending = match (carrier.datatype, &value) {
                    (None, Value::String(entity)) => Some(entity.clone()),
                    _ => None,
                };
                let carrier = carrier.sym(graph, transform, pg);
                let o_node = pg.add_node_with_label_sym(carrier);
                let value_key = *value_key.get_or_insert_with(|| pg.intern(VALUE_KEY));
                pg.set_prop_sym(o_node, value_key, value);
                if let Some(lang) = lang {
                    let lang_key = *lang_key.get_or_insert_with(|| pg.intern(LANG_KEY));
                    let lang = graph.resolve(lang).to_string();
                    pg.set_prop_sym(o_node, lang_key, Value::String(lang));
                }
                let edge_label = label.sym(graph, transform, pg);
                pg.add_edge_sym(src, o_node, edge_label);
                if let Some(entity) = pending {
                    state
                        .pending_refs
                        .entry(entity)
                        .or_default()
                        .push(PendingRef {
                            src,
                            label: label.name(graph, transform).to_string(),
                            predicate: graph.resolve(predicate).to_string(),
                            carrier: o_node,
                        });
                }
            }
        }
    }

    counters.carrier_nodes += output.counters.carrier_nodes;
    counters.edges += output.counters.edges;
    counters.key_values += output.counters.key_values;
    counters.fallback_triples += output.counters.fallback_triples;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_transform::{transform_data, transform_data_with};
    use crate::inverse::recover_graph;
    use crate::mode::Mode;
    use crate::schema_transform::transform_schema;
    use s3pg_pg::{conformance, csv};
    use s3pg_rdf::parser::parse_turtle;
    use s3pg_shacl::parser::parse_shacl_turtle;

    const SCHEMA: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .

shape:Person a sh:NodeShape ; sh:targetClass :Person ;
    sh:property [ sh:path :name ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] ;
    sh:property [ sh:path :knows ; sh:class :Person ; sh:minCount 0 ] .
"#;

    fn dataset() -> String {
        let mut data = String::from("@prefix : <http://ex/> .\n");
        for i in 0..200 {
            data.push_str(&format!(":p{i} a :Person ; :name \"Person {i}\" .\n"));
            data.push_str(&format!(":p{i} :knows :p{} .\n", (i * 7 + 3) % 200));
            if i % 5 == 0 {
                data.push_str(&format!(":p{i} :age \"{}\"^^xsd:integer .\n", 20 + i % 50));
                data.push_str("@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n");
            }
            if i % 11 == 0 {
                // Untyped subject referencing a typed entity and vice versa.
                data.push_str(&format!(":anon{i} :knows :p{i} .\n"));
                data.push_str(&format!(":p{i} :knows :anon{i} .\n"));
            }
            if i % 13 == 0 {
                data.push_str(&format!(":p{i} :label \"étiquette {i}\"@fr .\n"));
            }
            if i % 17 == 0 {
                // Blank-node subjects, typed and untyped, referenced before
                // and after their own statements; an object nobody defines.
                data.push_str(&format!(":p{i} :knows _:b{i}, _:u{i}, :ghost{i} .\n"));
                data.push_str(&format!(
                    "_:b{i} a :Person ; :name \"Blank {i}\" ; :knows :p{i} .\n"
                ));
                data.push_str(&format!("_:u{i} :knows _:b{i} ; :label \"loose {i}\" .\n"));
            }
        }
        data
    }

    #[test]
    fn one_pass_conforms_round_trips_and_repeats() {
        let shapes = parse_shacl_turtle(SCHEMA).unwrap();
        let g = parse_turtle(&dataset()).unwrap();
        for mode in [Mode::Parsimonious, Mode::NonParsimonious] {
            let mut st = transform_schema(&shapes, mode);
            let mut metrics = PipelineMetrics::default();
            let out = transform_data_with(&g, &mut st, mode, &mut metrics);
            assert!(
                conformance::check(&out.pg, &st.pg_schema).conforms(),
                "{mode:?}"
            );
            // Counts cannot tell two graphs apart; the inverse mapping can.
            let back = recover_graph(&out.pg, &st.mapping).unwrap();
            assert!(back.same_triples(&g), "{mode:?}: M(PG) != G");
            assert!(metrics.phase("phase1_nodes").is_some());
            assert!(metrics.phase("phase2_props").is_some());
            let items = metrics.phase2_items;
            assert_eq!(items.carriers, out.counters.carrier_nodes as u64);
            assert_eq!(
                items.key_values + items.edges + items.carriers,
                (out.counters.key_values + out.counters.edges) as u64
            );
            // The output is a function of (G, S_G, mode): a second pass
            // hands out the same ids in the same order.
            let mut st_again = transform_schema(&shapes, mode);
            let again = transform_data(&g, &mut st_again, mode);
            assert_eq!(again.counters, out.counters, "{mode:?}");
            assert_eq!(csv::export(&again.pg), csv::export(&out.pg), "{mode:?}");
        }
    }
}
