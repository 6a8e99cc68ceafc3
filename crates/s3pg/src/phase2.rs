//! Phase 2 of Algorithm 1 (lines 15–31) and the driver that runs both
//! phases.
//!
//! Phase 1 (`data_transform::ingest_phase1`) assigns every entity its
//! `NodeId` and mutates the mapping, and it leaves the mapping, the
//! entity-type map and the node set frozen. Phase 2 (properties →
//! key/values, edges, carriers) is then one loop over the subjects in term
//! order that classifies each statement against that frozen view and
//! writes it at once through the property graph's `*_sym` entry points:
//!
//! * the subject's and object's `(NodeId, type-set id)` come from the
//!   pass's `PassTables`, so a statement costs array indexing;
//! * `(type-set id, predicate symbol)` resolves once to an `Encoding`
//!   (key/value key, edge label, fallback), whose names are registered and
//!   interned *when the first statement that needs them is written* — an
//!   edge label at the first edge or carrier, a key at the first key/value,
//!   a carrier type by `ensure_carrier` at the first carrier of its
//!   datatype — so the mapping, the schema and the PG's interner see names
//!   in statement order;
//! * a `(type-set, predicate, target)` memo stands in front of
//!   `TransformState::widen_cache`, so a schema widening is checked once
//!   per combination.
//!
//! The one-shot transform and every delta run the same [`ingest`] on the
//! calling thread, so F_dt's output — node ids, carrier ids, edge ids,
//! collision-suffixed names and registration order — is a function of
//! `(G, S_G, mode)` alone; `tests/fdt_golden.rs` pins it.
//!
//! For the one-shot pipeline, when a trace is active (the caller opened a
//! span on this thread), each phase records a span. A delta is not
//! instrumented here.

use crate::data_transform::{
    carrier_value, ingest_phase1, preserve_value, widen_cache_key, widen_edge_type, PassTables,
    PendingRef, Slot, TransformCounters, TransformState, LANG_KEY,
};
use crate::mapping::Handling;
use crate::metrics::{EncodingCounts, PipelineMetrics};
use crate::schema_transform::{ensure_carrier, SchemaTransform, ANY_IRI_DATATYPE};
use s3pg_obs::tracer;
use s3pg_pg::{PropertyGraph, Value, VALUE_KEY};
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
    let before = *counters;
    let pass = phase2(graph, transform, pg, state, counters, &subjects, tables);
    drop(phase2_span);
    if let Some(metrics) = metrics {
        metrics.type_sets = pass.type_sets;
        metrics.resolved_pairs = pass.resolved_pairs;
        let carriers = counters.carrier_nodes - before.carrier_nodes;
        metrics.phase2_items = EncodingCounts {
            key_values: (counters.key_values - before.key_values) as u64,
            carriers: carriers as u64,
            edges: (counters.edges - before.edges - carriers) as u64,
        };
        metrics.record("phase2_props", t1.elapsed(), pass.statements, "triples");
    }
}

/// How statements of one `(subject type set, predicate)` pair are written.
/// Each name is resolved at its first use (see the module docs).
#[derive(Default)]
struct Encoding {
    /// Key/value key for plain literals (`Handling::KeyValue`), with its PG
    /// symbol once the first key/value has interned it.
    key: Option<(String, Option<Sym>)>,
    /// Edge label for everything else: the schema's, or — with no edge
    /// handling — the predicate's fallback label, registered with the
    /// mapping by the first edge or carrier.
    label: Option<String>,
    /// The label's PG symbol, interned when the first edge takes it.
    label_sym: Option<Sym>,
    /// No handling in the schema: counts as a fallback triple.
    fallback: bool,
}

/// What one phase-2 pass saw, for the pipeline's metrics.
struct Pass {
    type_sets: usize,
    resolved_pairs: usize,
    statements: u64,
}

/// Phase 2: stream `subjects` against the entities phase 1 froze, writing
/// each statement as an edge, a key/value or a literal carrier.
fn phase2(
    graph: &Graph,
    transform: &mut SchemaTransform,
    pg: &mut PropertyGraph,
    state: &mut TransformState,
    counters: &mut TransformCounters,
    subjects: &[Term],
    mut tables: PassTables,
) -> Pass {
    let type_p = graph.type_predicate_opt();
    let mut statements = 0u64;
    let mut encodings: FxHashMap<(u32, Sym), Encoding> = FxHashMap::default();
    // Carrier datatype (`None` for resource objects) → carrier type name
    // and label symbol.
    let mut carriers: FxHashMap<Option<Sym>, (String, Sym)> = FxHashMap::default();
    let mut widened_edges: FxHashSet<(u32, Sym, u32)> = FxHashSet::default();
    let mut widened_carriers: FxHashSet<(u32, Sym, Option<Sym>)> = FxHashSet::default();
    let (mut value_key, mut lang_key) = (None, None);

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
            let encoding = encodings.entry((types, t.p)).or_insert_with(|| {
                let predicate = graph.resolve(t.p);
                let handling = tables.type_sets[types as usize]
                    .iter()
                    .find_map(|tn| transform.mapping.handling_for(tn, predicate));
                match handling {
                    Some(Handling::Edge { label }) => Encoding {
                        label: Some(label.clone()),
                        ..Encoding::default()
                    },
                    // A key/value property still needs an edge label for
                    // the objects a key/value cannot hold.
                    Some(Handling::KeyValue { key, .. }) => Encoding {
                        key: Some((key.clone(), None)),
                        ..Encoding::default()
                    },
                    None => Encoding {
                        fallback: true,
                        ..Encoding::default()
                    },
                }
            });
            counters.fallback_triples += usize::from(encoding.fallback);

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
                let label = encoding.label.get_or_insert_with(|| {
                    transform.mapping.register_edge_label(graph.resolve(t.p))
                });
                if widened_edges.insert((types, t.p, target)) {
                    let targets = tables.type_sets[target as usize].clone();
                    let subject_types = &tables.type_sets[types as usize];
                    let predicate = graph.resolve(t.p);
                    widen(transform, state, subject_types, label, predicate, targets);
                }
                let label = *encoding.label_sym.get_or_insert_with(|| pg.intern(label));
                pg.add_edge_sym(s_node, dst, label);
                counters.edges += 1;
                continue;
            }

            // Parsimonious key/value (lines 21–23). Language-tagged values
            // need the carrier to keep the tag, and an IRI the schema did
            // not anticipate takes the lossless carrier path too.
            if let (Some((key, key_sym)), Term::Literal(lit)) = (&mut encoding.key, t.o) {
                if lit.lang.is_none() {
                    let value =
                        preserve_value(graph.resolve(lit.lexical), graph.resolve(lit.datatype));
                    let key = *key_sym.get_or_insert_with(|| pg.intern(key));
                    pg.push_prop_sym(s_node, key, value);
                    counters.key_values += 1;
                    continue;
                }
            }

            // Carrier node (lines 24–31). Schema first — carrier type, then
            // edge label, then the widening — then the PG names, each
            // interned as the element that needs it is added.
            let datatype = t.o.as_literal().map(|lit| lit.datatype);
            let (carrier_type, carrier_label) = carriers.entry(datatype).or_insert_with(|| {
                let datatype = datatype.map_or(ANY_IRI_DATATYPE, |dt| graph.resolve(dt));
                let (type_name, label) =
                    ensure_carrier(&mut transform.pg_schema, &mut transform.mapping, datatype);
                (type_name, pg.intern(&label))
            });
            let label = encoding
                .label
                .get_or_insert_with(|| transform.mapping.register_edge_label(graph.resolve(t.p)));
            if widened_carriers.insert((types, t.p, datatype)) {
                let targets = vec![carrier_type.clone()];
                let subject_types = &tables.type_sets[types as usize];
                let predicate = graph.resolve(t.p);
                widen(transform, state, subject_types, label, predicate, targets);
            }
            let (value, lang) = carrier_value(graph, t.o);
            // A carrier standing in for a resource holds that entity's
            // reference: a pending forward reference, so a later delta can
            // repair it into a real edge.
            let pending = match (datatype, &value) {
                (None, Value::String(entity)) => Some(entity.clone()),
                _ => None,
            };
            let o_node = pg.add_node_with_label_sym(*carrier_label);
            let value_key = *value_key.get_or_insert_with(|| pg.intern(VALUE_KEY));
            pg.set_prop_sym(o_node, value_key, value);
            if let Some(lang) = lang {
                let lang_key = *lang_key.get_or_insert_with(|| pg.intern(LANG_KEY));
                let lang = graph.resolve(lang).to_string();
                pg.set_prop_sym(o_node, lang_key, Value::String(lang));
            }
            let edge_label = *encoding.label_sym.get_or_insert_with(|| pg.intern(label));
            pg.add_edge_sym(s_node, o_node, edge_label);
            if let Some(entity) = pending {
                state
                    .pending_refs
                    .entry(entity)
                    .or_default()
                    .push(PendingRef {
                        src: s_node,
                        label: label.clone(),
                        predicate: graph.resolve(t.p).to_string(),
                        carrier: o_node,
                    });
            }
            counters.carrier_nodes += 1;
            counters.edges += 1;
        }
    }
    Pass {
        type_sets: tables.type_sets.len(),
        resolved_pairs: encodings.len(),
        statements,
    }
}

/// The memoised monotone widening of `label`'s edge type from
/// `subject_types` to `targets`: `TransformState::widen_cache` skips the
/// schema walk for a combination an earlier pass admitted already.
fn widen(
    transform: &mut SchemaTransform,
    state: &mut TransformState,
    subject_types: &[String],
    label: &str,
    predicate: &str,
    targets: Vec<String>,
) {
    let cache_key = widen_cache_key(subject_types, label);
    let cached = state
        .widen_cache
        .get(&cache_key)
        .is_some_and(|ok| targets.iter().all(|t| ok.contains(t)));
    if !cached {
        widen_edge_type(transform, subject_types, label, predicate, targets.clone());
        state
            .widen_cache
            .entry(cache_key)
            .or_default()
            .extend(targets);
    }
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
