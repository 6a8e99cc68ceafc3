//! Phase 2 of Algorithm 1 — one classifier — and its sharded driver.
//!
//! Phase 1 (`data_transform::ingest_phase1`) runs on the calling
//! thread: it assigns global `NodeId`s and mutates the shared mapping, and
//! it leaves the mapping, the entity-type map and the node set frozen.
//! Phase 2 (properties → key/values, edges, carriers) is then a pure
//! classification of each statement against that frozen view, so it is
//! written once, as a worker over a *subject shard*:
//!
//! * `run_shard` streams the shard's subjects and emits an **operation
//!   buffer** (`Op`) that refers to worker-local label / key / datatype
//!   tables. Per statement it does array indexing only: the subject's and
//!   object's `(NodeId, type-set id)` come from the pass's
//!   `PassTables`; `(type-set id, predicate symbol)` resolves once to an
//!   encoding (key/value key, edge label, fallback); and a
//!   `(type-set, label, target)` memo stands in front of
//!   `TransformState::widen_cache`, so a schema-widening request is emitted
//!   once per combination.
//! * `apply_shard` replays a buffer on the calling thread through the
//!   property graph's `*_sym` bulk entry points. Labels, keys and carrier
//!   types are registered and interned *lazily, when the first operation
//!   that uses them is applied*, so `register_edge_label`, `ensure_carrier`
//!   and `widen_edge_type` run in statement order.
//!
//! The drivers differ only in how many shards there are. With one shard
//! (`threads = 1`, and every delta) the worker runs inline over all
//! subjects in term order and the output is *the* sequential output: node
//! ids, edge ids and registration order are pinned by
//! `tests/fdt_golden.rs`. With `n` shards subjects are split by
//! subject-term hash, workers run on scoped threads over a read-only view
//! (each with its own copy of the tables), and buffers are applied in
//! shard order: entity nodes are the same (phase 1 does not shard), while
//! carrier-node ids, edge ids and collision-suffixed fresh names follow
//! shard order — same counts, same conformance, same `M(PG)`.
//!
//! For the one-shot pipeline, per-shard statement counts feed the
//! shard-skew metric and, when a trace is active (the caller opened a span
//! on this thread), each phase records a span and every phase-2 worker a
//! `shard` span parented under it. A delta is not instrumented here.

use crate::data_transform::{
    carrier_value, ingest_phase1, preserve_value, widen_cache_key, widen_edge_type, DataTransform,
    PassTables, PendingRef, Slot, TransformCounters, TransformState, LANG_KEY,
};
use crate::mapping::Handling;
use crate::metrics::PipelineMetrics;
use crate::mode::Mode;
use crate::schema_transform::{ensure_carrier, SchemaTransform, ANY_IRI_DATATYPE};
use s3pg_obs::tracer;
use s3pg_pg::{NodeId, PropertyGraph, Value, VALUE_KEY};
use s3pg_rdf::fxhash::{FxHashMap, FxHashSet};
use s3pg_rdf::{Graph, Sym, Term};
use std::time::Instant;

/// Transform `graph` with `threads` phase-2 workers, recording per-phase
/// spans and shard statistics into `metrics`.
pub fn transform_data_with(
    graph: &Graph,
    transform: &mut SchemaTransform,
    mode: Mode,
    threads: usize,
    metrics: &mut PipelineMetrics,
) -> DataTransform {
    let mut pg = PropertyGraph::with_capacity(graph.len() / 2, graph.len());
    let mut state = TransformState {
        mode,
        ..Default::default()
    };
    let mut counters = TransformCounters::default();
    ingest_sharded(
        graph,
        transform,
        &mut pg,
        &mut state,
        &mut counters,
        threads.max(1),
        Some(metrics),
    );
    DataTransform {
        pg,
        state,
        counters,
    }
}

/// Shard index for a subject term: a multiplicative hash of its interned
/// symbol (stable within one graph), with the term kind mixed in so blank
/// nodes and IRIs sharing a symbol index do not collide systematically.
fn shard_of(term: Term, shards: usize) -> usize {
    let seed = match term {
        Term::Iri(s) => (s.index() as u64) << 1,
        Term::Blank(s) => ((s.index() as u64) << 1) | 1,
        Term::Literal(_) => unreachable!("literal in subject position"),
    };
    ((seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 33) as usize) % shards
}

/// Both phases of Algorithm 1 over `graph`, adding to `pg`: phase 1 on
/// this thread, phase 2 over `threads` subject shards. `metrics` is the
/// one-shot pipeline's instrument: with it each phase is timed and, under
/// an active trace, records its span. The delta path passes `None` and
/// records nothing — an update's spans are the server's.
pub(crate) fn ingest_sharded(
    graph: &Graph,
    transform: &mut SchemaTransform,
    pg: &mut PropertyGraph,
    state: &mut TransformState,
    counters: &mut TransformCounters,
    threads: usize,
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
    let shard_parent = phase2_span.as_ref().and_then(|span| span.handle());
    let outputs: Vec<ShardOutput> = {
        let view = View {
            graph,
            transform,
            state,
            pg,
        };
        let work = |shard: &[Term], tables: PassTables| {
            let _span = shard_parent.map(|parent| tracer().span_under(&parent, "shard"));
            run_shard(view, shard, threads, tables)
        };
        if threads == 1 {
            vec![work(&subjects, tables)]
        } else {
            let mut shards: Vec<Vec<Term>> = vec![Vec::new(); threads];
            for &s_term in &subjects {
                shards[shard_of(s_term, threads)].push(s_term);
            }
            let (work, tables) = (&work, &tables);
            std::thread::scope(|scope| {
                let handles: Vec<_> = shards
                    .iter()
                    .map(|shard| scope.spawn(move || work(shard, tables.clone())))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("phase-2 worker panicked"))
                    .collect()
            })
        }
    };

    if let Some(metrics) = metrics.as_deref_mut() {
        metrics.shard_triples = outputs.iter().map(|o| o.statements).collect();
    }
    for output in outputs {
        if let Some(metrics) = metrics.as_deref_mut() {
            metrics.type_sets = metrics.type_sets.max(output.type_sets.len());
            metrics.resolved_pairs = metrics.resolved_pairs.max(output.resolved_pairs);
            let items = &mut metrics.phase2_items;
            items.key_values += output.counters.key_values as u64;
            items.carriers += output.counters.carrier_nodes as u64;
            items.edges += (output.counters.edges - output.counters.carrier_nodes) as u64;
        }
        apply_shard(graph, output, transform, pg, state, counters);
    }
    drop(phase2_span);
    if let Some(metrics) = metrics {
        let triples = metrics.shard_triples.iter().sum();
        metrics.record("phase2_props", t1.elapsed(), triples, "triples");
    }
}

/// The frozen state a phase-2 worker reads.
#[derive(Clone, Copy)]
struct View<'a> {
    graph: &'a Graph,
    transform: &'a SchemaTransform,
    state: &'a TransformState,
    pg: &'a PropertyGraph,
}

/// Worker-local reference to an edge label that may not be registered yet.
enum LabelRef {
    /// Label known from the schema mapping (`Handling::Edge`).
    Known(String),
    /// No edge handling: the label is derived from this predicate by the
    /// apply step via `register_edge_label`.
    Fallback(Sym),
}

/// How statements of one `(subject type set, predicate)` pair are encoded,
/// as indexes into the worker's tables.
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

/// One fully-resolved phase-2 effect, referencing worker-local tables and
/// the input graph's symbols.
enum Op {
    /// First use of `(types, label, target)` in this shard: the edge type
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

/// Everything a phase-2 worker produced for its shard.
struct ShardOutput {
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

/// Phase-2 worker: stream one subject shard against the frozen transform
/// state, emitting an operation buffer. Pure reads on all shared data.
fn run_shard(view: View<'_>, shard: &[Term], shards: usize, mut tables: PassTables) -> ShardOutput {
    let View {
        graph,
        transform,
        state,
        pg,
    } = view;
    let type_p = graph.type_predicate_opt();
    // About one operation per statement; the hash split is close to even.
    let mut ops = Vec::with_capacity(graph.len() / shards);
    let (mut labels, mut keys, mut datatypes) = (Vec::new(), Vec::new(), Vec::new());
    let mut counters = TransformCounters::default();
    let mut statements = 0u64;
    let mut encodings: FxHashMap<(u32, Sym), Encoding> = FxHashMap::default();
    let mut known_labels: FxHashMap<&str, u32> = FxHashMap::default();
    let mut fallback_labels: FxHashMap<Sym, u32> = FxHashMap::default();
    let mut key_index: FxHashMap<&str, u32> = FxHashMap::default();
    let mut datatype_index: FxHashMap<Option<Sym>, u32> = FxHashMap::default();
    let mut widened: FxHashSet<(u32, u32, Target)> = FxHashSet::default();

    for &s_term in shard {
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
    ShardOutput {
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

/// An edge label of a shard, registered and interned on first use.
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

/// A carrier datatype of a shard: its node type is declared and its label
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

/// Apply one shard's operation buffer on the calling thread. Table entries
/// are registered and interned when the first operation that uses them is
/// reached — so the mapping, the schema and the PG's interner see names in
/// statement order — and from then on an operation is symbols and
/// `NodeId`s only.
fn apply_shard(
    graph: &Graph,
    output: ShardOutput,
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
                // Same memoised monotone widening whatever the shard count:
                // the shard's memo only spares the string-keyed check.
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
    use crate::data_transform::entity_ref;
    use crate::inverse::recover_graph;
    use crate::schema_transform::transform_schema;
    use s3pg_pg::conformance;
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

    fn counts(pg: &PropertyGraph) -> (usize, usize, usize) {
        let node_props: usize = pg.node_ids().map(|n| pg.node(n).props.len()).sum();
        (pg.node_count(), pg.edge_count(), node_props)
    }

    #[test]
    fn parallel_is_isomorphic_to_sequential() {
        let shapes = parse_shacl_turtle(SCHEMA).unwrap();
        let g = parse_turtle(&dataset()).unwrap();
        for mode in [Mode::Parsimonious, Mode::NonParsimonious] {
            let mut st_seq = transform_schema(&shapes, mode);
            let mut m_seq = PipelineMetrics::new(1);
            let seq = transform_data_with(&g, &mut st_seq, mode, 1, &mut m_seq);
            assert!(
                conformance::check(&seq.pg, &st_seq.pg_schema).conforms(),
                "{mode:?} sequential"
            );
            let back = recover_graph(&seq.pg, &st_seq.mapping).unwrap();
            assert!(back.same_triples(&g), "{mode:?} single shard: M(PG) != G");
            assert_eq!(m_seq.shard_triples.len(), 1);
            for threads in [2, 3, 8] {
                let mut st_par = transform_schema(&shapes, mode);
                let mut m_par = PipelineMetrics::new(threads);
                let par = transform_data_with(&g, &mut st_par, mode, threads, &mut m_par);
                assert_eq!(counts(&par.pg), counts(&seq.pg), "{mode:?} t={threads}");
                assert_eq!(par.counters, seq.counters, "{mode:?} t={threads}");
                assert!(
                    conformance::check(&par.pg, &st_par.pg_schema).conforms(),
                    "{mode:?} t={threads}"
                );
                // Counts cannot tell two graphs apart; the inverse mapping can.
                let back = recover_graph(&par.pg, &st_par.mapping).unwrap();
                assert!(back.same_triples(&g), "{mode:?} t={threads}: M(PG) != G");
                // Phase 1 does not shard: entity nodes keep their ids.
                for s in g.subjects_distinct() {
                    let entity = entity_ref(&g, s);
                    assert_eq!(
                        par.pg.node_by_iri(&entity),
                        seq.pg.node_by_iri(&entity),
                        "{mode:?} t={threads}: {entity}"
                    );
                }
                assert_eq!(m_par.shard_triples.len(), threads);
                assert!(m_par.phase("phase1_nodes").is_some());
                assert!(m_par.phase("phase2_props").is_some());
            }
        }
    }

    #[test]
    fn shard_of_is_stable_and_in_range() {
        let mut g = Graph::new();
        for i in 0..64 {
            let s = g.intern_iri(&format!("http://ex/s{i}"));
            let first = shard_of(s, 7);
            assert!(first < 7);
            assert_eq!(shard_of(s, 7), first);
        }
    }
}
