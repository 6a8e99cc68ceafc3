//! Incremental updates (§4.2.1 and §5.4 of the paper).
//!
//! When the source RDF graph evolves, S3PG does not recompute the whole
//! transformation: additions are ingested with the same two-phase algorithm
//! restricted to the delta (`F_dt(G ∪ Δ) = F_dt(G) ∪ F_dt(Δ)`), and
//! deletions re-derive what they can change through that same `ingest`.
//! Schema changes only ever widen the PG schema (new types, new edge-type
//! targets, widened cardinality keys), never invalidate existing data —
//! which is the point of the non-parsimonious encoding.
//!
//! Phase 2 encodes a statement from its subject's types, its predicate and
//! its object alone. So a subject of `Δ⁻` re-derives the keys and edge
//! labels of the predicates `Δ⁻` names on it, or all its statements when it
//! loses a type or every statement; then the edges into it are re-derived
//! too, and widen to its new types (`Resource` when it has none) or become
//! `ANYURI` carriers pending it, as in a recompute. Their sources keep their
//! types, so nothing widens further. [`recover_node`] (`M` on one node)
//! reads the statements back from the PG; their footprint is cleared, an
//! emptied subject's node goes, and what was read minus `Δ⁻` runs through
//! one `ingest`: a recompute of `G \ Δ⁻` up to ids, in `O(statements
//! re-derived)` rather than `O(|Δ⁻|)`.

use crate::data_transform::{entity_ref, TransformCounters, TransformState};
use crate::error::S3pgError;
use crate::inverse::recover_node;
use crate::phase2::ingest;
use crate::schema_transform::SchemaTransform;
use s3pg_pg::{NodeId, PropertyGraph, Value, IRI_KEY, VALUE_KEY};
use s3pg_rdf::fxhash::FxHashSet;
use s3pg_rdf::parser::parse_ntriples;
use s3pg_rdf::{Graph, Sym};

/// Apply an additions-only delta. Returns the counters for the delta pass.
pub fn apply_additions(
    pg: &mut PropertyGraph,
    transform: &mut SchemaTransform,
    state: &mut TransformState,
    delta: &Graph,
) -> TransformCounters {
    let mut counters = TransformCounters::default();
    ingest(delta, transform, pg, state, &mut counters, None);
    counters
}

/// Apply a deletions-only delta by re-deriving what it can change (see the
/// module docs). Returns how many of `removed`'s statements were present.
fn apply_deletions(
    pg: &mut PropertyGraph,
    transform: &mut SchemaTransform,
    state: &mut TransformState,
    removed: &Graph,
) -> usize {
    let mapping = &transform.mapping;
    let m = |pg: &PropertyGraph, node, scope: Option<&_>, keep: &mut Graph| {
        recover_node(pg, mapping, node, scope, keep).expect("M is total on F_dt's output")
    };
    // What the subjects of `Δ⁻` stand for, within their scopes, minus `Δ⁻`.
    // A subject is cleared once read; the edges into a changed one are read
    // after every subject is, so no statement of `Δ⁻` is read back.
    let mut keep = Graph::new();
    let type_p = removed.type_predicate_opt();
    let (mut changed, mut present) = (Vec::new(), 0);
    for s in removed.subjects_distinct() {
        let Some(node) = pg.node_by_iri(&entity_ref(removed, s)) else {
            continue;
        };
        // The PG names `s` re-derives; `None` is all of them and its types.
        let scope = (!removed.statements_of(s).any(|st| Some(st.p) == type_p)).then(|| {
            (removed.statements_of(s))
                .flat_map(|st| mapping.names_of_pred(removed.resolve(st.p)))
                .filter_map(|name| pg.interner().get(name?))
                .collect::<FxHashSet<Sym>>()
        });
        let total = m(pg, node, scope.as_ref(), &mut keep);
        let subject = keep.import_term(removed, s);
        let types = keep.types_of(subject).len();
        let gone = removed
            .statements_of(s)
            .filter(|st| {
                let p = keep.import_sym(removed, st.p);
                let o = keep.import_term(removed, st.o);
                keep.remove(subject, p, o)
            })
            .count();
        present += gone;
        // Every statement of `s` was deleted, so `M` read them all.
        let emptied = gone == total;
        if emptied || keep.types_of(subject).len() != types {
            changed.push((node, emptied));
        }
        clear_footprint(pg, state, node, scope.filter(|_| !emptied).as_ref());
    }
    for (s, emptied) in changed {
        let sources: Vec<(NodeId, FxHashSet<Sym>)> = pg
            .in_edges(s)
            .map(|e| (pg.edge(e).src, pg.edge(e).labels.iter().copied().collect()))
            .collect();
        for (u, labels) in sources {
            m(pg, u, Some(&labels), &mut keep);
            clear_footprint(pg, state, u, Some(&labels));
        }
        if emptied {
            let unlinked = pg.remove_node(s);
            debug_assert!(unlinked, "a node with no statement kept a live edge");
        }
    }
    ingest(&keep, transform, pg, state, &mut Default::default(), None);
    present
}

/// Remove what F_dt wrote for the statements of `node`'s subject that
/// `scope` covers: key/values, and out-edges with the carriers at their
/// ends and their pending references; for the whole subject also its
/// labels and entity types. The node and its `iri` stay.
fn clear_footprint(
    pg: &mut PropertyGraph,
    state: &mut TransformState,
    node: NodeId,
    scope: Option<&FxHashSet<Sym>>,
) {
    let in_scope = |name: &Sym| scope.is_none_or(|names| names.contains(name));
    let out: Vec<_> = pg
        .out_edges(node)
        .filter(|&e| pg.edge(e).labels.iter().any(in_scope))
        .collect();
    for e in out {
        let dst = pg.edge(e).dst;
        pg.remove_edge_by_id(e);
        if pg.prop(dst, IRI_KEY).is_some() {
            continue;
        }
        if let Some(Value::String(entity)) = pg.prop(dst, VALUE_KEY) {
            if let Some(refs) = state.pending_refs.get_mut(entity) {
                refs.retain(|r| r.carrier != dst);
                if refs.is_empty() {
                    state.pending_refs.remove(entity);
                }
            }
        }
        pg.remove_node(dst);
    }
    pg.remove_props_where(node, |key| in_scope(&key));
    if scope.is_none() {
        if let Some(Value::String(iri)) = pg.prop(node, IRI_KEY) {
            state.entity_types.remove(iri);
        }
        pg.clear_labels(node);
    }
}

/// Apply a full update: deletions then additions, as §5.4 does when moving
/// between two DBpedia snapshots.
pub fn apply_delta(
    pg: &mut PropertyGraph,
    transform: &mut SchemaTransform,
    state: &mut TransformState,
    additions: &Graph,
    deletions: &Graph,
) -> (TransformCounters, usize) {
    let removed = apply_deletions(pg, transform, state, deletions);
    let counters = apply_additions(pg, transform, state, additions);
    (counters, removed)
}

/// What [`apply_ntriples_delta`] did: the delta pass counters, the number
/// of the deletions that were present, and the parsed delta graphs (so a
/// caller maintaining the source RDF graph can absorb/remove the same
/// triples without re-parsing).
#[derive(Debug, Clone)]
pub struct DeltaOutcome {
    pub counters: TransformCounters,
    pub removed: usize,
    pub additions: Graph,
    pub deletions: Graph,
}

/// Parse the two N-Triples documents of a delta — `(additions, deletions)`;
/// empty strings are empty deltas. Fails with a typed error, never a
/// panic, and touches no state: a write path parses *before* it mutates,
/// so a bad frame cannot leave a store half-updated.
pub fn parse_delta(additions: &str, deletions: &str) -> Result<(Graph, Graph), S3pgError> {
    let _span = s3pg_obs::tracer().span_here("parse_delta");
    Ok((parse_ntriples(additions)?, parse_ntriples(deletions)?))
}

/// Parse `additions` and `deletions` as N-Triples documents and apply them
/// to the PG as one delta (deletions first, like [`apply_delta`]). Fails
/// with a typed error on malformed N-Triples, leaving the PG untouched.
pub fn apply_ntriples_delta(
    pg: &mut PropertyGraph,
    transform: &mut SchemaTransform,
    state: &mut TransformState,
    additions: &str,
    deletions: &str,
) -> Result<DeltaOutcome, S3pgError> {
    let (additions, deletions) = parse_delta(additions, deletions)?;
    let _span = s3pg_obs::tracer().span_here("apply_delta");
    let (counters, removed) = apply_delta(pg, transform, state, &additions, &deletions);
    Ok(DeltaOutcome {
        counters,
        removed,
        additions,
        deletions,
    })
}

/// What [`apply_delta_mirrored`] did to the two models.
#[derive(Debug, Default, Clone, Copy)]
pub struct MirroredOutcome {
    pub counters: TransformCounters,
    /// Deleted statements that were present.
    pub removed: usize,
    /// Triples newly absorbed into the source RDF graph.
    pub added_triples: usize,
}

/// Apply one parsed delta to a property graph *and* mirror it into the
/// source RDF graph it was transformed from (deletions first in both), so
/// SPARQL on `rdf` and Cypher on `pg` keep serving the same logical state.
///
/// This is the one place the two models are stepped together: the server's
/// live write path, its catch-up of the standby snapshot, and
/// [`replay_deltas`] all call it. It is deterministic — the same delta
/// applied to two equal `(rdf, pg, transform, state)` leaves them equal,
/// down to node ids — which is what lets the server keep two copies in
/// step by applying every delta to each.
pub fn apply_delta_mirrored(
    rdf: &mut Graph,
    pg: &mut PropertyGraph,
    transform: &mut SchemaTransform,
    state: &mut TransformState,
    additions: &Graph,
    deletions: &Graph,
) -> MirroredOutcome {
    let _span = s3pg_obs::tracer().span_here("apply_delta");
    let (counters, removed) = apply_delta(pg, transform, state, additions, deletions);
    for t in deletions.triples() {
        let s = rdf.import_term(deletions, t.s);
        let p = rdf.import_sym(deletions, t.p);
        let o = rdf.import_term(deletions, t.o);
        rdf.remove(s, p, o);
    }
    MirroredOutcome {
        counters,
        removed,
        added_triples: rdf.absorb(additions),
    }
}

/// What [`replay_deltas`] did across a whole log tail.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayOutcome {
    /// Delta records consumed from the log.
    pub records: u64,
    /// Transform passes actually executed after coalescing — consecutive
    /// additions-only records collapse into one pass.
    pub batches: u64,
    /// Triples newly absorbed into the source RDF graph.
    pub added_triples: usize,
    /// Statements of deletion records that were present.
    pub removed: usize,
}

fn replay_flush(
    pending: &mut String,
    rdf: &mut Graph,
    pg: &mut PropertyGraph,
    transform: &mut SchemaTransform,
    state: &mut TransformState,
    outcome: &mut ReplayOutcome,
) -> Result<(), S3pgError> {
    if pending.is_empty() {
        return Ok(());
    }
    let graph = parse_ntriples(pending)?;
    outcome.added_triples +=
        apply_delta_mirrored(rdf, pg, transform, state, &graph, &Graph::new()).added_triples;
    outcome.batches += 1;
    pending.clear();
    Ok(())
}

/// Replay a sequence of `(additions, deletions)` N-Triples delta records —
/// a write-ahead-log tail — into a transform in progress, mirroring every
/// record into the source graph `rdf` exactly as the live write path does.
///
/// Monotonicity (`F_dt(G ∪ Δ) = F_dt(G) ∪ F_dt(Δ)`, Definition 3.4) means
/// additions-only records can be applied in any grouping without changing
/// the result, so consecutive ones are **coalesced** into a single parse +
/// ingest pass; that is what makes checkpoint-plus-tail recovery cheaper
/// than re-submitting each record through the update path. Records that
/// carry deletions are barriers: deletions are order-sensitive against the
/// additions around them, so such a record flushes the pending batch and
/// applies alone, deletions first, like [`apply_ntriples_delta`].
///
/// Records were validated before they were ever logged, so a parse error
/// here means the log is damaged; the error is surfaced, not skipped.
pub fn replay_deltas<'a>(
    rdf: &mut Graph,
    pg: &mut PropertyGraph,
    transform: &mut SchemaTransform,
    state: &mut TransformState,
    deltas: impl IntoIterator<Item = (&'a str, &'a str)>,
) -> Result<ReplayOutcome, S3pgError> {
    let _span = s3pg_obs::tracer().span_here("replay_deltas");
    let mut outcome = ReplayOutcome::default();
    let mut pending = String::new();
    for (additions, deletions) in deltas {
        outcome.records += 1;
        if deletions.trim().is_empty() {
            pending.push_str(additions);
            if !additions.is_empty() && !additions.ends_with('\n') {
                pending.push('\n');
            }
        } else {
            replay_flush(&mut pending, rdf, pg, transform, state, &mut outcome)?;
            let (add_graph, del_graph) = parse_delta(additions, deletions)?;
            let one = apply_delta_mirrored(rdf, pg, transform, state, &add_graph, &del_graph);
            outcome.added_triples += one.added_triples;
            outcome.removed += one.removed;
            outcome.batches += 1;
        }
    }
    replay_flush(&mut pending, rdf, pg, transform, state, &mut outcome)?;
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_transform::transform_data;
    use crate::inverse::recover_graph;
    use crate::mode::Mode;
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
    sh:property [ sh:path :knows ; sh:class :Person ; sh:minCount 0 ] ;
    sh:property [
        sh:path :nick ;
        sh:or ( [ sh:datatype xsd:string ] [ sh:datatype xsd:integer ] ) ] .
"#;

    const BASE: &str = r#"
@prefix : <http://ex/> .
:a a :Person ; :name "A" ; :knows :b ; :nick "ay" .
:b a :Person ; :name "B" .
"#;

    fn setup(mode: Mode) -> (SchemaTransform, PropertyGraph, TransformState) {
        let shapes = parse_shacl_turtle(SCHEMA).unwrap();
        let mut st = transform_schema(&shapes, mode);
        let g = parse_turtle(BASE).unwrap();
        let dt = transform_data(&g, &mut st, mode);
        (st, dt.pg, dt.state)
    }

    #[test]
    fn additions_extend_without_recomputation() {
        let (mut st, mut pg, mut state) = setup(Mode::Parsimonious);
        let nodes_before = pg.node_count();
        let delta = parse_turtle(
            r#"
@prefix : <http://ex/> .
:c a :Person ; :name "C" ; :knows :a .
"#,
        )
        .unwrap();
        let counters = apply_additions(&mut pg, &mut st, &mut state, &delta);
        assert_eq!(counters.entity_nodes, 1);
        assert_eq!(pg.node_count(), nodes_before + 1);
        let c = pg.node_by_iri("http://ex/c").unwrap();
        let a = pg.node_by_iri("http://ex/a").unwrap();
        assert!(pg.has_edge(c, a, "knows"));
    }

    #[test]
    fn incremental_equals_full_recomputation() {
        // F_dt(S1 ∪ Δ) ≅ F_dt(S1) ∪ F_dt(Δ) — Definition 3.4.
        let delta_text = r#"
@prefix : <http://ex/> .
:c a :Person ; :name "C" ; :knows :a ; :nick 7 .
:a :knows :c .
"#;
        // Incremental path.
        let (mut st1, mut pg1, mut state1) = setup(Mode::NonParsimonious);
        let delta = parse_turtle(delta_text).unwrap();
        apply_additions(&mut pg1, &mut st1, &mut state1, &delta);

        // Full recomputation path.
        let shapes = parse_shacl_turtle(SCHEMA).unwrap();
        let mut st2 = transform_schema(&shapes, Mode::NonParsimonious);
        let mut full = parse_turtle(BASE).unwrap();
        full.absorb(&delta);
        let dt2 = transform_data(&full, &mut st2, Mode::NonParsimonious);

        assert_eq!(pg1.node_count(), dt2.pg.node_count());
        assert_eq!(pg1.edge_count(), dt2.pg.edge_count());
        assert_eq!(
            pg1.relationship_type_count(),
            dt2.pg.relationship_type_count()
        );
    }

    #[test]
    fn replay_coalescing_matches_record_at_a_time() {
        let records: Vec<(String, String)> = vec![
            (
                "<http://ex/c> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
                 <http://ex/c> <http://ex/name> \"C\" .\n"
                    .to_string(),
                String::new(),
            ),
            ("<http://ex/c> <http://ex/knows> <http://ex/a> .\n".to_string(), String::new()),
            (
                "<http://ex/a> <http://ex/knows> <http://ex/c> .\n".to_string(),
                "<http://ex/a> <http://ex/knows> <http://ex/b> .\n".to_string(),
            ),
            ("<http://ex/b> <http://ex/nick> \"bee\" .\n".to_string(), String::new()),
        ];

        // Replay path: coalesces the leading additions-only records.
        let (mut st1, mut pg1, mut state1) = setup(Mode::Parsimonious);
        let mut rdf1 = parse_turtle(BASE).unwrap();
        let triples_before = rdf1.len();
        let outcome = replay_deltas(
            &mut rdf1,
            &mut pg1,
            &mut st1,
            &mut state1,
            records.iter().map(|(a, d)| (a.as_str(), d.as_str())),
        )
        .unwrap();
        assert_eq!(outcome.records, 4);
        assert!(outcome.batches < 4, "expected coalescing, got {outcome:?}");
        assert_eq!(rdf1.len(), triples_before + 5 - 1);

        // Reference path: one update per record, like the live server.
        let (mut st2, mut pg2, mut state2) = setup(Mode::Parsimonious);
        let mut rdf2 = parse_turtle(BASE).unwrap();
        for (a, d) in &records {
            let (add, del) = parse_delta(a, d).unwrap();
            apply_delta_mirrored(&mut rdf2, &mut pg2, &mut st2, &mut state2, &add, &del);
        }

        assert_eq!(pg1.node_count(), pg2.node_count());
        assert_eq!(pg1.edge_count(), pg2.edge_count());
        assert_eq!(rdf1.len(), rdf2.len());
        for iri in ["http://ex/a", "http://ex/b", "http://ex/c"] {
            let n1 = pg1.node_by_iri(iri).unwrap();
            let n2 = pg2.node_by_iri(iri).unwrap();
            for key in ["name", "nick"] {
                assert_eq!(pg1.prop(n1, key), pg2.prop(n2, key), "{iri} {key}");
            }
        }
        let (a1, b1, c1) = (
            pg1.node_by_iri("http://ex/a").unwrap(),
            pg1.node_by_iri("http://ex/b").unwrap(),
            pg1.node_by_iri("http://ex/c").unwrap(),
        );
        assert!(!pg1.has_edge(a1, b1, "knows"));
        assert!(pg1.has_edge(a1, c1, "knows"));
        assert!(pg1.has_edge(c1, a1, "knows"));
    }

    #[test]
    fn deleting_an_edge_triple() {
        let (mut st, mut pg, mut state) = setup(Mode::Parsimonious);
        let removed = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a :knows :b .
"#,
        )
        .unwrap();
        let n = apply_deletions(&mut pg, &mut st, &mut state, &removed);
        assert_eq!(n, 1);
        let a = pg.node_by_iri("http://ex/a").unwrap();
        let b = pg.node_by_iri("http://ex/b").unwrap();
        assert!(!pg.has_edge(a, b, "knows"));
    }

    #[test]
    fn deleting_a_key_value_triple() {
        let (mut st, mut pg, mut state) = setup(Mode::Parsimonious);
        let removed = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a :name "A" .
"#,
        )
        .unwrap();
        assert_eq!(apply_deletions(&mut pg, &mut st, &mut state, &removed), 1);
        let a = pg.node_by_iri("http://ex/a").unwrap();
        assert_eq!(pg.prop(a, "name"), None);
    }

    #[test]
    fn deleting_a_carrier_value_triple() {
        let (mut st, mut pg, mut state) = setup(Mode::Parsimonious);
        let edges_before = pg.edge_count();
        let removed = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a :nick "ay" .
"#,
        )
        .unwrap();
        assert_eq!(apply_deletions(&mut pg, &mut st, &mut state, &removed), 1);
        assert_eq!(pg.edge_count(), edges_before - 1);
    }

    #[test]
    fn deleting_a_type_statement_drops_label() {
        let (mut st, mut pg, mut state) = setup(Mode::Parsimonious);
        let removed = parse_turtle(
            r#"
@prefix : <http://ex/> .
:b a :Person .
"#,
        )
        .unwrap();
        assert_eq!(apply_deletions(&mut pg, &mut st, &mut state, &removed), 1);
        // `b` keeps its name, so it stays an entity: the untyped fallback,
        // as a recompute of the remaining statements would write it.
        let b = pg.node_by_iri("http://ex/b").unwrap();
        assert_eq!(pg.labels_of(b), vec!["Resource"]);
        assert_eq!(state.entity_types["http://ex/b"], vec!["resourceType"]);
        assert_eq!(pg.prop(b, "name"), None, "a Resource has no key/values");
        let a = pg.node_by_iri("http://ex/a").unwrap();
        assert!(pg.has_edge(a, b, "knows"));
        let mut rest = parse_turtle(BASE).unwrap();
        let b_type = rest
            .triples()
            .find(|t| {
                t.o.is_iri()
                    && rest.resolve(t.p).ends_with("#type")
                    && rest.resolve(t.s.as_iri().unwrap()) == "http://ex/b"
            })
            .unwrap();
        rest.remove(b_type.s, b_type.p, b_type.o);
        assert!(recover_graph(&pg, &st.mapping).unwrap().same_triples(&rest));
        assert!(conformance::check(&pg, &st.pg_schema).conforms());
    }

    #[test]
    fn deleting_every_statement_of_a_referenced_subject() {
        let (mut st, mut pg, mut state) = setup(Mode::Parsimonious);
        let removed = parse_turtle(
            r#"
@prefix : <http://ex/> .
:b a :Person ; :name "B" .
"#,
        )
        .unwrap();
        let nodes_before = pg.node_count();
        assert_eq!(apply_deletions(&mut pg, &mut st, &mut state, &removed), 2);
        // `b` is no entity any more: its node goes, and `a knows b` is
        // kept on an `ANYURI` carrier pending `b`'s return.
        assert!(pg.node_by_iri("http://ex/b").is_none());
        assert!(!state.entity_types.contains_key("http://ex/b"));
        assert_eq!(pg.node_count(), nodes_before, "b's node for one carrier");
        assert_eq!(state.pending_refs["http://ex/b"].len(), 1);
        let rest = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a a :Person ; :name "A" ; :knows :b ; :nick "ay" .
"#,
        )
        .unwrap();
        assert!(recover_graph(&pg, &st.mapping).unwrap().same_triples(&rest));
        // `b` coming back repairs the carrier into an edge again.
        let back = parse_turtle(
            r#"
@prefix : <http://ex/> .
:b a :Person ; :name "B" .
"#,
        )
        .unwrap();
        apply_additions(&mut pg, &mut st, &mut state, &back);
        let (a, b) = (
            pg.node_by_iri("http://ex/a").unwrap(),
            pg.node_by_iri("http://ex/b").unwrap(),
        );
        assert!(pg.has_edge(a, b, "knows"));
        assert_eq!(pg.node_count(), nodes_before);
        assert!(state.pending_refs.is_empty());
    }

    #[test]
    fn update_as_delete_then_add() {
        let (mut st, mut pg, mut state) = setup(Mode::Parsimonious);
        let deletions = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a :name "A" .
"#,
        )
        .unwrap();
        let additions = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a :name "A-prime" .
"#,
        )
        .unwrap();
        let (counters, removed) = apply_delta(&mut pg, &mut st, &mut state, &additions, &deletions);
        assert_eq!(removed, 1);
        assert_eq!(counters.key_values, 1);
        let a = pg.node_by_iri("http://ex/a").unwrap();
        assert_eq!(pg.prop(a, "name"), Some(&Value::String("A-prime".into())));
    }

    #[test]
    fn ntriples_delta_applies_both_directions() {
        let (mut st, mut pg, mut state) = setup(Mode::Parsimonious);
        let adds = "<http://ex/c> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
                    <http://ex/c> <http://ex/name> \"C\" .\n";
        let dels = "<http://ex/a> <http://ex/knows> <http://ex/b> .\n";
        let outcome = apply_ntriples_delta(&mut pg, &mut st, &mut state, adds, dels).unwrap();
        assert_eq!(outcome.counters.entity_nodes, 1);
        assert_eq!(outcome.removed, 1);
        assert_eq!(outcome.additions.len(), 2);
        assert_eq!(outcome.deletions.len(), 1);
        let c = pg.node_by_iri("http://ex/c").unwrap();
        assert_eq!(pg.prop(c, "name"), Some(&Value::String("C".into())));
    }

    #[test]
    fn malformed_ntriples_delta_is_a_typed_error() {
        let (mut st, mut pg, mut state) = setup(Mode::Parsimonious);
        let nodes_before = pg.node_count();
        let err = apply_ntriples_delta(
            &mut pg,
            &mut st,
            &mut state,
            "<http://ex/c> <http://ex/name \"unterminated .",
            "",
        )
        .unwrap_err();
        assert!(matches!(err, S3pgError::Rdf(_)), "{err:?}");
        // Bad additions alongside good deletions must leave the PG as-is.
        let err = apply_ntriples_delta(
            &mut pg,
            &mut st,
            &mut state,
            "not ntriples at all",
            "<http://ex/a> <http://ex/knows> <http://ex/b> .\n",
        )
        .unwrap_err();
        assert!(matches!(err, S3pgError::Rdf(_)), "{err:?}");
        assert_eq!(pg.node_count(), nodes_before);
        let a = pg.node_by_iri("http://ex/a").unwrap();
        let b = pg.node_by_iri("http://ex/b").unwrap();
        assert!(pg.has_edge(a, b, "knows"), "deletion must not have applied");
    }

    #[test]
    fn deletion_of_absent_triple_is_noop() {
        let (mut st, mut pg, mut state) = setup(Mode::Parsimonious);
        let removed = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a :knows :nobody .
:ghost :name "boo" .
"#,
        )
        .unwrap();
        assert_eq!(apply_deletions(&mut pg, &mut st, &mut state, &removed), 0);
    }

    #[test]
    fn schema_evolution_widens_monotonically() {
        // nick was string-only in the data; an integer nick arrives later.
        let (mut st, mut pg, mut state) = setup(Mode::NonParsimonious);
        let targets_before = st
            .pg_schema
            .edge_types_by_label("nick")
            .next()
            .unwrap()
            .targets
            .len();
        let delta = parse_turtle(
            r#"
@prefix : <http://ex/> .
:b :nick 42 .
"#,
        )
        .unwrap();
        apply_additions(&mut pg, &mut st, &mut state, &delta);
        let et = st.pg_schema.edge_types_by_label("nick").next().unwrap();
        assert!(et.targets.len() >= targets_before);
        assert!(et.targets.iter().any(|t| t == "integerType"));
        // Old data untouched: the "ay" carrier is still reachable.
        let a = pg.node_by_iri("http://ex/a").unwrap();
        assert!(pg
            .out_edges(a)
            .any(|e| pg.edge_labels_of(e).contains(&"nick")));
    }
}
