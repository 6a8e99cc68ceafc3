//! Monotone incremental updates (§4.2.1 and §5.4 of the paper).
//!
//! When the source RDF graph evolves, S3PG does not recompute the whole
//! transformation: additions are ingested with the same two-phase algorithm
//! restricted to the delta (`F_dt(G ∪ Δ) = F_dt(G) ∪ F_dt(Δ)`), and
//! deletions remove exactly the PG elements the deleted triples produced.
//! Schema changes only ever widen the PG schema (new types, new edge-type
//! targets, widened cardinality keys), never invalidate existing data —
//! which is the point of the non-parsimonious encoding.

use crate::data_transform::{
    carrier_value, entity_ref, ingest, preserve_value, TransformCounters, TransformState, LANG_KEY,
};
use crate::error::S3pgError;
use crate::mapping::Handling;
use crate::schema_transform::SchemaTransform;
use s3pg_pg::{PropertyGraph, Value, VALUE_KEY};
use s3pg_rdf::parser::parse_ntriples;
use s3pg_rdf::Graph;

/// Apply an additions-only delta. Returns the counters for the delta pass.
pub fn apply_additions(
    pg: &mut PropertyGraph,
    transform: &mut SchemaTransform,
    state: &mut TransformState,
    delta: &Graph,
) -> TransformCounters {
    let mut counters = TransformCounters::default();
    ingest(delta, transform, pg, state, &mut counters);
    counters
}

/// Apply a deletions-only delta: every triple in `removed` is assumed to
/// have been part of the source graph. Returns the number of PG mutations.
pub fn apply_deletions(
    pg: &mut PropertyGraph,
    transform: &SchemaTransform,
    state: &mut TransformState,
    removed: &Graph,
) -> usize {
    let type_p = removed.type_predicate_opt();
    let mut changes = 0;

    for t in removed.triples() {
        let subject = entity_ref(removed, t.s);
        let Some(s_node) = pg.node_by_iri(&subject) else {
            continue;
        };

        // Deleting a type statement removes the label (the node itself stays
        // while other statements may still refer to it).
        if Some(t.p) == type_p {
            if let Some(class_sym) = t.o.as_iri() {
                let class_iri = removed.resolve(class_sym);
                if let Some(label) = transform.mapping.label_of_class.get(class_iri) {
                    if pg.remove_label(s_node, label) {
                        changes += 1;
                    }
                    if let Some(type_name) = transform.mapping.type_of_class.get(class_iri) {
                        if let Some(types) = state.entity_types.get_mut(subject.as_ref()) {
                            types.retain(|t| t != type_name);
                        }
                    }
                }
            }
            continue;
        }

        let predicate = removed.resolve(t.p).to_string();
        let subject_types = state
            .entity_types
            .get(subject.as_ref())
            .cloned()
            .unwrap_or_default();
        let handling = subject_types
            .iter()
            .find_map(|tn| transform.mapping.handling_for(tn, &predicate).cloned());

        // Entity-to-entity edge?
        if t.o.is_resource() {
            let object = entity_ref(removed, t.o);
            if let Some(o_node) = pg.node_by_iri(&object) {
                let label = match &handling {
                    Some(Handling::Edge { label }) => label.clone(),
                    _ => transform
                        .mapping
                        .edge_label_of_pred
                        .get(&predicate)
                        .cloned()
                        .unwrap_or_else(|| predicate.clone()),
                };
                if pg.remove_edge(s_node, o_node, &label) {
                    changes += 1;
                    continue;
                }
            }
        }

        // Key/value property?
        if let Some(Handling::KeyValue { key, .. }) = &handling {
            if let Some(lit) = t.o.as_literal() {
                if lit.lang.is_none() {
                    let value =
                        preserve_value(removed.resolve(lit.lexical), removed.resolve(lit.datatype));
                    if pg.remove_prop_value(s_node, key, &value) {
                        changes += 1;
                        continue;
                    }
                }
            }
        }

        // Carrier node: find the edge from s with the predicate's label to a
        // carrier whose `ov` (and `lang`) matches, and remove the edge.
        let label = match &handling {
            Some(Handling::Edge { label }) => label.clone(),
            _ => match transform.mapping.edge_label_of_pred.get(&predicate) {
                Some(l) => l.clone(),
                None => continue,
            },
        };
        let (value, lang) = carrier_value(removed, t.o);
        let lang = lang.map(|tag| Value::String(removed.resolve(tag).to_string()));
        let candidate = pg.out_edges(s_node).find(|&e| {
            let edge = pg.edge(e);
            if !pg.edge_labels_of(e).contains(&label.as_str()) {
                return false;
            }
            pg.prop(edge.dst, VALUE_KEY) == Some(&value)
                && pg.prop(edge.dst, LANG_KEY) == lang.as_ref()
        });
        if let Some(e) = candidate {
            let dst = pg.edge(e).dst;
            let edge_removed = pg.remove_edge(s_node, dst, &label);
            if edge_removed {
                changes += 1;
            }
        }
    }
    changes
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
/// of PG mutations the deletions caused, and the parsed delta graphs (so a
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
    /// PG mutations the deletions caused.
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
    /// Property-graph mutations caused by deletion records.
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
    use crate::mode::Mode;
    use crate::schema_transform::transform_schema;
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
        let (st, mut pg, mut state) = setup(Mode::Parsimonious);
        let removed = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a :knows :b .
"#,
        )
        .unwrap();
        let n = apply_deletions(&mut pg, &st, &mut state, &removed);
        assert_eq!(n, 1);
        let a = pg.node_by_iri("http://ex/a").unwrap();
        let b = pg.node_by_iri("http://ex/b").unwrap();
        assert!(!pg.has_edge(a, b, "knows"));
    }

    #[test]
    fn deleting_a_key_value_triple() {
        let (st, mut pg, mut state) = setup(Mode::Parsimonious);
        let removed = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a :name "A" .
"#,
        )
        .unwrap();
        assert_eq!(apply_deletions(&mut pg, &st, &mut state, &removed), 1);
        let a = pg.node_by_iri("http://ex/a").unwrap();
        assert_eq!(pg.prop(a, "name"), None);
    }

    #[test]
    fn deleting_a_carrier_value_triple() {
        let (st, mut pg, mut state) = setup(Mode::Parsimonious);
        let edges_before = pg.edge_count();
        let removed = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a :nick "ay" .
"#,
        )
        .unwrap();
        assert_eq!(apply_deletions(&mut pg, &st, &mut state, &removed), 1);
        assert_eq!(pg.edge_count(), edges_before - 1);
    }

    #[test]
    fn deleting_a_type_statement_drops_label() {
        let (st, mut pg, mut state) = setup(Mode::Parsimonious);
        let removed = parse_turtle(
            r#"
@prefix : <http://ex/> .
:b a :Person .
"#,
        )
        .unwrap();
        assert_eq!(apply_deletions(&mut pg, &st, &mut state, &removed), 1);
        let b = pg.node_by_iri("http://ex/b").unwrap();
        assert!(pg.labels_of(b).is_empty());
        assert!(state.entity_types["http://ex/b"].is_empty());
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
        let (st, mut pg, mut state) = setup(Mode::Parsimonious);
        let removed = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a :knows :nobody .
:ghost :name "boo" .
"#,
        )
        .unwrap();
        assert_eq!(apply_deletions(&mut pg, &st, &mut state, &removed), 0);
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
