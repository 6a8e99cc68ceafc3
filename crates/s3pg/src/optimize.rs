//! Post-hoc optimization of non-parsimonious property graphs.
//!
//! The paper's conclusion (§7) leaves this open: *"the non-parsimonious
//! transformation generates large PGs, an open question is how and when to
//! optimize them."* This module implements the *how*: [`parsimonize`]
//! rewrites literal-carrier nodes back into key/value properties wherever
//! that is lossless —
//!
//! * all values of a `(subject, property)` group are literal carriers,
//! * they share a single datatype (PG arrays must be homogeneous), and
//! * none carries a language tag (tags have no key/value encoding).
//!
//! Heterogeneous and multi-datatype groups — the cases that make S3PG
//! lossless where the baselines are not — keep their carrier encoding.
//! The transformation mapping is updated (key registration, handling,
//! `kv_datatype`), so the inverse mapping `M` and the query translator
//! `F_qt` keep working on the optimized graph; affected COUNT keys are
//! re-expressed as (optional array) property specs.
//!
//! As for the *when*: the operation pays off once a graph's schema has
//! stabilised — typically after a period of evolution under the
//! non-parsimonious model. [`ParsimonizeReport`] quantifies the savings so
//! callers can decide.

use crate::data_transform::LANG_KEY;
use crate::mapping::Handling;
use crate::schema_transform::SchemaTransform;
use s3pg_pg::{ContentType, NodeId, PropertyGraph, PropertySpec, IRI_KEY, VALUE_KEY};
use s3pg_rdf::fxhash::FxHashMap;

/// What [`parsimonize`] changed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ParsimonizeReport {
    /// Carrier nodes removed.
    pub carriers_removed: usize,
    /// Edges replaced by key/value properties.
    pub edges_removed: usize,
    /// Key/value assignments written.
    pub key_values_written: usize,
    /// Carrier groups kept because conversion would lose information
    /// (mixed datatypes, language tags, or shared carriers).
    pub groups_kept: usize,
}

/// Rewrite eligible carrier-node groups into key/value properties.
pub fn parsimonize(pg: &mut PropertyGraph, transform: &mut SchemaTransform) -> ParsimonizeReport {
    let mut report = ParsimonizeReport::default();

    // Pass 1: collect candidate groups (entity node × edge label → carrier
    // edges) and their eligibility + datatype.
    struct Candidate {
        subject: NodeId,
        label: String,
        edges: Vec<(s3pg_pg::EdgeId, NodeId)>,
        datatype: Option<String>, // None = ineligible group
    }
    let mut candidates: Vec<Candidate> = Vec::new();
    for subject in pg.node_ids() {
        if pg.prop(subject, IRI_KEY).is_none() {
            continue; // carriers themselves are not subjects
        }
        let mut groups: FxHashMap<String, Vec<(s3pg_pg::EdgeId, NodeId)>> = FxHashMap::default();
        for e in pg.out_edges(subject) {
            let edge = pg.edge(e);
            let dst = edge.dst;
            if pg.prop(dst, VALUE_KEY).is_none() || pg.prop(dst, IRI_KEY).is_some() {
                continue; // not a literal carrier
            }
            let label = pg.edge_labels_of(e)[0].to_string();
            groups.entry(label).or_default().push((e, dst));
        }
        for (label, edges) in groups {
            let mut datatypes: Vec<String> = Vec::new();
            let mut eligible = true;
            for &(_, carrier) in &edges {
                if pg.in_edges(carrier).count() != 1 || pg.prop(carrier, LANG_KEY).is_some() {
                    eligible = false;
                    break;
                }
                match pg
                    .labels_of(carrier)
                    .first()
                    .and_then(|l| transform.mapping.datatype_of_carrier.get(*l))
                    .cloned()
                {
                    Some(dt) => {
                        if !datatypes.contains(&dt) {
                            datatypes.push(dt);
                        }
                    }
                    None => {
                        eligible = false;
                        break;
                    }
                }
            }
            let datatype = if eligible && datatypes.len() == 1 {
                datatypes.pop()
            } else {
                None
            };
            candidates.push(Candidate {
                subject,
                label,
                edges,
                datatype,
            });
        }
    }

    // Pass 2: a predicate (edge label) converts only when *every* eligible
    // group agrees on one datatype — the key/value encoding records a single
    // datatype per (type, key), so bob's gYear dob and carol's date dob must
    // both stay carriers (exactly the multi-type case F_st encodes as edges).
    let mut predicate_dt: FxHashMap<String, Option<String>> = FxHashMap::default();
    for c in &candidates {
        let entry = predicate_dt
            .entry(c.label.clone())
            .or_insert_with(|| c.datatype.clone());
        if *entry != c.datatype {
            *entry = None;
        }
    }

    for candidate in candidates {
        let convertible = candidate.datatype.is_some()
            && predicate_dt.get(&candidate.label) == Some(&candidate.datatype);
        if !convertible {
            report.groups_kept += 1;
            continue;
        }
        let datatype = candidate.datatype.unwrap();
        let Some(predicate) = transform
            .mapping
            .pred_of_edge_label
            .get(&candidate.label)
            .cloned()
        else {
            report.groups_kept += 1;
            continue;
        };

        // Convert: move each carrier's value into the subject's record.
        let key = transform.mapping.register_key(&predicate);
        for &(edge, carrier) in &candidate.edges {
            let value = pg.prop(carrier, VALUE_KEY).cloned().expect("checked above");
            pg.push_prop(candidate.subject, &key, value);
            pg.remove_edge_by_id(edge);
            let removed = pg.remove_node(carrier);
            debug_assert!(removed, "carrier had a single in-edge");
            report.edges_removed += 1;
            report.carriers_removed += 1;
            report.key_values_written += 1;
        }

        // Keep the mapping and schema coherent for M / F_qt / conformance.
        let content = ContentType::from_xsd(&datatype);
        let subject_labels: Vec<String> = pg
            .labels_of(candidate.subject)
            .iter()
            .map(|s| s.to_string())
            .collect();
        for label in subject_labels {
            let Some(nt) = transform.pg_schema.node_type_by_label(&label) else {
                continue;
            };
            let type_name = nt.name.clone();
            transform
                .mapping
                .kv_datatype
                .insert((type_name.clone(), key.clone()), datatype.clone());
            transform.mapping.set_handling(
                &type_name,
                &predicate,
                Handling::KeyValue {
                    key: key.clone(),
                    array: true,
                },
            );
            if let Some(nt) = transform.pg_schema.node_type_mut(&type_name) {
                if nt.property(&key).is_none() {
                    nt.properties
                        .push(PropertySpec::array(key.clone(), content, 0, None));
                }
            }
            // COUNT keys for this label would now see zero edges; their
            // cardinality is re-expressed by the (optional array) spec.
            transform
                .pg_schema
                .keys_mut()
                .retain(|k| !(k.edge_label == candidate.label && k.for_type == type_name));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data_transform::transform_data;
    use crate::inverse::recover_graph;
    use crate::mode::Mode;
    use crate::pipeline::transform;
    use crate::schema_transform::transform_schema;
    use s3pg_pg::Value;
    use s3pg_rdf::parser::parse_turtle;
    use s3pg_shacl::extract_shapes;

    const DATA: &str = r#"
@prefix : <http://ex/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
:bob a :Student ; :regNo "Bs12" ; :nick "bobby", "rob" ;
     :dob "1999"^^xsd:gYear ;
     :takesCourse :db, "Self Study" ;
     :label "hi"@en .
:carol a :Student ; :regNo "Bs13" ; :dob "2000-05-04"^^xsd:date .
:db a :Course ; :title "Databases" .
"#;

    fn setup() -> (s3pg_rdf::Graph, SchemaTransform, PropertyGraph) {
        let g = parse_turtle(DATA).unwrap();
        let shapes = extract_shapes(&g);
        let mut st = transform_schema(&shapes, Mode::NonParsimonious);
        let dt = transform_data(&g, &mut st, Mode::NonParsimonious);
        (g, st, dt.pg)
    }

    #[test]
    fn parsimonize_shrinks_the_graph() {
        let (_, mut st, mut pg) = setup();
        let nodes_before = pg.node_count();
        let edges_before = pg.edge_count();
        let report = parsimonize(&mut pg, &mut st);
        assert!(report.carriers_removed > 0);
        assert_eq!(pg.node_count(), nodes_before - report.carriers_removed);
        assert_eq!(pg.edge_count(), edges_before - report.edges_removed);
        // regNo (single string) and nick (two strings) were converted…
        let bob = pg.node_by_iri("http://ex/bob").unwrap();
        assert_eq!(pg.prop(bob, "regNo"), Some(&Value::String("Bs12".into())));
        assert!(matches!(pg.prop(bob, "nick"), Some(Value::List(items)) if items.len() == 2));
    }

    #[test]
    fn ineligible_groups_survive() {
        let (_, mut st, mut pg) = setup();
        let report = parsimonize(&mut pg, &mut st);
        assert!(report.groups_kept > 0);
        let bob = pg.node_by_iri("http://ex/bob").unwrap();
        // dob is string-or-date across subjects but single-dt per subject →
        // converted per subject. The lang-tagged label must NOT convert.
        assert_eq!(pg.prop(bob, "label"), None);
        // takesCourse still has its hetero carrier edge + entity edge.
        assert!(pg
            .out_edges(bob)
            .any(|e| pg.edge_labels_of(e).contains(&"takesCourse")));
    }

    #[test]
    fn information_preservation_survives_optimization() {
        let (g, mut st, mut pg) = setup();
        parsimonize(&mut pg, &mut st);
        let recovered = recover_graph(&pg, &st.mapping).unwrap();
        assert!(
            recovered.same_triples(&g),
            "M(parsimonize(F_dt(G))) must equal G"
        );
    }

    #[test]
    fn conformance_survives_optimization() {
        let (_, mut st, mut pg) = setup();
        parsimonize(&mut pg, &mut st);
        let report = s3pg_pg::conformance::check(&pg, &st.pg_schema);
        assert!(
            report.conforms(),
            "{:#?}",
            &report.failures[..report.failures.len().min(4)]
        );
    }

    #[test]
    fn queries_stay_complete_after_optimization() {
        let (g, mut st, mut pg) = setup();
        parsimonize(&mut pg, &mut st);
        for q in [
            "PREFIX ex: <http://ex/> SELECT ?s ?r WHERE { ?s a ex:Student . ?s ex:regNo ?r . }",
            "PREFIX ex: <http://ex/> SELECT ?s ?c WHERE { ?s a ex:Student . ?s ex:takesCourse ?c . }",
            "PREFIX ex: <http://ex/> SELECT ?s ?n WHERE { ?s ex:nick ?n . }",
        ] {
            let sols = s3pg_query::sparql::execute(&g, q).unwrap();
            let gt = s3pg_query::results::ResultSet::from_sparql(&g, &sols);
            let cypher_q = crate::query_translate::translate_str(q, &st.mapping).unwrap();
            let rows = s3pg_query::cypher::execute(&pg, &cypher_q).unwrap();
            let acc = s3pg_query::results::accuracy(
                &gt,
                &s3pg_query::results::ResultSet::from_cypher(&rows),
            );
            assert_eq!(acc, 100.0, "query lost answers after parsimonize: {q}");
        }
    }

    #[test]
    fn optimization_reduces_storage() {
        let g = parse_turtle(DATA).unwrap();
        let shapes = extract_shapes(&g);
        let out = transform(&g, &shapes, Mode::NonParsimonious);
        let before = out.pg.clone();
        let mut pg = out.pg;
        let mut st = out.schema;
        parsimonize(&mut pg, &mut st);
        // CSV bytes: a proxy for the storage question the paper raises.
        let b = s3pg_pg::csv::export(&before).size_bytes();
        let a = s3pg_pg::csv::export(&pg).size_bytes();
        assert!(a < b, "expected smaller CSV, got {a} >= {b}");
    }

    #[test]
    fn idempotent() {
        let (_, mut st, mut pg) = setup();
        let first = parsimonize(&mut pg, &mut st);
        let second = parsimonize(&mut pg, &mut st);
        assert!(first.carriers_removed > 0);
        assert_eq!(second.carriers_removed, 0);
        assert_eq!(second.key_values_written, 0);
    }
}
