//! The computable inverse mappings of Proposition 4.1.
//!
//! * [`recover_graph`] is `M : PG → G` — reconstructs the original RDF
//!   graph from a transformed property graph, one [`recover_node`] a node.
//! * [`recover_schema`] is `N : S_PG → S_G` — reconstructs the original
//!   SHACL shape schema from a transformed PG-Schema.
//!
//! Together they witness *information preservation* (Definition 3.1): for
//! any `G` and `S_G`, `M(F_dt(G)) = G` and `N(F_st(S_G)) = S_G` (up to the
//! canonical ordering the SHACL parser applies; one representational note:
//! `sh:node` used as a *property* constraint is reconstructed as the
//! `sh:class` constraint of the referenced shape's target class, which is
//! satisfaction-equivalent under Definition 2.3).

use crate::data_transform::LANG_KEY;
use crate::error::S3pgError;
use crate::mapping::{Mapping, RESERVED_KEYS};
use crate::schema_transform::{SchemaTransform, ANY_IRI_DATATYPE, RESOURCE_TYPE};
use s3pg_pg::{NodeId, NodeTypeKind, PropertyGraph, Value, IRI_KEY, VALUE_KEY};
use s3pg_rdf::fxhash::FxHashSet;
use s3pg_rdf::{vocab, Graph, Sym, Term};
use s3pg_shacl::{Cardinality, NodeShape, PropertyShape, ShapeSchema, TypeConstraint};

/// `M : PG → G` — reconstruct the RDF graph node by node.
pub fn recover_graph(pg: &PropertyGraph, mapping: &Mapping) -> Result<Graph, S3pgError> {
    let mut g = Graph::with_capacity(pg.edge_count() + pg.node_count());
    for node in pg.node_ids() {
        recover_node(pg, mapping, node, None, &mut g)?;
    }
    Ok(g)
}

/// `M` on one node: its labels as `rdf:type`, key/values and out-edges
/// (nothing for a carrier), inserted into `g` if their key or edge label is
/// in `scope` (`None` admits all, and only `None` admits `rdf:type`).
/// Returns how many statements the node stands for, in scope or not.
pub fn recover_node(
    pg: &PropertyGraph,
    mapping: &Mapping,
    node_id: NodeId,
    scope: Option<&FxHashSet<Sym>>,
    g: &mut Graph,
) -> Result<usize, S3pgError> {
    let node = pg.node(node_id);
    let Some(Value::String(entity)) = pg.prop(node_id, IRI_KEY) else {
        return Ok(0);
    };
    let subject = term_from_ref(g, entity);
    let in_scope = |name: &Sym| scope.is_none_or(|names| names.contains(name));

    // Labels → rdf:type triples.
    let type_p = g.type_predicate();
    let classes: Vec<&String> = (node.labels.iter())
        .filter_map(|&l| mapping.class_of_label.get(pg.resolve(l)))
        .collect();
    for class in classes.iter().filter(|_| scope.is_none()) {
        let class_term = g.intern_iri(class);
        g.insert(subject, type_p, class_term);
    }
    let mut walked = classes.len();

    // Key/value properties → literal triples.
    for (key_sym, value) in &node.props {
        let key = pg.resolve(*key_sym);
        if RESERVED_KEYS.contains(&key) {
            continue;
        }
        walked += value.iter_flat().count();
        if !in_scope(key_sym) {
            continue;
        }
        let predicate = mapping.pred_of_key.get(key).ok_or_else(|| {
            S3pgError::Inverse(format!("property key '{key}' has no predicate mapping"))
        })?;
        let datatype = (classes.iter().filter_map(|&c| mapping.type_of_class.get(c)))
            .find_map(|tn| mapping.kv_datatype.get(&(tn.clone(), key.to_string())));
        let p = g.intern(predicate);
        for item in value.iter_flat() {
            let dt = datatype.map_or(item.content_type().to_xsd(), String::as_str);
            let object = g.typed_literal(&item.lexical(), dt);
            g.insert(subject, p, object);
        }
    }

    // Out-edges → entity links, or literal triples via carrier nodes.
    for edge_id in pg.out_edges(node_id) {
        let edge = pg.edge(edge_id);
        for label_sym in edge.labels.iter().filter(|l| in_scope(l)) {
            let label = pg.resolve(*label_sym);
            let predicate = mapping.pred_of_edge_label.get(label).ok_or_else(|| {
                S3pgError::Inverse(format!("edge label '{label}' has no predicate mapping"))
            })?;
            let p = g.intern(predicate);
            let object = recover_object(pg, mapping, edge.dst, g)?;
            g.insert(subject, p, object);
        }
        walked += edge.labels.len();
    }
    Ok(walked)
}

fn recover_object(
    pg: &PropertyGraph,
    mapping: &Mapping,
    dst: NodeId,
    g: &mut Graph,
) -> Result<Term, S3pgError> {
    if let Some(Value::String(entity)) = pg.prop(dst, IRI_KEY) {
        let entity = entity.clone();
        return Ok(term_from_ref(g, &entity));
    }
    // Carrier node: datatype from its label, value from `ov`.
    let datatype = pg
        .node(dst)
        .labels
        .iter()
        .find_map(|&l| mapping.datatype_of_carrier.get(pg.resolve(l)))
        .cloned()
        .ok_or_else(|| S3pgError::Inverse("carrier node without datatype label".into()))?;
    let value = pg
        .prop(dst, VALUE_KEY)
        .ok_or_else(|| S3pgError::Inverse("carrier node without ov value".into()))?;
    let lexical = value.lexical();
    if datatype == ANY_IRI_DATATYPE {
        return Ok(term_from_ref(g, &lexical));
    }
    if let Some(Value::String(lang)) = pg.prop(dst, LANG_KEY) {
        let lang = lang.clone();
        return Ok(g.lang_literal(&lexical, &lang));
    }
    Ok(g.typed_literal(&lexical, &datatype))
}

fn term_from_ref(g: &mut Graph, entity: &str) -> Term {
    match entity.strip_prefix("_:") {
        Some(label) => g.intern_blank(label),
        None => g.intern_iri(entity),
    }
}

/// `N : S_PG → S_G` — reconstruct the SHACL shape schema.
pub fn recover_schema(transform: &SchemaTransform) -> ShapeSchema {
    let (pg_schema, mapping) = (&transform.pg_schema, &transform.mapping);
    let mut schema = ShapeSchema::new();
    for nt in pg_schema.node_types() {
        if nt.kind != NodeTypeKind::Entity || nt.name == RESOURCE_TYPE {
            continue;
        }
        // Only types that originated from shapes become shapes again;
        // types materialized as mere edge targets did not exist in S_G.
        let Some(shape_name) = mapping.shape_of_type.get(&nt.name) else {
            continue;
        };
        let target_class = nt.iri.clone();
        let extends: Vec<String> = nt
            .extends
            .iter()
            .filter_map(|parent| mapping.shape_of_type.get(parent))
            .cloned()
            .collect();

        let mut properties: Vec<PropertyShape> = Vec::new();

        // Key/value specs → single-type literal property shapes.
        for spec in &nt.properties {
            if RESERVED_KEYS.contains(&spec.key.as_str()) {
                continue;
            }
            let Some(path) = mapping.pred_of_key.get(&spec.key) else {
                continue;
            };
            let datatype = mapping
                .kv_datatype
                .get(&(nt.name.clone(), spec.key.clone()))
                .cloned()
                .unwrap_or_else(|| spec.content.to_xsd().to_string());
            let cardinality = match spec.array {
                None => {
                    if spec.optional {
                        Cardinality::OPTIONAL
                    } else {
                        Cardinality::ONE
                    }
                }
                Some((min, max)) => Cardinality::new(min, max),
            };
            properties.push(PropertyShape::single(
                path.clone(),
                TypeConstraint::Datatype(datatype),
                cardinality,
            ));
        }

        // Edge types with this source → property shapes.
        for et in pg_schema.edge_types() {
            if et.source != nt.name {
                continue;
            }
            let Some(path) = et
                .iri
                .clone()
                .or_else(|| mapping.pred_of_edge_label.get(&et.label).cloned())
            else {
                continue;
            };
            let mut alternatives: Vec<TypeConstraint> = Vec::new();
            for target in &et.targets {
                let Some(target_type) = pg_schema.node_type(target) else {
                    continue;
                };
                let alt = match target_type.kind {
                    NodeTypeKind::Entity => match &target_type.iri {
                        Some(class) => TypeConstraint::Class(class.clone()),
                        None => TypeConstraint::AnyIri,
                    },
                    NodeTypeKind::LiteralCarrier => match &target_type.iri {
                        Some(dt) if dt == ANY_IRI_DATATYPE => TypeConstraint::AnyIri,
                        Some(dt) => TypeConstraint::Datatype(dt.clone()),
                        None => TypeConstraint::Datatype(vocab::xsd::STRING.into()),
                    },
                };
                if !alternatives.contains(&alt) {
                    alternatives.push(alt);
                }
            }
            let cardinality = pg_schema
                .keys()
                .iter()
                .find(|k| k.for_type == nt.name && k.edge_label == et.label)
                .map(|k| Cardinality::new(k.min, k.max))
                .unwrap_or(Cardinality::ANY);
            alternatives.sort();
            properties.push(PropertyShape {
                path,
                alternatives,
                cardinality,
            });
        }

        properties.sort_by(|a, b| a.path.cmp(&b.path));
        schema.add(NodeShape {
            name: shape_name.clone(),
            target_class,
            extends,
            properties,
        });
    }
    schema
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
    sh:property [
        sh:path :dob ;
        sh:or ( [ sh:datatype xsd:string ] [ sh:datatype xsd:date ]
                [ sh:datatype xsd:gYear ] ) ;
        sh:minCount 1 ] .

shape:Student a sh:NodeShape ; sh:targetClass :Student ;
    sh:node shape:Person ;
    sh:property [ sh:path :regNo ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] ;
    sh:property [
        sh:path :takesCourse ;
        sh:or ( [ sh:class :Course ] [ sh:datatype xsd:string ] ) ;
        sh:minCount 1 ] .

shape:Course a sh:NodeShape ; sh:targetClass :Course ;
    sh:property [ sh:path :title ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] .
"#;

    const DATA: &str = r#"
@prefix : <http://ex/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
:bob a :Person, :Student ; :name "Bob" ; :regNo "Bs12" ;
     :dob "1999"^^xsd:gYear ;
     :takesCourse :db, "Self Study" .
:alice a :Person ; :name "Alice" ; :dob "1980-05-04"^^xsd:date .
:db a :Course ; :title "Databases" .
"#;

    fn shapes() -> ShapeSchema {
        parse_shacl_turtle(SCHEMA).unwrap()
    }

    #[test]
    fn schema_roundtrip_parsimonious() {
        let original = shapes();
        let st = transform_schema(&original, Mode::Parsimonious);
        let recovered = recover_schema(&st);
        assert_eq!(recovered, original);
    }

    #[test]
    fn schema_roundtrip_non_parsimonious() {
        let original = shapes();
        let st = transform_schema(&original, Mode::NonParsimonious);
        let recovered = recover_schema(&st);
        assert_eq!(recovered, original);
    }

    #[test]
    fn graph_roundtrip_parsimonious() {
        let original = parse_turtle(DATA).unwrap();
        let mut st = transform_schema(&shapes(), Mode::Parsimonious);
        let dt = transform_data(&original, &mut st, Mode::Parsimonious);
        let recovered = recover_graph(&dt.pg, &st.mapping).unwrap();
        assert_eq!(recovered.len(), original.len());
        assert!(recovered.same_triples(&original), "graphs differ");
    }

    #[test]
    fn graph_roundtrip_non_parsimonious() {
        let original = parse_turtle(DATA).unwrap();
        let mut st = transform_schema(&shapes(), Mode::NonParsimonious);
        let dt = transform_data(&original, &mut st, Mode::NonParsimonious);
        let recovered = recover_graph(&dt.pg, &st.mapping).unwrap();
        assert!(recovered.same_triples(&original));
    }

    #[test]
    fn graph_roundtrip_with_lang_and_blank_nodes() {
        let original = parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Person ; :name "Bob"@en ; :dob "x" .
_:anon a :Person ; :name "Ghost" ; :dob "y" ; :knows _:anon .
"#,
        )
        .unwrap();
        let mut st = transform_schema(&shapes(), Mode::Parsimonious);
        let dt = transform_data(&original, &mut st, Mode::Parsimonious);
        let recovered = recover_graph(&dt.pg, &st.mapping).unwrap();
        assert!(recovered.same_triples(&original));
    }

    #[test]
    fn graph_roundtrip_with_out_of_schema_data() {
        let original = parse_turtle(
            r#"
@prefix : <http://ex/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
:x a :Person ; :name "X" ; :dob "z" ;
   :surprising "042"^^xsd:integer ;
   :pointsTo <http://other/entity> .
"#,
        )
        .unwrap();
        let mut st = transform_schema(&shapes(), Mode::Parsimonious);
        let dt = transform_data(&original, &mut st, Mode::Parsimonious);
        let recovered = recover_graph(&dt.pg, &st.mapping).unwrap();
        assert!(
            recovered.same_triples(&original),
            "non-canonical lexical forms and unknown predicates must survive"
        );
    }

    #[test]
    fn recovered_schema_validates_original_data() {
        let original = parse_turtle(DATA).unwrap();
        let st = transform_schema(&shapes(), Mode::Parsimonious);
        let recovered = recover_schema(&st);
        let report = s3pg_shacl::validate(&original, &recovered);
        assert!(report.conforms(), "{:#?}", report.violations);
    }

    #[test]
    fn double_roundtrip_is_stable() {
        let original = shapes();
        let st1 = transform_schema(&original, Mode::Parsimonious);
        let r1 = recover_schema(&st1);
        let st2 = transform_schema(&r1, Mode::Parsimonious);
        let r2 = recover_schema(&st2);
        assert_eq!(r1, r2);
    }
}
