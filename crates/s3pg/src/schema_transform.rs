//! Schema transformation `F_st : S_G → S_PG` (Problem 1, §4.1 of the paper).
//!
//! Every entry of the Figure 3 constraint taxonomy is translated:
//!
//! | SHACL construct | PG-Schema construct |
//! |---|---|
//! | node shape with `sh:targetClass` | node type |
//! | `sh:node` hierarchy | type inheritance (`&`) |
//! | single-type literal, card `[0|1..1]` | key/value property (Table 1) |
//! | single-type literal, card `[_..N>1]` | array property (Table 1) |
//! | single-type non-literal | edge type + COUNT PG-Key (Fig. 5c) |
//! | multi-type literal (`sh:or`) | carrier node types + edge type (Fig. 5d) |
//! | multi-type non-literal | edge type with alternative targets (Fig. 5e) |
//! | multi-type hetero | edge type over carriers and entity types (Fig. 5f) |
//!
//! In [`Mode::NonParsimonious`] *all* properties become edge types over
//! carrier nodes (Fig. 5g), which is what makes the transformation monotone
//! under schema evolution.

use crate::mapping::{Handling, Mapping};
use crate::mode::Mode;
use s3pg_pg::{ContentType, CountKey, EdgeType, NodeType, PgSchema, PropertySpec};
use s3pg_shacl::{Cardinality, NodeShape, PropertyShape, ShapeSchema, TypeConstraint};

/// Pseudo-datatype IRI used for `sh:nodeKind sh:IRI` targets without a class
/// (and for untyped IRI objects at data-transformation time).
pub const ANY_IRI_DATATYPE: &str = "http://www.w3.org/2001/XMLSchema#anyURI";

/// Node type automatically present in every transformed schema; entities
/// without any `rdf:type` statement are given this label so that the
/// transformed graph still conforms (`PG ⊨ S_PG`).
pub const RESOURCE_TYPE: &str = "resourceType";
/// Label of [`RESOURCE_TYPE`].
pub const RESOURCE_LABEL: &str = "Resource";

/// The output of `F_st`: the PG schema together with the mapping.
#[derive(Debug, Clone, PartialEq)]
pub struct SchemaTransform {
    pub pg_schema: PgSchema,
    pub mapping: Mapping,
}

/// Transform a SHACL shape schema into PG-Schema.
pub fn transform_schema(schema: &ShapeSchema, mode: Mode) -> SchemaTransform {
    let mut mapping = Mapping::new();
    let mut pg_schema = PgSchema::new();

    // The fallback type for untyped entities.
    pg_schema.add_node_type(NodeType {
        name: RESOURCE_TYPE.into(),
        label: RESOURCE_LABEL.into(),
        extends: Vec::new(),
        properties: Vec::new(),
        iri: None,
        kind: s3pg_pg::NodeTypeKind::Entity,
    });

    // Pass 1: register every shape's node type so that edge targets and
    // inheritance can refer to types declared later in the document.
    for shape in schema.shapes() {
        let class_iri = effective_class(shape);
        let (type_name, label) = mapping.register_class(&class_iri);
        mapping
            .shape_of_type
            .insert(type_name.clone(), shape.name.clone());
        pg_schema.add_node_type(NodeType::entity(type_name, label, class_iri));
    }

    // Pass 2: properties, hierarchy, edge types, keys.
    for shape in schema.shapes() {
        let class_iri = effective_class(shape);
        let type_name = mapping.type_of_class[&class_iri].clone();

        // Hierarchy: sh:node parents → type inheritance.
        let mut extends = Vec::new();
        for parent in &shape.extends {
            if let Some(parent_shape) = schema.by_name(parent) {
                let parent_class = effective_class(parent_shape);
                let (parent_type, _) = mapping.register_class(&parent_class);
                extends.push(parent_type);
            }
        }
        if let Some(nt) = pg_schema.node_type_mut(&type_name) {
            nt.extends = extends;
        }

        // Own property shapes declare specs / edge types / keys; inherited
        // ones only register handling so the data transformation can resolve
        // them on subtype instances directly. This keeps the PG schema free
        // of duplicated declarations (inheritance carries them), which in
        // turn lets the inverse mapping `N` reconstruct the SHACL document
        // exactly.
        let own_paths: Vec<&str> = shape.properties.iter().map(|p| p.path.as_str()).collect();
        for ps in &shape.properties {
            transform_property(
                &mut pg_schema,
                &mut mapping,
                schema,
                &type_name,
                ps,
                mode,
                true,
            );
        }
        for ps in schema.effective_properties(shape) {
            if !own_paths.contains(&ps.path.as_str()) {
                transform_property(
                    &mut pg_schema,
                    &mut mapping,
                    schema,
                    &type_name,
                    &ps,
                    mode,
                    false,
                );
            }
        }
    }

    SchemaTransform { pg_schema, mapping }
}

/// The class IRI a shape targets; shapes without `sh:targetClass` use their
/// own name as a synthetic class.
fn effective_class(shape: &NodeShape) -> String {
    shape
        .target_class
        .clone()
        .unwrap_or_else(|| shape.name.clone())
}

#[allow(clippy::too_many_arguments)]
fn transform_property(
    pg_schema: &mut PgSchema,
    mapping: &mut Mapping,
    schema: &ShapeSchema,
    type_name: &str,
    ps: &PropertyShape,
    mode: Mode,
    declare: bool,
) {
    // `rdf:langString` never qualifies for the key/value rule: the data
    // transformation always routes language-tagged values through carrier
    // nodes (the tag has nowhere to live in a plain property), so declaring
    // a required key here would leave every instance non-conforming.
    let parsimonious_kv = mode == Mode::Parsimonious
        && !ps.alternatives.is_empty()
        && ps.alternatives.iter().all(TypeConstraint::is_literal)
        && ps.alternatives.len() == 1
        && !matches!(&ps.alternatives[0], TypeConstraint::Datatype(dt)
            if dt == s3pg_rdf::vocab::rdf::LANG_STRING);

    if parsimonious_kv {
        // Single-type literal → key/value property per Table 1.
        let TypeConstraint::Datatype(dt) = &ps.alternatives[0] else {
            unreachable!("checked literal above");
        };
        let key = mapping.register_key(&ps.path);
        let content = ContentType::from_xsd(dt);
        let Cardinality { min, max } = ps.cardinality;
        let spec = match max {
            Some(1) => {
                if min == 0 {
                    PropertySpec::optional(key.clone(), content)
                } else {
                    PropertySpec::required(key.clone(), content)
                }
            }
            bounded => PropertySpec::array(key.clone(), content, min, bounded),
        };
        let array = spec.array.is_some();
        if declare {
            if let Some(nt) = pg_schema.node_type_mut(type_name) {
                if nt.property(&key).is_none() {
                    nt.properties.push(spec);
                }
            }
        }
        mapping
            .kv_datatype
            .insert((type_name.to_string(), key.clone()), dt.clone());
        mapping.set_handling(type_name, &ps.path, Handling::KeyValue { key, array });
        return;
    }

    // Everything else becomes an edge type: alternatives map to entity
    // types (classes / node-shape references) and carrier types (datatypes
    // / bare IRIs).
    let label = mapping.register_edge_label(&ps.path);
    let mut targets: Vec<String> = Vec::new();
    let push_target = |t: String, targets: &mut Vec<String>| {
        if !targets.contains(&t) {
            targets.push(t);
        }
    };
    let alternatives: &[TypeConstraint] = if ps.alternatives.is_empty() {
        // An unconstrained property shape can point anywhere; model as IRI
        // or literal carrier discovered at data time, seeded with AnyIri.
        &[TypeConstraint::AnyIri]
    } else {
        &ps.alternatives
    };
    for alt in alternatives {
        match alt {
            TypeConstraint::Datatype(dt) => {
                let (carrier, _) = ensure_carrier(pg_schema, mapping, dt);
                push_target(carrier, &mut targets);
            }
            TypeConstraint::AnyIri => {
                let (carrier, _) = ensure_carrier(pg_schema, mapping, ANY_IRI_DATATYPE);
                push_target(carrier, &mut targets);
            }
            TypeConstraint::Class(class) => {
                let (target_type, label) = mapping.register_class(class);
                ensure_entity_type(pg_schema, &target_type, &label, class);
                push_target(target_type, &mut targets);
            }
            TypeConstraint::NodeShape(shape_name) => {
                let class = schema
                    .by_name(shape_name)
                    .map(effective_class)
                    .unwrap_or_else(|| shape_name.clone());
                let (target_type, label) = mapping.register_class(&class);
                ensure_entity_type(pg_schema, &target_type, &label, &class);
                push_target(target_type, &mut targets);
            }
        }
    }

    if declare {
        let edge_type_name = format!("{label}_{type_name}");
        match pg_schema.edge_type_mut(&edge_type_name) {
            Some(existing) => {
                for t in &targets {
                    existing.add_target(t.clone());
                }
            }
            None => {
                pg_schema.add_edge_type(EdgeType {
                    name: edge_type_name,
                    label: label.clone(),
                    iri: Some(ps.path.clone()),
                    source: type_name.to_string(),
                    targets: targets.clone(),
                });
            }
        }
    }

    // Cardinality → PG-Key with COUNT qualifier (Figures 5c–5g).
    if declare && ps.cardinality != Cardinality::ANY {
        let Cardinality { min, max } = ps.cardinality;
        let existing = pg_schema
            .keys_mut()
            .iter_mut()
            .find(|k| k.for_type == type_name && k.edge_label == label);
        match existing {
            Some(key) => {
                key.widen(min, max);
                for t in targets {
                    if !key.target_types.contains(&t) {
                        key.target_types.push(t);
                    }
                }
            }
            None => pg_schema.add_key(CountKey {
                for_type: type_name.to_string(),
                edge_label: label.clone(),
                min,
                max,
                target_types: targets,
            }),
        }
    }

    mapping.set_handling(type_name, &ps.path, Handling::Edge { label });
}

/// Ensure a literal-carrier node type for `datatype` exists; returns its
/// (type name, label).
pub fn ensure_carrier(
    pg_schema: &mut PgSchema,
    mapping: &mut Mapping,
    datatype: &str,
) -> (String, String) {
    let (type_name, label) = mapping.register_carrier(datatype);
    if pg_schema.node_type(&type_name).is_none() {
        let mut nt = NodeType::literal_carrier(type_name.clone(), label.clone(), datatype);
        // The carried value: `ov`, plus the IRI marker shown in Figure 5d.
        nt.properties.push(PropertySpec::optional(
            "ov",
            if datatype == ANY_IRI_DATATYPE {
                ContentType::String
            } else {
                ContentType::from_xsd(datatype)
            },
        ));
        pg_schema.add_node_type(nt);
    }
    (type_name, label)
}

/// Ensure an entity node type exists (used for classes that appear only as
/// edge targets, without a shape of their own).
pub fn ensure_entity_type(pg_schema: &mut PgSchema, type_name: &str, label: &str, class_iri: &str) {
    if pg_schema.node_type(type_name).is_none() {
        pg_schema.add_node_type(NodeType::entity(type_name, label, class_iri));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3pg_pg::ddl::to_ddl;
    use s3pg_shacl::parser::parse_shacl_turtle;

    /// The full running example: Figures 4a–4f of the paper.
    const FIGURE4: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .

shape:Person a sh:NodeShape ;
    sh:targetClass :Person ;
    sh:property [
        sh:path :name ; sh:nodeKind sh:Literal ; sh:datatype xsd:string ;
        sh:minCount 1 ; sh:maxCount 1 ] ;
    sh:property [
        sh:path :dob ;
        sh:or ( [ sh:nodeKind sh:Literal ; sh:datatype xsd:string ]
                [ sh:nodeKind sh:Literal ; sh:datatype xsd:date ]
                [ sh:nodeKind sh:Literal ; sh:datatype xsd:gYear ] ) ;
        sh:minCount 1 ] .

shape:Student a sh:NodeShape ;
    sh:targetClass :Student ;
    sh:node shape:Person ;
    sh:property [
        sh:path :regNo ; sh:nodeKind sh:Literal ; sh:datatype xsd:string ;
        sh:minCount 1 ; sh:maxCount 1 ] ;
    sh:property [
        sh:path :advisedBy ;
        sh:or ( [ sh:NodeKind sh:IRI ; sh:class :Person ]
                [ sh:NodeKind sh:IRI ; sh:class :Professor ]
                [ sh:NodeKind sh:IRI ; sh:class :Faculty ] ) ;
        sh:minCount 1 ] .

shape:Professor a sh:NodeShape ;
    sh:targetClass :Professor ;
    sh:property [
        sh:path :worksFor ; sh:nodeKind sh:IRI ; sh:class :Department ;
        sh:minCount 1 ; sh:maxCount 1 ] .

shape:GraduateStudent a sh:NodeShape ;
    sh:targetClass :GraduateStudent ;
    sh:node shape:Student ;
    sh:property [
        sh:path :takesCourse ;
        sh:or ( [ sh:NodeKind sh:IRI ; sh:class :Course ]
                [ sh:nodeKind sh:Literal ; sh:datatype xsd:string ]
                [ sh:NodeKind sh:IRI ; sh:class :GradCourse ] ) ;
        sh:minCount 1 ] .
"#;

    fn figure4_schema() -> ShapeSchema {
        parse_shacl_turtle(FIGURE4).unwrap()
    }

    #[test]
    fn single_type_literal_becomes_key_value() {
        let out = transform_schema(&figure4_schema(), Mode::Parsimonious);
        let person = out.pg_schema.node_type("personType").unwrap();
        let name = person.property("name").unwrap();
        assert_eq!(name.content, ContentType::String);
        assert!(!name.optional);
        assert!(name.array.is_none());
        assert!(matches!(
            out.mapping.handling_for("personType", "http://ex/name"),
            Some(Handling::KeyValue { array: false, .. })
        ));
    }

    #[test]
    fn hierarchy_is_translated() {
        let out = transform_schema(&figure4_schema(), Mode::Parsimonious);
        let student = out.pg_schema.node_type("studentType").unwrap();
        assert_eq!(student.extends, vec!["personType".to_string()]);
        let gs = out.pg_schema.node_type("graduateStudentType").unwrap();
        assert_eq!(gs.extends, vec!["studentType".to_string()]);
    }

    #[test]
    fn single_type_non_literal_becomes_edge_with_key() {
        let out = transform_schema(&figure4_schema(), Mode::Parsimonious);
        let et = out
            .pg_schema
            .edge_types_by_label("worksFor")
            .next()
            .expect("worksFor edge type");
        assert_eq!(et.source, "professorType");
        assert_eq!(et.targets, vec!["departmentType".to_string()]);
        // Department had no shape of its own; it was materialized.
        assert!(out.pg_schema.node_type("departmentType").is_some());
        let key = out
            .pg_schema
            .keys()
            .iter()
            .find(|k| k.edge_label == "worksFor")
            .unwrap();
        assert_eq!((key.min, key.max), (1, Some(1)));
    }

    #[test]
    fn multi_type_literal_gets_carriers() {
        let out = transform_schema(&figure4_schema(), Mode::Parsimonious);
        let et = out.pg_schema.edge_types_by_label("dob").next().unwrap();
        assert_eq!(et.source, "personType");
        assert_eq!(et.targets.len(), 3);
        assert!(out.pg_schema.node_type("stringType").is_some());
        assert!(out.pg_schema.node_type("dateType").is_some());
        assert!(out.pg_schema.node_type("gyearType").is_some());
        assert_eq!(
            out.mapping.datatype_of_carrier["GYEAR"],
            s3pg_rdf::vocab::xsd::G_YEAR
        );
    }

    #[test]
    fn multi_type_non_literal_union_targets() {
        let out = transform_schema(&figure4_schema(), Mode::Parsimonious);
        let et = out
            .pg_schema
            .edge_types_by_label("advisedBy")
            .next()
            .unwrap();
        assert_eq!(et.source, "studentType");
        assert!(et.allows_target("personType"));
        assert!(et.allows_target("professorType"));
        assert!(et.allows_target("facultyType"));
    }

    #[test]
    fn hetero_property_mixes_entity_and_carrier_targets() {
        let out = transform_schema(&figure4_schema(), Mode::Parsimonious);
        let et = out
            .pg_schema
            .edge_types_by_label("takesCourse")
            .next()
            .unwrap();
        assert!(et.allows_target("courseType"));
        assert!(et.allows_target("gradCourseType"));
        assert!(et.allows_target("stringType"));
    }

    #[test]
    fn inherited_properties_register_handling_on_subtype() {
        let out = transform_schema(&figure4_schema(), Mode::Parsimonious);
        // GS inherits regNo (from Student) and name (from Person).
        assert!(out
            .mapping
            .handling_for("graduateStudentType", "http://ex/regNo")
            .is_some());
        assert!(out
            .mapping
            .handling_for("graduateStudentType", "http://ex/name")
            .is_some());
    }

    #[test]
    fn non_parsimonious_turns_all_properties_into_edges() {
        let out = transform_schema(&figure4_schema(), Mode::NonParsimonious);
        // Even name/regNo become edge types (Figure 5g).
        assert!(out.pg_schema.edge_types_by_label("name").next().is_some());
        assert!(out.pg_schema.edge_types_by_label("regNo").next().is_some());
        assert!(matches!(
            out.mapping.handling_for("personType", "http://ex/name"),
            Some(Handling::Edge { .. })
        ));
        let person = out.pg_schema.node_type("personType").unwrap();
        assert!(person.property("name").is_none());
    }

    #[test]
    fn array_cardinality_maps_to_array_spec() {
        let doc = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .
shape:T a sh:NodeShape ; sh:targetClass :T ;
    sh:property [ sh:path :alias ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 5 ] .
"#;
        let schema = parse_shacl_turtle(doc).unwrap();
        let out = transform_schema(&schema, Mode::Parsimonious);
        let t = out.pg_schema.node_type("tType").unwrap();
        let alias = t.property("alias").unwrap();
        assert_eq!(alias.array, Some((1, Some(5))));
        assert!(matches!(
            out.mapping.handling_for("tType", "http://ex/alias"),
            Some(Handling::KeyValue { array: true, .. })
        ));
    }

    #[test]
    fn resource_type_always_present() {
        let out = transform_schema(&ShapeSchema::new(), Mode::Parsimonious);
        assert!(out.pg_schema.node_type(RESOURCE_TYPE).is_some());
    }

    #[test]
    fn ddl_output_resembles_figure5() {
        let out = transform_schema(&figure4_schema(), Mode::Parsimonious);
        let ddl = to_ddl(&out.pg_schema);
        assert!(ddl.contains("(personType: Person"));
        assert!(ddl.contains("(studentType: studentType & personType)"));
        assert!(ddl.contains("name: STRING"));
        assert!(ddl.contains("->(:departmentType)"));
        assert!(ddl.contains("COUNT 1..1 OF"));
    }

    #[test]
    fn unconstrained_property_defaults_to_any_iri_carrier() {
        let doc = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .
shape:T a sh:NodeShape ; sh:targetClass :T ;
    sh:property [ sh:path :free ] .
"#;
        let schema = parse_shacl_turtle(doc).unwrap();
        let out = transform_schema(&schema, Mode::Parsimonious);
        let et = out.pg_schema.edge_types_by_label("free").next().unwrap();
        assert_eq!(et.targets, vec!["anyuriType".to_string()]);
    }
}
