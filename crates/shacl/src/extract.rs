//! Shape extraction from instance data.
//!
//! The paper obtains SHACL schemas for DBpedia and Bio2RDF with the QSE
//! extractor (Rabbani et al., VLDB 2023, the paper's reference \[33\]); this module is the
//! equivalent substrate: it mines a [`ShapeSchema`] directly from an RDF
//! graph so that every dataset — synthetic or real — can be transformed even
//! when no hand-written shapes exist.
//!
//! For every class `c` (object of `rdf:type`) a node shape is created; for
//! every predicate used by instances of `c` a property shape is derived
//! whose alternatives `T_p` are the observed value descriptors (literal
//! datatypes, object classes, or bare IRIs) and whose cardinality is the
//! tightest `[min..max]` admitting every instance. `rdfs:subClassOf` axioms
//! between extracted classes become `sh:node` inheritance.

use crate::schema::{Cardinality, NodeShape, PropertyShape, ShapeSchema, TypeConstraint};
use s3pg_rdf::fxhash::{FxHashMap, FxHashSet};
use s3pg_rdf::{vocab, Graph, Sym, Term};

/// Configuration for shape extraction.
#[derive(Debug, Clone)]
pub struct ExtractConfig {
    /// Classes with fewer instances than this are not given shapes.
    pub min_class_support: usize,
    /// Property shapes observed on fewer than this many instances are
    /// dropped (QSE's support threshold).
    pub min_property_support: usize,
    /// Namespace under which generated shape IRIs are minted.
    pub shape_namespace: String,
    /// When true, the extracted max cardinality is the exact observed
    /// maximum; when false any count > 1 widens to `∞`, matching the
    /// `[1..*]` style cardinalities of the paper's figures.
    pub exact_max: bool,
}

impl Default for ExtractConfig {
    fn default() -> Self {
        ExtractConfig {
            min_class_support: 1,
            min_property_support: 1,
            shape_namespace: "http://s3pg.example.org/shape/".into(),
            exact_max: false,
        }
    }
}

/// Extract a shape schema from `graph` with default configuration.
pub fn extract_shapes(graph: &Graph) -> ShapeSchema {
    extract_shapes_with(graph, &ExtractConfig::default())
}

/// Extract a shape schema with explicit configuration.
fn extract_shapes_with(graph: &Graph, config: &ExtractConfig) -> ShapeSchema {
    let Some(type_p) = graph.type_predicate_opt() else {
        return ShapeSchema::new();
    };

    // Pass 1: class → instances, entity → types.
    let mut class_instances: FxHashMap<Sym, Vec<Term>> = FxHashMap::default();
    let mut entity_types: FxHashMap<Term, Vec<Sym>> = FxHashMap::default();
    for t in graph.match_pattern(None, Some(type_p), None) {
        if let Some(class) = t.o.as_iri() {
            class_instances.entry(class).or_default().push(t.s);
            entity_types.entry(t.s).or_default().push(class);
        }
    }

    // Pass 2: per (class, predicate) observation sets.
    #[derive(Default)]
    struct Observation {
        alternatives: FxHashSet<TypeConstraint>,
        /// instance → value count, to derive cardinalities.
        counts: FxHashMap<Term, u32>,
        support: usize,
    }
    let mut observations: FxHashMap<(Sym, Sym), Observation> = FxHashMap::default();

    for t in graph.triples() {
        if t.p == type_p {
            continue;
        }
        let Some(classes) = entity_types.get(&t.s) else {
            continue; // untyped subject: no shape governs it
        };
        let descriptor = describe_value(graph, &entity_types, t.o);
        for &class in classes {
            let obs = observations.entry((class, t.p)).or_default();
            for d in &descriptor {
                obs.alternatives.insert(d.clone());
            }
            *obs.counts.entry(t.s).or_insert(0) += 1;
        }
    }
    for ((_, _), obs) in observations.iter_mut() {
        obs.support = obs.counts.len();
    }

    // Assemble shapes with stable, collision-free names.
    let mut schema = ShapeSchema::new();
    let mut used_names: FxHashSet<String> = FxHashSet::default();
    let mut classes: Vec<Sym> = class_instances.keys().copied().collect();
    classes.sort_by_key(|c| graph.resolve(*c).to_string());

    let mut shape_name_of_class: FxHashMap<Sym, String> = FxHashMap::default();
    for &class in &classes {
        let instances = &class_instances[&class];
        if instances.len() < config.min_class_support {
            continue;
        }
        let class_iri = graph.resolve(class);
        let mut name = format!(
            "{}{}Shape",
            config.shape_namespace,
            vocab::local_name(class_iri)
        );
        let mut disambiguator = 1;
        while !used_names.insert(name.clone()) {
            disambiguator += 1;
            name = format!(
                "{}{}Shape{}",
                config.shape_namespace,
                vocab::local_name(class_iri),
                disambiguator
            );
        }
        shape_name_of_class.insert(class, name);
    }

    for &class in &classes {
        let Some(name) = shape_name_of_class.get(&class) else {
            continue;
        };
        let class_iri = graph.resolve(class).to_string();
        let instance_count = class_instances[&class].len();
        let mut shape = NodeShape::for_class(name.clone(), class_iri);

        // sh:node inheritance from rdfs:subClassOf between shaped classes.
        if let Some(sub_p) = graph.interner().get(vocab::rdfs::SUB_CLASS_OF) {
            for sup in graph.objects(Term::Iri(class), sub_p) {
                if let Some(sup_sym) = sup.as_iri() {
                    if let Some(parent) = shape_name_of_class.get(&sup_sym) {
                        shape.extends.push(parent.clone());
                    }
                }
            }
        }

        let mut preds: Vec<Sym> = observations
            .keys()
            .filter(|(c, _)| *c == class)
            .map(|(_, p)| *p)
            .collect();
        preds.sort_by_key(|p| graph.resolve(*p).to_string());

        for pred in preds {
            let obs = &observations[&(class, pred)];
            if obs.support < config.min_property_support {
                continue;
            }
            let mut alternatives: Vec<TypeConstraint> = obs.alternatives.iter().cloned().collect();
            alternatives.sort();
            let max_count = obs.counts.values().copied().max().unwrap_or(0);
            let min = if obs.counts.len() == instance_count {
                1
            } else {
                0
            };
            let max = if max_count <= 1 {
                Some(1)
            } else if config.exact_max {
                Some(max_count)
            } else {
                None
            };
            shape.properties.push(PropertyShape {
                path: graph.resolve(pred).to_string(),
                alternatives,
                cardinality: Cardinality::new(min, max),
            });
        }
        schema.add(shape);
    }
    schema
}

/// Describe an observed object value as type-constraint alternatives.
fn describe_value(
    graph: &Graph,
    entity_types: &FxHashMap<Term, Vec<Sym>>,
    value: Term,
) -> Vec<TypeConstraint> {
    match value {
        Term::Literal(l) => {
            // `rdf:langString` is kept distinct from `xsd:string`: the
            // transformation must carrier-node language-tagged values to
            // preserve their tags, so collapsing the two here would declare
            // a key/value property the data pass can never satisfy.
            let dt = graph.resolve(l.datatype);
            vec![TypeConstraint::Datatype(dt.to_string())]
        }
        Term::Iri(_) | Term::Blank(_) => match entity_types.get(&value) {
            Some(types) if !types.is_empty() => types
                .iter()
                .map(|&t| TypeConstraint::Class(graph.resolve(t).to_string()))
                .collect(),
            _ => vec![TypeConstraint::AnyIri],
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::PsCategory;
    use crate::validate::validate;
    use s3pg_rdf::parser::parse_turtle;

    fn university() -> Graph {
        parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Student ; :regNo "Bs12" ; :takesCourse :db, "Self Study" .
:carol a :Student ; :regNo "Bs13" ; :takesCourse :db .
:db a :Course ; :title "Databases" .
:alice a :Professor ; :name "Alice" ; :worksFor :cs .
:cs a :Department ; :deptName "CS" .
"#,
        )
        .unwrap()
    }

    #[test]
    fn extracts_one_shape_per_class() {
        let schema = extract_shapes(&university());
        assert_eq!(schema.len(), 4); // Student, Course, Professor, Department
        assert!(schema.by_target_class("http://ex/Student").is_some());
        assert!(schema.by_target_class("http://ex/Department").is_some());
    }

    #[test]
    fn extracted_cardinalities_fit_data() {
        let schema = extract_shapes(&university());
        let student = schema.by_target_class("http://ex/Student").unwrap();
        let reg = student
            .properties
            .iter()
            .find(|p| p.path == "http://ex/regNo")
            .unwrap();
        assert_eq!(reg.cardinality, Cardinality::ONE);
        let takes = student
            .properties
            .iter()
            .find(|p| p.path == "http://ex/takesCourse")
            .unwrap();
        // bob has 2 course values, carol 1 → [1..*]
        assert_eq!(takes.cardinality, Cardinality::AT_LEAST_ONE);
    }

    #[test]
    fn hetero_property_detected() {
        let schema = extract_shapes(&university());
        let student = schema.by_target_class("http://ex/Student").unwrap();
        let takes = student
            .properties
            .iter()
            .find(|p| p.path == "http://ex/takesCourse")
            .unwrap();
        assert_eq!(takes.category(), PsCategory::MultiTypeHetero);
        assert!(takes
            .alternatives
            .contains(&TypeConstraint::Class("http://ex/Course".into())));
        assert!(takes
            .alternatives
            .contains(&TypeConstraint::Datatype(vocab::xsd::STRING.into())));
    }

    #[test]
    fn extracted_schema_validates_source_graph() {
        let g = university();
        let schema = extract_shapes(&g);
        let report = validate(&g, &schema);
        assert!(report.conforms(), "{:#?}", report.violations);
    }

    #[test]
    fn optional_property_gets_min_zero() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a a :T ; :p "x" .
:b a :T .
"#,
        )
        .unwrap();
        let schema = extract_shapes(&g);
        let shape = schema.by_target_class("http://ex/T").unwrap();
        assert_eq!(shape.properties[0].cardinality, Cardinality::OPTIONAL);
    }

    #[test]
    fn untyped_object_becomes_any_iri() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a a :T ; :link :mystery .
"#,
        )
        .unwrap();
        let schema = extract_shapes(&g);
        let shape = schema.by_target_class("http://ex/T").unwrap();
        assert_eq!(
            shape.properties[0].alternatives,
            vec![TypeConstraint::AnyIri]
        );
    }

    #[test]
    fn subclass_axioms_become_inheritance() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
:GS rdfs:subClassOf :Student .
:bob a :GS ; :thesis "KG" .
:ann a :Student ; :regNo "S1" .
"#,
        )
        .unwrap();
        let schema = extract_shapes(&g);
        let gs = schema.by_target_class("http://ex/GS").unwrap();
        let student_shape_name = schema
            .by_target_class("http://ex/Student")
            .unwrap()
            .name
            .clone();
        assert_eq!(gs.extends, vec![student_shape_name]);
    }

    #[test]
    fn support_thresholds_filter_rare_shapes() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a a :Common ; :p "1" .
:b a :Common ; :p "2" .
:c a :Rare ; :q "3" .
"#,
        )
        .unwrap();
        let config = ExtractConfig {
            min_class_support: 2,
            ..ExtractConfig::default()
        };
        let schema = extract_shapes_with(&g, &config);
        assert!(schema.by_target_class("http://ex/Common").is_some());
        assert!(schema.by_target_class("http://ex/Rare").is_none());
    }

    #[test]
    fn exact_max_records_observed_maximum() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:a a :T ; :p "1", "2", "3" .
"#,
        )
        .unwrap();
        let config = ExtractConfig {
            exact_max: true,
            ..ExtractConfig::default()
        };
        let schema = extract_shapes_with(&g, &config);
        let shape = schema.by_target_class("http://ex/T").unwrap();
        assert_eq!(
            shape.properties[0].cardinality,
            Cardinality::new(1, Some(3))
        );
    }

    #[test]
    fn multi_label_entities_contribute_to_all_their_classes() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:x a :A, :B ; :p "v" .
"#,
        )
        .unwrap();
        let schema = extract_shapes(&g);
        assert!(schema
            .by_target_class("http://ex/A")
            .unwrap()
            .properties
            .iter()
            .any(|p| p.path == "http://ex/p"));
        assert!(schema
            .by_target_class("http://ex/B")
            .unwrap()
            .properties
            .iter()
            .any(|p| p.path == "http://ex/p"));
    }
}
