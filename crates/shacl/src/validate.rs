//! SHACL validation implementing the shape semantics of Definition 2.3.
//!
//! For every node shape `⟨s, τ_s, Φ_s⟩` and every entity `e` with
//! `⟨e, a, τ_s⟩ ∈ G`, each property shape `φ: ⟨τ_p, T_p, C_p⟩` is checked:
//!
//! * literal value type constraints — every `⟨e, τ_p, l⟩` has a literal `l`
//!   of the specified datatype,
//! * class value type constraints — every object is an instance of the class
//!   (or of a subclass), and conforms to the class's shape when one exists,
//! * node type value-based constraints — the object conforms to the
//!   referenced node shape,
//! * cardinality — `n ≤ |{⟨e, τ_p, o⟩ ∈ G}| ≤ m`.
//!
//! Multiple alternatives (`sh:or`) are satisfied when at least one branch
//! accepts the value. Recursive shape references are handled coinductively:
//! an entity currently being checked is assumed conforming, so cyclic
//! schemas terminate.

use crate::schema::{PropertyShape, ShapeSchema, TypeConstraint};
use s3pg_rdf::fxhash::{FxHashMap, FxHashSet};
use s3pg_rdf::{vocab, Graph, Term};
use std::fmt;

/// A single constraint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The focus entity (IRI or blank label).
    pub entity: String,
    /// The node shape that was violated.
    pub shape: String,
    /// The property path involved, if the violation is property-level.
    pub path: Option<String>,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.path {
            Some(p) => write!(
                f,
                "{} violates {} on {}: {}",
                self.entity, self.shape, p, self.message
            ),
            None => write!(
                f,
                "{} violates {}: {}",
                self.entity, self.shape, self.message
            ),
        }
    }
}

/// The outcome of validating a graph against a shape schema.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    /// All violations found.
    pub violations: Vec<Violation>,
    /// Number of (entity, shape) pairs checked.
    pub checked: usize,
}

impl ValidationReport {
    /// Whether the graph conforms (no violations).
    pub fn conforms(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Validate `graph` against `schema`, producing a report.
pub fn validate(graph: &Graph, schema: &ShapeSchema) -> ValidationReport {
    let mut cx = Context::new(graph, schema);
    let mut report = ValidationReport::default();
    for shape in schema.shapes() {
        let Some(target) = &shape.target_class else {
            continue;
        };
        let Some(class_sym) = graph.interner().get(target) else {
            continue; // class never instantiated
        };
        for entity in graph.instances_of(Term::Iri(class_sym)) {
            report.checked += 1;
            cx.check_entity(entity, shape, &mut report.violations);
        }
    }
    report
}

struct Context<'a> {
    graph: &'a Graph,
    schema: &'a ShapeSchema,
    subclass_closure: FxHashMap<Term, FxHashSet<Term>>,
    /// Memo: (entity, shape name) → conformance. `None` marks in-progress,
    /// treated as conforming (coinductive semantics).
    memo: FxHashMap<(Term, String), Option<bool>>,
}

impl<'a> Context<'a> {
    fn new(graph: &'a Graph, schema: &'a ShapeSchema) -> Self {
        Context {
            graph,
            schema,
            subclass_closure: graph.subclass_closure(),
            memo: FxHashMap::default(),
        }
    }

    fn term_name(&self, t: Term) -> String {
        match t {
            Term::Iri(s) => self.graph.resolve(s).to_string(),
            Term::Blank(s) => format!("_:{}", self.graph.resolve(s)),
            Term::Literal(l) => format!("\"{}\"", self.graph.resolve(l.lexical)),
        }
    }

    /// Full check with violation reporting (top level only).
    fn check_entity(
        &mut self,
        entity: Term,
        shape: &crate::schema::NodeShape,
        violations: &mut Vec<Violation>,
    ) {
        let props = self.schema.effective_properties(shape);
        for ps in &props {
            self.check_property(entity, shape, ps, violations);
        }
    }

    fn check_property(
        &mut self,
        entity: Term,
        shape: &crate::schema::NodeShape,
        ps: &PropertyShape,
        violations: &mut Vec<Violation>,
    ) {
        let objects = match self.graph.interner().get(&ps.path) {
            Some(p) => self.graph.objects(entity, p),
            None => Vec::new(),
        };
        if !ps.cardinality.admits(objects.len()) {
            violations.push(Violation {
                entity: self.term_name(entity),
                shape: shape.name.clone(),
                path: Some(ps.path.clone()),
                message: format!(
                    "cardinality {} violated by {} value(s)",
                    ps.cardinality,
                    objects.len()
                ),
            });
        }
        if ps.alternatives.is_empty() {
            return;
        }
        for o in objects {
            if !self.value_matches_any(o, &ps.alternatives) {
                violations.push(Violation {
                    entity: self.term_name(entity),
                    shape: shape.name.clone(),
                    path: Some(ps.path.clone()),
                    message: format!("value {} matches no alternative", self.term_name(o)),
                });
            }
        }
    }

    fn value_matches_any(&mut self, value: Term, alternatives: &[TypeConstraint]) -> bool {
        alternatives.iter().any(|tc| self.value_matches(value, tc))
    }

    fn value_matches(&mut self, value: Term, tc: &TypeConstraint) -> bool {
        match tc {
            TypeConstraint::Datatype(dt) => match value.as_literal() {
                Some(l) => {
                    let actual = self.graph.resolve(l.datatype);
                    actual == dt
                        // Plain strings satisfy an xsd:string constraint even
                        // when language-tagged.
                        || (dt == vocab::xsd::STRING && actual == vocab::rdf::LANG_STRING)
                }
                None => false,
            },
            TypeConstraint::AnyIri => value.is_iri(),
            TypeConstraint::Class(class) => {
                if !value.is_resource() {
                    return false;
                }
                if !self.is_instance_of(value, class) {
                    return false;
                }
                // "if ∃ S_t ∈ S_G, o ⊨ S_t" — when the class has a shape, the
                // object must conform to it.
                match self.schema.by_target_class(class) {
                    Some(shape) => {
                        let name = shape.name.clone();
                        self.conforms_by_name(value, &name)
                    }
                    None => true,
                }
            }
            TypeConstraint::NodeShape(shape_name) => {
                value.is_resource() && self.conforms_by_name(value, shape_name)
            }
        }
    }

    fn is_instance_of(&self, value: Term, class: &str) -> bool {
        let Some(class_sym) = self.graph.interner().get(class) else {
            return false;
        };
        let class_term = Term::Iri(class_sym);
        for ty in self.graph.types_of(value) {
            if ty == class_term {
                return true;
            }
            if let Some(supers) = self.subclass_closure.get(&ty) {
                if supers.contains(&class_term) {
                    return true;
                }
            }
        }
        false
    }

    fn conforms_by_name(&mut self, entity: Term, shape_name: &str) -> bool {
        let Some(shape) = self.schema.by_name(shape_name) else {
            return false;
        };
        let shape = shape.clone();
        self.conforms(entity, &shape)
    }

    /// Boolean conformance with memoisation and cycle tolerance.
    fn conforms(&mut self, entity: Term, shape: &crate::schema::NodeShape) -> bool {
        let key = (entity, shape.name.clone());
        match self.memo.get(&key) {
            Some(Some(result)) => return *result,
            Some(None) => return true, // in progress: assume conforming
            None => {}
        }
        self.memo.insert(key.clone(), None);
        let props = self.schema.effective_properties(shape);
        let mut ok = true;
        'outer: for ps in &props {
            let objects = match self.graph.interner().get(&ps.path) {
                Some(p) => self.graph.objects(entity, p),
                None => Vec::new(),
            };
            if !ps.cardinality.admits(objects.len()) {
                ok = false;
                break;
            }
            if ps.alternatives.is_empty() {
                continue;
            }
            for o in objects {
                if !self.value_matches_any(o, &ps.alternatives) {
                    ok = false;
                    break 'outer;
                }
            }
        }
        self.memo.insert(key, Some(ok));
        ok
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_shacl_turtle;
    use s3pg_rdf::parser::parse_turtle;

    const SCHEMA: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .

shape:Student a sh:NodeShape ;
    sh:targetClass :Student ;
    sh:property [
        sh:path :regNo ;
        sh:datatype xsd:string ;
        sh:minCount 1 ;
        sh:maxCount 1
    ] ;
    sh:property [
        sh:path :takesCourse ;
        sh:or (
            [ sh:nodeKind sh:IRI ; sh:class :Course ]
            [ sh:datatype xsd:string ]
        ) ;
        sh:minCount 1
    ] .

shape:Course a sh:NodeShape ;
    sh:targetClass :Course ;
    sh:property [
        sh:path :title ;
        sh:datatype xsd:string ;
        sh:minCount 1 ;
        sh:maxCount 1
    ] .
"#;

    fn schema() -> ShapeSchema {
        parse_shacl_turtle(SCHEMA).unwrap()
    }

    #[test]
    fn conforming_graph_passes() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Student ; :regNo "Bs12" ; :takesCourse :db .
:db a :Course ; :title "Databases" .
"#,
        )
        .unwrap();
        let report = validate(&g, &schema());
        assert!(report.conforms(), "{:?}", report.violations);
        assert_eq!(report.checked, 2);
    }

    #[test]
    fn literal_course_satisfies_hetero_or() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Student ; :regNo "Bs12" ; :takesCourse "Intro to Logic" .
"#,
        )
        .unwrap();
        assert!(validate(&g, &schema()).conforms());
    }

    #[test]
    fn missing_mandatory_property_fails() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Student ; :takesCourse "Logic" .
"#,
        )
        .unwrap();
        let report = validate(&g, &schema());
        assert!(!report.conforms());
        assert!(report.violations[0].message.contains("cardinality"));
        assert_eq!(
            report.violations[0].path.as_deref(),
            Some("http://ex/regNo")
        );
    }

    #[test]
    fn max_cardinality_violation() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Student ; :regNo "a", "b" ; :takesCourse "Logic" .
"#,
        )
        .unwrap();
        assert!(!validate(&g, &schema()).conforms());
    }

    #[test]
    fn wrong_datatype_fails() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Student ; :regNo 42 ; :takesCourse "Logic" .
"#,
        )
        .unwrap();
        let report = validate(&g, &schema());
        assert!(!report.conforms());
        assert!(report
            .violations
            .iter()
            .any(|v| v.message.contains("matches no alternative")));
    }

    #[test]
    fn object_must_conform_to_class_shape() {
        // :broken is a Course but lacks the mandatory title, so bob's
        // takesCourse reference is itself a violation.
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Student ; :regNo "Bs12" ; :takesCourse :broken .
:broken a :Course .
"#,
        )
        .unwrap();
        let report = validate(&g, &schema());
        // Two violations: bob's value check and broken's own check.
        assert!(!report.conforms());
        assert!(report.violations.len() >= 2);
    }

    #[test]
    fn subclass_instances_satisfy_class_constraint() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
@prefix rdfs: <http://www.w3.org/2000/01/rdf-schema#> .
:GradCourse rdfs:subClassOf :Course .
:bob a :Student ; :regNo "Bs12" ; :takesCourse :ml .
:ml a :GradCourse ; :title "ML" .
"#,
        )
        .unwrap();
        assert!(validate(&g, &schema()).conforms());
    }

    #[test]
    fn cyclic_shape_references_terminate() {
        let cyclic = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .
shape:A a sh:NodeShape ;
    sh:targetClass :A ;
    sh:property [ sh:path :next ; sh:node shape:A ] .
"#;
        let schema = parse_shacl_turtle(cyclic).unwrap();
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:n1 a :A ; :next :n2 .
:n2 a :A ; :next :n1 .
"#,
        )
        .unwrap();
        let report = validate(&g, &schema);
        assert!(report.conforms());
    }

    #[test]
    fn entity_conforms_direct_api() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:db a :Course ; :title "DB" .
"#,
        )
        .unwrap();
        let db = Term::Iri(g.interner().get("http://ex/db").unwrap());
        let schema = schema();
        let mut cx = Context::new(&g, &schema);
        let shape = |name| schema.by_name(name).unwrap();
        assert!(cx.conforms(db, shape("http://ex/shape/Course")));
        assert!(!cx.conforms(db, shape("http://ex/shape/Student")));
    }

    #[test]
    fn lang_tagged_string_satisfies_string_datatype() {
        let g = parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Student ; :regNo "Bs12"@en ; :takesCourse "Logic" .
"#,
        )
        .unwrap();
        assert!(validate(&g, &schema()).conforms());
    }
}
