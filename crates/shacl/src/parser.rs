//! Parse SHACL shape documents (as RDF graphs) into [`ShapeSchema`]s.
//!
//! Recognises the SHACL core constructs of Figure 3 / Figure 4 of the paper:
//! `sh:NodeShape` declarations with `sh:targetClass`, `sh:node` inheritance,
//! `sh:property` blank nodes carrying `sh:path`, `sh:nodeKind`,
//! `sh:datatype`, `sh:class`, `sh:minCount`, `sh:maxCount`, and `sh:or`
//! lists of alternatives.

use crate::error::ShaclError;
use crate::schema::{Cardinality, NodeShape, PropertyShape, ShapeSchema, TypeConstraint};
use s3pg_rdf::parser::parse_turtle;
use s3pg_rdf::{vocab, Graph, Term};

/// Parse a Turtle SHACL document and read it as a shapes graph.
pub fn parse_shacl_turtle(input: &str) -> Result<ShapeSchema, ShaclError> {
    let graph = parse_turtle(input)?;
    let reader = Reader::new(&graph);
    let mut schema = ShapeSchema::new();
    for shape_term in reader.node_shapes() {
        schema.add(reader.node_shape(shape_term)?);
    }
    Ok(schema)
}

struct Reader<'g> {
    graph: &'g Graph,
    type_p: Option<s3pg_rdf::Sym>,
}

impl<'g> Reader<'g> {
    fn new(graph: &'g Graph) -> Self {
        Reader {
            graph,
            type_p: graph.type_predicate_opt(),
        }
    }

    fn sym(&self, iri: &str) -> Option<s3pg_rdf::Sym> {
        self.graph.interner().get(iri)
    }

    fn resolve_iri(&self, term: Term) -> Option<String> {
        term.as_iri().map(|s| self.graph.resolve(s).to_string())
    }

    /// All subjects declared `a sh:NodeShape`.
    fn node_shapes(&self) -> Vec<Term> {
        let Some(type_p) = self.type_p else {
            return Vec::new();
        };
        let Some(ns) = self.sym(vocab::sh::NODE_SHAPE) else {
            return Vec::new();
        };
        let mut shapes = self.graph.subjects(type_p, Term::Iri(ns));
        shapes.sort_unstable_by_key(|t| match t {
            Term::Iri(s) | Term::Blank(s) => self.graph.resolve(*s).to_string(),
            Term::Literal(_) => String::new(),
        });
        shapes
    }

    fn object(&self, subject: Term, predicate: &str) -> Option<Term> {
        let p = self.sym(predicate)?;
        self.graph.objects(subject, p).into_iter().next()
    }

    fn objects(&self, subject: Term, predicate: &str) -> Vec<Term> {
        match self.sym(predicate) {
            Some(p) => self.graph.objects(subject, p),
            None => Vec::new(),
        }
    }

    fn node_shape(&self, term: Term) -> Result<NodeShape, ShaclError> {
        let name = match term {
            Term::Iri(s) => self.graph.resolve(s).to_string(),
            Term::Blank(s) => format!("_:{}", self.graph.resolve(s)),
            Term::Literal(_) => {
                return Err(ShaclError::Malformed("literal used as node shape".into()))
            }
        };
        let target_class = self
            .object(term, vocab::sh::TARGET_CLASS)
            .and_then(|t| self.resolve_iri(t));
        let extends = self
            .objects(term, vocab::sh::NODE)
            .into_iter()
            .filter_map(|t| self.resolve_iri(t))
            .collect();
        let mut properties = Vec::new();
        for prop_term in self.objects(term, vocab::sh::PROPERTY) {
            properties.push(self.property_shape(prop_term)?);
        }
        // Deterministic order for round-trip comparisons.
        properties.sort_by(|a, b| a.path.cmp(&b.path));
        Ok(NodeShape {
            name,
            target_class,
            extends,
            properties,
        })
    }

    fn property_shape(&self, term: Term) -> Result<PropertyShape, ShaclError> {
        let path = self
            .object(term, vocab::sh::PATH)
            .and_then(|t| self.resolve_iri(t))
            .ok_or_else(|| ShaclError::Malformed("property shape without sh:path".into()))?;

        let min = self
            .object(term, vocab::sh::MIN_COUNT)
            .and_then(|t| self.literal_u32(t))
            .unwrap_or(0);
        let max = self
            .object(term, vocab::sh::MAX_COUNT)
            .and_then(|t| self.literal_u32(t));
        let cardinality = Cardinality::new(min, max);

        let mut alternatives = Vec::new();
        // Direct constraint on the property shape itself.
        if let Some(tc) = self.type_constraint(term)? {
            alternatives.push(tc);
        }
        // sh:or ( alt1 alt2 ... )
        if let Some(list_head) = self.object(term, vocab::sh::OR) {
            for alt_term in self.rdf_list(list_head) {
                if let Some(tc) = self.type_constraint(alt_term)? {
                    alternatives.push(tc);
                }
            }
        }
        alternatives.sort();
        alternatives.dedup();
        Ok(PropertyShape {
            path,
            alternatives,
            cardinality,
        })
    }

    /// Read the `sh:nodeKind`/`sh:datatype`/`sh:class`/`sh:node` constraint
    /// attached directly to `term` (a property shape or an `sh:or` member).
    fn type_constraint(&self, term: Term) -> Result<Option<TypeConstraint>, ShaclError> {
        if let Some(dt) = self
            .object(term, vocab::sh::DATATYPE)
            .and_then(|t| self.resolve_iri(t))
        {
            return Ok(Some(TypeConstraint::Datatype(dt)));
        }
        if let Some(class) = self
            .object(term, vocab::sh::CLASS)
            .and_then(|t| self.resolve_iri(t))
        {
            return Ok(Some(TypeConstraint::Class(class)));
        }
        if let Some(node) = self
            .object(term, vocab::sh::NODE)
            .and_then(|t| self.resolve_iri(t))
        {
            return Ok(Some(TypeConstraint::NodeShape(node)));
        }
        match self
            .object(term, vocab::sh::NODE_KIND)
            .and_then(|t| self.resolve_iri(t))
        {
            Some(kind) if kind == vocab::sh::IRI_KIND => Ok(Some(TypeConstraint::AnyIri)),
            Some(kind) if kind == vocab::sh::LITERAL_KIND => {
                // Literal node kind without datatype: default to xsd:string.
                Ok(Some(TypeConstraint::Datatype(vocab::xsd::STRING.into())))
            }
            _ => Ok(None),
        }
    }

    /// Walk an `rdf:first`/`rdf:rest` chain.
    fn rdf_list(&self, head: Term) -> Vec<Term> {
        let mut out = Vec::new();
        let mut cursor = head;
        let mut guard = 0;
        loop {
            guard += 1;
            if guard > 10_000 {
                break; // malformed cyclic list
            }
            if let Some(iri) = cursor.as_iri() {
                if self.graph.resolve(iri) == vocab::rdf::NIL {
                    break;
                }
            }
            match self.object(cursor, vocab::rdf::FIRST) {
                Some(item) => out.push(item),
                None => break,
            }
            match self.object(cursor, vocab::rdf::REST) {
                Some(rest) => cursor = rest,
                None => break,
            }
        }
        out
    }

    fn literal_u32(&self, term: Term) -> Option<u32> {
        term.as_literal()
            .and_then(|l| self.graph.resolve(l.lexical).parse().ok())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::PsCategory;

    /// The Person/Student shapes of Figure 4 (a, b) of the paper.
    const PERSON_STUDENT: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .

shape:Person a sh:NodeShape ;
    sh:property [
        sh:path :name ;
        sh:nodeKind sh:Literal ;
        sh:datatype xsd:string ;
        sh:minCount 1 ;
        sh:maxCount 1
    ] ;
    sh:targetClass :Person .

shape:Student a sh:NodeShape ;
    sh:property [
        sh:path :regNo ;
        sh:nodeKind sh:Literal ;
        sh:datatype xsd:string ;
        sh:minCount 1 ;
        sh:maxCount 1
    ] ;
    sh:targetClass :Student ;
    sh:node shape:Person .
"#;

    #[test]
    fn parses_person_student_shapes() {
        let schema = parse_shacl_turtle(PERSON_STUDENT).unwrap();
        assert_eq!(schema.len(), 2);
        let person = schema.by_name("http://ex/shape/Person").unwrap();
        assert_eq!(person.target_class.as_deref(), Some("http://ex/Person"));
        assert_eq!(person.properties.len(), 1);
        let name_ps = &person.properties[0];
        assert_eq!(name_ps.path, "http://ex/name");
        assert_eq!(name_ps.cardinality, Cardinality::ONE);
        assert_eq!(name_ps.category(), PsCategory::SingleTypeLiteral);

        let student = schema.by_name("http://ex/shape/Student").unwrap();
        assert_eq!(student.extends, vec!["http://ex/shape/Person".to_string()]);
    }

    /// The Professor shape of Figure 4c: single-type non-literal.
    #[test]
    fn parses_iri_class_constraint() {
        let doc = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .
shape:Professor a sh:NodeShape ;
    sh:property [
        sh:path :worksFor ;
        sh:nodeKind sh:IRI ;
        sh:class :Department ;
        sh:minCount 1 ;
        sh:maxCount 1
    ] ;
    sh:targetClass :Professor .
"#;
        let schema = parse_shacl_turtle(doc).unwrap();
        let prof = schema.by_name("http://ex/shape/Professor").unwrap();
        let ps = &prof.properties[0];
        assert_eq!(
            ps.alternatives,
            vec![TypeConstraint::Class("http://ex/Department".into())]
        );
        assert_eq!(ps.category(), PsCategory::SingleTypeNonLiteral);
    }

    /// The dob shape of Figure 4d: multi-type homogeneous literal via sh:or.
    #[test]
    fn parses_sh_or_literals() {
        let doc = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .
shape:Person a sh:NodeShape ;
    sh:property [
        sh:path :dob ;
        sh:or (
            [ sh:nodeKind sh:Literal ; sh:datatype xsd:string ]
            [ sh:nodeKind sh:Literal ; sh:datatype xsd:date ]
            [ sh:nodeKind sh:Literal ; sh:datatype xsd:gYear ]
        ) ;
        sh:minCount 1
    ] ;
    sh:targetClass :Person .
"#;
        let schema = parse_shacl_turtle(doc).unwrap();
        let ps = &schema.by_name("http://ex/shape/Person").unwrap().properties[0];
        assert_eq!(ps.alternatives.len(), 3);
        assert_eq!(ps.category(), PsCategory::MultiTypeHomoLiteral);
        assert_eq!(ps.cardinality, Cardinality::AT_LEAST_ONE);
    }

    /// The takesCourse shape of Figure 4f: heterogeneous literal+non-literal.
    #[test]
    fn parses_sh_or_hetero() {
        let doc = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .
shape:GraduateStudent a sh:NodeShape ;
    sh:property [
        sh:path :takesCourse ;
        sh:or (
            [ sh:nodeKind sh:IRI ; sh:class :Course ]
            [ sh:nodeKind sh:Literal ; sh:datatype xsd:string ]
            [ sh:nodeKind sh:IRI ; sh:class :GradCourse ]
        ) ;
        sh:minCount 1
    ] ;
    sh:targetClass :GraduateStudent .
"#;
        let schema = parse_shacl_turtle(doc).unwrap();
        let ps = &schema
            .by_name("http://ex/shape/GraduateStudent")
            .unwrap()
            .properties[0];
        assert_eq!(ps.alternatives.len(), 3);
        assert_eq!(ps.category(), PsCategory::MultiTypeHetero);
        assert!(ps.admits_literals() && ps.admits_iris());
    }

    #[test]
    fn missing_path_is_an_error() {
        let doc = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix shape: <http://ex/shape/> .
shape:Broken a sh:NodeShape ;
    sh:property [ sh:minCount 1 ] ;
    sh:targetClass shape:X .
"#;
        assert!(parse_shacl_turtle(doc).is_err());
    }

    #[test]
    fn node_kind_iri_without_class_is_any_iri() {
        let doc = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .
shape:S a sh:NodeShape ;
    sh:property [ sh:path :link ; sh:nodeKind sh:IRI ] ;
    sh:targetClass :S .
"#;
        let schema = parse_shacl_turtle(doc).unwrap();
        let ps = &schema.by_name("http://ex/shape/S").unwrap().properties[0];
        assert_eq!(ps.alternatives, vec![TypeConstraint::AnyIri]);
    }

    #[test]
    fn default_cardinality_is_unbounded() {
        let doc = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
@prefix shape: <http://ex/shape/> .
shape:S a sh:NodeShape ;
    sh:property [ sh:path :p ; sh:datatype xsd:string ] ;
    sh:targetClass :S .
"#;
        let schema = parse_shacl_turtle(doc).unwrap();
        let ps = &schema.by_name("http://ex/shape/S").unwrap().properties[0];
        assert_eq!(ps.cardinality, Cardinality::ANY);
    }

    #[test]
    fn empty_graph_yields_empty_schema() {
        let schema = parse_shacl_turtle("").unwrap();
        assert!(schema.is_empty());
    }
}
