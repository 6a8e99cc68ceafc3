//! Serialize a [`ShapeSchema`] back to SHACL Turtle.
//!
//! This is the output side of the inverse schema mapping `N : S_PG → S_G`
//! (Definition 3.1): together with [`crate::parser`], it witnesses that the
//! schema representation is lossless — `parse(serialize(S)) == S`.

use crate::schema::{Cardinality, NodeShape, PropertyShape, ShapeSchema, TypeConstraint};
use std::fmt::Write as _;

/// Serialize the schema as a SHACL Turtle document.
pub fn to_turtle(schema: &ShapeSchema) -> String {
    let mut out = String::new();
    out.push_str("@prefix sh: <http://www.w3.org/ns/shacl#> .\n");
    out.push_str("@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\n");
    for shape in schema.shapes() {
        write_shape(&mut out, shape);
        out.push('\n');
    }
    out
}

fn write_shape(out: &mut String, shape: &NodeShape) {
    let _ = writeln!(out, "<{}> a sh:NodeShape ;", shape.name);
    if let Some(tc) = &shape.target_class {
        let _ = writeln!(out, "    sh:targetClass <{tc}> ;");
    }
    for parent in &shape.extends {
        let _ = writeln!(out, "    sh:node <{parent}> ;");
    }
    for ps in &shape.properties {
        write_property(out, ps);
    }
    out.push_str("    .\n");
}

fn write_property(out: &mut String, ps: &PropertyShape) {
    out.push_str("    sh:property [\n");
    let _ = writeln!(out, "        sh:path <{}> ;", ps.path);
    match ps.alternatives.len() {
        0 => {}
        1 => {
            write_constraint(out, &ps.alternatives[0], 8);
        }
        _ => {
            out.push_str("        sh:or (\n");
            for alt in &ps.alternatives {
                out.push_str("            [ ");
                write_constraint_inline(out, alt);
                out.push_str(" ]\n");
            }
            out.push_str("        ) ;\n");
        }
    }
    let Cardinality { min, max } = ps.cardinality;
    if min > 0 {
        let _ = writeln!(out, "        sh:minCount {min} ;");
    }
    if let Some(max) = max {
        let _ = writeln!(out, "        sh:maxCount {max} ;");
    }
    out.push_str("    ] ;\n");
}

fn write_constraint(out: &mut String, tc: &TypeConstraint, indent: usize) {
    let pad = " ".repeat(indent);
    match tc {
        TypeConstraint::Datatype(dt) => {
            let _ = writeln!(out, "{pad}sh:nodeKind sh:Literal ;");
            let _ = writeln!(out, "{pad}sh:datatype <{dt}> ;");
        }
        TypeConstraint::Class(c) => {
            let _ = writeln!(out, "{pad}sh:nodeKind sh:IRI ;");
            let _ = writeln!(out, "{pad}sh:class <{c}> ;");
        }
        TypeConstraint::NodeShape(n) => {
            let _ = writeln!(out, "{pad}sh:node <{n}> ;");
        }
        TypeConstraint::AnyIri => {
            let _ = writeln!(out, "{pad}sh:nodeKind sh:IRI ;");
        }
    }
}

fn write_constraint_inline(out: &mut String, tc: &TypeConstraint) {
    match tc {
        TypeConstraint::Datatype(dt) => {
            let _ = write!(out, "sh:nodeKind sh:Literal ; sh:datatype <{dt}>");
        }
        TypeConstraint::Class(c) => {
            let _ = write!(out, "sh:nodeKind sh:IRI ; sh:class <{c}>");
        }
        TypeConstraint::NodeShape(n) => {
            let _ = write!(out, "sh:node <{n}>");
        }
        TypeConstraint::AnyIri => {
            let _ = write!(out, "sh:nodeKind sh:IRI");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_shacl_turtle;
    use s3pg_rdf::vocab;

    fn sample_schema() -> ShapeSchema {
        let mut schema = ShapeSchema::new();
        let mut person = NodeShape::for_class("http://ex/shape/Person", "http://ex/Person");
        person.properties.push(PropertyShape::single(
            "http://ex/name",
            TypeConstraint::Datatype(vocab::xsd::STRING.into()),
            Cardinality::ONE,
        ));
        person.properties.push(PropertyShape {
            path: "http://ex/dob".into(),
            alternatives: vec![
                TypeConstraint::Datatype(vocab::xsd::DATE.into()),
                TypeConstraint::Datatype(vocab::xsd::G_YEAR.into()),
                TypeConstraint::Datatype(vocab::xsd::STRING.into()),
            ],
            cardinality: Cardinality::AT_LEAST_ONE,
        });
        let mut student = NodeShape::for_class("http://ex/shape/Student", "http://ex/Student");
        student.extends.push("http://ex/shape/Person".into());
        student.properties.push(PropertyShape {
            path: "http://ex/takesCourse".into(),
            alternatives: vec![
                TypeConstraint::Class("http://ex/Course".into()),
                TypeConstraint::Class("http://ex/GradCourse".into()),
                TypeConstraint::Datatype(vocab::xsd::STRING.into()),
            ],
            cardinality: Cardinality::AT_LEAST_ONE,
        });
        schema.add(person);
        schema.add(student);
        schema
    }

    #[test]
    fn turtle_roundtrip_preserves_schema() {
        let schema = sample_schema();
        let text = to_turtle(&schema);
        let parsed = parse_shacl_turtle(&text).unwrap();
        // Normalise: parser sorts properties by path and alternatives by Ord.
        let mut expect = schema.clone();
        for s in 0..expect.shapes().len() {
            let mut shape = expect.shapes()[s].clone();
            shape.properties.sort_by(|a, b| a.path.cmp(&b.path));
            for ps in &mut shape.properties {
                ps.alternatives.sort();
            }
            expect.add(shape);
        }
        assert_eq!(parsed, expect);
    }

    #[test]
    fn serializes_cardinalities() {
        let schema = sample_schema();
        let text = to_turtle(&schema);
        assert!(text.contains("sh:minCount 1"));
        assert!(text.contains("sh:maxCount 1"));
    }

    #[test]
    fn serializes_or_blocks_for_multi_type() {
        let text = to_turtle(&sample_schema());
        assert!(text.contains("sh:or ("));
        assert!(text.contains("sh:class <http://ex/GradCourse>"));
    }
}
