//! Well-known vocabulary IRIs: RDF, RDFS, XSD, and SHACL.
//!
//! These are the schema elements Definition 2.1 of the paper singles out
//! (the type predicate `a` = `rdf:type`, `rdfs:subClassOf`, literal
//! datatypes) plus the SHACL core constraint components of Figure 3.

/// `rdf:` namespace.
pub mod rdf {
    pub const NS: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#";
    pub const TYPE: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type";
    pub const LANG_STRING: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#langString";
    pub const FIRST: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#first";
    pub const REST: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#rest";
    pub const NIL: &str = "http://www.w3.org/1999/02/22-rdf-syntax-ns#nil";
}

/// `rdfs:` namespace.
pub mod rdfs {
    pub const NS: &str = "http://www.w3.org/2000/01/rdf-schema#";
    pub const CLASS: &str = "http://www.w3.org/2000/01/rdf-schema#Class";
    pub const SUB_CLASS_OF: &str = "http://www.w3.org/2000/01/rdf-schema#subClassOf";
    pub const LITERAL: &str = "http://www.w3.org/2000/01/rdf-schema#Literal";
    pub const LABEL: &str = "http://www.w3.org/2000/01/rdf-schema#label";
}

/// `xsd:` namespace with the literal datatypes exercised by the paper
/// (`xsd:string`, `xsd:date`, `xsd:gYear` appear in the running example).
pub mod xsd {
    pub const NS: &str = "http://www.w3.org/2001/XMLSchema#";
    pub const STRING: &str = "http://www.w3.org/2001/XMLSchema#string";
    pub const INTEGER: &str = "http://www.w3.org/2001/XMLSchema#integer";
    pub const INT: &str = "http://www.w3.org/2001/XMLSchema#int";
    pub const LONG: &str = "http://www.w3.org/2001/XMLSchema#long";
    pub const DECIMAL: &str = "http://www.w3.org/2001/XMLSchema#decimal";
    pub const DOUBLE: &str = "http://www.w3.org/2001/XMLSchema#double";
    pub const FLOAT: &str = "http://www.w3.org/2001/XMLSchema#float";
    pub const BOOLEAN: &str = "http://www.w3.org/2001/XMLSchema#boolean";
    pub const DATE: &str = "http://www.w3.org/2001/XMLSchema#date";
    pub const DATE_TIME: &str = "http://www.w3.org/2001/XMLSchema#dateTime";
    pub const G_YEAR: &str = "http://www.w3.org/2001/XMLSchema#gYear";
    pub const ANY_URI: &str = "http://www.w3.org/2001/XMLSchema#anyURI";

    /// All datatypes this system recognises as numeric.
    pub const NUMERIC: &[&str] = &[INTEGER, INT, LONG, DECIMAL, DOUBLE, FLOAT];
}

/// `sh:` (SHACL) namespace — the core constraint components of the taxonomy
/// in Figure 3 of the paper.
pub mod sh {
    pub const NS: &str = "http://www.w3.org/ns/shacl#";
    pub const NODE_SHAPE: &str = "http://www.w3.org/ns/shacl#NodeShape";
    pub const PROPERTY_SHAPE: &str = "http://www.w3.org/ns/shacl#PropertyShape";
    pub const TARGET_CLASS: &str = "http://www.w3.org/ns/shacl#targetClass";
    pub const PROPERTY: &str = "http://www.w3.org/ns/shacl#property";
    pub const PATH: &str = "http://www.w3.org/ns/shacl#path";
    pub const NODE_KIND: &str = "http://www.w3.org/ns/shacl#nodeKind";
    pub const DATATYPE: &str = "http://www.w3.org/ns/shacl#datatype";
    pub const CLASS: &str = "http://www.w3.org/ns/shacl#class";
    pub const NODE: &str = "http://www.w3.org/ns/shacl#node";
    pub const MIN_COUNT: &str = "http://www.w3.org/ns/shacl#minCount";
    pub const MAX_COUNT: &str = "http://www.w3.org/ns/shacl#maxCount";
    pub const OR: &str = "http://www.w3.org/ns/shacl#or";
    pub const IRI_KIND: &str = "http://www.w3.org/ns/shacl#IRI";
    pub const LITERAL_KIND: &str = "http://www.w3.org/ns/shacl#Literal";
    pub const BLANK_NODE_KIND: &str = "http://www.w3.org/ns/shacl#BlankNode";
}

/// Default prefix table the Turtle parser starts from.
pub const COMMON_PREFIXES: &[(&str, &str)] = &[
    ("rdf", rdf::NS),
    ("rdfs", rdfs::NS),
    ("xsd", xsd::NS),
    ("sh", sh::NS),
];

/// Derive a short local name from an IRI: the fragment after `#`, or the last
/// path segment. Used when generating PG labels and property keys.
pub fn local_name(iri: &str) -> &str {
    match iri.rsplit_once('#') {
        Some((_, frag)) if !frag.is_empty() => frag,
        _ => match iri.rsplit_once('/') {
            Some((_, seg)) if !seg.is_empty() => seg,
            _ => iri,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn local_name_prefers_fragment() {
        assert_eq!(local_name("http://a.b/c#Person"), "Person");
        assert_eq!(local_name("http://a.b/c/Person"), "Person");
        assert_eq!(local_name("plain"), "plain");
        assert_eq!(local_name("http://a.b/c#"), "c#");
    }

    #[test]
    fn numeric_types_include_integer_and_double() {
        assert!(xsd::NUMERIC.contains(&xsd::INTEGER));
        assert!(xsd::NUMERIC.contains(&xsd::DOUBLE));
        assert!(!xsd::NUMERIC.contains(&xsd::STRING));
    }
}
