//! The demo universe the serving tests start their servers from: a
//! `Person` class with a required `name` and optional `knows` edges. The
//! serve quickstart in README.md writes these two documents verbatim.

/// Three people, two `knows` edges, eight triples.
pub const DATA: &str = r#"@prefix : <http://ex/> .
:a a :Person ; :name "A" ; :knows :b .
:b a :Person ; :name "B" ; :knows :c .
:c a :Person ; :name "C" .
"#;

/// One node shape for [`DATA`].
pub const SHAPES: &str = r#"@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
<http://ex/shape/Person> a sh:NodeShape ; sh:targetClass :Person ;
    sh:property [ sh:path :name ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] ;
    sh:property [ sh:path :knows ; sh:class :Person ; sh:minCount 0 ] .
"#;
