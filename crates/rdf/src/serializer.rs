//! RDF serializer: N-Triples (canonical, round-trippable).

use crate::graph::Graph;
use std::fmt::Write as _;

/// Serialize a graph as N-Triples, one statement per line, in insertion
/// order. `parse_ntriples(to_ntriples(g))` reproduces `g` up to symbol
/// identity (see `Graph::same_triples`).
pub fn to_ntriples(graph: &Graph) -> String {
    let mut out = String::new();
    let interner = graph.interner();
    for t in graph.triples() {
        let _ = writeln!(
            out,
            "{} <{}> {} .",
            t.s.display(interner),
            interner.resolve(t.p),
            t.o.display(interner),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_ntriples;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert_type("http://ex/bob", "http://ex/Student");
        let s = g.intern_iri("http://ex/bob");
        let p = g.intern("http://ex/regNo");
        let o = g.string_literal("Bs12");
        g.insert(s, p, o);
        let p2 = g.intern("http://ex/age");
        let o2 = g.integer_literal(24);
        g.insert(s, p2, o2);
        g
    }

    #[test]
    fn ntriples_roundtrip() {
        let g = sample();
        let text = to_ntriples(&g);
        let g2 = parse_ntriples(&text).unwrap();
        assert!(g.same_triples(&g2));
    }

    #[test]
    fn ntriples_roundtrip_with_special_chars() {
        let mut g = Graph::new();
        let s = g.intern_iri("http://ex/a");
        let p = g.intern("http://ex/quote");
        let o = g.string_literal("he said \"hi\"\nand left\\");
        g.insert(s, p, o);
        let g2 = parse_ntriples(&to_ntriples(&g)).unwrap();
        assert!(g.same_triples(&g2));
    }

    #[test]
    fn ntriples_roundtrip_with_lang_tags() {
        let mut g = Graph::new();
        let s = g.intern_iri("http://ex/a");
        let p = g.intern("http://ex/label");
        let o = g.lang_literal("hello", "en");
        g.insert(s, p, o);
        let g2 = parse_ntriples(&to_ntriples(&g)).unwrap();
        assert!(g.same_triples(&g2));
    }
}
