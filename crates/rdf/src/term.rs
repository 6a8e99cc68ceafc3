//! RDF terms: IRIs, blank nodes, and typed literals.
//!
//! Terms follow Definition 2.1 of the paper: pairwise disjoint sets of IRIs
//! `I`, blank nodes `B`, and literals `L`. All string payloads are interned,
//! so a [`Term`] is `Copy` and fits in 16 bytes.

use crate::interner::{Interner, Sym};
use crate::vocab;
use std::fmt;

/// A typed (and optionally language-tagged) RDF literal.
///
/// `lexical` is the lexical form (e.g. `"Bs12"`), `datatype` the datatype IRI
/// symbol (e.g. `xsd:string`), `lang` the optional BCP-47 tag for
/// `rdf:langString` literals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Literal {
    pub lexical: Sym,
    pub datatype: Sym,
    pub lang: Option<Sym>,
}

/// An RDF term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// An IRI, the global identifier set `I`.
    Iri(Sym),
    /// A blank node, identified by its local label.
    Blank(Sym),
    /// A literal value.
    Literal(Literal),
}

impl Term {
    /// Whether this term is an IRI.
    #[inline]
    pub fn is_iri(self) -> bool {
        matches!(self, Term::Iri(_))
    }

    /// Whether this term is a blank node.
    #[inline]
    pub fn is_blank(self) -> bool {
        matches!(self, Term::Blank(_))
    }

    /// Whether this term is a literal.
    #[inline]
    pub fn is_literal(self) -> bool {
        matches!(self, Term::Literal(_))
    }

    /// Whether this term may appear in subject position
    /// (`I ∪ B` per Definition 2.1).
    #[inline]
    pub fn is_resource(self) -> bool {
        !self.is_literal()
    }

    /// The IRI symbol, if this term is an IRI.
    #[inline]
    pub fn as_iri(self) -> Option<Sym> {
        match self {
            Term::Iri(s) => Some(s),
            _ => None,
        }
    }

    /// The literal, if this term is one.
    #[inline]
    pub fn as_literal(self) -> Option<Literal> {
        match self {
            Term::Literal(l) => Some(l),
            _ => None,
        }
    }

    /// Render this term in N-Triples syntax using `interner` for resolution.
    pub fn display(self, interner: &Interner) -> TermDisplay<'_> {
        TermDisplay {
            term: self,
            interner,
        }
    }
}

/// Helper implementing `Display` for a term relative to its interner.
pub struct TermDisplay<'a> {
    term: Term,
    interner: &'a Interner,
}

impl fmt::Display for TermDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.term {
            Term::Iri(s) => write!(f, "<{}>", self.interner.resolve(s)),
            Term::Blank(s) => write!(f, "_:{}", self.interner.resolve(s)),
            Term::Literal(l) => {
                write!(
                    f,
                    "\"{}\"",
                    escape_literal(self.interner.resolve(l.lexical))
                )?;
                if let Some(lang) = l.lang {
                    write!(f, "@{}", self.interner.resolve(lang))
                } else {
                    let dt = self.interner.resolve(l.datatype);
                    if dt == vocab::xsd::STRING {
                        Ok(())
                    } else {
                        write!(f, "^^<{dt}>")
                    }
                }
            }
        }
    }
}

/// Escape a literal lexical form for N-Triples output.
fn escape_literal(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            _ => out.push(c),
        }
    }
    out
}

/// Unescape an N-Triples literal lexical form. Rejects malformed escapes
/// (unknown escape characters, truncated or non-hex `\uXXXX`/`\UXXXXXXXX`
/// sequences, surrogate code points) with a message — the grammar only
/// admits `ECHAR` (`\t \b \n \r \f \" \' \\`) and `UCHAR`.
pub fn unescape_literal(s: &str) -> Result<String, String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('"') => out.push('"'),
            Some('\'') => out.push('\''),
            Some('\\') => out.push('\\'),
            Some('n') => out.push('\n'),
            Some('r') => out.push('\r'),
            Some('t') => out.push('\t'),
            Some('b') => out.push('\u{0008}'),
            Some('f') => out.push('\u{000C}'),
            Some(esc @ ('u' | 'U')) => {
                let want = if esc == 'u' { 4 } else { 8 };
                let hex: String = chars.by_ref().take(want).collect();
                if hex.len() < want {
                    return Err(format!("truncated \\{esc} escape '\\{esc}{hex}'"));
                }
                match u32::from_str_radix(&hex, 16).ok().and_then(char::from_u32) {
                    Some(c) => out.push(c),
                    None => return Err(format!("invalid \\{esc} escape '\\{esc}{hex}'")),
                }
            }
            Some(other) => return Err(format!("unknown escape '\\{other}'")),
            None => return Err("dangling '\\' at end of literal".to_string()),
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Interner, Term, Term, Term) {
        let mut i = Interner::new();
        let iri = Term::Iri(i.intern("http://example.org/a"));
        let blank = Term::Blank(i.intern("b0"));
        let string_dt = i.intern(vocab::xsd::STRING);
        let lex = i.intern("hello");
        let lit = Term::Literal(Literal {
            lexical: lex,
            datatype: string_dt,
            lang: None,
        });
        (i, iri, blank, lit)
    }

    #[test]
    fn term_kind_predicates() {
        let (_, iri, blank, lit) = setup();
        assert!(iri.is_iri() && iri.is_resource() && !iri.is_literal());
        assert!(blank.is_blank() && blank.is_resource());
        assert!(lit.is_literal() && !lit.is_resource());
    }

    #[test]
    fn term_is_small_and_copy() {
        assert!(std::mem::size_of::<Term>() <= 16);
        let (_, iri, ..) = setup();
        let copy = iri; // Copy, no move-out error below
        assert_eq!(copy, iri);
    }

    #[test]
    fn display_ntriples_forms() {
        let (i, iri, blank, lit) = setup();
        assert_eq!(iri.display(&i).to_string(), "<http://example.org/a>");
        assert_eq!(blank.display(&i).to_string(), "_:b0");
        // xsd:string datatype is implicit in N-Triples
        assert_eq!(lit.display(&i).to_string(), "\"hello\"");
    }

    #[test]
    fn display_typed_and_lang_literals() {
        let mut i = Interner::new();
        let lit = Term::Literal(Literal {
            lexical: i.intern("42"),
            datatype: i.intern(vocab::xsd::INTEGER),
            lang: None,
        });
        assert_eq!(
            lit.display(&i).to_string(),
            "\"42\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
        let lang = Term::Literal(Literal {
            lexical: i.intern("bonjour"),
            datatype: i.intern(vocab::rdf::LANG_STRING),
            lang: Some(i.intern("fr")),
        });
        assert_eq!(lang.display(&i).to_string(), "\"bonjour\"@fr");
    }

    #[test]
    fn escape_roundtrip() {
        let raw = "line1\nline2\t\"quoted\" back\\slash";
        assert_eq!(unescape_literal(&escape_literal(raw)).unwrap(), raw);
    }

    #[test]
    fn unescape_unicode() {
        assert_eq!(unescape_literal(r"A").unwrap(), "A");
        assert_eq!(unescape_literal(r"\U0001F600").unwrap(), "\u{1F600}");
        assert_eq!(unescape_literal(r"\b\f\'").unwrap(), "\u{0008}\u{000C}'");
    }

    #[test]
    fn malformed_escapes_are_rejected() {
        assert!(unescape_literal(r"\q").is_err());
        assert!(unescape_literal(r"\u12").is_err());
        assert!(unescape_literal(r"\uZZZZ").is_err());
        assert!(unescape_literal(r"\UDC00DC00").is_err());
        assert!(unescape_literal("broken\\").is_err());
    }
}
