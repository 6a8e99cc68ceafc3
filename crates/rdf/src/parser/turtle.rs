//! A practical Turtle subset parser.
//!
//! Supports the constructs the S3PG pipeline needs to read SHACL shape
//! documents and example data graphs:
//!
//! * `@prefix` / `PREFIX` directives and prefixed names,
//! * the `a` keyword for `rdf:type`,
//! * predicate lists (`;`) and object lists (`,`),
//! * anonymous blank nodes and blank-node property lists `[ ... ]`,
//! * RDF collections `( ... )` (expanded to `rdf:first`/`rdf:rest` chains —
//!   SHACL's `sh:or` is encoded this way),
//! * string literals with `^^` datatypes and `@lang` tags, and numeric /
//!   boolean shorthand.
//!
//! Not supported (not needed by the system): multi-line `"""` strings,
//! `@base`-relative IRI resolution beyond simple concatenation, and RDF-star.

use crate::error::RdfError;
use crate::fxhash::FxHashMap;
use crate::graph::Graph;
use crate::term::{unescape_literal, Term};
use crate::vocab;

/// Parse a Turtle document into a fresh graph.
pub fn parse_turtle(input: &str) -> Result<Graph, RdfError> {
    let mut g = Graph::new();
    parse_turtle_into(input, &mut g)?;
    Ok(g)
}

/// Parse a Turtle document into an existing graph. Returns inserted count.
fn parse_turtle_into(input: &str, graph: &mut Graph) -> Result<usize, RdfError> {
    let tokens = tokenize(input)?;
    let mut parser = Parser {
        tokens,
        pos: 0,
        prefixes: default_prefixes(),
        base: None,
        blank_counter: 0,
        added: 0,
    };
    parser.document(graph)?;
    Ok(parser.added)
}

fn default_prefixes() -> FxHashMap<String, String> {
    let mut m = FxHashMap::default();
    for (p, ns) in vocab::COMMON_PREFIXES {
        m.insert((*p).to_string(), (*ns).to_string());
    }
    m
}

// ---- lexer ----------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Iri(String),
    Prefixed(String, String), // (prefix, local) — prefix may be empty
    BlankLabel(String),
    StringLit(String),
    Integer(String),
    Decimal(String),
    Double(String),
    Boolean(bool),
    A,
    PrefixDirective,
    BaseDirective,
    Dot,
    Semicolon,
    Comma,
    LBracket,
    RBracket,
    LParen,
    RParen,
    DoubleCaret,
    LangTag(String),
}

#[derive(Debug, Clone)]
struct Spanned {
    tok: Tok,
    line: usize,
}

fn tokenize(input: &str) -> Result<Vec<Spanned>, RdfError> {
    let bytes = input.as_bytes();
    let mut out = Vec::new();
    let mut pos = 0;
    let mut line = 1;

    macro_rules! push {
        ($t:expr) => {
            out.push(Spanned { tok: $t, line })
        };
    }

    while pos < bytes.len() {
        let b = bytes[pos];
        match b {
            b'\n' => {
                line += 1;
                pos += 1;
            }
            b if (b as char).is_ascii_whitespace() => pos += 1,
            b'#' => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'<' => {
                let end = memchr(bytes, pos + 1, b'>')
                    .ok_or_else(|| RdfError::syntax(line, "unterminated IRI"))?;
                let iri = std::str::from_utf8(&bytes[pos + 1..end])
                    .map_err(|_| RdfError::syntax(line, "invalid UTF-8 in IRI"))?;
                push!(Tok::Iri(iri.to_string()));
                pos = end + 1;
            }
            b'"' => {
                let (lex, next) = lex_string(bytes, pos + 1, line)?;
                push!(Tok::StringLit(lex));
                pos = next;
            }
            b'_' => {
                if bytes.get(pos + 1) != Some(&b':') {
                    return Err(RdfError::syntax(line, "expected ':' after '_'"));
                }
                let start = pos + 2;
                let end = scan_name(bytes, start);
                push!(Tok::BlankLabel(
                    std::str::from_utf8(&bytes[start..end]).unwrap().to_string()
                ));
                pos = end;
            }
            b'@' => {
                let start = pos + 1;
                let end = scan_name(bytes, start);
                let word = std::str::from_utf8(&bytes[start..end]).unwrap();
                match word {
                    "prefix" => push!(Tok::PrefixDirective),
                    "base" => push!(Tok::BaseDirective),
                    tag => push!(Tok::LangTag(tag.to_string())),
                }
                pos = end;
            }
            b'.' => {
                push!(Tok::Dot);
                pos += 1;
            }
            b';' => {
                push!(Tok::Semicolon);
                pos += 1;
            }
            b',' => {
                push!(Tok::Comma);
                pos += 1;
            }
            b'[' => {
                push!(Tok::LBracket);
                pos += 1;
            }
            b']' => {
                push!(Tok::RBracket);
                pos += 1;
            }
            b'(' => {
                push!(Tok::LParen);
                pos += 1;
            }
            b')' => {
                push!(Tok::RParen);
                pos += 1;
            }
            b'^' => {
                if bytes.get(pos + 1) == Some(&b'^') {
                    push!(Tok::DoubleCaret);
                    pos += 2;
                } else {
                    return Err(RdfError::syntax(line, "single '^' is not valid"));
                }
            }
            b'+' | b'-' | b'0'..=b'9' => {
                let start = pos;
                pos += 1;
                let mut seen_dot = false;
                let mut seen_exp = false;
                while pos < bytes.len() {
                    match bytes[pos] {
                        b'0'..=b'9' => pos += 1,
                        b'.' if !seen_dot && bytes.get(pos + 1).is_some_and(u8::is_ascii_digit) => {
                            seen_dot = true;
                            pos += 1;
                        }
                        b'e' | b'E' if !seen_exp => {
                            seen_exp = true;
                            pos += 1;
                            if matches!(bytes.get(pos), Some(b'+') | Some(b'-')) {
                                pos += 1;
                            }
                        }
                        _ => break,
                    }
                }
                let text = std::str::from_utf8(&bytes[start..pos]).unwrap().to_string();
                if seen_exp {
                    push!(Tok::Double(text));
                } else if seen_dot {
                    push!(Tok::Decimal(text));
                } else {
                    push!(Tok::Integer(text));
                }
            }
            _ => {
                // Prefixed name, `a`, or boolean keyword.
                let start = pos;
                let end = scan_name(bytes, pos);
                if end == start {
                    return Err(RdfError::syntax(
                        line,
                        format!("unexpected character '{}'", b as char),
                    ));
                }
                let word = std::str::from_utf8(&bytes[start..end]).unwrap();
                pos = end;
                if bytes.get(pos) == Some(&b':') {
                    pos += 1;
                    let lstart = pos;
                    let lend = scan_local(bytes, pos);
                    pos = lend;
                    let local = std::str::from_utf8(&bytes[lstart..lend]).unwrap();
                    push!(Tok::Prefixed(word.to_string(), local.to_string()));
                } else {
                    match word {
                        "a" => push!(Tok::A),
                        "true" => push!(Tok::Boolean(true)),
                        "false" => push!(Tok::Boolean(false)),
                        "PREFIX" => push!(Tok::PrefixDirective),
                        "BASE" => push!(Tok::BaseDirective),
                        other => {
                            return Err(RdfError::syntax(
                                line,
                                format!("unexpected keyword '{other}'"),
                            ))
                        }
                    }
                }
            }
        }
        // Special case: default-namespace prefixed names like `:Person` start
        // with ':' which the generic arm above cannot reach.
        if pos < bytes.len() && bytes[pos] == b':' {
            pos += 1;
            let lstart = pos;
            let lend = scan_local(bytes, pos);
            pos = lend;
            let local = std::str::from_utf8(&bytes[lstart..lend]).unwrap();
            out.push(Spanned {
                tok: Tok::Prefixed(String::new(), local.to_string()),
                line,
            });
        }
    }
    Ok(out)
}

fn memchr(bytes: &[u8], from: usize, needle: u8) -> Option<usize> {
    bytes[from..]
        .iter()
        .position(|&b| b == needle)
        .map(|i| from + i)
}

fn lex_string(bytes: &[u8], mut pos: usize, line: usize) -> Result<(String, usize), RdfError> {
    let start = pos;
    loop {
        match bytes.get(pos) {
            Some(b'"') => {
                let raw = std::str::from_utf8(&bytes[start..pos])
                    .map_err(|_| RdfError::syntax(line, "invalid UTF-8 in string"))?;
                let unescaped = unescape_literal(raw).map_err(|e| RdfError::syntax(line, e))?;
                return Ok((unescaped, pos + 1));
            }
            Some(b'\\') => pos += 2,
            Some(_) => pos += 1,
            None => return Err(RdfError::syntax(line, "unterminated string literal")),
        }
    }
}

fn scan_name(bytes: &[u8], mut pos: usize) -> usize {
    while pos < bytes.len() {
        let c = bytes[pos] as char;
        if c.is_ascii_alphanumeric() || c == '_' || c == '-' || !c.is_ascii() {
            pos += 1;
        } else {
            break;
        }
    }
    pos
}

fn scan_local(bytes: &[u8], mut pos: usize) -> usize {
    while pos < bytes.len() {
        let c = bytes[pos] as char;
        if c.is_ascii_alphanumeric() || matches!(c, '_' | '-' | '.' | '%') || !c.is_ascii() {
            // A trailing '.' terminates the local name (statement dot).
            if c == '.' {
                let next = bytes.get(pos + 1).map(|&b| b as char);
                if !next.is_some_and(|n| n.is_ascii_alphanumeric() || n == '_') {
                    break;
                }
            }
            pos += 1;
        } else {
            break;
        }
    }
    pos
}

// ---- parser ----------------------------------------------------------------

struct Parser {
    tokens: Vec<Spanned>,
    pos: usize,
    prefixes: FxHashMap<String, String>,
    base: Option<String>,
    blank_counter: u64,
    added: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Spanned> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Spanned> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn line(&self) -> usize {
        self.peek()
            .map_or_else(|| self.tokens.last().map_or(1, |t| t.line), |t| t.line)
    }

    fn expect(&mut self, tok: &Tok, what: &str) -> Result<(), RdfError> {
        let line = self.line();
        match self.next() {
            Some(t) if &t.tok == tok => Ok(()),
            Some(t) => Err(RdfError::syntax(
                t.line,
                format!("expected {what}, found {:?}", t.tok),
            )),
            None => Err(RdfError::syntax(
                line,
                format!("expected {what}, found EOF"),
            )),
        }
    }

    fn fresh_blank(&mut self, g: &mut Graph) -> Term {
        self.blank_counter += 1;
        g.intern_blank(&format!("anon{}", self.blank_counter))
    }

    fn document(&mut self, g: &mut Graph) -> Result<(), RdfError> {
        while let Some(t) = self.peek() {
            match &t.tok {
                Tok::PrefixDirective => {
                    self.next();
                    self.prefix_directive()?;
                }
                Tok::BaseDirective => {
                    self.next();
                    let line = self.line();
                    match self.next() {
                        Some(Spanned {
                            tok: Tok::Iri(iri), ..
                        }) => self.base = Some(iri),
                        _ => return Err(RdfError::syntax(line, "expected IRI after @base")),
                    }
                    // Optional trailing dot.
                    if matches!(self.peek().map(|t| &t.tok), Some(Tok::Dot)) {
                        self.next();
                    }
                }
                _ => {
                    self.statement(g)?;
                }
            }
        }
        Ok(())
    }

    fn prefix_directive(&mut self) -> Result<(), RdfError> {
        let line = self.line();
        let (prefix, local) = match self.next() {
            Some(Spanned {
                tok: Tok::Prefixed(p, l),
                ..
            }) => (p, l),
            _ => return Err(RdfError::syntax(line, "expected prefix name after @prefix")),
        };
        if !local.is_empty() {
            return Err(RdfError::syntax(line, "malformed prefix declaration"));
        }
        let iri = match self.next() {
            Some(Spanned {
                tok: Tok::Iri(iri), ..
            }) => iri,
            _ => return Err(RdfError::syntax(line, "expected IRI in prefix declaration")),
        };
        self.prefixes.insert(prefix, iri);
        if matches!(self.peek().map(|t| &t.tok), Some(Tok::Dot)) {
            self.next();
        }
        Ok(())
    }

    fn statement(&mut self, g: &mut Graph) -> Result<(), RdfError> {
        let subject = self.subject(g)?;
        self.predicate_object_list(g, subject)?;
        self.expect(&Tok::Dot, "'.'")
    }

    fn subject(&mut self, g: &mut Graph) -> Result<Term, RdfError> {
        let line = self.line();
        match self.next() {
            Some(Spanned {
                tok: Tok::Iri(iri), ..
            }) => Ok(self.resolve_iri(g, &iri)),
            Some(Spanned {
                tok: Tok::Prefixed(p, l),
                line,
            }) => self.prefixed(g, &p, &l, line),
            Some(Spanned {
                tok: Tok::BlankLabel(l),
                ..
            }) => Ok(g.intern_blank(&l)),
            Some(Spanned {
                tok: Tok::LBracket, ..
            }) => {
                let node = self.fresh_blank(g);
                if !matches!(self.peek().map(|t| &t.tok), Some(Tok::RBracket)) {
                    self.predicate_object_list(g, node)?;
                }
                self.expect(&Tok::RBracket, "']'")?;
                Ok(node)
            }
            Some(Spanned {
                tok: Tok::LParen, ..
            }) => self.collection(g),
            Some(t) => Err(RdfError::syntax(
                t.line,
                format!("invalid subject token {:?}", t.tok),
            )),
            None => Err(RdfError::syntax(line, "unexpected EOF, expected subject")),
        }
    }

    fn predicate_object_list(&mut self, g: &mut Graph, subject: Term) -> Result<(), RdfError> {
        loop {
            let predicate = self.predicate(g)?;
            loop {
                let object = self.object(g)?;
                if g.insert(subject, predicate, object) {
                    self.added += 1;
                }
                if matches!(self.peek().map(|t| &t.tok), Some(Tok::Comma)) {
                    self.next();
                } else {
                    break;
                }
            }
            if matches!(self.peek().map(|t| &t.tok), Some(Tok::Semicolon)) {
                self.next();
                // Permit trailing semicolon before '.' or ']'.
                if matches!(
                    self.peek().map(|t| &t.tok),
                    Some(Tok::Dot) | Some(Tok::RBracket) | None
                ) {
                    break;
                }
            } else {
                break;
            }
        }
        Ok(())
    }

    fn predicate(&mut self, g: &mut Graph) -> Result<Term, RdfError> {
        let line = self.line();
        match self.next() {
            Some(Spanned { tok: Tok::A, .. }) => Ok(g.intern_iri(vocab::rdf::TYPE)),
            Some(Spanned {
                tok: Tok::Iri(iri), ..
            }) => Ok(self.resolve_iri(g, &iri)),
            Some(Spanned {
                tok: Tok::Prefixed(p, l),
                line,
            }) => self.prefixed(g, &p, &l, line),
            Some(t) => Err(RdfError::syntax(
                t.line,
                format!("invalid predicate token {:?}", t.tok),
            )),
            None => Err(RdfError::syntax(line, "unexpected EOF, expected predicate")),
        }
    }

    fn object(&mut self, g: &mut Graph) -> Result<Term, RdfError> {
        let line = self.line();
        match self.next() {
            Some(Spanned {
                tok: Tok::Iri(iri), ..
            }) => Ok(self.resolve_iri(g, &iri)),
            Some(Spanned {
                tok: Tok::Prefixed(p, l),
                line,
            }) => self.prefixed(g, &p, &l, line),
            Some(Spanned {
                tok: Tok::BlankLabel(l),
                ..
            }) => Ok(g.intern_blank(&l)),
            Some(Spanned {
                tok: Tok::StringLit(lex),
                ..
            }) => match self.peek().map(|t| t.tok.clone()) {
                Some(Tok::LangTag(tag)) => {
                    self.next();
                    Ok(g.lang_literal(&lex, &tag))
                }
                Some(Tok::DoubleCaret) => {
                    self.next();
                    let line = self.line();
                    let dt = match self.next() {
                        Some(Spanned {
                            tok: Tok::Iri(iri), ..
                        }) => self.resolve_iri_string(&iri),
                        Some(Spanned {
                            tok: Tok::Prefixed(p, l),
                            line,
                        }) => self.expand_prefix(&p, &l, line)?,
                        _ => return Err(RdfError::syntax(line, "expected datatype IRI")),
                    };
                    Ok(g.typed_literal(&lex, &dt))
                }
                _ => Ok(g.string_literal(&lex)),
            },
            Some(Spanned {
                tok: Tok::Integer(v),
                ..
            }) => Ok(g.typed_literal(&v, vocab::xsd::INTEGER)),
            Some(Spanned {
                tok: Tok::Decimal(v),
                ..
            }) => Ok(g.typed_literal(&v, vocab::xsd::DECIMAL)),
            Some(Spanned {
                tok: Tok::Double(v),
                ..
            }) => Ok(g.typed_literal(&v, vocab::xsd::DOUBLE)),
            Some(Spanned {
                tok: Tok::Boolean(v),
                ..
            }) => Ok(g.typed_literal(if v { "true" } else { "false" }, vocab::xsd::BOOLEAN)),
            Some(Spanned {
                tok: Tok::LBracket, ..
            }) => {
                let node = self.fresh_blank(g);
                if !matches!(self.peek().map(|t| &t.tok), Some(Tok::RBracket)) {
                    self.predicate_object_list(g, node)?;
                }
                self.expect(&Tok::RBracket, "']'")?;
                Ok(node)
            }
            Some(Spanned {
                tok: Tok::LParen, ..
            }) => self.collection(g),
            Some(t) => Err(RdfError::syntax(
                t.line,
                format!("invalid object token {:?}", t.tok),
            )),
            None => Err(RdfError::syntax(line, "unexpected EOF, expected object")),
        }
    }

    /// Parse `( item* )` into an rdf:first/rdf:rest chain; the opening paren
    /// is already consumed. Returns the list head (or `rdf:nil` when empty).
    fn collection(&mut self, g: &mut Graph) -> Result<Term, RdfError> {
        let first = g.intern_iri(vocab::rdf::FIRST);
        let rest = g.intern_iri(vocab::rdf::REST);
        let nil = g.intern_iri(vocab::rdf::NIL);
        let mut items = Vec::new();
        while !matches!(self.peek().map(|t| &t.tok), Some(Tok::RParen)) {
            if self.peek().is_none() {
                return Err(RdfError::syntax(self.line(), "unterminated collection"));
            }
            items.push(self.object(g)?);
        }
        self.next(); // consume ')'
        let mut head = nil;
        for item in items.into_iter().rev() {
            let cell = self.fresh_blank(g);
            if g.insert(cell, first, item) {
                self.added += 1;
            }
            if g.insert(cell, rest, head) {
                self.added += 1;
            }
            head = cell;
        }
        Ok(head)
    }

    fn resolve_iri(&self, g: &mut Graph, iri: &str) -> Term {
        g.intern_iri(&self.resolve_iri_string(iri))
    }

    fn resolve_iri_string(&self, iri: &str) -> String {
        match (&self.base, iri.contains(':')) {
            (Some(base), false) => format!("{base}{iri}"),
            _ => iri.to_string(),
        }
    }

    fn prefixed(
        &self,
        g: &mut Graph,
        prefix: &str,
        local: &str,
        line: usize,
    ) -> Result<Term, RdfError> {
        Ok(g.intern_iri(&self.expand_prefix(prefix, local, line)?))
    }

    fn expand_prefix(&self, prefix: &str, local: &str, line: usize) -> Result<String, RdfError> {
        match self.prefixes.get(prefix) {
            Some(ns) => Ok(format!("{ns}{local}")),
            None => Err(RdfError::UndefinedPrefix {
                line,
                prefix: prefix.to_string(),
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn prefixes_and_a_keyword() {
        let doc = r#"
@prefix ex: <http://ex/> .
ex:bob a ex:Student ;
    ex:name "Bob" .
"#;
        let g = parse_turtle(doc).unwrap();
        assert_eq!(g.len(), 2);
        let bob = g.interner().get("http://ex/bob").map(Term::Iri).unwrap();
        let student = g
            .interner()
            .get("http://ex/Student")
            .map(Term::Iri)
            .unwrap();
        assert_eq!(g.types_of(bob), vec![student]);
    }

    #[test]
    fn default_namespace_prefix() {
        let doc = r#"
@prefix : <http://ex/> .
:a :p :b .
"#;
        let g = parse_turtle(doc).unwrap();
        assert_eq!(g.len(), 1);
        assert!(g.interner().get("http://ex/a").is_some());
    }

    #[test]
    fn object_and_predicate_lists() {
        let doc = r#"
@prefix ex: <http://ex/> .
ex:a ex:p ex:b, ex:c ;
     ex:q ex:d .
"#;
        let g = parse_turtle(doc).unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn numeric_and_boolean_shorthand() {
        let doc = r#"
@prefix ex: <http://ex/> .
ex:a ex:int 42 ;
     ex:dec 4.2 ;
     ex:dbl 1.0e3 ;
     ex:neg -7 ;
     ex:yes true .
"#;
        let g = parse_turtle(doc).unwrap();
        assert_eq!(g.len(), 5);
        let dts: Vec<String> = g
            .triples()
            .filter_map(|t| t.o.as_literal())
            .map(|l| g.resolve(l.datatype).to_string())
            .collect();
        assert!(dts.contains(&vocab::xsd::INTEGER.to_string()));
        assert!(dts.contains(&vocab::xsd::DECIMAL.to_string()));
        assert!(dts.contains(&vocab::xsd::DOUBLE.to_string()));
        assert!(dts.contains(&vocab::xsd::BOOLEAN.to_string()));
    }

    #[test]
    fn blank_node_property_list() {
        let doc = r#"
@prefix ex: <http://ex/> .
ex:shape ex:property [ ex:path ex:name ; ex:minCount 1 ] .
"#;
        let g = parse_turtle(doc).unwrap();
        assert_eq!(g.len(), 3);
        // The bracket introduced one blank node used in object and subject position.
        let blanks: Vec<Term> = g.triples().map(|t| t.o).filter(|o| o.is_blank()).collect();
        assert_eq!(blanks.len(), 1);
    }

    #[test]
    fn collections_expand_to_first_rest() {
        let doc = r#"
@prefix ex: <http://ex/> .
ex:s ex:or ( ex:A ex:B ) .
"#;
        let g = parse_turtle(doc).unwrap();
        // 1 head triple + 2 cells × (first, rest) = 5 triples.
        assert_eq!(g.len(), 5);
        let first = g.interner().get(vocab::rdf::FIRST).unwrap();
        assert_eq!(g.match_pattern(None, Some(first), None).len(), 2);
        let nil = g.interner().get(vocab::rdf::NIL).map(Term::Iri).unwrap();
        let rest = g.interner().get(vocab::rdf::REST).unwrap();
        assert_eq!(g.subjects(rest, nil).len(), 1);
    }

    #[test]
    fn empty_collection_is_nil() {
        let doc = r#"
@prefix ex: <http://ex/> .
ex:s ex:or ( ) .
"#;
        let g = parse_turtle(doc).unwrap();
        assert_eq!(g.len(), 1);
        let t = g.triples().next().unwrap();
        assert_eq!(g.resolve(t.o.as_iri().unwrap()), vocab::rdf::NIL);
    }

    #[test]
    fn typed_literal_with_prefixed_datatype() {
        let doc = r#"
@prefix ex: <http://ex/> .
ex:a ex:age "30"^^xsd:integer .
"#;
        let g = parse_turtle(doc).unwrap();
        let lit = g.triples().next().unwrap().o.as_literal().unwrap();
        assert_eq!(g.resolve(lit.datatype), vocab::xsd::INTEGER);
    }

    #[test]
    fn lang_tagged_literal() {
        let doc = r#"
@prefix ex: <http://ex/> .
ex:a ex:label "hello"@en-GB .
"#;
        let g = parse_turtle(doc).unwrap();
        let lit = g.triples().next().unwrap().o.as_literal().unwrap();
        assert_eq!(g.resolve(lit.lang.unwrap()), "en-GB");
    }

    #[test]
    fn undefined_prefix_is_reported() {
        let err = parse_turtle("nope:a nope:p nope:b .").unwrap_err();
        assert!(matches!(err, RdfError::UndefinedPrefix { .. }));
    }

    #[test]
    fn missing_dot_is_reported() {
        let doc = r#"
@prefix ex: <http://ex/> .
ex:a ex:p ex:b
"#;
        assert!(parse_turtle(doc).is_err());
    }

    #[test]
    fn nested_brackets() {
        let doc = r#"
@prefix ex: <http://ex/> .
ex:s ex:p [ ex:q [ ex:r ex:o ] ] .
"#;
        let g = parse_turtle(doc).unwrap();
        assert_eq!(g.len(), 3);
    }

    #[test]
    fn base_directive_resolves_relative_iris() {
        let doc = r#"
@base <http://ex/> .
<a> <p> <b> .
"#;
        let g = parse_turtle(doc).unwrap();
        assert!(g.interner().get("http://ex/a").is_some());
        assert!(g.interner().get("http://ex/p").is_some());
    }
}
