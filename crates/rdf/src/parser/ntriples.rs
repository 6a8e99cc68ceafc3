//! Streaming N-Triples parser.
//!
//! N-Triples is the serialization the paper's dumps (DBpedia, Bio2RDF CT)
//! use; Algorithm 1 "reads F triple by triple to process the stream of
//! triples", and this reader is the floor under that scan. It borrows: a
//! token is a slice of the input, interned straight from where it lies, and
//! a `String` is built only for a literal that holds a backslash escape.
//! It remembers what a dump repeats — the previous line's subject, the last
//! datatype IRI, the `xsd:string` and `rdf:langString` symbols — and
//! compares bytes before it hashes. And it works in two strokes per batch:
//! tokenize a run of lines into a batch of [`Triple`]s (the text streams
//! past the interner), then index the batch (the store's tables are probed
//! with the text out of the way).
//!
//! Symbols are handed out in the order the line is written — subject,
//! predicate, then the object's parts — and that order is load-bearing:
//! [`Graph::subjects_distinct`] sorts by [`Sym`], so F_dt's node ids
//! follow it.

use crate::error::RdfError;
use crate::graph::{Graph, Triple};
use crate::interner::{Interner, Sym};
use crate::term::{unescape_literal, Literal, Term};
use crate::vocab;

/// Parse an entire N-Triples document into a fresh [`Graph`].
pub fn parse_ntriples(input: &str) -> Result<Graph, RdfError> {
    let mut g = Graph::new();
    parse_ntriples_into(input, &mut g)?;
    Ok(g)
}

/// Most statements tokenized before they are indexed. The longer the two
/// strokes run apart the faster both are, and a document that fits one
/// batch gives the store its exact size up front; the bound keeps the
/// batch itself (36 bytes a statement) a footnote beside a large input.
const BATCH: usize = 1 << 20;

/// Parse an N-Triples document, inserting triples into an existing graph.
/// Returns the number of triples inserted (duplicates not counted). The
/// statements before a malformed line are inserted, as they would be
/// reading line by line.
pub fn parse_ntriples_into(input: &str, graph: &mut Graph) -> Result<usize, RdfError> {
    let mut tokenizer = Tokenizer::default();
    let mut batch: Vec<Triple> = Vec::new();
    let mut added = 0;
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        match tokenizer.statement(line, lineno + 1, graph.interner_mut()) {
            Ok(triple) => batch.push(triple),
            Err(e) => {
                graph.insert_batch(batch);
                return Err(e);
            }
        }
        if batch.len() == BATCH {
            added += graph.insert_batch(batch.drain(..));
        }
    }
    Ok(added + graph.insert_batch(batch))
}

/// Position in one trimmed, non-empty line.
struct Scanner<'a> {
    line: &'a str,
    pos: usize,
    lineno: usize,
}

impl<'a> Scanner<'a> {
    fn error(&self, message: impl Into<String>) -> RdfError {
        RdfError::syntax(self.lineno, message)
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.line.as_bytes().get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> bool {
        let found = self.peek() == Some(b);
        self.pos += found as usize;
        found
    }

    /// The text up to the next `delim` (ASCII), which is consumed.
    fn take_until(&mut self, delim: char) -> Result<&'a str, RdfError> {
        let rest = &self.line[self.pos..];
        match rest.find(delim) {
            Some(end) => {
                self.pos += end + 1;
                Ok(&rest[..end])
            }
            None => Err(self.error(format!("unterminated token, expected '{delim}'"))),
        }
    }

    /// The remainder of a double-quoted string (opening quote already
    /// consumed) as written, and whether it holds a backslash escape.
    fn quoted(&mut self) -> Result<(&'a str, bool), RdfError> {
        let start = self.pos;
        let mut escaped = false;
        loop {
            match self.peek() {
                Some(b'"') => {
                    let raw = &self.line[start..self.pos];
                    self.pos += 1;
                    return Ok((raw, escaped));
                }
                Some(b'\\') => {
                    escaped = true;
                    self.pos += 2; // skip escape pair
                }
                Some(_) => self.pos += 1,
                None => return Err(self.error("unterminated string literal")),
            }
        }
    }

    /// Whether the current `.` is the statement terminator (followed only by
    /// whitespace or a comment) rather than part of a blank-node label.
    fn at_statement_end(&self) -> bool {
        self.line.as_bytes()[self.pos + 1..]
            .iter()
            .all(|&b| b.is_ascii_whitespace() || b == b'#')
    }
}

/// What the reader carries from line to line: symbols it would otherwise
/// look up again for every literal, and the two tokens a dump repeats in
/// runs. The cached tokens are compared as bytes, so a hit is exact.
#[derive(Default)]
struct Tokenizer<'a> {
    xsd_string: Option<Sym>,
    lang_string: Option<Sym>,
    /// The last `^^<datatype>` IRI and its symbol.
    datatype: Option<(&'a str, Sym)>,
    /// The previous statement's subject token as written (`<iri>` or
    /// `_:label`) and its term.
    subject: Option<(&'a str, Term)>,
}

impl<'a> Tokenizer<'a> {
    /// Tokenize one statement, interning its strings in written order.
    fn statement(
        &mut self,
        line: &'a str,
        lineno: usize,
        strings: &mut Interner,
    ) -> Result<Triple, RdfError> {
        let mut scan = Scanner {
            line,
            pos: 0,
            lineno,
        };
        let s = match self.subject {
            // The same token followed by whitespace ends where it ended
            // before: an IRI at its first `>`, a label at the whitespace.
            Some((token, term))
                if line.starts_with(token)
                    && line
                        .as_bytes()
                        .get(token.len())
                        .is_some_and(u8::is_ascii_whitespace) =>
            {
                scan.pos = token.len();
                term
            }
            _ => {
                let s = self.term(&mut scan, strings)?;
                if s.is_literal() {
                    return Err(scan.error("literal in subject position"));
                }
                self.subject = Some((&line[..scan.pos], s));
                s
            }
        };
        let Term::Iri(p) = self.term(&mut scan, strings)? else {
            return Err(scan.error("predicate must be an IRI"));
        };
        let o = self.term(&mut scan, strings)?;
        scan.skip_ws();
        if !scan.eat(b'.') {
            return Err(scan.error("expected '.' at end of statement"));
        }
        scan.skip_ws();
        if !matches!(scan.peek(), None | Some(b'#')) {
            return Err(scan.error("unexpected text after the statement's '.'"));
        }
        Ok(Triple { s, p, o })
    }

    fn term(&mut self, scan: &mut Scanner<'a>, strings: &mut Interner) -> Result<Term, RdfError> {
        scan.skip_ws();
        match scan.peek() {
            Some(b'<') => {
                scan.pos += 1;
                Ok(Term::Iri(strings.intern(scan.take_until('>')?)))
            }
            Some(b'_') => {
                scan.pos += 1;
                if !scan.eat(b':') {
                    return Err(scan.error("expected ':' after '_'"));
                }
                let start = scan.pos;
                while let Some(b) = scan.peek() {
                    if b.is_ascii_whitespace() || b == b'.' && scan.at_statement_end() {
                        break;
                    }
                    scan.pos += 1;
                }
                Ok(Term::Blank(strings.intern(&scan.line[start..scan.pos])))
            }
            Some(b'"') => {
                scan.pos += 1;
                self.literal(scan, strings)
            }
            Some(other) => Err(scan.error(format!("unexpected character '{}'", other as char))),
            None => Err(scan.error("unexpected end of line")),
        }
    }

    /// A literal whose opening quote has been consumed.
    fn literal(
        &mut self,
        scan: &mut Scanner<'a>,
        strings: &mut Interner,
    ) -> Result<Term, RdfError> {
        let (raw, escaped) = scan.quoted()?;
        let unescaped;
        let lexical = if escaped {
            unescaped = unescape_literal(raw).map_err(|e| scan.error(e))?;
            unescaped.as_str()
        } else {
            raw
        };
        // Optional @lang or ^^<datatype>. Each arm interns in the order its
        // symbols have always been numbered in.
        if scan.eat(b'@') {
            let start = scan.pos;
            while scan
                .peek()
                .is_some_and(|b| b.is_ascii_alphanumeric() || b == b'-')
            {
                scan.pos += 1;
            }
            if scan.pos == start {
                return Err(scan.error("empty language tag"));
            }
            Ok(Term::Literal(Literal {
                lexical: strings.intern(lexical),
                datatype: *self
                    .lang_string
                    .get_or_insert_with(|| strings.intern(vocab::rdf::LANG_STRING)),
                lang: Some(strings.intern(&scan.line[start..scan.pos])),
            }))
        } else if scan.eat(b'^') {
            if !scan.eat(b'^') || !scan.eat(b'<') {
                return Err(scan.error("malformed datatype suffix"));
            }
            let iri = scan.take_until('>')?;
            let datatype = match self.datatype {
                Some((last, sym)) if last == iri => sym,
                _ => {
                    let sym = strings.intern(iri);
                    self.datatype = Some((iri, sym));
                    sym
                }
            };
            Ok(Term::Literal(Literal {
                lexical: strings.intern(lexical),
                datatype,
                lang: None,
            }))
        } else {
            Ok(Term::Literal(Literal {
                lexical: strings.intern(lexical),
                datatype: *self
                    .xsd_string
                    .get_or_insert_with(|| strings.intern(vocab::xsd::STRING)),
                lang: None,
            }))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_iri_triple() {
        let g = parse_ntriples("<http://ex/a> <http://ex/p> <http://ex/b> .").unwrap();
        assert_eq!(g.len(), 1);
        let t = g.triples().next().unwrap();
        assert!(t.s.is_iri() && t.o.is_iri());
    }

    #[test]
    fn parses_literals_with_datatype_and_lang() {
        let doc = r#"
<http://ex/a> <http://ex/name> "Alice" .
<http://ex/a> <http://ex/age> "30"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/a> <http://ex/label> "Alice"@en .
"#;
        let g = parse_ntriples(doc).unwrap();
        assert_eq!(g.len(), 3);
        let lits: Vec<Literal> = g.triples().filter_map(|t| t.o.as_literal()).collect();
        assert_eq!(lits.len(), 3);
        assert!(lits
            .iter()
            .any(|l| g.resolve(l.datatype) == vocab::xsd::INTEGER));
        assert!(lits.iter().any(|l| l.lang.is_some()));
    }

    #[test]
    fn parses_blank_nodes() {
        let g = parse_ntriples("_:b0 <http://ex/p> _:b1 .").unwrap();
        let t = g.triples().next().unwrap();
        assert!(t.s.is_blank() && t.o.is_blank());
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let doc = "# comment\n\n<http://ex/a> <http://ex/p> <http://ex/b> .\n# tail";
        let g = parse_ntriples(doc).unwrap();
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn escaped_quotes_inside_literal() {
        let g = parse_ntriples(r#"<http://ex/a> <http://ex/p> "say \"hi\"\n" ."#).unwrap();
        let lit = g.triples().next().unwrap().o.as_literal().unwrap();
        assert_eq!(g.resolve(lit.lexical), "say \"hi\"\n");
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(parse_ntriples("<http://ex/a> <http://ex/p>").is_err());
        assert!(parse_ntriples("\"lit\" <http://ex/p> <http://ex/o> .").is_err());
        assert!(parse_ntriples("<http://ex/a> _:b <http://ex/o> .").is_err());
        assert!(parse_ntriples("<http://ex/a> <http://ex/p> \"open .").is_err());
    }

    #[test]
    fn error_reports_line_number() {
        let doc = "<http://ex/a> <http://ex/p> <http://ex/b> .\nbroken";
        let err = parse_ntriples(doc).unwrap_err();
        match err {
            RdfError::Syntax { line, .. } => assert_eq!(line, 2),
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn duplicate_lines_collapse() {
        let doc = "<http://ex/a> <http://ex/p> <http://ex/b> .\n<http://ex/a> <http://ex/p> <http://ex/b> .";
        let g = parse_ntriples(doc).unwrap();
        assert_eq!(g.len(), 1);
    }
}
