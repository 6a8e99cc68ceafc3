//! The N-Triples reader against the reader it replaced.
//!
//! [`reference`] is the byte-at-a-time `Cursor` that `parse_ntriples` was
//! built on before the borrowing tokenizer: one `Graph::insert` per line, a
//! `String` per literal, every symbol looked up again. It is kept here,
//! compiled for tests only, as the oracle the way the byte-at-a-time CRC is
//! kept beside the word-at-a-time one. The new reader must hand back the
//! same triples in the same order *with the same `Sym` for every string* —
//! `subjects_distinct()` sorts by `Sym`, so F_dt's node ids follow the
//! numbering — and the same first error otherwise.
//!
//! Two shapes the reference accepts are now errors and are listed in
//! [`newly_rejected`]: text after a statement's `.` and an empty language
//! tag.

use s3pg_rdf::parser::parse_ntriples;
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::serializer::to_ntriples;
use s3pg_rdf::{Graph, RdfError, Triple};

mod reference {
    use s3pg_rdf::term::unescape_literal;
    use s3pg_rdf::{vocab, Graph, Literal, RdfError, Term};

    fn syntax(line: usize, message: impl Into<String>) -> RdfError {
        RdfError::Syntax {
            line,
            message: message.into(),
        }
    }

    pub fn parse(input: &str) -> Result<Graph, RdfError> {
        let mut graph = Graph::new();
        for (lineno, raw) in input.lines().enumerate() {
            let line = raw.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let (s, p, o) = parse_line(line, lineno + 1, &mut graph)?;
            graph.insert(s, p, o);
        }
        Ok(graph)
    }

    fn parse_line(
        line: &str,
        lineno: usize,
        g: &mut Graph,
    ) -> Result<(Term, Term, Term), RdfError> {
        let mut cursor = Cursor {
            bytes: line.as_bytes(),
            pos: 0,
            line: lineno,
        };
        let s = cursor.term(g)?;
        if s.is_literal() {
            return Err(syntax(lineno, "literal in subject position"));
        }
        cursor.skip_ws();
        let p = cursor.term(g)?;
        if !p.is_iri() {
            return Err(syntax(lineno, "predicate must be an IRI"));
        }
        cursor.skip_ws();
        let o = cursor.term(g)?;
        cursor.skip_ws();
        if !cursor.eat(b'.') {
            return Err(syntax(lineno, "expected '.' at end of statement"));
        }
        Ok((s, p, o))
    }

    struct Cursor<'a> {
        bytes: &'a [u8],
        pos: usize,
        line: usize,
    }

    impl<'a> Cursor<'a> {
        fn skip_ws(&mut self) {
            while self.pos < self.bytes.len()
                && (self.bytes[self.pos] as char).is_ascii_whitespace()
            {
                self.pos += 1;
            }
        }

        fn peek(&self) -> Option<u8> {
            self.bytes.get(self.pos).copied()
        }

        fn eat(&mut self, b: u8) -> bool {
            if self.peek() == Some(b) {
                self.pos += 1;
                true
            } else {
                false
            }
        }

        fn take_until(&mut self, delim: u8) -> Result<&'a str, RdfError> {
            let start = self.pos;
            while let Some(b) = self.peek() {
                if b == delim {
                    let s = std::str::from_utf8(&self.bytes[start..self.pos])
                        .map_err(|_| syntax(self.line, "invalid UTF-8"))?;
                    self.pos += 1;
                    return Ok(s);
                }
                self.pos += 1;
            }
            Err(syntax(
                self.line,
                format!("unterminated token, expected '{}'", delim as char),
            ))
        }

        fn term(&mut self, g: &mut Graph) -> Result<Term, RdfError> {
            self.skip_ws();
            match self.peek() {
                Some(b'<') => {
                    self.pos += 1;
                    let iri = self.take_until(b'>')?;
                    Ok(g.intern_iri(iri))
                }
                Some(b'_') => {
                    self.pos += 1;
                    if !self.eat(b':') {
                        return Err(syntax(self.line, "expected ':' after '_'"));
                    }
                    let start = self.pos;
                    while let Some(b) = self.peek() {
                        if (b as char).is_ascii_whitespace() || b == b'.' && self.at_statement_end()
                        {
                            break;
                        }
                        self.pos += 1;
                    }
                    let label = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                    Ok(g.intern_blank(label))
                }
                Some(b'"') => {
                    self.pos += 1;
                    let lexical = self.quoted_string()?;
                    // Optional @lang or ^^<datatype>
                    if self.eat(b'@') {
                        let start = self.pos;
                        while let Some(b) = self.peek() {
                            if (b as char).is_ascii_alphanumeric() || b == b'-' {
                                self.pos += 1;
                            } else {
                                break;
                            }
                        }
                        let lang = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                        Ok(Term::Literal(Literal {
                            lexical: g.intern(&lexical),
                            datatype: g.intern(vocab::rdf::LANG_STRING),
                            lang: Some(g.intern(lang)),
                        }))
                    } else if self.eat(b'^') {
                        if !self.eat(b'^') || !self.eat(b'<') {
                            return Err(syntax(self.line, "malformed datatype suffix"));
                        }
                        let dt = self.take_until(b'>')?;
                        let dt = g.intern(dt);
                        Ok(Term::Literal(Literal {
                            lexical: g.intern(&lexical),
                            datatype: dt,
                            lang: None,
                        }))
                    } else {
                        Ok(g.string_literal(&lexical))
                    }
                }
                Some(other) => Err(syntax(
                    self.line,
                    format!("unexpected character '{}'", other as char),
                )),
                None => Err(syntax(self.line, "unexpected end of line")),
            }
        }

        /// Read the remainder of a double-quoted string (opening quote already
        /// consumed), handling backslash escapes.
        fn quoted_string(&mut self) -> Result<String, RdfError> {
            let start = self.pos;
            loop {
                match self.peek() {
                    Some(b'"') => {
                        let raw = std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| syntax(self.line, "invalid UTF-8"))?;
                        self.pos += 1;
                        return unescape_literal(raw).map_err(|e| syntax(self.line, e));
                    }
                    Some(b'\\') => {
                        self.pos += 2; // skip escape pair
                    }
                    Some(_) => self.pos += 1,
                    None => return Err(syntax(self.line, "unterminated string literal")),
                }
            }
        }

        /// Whether the current `.` is the statement terminator (followed only by
        /// whitespace or a comment) rather than part of a blank-node label.
        fn at_statement_end(&self) -> bool {
            self.bytes[self.pos + 1..]
                .iter()
                .all(|&b| (b as char).is_ascii_whitespace() || b == b'#')
        }
    }
}

/// Triples in log order and strings in `Sym` order.
fn fingerprint(g: &Graph) -> (Vec<Triple>, Vec<&str>) {
    (
        g.triples().collect(),
        g.interner().iter().map(|(_, s)| s).collect(),
    )
}

/// The new reader against the reference on one document: equal graphs
/// down to the numbering, or the same error.
fn assert_same(doc: &str, what: &str) {
    match (reference::parse(doc), parse_ntriples(doc)) {
        (Ok(want), Ok(got)) => {
            let (want, got) = (fingerprint(&want), fingerprint(&got));
            assert_eq!(want.0, got.0, "{what}: triples");
            assert_eq!(want.1, got.1, "{what}: Sym numbering");
        }
        (Err(want), Err(got)) => assert_eq!(want, got, "{what}: error"),
        (want, got) => panic!(
            "{what}: reference {:?}, reader {:?}",
            want.as_ref().map(Graph::len),
            got.as_ref().map(Graph::len)
        ),
    }
}

#[test]
fn generated_datasets_parse_as_they_did() {
    use s3pg_workloads::university::{self, UniversitySpec};
    use s3pg_workloads::{bio2rdf, dbpedia, generate, generate_skewed};
    let university = university::generate(&UniversitySpec::default());
    let docs = [
        (
            "dbpedia2022(0.2)",
            generate(&dbpedia::dbpedia2022(0.2)).graph,
        ),
        (
            "dbpedia2020(0.1)",
            generate(&dbpedia::dbpedia2020(0.1)).graph,
        ),
        ("bio2rdf_ct(0.2)", generate(&bio2rdf::bio2rdf_ct(0.2)).graph),
        (
            "skew(0.05, seed 0xD1CE)",
            generate_skewed(0.05, 0xD1CE).graph,
        ),
        ("university(seed 7)", university),
    ];
    for (what, graph) in &docs {
        assert!(graph.len() > 100, "{what}: {} triples", graph.len());
        let doc = to_ntriples(graph);
        assert_same(&doc, what);
        // Subject runs broken up and statements repeated: the caches miss
        // and set semantics collapses the repeats.
        let mut lines: Vec<&str> = doc.lines().collect();
        let mut rng = XorShiftRng::seed_from_u64(0x5eed);
        for i in (1..lines.len()).rev() {
            lines.swap(i, rng.random_range(0..i + 1));
        }
        let repeats = lines.len() / 10;
        lines.extend_from_within(..repeats);
        assert_same(
            &lines.join("\n"),
            &format!("{what}, shuffled with seed 0x5eed"),
        );
    }
}

/// Every token shape the grammar (and this reader's leniency) admits.
const WELL_FORMED: &str = "\
# a comment line, then a blank one

<http://ex/a> <http://ex/p> <http://ex/b> .
<http://ex/a> <http://ex/p> <http://ex/b> .
<http://ex/a> <http://ex/p> <http://ex/c>.
<http://ex/a>\t<http://ex/p>\t<http://ex/d>\t.
  <http://ex/a>   <http://ex/q>   \"padded\"   .   \r
<http://ex/a> <http://ex/q> \"plain\" . # trailing comment
<http://ex/a> <http://ex/q> \"plain\" .#comment without a space
<http://ex/a> <http://ex/q> \"\" .
<http://ex/a> <http://ex/q> \"tab\\there \\\"quoted\\\" nl\\n cr\\r bs\\b ff\\f apos\\' slash\\\\\" .
<http://ex/a> <http://ex/q> \"ends in a backslash \\\\\" .
<http://ex/a> <http://ex/q> \"\\\\\" .
<http://ex/a> <http://ex/q> \"u \\u00e9 U \\U0001F600 raw \u{e9} \u{1F600}\" .
<http://ex/a> <http://ex/q> \"\\u00E9\"@fr .
<http://ex/a> <http://ex/q> \"chat\"@fr .
<http://ex/a> <http://ex/q> \"chat\"@fr-CA .
<http://ex/a> <http://ex/q> \"chat\"@en.
<http://ex/a> <http://ex/n> \"1\"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/a> <http://ex/n> \"2\"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/a> <http://ex/n> \"2.5\"^^<http://www.w3.org/2001/XMLSchema#decimal>.
<http://ex/a> <http://ex/n> \"3\"^^<http://www.w3.org/2001/XMLSchema#integer> .
<http://ex/a> <http://ex/n> \"explicit\"^^<http://www.w3.org/2001/XMLSchema#string> .
<http://ex/a> <http://ex/n> \"plain after explicit\" .
<http://ex/a> <http://ex/n> \"tagged\"^^<http://www.w3.org/1999/02/22-rdf-syntax-ns#langString> .
<http://ex/a> <http://ex/q> \"http://ex/a\" .
<http://ex/a> <http://ex/q> <plain> .
_:b0 <http://ex/p> _:b1 .
_:b0 <http://ex/p> _:b1.
_:b0 <http://ex/p> _:b.with.dots .
_:b0 <http://ex/p> _:b.with.dots.
_:b.with.dots <http://ex/p> _:b0 .
_:b.with.dots <http://ex/p> \"x\" .
_:b0\t<http://ex/p>\t<http://ex/a> .
_:b0. <http://ex/p> <http://ex/a> .
_: <http://ex/p> _: .
<http://ex/a><http://ex/p><http://ex/tight>.
<http://ex/ab> <http://ex/p> <http://ex/a> .
<http://ex/a> <http://ex/p> <http://ex/ab> .
<> <> <> .
<http://ex/\u{e9}t\u{e9}> <http://ex/p> \"\u{e9}t\u{e9}\"@fr .
\u{a0}<http://ex/nbsp> <http://ex/p> <http://ex/trimmed> .\u{2003}
<http://ex/a> <http://ex/p> \"crlf\" .\r
<http://ex/last> <http://ex/p> \"no newline at the end\" .";

#[test]
fn hand_written_corpus_parses_as_it_did() {
    let expected = reference::parse(WELL_FORMED).expect("the corpus is well formed");
    assert_eq!(expected.len(), 38, "distinct statements in the corpus");
    assert_same(WELL_FORMED, "hand-written corpus");
    assert_same(
        &WELL_FORMED.replace('\n', "\r\n"),
        "hand-written corpus, CRLF",
    );
    // Statement by statement, so each shape is also a document's first
    // line (cold caches) and its last (no newline).
    for (i, line) in WELL_FORMED.lines().enumerate() {
        assert_same(line, &format!("corpus line {}", i + 1));
    }
}

/// One defect a line; the well-formed statements before it must not hide
/// it and the line number must be the defect's.
const MALFORMED: &[&str] = &[
    "broken",
    "<http://ex/a> <http://ex/p>",
    "<http://ex/a> <http://ex/p> <http://ex/o>",
    "<http://ex/a> <http://ex/p> <http://ex/o> ,",
    "<http://ex/a <http://ex/p",
    "<http://ex/a> <http://ex/p> <http://ex/o",
    "\"lit\" <http://ex/p> <http://ex/o> .",
    "<http://ex/a> _:b <http://ex/o> .",
    "<http://ex/a> \"p\" <http://ex/o> .",
    "_b <http://ex/p> <http://ex/o> .",
    "<http://ex/a> <http://ex/p> _b .",
    "<http://ex/a> <http://ex/p> \"open .",
    "<http://ex/a> <http://ex/p> \"open \\\" .",
    "<http://ex/a> <http://ex/p> \"dangling \\",
    "<http://ex/a> <http://ex/p> \"bad \\q escape\" .",
    "<http://ex/a> <http://ex/p> \"short \\u12\" .",
    "<http://ex/a> <http://ex/p> \"hex \\uZZZZ\" .",
    "<http://ex/a> <http://ex/p> \"surrogate \\UDC00DC00\" .",
    "<http://ex/a> <http://ex/p> \"x\"^<http://ex/dt> .",
    "<http://ex/a> <http://ex/p> \"x\"^^http://ex/dt .",
    "<http://ex/a> <http://ex/p> \"x\"^^<http://ex/dt .",
    "<http://ex/a> <http://ex/p> \"x\"@en-\u{e9} .",
    "<http://ex/a> <http://ex/p> 42 .",
    "<http://ex/a> <http://ex/p> \u{e9} .",
    "<http://ex/a> <http://ex/p> _:b.#tail",
    "<http://ex/a> <http://ex/p> <http://ex/o> #.",
];

#[test]
fn malformed_lines_fail_as_they_did() {
    let preamble = "<http://ex/a> <http://ex/p> \"fine\" .\n# comment\n\n";
    for bad in MALFORMED {
        let Err(RdfError::Syntax { line, .. }) = reference::parse(bad) else {
            panic!("the reference accepts {bad:?}");
        };
        assert_eq!(line, 1, "{bad:?}");
        assert_same(bad, bad);
        let doc = format!("{preamble}{bad}\n<http://ex/a> <http://ex/p> <http://ex/after> .\n");
        let Err(RdfError::Syntax { line, .. }) = parse_ntriples(&doc) else {
            panic!("{bad:?} accepted after a preamble");
        };
        assert_eq!(line, 4, "{bad:?}");
        assert_same(&doc, &format!("{bad:?} on line 4"));
    }
    // A defect deep in a long document: the first error, and the
    // statements before it, are the reference's.
    for bad in MALFORMED.iter().step_by(5) {
        let mut doc = String::new();
        for i in 0..300 {
            doc.push_str(&format!("<http://ex/e{i}> <http://ex/p> \"v{i}\" .\n"));
            if i == 211 {
                doc.push_str(bad);
                doc.push('\n');
            }
        }
        assert_same(&doc, &format!("{bad:?} on line 213 of 301"));
    }
}

/// What the reference reads and this reader refuses: it used to stop at
/// the statement's `.` and never looked at the rest of the line, and it
/// took `@` followed by nothing for a language tag.
#[test]
fn newly_rejected() {
    let cases = [
        ("<http://ex/a> <http://ex/b> <http://ex/c> . <http://ex/d> <http://ex/e> <http://ex/f> .", 1),
        ("<http://ex/a> <http://ex/b> <http://ex/c> . garbage", 1),
        ("<http://ex/a> <http://ex/b> \"x\" . .", 1),
        ("<http://ex/a> <http://ex/b> <http://ex/c> .<http://ex/d>", 1),
        ("<http://ex/a> <http://ex/b> \"x\"@ .", 1),
        ("<http://ex/a> <http://ex/b> \"x\"@.", 1),
    ];
    for (bad, statements) in cases {
        let before = reference::parse(bad).unwrap_or_else(|e| panic!("reference on {bad:?}: {e}"));
        assert_eq!(before.len(), statements, "{bad:?}");
        let doc = format!("<http://ex/s> <http://ex/p> <http://ex/o> .\n{bad}\n");
        match parse_ntriples(&doc) {
            Err(RdfError::Syntax { line: 2, .. }) => {}
            other => panic!("{bad:?}: {:?}", other.map(|g| g.len())),
        }
    }
    // Still legal: no space before the dot, a comment after it.
    for fine in [
        "<http://ex/a> <http://ex/b> <http://ex/c>.",
        "<http://ex/a> <http://ex/b> <http://ex/c> . # <http://ex/d> .",
        "<http://ex/a> <http://ex/b> \"x\"@en.#c",
    ] {
        assert_eq!(parse_ntriples(fine).map(|g| g.len()), Ok(1), "{fine:?}");
    }
}
