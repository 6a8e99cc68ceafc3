//! YARS-PG serialization.
//!
//! The rdf2pg baseline the paper evaluates "outputs PG graphs in YARS-PG
//! serialization format" (Tomaszuk et al., BDAS 2019). This module
//! implements a practical subset of YARS-PG 3.0 so transformed graphs can
//! be exchanged in that format too:
//!
//! ```text
//! # nodes
//! ("n0"{"Person","Student"}["iri": "http://ex/bob", "regNo": "Bs12"])
//! # edges
//! ("n0")-({"advisedBy"}["since": 2021])->("n1")
//! ```
//!
//! Values are typed: strings quoted, integers/floats/booleans bare, lists
//! bracketed. The parser accepts exactly what the writer emits (plus
//! whitespace and comments), giving a lossless round-trip.

use crate::graph::{NodeId, PropertyGraph};
use crate::value::Value;
use s3pg_rdf::fxhash::FxHashMap;
use std::fmt;
use std::fmt::Write as _;

/// YARS-PG parse error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct YarsError {
    pub line: usize,
    pub message: String,
}

impl fmt::Display for YarsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "YARS-PG error on line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for YarsError {}

fn err<T>(line: usize, message: impl Into<String>) -> Result<T, YarsError> {
    Err(YarsError {
        line,
        message: message.into(),
    })
}

/// Serialize a property graph as YARS-PG.
pub fn to_yarspg(pg: &PropertyGraph) -> String {
    let mut out = String::from("# nodes\n");
    for id in pg.node_ids() {
        let node = pg.node(id);
        let _ = write!(out, "(\"n{}\"{{", id.0);
        for (i, &l) in node.labels.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "{}", quoted(pg.resolve(l)));
        }
        out.push_str("}[");
        write_props(&mut out, pg, &node.props);
        out.push_str("])\n");
    }
    out.push_str("# edges\n");
    for id in pg.edge_ids() {
        let edge = pg.edge(id);
        let label = edge
            .labels
            .first()
            .map(|&l| pg.resolve(l))
            .unwrap_or_default();
        let _ = write!(out, "(\"n{}\")-({{{}}}[", edge.src.0, quoted(label));
        write_props(&mut out, pg, &edge.props);
        let _ = writeln!(out, "])->(\"n{}\")", edge.dst.0);
    }
    out
}

fn write_props(out: &mut String, pg: &PropertyGraph, props: &[(s3pg_rdf::Sym, Value)]) {
    for (i, (key, value)) in props.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{}: ", quoted(pg.resolve(*key)));
        write_value(out, value);
    }
}

fn write_value(out: &mut String, value: &Value) {
    match value {
        Value::String(s) => out.push_str(&quoted(s)),
        Value::Int(i) => {
            let _ = write!(out, "{i}");
        }
        Value::Float(f) => {
            let _ = write!(out, "{f:?}");
        }
        Value::Bool(b) => {
            let _ = write!(out, "{b}");
        }
        Value::Date(d) => {
            let _ = write!(out, "date{}", quoted(d));
        }
        Value::DateTime(d) => {
            let _ = write!(out, "datetime{}", quoted(d));
        }
        Value::Year(y) => {
            let _ = write!(out, "year\"{y}\"");
        }
        Value::List(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_value(out, item);
            }
            out.push(']');
        }
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Parse a YARS-PG document back into a property graph.
pub fn from_yarspg(input: &str) -> Result<PropertyGraph, YarsError> {
    let mut pg = PropertyGraph::new();
    let mut ids: FxHashMap<String, NodeId> = FxHashMap::default();
    for (lineno, raw) in input.lines().enumerate() {
        let line = raw.trim();
        let n = lineno + 1;
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut cur = Cursor {
            text: line,
            pos: 0,
            line: n,
        };
        cur.expect('(')?;
        let id = cur.string()?;
        if cur.peek() == Some(')') {
            // Edge statement: ("src")-({"label"}[props])->("dst")
            cur.expect(')')?;
            cur.expect('-')?;
            cur.expect('(')?;
            cur.expect('{')?;
            let label = cur.string()?;
            cur.expect('}')?;
            cur.expect('[')?;
            let props = cur.props()?;
            cur.expect(']')?;
            cur.expect(')')?;
            cur.expect('-')?;
            cur.expect('>')?;
            cur.expect('(')?;
            let dst = cur.string()?;
            cur.expect(')')?;
            let src = *ids.get(&id).ok_or_else(|| YarsError {
                line: n,
                message: format!("edge references unknown node {id}"),
            })?;
            let dst = *ids.get(&dst).ok_or_else(|| YarsError {
                line: n,
                message: format!("edge references unknown node {dst}"),
            })?;
            let edge = pg.add_edge(src, dst, &label);
            for (k, v) in props {
                pg.set_edge_prop(edge, &k, v);
            }
        } else {
            // Node statement: ("id"{"l1","l2"}[props])
            cur.expect('{')?;
            let mut labels = Vec::new();
            while cur.peek() == Some('"') {
                labels.push(cur.string()?);
                if cur.peek() == Some(',') {
                    cur.expect(',')?;
                }
            }
            cur.expect('}')?;
            cur.expect('[')?;
            let props = cur.props()?;
            cur.expect(']')?;
            cur.expect(')')?;
            let node = pg.add_node(labels);
            for (k, v) in props {
                pg.set_prop(node, &k, v);
            }
            ids.insert(id, node);
        }
    }
    Ok(pg)
}

struct Cursor<'a> {
    text: &'a str,
    pos: usize,
    line: usize,
}

impl Cursor<'_> {
    fn skip_ws(&mut self) {
        while self.text[self.pos..].starts_with(' ') {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<char> {
        self.skip_ws();
        self.text[self.pos..].chars().next()
    }

    fn expect(&mut self, c: char) -> Result<(), YarsError> {
        self.skip_ws();
        if self.text[self.pos..].starts_with(c) {
            self.pos += c.len_utf8();
            Ok(())
        } else {
            let head: String = self.text[self.pos..].chars().take(20).collect();
            err(self.line, format!("expected '{c}' at '{head}'"))
        }
    }

    fn string(&mut self) -> Result<String, YarsError> {
        self.expect('"')?;
        let mut out = String::new();
        let mut chars = self.text[self.pos..].char_indices();
        while let Some((i, c)) = chars.next() {
            match c {
                '"' => {
                    self.pos += i + 1;
                    return Ok(out);
                }
                '\\' => match chars.next() {
                    Some((_, 'n')) => out.push('\n'),
                    Some((_, e)) => out.push(e),
                    None => break,
                },
                _ => out.push(c),
            }
        }
        err(self.line, "unterminated string")
    }

    fn props(&mut self) -> Result<Vec<(String, Value)>, YarsError> {
        let mut out = Vec::new();
        loop {
            match self.peek() {
                Some(']') | None => break,
                Some(',') => {
                    self.expect(',')?;
                }
                _ => {
                    let key = self.string()?;
                    self.expect(':')?;
                    let value = self.value()?;
                    out.push((key, value));
                }
            }
        }
        Ok(out)
    }

    fn value(&mut self) -> Result<Value, YarsError> {
        match self.peek() {
            Some('"') => Ok(Value::String(self.string()?)),
            Some('[') => {
                self.expect('[')?;
                let mut items = Vec::new();
                loop {
                    match self.peek() {
                        Some(']') => {
                            self.expect(']')?;
                            return Ok(Value::List(items));
                        }
                        Some(',') => {
                            self.expect(',')?;
                        }
                        None => return err(self.line, "unterminated list"),
                        _ => items.push(self.value()?),
                    }
                }
            }
            Some(c) if c.is_ascii_alphabetic() => {
                // date"…", datetime"…", year"…", true, false
                let start = self.pos;
                while self.text[self.pos..]
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_alphabetic())
                {
                    self.pos += 1;
                }
                let word = &self.text[start..self.pos];
                match word {
                    "true" => Ok(Value::Bool(true)),
                    "false" => Ok(Value::Bool(false)),
                    "date" => Ok(Value::Date(self.string()?)),
                    "datetime" => Ok(Value::DateTime(self.string()?)),
                    "year" => {
                        let y = self.string()?;
                        y.parse().map(Value::Year).map_err(|_| YarsError {
                            line: self.line,
                            message: "bad year".into(),
                        })
                    }
                    other => err(self.line, format!("unknown keyword '{other}'")),
                }
            }
            Some(c) if c.is_ascii_digit() || c == '-' => {
                let start = self.pos;
                self.pos += 1;
                let mut float = false;
                while let Some(c) = self.text[self.pos..].chars().next() {
                    if c.is_ascii_digit() {
                        self.pos += 1;
                    } else if c == '.' && !float {
                        float = true;
                        self.pos += 1;
                    } else {
                        break;
                    }
                }
                let text = &self.text[start..self.pos];
                if float {
                    text.parse().map(Value::Float).map_err(|_| YarsError {
                        line: self.line,
                        message: "bad float".into(),
                    })
                } else {
                    text.parse().map(Value::Int).map_err(|_| YarsError {
                        line: self.line,
                        message: "bad integer".into(),
                    })
                }
            }
            other => err(self.line, format!("unexpected value start {other:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::IRI_KEY;

    fn sample() -> PropertyGraph {
        let mut pg = PropertyGraph::new();
        let bob = pg.add_node(["Person", "Student"]);
        pg.set_prop(bob, IRI_KEY, Value::String("http://ex/bob".into()));
        pg.set_prop(bob, "age", Value::Int(24));
        pg.set_prop(bob, "gpa", Value::Float(3.5));
        pg.set_prop(bob, "enrolled", Value::Bool(true));
        pg.set_prop(bob, "since", Value::Date("2020-09-01".into()));
        pg.set_prop(bob, "grad", Value::Year(2024));
        pg.set_prop(
            bob,
            "nick",
            Value::List(vec![
                Value::String("bobby".into()),
                Value::String("rob".into()),
            ]),
        );
        let alice = pg.add_node(["Person"]);
        pg.set_prop(alice, IRI_KEY, Value::String("http://ex/alice".into()));
        let e = pg.add_edge(bob, alice, "advisedBy");
        pg.set_edge_prop(e, "weight", Value::Int(1));
        pg
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let pg = sample();
        let text = to_yarspg(&pg);
        let back = from_yarspg(&text).unwrap();
        assert_eq!(back.node_count(), pg.node_count());
        assert_eq!(back.edge_count(), pg.edge_count());
        let bob = back.node_by_iri("http://ex/bob").unwrap();
        assert_eq!(back.labels_of(bob), vec!["Person", "Student"]);
        assert_eq!(back.prop(bob, "age"), Some(&Value::Int(24)));
        assert_eq!(back.prop(bob, "gpa"), Some(&Value::Float(3.5)));
        assert_eq!(back.prop(bob, "enrolled"), Some(&Value::Bool(true)));
        assert_eq!(
            back.prop(bob, "since"),
            Some(&Value::Date("2020-09-01".into()))
        );
        assert_eq!(back.prop(bob, "grad"), Some(&Value::Year(2024)));
        assert_eq!(
            back.prop(bob, "nick"),
            Some(&Value::List(vec![
                Value::String("bobby".into()),
                Value::String("rob".into())
            ]))
        );
        let e = back.out_edges(bob).next().unwrap();
        assert_eq!(back.edge_prop(e, "weight"), Some(&Value::Int(1)));
    }

    #[test]
    fn output_shape_is_yarspg() {
        let text = to_yarspg(&sample());
        assert!(text.contains("(\"n0\"{\"Person\",\"Student\"}["));
        assert!(text.contains("(\"n0\")-({\"advisedBy\"}["));
        assert!(text.contains("])->(\"n1\")"));
    }

    #[test]
    fn quoted_strings_escape() {
        let mut pg = PropertyGraph::new();
        let n = pg.add_node(["L"]);
        pg.set_prop(n, "text", Value::String("say \"hi\"\\now".into()));
        let back = from_yarspg(&to_yarspg(&pg)).unwrap();
        assert_eq!(
            back.prop(NodeId(0), "text"),
            Some(&Value::String("say \"hi\"\\now".into()))
        );
    }

    #[test]
    fn unknown_node_reference_fails() {
        let text = "# nodes\n(\"n0\"{\"A\"}[])\n# edges\n(\"n9\")-({\"x\"}[])->(\"n0\")\n";
        assert!(from_yarspg(text).is_err());
    }

    #[test]
    fn malformed_lines_fail_with_line_numbers() {
        let e = from_yarspg("garbage").unwrap_err();
        assert_eq!(e.line, 1);
        let e = from_yarspg("# ok\n(\"n0\"{\"A\"[])\n").unwrap_err();
        assert_eq!(e.line, 2);
        // The error message quotes the text at the failure without
        // cutting a character in two.
        let e = from_yarspg("(\"n0\"{\"A\"[éééééééééééé])\n").unwrap_err();
        assert_eq!(e.line, 1);
    }

    #[test]
    fn negative_numbers_parse() {
        let mut pg = PropertyGraph::new();
        let n = pg.add_node(["T"]);
        pg.set_prop(n, "delta", Value::Int(-5));
        pg.set_prop(n, "temp", Value::Float(-1.25));
        let back = from_yarspg(&to_yarspg(&pg)).unwrap();
        assert_eq!(back.prop(NodeId(0), "delta"), Some(&Value::Int(-5)));
        assert_eq!(back.prop(NodeId(0), "temp"), Some(&Value::Float(-1.25)));
    }

    #[test]
    fn empty_graph_roundtrips() {
        let back = from_yarspg(&to_yarspg(&PropertyGraph::new())).unwrap();
        assert_eq!(back.node_count(), 0);
    }
}
