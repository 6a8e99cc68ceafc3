//! A SPARQL subset over [`s3pg_rdf::Graph`].
//!
//! The grammar the parser accepts (keywords are case-insensitive, `#`
//! starts a comment):
//!
//! ```text
//! query      := prefix* SELECT DISTINCT? projection WHERE '{' element* '}' modifier*
//! prefix     := PREFIX name ':' '<' iri '>'
//! projection := var+ | '*' | '(' COUNT '(' DISTINCT? ('*' | var) ')' AS var ')'
//! element    := triples '.'?
//!             | OPTIONAL '{' (term term term '.'?)+ '}' '.'?
//!             | FILTER '(' expr ')' '.'?
//! triples    := term term term (',' term | ';' term term)* ';'?
//! term       := var | '$'name | '<'iri'>' | prefix':'name | 'a' | literal | digits
//! literal    := '"' chars '"' ('^^' ('<'iri'>' | prefix':'name))?
//! expr       := atom (('&&' | '||') expr)?      -- right-associative, one precedence
//! atom       := '!' atom | '(' expr ')' | isLiteral '(' var ')'
//!             | (isIRI | isURI) '(' var ')' | var op ('"' chars '"' | name)
//! op         := '=' | '!=' | '<' | '<=' | '>' | '>='
//! modifier   := ORDER BY (var | ASC '(' var ')' | DESC '(' var ')') | LIMIT n | OFFSET n
//! var        := '?'name
//! ```
//!
//! `$name` is a parameter, bound per evaluation from [`Params`]. A
//! comparison is numeric when both sides parse as `f64` and on the
//! strings otherwise; `NaN` and an unbound variable make it false.
//! ORDER BY is a total order: unbound first, then the keys that parse as a
//! number other than `NaN`, by value, then every other key by its lexical
//! form.
//!
//! Evaluation follows one plan per call, computed once: the join
//! order of the required patterns plus a filter schedule. The order is
//! greedy. A pattern that shares a variable with the patterns already
//! ordered ranks by its index cardinality; a seed candidate (one that
//! joins nothing bound) ranks after those, by its cardinality scaled —
//! past 64 index matches — by the pass rate of the filters it alone
//! binds, measured on its first 64 matches: `card·(pass+1)/(seen+1)`.
//! Each FILTER runs right after the join step that binds its last
//! variable; one that reads a variable no required pattern binds runs
//! after the OPTIONAL groups, which never rebind a required variable.
//! The joins walk [`Graph::matches`] without collecting, on the calling
//! thread. The join, [`explain`] and [`evaluate_outcome_profiled`] all
//! read the same plan; [`evaluate_scan`] is the planner-free oracle.

use crate::profile::{NoProf, PlanNode, ProfHook, ProfSink};
use s3pg_rdf::fxhash::FxHashMap;
use s3pg_rdf::{Graph, Sym, Term, Triple};
use std::borrow::Cow;
use std::fmt;

/// A parse or evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SparqlError(pub String);

impl fmt::Display for SparqlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SPARQL error: {}", self.0)
    }
}

impl std::error::Error for SparqlError {}

fn err<T>(msg: impl Into<String>) -> Result<T, SparqlError> {
    Err(SparqlError(msg.into()))
}

/// A term position in a triple pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PatternTerm {
    /// A variable, by name (without `?`).
    Var(String),
    /// An IRI.
    Iri(String),
    /// A literal with optional datatype (plain = xsd:string).
    Literal {
        lexical: String,
        datatype: Option<String>,
    },
    /// `$name`: a query parameter, substituted with a concrete [`Iri`] or
    /// [`Literal`] term from the caller's [`Params`] map before evaluation.
    /// (This dialect reserves `$` for parameters; `?name` is the variable
    /// syntax.)
    ///
    /// [`Iri`]: PatternTerm::Iri
    /// [`Literal`]: PatternTerm::Literal
    Param(String),
}

/// Parameter bindings for one evaluation: `$name` → concrete term. Values
/// must be [`PatternTerm::Iri`] or [`PatternTerm::Literal`].
pub type Params = FxHashMap<String, PatternTerm>;

/// Every `$param` name a parsed query references (triple patterns of the
/// required and OPTIONAL groups), sorted. Callers use this to reject
/// undeclared and unused parameters with a typed error before evaluation.
pub fn param_names(query: &SelectQuery) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    let walk = |pats: &[TriplePattern], out: &mut std::collections::BTreeSet<String>| {
        for pat in pats {
            for term in [&pat.s, &pat.p, &pat.o] {
                if let PatternTerm::Param(name) = term {
                    out.insert(name.clone());
                }
            }
        }
    };
    walk(&query.patterns, &mut out);
    for group in &query.optionals {
        walk(group, &mut out);
    }
    out
}

/// Replace every `$param` term with its bound value. Fails on an unbound
/// parameter or a binding that is not a concrete term.
fn substitute(
    patterns: &[TriplePattern],
    params: &Params,
) -> Result<Vec<TriplePattern>, SparqlError> {
    let sub = |term: &PatternTerm| -> Result<PatternTerm, SparqlError> {
        match term {
            PatternTerm::Param(name) => match params.get(name) {
                Some(t @ (PatternTerm::Iri(_) | PatternTerm::Literal { .. })) => Ok(t.clone()),
                Some(_) => err(format!("parameter ${name} must bind an IRI or literal")),
                None => err(format!("parameter ${name} is not bound")),
            },
            other => Ok(other.clone()),
        }
    };
    patterns
        .iter()
        .map(|pat| {
            Ok(TriplePattern {
                s: sub(&pat.s)?,
                p: sub(&pat.p)?,
                o: sub(&pat.o)?,
            })
        })
        .collect()
}

/// One `s p o .` pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TriplePattern {
    pub s: PatternTerm,
    pub p: PatternTerm,
    pub o: PatternTerm,
}

/// A FILTER expression.
#[derive(Debug, Clone, PartialEq)]
pub enum FilterExpr {
    IsLiteral(String),
    IsIri(String),
    Compare {
        var: String,
        op: CompareOp,
        value: String,
    },
    And(Box<FilterExpr>, Box<FilterExpr>),
    Or(Box<FilterExpr>, Box<FilterExpr>),
    Not(Box<FilterExpr>),
}

/// Comparison operators in FILTER.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

/// A parsed SELECT query.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectQuery {
    /// Projected variable names; empty means `*` (all, in first-seen order).
    pub vars: Vec<String>,
    pub distinct: bool,
    /// `SELECT (COUNT(...) AS ?alias)` aggregate projection.
    pub aggregate: Option<CountAggregate>,
    pub patterns: Vec<TriplePattern>,
    /// `OPTIONAL { … }` groups (left-join semantics, evaluated after the
    /// required patterns).
    pub optionals: Vec<Vec<TriplePattern>>,
    pub filters: Vec<FilterExpr>,
    /// `ORDER BY (ASC|DESC)?(?var)`.
    pub order_by: Option<(String, bool)>,
    pub offset: Option<usize>,
    pub limit: Option<usize>,
}

/// A `COUNT` aggregate: `COUNT(*)` (var `None`) or
/// `COUNT([DISTINCT] ?var)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CountAggregate {
    pub distinct: bool,
    pub var: Option<String>,
    pub alias: String,
}

// ---- parsing ---------------------------------------------------------------

/// Parse a SELECT query.
pub fn parse(input: &str) -> Result<SelectQuery, SparqlError> {
    let mut p = Parser::new(input);
    p.query()
}

/// Whether `c` may occur in a variable or a prefixed name: SPARQL 1.1's
/// `PN_CHARS` (Unicode letters and digits, `_`, `-`, U+00B7 and the
/// combining ranges), so `?naïve` and `ex:café` are names.
fn is_name_char(c: char) -> bool {
    c.is_alphanumeric()
        || matches!(c, '_' | '-' | '\u{B7}' | '\u{300}'..='\u{36F}' | '\u{203F}'..='\u{2040}')
}

struct Parser<'a> {
    rest: &'a str,
    prefixes: FxHashMap<String, String>,
}

impl<'a> Parser<'a> {
    fn new(input: &'a str) -> Self {
        Parser {
            rest: input,
            prefixes: FxHashMap::default(),
        }
    }

    fn skip_ws(&mut self) {
        loop {
            self.rest = self.rest.trim_start();
            if let Some(after) = self.rest.strip_prefix('#') {
                match after.find('\n') {
                    Some(i) => self.rest = &after[i + 1..],
                    None => self.rest = "",
                }
            } else {
                break;
            }
        }
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        self.skip_ws();
        let len = kw.len();
        if self
            .rest
            .get(..len)
            .is_some_and(|head| head.eq_ignore_ascii_case(kw))
        {
            let boundary_ok = self.rest[len..]
                .chars()
                .next()
                .is_none_or(|c| !is_name_char(c));
            if boundary_ok {
                self.rest = &self.rest[len..];
                return true;
            }
        }
        false
    }

    fn eat_char(&mut self, c: char) -> bool {
        self.skip_ws();
        match self.rest.strip_prefix(c) {
            Some(r) => {
                self.rest = r;
                true
            }
            None => false,
        }
    }

    fn peek_char(&mut self) -> Option<char> {
        self.skip_ws();
        self.rest.chars().next()
    }

    fn name(&mut self) -> String {
        let end = self
            .rest
            .find(|c: char| !is_name_char(c))
            .unwrap_or(self.rest.len());
        let (name, rest) = self.rest.split_at(end);
        self.rest = rest;
        name.to_string()
    }

    fn query(&mut self) -> Result<SelectQuery, SparqlError> {
        while self.eat_keyword("PREFIX") {
            self.skip_ws();
            let pfx = self.name();
            if !self.eat_char(':') {
                return err("expected ':' in PREFIX");
            }
            if !self.eat_char('<') {
                return err("expected '<' in PREFIX");
            }
            let Some(end) = self.rest.find('>') else {
                return err("unterminated PREFIX IRI");
            };
            let iri = self.rest[..end].to_string();
            self.rest = &self.rest[end + 1..];
            self.prefixes.insert(pfx, iri);
        }
        if !self.eat_keyword("SELECT") {
            return err("expected SELECT");
        }
        let distinct = self.eat_keyword("DISTINCT");
        let mut vars = Vec::new();
        let mut star = false;
        let mut aggregate = None;
        if self.peek_char() == Some('(') {
            // (COUNT([DISTINCT] * | ?var) AS ?alias)
            self.eat_char('(');
            if !self.eat_keyword("COUNT") {
                return err("only COUNT aggregates are supported");
            }
            if !self.eat_char('(') {
                return err("expected '(' after COUNT");
            }
            let agg_distinct = self.eat_keyword("DISTINCT");
            let var = if self.eat_char('*') {
                None
            } else if self.eat_char('?') {
                Some(self.name())
            } else {
                return err("expected '*' or '?var' in COUNT");
            };
            if !self.eat_char(')') {
                return err("expected ')' closing COUNT");
            }
            if !self.eat_keyword("AS") || !self.eat_char('?') {
                return err("expected 'AS ?alias' in aggregate");
            }
            let alias = self.name();
            if !self.eat_char(')') {
                return err("expected ')' closing aggregate projection");
            }
            aggregate = Some(CountAggregate {
                distinct: agg_distinct,
                var,
                alias,
            });
        } else {
            loop {
                match self.peek_char() {
                    Some('?') => {
                        self.eat_char('?');
                        vars.push(self.name());
                    }
                    Some('*') if vars.is_empty() => {
                        self.eat_char('*');
                        star = true;
                        break;
                    }
                    _ => break,
                }
            }
            if vars.is_empty() && !star {
                return err("SELECT needs variables or *");
            }
        }
        if !self.eat_keyword("WHERE") {
            return err("expected WHERE");
        }
        if !self.eat_char('{') {
            return err("expected '{'");
        }
        let mut patterns = Vec::new();
        let mut optionals: Vec<Vec<TriplePattern>> = Vec::new();
        let mut filters = Vec::new();
        loop {
            self.skip_ws();
            if self.eat_char('}') {
                break;
            }
            if self.rest.is_empty() {
                return err("unterminated WHERE block");
            }
            if self.eat_keyword("OPTIONAL") {
                if !self.eat_char('{') {
                    return err("expected '{' after OPTIONAL");
                }
                let mut group = Vec::new();
                loop {
                    self.skip_ws();
                    if self.eat_char('}') {
                        break;
                    }
                    if self.rest.is_empty() {
                        return err("unterminated OPTIONAL block");
                    }
                    let s = self.term()?;
                    let p = self.term()?;
                    let o = self.term()?;
                    group.push(TriplePattern { s, p, o });
                    self.eat_char('.');
                }
                if group.is_empty() {
                    return err("empty OPTIONAL block");
                }
                optionals.push(group);
                self.eat_char('.');
                continue;
            }
            if self.eat_keyword("FILTER") {
                if !self.eat_char('(') {
                    return err("expected '(' after FILTER");
                }
                filters.push(self.filter_expr()?);
                if !self.eat_char(')') {
                    return err("expected ')' closing FILTER");
                }
                self.eat_char('.');
                continue;
            }
            let s = self.term()?;
            let p = self.term()?;
            let o = self.term()?;
            patterns.push(TriplePattern { s, p, o });
            // Object lists: `?s :p ?o1, ?o2` and predicate lists with ';'.
            loop {
                if self.eat_char(',') {
                    let o2 = self.term()?;
                    patterns.push(TriplePattern {
                        s: patterns.last().unwrap().s.clone(),
                        p: patterns.last().unwrap().p.clone(),
                        o: o2,
                    });
                } else if self.eat_char(';') {
                    self.skip_ws();
                    if matches!(self.peek_char(), Some('.') | Some('}')) {
                        break;
                    }
                    let p2 = self.term()?;
                    let o2 = self.term()?;
                    patterns.push(TriplePattern {
                        s: patterns.last().unwrap().s.clone(),
                        p: p2,
                        o: o2,
                    });
                } else {
                    break;
                }
            }
            self.eat_char('.');
        }
        // Solution modifiers in any order: ORDER BY, LIMIT, OFFSET.
        let mut order_by = None;
        let mut limit = None;
        let mut offset = None;
        loop {
            if self.eat_keyword("ORDER") {
                if !self.eat_keyword("BY") {
                    return err("expected BY after ORDER");
                }
                let descending = self.eat_keyword("DESC");
                let wrapped = descending || self.eat_keyword("ASC");
                if wrapped && !self.eat_char('(') {
                    return err("expected '(' after ASC or DESC");
                }
                if !self.eat_char('?') {
                    return err("expected '?var' in ORDER BY");
                }
                let var = self.name();
                if wrapped && !self.eat_char(')') {
                    return err("expected ')' closing ORDER BY direction");
                }
                order_by = Some((var, descending));
            } else if self.eat_keyword("LIMIT") {
                self.skip_ws();
                let n = self.name();
                limit = Some(n.parse().map_err(|_| SparqlError("bad LIMIT".into()))?);
            } else if self.eat_keyword("OFFSET") {
                self.skip_ws();
                let n = self.name();
                offset = Some(n.parse().map_err(|_| SparqlError("bad OFFSET".into()))?);
            } else {
                break;
            }
        }
        self.skip_ws();
        if !self.rest.is_empty() {
            let head: String = self.rest.chars().take(30).collect();
            return err(format!("trailing input: {head}"));
        }
        Ok(SelectQuery {
            vars,
            distinct,
            aggregate,
            patterns,
            optionals,
            filters,
            order_by,
            offset,
            limit,
        })
    }

    fn term(&mut self) -> Result<PatternTerm, SparqlError> {
        self.skip_ws();
        match self.rest.chars().next() {
            Some('?') => {
                self.eat_char('?');
                Ok(PatternTerm::Var(self.name()))
            }
            Some('$') => {
                self.eat_char('$');
                let name = self.name();
                if name.is_empty() {
                    return err("expected parameter name after '$'");
                }
                Ok(PatternTerm::Param(name))
            }
            Some('<') => {
                self.eat_char('<');
                let Some(end) = self.rest.find('>') else {
                    return err("unterminated IRI");
                };
                let iri = self.rest[..end].to_string();
                self.rest = &self.rest[end + 1..];
                Ok(PatternTerm::Iri(iri))
            }
            Some('"') => {
                self.eat_char('"');
                let Some(end) = self.rest.find('"') else {
                    return err("unterminated literal");
                };
                let lexical = self.rest[..end].to_string();
                self.rest = &self.rest[end + 1..];
                let datatype = if self.rest.starts_with("^^") {
                    self.rest = &self.rest[2..];
                    match self.term()? {
                        PatternTerm::Iri(iri) => Some(iri),
                        _ => return err("datatype must be an IRI"),
                    }
                } else {
                    None
                };
                Ok(PatternTerm::Literal { lexical, datatype })
            }
            Some(c) if c.is_ascii_digit() => {
                let n = self.name();
                Ok(PatternTerm::Literal {
                    lexical: n,
                    datatype: Some(s3pg_rdf::vocab::xsd::INTEGER.into()),
                })
            }
            Some(c) => {
                let word = self.name();
                if word.is_empty() {
                    return err(format!("unexpected character '{c}'"));
                }
                if word == "a" {
                    return Ok(PatternTerm::Iri(s3pg_rdf::vocab::rdf::TYPE.into()));
                }
                if self.rest.starts_with(':') {
                    self.rest = &self.rest[1..];
                    let local = self.name();
                    match self.prefixes.get(&word) {
                        Some(ns) => Ok(PatternTerm::Iri(format!("{ns}{local}"))),
                        None => err(format!("undefined prefix '{word}:'")),
                    }
                } else {
                    err(format!("unexpected token '{word}'"))
                }
            }
            None => err("unexpected end of query"),
        }
    }

    fn filter_expr(&mut self) -> Result<FilterExpr, SparqlError> {
        let left = self.filter_atom()?;
        self.skip_ws();
        if self.rest.starts_with("&&") {
            self.rest = &self.rest[2..];
            let right = self.filter_expr()?;
            return Ok(FilterExpr::And(Box::new(left), Box::new(right)));
        }
        if self.rest.starts_with("||") {
            self.rest = &self.rest[2..];
            let right = self.filter_expr()?;
            return Ok(FilterExpr::Or(Box::new(left), Box::new(right)));
        }
        Ok(left)
    }

    fn filter_atom(&mut self) -> Result<FilterExpr, SparqlError> {
        self.skip_ws();
        if self.eat_char('!') {
            return Ok(FilterExpr::Not(Box::new(self.filter_atom()?)));
        }
        // Parenthesized sub-expression.
        if self.peek_char() == Some('(') {
            self.eat_char('(');
            let inner = self.filter_expr()?;
            if !self.eat_char(')') {
                return err("expected ')' closing grouped filter");
            }
            return Ok(inner);
        }
        if self.eat_keyword("isLiteral") {
            if !self.eat_char('(') || !self.eat_char('?') {
                return err("expected (?var after isLiteral");
            }
            let var = self.name();
            if !self.eat_char(')') {
                return err("expected ')'");
            }
            return Ok(FilterExpr::IsLiteral(var));
        }
        if self.eat_keyword("isIRI") || self.eat_keyword("isURI") {
            if !self.eat_char('(') || !self.eat_char('?') {
                return err("expected (?var after isIRI");
            }
            let var = self.name();
            if !self.eat_char(')') {
                return err("expected ')'");
            }
            return Ok(FilterExpr::IsIri(var));
        }
        if !self.eat_char('?') {
            return err("expected variable in FILTER");
        }
        let var = self.name();
        self.skip_ws();
        let op = if self.rest.starts_with("!=") {
            self.rest = &self.rest[2..];
            CompareOp::Ne
        } else if self.rest.starts_with(">=") {
            self.rest = &self.rest[2..];
            CompareOp::Ge
        } else if self.rest.starts_with("<=") {
            self.rest = &self.rest[2..];
            CompareOp::Le
        } else if let Some(r) = self.rest.strip_prefix('=') {
            self.rest = r;
            CompareOp::Eq
        } else if let Some(r) = self.rest.strip_prefix('>') {
            self.rest = r;
            CompareOp::Gt
        } else if let Some(r) = self.rest.strip_prefix('<') {
            self.rest = r;
            CompareOp::Lt
        } else {
            return err("expected comparison operator in FILTER");
        };
        self.skip_ws();
        let value = if self.eat_char('"') {
            let Some(end) = self.rest.find('"') else {
                return err("unterminated FILTER literal");
            };
            let v = self.rest[..end].to_string();
            self.rest = &self.rest[end + 1..];
            v
        } else {
            self.name()
        };
        Ok(FilterExpr::Compare { var, op, value })
    }
}

// ---- evaluation ------------------------------------------------------------

/// Variable bindings produced by evaluation: projected variables in query
/// order, each row one solution mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Solutions {
    /// Projected variable names.
    pub vars: Vec<String>,
    /// Rows aligned with `vars`; `None` is an unbound (OPTIONAL) value.
    pub rows: Vec<Vec<Option<Term>>>,
}

impl Solutions {
    /// Number of solutions.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether there are no solutions.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Parse and evaluate `query` over `graph`. When a trace is active on
/// this thread (the server's request span), the plan and evaluation
/// stages record `query_plan` / `query_eval` child spans.
pub fn execute(graph: &Graph, query: &str) -> Result<Solutions, SparqlError> {
    execute_params(graph, query, &Params::default())
}

/// [`execute`] with parameter bindings: `$name` terms in the query are
/// substituted from `params` before evaluation.
pub fn execute_params(
    graph: &Graph,
    query: &str,
    params: &Params,
) -> Result<Solutions, SparqlError> {
    let q = {
        let _span = s3pg_obs::tracer().span_here("query_plan");
        parse(query)?
    };
    let _span = s3pg_obs::tracer().span_here("query_eval");
    match evaluate_outcome_params_inner(graph, &q, params, None)? {
        Outcome::Solutions(s) => Ok(s),
        Outcome::Count { .. } => err("aggregate query: use evaluate_outcome"),
    }
}

/// One position of a compiled pattern.
#[derive(Clone, Copy)]
enum Slot {
    Var(usize),
    /// A constant; `None` when the graph has never interned it, so the
    /// pattern cannot match.
    Const(Option<Term>),
}

struct Compiled {
    s: Slot,
    p: Slot,
    o: Slot,
}

/// A pattern's positions under one row: what the index walk is keyed on,
/// and the slot each position binds where the row leaves it free.
struct Probe {
    s: Option<Term>,
    p: Option<Sym>,
    o: Option<Term>,
    free: [Option<usize>; 3],
}

impl Compiled {
    /// The slots of the pattern's variables.
    fn vars(&self) -> impl Iterator<Item = usize> {
        [self.s, self.p, self.o]
            .into_iter()
            .filter_map(|slot| match slot {
                Slot::Var(i) => Some(i),
                Slot::Const(_) => None,
            })
    }

    /// The pattern under `row`; `None` when it cannot match (a constant
    /// the graph has never interned, or a non-IRI bound as predicate).
    fn probe(&self, row: &[Option<Term>]) -> Option<Probe> {
        let mut free = [None; 3];
        let mut value = |k: usize, slot: Slot| match slot {
            Slot::Var(i) => {
                if row[i].is_none() {
                    free[k] = Some(i);
                }
                Some(row[i])
            }
            Slot::Const(term) => term.map(Some),
        };
        let s = value(0, self.s)?;
        let p = match value(1, self.p)? {
            Some(Term::Iri(p)) => Some(p),
            Some(_) => return None,
            None => None,
        };
        let o = value(2, self.o)?;
        Some(Probe { s, p, o, free })
    }
}

impl Probe {
    /// Bind `t` into the free slots of `row`; false when a variable
    /// repeated within the pattern would take two values.
    #[inline]
    fn bind(&self, t: Triple, row: &mut [Option<Term>]) -> bool {
        for (slot, value) in self.free.into_iter().zip([t.s, Term::Iri(t.p), t.o]) {
            if let Some(i) = slot {
                match row[i] {
                    None => row[i] = Some(value),
                    Some(bound) if bound == value => {}
                    Some(_) => return false,
                }
            }
        }
        true
    }
}

/// Compile pattern terms against the graph's interner.
fn compile_patterns(
    graph: &Graph,
    patterns: &[TriplePattern],
    var_index: &FxHashMap<String, usize>,
) -> Result<Vec<Compiled>, SparqlError> {
    let interner = graph.interner();
    let compile = |term: &PatternTerm| -> Result<Slot, SparqlError> {
        Ok(match term {
            PatternTerm::Var(name) => Slot::Var(var_index[name.as_str()]),
            PatternTerm::Iri(iri) => Slot::Const(interner.get(iri).map(Term::Iri)),
            PatternTerm::Literal { lexical, datatype } => {
                let datatype = datatype.as_deref().unwrap_or(s3pg_rdf::vocab::xsd::STRING);
                Slot::Const(interner.get(lexical).zip(interner.get(datatype)).map(
                    |(lexical, datatype)| {
                        Term::Literal(s3pg_rdf::Literal {
                            lexical,
                            datatype,
                            lang: None,
                        })
                    },
                ))
            }
            PatternTerm::Param(name) => {
                return err(format!("parameter ${name} is not bound"));
            }
        })
    };
    patterns
        .iter()
        .map(|pat| {
            Ok(Compiled {
                s: compile(&pat.s)?,
                p: compile(&pat.p)?,
                o: compile(&pat.o)?,
            })
        })
        .collect()
}

/// A term's string form as FILTER and ORDER BY see it: an IRI or blank
/// node's label, a literal's lexical form.
#[inline]
fn lexical(graph: &Graph, term: Term) -> &str {
    match term {
        Term::Iri(s) | Term::Blank(s) => graph.resolve(s),
        Term::Literal(l) => graph.resolve(l.lexical),
    }
}

impl CompareOp {
    fn holds(self, ord: std::cmp::Ordering) -> bool {
        match self {
            CompareOp::Eq => ord.is_eq(),
            CompareOp::Ne => ord.is_ne(),
            CompareOp::Lt => ord.is_lt(),
            CompareOp::Le => ord.is_le(),
            CompareOp::Gt => ord.is_gt(),
            CompareOp::Ge => ord.is_ge(),
        }
    }
}

/// A FILTER compiled against the variable slots. A comparison's constant
/// is parsed once; each row's value is borrowed from the interner. A
/// variable no pattern binds compiles to a `None` slot and, like an
/// unbound one, fails every test.
enum Test<'q> {
    IsLiteral(Option<usize>),
    IsIri(Option<usize>),
    Compare {
        slot: Option<usize>,
        op: CompareOp,
        value: &'q str,
        /// `value` as a number, if it parses as one.
        number: Option<f64>,
    },
    And(Box<Test<'q>>, Box<Test<'q>>),
    Or(Box<Test<'q>>, Box<Test<'q>>),
    Not(Box<Test<'q>>),
}

impl<'q> Test<'q> {
    fn compile(expr: &'q FilterExpr, var_index: &FxHashMap<String, usize>) -> Test<'q> {
        let slot = |var: &str| var_index.get(var).copied();
        let sub = |e: &'q FilterExpr| Box::new(Test::compile(e, var_index));
        match expr {
            FilterExpr::IsLiteral(v) => Test::IsLiteral(slot(v)),
            FilterExpr::IsIri(v) => Test::IsIri(slot(v)),
            FilterExpr::Compare { var, op, value } => Test::Compare {
                slot: slot(var),
                op: *op,
                value,
                number: value.parse().ok(),
            },
            FilterExpr::And(a, b) => Test::And(sub(a), sub(b)),
            FilterExpr::Or(a, b) => Test::Or(sub(a), sub(b)),
            FilterExpr::Not(a) => Test::Not(sub(a)),
        }
    }

    /// The slots the test reads; `None` when it names a variable no
    /// pattern binds.
    fn slots(&self) -> Option<Vec<usize>> {
        match self {
            Test::IsLiteral(slot) | Test::IsIri(slot) | Test::Compare { slot, .. } => {
                slot.map(|i| vec![i])
            }
            Test::And(a, b) | Test::Or(a, b) => {
                let mut slots = a.slots()?;
                slots.extend(b.slots()?);
                Some(slots)
            }
            Test::Not(a) => a.slots(),
        }
    }

    /// Compare as numbers when both sides parse as `f64`, else as strings;
    /// an unbound variable or a `NaN` operand fails.
    fn eval(&self, graph: &Graph, row: &[Option<Term>]) -> bool {
        match self {
            Test::IsLiteral(slot) => slot.and_then(|i| row[i]).is_some_and(|t| t.is_literal()),
            Test::IsIri(slot) => slot.and_then(|i| row[i]).is_some_and(|t| t.is_iri()),
            Test::Compare {
                slot,
                op,
                value,
                number,
            } => {
                let Some(term) = slot.and_then(|i| row[i]) else {
                    return false;
                };
                let actual = lexical(graph, term);
                let ord = match number.map(|b| (actual.parse::<f64>(), b)) {
                    Some((Ok(a), b)) => a.partial_cmp(&b),
                    _ => Some(actual.cmp(value)),
                };
                ord.is_some_and(|ord| op.holds(ord))
            }
            Test::And(a, b) => a.eval(graph, row) && b.eval(graph, row),
            Test::Or(a, b) => a.eval(graph, row) || b.eval(graph, row),
            Test::Not(a) => !a.eval(graph, row),
        }
    }
}

fn compile_filters<'q>(
    filters: &'q [FilterExpr],
    var_index: &FxHashMap<String, usize>,
) -> Vec<Test<'q>> {
    filters
        .iter()
        .map(|f| Test::compile(f, var_index))
        .collect()
}

/// One join step: the pattern it expands, the planner's estimate of the
/// rows it reads, and the filters that run right after it.
struct Step {
    pattern: usize,
    est_rows: usize,
    filters: Vec<usize>,
}

/// One evaluation's plan, computed once and read by the join, [`explain`]
/// and the profiled path alike.
struct Plan {
    /// The required patterns in join order, each with the filters whose
    /// last variable it binds.
    steps: Vec<Step>,
    /// Filters that read a variable no required pattern binds (an
    /// OPTIONAL-only or unknown one): they run after the OPTIONAL groups.
    tail: Vec<usize>,
}

/// Past this many index matches a seed candidate's estimate is scaled by
/// the pass rate of its own filters, measured on this many matches.
const SAMPLE: usize = 64;

/// The rows a seed candidate (a pattern joining nothing bound) is expected
/// to leave: its index cardinality, scaled — when it exceeds [`SAMPLE`] —
/// by the pass rate of the filters it alone binds on its first [`SAMPLE`]
/// matches, `card·(pass+1)/(seen+1)`. Chains walk in insertion order, so
/// the estimate is deterministic.
fn seed_estimate(graph: &Graph, c: &Compiled, tests: &[Test], row: &[Option<Term>]) -> usize {
    let Some(probe) = c.probe(row) else {
        return 0;
    };
    let card = graph.pattern_cardinality(probe.s, probe.p, probe.o);
    if card <= SAMPLE {
        return card;
    }
    let own: Vec<&Test> = tests
        .iter()
        .filter(|t| {
            t.slots()
                .is_some_and(|slots| slots.iter().all(|i| probe.free.contains(&Some(*i))))
        })
        .collect();
    if own.is_empty() {
        return card;
    }
    let (mut seen, mut pass) = (0usize, 0usize);
    let mut scratch = row.to_vec();
    for t in graph.matches(probe.s, probe.p, probe.o).take(SAMPLE) {
        scratch.copy_from_slice(row);
        seen += 1;
        if probe.bind(t, &mut scratch) && own.iter().all(|f| f.eval(graph, &scratch)) {
            pass += 1;
        }
    }
    card * (pass + 1) / (seen + 1)
}

/// Compute a full greedy join order up front: at each step pick the
/// remaining pattern with the smallest estimate under `row`, preferring
/// patterns that join on a variable an earlier-ordered pattern already
/// binds. A joining pattern's estimate is its index cardinality, a seed
/// candidate's its [`seed_estimate`] under `tests`. Deciding the whole
/// order before execution lets [`explain`] show exactly the order the join
/// runs. The steps carry no filters.
fn order_patterns(
    graph: &Graph,
    compiled: &[Compiled],
    tests: &[Test],
    row: &[Option<Term>],
) -> Vec<Step> {
    let mut bound: Vec<bool> = row.iter().map(Option::is_some).collect();
    let mut remaining: Vec<usize> = (0..compiled.len()).collect();
    let mut seeds: Vec<Option<usize>> = vec![None; compiled.len()];
    let mut steps = Vec::with_capacity(remaining.len());
    while !remaining.is_empty() {
        let (pick_pos, (_, est_rows)) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &pi)| {
                let c = &compiled[pi];
                let Some(probe) = c.probe(row) else {
                    return (pos, (0, 0));
                };
                if c.vars().any(|i| bound[i]) {
                    (
                        pos,
                        (0, graph.pattern_cardinality(probe.s, probe.p, probe.o)),
                    )
                } else {
                    let est = *seeds[pi].get_or_insert_with(|| seed_estimate(graph, c, tests, row));
                    (pos, (1, est))
                }
            })
            .min_by_key(|&(_, key)| key)
            .expect("the loop runs while patterns remain");
        let pattern = remaining.remove(pick_pos);
        for i in compiled[pattern].vars() {
            bound[i] = true;
        }
        steps.push(Step {
            pattern,
            est_rows,
            filters: Vec::new(),
        });
    }
    steps
}

/// The required group's plan: the join order, and each filter scheduled
/// right after the step that binds its last variable. A filter that reads
/// a variable no required pattern binds stays in the tail, after the
/// OPTIONAL groups; it commutes with them, since OPTIONAL never rebinds a
/// required variable.
fn plan(graph: &Graph, compiled: &[Compiled], tests: &[Test], nvars: usize) -> Plan {
    let row = vec![None; nvars];
    let mut steps = order_patterns(graph, compiled, tests, &row);
    let mut pending: Vec<(usize, Vec<usize>)> = Vec::new();
    let mut tail = Vec::new();
    for (j, test) in tests.iter().enumerate() {
        match test.slots() {
            Some(slots) => pending.push((j, slots)),
            None => tail.push(j),
        }
    }
    let mut bound = vec![false; nvars];
    for step in &mut steps {
        for i in compiled[step.pattern].vars() {
            bound[i] = true;
        }
        pending.retain(|(j, slots)| {
            let ready = slots.iter().all(|&i| bound[i]);
            if ready {
                step.filters.push(*j);
            }
            !ready
        });
    }
    tail.extend(pending.into_iter().map(|(j, _)| j));
    tail.sort_unstable();
    Plan { steps, tail }
}

/// Run `steps` over `results`: each step extends every row by the
/// pattern's index matches, then its scheduled filters drop the rows that
/// fail them.
fn join_in_order<P: ProfHook>(
    graph: &Graph,
    compiled: &[Compiled],
    tests: &[Test],
    steps: &[Step],
    results: Vec<Vec<Option<Term>>>,
    prof: P,
) -> Vec<Vec<Option<Term>>> {
    if steps.is_empty() || results.is_empty() {
        return results;
    }
    // Bindings travel through the join as one flat buffer of `stride`
    // slots per row ([`Term`] is `Copy`): each match extends the output by
    // `memcpy` instead of cloning a fresh `Vec` per emitted row, a
    // repeated-variable mismatch just truncates the appended slice, and a
    // filter compacts the buffer in place.
    let stride = results[0].len();
    let mut n_rows = results.len();
    let mut flat: Vec<Option<Term>> = results.concat();
    for step in steps {
        if n_rows == 0 {
            break;
        }
        let started = prof.begin();
        let c = &compiled[step.pattern];
        let mut next: Vec<Option<Term>> = Vec::new();
        let mut next_rows = 0usize;
        for r in 0..n_rows {
            let row = &flat[r * stride..(r + 1) * stride];
            let Some(probe) = c.probe(row) else {
                continue;
            };
            for t in graph.matches(probe.s, probe.p, probe.o) {
                let base = next.len();
                next.extend_from_slice(row);
                if probe.bind(t, &mut next[base..]) {
                    next_rows += 1;
                } else {
                    next.truncate(base);
                }
            }
        }
        flat = next;
        n_rows = next_rows;
        prof.record(format_args!("pat{}", step.pattern), n_rows, started);
        for &j in &step.filters {
            let started = prof.begin();
            let mut kept = 0;
            for r in 0..n_rows {
                if tests[j].eval(graph, &flat[r * stride..(r + 1) * stride]) {
                    flat.copy_within(r * stride..(r + 1) * stride, kept * stride);
                    kept += 1;
                }
            }
            flat.truncate(kept * stride);
            n_rows = kept;
            prof.record(format_args!("filter{j}"), n_rows, started);
        }
    }
    (0..n_rows)
        .map(|r| flat[r * stride..(r + 1) * stride].to_vec())
        .collect()
}

/// Outcome of a query: solution rows, or an aggregate count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Outcome {
    Solutions(Solutions),
    Count { alias: String, value: usize },
}

/// Evaluate a parsed query, rejecting aggregates (see [`evaluate_outcome`]).
pub fn evaluate(graph: &Graph, query: &SelectQuery) -> Result<Solutions, SparqlError> {
    match evaluate_outcome(graph, query)? {
        Outcome::Solutions(s) => Ok(s),
        Outcome::Count { .. } => err("aggregate query: use evaluate_outcome"),
    }
}

/// Evaluate a parsed query over `graph`, producing rows or a count.
pub fn evaluate_outcome(graph: &Graph, query: &SelectQuery) -> Result<Outcome, SparqlError> {
    evaluate_outcome_params_inner(graph, query, &Params::default(), None)
}

/// [`evaluate_outcome`] with parameter bindings: every `$name` term is
/// substituted from `params` before the patterns are compiled against the
/// interner, so parameterized queries parse once and evaluate with
/// per-call values. `_threads` is ignored: evaluation is single-threaded.
/// The argument stays only for `benchmark/src/replay.rs` and goes with
/// ROADMAP 1(b).
pub fn evaluate_outcome_threads_params(
    graph: &Graph,
    query: &SelectQuery,
    params: &Params,
    _threads: usize,
) -> Result<Outcome, SparqlError> {
    evaluate_outcome_params_inner(graph, query, params, None)
}

/// [`evaluate_outcome`] with parameter bindings and per-operator
/// profiling: every join step, filter and solution modifier records rows
/// emitted and wall
/// time into `sink` under the same ids [`explain`] assigns. Counting
/// happens at stage boundaries, so the outcome is bit-identical to the
/// unprofiled evaluation.
pub fn evaluate_outcome_profiled(
    graph: &Graph,
    query: &SelectQuery,
    params: &Params,
    sink: &ProfSink,
) -> Result<Outcome, SparqlError> {
    evaluate_outcome_params_inner(graph, query, params, Some(sink))
}

/// `query` with every `$param` substituted from `params` (borrowed as is
/// when it has none). Fails on an unbound parameter.
fn bind_params<'q>(
    query: &'q SelectQuery,
    params: &Params,
) -> Result<Cow<'q, SelectQuery>, SparqlError> {
    let names = param_names(query);
    if names.is_empty() {
        return Ok(Cow::Borrowed(query));
    }
    for name in &names {
        if !params.contains_key(name) {
            return err(format!("parameter ${name} is not bound"));
        }
    }
    let mut q = query.clone();
    q.patterns = substitute(&q.patterns, params)?;
    q.optionals = q
        .optionals
        .iter()
        .map(|group| substitute(group, params))
        .collect::<Result<_, _>>()?;
    Ok(Cow::Owned(q))
}

fn evaluate_outcome_params_inner(
    graph: &Graph,
    query: &SelectQuery,
    params: &Params,
    prof: Option<&ProfSink>,
) -> Result<Outcome, SparqlError> {
    let query = bind_params(query, params)?;
    // Dispatch once: the unprofiled arm monomorphizes with the zero-sized
    // NoProf hook, so its loop bodies carry no instrumentation at all.
    match prof {
        None => evaluate_outcome_inner(graph, &query, NoProf),
        Some(sink) => evaluate_outcome_inner(graph, &query, sink),
    }
}

/// Collect variables in first-seen order, across required and optional
/// patterns (optional-only variables may be projected and come out
/// unbound). Shared by evaluation and [`explain`] so operator trees use
/// the exact variable universe evaluation binds.
fn register_vars(query: &SelectQuery) -> (FxHashMap<String, usize>, Vec<String>) {
    let mut var_index: FxHashMap<String, usize> = FxHashMap::default();
    let mut var_names: Vec<String> = Vec::new();
    let mut register = |pats: &[TriplePattern]| {
        for pat in pats {
            for term in [&pat.s, &pat.p, &pat.o] {
                if let PatternTerm::Var(name) = term {
                    if !var_index.contains_key(name) {
                        var_index.insert(name.clone(), var_names.len());
                        var_names.push(name.clone());
                    }
                }
            }
        }
    };
    register(&query.patterns);
    for group in &query.optionals {
        register(group);
    }
    (var_index, var_names)
}

fn evaluate_outcome_inner<P: ProfHook>(
    graph: &Graph,
    query: &SelectQuery,
    prof: P,
) -> Result<Outcome, SparqlError> {
    let (var_index, var_names) = register_vars(query);
    let nvars = var_names.len();

    let compiled = compile_patterns(graph, &query.patterns, &var_index)?;
    let tests = compile_filters(&query.filters, &var_index);
    let plan = plan(graph, &compiled, &tests, nvars);
    let start = vec![vec![None; nvars]];
    let mut results = join_in_order(graph, &compiled, &tests, &plan.steps, start, prof);

    for (k, group) in query.optionals.iter().enumerate() {
        let started = prof.begin();
        let compiled_group = compile_patterns(graph, group, &var_index)?;
        results = left_join(results, |row| {
            let steps = order_patterns(graph, &compiled_group, &[], row);
            join_in_order(
                graph,
                &compiled_group,
                &[],
                &steps,
                vec![row.to_vec()],
                NoProf,
            )
        });
        prof.record(format_args!("optional{k}"), results.len(), started);
    }

    for &j in &plan.tail {
        let started = prof.begin();
        results.retain(|row| tests[j].eval(graph, row));
        prof.record(format_args!("filter{j}"), results.len(), started);
    }
    finish(graph, query, &var_index, var_names, results, prof)
}

/// An OPTIONAL group's left join: each row becomes the rows `extend`
/// joins it into, or stays as it is, its group variables unbound, when
/// there are none.
fn left_join(
    rows: Vec<Vec<Option<Term>>>,
    extend: impl Fn(&[Option<Term>]) -> Vec<Vec<Option<Term>>>,
) -> Vec<Vec<Option<Term>>> {
    let mut joined = Vec::with_capacity(rows.len());
    for row in rows {
        let extended = extend(&row);
        if extended.is_empty() {
            joined.push(row);
        } else {
            joined.extend(extended);
        }
    }
    joined
}

/// An ORDER BY key computed once per row: the lexical form and, when it
/// parses to a number other than `NaN`, that number; `None` for an
/// unbound value.
type SortKey<'g> = Option<(&'g str, Option<f64>)>;

fn sort_key(graph: &Graph, value: Option<Term>) -> SortKey<'_> {
    value.map(|t| {
        let text = lexical(graph, t);
        (text, text.parse().ok().filter(|n: &f64| !n.is_nan()))
    })
}

/// The ORDER BY total order: unbound first, then the numeric keys by
/// value, then every other key by its lexical form.
fn compare_keys(a: &SortKey, b: &SortKey) -> std::cmp::Ordering {
    use std::cmp::Ordering;
    match (a, b) {
        (Some((x, nx)), Some((y, ny))) => match (nx, ny) {
            // Neither is NaN, so `partial_cmp` always answers.
            (Some(nx), Some(ny)) => nx.partial_cmp(ny).unwrap_or(Ordering::Equal),
            (Some(_), None) => Ordering::Less,
            (None, Some(_)) => Ordering::Greater,
            (None, None) => x.cmp(y),
        },
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Less,
        (Some(_), None) => Ordering::Greater,
    }
}

/// The solution modifiers over the joined, filtered rows, in evaluation
/// order: COUNT (which ends the query), ORDER BY, projection, DISTINCT,
/// OFFSET, LIMIT.
fn finish<P: ProfHook>(
    graph: &Graph,
    query: &SelectQuery,
    var_index: &FxHashMap<String, usize>,
    var_names: Vec<String>,
    mut results: Vec<Vec<Option<Term>>>,
    prof: P,
) -> Result<Outcome, SparqlError> {
    if let Some(agg) = &query.aggregate {
        let started = prof.begin();
        let value = match &agg.var {
            None => results.len(),
            Some(var) => {
                let Some(&i) = var_index.get(var.as_str()) else {
                    return err(format!("COUNT over unbound variable ?{var}"));
                };
                if agg.distinct {
                    let mut seen = s3pg_rdf::fxhash::FxHashSet::default();
                    results
                        .iter()
                        .filter_map(|row| row[i])
                        .filter(|t| seen.insert(*t))
                        .count()
                } else {
                    results.iter().filter(|row| row[i].is_some()).count()
                }
            }
        };
        prof.record(format_args!("aggregate"), 1, started);
        return Ok(Outcome::Count {
            alias: agg.alias.clone(),
            value,
        });
    }

    // ORDER BY (before projection: the sort variable need not be
    // projected). A stable sort on keys computed once per row.
    if let Some((var, descending)) = &query.order_by {
        let started = prof.begin();
        let Some(&i) = var_index.get(var.as_str()) else {
            return err(format!("ORDER BY unbound variable ?{var}"));
        };
        let mut keyed: Vec<(SortKey, Vec<Option<Term>>)> = results
            .into_iter()
            .map(|row| (sort_key(graph, row[i]), row))
            .collect();
        keyed.sort_by(|(a, _), (b, _)| {
            let ord = compare_keys(a, b);
            if *descending {
                ord.reverse()
            } else {
                ord
            }
        });
        results = keyed.into_iter().map(|(_, row)| row).collect();
        prof.record(format_args!("sort"), results.len(), started);
    }

    // Projection.
    let started = prof.begin();
    let projected: Vec<String> = if query.vars.is_empty() {
        var_names
    } else {
        query.vars.clone()
    };
    let mut proj_idx = Vec::with_capacity(projected.len());
    for v in &projected {
        match var_index.get(v.as_str()) {
            Some(&i) => proj_idx.push(i),
            None => return err(format!("projected variable ?{v} not used in pattern")),
        }
    }
    let mut rows: Vec<Vec<Option<Term>>> = Vec::with_capacity(results.len());
    for row in results {
        rows.push(proj_idx.iter().map(|&i| row[i]).collect());
    }
    prof.record(format_args!("project"), rows.len(), started);
    if query.distinct {
        let started = prof.begin();
        let mut seen = s3pg_rdf::fxhash::FxHashSet::default();
        rows.retain(|r| seen.insert(r.clone()));
        prof.record(format_args!("distinct"), rows.len(), started);
    }
    if let Some(offset) = query.offset {
        let started = prof.begin();
        rows.drain(..offset.min(rows.len()));
        prof.record(format_args!("offset"), rows.len(), started);
    }
    if let Some(limit) = query.limit {
        let started = prof.begin();
        rows.truncate(limit);
        prof.record(format_args!("limit"), rows.len(), started);
    }
    Ok(Outcome::Solutions(Solutions {
        vars: projected,
        rows,
    }))
}

// ---- the planner-free oracle ------------------------------------------------

/// Evaluate `query` with no planner: the required patterns join in textual
/// order over [`Graph::match_pattern_scan`], each OPTIONAL group extends
/// the rows one at a time the same way, every FILTER runs on the joined
/// rows at the end, and the solution modifiers follow. The differential
/// reference for the engine's join order, filter schedule and index
/// walks, as [`crate::cypher::evaluate_scan`] is for Cypher.
pub fn evaluate_scan(graph: &Graph, query: &SelectQuery) -> Result<Outcome, SparqlError> {
    evaluate_scan_params(graph, query, &Params::default())
}

/// [`evaluate_scan`] with parameter bindings.
pub fn evaluate_scan_params(
    graph: &Graph,
    query: &SelectQuery,
    params: &Params,
) -> Result<Outcome, SparqlError> {
    let query = bind_params(query, params)?;
    let (var_index, var_names) = register_vars(&query);
    let compiled = compile_patterns(graph, &query.patterns, &var_index)?;
    let mut rows = scan_join(graph, &compiled, vec![vec![None; var_names.len()]]);
    for group in &query.optionals {
        let compiled_group = compile_patterns(graph, group, &var_index)?;
        rows = left_join(rows, |row| {
            scan_join(graph, &compiled_group, vec![row.to_vec()])
        });
    }
    rows.retain(|row| {
        query
            .filters
            .iter()
            .all(|f| filter_holds(graph, f, &var_index, row))
    });
    finish(graph, &query, &var_index, var_names, rows, NoProf)
}

/// Nested loops in textual order, each pattern matched by a full scan.
fn scan_join(
    graph: &Graph,
    compiled: &[Compiled],
    mut rows: Vec<Vec<Option<Term>>>,
) -> Vec<Vec<Option<Term>>> {
    for c in compiled {
        let mut next = Vec::new();
        for row in &rows {
            let Some(probe) = c.probe(row) else {
                continue;
            };
            for t in graph.match_pattern_scan(probe.s, probe.p, probe.o) {
                let mut extended = row.clone();
                if probe.bind(t, &mut extended) {
                    next.push(extended);
                }
            }
        }
        rows = next;
    }
    rows
}

/// The FILTER semantics written out plainly: render the value, parse both
/// sides as numbers, compare numerically if both parse and as strings
/// otherwise; an unbound or unknown variable fails.
fn filter_holds(
    graph: &Graph,
    filter: &FilterExpr,
    var_index: &FxHashMap<String, usize>,
    row: &[Option<Term>],
) -> bool {
    let value = |var: &str| var_index.get(var).and_then(|&i| row[i]);
    match filter {
        FilterExpr::IsLiteral(v) => value(v).is_some_and(|t| t.is_literal()),
        FilterExpr::IsIri(v) => value(v).is_some_and(|t| t.is_iri()),
        FilterExpr::Compare {
            var,
            op,
            value: constant,
        } => {
            let Some(term) = value(var) else {
                return false;
            };
            let actual = lexical(graph, term).to_string();
            let ord = match (actual.parse::<f64>(), constant.parse::<f64>()) {
                (Ok(a), Ok(b)) => a.partial_cmp(&b),
                _ => Some(actual.as_str().cmp(constant.as_str())),
            };
            ord.is_some_and(|ord| op.holds(ord))
        }
        FilterExpr::And(a, b) => {
            filter_holds(graph, a, var_index, row) && filter_holds(graph, b, var_index, row)
        }
        FilterExpr::Or(a, b) => {
            filter_holds(graph, a, var_index, row) || filter_holds(graph, b, var_index, row)
        }
        FilterExpr::Not(a) => !filter_holds(graph, a, var_index, row),
    }
}

// ---- EXPLAIN ---------------------------------------------------------------

/// Render the query's execution strategy as an operator tree without
/// executing it.
///
/// The tree is the plan [`evaluate_outcome`] runs: triple
/// patterns in join order (`TriplePatternScan` for the seed pattern,
/// `TriplePatternJoin` for each subsequent one), each pushed `Filter`
/// directly above the step it runs after, then the OPTIONAL groups, the
/// filters left for the end, and the solution modifiers in evaluation
/// order. Operator ids match the ids [`evaluate_outcome_profiled`]
/// records, so a `PROFILE` run annotates this same tree via
/// [`PlanNode::annotate`].
///
/// Pattern arguments are rendered from the *original* query terms, so
/// parameter slots stay value-free (`$name`) in cached/logged plans; join
/// ordering and the `est_rows` estimates (a seed's sampled one included)
/// use the substituted terms, exactly as evaluation does.
pub fn explain(
    graph: &Graph,
    query: &SelectQuery,
    params: &Params,
) -> Result<PlanNode, SparqlError> {
    let bound = bind_params(query, params)?;
    let (var_index, var_names) = register_vars(query);
    let compiled = compile_patterns(graph, &bound.patterns, &var_index)?;
    let tests = compile_filters(&bound.filters, &var_index);
    let plan = plan(graph, &compiled, &tests, var_names.len());
    let filter = |j: usize| {
        PlanNode::new("Filter", format!("filter{j}"))
            .arg("predicate", render_filter(&query.filters[j]))
    };

    let mut node: Option<PlanNode> = None;
    for (i, step) in plan.steps.iter().enumerate() {
        let op = if i == 0 {
            "TriplePatternScan"
        } else {
            "TriplePatternJoin"
        };
        let next = PlanNode::new(op, format!("pat{}", step.pattern))
            .arg("pattern", render_pattern(&query.patterns[step.pattern]))
            .arg("est_rows", step.est_rows.to_string());
        let mut next = match node {
            Some(prev) => prev.feed(next),
            None => next,
        };
        for &j in &step.filters {
            next = next.feed(filter(j));
        }
        node = Some(next);
    }
    let mut node = node.unwrap_or_else(|| PlanNode::new("TriplePatternScan", "pat0"));
    for (k, group) in query.optionals.iter().enumerate() {
        let rendered: Vec<String> = group.iter().map(render_pattern).collect();
        node = node.feed(
            PlanNode::new("OptionalJoin", format!("optional{k}"))
                .arg("patterns", rendered.join(" . ")),
        );
    }
    for &j in &plan.tail {
        node = node.feed(filter(j));
    }
    if let Some(agg) = &query.aggregate {
        let mut agg_node = PlanNode::new("Aggregate", "aggregate").arg(
            "count",
            match &agg.var {
                Some(v) => format!("?{v}"),
                None => "*".to_string(),
            },
        );
        if agg.distinct {
            agg_node = agg_node.arg("distinct", "true");
        }
        // COUNT short-circuits the remaining modifiers, like evaluation.
        return Ok(node.feed(agg_node.arg("as", format!("?{}", agg.alias))));
    }
    if let Some((var, descending)) = &query.order_by {
        node = node.feed(
            PlanNode::new("Sort", "sort")
                .arg("key", format!("?{var}"))
                .arg("dir", if *descending { "desc" } else { "asc" }),
        );
    }
    let projected: Vec<String> = if query.vars.is_empty() {
        var_names
    } else {
        query.vars.clone()
    };
    let vars: Vec<String> = projected.iter().map(|v| format!("?{v}")).collect();
    node = node.feed(PlanNode::new("Projection", "project").arg("vars", vars.join(", ")));
    if query.distinct {
        node = node.feed(PlanNode::new("Distinct", "distinct"));
    }
    if let Some(offset) = query.offset {
        node = node.feed(PlanNode::new("Skip", "offset").arg("n", offset.to_string()));
    }
    if let Some(limit) = query.limit {
        node = node.feed(PlanNode::new("Limit", "limit").arg("n", limit.to_string()));
    }
    Ok(node)
}

fn render_pattern_term(term: &PatternTerm) -> String {
    match term {
        PatternTerm::Var(name) => format!("?{name}"),
        PatternTerm::Iri(iri) => format!("<{iri}>"),
        PatternTerm::Literal { lexical, datatype } => match datatype {
            Some(dt) => format!("\"{lexical}\"^^<{dt}>"),
            None => format!("\"{lexical}\""),
        },
        PatternTerm::Param(name) => format!("${name}"),
    }
}

fn render_pattern(pat: &TriplePattern) -> String {
    format!(
        "{} {} {}",
        render_pattern_term(&pat.s),
        render_pattern_term(&pat.p),
        render_pattern_term(&pat.o)
    )
}

fn render_filter(filter: &FilterExpr) -> String {
    match filter {
        FilterExpr::IsLiteral(v) => format!("isLiteral(?{v})"),
        FilterExpr::IsIri(v) => format!("isIRI(?{v})"),
        FilterExpr::Compare { var, op, value } => {
            let sym = match op {
                CompareOp::Eq => "=",
                CompareOp::Ne => "!=",
                CompareOp::Lt => "<",
                CompareOp::Le => "<=",
                CompareOp::Gt => ">",
                CompareOp::Ge => ">=",
            };
            format!("?{var} {sym} \"{value}\"")
        }
        FilterExpr::And(a, b) => format!("({} && {})", render_filter(a), render_filter(b)),
        FilterExpr::Or(a, b) => format!("({} || {})", render_filter(a), render_filter(b)),
        FilterExpr::Not(a) => format!("!({})", render_filter(a)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3pg_rdf::parser::parse_turtle;

    fn graph() -> Graph {
        parse_turtle(
            r#"
@prefix : <http://ex/> .
:bob a :Student ; :regNo "Bs12" ; :takesCourse :db, "Self Study" ; :age 24 .
:carol a :Student ; :regNo "Bs13" ; :takesCourse :db ; :age 22 .
:alice a :Professor ; :name "Alice" ; :worksFor :cs .
:db a :Course ; :title "Databases" .
:cs a :Department .
"#,
        )
        .unwrap()
    }

    #[test]
    fn parameterized_object_iri_and_literal() {
        let g = graph();
        let q = parse("PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:takesCourse $course . }")
            .unwrap();
        assert_eq!(
            param_names(&q).into_iter().collect::<Vec<_>>(),
            vec!["course".to_string()]
        );
        // Same parsed query, two bindings: an IRI object and a literal one.
        let mut params = Params::default();
        params.insert("course".into(), PatternTerm::Iri("http://ex/db".into()));
        let sols = match evaluate_outcome_threads_params(&g, &q, &params, 1).unwrap() {
            Outcome::Solutions(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(sols.len(), 2); // bob and carol take :db
        params.insert(
            "course".into(),
            PatternTerm::Literal {
                lexical: "Self Study".into(),
                datatype: None,
            },
        );
        let sols = match evaluate_outcome_threads_params(&g, &q, &params, 1).unwrap() {
            Outcome::Solutions(s) => s,
            other => panic!("{other:?}"),
        };
        assert_eq!(sols.len(), 1); // only bob
    }

    #[test]
    fn parameterized_subject_and_predicate() {
        let g = graph();
        let mut params = Params::default();
        params.insert("s".into(), PatternTerm::Iri("http://ex/bob".into()));
        params.insert("p".into(), PatternTerm::Iri("http://ex/regNo".into()));
        let sols = execute_params(&g, "SELECT ?v WHERE { $s $p ?v . }", &params).unwrap();
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn unbound_parameter_is_an_error() {
        let g = graph();
        let e =
            execute_params(&g, "SELECT ?s WHERE { ?s ?p $o . }", &Params::default()).unwrap_err();
        assert!(e.0.contains("$o"), "{e}");
        // The params-free evaluation path reports it too (compile stage).
        let q = parse("SELECT ?s WHERE { ?s ?p $o . }").unwrap();
        assert!(evaluate(&g, &q).is_err());
    }

    #[test]
    fn variable_parameter_binding_is_rejected() {
        let g = graph();
        let mut params = Params::default();
        params.insert("o".into(), PatternTerm::Var("v".into()));
        let e = execute_params(&g, "SELECT ?s WHERE { ?s ?p $o . }", &params).unwrap_err();
        assert!(e.0.contains("must bind"), "{e}");
    }

    #[test]
    fn single_pattern_by_type() {
        let sols = execute(
            &graph(),
            "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Student . }",
        )
        .unwrap();
        assert_eq!(sols.len(), 2);
        assert_eq!(sols.vars, vec!["s"]);
    }

    #[test]
    fn join_two_patterns() {
        let sols = execute(
            &graph(),
            "PREFIX ex: <http://ex/> SELECT ?s ?c WHERE { ?s a ex:Student . ?s ex:takesCourse ?c . }",
        )
        .unwrap();
        // bob→db, bob→"Self Study", carol→db
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn bound_object_literal() {
        let sols = execute(
            &graph(),
            r#"PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:regNo "Bs12" . }"#,
        )
        .unwrap();
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn filter_is_literal_and_is_iri() {
        let q = "PREFIX ex: <http://ex/> SELECT ?c WHERE { ?s ex:takesCourse ?c . FILTER(isLiteral(?c)) }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
        let q =
            "PREFIX ex: <http://ex/> SELECT ?c WHERE { ?s ex:takesCourse ?c . FILTER(isIRI(?c)) }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 2);
    }

    #[test]
    fn filter_numeric_comparison() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a . FILTER(?a > 23) }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a . FILTER(?a >= 22) }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 2);
    }

    #[test]
    fn filter_boolean_combinators() {
        let q = r#"PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a . FILTER(?a > 21 && ?a < 23) }"#;
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
        let q = r#"PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:age ?a . FILTER(!(?a = 24)) }"#;
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
    }

    #[test]
    fn distinct_dedups() {
        let q = "PREFIX ex: <http://ex/> SELECT DISTINCT ?c WHERE { ?s ex:takesCourse ?c . FILTER(isIRI(?c)) }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
    }

    #[test]
    fn limit_truncates() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Student . } LIMIT 1";
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
    }

    #[test]
    fn select_star_projects_all_vars() {
        let q = "PREFIX ex: <http://ex/> SELECT * WHERE { ?s ex:takesCourse ?c . }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.vars, vec!["s", "c"]);
        assert_eq!(sols.len(), 3);
    }

    #[test]
    fn semicolon_predicate_lists() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Student ; ex:regNo ?r . }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 2);
    }

    #[test]
    fn unknown_constants_yield_empty() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Wizard . }";
        assert_eq!(execute(&graph(), q).unwrap().len(), 0);
    }

    #[test]
    fn triangle_join_uses_shared_vars() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s ?d WHERE { ?s ex:worksFor ?d . ?d a ex:Department . }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 1);
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(execute(&graph(), "SELECT WHERE { }").is_err());
        assert!(execute(&graph(), "SELECT ?x { ?x a ex:Y }").is_err());
        assert!(execute(
            &graph(),
            "PREFIX ex: <http://ex/> SELECT ?x WHERE { ?x a nope:Y . }"
        )
        .is_err());
        // Text that a byte offset would cut inside `é`: in `eat_keyword`,
        // and in the `trailing input` message. `?abcdé` is a name, so the
        // first is an error only for projecting the unbound `?s`.
        assert!(execute(&graph(), "SELECT ?s WHERE { ?abcdé ?p ?o }").is_err());
        assert!(parse("SELECT ?s WHERE { ?s ?p ?o } abcdefgéééééééééééé").is_err());
    }

    #[test]
    fn names_take_unicode_letters_and_other_characters_are_named() {
        let q = parse("SELECT ?naïve WHERE { ?naïve ?p ?o }").unwrap();
        assert_eq!(q.vars, ["naïve"]);
        let q = parse("PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s ex:café ?o }").unwrap();
        assert_eq!(
            q.patterns[0].p,
            PatternTerm::Iri("http://ex/café".to_string())
        );
        // A keyword ends where the name characters end.
        assert!(parse("SELECTé ?s WHERE { ?s ?p ?o }").is_err());
        // Language tags are not supported: the error names the `@`.
        assert_eq!(
            parse("SELECT ?s WHERE { ?s <p> \"x\"@en }").unwrap_err().0,
            "unexpected character '@'"
        );
    }

    #[test]
    fn projecting_unused_variable_is_an_error() {
        let q = "PREFIX ex: <http://ex/> SELECT ?nope WHERE { ?s a ex:Student . }";
        assert!(execute(&graph(), q).is_err());
    }

    #[test]
    fn optional_keeps_unextended_rows() {
        // Only alice has a name; students have none.
        let q = "PREFIX ex: <http://ex/> SELECT ?s ?n WHERE { ?s a ex:Student . OPTIONAL { ?s ex:name ?n } }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 2);
        assert!(sols.rows.iter().all(|r| r[0].is_some()));
        assert!(sols.rows.iter().all(|r| r[1].is_none()));
    }

    #[test]
    fn optional_extends_when_possible() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s ?w WHERE { ?s a ex:Professor . OPTIONAL { ?s ex:worksFor ?w } }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 1);
        assert!(sols.rows[0][1].is_some());
    }

    #[test]
    fn optional_multiplies_matches() {
        // takesCourse is multi-valued: the optional produces one row per value.
        let q = "PREFIX ex: <http://ex/> SELECT ?s ?c WHERE { ?s a ex:Student . OPTIONAL { ?s ex:takesCourse ?c } }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 3); // bob×2, carol×1
    }

    #[test]
    fn two_optional_groups_are_independent() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s ?n ?a WHERE { ?s a ex:Student .                  OPTIONAL { ?s ex:name ?n } OPTIONAL { ?s ex:age ?a } }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 2);
        assert!(sols.rows.iter().all(|r| r[1].is_none() && r[2].is_some()));
    }

    #[test]
    fn empty_optional_is_rejected() {
        assert!(execute(&graph(), "SELECT ?s WHERE { ?s ?p ?o . OPTIONAL { } }").is_err());
    }

    #[test]
    fn count_star_aggregate() {
        let q =
            parse("PREFIX ex: <http://ex/> SELECT (COUNT(*) AS ?c) WHERE { ?s a ex:Student . }")
                .unwrap();
        let out = evaluate_outcome(&graph(), &q).unwrap();
        assert_eq!(
            out,
            Outcome::Count {
                alias: "c".into(),
                value: 2
            }
        );
    }

    #[test]
    fn count_distinct_variable() {
        let q = parse(
            "PREFIX ex: <http://ex/> SELECT (COUNT(DISTINCT ?c) AS ?n) WHERE { ?s ex:takesCourse ?c . }",
        )
        .unwrap();
        let out = evaluate_outcome(&graph(), &q).unwrap();
        // db, "Self Study" → 2 distinct values over 3 rows.
        assert_eq!(
            out,
            Outcome::Count {
                alias: "n".into(),
                value: 2
            }
        );
    }

    #[test]
    fn evaluate_rejects_aggregates() {
        let q = parse("SELECT (COUNT(*) AS ?c) WHERE { ?s ?p ?o . }").unwrap();
        assert!(evaluate(&graph(), &q).is_err());
    }

    #[test]
    fn order_by_ascending_and_descending() {
        let q = "PREFIX ex: <http://ex/> SELECT ?a WHERE { ?s ex:age ?a . } ORDER BY ?a";
        let ascending = execute(&graph(), q).unwrap();
        let ages: Vec<String> = ascending
            .rows
            .iter()
            .map(|r| match r[0] {
                Some(Term::Literal(l)) => graph().resolve(l.lexical).to_string(),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(ages, vec!["22", "24"]);
        let q = "PREFIX ex: <http://ex/> SELECT ?a WHERE { ?s ex:age ?a . } ORDER BY DESC(?a)";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 2);
        let q = "PREFIX ex: <http://ex/> SELECT ?a WHERE { ?s ex:age ?a . } ORDER BY ASC(?a)";
        assert_eq!(execute(&graph(), q).unwrap().rows, ascending.rows);
    }

    #[test]
    fn offset_skips_rows() {
        let q = "PREFIX ex: <http://ex/> SELECT ?a WHERE { ?s ex:age ?a . } ORDER BY ?a OFFSET 1";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 1);
        let q = "PREFIX ex: <http://ex/> SELECT ?a WHERE { ?s ex:age ?a . } ORDER BY ?a LIMIT 1 OFFSET 1";
        assert_eq!(execute(&graph(), q).unwrap().len(), 1);
    }

    #[test]
    fn order_by_unbound_variable_errors() {
        let q = "PREFIX ex: <http://ex/> SELECT ?s WHERE { ?s a ex:Student . } ORDER BY ?nope";
        assert!(execute(&graph(), q).is_err());
    }

    /// The ORDER BY order written out plainly over rendered terms: unbound
    /// first, then numbers (`NaN` is not one), then strings.
    fn compare_terms_rendered(
        graph: &Graph,
        a: Option<Term>,
        b: Option<Term>,
    ) -> std::cmp::Ordering {
        let render = |t: Term| match t {
            Term::Iri(s) | Term::Blank(s) => graph.resolve(s).to_string(),
            Term::Literal(l) => graph.resolve(l.lexical).to_string(),
        };
        let rank = |t: Option<Term>| match t {
            None => (0, None, String::new()),
            Some(t) => {
                let text = render(t);
                match text.parse::<f64>() {
                    Ok(n) if !n.is_nan() => (1, Some(n), String::new()),
                    _ => (2, None, text),
                }
            }
        };
        let (ra, na, ta) = rank(a);
        let (rb, nb, tb) = rank(b);
        ra.cmp(&rb)
            .then_with(|| match (na, nb) {
                (Some(x), Some(y)) => x.partial_cmp(&y).unwrap(),
                _ => std::cmp::Ordering::Equal,
            })
            .then_with(|| ta.cmp(&tb))
    }

    #[test]
    fn sort_keys_order_rows_like_the_rendering_comparator() {
        let mut g = Graph::new();
        // Mixed numeric and non-numeric keys, `NaN`, infinities and the
        // empty string: the order must stay total on all of them.
        let mut values: Vec<Option<Term>> = [
            "10", "9", "abc", "1e3", "-3.5", "inf", "", "007", "7", "lit", "2x", "NaN", "-inf",
            "-0", "0",
        ]
        .iter()
        .map(|v| Some(g.string_literal(v)))
        .collect();
        values.push(Some(g.integer_literal(12)));
        values.push(Some(g.intern_iri("http://ex/9")));
        values.push(Some(g.intern_blank("b1")));
        values.push(None);
        let mut rng = s3pg_rdf::rng::XorShiftRng::seed_from_u64(0x50F7);
        for round in 0..40 {
            // (value, original position): ties must keep their order.
            let rows: Vec<(Option<Term>, usize)> = (0..rng.random_range(0..40usize))
                .map(|i| (values[rng.random_range(0..values.len())], i))
                .collect();
            for descending in [false, true] {
                let directed =
                    |ord: std::cmp::Ordering| if descending { ord.reverse() } else { ord };
                let mut plain = rows.clone();
                plain.sort_by(|(a, _), (b, _)| directed(compare_terms_rendered(&g, *a, *b)));
                let mut keyed: Vec<(SortKey, usize)> =
                    rows.iter().map(|&(v, i)| (sort_key(&g, v), i)).collect();
                keyed.sort_by(|(a, _), (b, _)| directed(compare_keys(a, b)));
                let plain: Vec<usize> = plain.into_iter().map(|(_, i)| i).collect();
                let keyed: Vec<usize> = keyed.into_iter().map(|(_, i)| i).collect();
                assert_eq!(plain, keyed, "round {round} descending {descending}");
            }
        }
    }

    /// `?s ex:key ?k` for every key, plus one subject with no key, sorted
    /// by `?k`: the rendered keys in answer order, `None` for unbound.
    fn order_by_keys(keys: &[&str], descending: bool) -> Vec<Option<String>> {
        let mut g = Graph::new();
        let (a, class, key) = (
            g.intern("http://ex/a"),
            g.intern_iri("http://ex/C"),
            g.intern("http://ex/key"),
        );
        for i in 0..=keys.len() {
            let s = g.intern_iri(&format!("http://ex/s{i}"));
            g.insert(s, a, class);
            if let Some(k) = keys.get(i) {
                let o = g.string_literal(k);
                g.insert(s, key, o);
            }
        }
        let dir = if descending { "DESC(?k)" } else { "?k" };
        let q = format!(
            "SELECT ?k WHERE {{ ?s <http://ex/a> <http://ex/C> . OPTIONAL {{ ?s <http://ex/key> ?k }} }} ORDER BY {dir}"
        );
        execute(&g, &q)
            .unwrap()
            .rows
            .iter()
            .map(|r| r[0].map(|t| lexical(&g, t).to_string()))
            .collect()
    }

    fn some(keys: &[&str]) -> Vec<Option<String>> {
        keys.iter().map(|k| Some(k.to_string())).collect()
    }

    #[test]
    fn order_by_breaks_the_mixed_key_cycle() {
        // Pairwise, numbers-or-strings compares "10" < "2x" < "3" < "10".
        let mut want = vec![None];
        want.extend(some(&["3", "10", "2x"]));
        assert_eq!(order_by_keys(&["10", "2x", "3"], false), want);
        assert_eq!(order_by_keys(&["2x", "3", "10"], false), want);
        want.reverse();
        assert_eq!(order_by_keys(&["3", "10", "2x"], true), want);
    }

    #[test]
    fn order_by_sorts_nan_empty_and_infinities_as_a_total_order() {
        let mut want = vec![None];
        want.extend(some(&["-inf", "-2", "0.5", "7", "inf", "", "NaN", "abc"]));
        assert_eq!(
            order_by_keys(&["NaN", "7", "", "inf", "abc", "-2", "-inf", "0.5"], false),
            want
        );
    }

    /// A threshold only the last few ranks pass: the rank pattern's
    /// sampled estimate (no pass in its first 64 matches) undercuts the
    /// equally large link pattern, so it seeds, and the filter runs right
    /// above it.
    #[test]
    fn explain_puts_the_filter_above_the_sampled_seed() {
        let mut g = Graph::new();
        for i in 0..200 {
            let t = g.intern_iri(&format!("http://ex/t{i}"));
            let rank = g.intern("http://ex/rank");
            let r = g.integer_literal(i);
            g.insert(t, rank, r);
            g.insert_iri(
                &format!("http://ex/s{}", i % 10),
                "http://ex/linksTo",
                &format!("http://ex/t{i}"),
            );
        }
        let text = "PREFIX ex: <http://ex/> SELECT ?s ?r WHERE { ?s ex:linksTo ?t . ?t ex:rank ?r . FILTER(?r > 195) }";
        let q = parse(text).unwrap();
        let plan = explain(&g, &q, &Params::default()).unwrap();
        let filter = plan.find("filter0").expect("a filter node");
        assert_eq!(filter.children.len(), 1);
        let seed = &filter.children[0];
        assert_eq!(
            (seed.op.as_str(), seed.id.as_str()),
            ("TriplePatternScan", "pat1")
        );
        // 200 matches, none of the first 64 pass: 200·(0+1)/(64+1).
        assert!(
            seed.args.contains(&("est_rows".into(), "3".into())),
            "{seed:?}"
        );
        assert!(plan.args.iter().all(|(k, _)| k != "vectorized"));
        assert_eq!(plan.find("pat0").unwrap().op, "TriplePatternJoin");
        assert_eq!(execute(&g, text).unwrap().len(), 4);
    }

    #[test]
    fn variable_predicate() {
        let q = "PREFIX ex: <http://ex/> SELECT DISTINCT ?p WHERE { <http://ex/bob> ?p ?o . }";
        let sols = execute(&graph(), q).unwrap();
        assert_eq!(sols.len(), 4); // rdf:type, regNo, takesCourse, age
    }
}
