//! A Cypher subset over [`s3pg_pg::PropertyGraph`].
//!
//! Covers the query shapes the paper's quality analysis uses (§5.2), e.g.
//! the two translations of Q22:
//!
//! ```text
//! MATCH (n:sch_ShoppingCenter)-[:dbp_address]->(tn)
//! RETURN n.iri AS node_iri, COALESCE(tn.ov, tn.iri) AS tn_iri_or_value
//! ```
//!
//! ```text
//! MATCH (node:sch_ShoppingCenter)-[:sch_address]->(tn)
//! RETURN node.uri AS node_uri, tn.uri AS v
//! UNION ALL
//! MATCH (node:sch_ShoppingCenter)
//! UNWIND node.sch_address AS v
//! RETURN node.uri AS node_uri, v
//! ```
//!
//! Supported grammar: `MATCH` with comma-separated multi-hop path patterns
//! (directed or undirected relationships, multiple labels), `WHERE`,
//! `UNWIND expr AS var`, `RETURN DISTINCT? expr AS alias, …`, `LIMIT`, and
//! `UNION ALL` between single queries. Expressions: property access,
//! variables, literals, `COALESCE`, comparisons, `AND`/`OR`/`NOT`,
//! `IS NULL` / `IS NOT NULL`. NULL propagates as in Cypher; `UNWIND` of
//! NULL produces no rows.

use crate::profile::{NoProf, PlanNode, ProfHook, ProfSink};
use crate::vectorized::Cell;
use s3pg_pg::{EdgeId, NodeId, PgRead, Scalar, Value};
use s3pg_rdf::fxhash::{FxHashMap, FxHashSet};
use std::fmt;
use std::time::Instant;

/// A parse or evaluation error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CypherError(pub String);

impl fmt::Display for CypherError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Cypher error: {}", self.0)
    }
}

impl std::error::Error for CypherError {}

pub(crate) fn err<T>(msg: impl Into<String>) -> Result<T, CypherError> {
    Err(CypherError(msg.into()))
}

// ---- AST -------------------------------------------------------------------

/// A node pattern `(var:Label1:Label2)`.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct NodePattern {
    pub var: Option<String>,
    pub labels: Vec<String>,
}

/// Relationship direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    Out,
    In,
    Undirected,
}

/// A relationship pattern `-[var:label]->`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RelPattern {
    pub var: Option<String>,
    pub labels: Vec<String>,
    pub direction: Direction,
}

/// A path: start node plus hops.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathPattern {
    pub start: NodePattern,
    pub hops: Vec<(RelPattern, NodePattern)>,
}

/// An expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    Var(String),
    Prop(String, String),
    Lit(Value),
    /// `$name`: a query parameter, resolved against the caller-supplied
    /// [`Params`] map at evaluation time. Parameterized queries parse and
    /// plan once; only evaluation sees the concrete values.
    Param(String),
    Null,
    Coalesce(Vec<Expr>),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
    IsNull(Box<Expr>, bool), // bool = negated (IS NOT NULL)
}

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// Whether the operator holds between two operands that compare as
    /// `ord`.
    #[inline]
    pub(crate) fn holds(self, ord: std::cmp::Ordering) -> bool {
        match self {
            CmpOp::Eq => ord.is_eq(),
            CmpOp::Ne => ord.is_ne(),
            CmpOp::Lt => ord.is_lt(),
            CmpOp::Le => ord.is_le(),
            CmpOp::Gt => ord.is_gt(),
            CmpOp::Ge => ord.is_ge(),
        }
    }
}

/// One `MATCH … RETURN …` block.
#[derive(Debug, Clone, PartialEq)]
pub struct SingleQuery {
    pub patterns: Vec<PathPattern>,
    /// `OPTIONAL MATCH` patterns: rows they cannot extend are kept with the
    /// pattern's variables unbound (NULL).
    pub optional_patterns: Vec<PathPattern>,
    pub where_clause: Option<Expr>,
    /// Chained `UNWIND expr AS var` clauses, applied in order.
    pub unwind: Vec<(Expr, String)>,
    /// Dialect extension: a `WHERE` directly after the UNWIND chain,
    /// evaluated against the unwound variables (standard Cypher needs a
    /// `WITH` for this; the paper's translated queries do not).
    pub unwind_where: Option<Expr>,
    pub return_items: Vec<(ReturnItem, String)>,
    pub distinct: bool,
    /// `ORDER BY expr [DESC]` — index into `return_items` plus descending.
    pub order_by: Option<(usize, bool)>,
    pub skip: Option<usize>,
    pub limit: Option<usize>,
}

/// Aggregate functions usable in `RETURN` items.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(*)` / `count(expr)` — rows, or rows where `expr` is non-NULL.
    Count,
    /// `sum(expr)` — numeric sum; NULL and non-numeric values are skipped,
    /// an all-NULL (or empty) group sums to `0`.
    Sum,
    /// `min(expr)` — smallest value under the `ORDER BY` comparator.
    Min,
    /// `max(expr)` — largest value under the `ORDER BY` comparator.
    Max,
}

impl AggFunc {
    /// The lowercase Cypher function name (`count`, `sum`, …).
    pub fn name(self) -> &'static str {
        match self {
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
        }
    }
}

/// One projection: a plain expression or an aggregate. When any aggregate
/// is present the non-aggregated items act as grouping keys (Cypher's
/// implicit GROUP BY).
#[derive(Debug, Clone, PartialEq)]
pub enum ReturnItem {
    Expr(Expr),
    /// `count(*)` (arg `None`) or `count/sum/min/max([DISTINCT] expr)`.
    /// Only `count` accepts `*`; `DISTINCT` changes the result for `count`
    /// and `sum` and is a no-op for `min`/`max`.
    Agg {
        func: AggFunc,
        distinct: bool,
        arg: Option<Expr>,
    },
}

/// A full query: one or more single queries joined by `UNION ALL`.
#[derive(Debug, Clone, PartialEq)]
pub struct CypherQuery {
    pub parts: Vec<SingleQuery>,
}

/// Parameter bindings for one evaluation: `$name` → value.
pub type Params = FxHashMap<String, Value>;

/// Every `$param` name a parsed query references, sorted. Callers use this
/// to reject undeclared (used but unbound) and unused (bound but unused)
/// parameters with a typed error before evaluation.
pub fn param_names(query: &CypherQuery) -> std::collections::BTreeSet<String> {
    let mut out = std::collections::BTreeSet::new();
    for part in &query.parts {
        let mut exprs: Vec<&Expr> = Vec::new();
        exprs.extend(&part.where_clause);
        exprs.extend(part.unwind.iter().map(|(e, _)| e));
        exprs.extend(&part.unwind_where);
        for (item, _) in &part.return_items {
            match item {
                ReturnItem::Expr(e) => exprs.push(e),
                ReturnItem::Agg { arg, .. } => exprs.extend(arg),
            }
        }
        for e in exprs {
            collect_param_names(e, &mut out);
        }
    }
    out
}

fn collect_param_names(expr: &Expr, out: &mut std::collections::BTreeSet<String>) {
    match expr {
        Expr::Param(name) => {
            out.insert(name.clone());
        }
        Expr::Coalesce(args) => {
            for a in args {
                collect_param_names(a, out);
            }
        }
        Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            collect_param_names(a, out);
            collect_param_names(b, out);
        }
        Expr::Not(a) | Expr::IsNull(a, _) => collect_param_names(a, out),
        Expr::Var(_) | Expr::Prop(_, _) | Expr::Lit(_) | Expr::Null => {}
    }
}

// ---- planning --------------------------------------------------------------

/// One equality-predicate pushdown: the start binding of a pattern is
/// enumerated from a `(label, key, value)` equality probe
/// ([`PgRead::nodes_with_label_prop`]) instead of a label scan. The
/// predicate itself stays in the WHERE clause — the probe only has to
/// produce a superset of the matching nodes, so cross-type numeric
/// equality (`Int`/`Float`/`Year`) is handled by probing every equivalent
/// key representation.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Probe {
    pub(crate) label: String,
    pub(crate) key: String,
    pub(crate) keys: ProbeKeys,
}

/// What the probe looks up in the `(label, key, value)` index.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum ProbeKeys {
    /// Literal predicate: index keys whose union covers every scalar the
    /// predicate can equal, computed at plan time.
    Values(Vec<Value>),
    /// `var.key = $param`: the key set depends on the bound value, so it is
    /// resolved against the [`Params`] map at evaluation time. This is what
    /// lets one cached plan serve every parameter value.
    Param(String),
}

/// Execution plan for one [`SingleQuery`].
#[derive(Debug, Clone, PartialEq, Default)]
pub(crate) struct SinglePlan {
    /// Pattern execution order: indices into `SingleQuery::patterns`,
    /// greedily arranged by estimated start cardinality (bound-variable
    /// anchors first, mirroring the SPARQL `order_patterns` order).
    pub(crate) order: Vec<usize>,
    /// Per pattern (aligned with `SingleQuery::patterns`): index probe for
    /// the start binding, when a `WHERE var.key = literal` conjunct applies.
    pub(crate) probes: Vec<Option<Probe>>,
    /// Per pattern (aligned with `SingleQuery::patterns`): evaluate the
    /// pattern *backwards* — its single hop ends in a variable bound by an
    /// earlier pattern, so anchoring at that node and walking the opposite
    /// adjacency list is O(degree) instead of a start-bucket scan per row.
    pub(crate) reversed: Vec<bool>,
    /// Per pattern (aligned with `SingleQuery::patterns`): the start
    /// cardinality estimate at selection time — 0 for a bound anchor, 1
    /// for a reversed pattern, otherwise the probe/bucket size. EXPLAIN
    /// shows it as `est_rows`.
    pub(crate) cost: Vec<usize>,
}

/// A cardinality-ordered execution plan: one `SinglePlan` per UNION ALL
/// part. Plans depend on the graph's statistics, so a cached plan is only
/// valid for the snapshot it was computed against.
#[derive(Debug, Clone, PartialEq)]
pub struct CypherPlan {
    pub(crate) plans: Vec<SinglePlan>,
}

/// Compute an execution plan for a parsed query against `pg`'s current
/// cardinality statistics and indexes. Generic over the storage
/// representation: the mutable and compact forms expose identical
/// statistics, so one plan is valid for both.
pub fn plan<G: PgRead>(pg: &G, query: &CypherQuery) -> CypherPlan {
    CypherPlan {
        plans: query
            .parts
            .iter()
            .map(|part| plan_single(pg, part))
            .collect(),
    }
}

/// The right-hand side of a pushable equality conjunct: a literal value or
/// a parameter slot.
enum EqRhs<'a> {
    Lit(&'a Value),
    Param(&'a str),
}

/// Collect top-level conjuncts of the form `var.key = literal` or
/// `var.key = $param` (either operand order). OR / NOT subtrees contribute
/// nothing.
fn collect_eq_predicates<'a>(expr: &'a Expr, out: &mut Vec<(&'a str, &'a str, EqRhs<'a>)>) {
    match expr {
        Expr::And(a, b) => {
            collect_eq_predicates(a, out);
            collect_eq_predicates(b, out);
        }
        Expr::Cmp(CmpOp::Eq, l, r) => match (&**l, &**r) {
            (Expr::Prop(var, key), Expr::Lit(v)) | (Expr::Lit(v), Expr::Prop(var, key)) => {
                out.push((var, key, EqRhs::Lit(v)))
            }
            (Expr::Prop(var, key), Expr::Param(p)) | (Expr::Param(p), Expr::Prop(var, key)) => {
                out.push((var, key, EqRhs::Param(p)))
            }
            _ => {}
        },
        _ => {}
    }
}

/// Every index key a scalar equal (under [`compare`]) to `lit` can be
/// stored as. `None` means the literal has no safely enumerable key set
/// (huge integral floats map to many `Int`s) — no pushdown then.
fn equivalent_index_keys(lit: &Value) -> Option<Vec<Value>> {
    const EXACT_F64_INT: f64 = 9_007_199_254_740_992.0; // 2^53
    let mut keys = vec![lit.clone()];
    match lit {
        Value::Int(i) => {
            keys.push(Value::Float(*i as f64));
            if *i == 0 {
                keys.push(Value::Float(-0.0));
            }
            if let Ok(y) = i32::try_from(*i) {
                keys.push(Value::Year(y));
            }
        }
        Value::Float(f) => {
            if *f == 0.0 {
                keys.push(Value::Float(-f));
            }
            if f.fract() == 0.0 && f.abs() < EXACT_F64_INT {
                let i = *f as i64;
                keys.push(Value::Int(i));
                if let Ok(y) = i32::try_from(i) {
                    keys.push(Value::Year(y));
                }
            } else if f.fract() == 0.0 {
                // Several Int values round to this float; a probe could miss
                // one, so leave the predicate to the scan + filter.
                return None;
            }
        }
        Value::Year(y) => keys.push(Value::Int(*y as i64)),
        Value::List(_) => return None, // equality with a list never holds
        _ => {}
    }
    Some(keys)
}

fn plan_single<G: PgRead>(pg: &G, q: &SingleQuery) -> SinglePlan {
    let mut eq: Vec<(&str, &str, EqRhs)> = Vec::new();
    if let Some(where_clause) = &q.where_clause {
        collect_eq_predicates(where_clause, &mut eq);
    }
    let probes: Vec<Option<Probe>> = q
        .patterns
        .iter()
        .map(|p| {
            let var = p.start.var.as_deref()?;
            // The (label, key, value) index needs a label to probe under.
            let label = p.start.labels.first()?;
            eq.iter()
                .find(|(v, _, _)| *v == var)
                .and_then(|(_, key, rhs)| {
                    let keys = match rhs {
                        EqRhs::Lit(value) => ProbeKeys::Values(equivalent_index_keys(value)?),
                        EqRhs::Param(name) => ProbeKeys::Param((*name).to_string()),
                    };
                    Some(Probe {
                        label: label.clone(),
                        key: (*key).to_string(),
                        keys,
                    })
                })
        })
        .collect();

    // Greedy order by estimated start cardinality; a pattern whose start
    // variable is already bound anchors in O(degree) and goes first. A
    // single-hop pattern whose *end* variable is bound (a value join like
    // `MATCH (a:X)-[:r]->(v) MATCH (b:Y)-[:r2]->(v)`) can anchor at the
    // bound end and walk the reverse adjacency list — also O(degree), so it
    // ranks just above bound-start anchors.
    let mut bound: FxHashSet<&str> = FxHashSet::default();
    let mut remaining: Vec<usize> = (0..q.patterns.len()).collect();
    let mut order = Vec::with_capacity(remaining.len());
    let mut reversed = vec![false; q.patterns.len()];
    let mut cost = vec![0usize; q.patterns.len()];
    while !remaining.is_empty() {
        let (pos, est, rev) = remaining
            .iter()
            .enumerate()
            .map(|(pos, &pi)| {
                let p = &q.patterns[pi];
                let start_bound = p.start.var.as_deref().is_some_and(|v| bound.contains(v));
                if start_bound {
                    return (pos, 0, false);
                }
                if reversible(p, &bound) {
                    return (pos, 1, true);
                }
                let est = if let Some(probe) = &probes[pi] {
                    match &probe.keys {
                        ProbeKeys::Values(keys) => keys
                            .iter()
                            .map(|k| pg.nodes_with_label_prop(&probe.label, &probe.key, k).len())
                            .sum(),
                        // The value is unknown at plan time; assume an
                        // equality probe is selective.
                        ProbeKeys::Param(_) => 2,
                    }
                } else if let Some(label) = p.start.labels.first() {
                    pg.label_cardinality(label)
                } else {
                    pg.node_count()
                };
                (pos, est.max(2), false)
            })
            .min_by_key(|&(_, est, _)| est)
            .unwrap();
        let pi = remaining.remove(pos);
        reversed[pi] = rev;
        cost[pi] = est;
        for var in pattern_vars(&q.patterns[pi]) {
            bound.insert(var);
        }
        order.push(pi);
    }
    SinglePlan {
        order,
        probes,
        reversed,
        cost,
    }
}

/// Whether a pattern can be evaluated end-to-start: exactly one hop, start
/// variable not yet bound, end variable already bound by an earlier pattern.
fn reversible(p: &PathPattern, bound: &FxHashSet<&str>) -> bool {
    p.hops.len() == 1
        && !p.start.var.as_deref().is_some_and(|v| bound.contains(v))
        && p.hops[0]
            .1
            .var
            .as_deref()
            .is_some_and(|v| bound.contains(v))
}

/// All variable names a path pattern binds (start, relationships, hops).
fn pattern_vars(p: &PathPattern) -> impl Iterator<Item = &str> {
    p.start.var.as_deref().into_iter().chain(
        p.hops
            .iter()
            .flat_map(|(rel, node)| rel.var.as_deref().into_iter().chain(node.var.as_deref())),
    )
}

// ---- explain ---------------------------------------------------------------

/// Render the operator tree [`evaluate_planned_params`] would execute —
/// without executing anything. The tree is the same over either snapshot
/// form: one executor runs both. A `Sort` the executor
/// satisfies with the bounded top-K heap (ORDER BY + LIMIT, no DISTINCT,
/// no aggregates, no OPTIONAL MATCH) renders as `TopKSort` with its bound.
/// Operator ids match the ones [`evaluate_planned_profiled`] records, so
/// [`PlanNode::annotate`](crate::profile::PlanNode::annotate) joins a
/// profiled run onto this exact tree.
pub fn explain(query: &CypherQuery, plan: &CypherPlan) -> PlanNode {
    debug_assert_eq!(plan.plans.len(), query.parts.len());
    let mut parts: Vec<PlanNode> = query
        .parts
        .iter()
        .zip(&plan.plans)
        .enumerate()
        .map(|(i, (part, sp))| explain_single(part, sp, i))
        .collect();
    if parts.len() == 1 {
        parts.pop().unwrap()
    } else {
        let mut union = PlanNode::new("Union", "union").arg("parts", parts.len().to_string());
        union.children = parts;
        union
    }
}

/// An alias of [`explain`]: the operator tree does not depend on the
/// snapshot form. `_threads` is ignored: evaluation is single-threaded.
/// The argument stays only for `benchmark/src/replay.rs` and goes with
/// ROADMAP 1(b).
#[doc(hidden)]
pub fn explain_compact(query: &CypherQuery, plan: &CypherPlan, _threads: usize) -> PlanNode {
    explain(query, plan)
}

/// One UNION part's operator spine, leaf (first executed pattern) first.
fn explain_single(q: &SingleQuery, sp: &SinglePlan, i: usize) -> PlanNode {
    let id = |s: &str| format!("p{i}.{s}");
    // Pattern chain in planned execution order: each pattern's operators
    // take the previous pattern's chain as their innermost input (each
    // pattern expands the batch the previous one produced).
    let mut bound: FxHashSet<&str> = FxHashSet::default();
    let mut chain: Option<PlanNode> = None;
    for &pi in &sp.order {
        let p = &q.patterns[pi];
        let mut node = if sp.reversed[pi] {
            let (rel, end) = &p.hops[0];
            PlanNode::new("ExpandReverse", id(&format!("pat{pi}")))
                .arg("anchor", end.var.clone().unwrap_or_default())
                .arg("rel", render_rel(rel))
                .arg("to", p.start.var.clone().unwrap_or_default())
        } else {
            let start_bound = p.start.var.as_deref().is_some_and(|v| bound.contains(v));
            let mut base = if start_bound {
                PlanNode::new("BoundAnchor", id(&format!("pat{pi}.start")))
                    .arg("var", p.start.var.clone().unwrap_or_default())
            } else if let Some(probe) = &sp.probes[pi] {
                let probe_node = PlanNode::new("NodeIndexProbe", id(&format!("pat{pi}.start")))
                    .arg("label", probe.label.clone())
                    .arg("key", probe.key.clone());
                match &probe.keys {
                    ProbeKeys::Values(vals) => probe_node.arg(
                        "values",
                        vals.iter()
                            .map(|v| v.to_string())
                            .collect::<Vec<_>>()
                            .join(", "),
                    ),
                    ProbeKeys::Param(name) => probe_node.arg("param", format!("${name}")),
                }
            } else if let Some(label) = p.start.labels.first() {
                PlanNode::new("NodeByLabelScan", id(&format!("pat{pi}.start")))
                    .arg("label", label.clone())
            } else {
                PlanNode::new("AllNodesScan", id(&format!("pat{pi}.start")))
            };
            base = base.arg("est_rows", sp.cost[pi].to_string());
            for (h, (rel, target)) in p.hops.iter().enumerate() {
                base = base.feed(
                    PlanNode::new("Expand", id(&format!("pat{pi}.hop{h}")))
                        .arg("rel", render_rel(rel))
                        .arg("to", target.var.clone().unwrap_or_default()),
                );
            }
            base
        };
        // The outermost operator of the pattern carries the profiled id.
        node.id = id(&format!("pat{pi}"));
        for var in pattern_vars(p) {
            bound.insert(var);
        }
        if let Some(prev) = chain.take() {
            push_innermost(&mut node, prev);
        }
        chain = Some(node);
    }
    let mut node = chain.unwrap_or_else(|| PlanNode::new("Empty", id("empty")));
    for (k, pattern) in q.optional_patterns.iter().enumerate() {
        node = node.feed(
            PlanNode::new("OptionalExpand", id(&format!("optional{k}")))
                .arg("pattern", render_pattern(pattern)),
        );
    }
    if let Some(w) = &q.where_clause {
        node = node.feed(PlanNode::new("Filter", id("filter")).arg("predicate", render_expr(w)));
    }
    for (k, (expr, var)) in q.unwind.iter().enumerate() {
        node = node.feed(
            PlanNode::new("Unwind", id(&format!("unwind{k}")))
                .arg("expr", render_expr(expr))
                .arg("as", var.clone()),
        );
    }
    if let Some(w) = &q.unwind_where {
        node = node
            .feed(PlanNode::new("Filter", id("unwind_filter")).arg("predicate", render_expr(w)));
    }
    let has_aggregate = has_aggregate(q);
    let columns = q
        .return_items
        .iter()
        .map(|(_, alias)| alias.as_str())
        .collect::<Vec<_>>()
        .join(", ");
    node = node.feed(if has_aggregate {
        PlanNode::new("Aggregate", id("aggregate")).arg("columns", columns)
    } else {
        PlanNode::new("Projection", id("project")).arg("columns", columns)
    });
    if q.distinct {
        node = node.feed(PlanNode::new("Distinct", id("distinct")));
    }
    if let Some((index, descending)) = q.order_by {
        let mut sort = PlanNode::new("Sort", id("sort"))
            .arg("key", q.return_items[index].1.clone())
            .arg("dir", if descending { "desc" } else { "asc" });
        if crate::morsel::topk_eligible(q) {
            let k = q.skip.unwrap_or(0).saturating_add(q.limit.unwrap_or(0));
            sort.op = "TopKSort".into();
            sort = sort.arg("k", k.to_string());
        }
        node = node.feed(sort);
    }
    if let Some(n) = q.skip {
        node = node.feed(PlanNode::new("Skip", id("skip")).arg("n", n.to_string()));
    }
    if let Some(n) = q.limit {
        node = node.feed(PlanNode::new("Limit", id("limit")).arg("n", n.to_string()));
    }
    node
}

/// Append `prev` under the innermost (first-child spine) operator of
/// `node` — the pattern's scan/anchor, which consumes the previous
/// pattern's rows in the nested-loop expansion.
fn push_innermost(node: &mut PlanNode, prev: PlanNode) {
    match node.children.first_mut() {
        Some(child) => push_innermost(child, prev),
        None => node.children.push(prev),
    }
}

fn render_node_pattern(n: &NodePattern) -> String {
    let labels: String = n.labels.iter().map(|l| format!(":{l}")).collect();
    format!("({}{labels})", n.var.clone().unwrap_or_default())
}

fn render_rel(rel: &RelPattern) -> String {
    let labels = if rel.labels.is_empty() {
        String::new()
    } else {
        format!(":{}", rel.labels.join("|"))
    };
    match rel.direction {
        Direction::Out => format!("-[{labels}]->"),
        Direction::In => format!("<-[{labels}]-"),
        Direction::Undirected => format!("-[{labels}]-"),
    }
}

fn render_pattern(p: &PathPattern) -> String {
    let mut out = render_node_pattern(&p.start);
    for (rel, node) in &p.hops {
        out.push_str(&render_rel(rel));
        out.push_str(&render_node_pattern(node));
    }
    out
}

fn render_expr(e: &Expr) -> String {
    match e {
        Expr::Var(v) => v.clone(),
        Expr::Prop(var, key) => format!("{var}.{key}"),
        Expr::Lit(v) => v.to_string(),
        Expr::Param(name) => format!("${name}"),
        Expr::Null => "NULL".into(),
        Expr::Coalesce(args) => format!(
            "coalesce({})",
            args.iter().map(render_expr).collect::<Vec<_>>().join(", ")
        ),
        Expr::Cmp(op, l, r) => {
            let sym = match op {
                CmpOp::Eq => "=",
                CmpOp::Ne => "<>",
                CmpOp::Lt => "<",
                CmpOp::Le => "<=",
                CmpOp::Gt => ">",
                CmpOp::Ge => ">=",
            };
            format!("{} {sym} {}", render_expr(l), render_expr(r))
        }
        Expr::And(a, b) => format!("({} AND {})", render_expr(a), render_expr(b)),
        Expr::Or(a, b) => format!("({} OR {})", render_expr(a), render_expr(b)),
        Expr::Not(a) => format!("NOT {}", render_expr(a)),
        Expr::IsNull(a, negated) => format!(
            "{} IS {}NULL",
            render_expr(a),
            if *negated { "NOT " } else { "" }
        ),
    }
}

// ---- lexer -----------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Num(f64),
    Int(i64),
    Param(String), // $name
    LParen,
    RParen,
    LBracket,
    RBracket,
    Colon,
    Comma,
    Dot,
    Dash,
    Arrow,     // ->
    BackArrow, // <-
    Lt,
    Gt,
    Le,
    Ge,
    Eq,
    Ne, // <>
    Star,
}

fn tokenize(input: &str) -> Result<Vec<Tok>, CypherError> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let mut out = Vec::new();
    while pos < bytes.len() {
        let b = bytes[pos];
        match b {
            b if (b as char).is_ascii_whitespace() => pos += 1,
            b'/' if bytes.get(pos + 1) == Some(&b'/') => {
                while pos < bytes.len() && bytes[pos] != b'\n' {
                    pos += 1;
                }
            }
            b'(' => {
                out.push(Tok::LParen);
                pos += 1;
            }
            b')' => {
                out.push(Tok::RParen);
                pos += 1;
            }
            b'[' => {
                out.push(Tok::LBracket);
                pos += 1;
            }
            b']' => {
                out.push(Tok::RBracket);
                pos += 1;
            }
            b':' => {
                out.push(Tok::Colon);
                pos += 1;
            }
            b',' => {
                out.push(Tok::Comma);
                pos += 1;
            }
            b'.' => {
                out.push(Tok::Dot);
                pos += 1;
            }
            b'-' if bytes.get(pos + 1) == Some(&b'>') => {
                out.push(Tok::Arrow);
                pos += 2;
            }
            b'-' => {
                // Negative number or dash.
                if bytes.get(pos + 1).is_some_and(u8::is_ascii_digit)
                    && matches!(
                        out.last(),
                        Some(Tok::Eq)
                            | Some(Tok::Ne)
                            | Some(Tok::Lt)
                            | Some(Tok::Gt)
                            | Some(Tok::Le)
                            | Some(Tok::Ge)
                            | Some(Tok::LParen)
                            | Some(Tok::Comma)
                    )
                {
                    let (tok, next) = lex_number(bytes, pos)?;
                    out.push(tok);
                    pos = next;
                } else {
                    out.push(Tok::Dash);
                    pos += 1;
                }
            }
            b'<' if bytes.get(pos + 1) == Some(&b'-') => {
                out.push(Tok::BackArrow);
                pos += 2;
            }
            b'<' if bytes.get(pos + 1) == Some(&b'>') => {
                out.push(Tok::Ne);
                pos += 2;
            }
            b'<' if bytes.get(pos + 1) == Some(&b'=') => {
                out.push(Tok::Le);
                pos += 2;
            }
            b'<' => {
                out.push(Tok::Lt);
                pos += 1;
            }
            b'>' if bytes.get(pos + 1) == Some(&b'=') => {
                out.push(Tok::Ge);
                pos += 2;
            }
            b'>' => {
                out.push(Tok::Gt);
                pos += 1;
            }
            b'=' => {
                out.push(Tok::Eq);
                pos += 1;
            }
            b'*' => {
                out.push(Tok::Star);
                pos += 1;
            }
            b'\'' | b'"' => {
                let quote = b;
                let start = pos + 1;
                let mut end = start;
                let mut text = String::new();
                loop {
                    match bytes.get(end) {
                        Some(&c) if c == quote => break,
                        Some(b'\\') => {
                            match bytes.get(end + 1) {
                                Some(b'n') => text.push('\n'),
                                Some(b't') => text.push('\t'),
                                Some(&c) => text.push(c as char),
                                None => return err("unterminated string"),
                            }
                            end += 2;
                        }
                        Some(&c) => {
                            text.push(c as char);
                            end += 1;
                        }
                        None => return err("unterminated string"),
                    }
                }
                out.push(Tok::Str(text));
                pos = end + 1;
            }
            b'`' => {
                let start = pos + 1;
                let Some(close) = bytes[start..].iter().position(|&c| c == b'`') else {
                    return err("unterminated backtick identifier");
                };
                out.push(Tok::Ident(
                    std::str::from_utf8(&bytes[start..start + close])
                        .map_err(|_| CypherError("invalid UTF-8".into()))?
                        .to_string(),
                ));
                pos = start + close + 1;
            }
            b'0'..=b'9' => {
                let (tok, next) = lex_number(bytes, pos)?;
                out.push(tok);
                pos = next;
            }
            b'$' => {
                let start = pos + 1;
                pos = start;
                while pos < bytes.len() {
                    let c = bytes[pos] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        pos += 1;
                    } else {
                        break;
                    }
                }
                if pos == start {
                    return err("expected parameter name after '$'");
                }
                out.push(Tok::Param(
                    std::str::from_utf8(&bytes[start..pos]).unwrap().to_string(),
                ));
            }
            _ => {
                let start = pos;
                while pos < bytes.len() {
                    let c = bytes[pos] as char;
                    if c.is_ascii_alphanumeric() || c == '_' {
                        pos += 1;
                    } else {
                        break;
                    }
                }
                if pos == start {
                    let c = input.get(pos..).and_then(|r| r.chars().next());
                    let c = c.unwrap_or(b as char);
                    return err(format!("unexpected character '{c}'"));
                }
                out.push(Tok::Ident(
                    std::str::from_utf8(&bytes[start..pos]).unwrap().to_string(),
                ));
            }
        }
    }
    Ok(out)
}

fn lex_number(bytes: &[u8], mut pos: usize) -> Result<(Tok, usize), CypherError> {
    let start = pos;
    if bytes[pos] == b'-' {
        pos += 1;
    }
    let mut is_float = false;
    while pos < bytes.len() {
        match bytes[pos] {
            b'0'..=b'9' => pos += 1,
            b'.' if bytes.get(pos + 1).is_some_and(u8::is_ascii_digit) && !is_float => {
                is_float = true;
                pos += 1;
            }
            _ => break,
        }
    }
    let text = std::str::from_utf8(&bytes[start..pos]).unwrap();
    if is_float {
        Ok((
            Tok::Num(text.parse().map_err(|_| CypherError("bad number".into()))?),
            pos,
        ))
    } else {
        Ok((
            Tok::Int(
                text.parse()
                    .map_err(|_| CypherError("bad integer".into()))?,
            ),
            pos,
        ))
    }
}

// ---- parser ----------------------------------------------------------------

/// Parse a Cypher query.
pub fn parse(input: &str) -> Result<CypherQuery, CypherError> {
    let tokens = tokenize(input)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut parts = vec![p.single_query()?];
    while p.eat_kw("UNION") {
        if !p.eat_kw("ALL") {
            return err("only UNION ALL is supported");
        }
        parts.push(p.single_query()?);
    }
    if p.pos != p.tokens.len() {
        return err("trailing tokens after query");
    }
    let arity = parts[0].return_items.len();
    if parts.iter().any(|q| q.return_items.len() != arity) {
        return err("UNION ALL parts must return the same number of columns");
    }
    Ok(CypherQuery { parts })
}

struct Parser {
    tokens: Vec<Tok>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat(&mut self, tok: &Tok) -> bool {
        if self.peek() == Some(tok) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(w)) = self.peek() {
            if w.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn ident(&mut self, what: &str) -> Result<String, CypherError> {
        match self.next() {
            Some(Tok::Ident(w)) => Ok(w),
            other => err(format!("expected {what}, found {other:?}")),
        }
    }

    fn single_query(&mut self) -> Result<SingleQuery, CypherError> {
        let mut patterns = Vec::new();
        let mut optional_patterns = Vec::new();
        let mut where_clause = None;
        loop {
            let optional = self.eat_kw("OPTIONAL");
            if !self.eat_kw("MATCH") {
                if optional {
                    return err("expected MATCH after OPTIONAL");
                }
                break;
            }
            let sink: &mut Vec<PathPattern> = if optional {
                &mut optional_patterns
            } else {
                &mut patterns
            };
            sink.push(self.path_pattern()?);
            while self.eat(&Tok::Comma) {
                let p = self.path_pattern()?;
                if optional {
                    optional_patterns.push(p);
                } else {
                    patterns.push(p);
                }
            }
            if self.eat_kw("WHERE") {
                let expr = self.expr()?;
                where_clause = Some(match where_clause.take() {
                    Some(prev) => Expr::And(Box::new(prev), Box::new(expr)),
                    None => expr,
                });
            }
        }
        if patterns.is_empty() {
            return err("query must begin with MATCH");
        }
        let mut unwind = Vec::new();
        while self.eat_kw("UNWIND") {
            let e = self.expr()?;
            if !self.eat_kw("AS") {
                return err("expected AS in UNWIND");
            }
            let var = self.ident("UNWIND variable")?;
            unwind.push((e, var));
        }
        let unwind_where = if !unwind.is_empty() && self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        if !self.eat_kw("RETURN") {
            return err("expected RETURN");
        }
        let distinct = self.eat_kw("DISTINCT");
        let mut return_items: Vec<(ReturnItem, String)> = Vec::new();
        loop {
            let item = self.return_item()?;
            let alias = if self.eat_kw("AS") {
                self.ident("alias")?
            } else {
                match &item {
                    ReturnItem::Expr(Expr::Var(v)) => v.clone(),
                    ReturnItem::Expr(Expr::Prop(v, k)) => format!("{v}.{k}"),
                    ReturnItem::Agg { func, .. } => {
                        format!("{}{}", func.name(), return_items.len())
                    }
                    _ => format!("col{}", return_items.len()),
                }
            };
            return_items.push((item, alias));
            if !self.eat(&Tok::Comma) {
                break;
            }
        }
        let order_by = if self.eat_kw("ORDER") {
            if !self.eat_kw("BY") {
                return err("expected BY after ORDER");
            }
            // Order key must reference a returned alias or expression.
            let key = self.expr()?;
            let index = return_items
                .iter()
                .position(|(item, alias)| match (&key, item) {
                    (Expr::Var(v), _) if v == alias => true,
                    (k, ReturnItem::Expr(e)) => k == e,
                    _ => false,
                })
                .ok_or_else(|| {
                    CypherError("ORDER BY must reference a RETURN item or alias".into())
                })?;
            let descending = if self.eat_kw("DESC") || self.eat_kw("DESCENDING") {
                true
            } else {
                let _ = self.eat_kw("ASC") || self.eat_kw("ASCENDING");
                false
            };
            Some((index, descending))
        } else {
            None
        };
        let skip = if self.eat_kw("SKIP") {
            match self.next() {
                Some(Tok::Int(n)) if n >= 0 => Some(n as usize),
                _ => return err("expected non-negative integer after SKIP"),
            }
        } else {
            None
        };
        let limit = if self.eat_kw("LIMIT") {
            match self.next() {
                Some(Tok::Int(n)) if n >= 0 => Some(n as usize),
                _ => return err("expected non-negative integer after LIMIT"),
            }
        } else {
            None
        };
        Ok(SingleQuery {
            patterns,
            optional_patterns,
            where_clause,
            unwind,
            unwind_where,
            return_items,
            distinct,
            order_by,
            skip,
            limit,
        })
    }

    /// A RETURN item: `count(*)`, `count/sum/min/max([DISTINCT] expr)`, or
    /// an expression.
    fn return_item(&mut self) -> Result<ReturnItem, CypherError> {
        if let Some(Tok::Ident(w)) = self.peek() {
            let func = if w.eq_ignore_ascii_case("COUNT") {
                Some(AggFunc::Count)
            } else if w.eq_ignore_ascii_case("SUM") {
                Some(AggFunc::Sum)
            } else if w.eq_ignore_ascii_case("MIN") {
                Some(AggFunc::Min)
            } else if w.eq_ignore_ascii_case("MAX") {
                Some(AggFunc::Max)
            } else {
                None
            };
            if let Some(func) = func {
                // Lookahead: only treat as aggregate when '(' follows.
                if self.tokens.get(self.pos + 1) == Some(&Tok::LParen) {
                    self.pos += 2;
                    if self.eat(&Tok::Star) {
                        if func != AggFunc::Count {
                            return err("only count(...) accepts *");
                        }
                        if !self.eat(&Tok::RParen) {
                            return err("expected ')' after count(*");
                        }
                        return Ok(ReturnItem::Agg {
                            func,
                            distinct: false,
                            arg: None,
                        });
                    }
                    let distinct = self.eat_kw("DISTINCT");
                    let arg = self.expr()?;
                    if !self.eat(&Tok::RParen) {
                        return err("expected ')' closing an aggregate");
                    }
                    return Ok(ReturnItem::Agg {
                        func,
                        distinct,
                        arg: Some(arg),
                    });
                }
            }
        }
        Ok(ReturnItem::Expr(self.expr()?))
    }

    fn path_pattern(&mut self) -> Result<PathPattern, CypherError> {
        let start = self.node_pattern()?;
        let mut hops = Vec::new();
        loop {
            let direction_in = if self.eat(&Tok::BackArrow) {
                true
            } else if self.eat(&Tok::Dash) {
                false
            } else {
                break;
            };
            // Optional [var:label] part.
            let (var, labels) = if self.eat(&Tok::LBracket) {
                let var = match self.peek() {
                    Some(Tok::Ident(_)) => Some(self.ident("rel variable")?),
                    _ => None,
                };
                let mut labels = Vec::new();
                while self.eat(&Tok::Colon) {
                    labels.push(self.ident("rel label")?);
                }
                if !self.eat(&Tok::RBracket) {
                    return err("expected ']'");
                }
                (var, labels)
            } else {
                (None, Vec::new())
            };
            let direction = if direction_in {
                if !self.eat(&Tok::Dash) {
                    return err("expected '-' after '<-[...]'");
                }
                Direction::In
            } else if self.eat(&Tok::Arrow) {
                Direction::Out
            } else if self.eat(&Tok::Dash) {
                Direction::Undirected
            } else {
                return err("expected '->' or '-' after relationship");
            };
            let node = self.node_pattern()?;
            hops.push((
                RelPattern {
                    var,
                    labels,
                    direction,
                },
                node,
            ));
        }
        Ok(PathPattern { start, hops })
    }

    fn node_pattern(&mut self) -> Result<NodePattern, CypherError> {
        if !self.eat(&Tok::LParen) {
            return err("expected '(' starting node pattern");
        }
        let var = match self.peek() {
            Some(Tok::Ident(_)) => Some(self.ident("node variable")?),
            _ => None,
        };
        let mut labels = Vec::new();
        while self.eat(&Tok::Colon) {
            labels.push(self.ident("label")?);
        }
        if !self.eat(&Tok::RParen) {
            return err("expected ')' closing node pattern");
        }
        Ok(NodePattern { var, labels })
    }

    fn expr(&mut self) -> Result<Expr, CypherError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, CypherError> {
        let mut left = self.and_expr()?;
        while self.eat_kw("OR") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr, CypherError> {
        let mut left = self.not_expr()?;
        while self.eat_kw("AND") {
            let right = self.not_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr, CypherError> {
        if self.eat_kw("NOT") {
            return Ok(Expr::Not(Box::new(self.not_expr()?)));
        }
        self.cmp_expr()
    }

    fn cmp_expr(&mut self) -> Result<Expr, CypherError> {
        let left = self.atom()?;
        let op = match self.peek() {
            Some(Tok::Eq) => Some(CmpOp::Eq),
            Some(Tok::Ne) => Some(CmpOp::Ne),
            Some(Tok::Lt) => Some(CmpOp::Lt),
            Some(Tok::Le) => Some(CmpOp::Le),
            Some(Tok::Gt) => Some(CmpOp::Gt),
            Some(Tok::Ge) => Some(CmpOp::Ge),
            _ => None,
        };
        if let Some(op) = op {
            self.pos += 1;
            let right = self.atom()?;
            return Ok(Expr::Cmp(op, Box::new(left), Box::new(right)));
        }
        if self.eat_kw("IS") {
            let negated = self.eat_kw("NOT");
            if !self.eat_kw("NULL") {
                return err("expected NULL after IS [NOT]");
            }
            return Ok(Expr::IsNull(Box::new(left), negated));
        }
        Ok(left)
    }

    fn atom(&mut self) -> Result<Expr, CypherError> {
        match self.next() {
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("COALESCE") => {
                if !self.eat(&Tok::LParen) {
                    return err("expected '(' after COALESCE");
                }
                let mut args = vec![self.expr()?];
                while self.eat(&Tok::Comma) {
                    args.push(self.expr()?);
                }
                if !self.eat(&Tok::RParen) {
                    return err("expected ')' closing COALESCE");
                }
                Ok(Expr::Coalesce(args))
            }
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("NULL") => Ok(Expr::Null),
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("TRUE") => {
                Ok(Expr::Lit(Value::Bool(true)))
            }
            Some(Tok::Ident(w)) if w.eq_ignore_ascii_case("FALSE") => {
                Ok(Expr::Lit(Value::Bool(false)))
            }
            Some(Tok::Ident(var)) => {
                if self.eat(&Tok::Dot) {
                    let key = self.ident("property key")?;
                    Ok(Expr::Prop(var, key))
                } else {
                    Ok(Expr::Var(var))
                }
            }
            Some(Tok::Str(s)) => Ok(Expr::Lit(Value::String(s))),
            Some(Tok::Int(i)) => Ok(Expr::Lit(Value::Int(i))),
            Some(Tok::Num(f)) => Ok(Expr::Lit(Value::Float(f))),
            Some(Tok::Param(name)) => Ok(Expr::Param(name)),
            Some(Tok::LParen) => {
                let e = self.expr()?;
                if !self.eat(&Tok::RParen) {
                    return err("expected ')'");
                }
                Ok(e)
            }
            other => err(format!("unexpected token in expression: {other:?}")),
        }
    }
}

// ---- evaluation ------------------------------------------------------------

/// One bound variable.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Binding {
    Node(NodeId),
    Edge(EdgeId),
    Val(Value),
}

pub(crate) type Row = FxHashMap<String, Binding>;

/// Query results: aliases plus rows of nullable values.
#[derive(Debug, Clone, PartialEq)]
pub struct Rows {
    /// Column aliases.
    pub columns: Vec<String>,
    /// Each row aligned with `columns`; `None` is Cypher NULL.
    pub rows: Vec<Vec<Option<Value>>>,
}

impl Rows {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether no rows were produced.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }
}

/// Parse, plan, and evaluate `query` over `pg`. When a trace is active on
/// this thread (the server's request span), the plan and evaluation stages
/// record `query_plan` / `query_eval` child spans — the server's plan
/// cache skips the `query_plan` stage entirely on a hit.
pub fn execute<G: PgRead>(pg: &G, query: &str) -> Result<Rows, CypherError> {
    execute_params(pg, query, &Params::default())
}

/// [`execute`] with parameter bindings: `$name` references in the query
/// resolve against `params`. Unbound parameters are an error.
pub fn execute_params<G: PgRead>(
    pg: &G,
    query: &str,
    params: &Params,
) -> Result<Rows, CypherError> {
    let (q, p) = {
        let _span = s3pg_obs::tracer().span_here("query_plan");
        let q = parse(query)?;
        let p = plan(pg, &q);
        (q, p)
    };
    let _span = s3pg_obs::tracer().span_here("query_eval");
    evaluate_planned_params(pg, &q, &p, params, 1)
}

/// Evaluate a parsed query over `pg`: plans (pattern ordering + equality
/// pushdown), then runs the plan.
pub fn evaluate<G: PgRead>(pg: &G, query: &CypherQuery) -> Result<Rows, CypherError> {
    let p = plan(pg, query);
    evaluate_planned_inner(pg, query, &p, &Params::default(), None)
}

/// Evaluate a parsed query under a precomputed plan (the server's cached
/// hot path) with parameter bindings. `plan` must have been computed from
/// this `query`. The plan is value-free — param probes carry a name slot,
/// resolved here — so one cached plan serves every binding of the same
/// query text. `_threads` is ignored: evaluation is single-threaded. The
/// argument stays only for `benchmark/src/replay.rs` and goes with
/// ROADMAP 1(b).
pub fn evaluate_planned_params<G: PgRead>(
    pg: &G,
    query: &CypherQuery,
    plan: &CypherPlan,
    params: &Params,
    _threads: usize,
) -> Result<Rows, CypherError> {
    evaluate_planned_inner(pg, query, plan, params, None)
}

/// [`evaluate_planned_params`] with per-operator profiling: every operator
/// records rows emitted and wall time into `sink` under the same ids
/// [`explain`] assigns, so [`PlanNode::annotate`] joins the two. Counting
/// happens at stage boundaries (`Vec::len`), never per row, so the answer
/// is bit-identical to the unprofiled evaluation. `_threads` is ignored,
/// as in [`evaluate_planned_params`], and goes with ROADMAP 1(b).
pub fn evaluate_planned_profiled<G: PgRead>(
    pg: &G,
    query: &CypherQuery,
    plan: &CypherPlan,
    params: &Params,
    _threads: usize,
    sink: &ProfSink,
) -> Result<Rows, CypherError> {
    evaluate_planned_inner(pg, query, plan, params, Some(sink))
}

fn evaluate_planned_inner<G: PgRead>(
    pg: &G,
    query: &CypherQuery,
    plan: &CypherPlan,
    params: &Params,
    prof: Option<&ProfSink>,
) -> Result<Rows, CypherError> {
    debug_assert_eq!(plan.plans.len(), query.parts.len());
    for name in param_names(query) {
        if !params.contains_key(&name) {
            return err(format!("parameter ${name} is not bound"));
        }
    }
    let mut columns: Vec<String> = Vec::new();
    let mut all_rows: Vec<Vec<Option<Value>>> = Vec::new();
    for (i, part) in query.parts.iter().enumerate() {
        let sp = &plan.plans[i];
        let probes = resolve_probes(&sp.probes, params);
        // Dispatch once per UNION part: the unprofiled arm monomorphizes
        // with the zero-sized NoProf hook, so its loop bodies carry no
        // instrumentation at all.
        let part_rows = match prof {
            None => crate::morsel::evaluate_part(pg, part, sp, &probes, params, NoProf)?,
            Some(sink) => {
                let hook = Prof { sink, part: i };
                crate::morsel::evaluate_part(pg, part, sp, &probes, params, hook)?
            }
        };
        if i == 0 {
            columns = part_rows.columns;
        }
        all_rows.extend(part_rows.rows);
    }
    Ok(Rows {
        columns,
        rows: all_rows,
    })
}

/// The enabled profiling hook for one UNION part: the shared sink plus the
/// part index that prefixes operator ids (`"p0.filter"`, `"p1.pat0"`, …).
#[derive(Clone, Copy)]
struct Prof<'a> {
    sink: &'a ProfSink,
    part: usize,
}

impl ProfHook for Prof<'_> {
    fn begin(self) -> Option<Instant> {
        Some(Instant::now())
    }

    fn record(self, id: std::fmt::Arguments<'_>, rows: usize, started: Option<Instant>) {
        let elapsed = started.map(|s| s.elapsed()).unwrap_or_default();
        self.sink
            .record(&format!("p{}.{id}", self.part), rows as u64, elapsed);
    }
}

/// Resolve a plan's probes against the parameter map: param probes become
/// concrete key-set probes. A probe drops to `None` (label-scan superset)
/// when the parameter's value has no safely enumerable key set — the WHERE
/// predicate still filters, so the fallback is never incorrect.
fn resolve_probes(probes: &[Option<Probe>], params: &Params) -> Vec<Option<Probe>> {
    probes
        .iter()
        .map(|probe| match probe {
            Some(Probe {
                label,
                key,
                keys: ProbeKeys::Param(name),
            }) => Some(Probe {
                label: label.clone(),
                key: key.clone(),
                keys: ProbeKeys::Values(equivalent_index_keys(params.get(name)?)?),
            }),
            other => other.clone(),
        })
        .collect()
}

/// The planner-independent oracle: evaluate with MATCH patterns in written
/// order, one hash-map row per binding, and label-scan candidate
/// enumeration only (no index pushdown, no reordering, single-threaded).
/// Every differential test and the benchmark's answer check compare the
/// executor against it.
pub fn evaluate_scan<G: PgRead>(pg: &G, query: &CypherQuery) -> Result<Rows, CypherError> {
    evaluate_scan_params(pg, query, &Params::default())
}

/// [`evaluate_scan`] with parameter bindings — the oracle for
/// parameterized evaluation.
pub fn evaluate_scan_params<G: PgRead>(
    pg: &G,
    query: &CypherQuery,
    params: &Params,
) -> Result<Rows, CypherError> {
    for name in param_names(query) {
        if !params.contains_key(&name) {
            return err(format!("parameter ${name} is not bound"));
        }
    }
    let mut columns: Vec<String> = Vec::new();
    let mut all_rows: Vec<Vec<Option<Value>>> = Vec::new();
    for (i, part) in query.parts.iter().enumerate() {
        let mut rows: Vec<Row> = vec![Row::default()];
        for pattern in &part.patterns {
            rows = expand_path(pg, pattern, rows)?;
            if rows.is_empty() {
                break;
            }
        }
        let part_rows = finish_single_inner(pg, part, rows, params, NoProf)?;
        if i == 0 {
            columns = part_rows.columns;
        }
        all_rows.extend(part_rows.rows);
    }
    Ok(Rows {
        columns,
        rows: all_rows,
    })
}

/// Everything after required-pattern expansion: OPTIONAL MATCH left-joins,
/// WHERE, UNWIND, projection/aggregation, DISTINCT, ORDER BY, SKIP, LIMIT —
/// the scan oracle's tail, and the executor's for parts with `OPTIONAL
/// MATCH`. With the [`NoProf`] hook (the oracle and every unprofiled
/// call) each stage compiles exactly as if uninstrumented; when
/// profiling, stage boundaries record `rows.len()` and elapsed time —
/// never anything per row, so output is identical.
pub(crate) fn finish_single_inner<G: PgRead, P: ProfHook>(
    pg: &G,
    q: &SingleQuery,
    rows: Vec<Row>,
    params: &Params,
    prof: P,
) -> Result<Rows, CypherError> {
    let mut rows = rows;
    // OPTIONAL MATCH: left-join semantics per pattern.
    for (k, pattern) in q.optional_patterns.iter().enumerate() {
        let started = prof.begin();
        let mut extended = Vec::with_capacity(rows.len());
        for row in rows {
            let sub = expand_path(pg, pattern, vec![row.clone()])?;
            if sub.is_empty() {
                extended.push(row);
            } else {
                extended.extend(sub);
            }
        }
        rows = extended;
        prof.record(format_args!("optional{k}"), rows.len(), started);
    }
    if let Some(where_clause) = &q.where_clause {
        let started = prof.begin();
        rows.retain(|row| matches!(eval(pg, where_clause, row, params), Some(Value::Bool(true))));
        prof.record(format_args!("filter"), rows.len(), started);
    }
    for (k, (expr, var)) in q.unwind.iter().enumerate() {
        let started = prof.begin();
        let mut unwound = Vec::new();
        for row in rows {
            match eval(pg, expr, &row, params) {
                None => {} // UNWIND NULL → no rows
                Some(value) => {
                    for item in value.iter_flat() {
                        let mut r = row.clone();
                        r.insert(var.clone(), Binding::Val(item.clone()));
                        unwound.push(r);
                    }
                }
            }
        }
        rows = unwound;
        prof.record(format_args!("unwind{k}"), rows.len(), started);
    }
    if let Some(unwind_where) = &q.unwind_where {
        let started = prof.begin();
        rows.retain(|row| matches!(eval(pg, unwind_where, row, params), Some(Value::Bool(true))));
        prof.record(format_args!("unwind_filter"), rows.len(), started);
    }
    let columns: Vec<String> = q.return_items.iter().map(|(_, a)| a.clone()).collect();
    let has_aggregate = has_aggregate(q);

    let started = prof.begin();
    let mut out: Vec<Vec<Option<Value>>> = if has_aggregate {
        aggregate_rows(pg, q, &rows, params)
    } else {
        rows.iter()
            .map(|row| {
                q.return_items
                    .iter()
                    .map(|(item, _)| match item {
                        ReturnItem::Expr(e) => eval(pg, e, row, params),
                        ReturnItem::Agg { .. } => unreachable!(),
                    })
                    .collect()
            })
            .collect()
    };
    if has_aggregate {
        prof.record(format_args!("aggregate"), out.len(), started);
    } else {
        prof.record(format_args!("project"), out.len(), started);
    }
    shape_rows(q, &mut out, prof);
    Ok(Rows { columns, rows: out })
}

/// The result-shaping tail both evaluators share: DISTINCT, ORDER BY,
/// SKIP, LIMIT over already-projected value rows.
pub(crate) fn shape_rows<P: ProfHook>(q: &SingleQuery, out: &mut Vec<Vec<Option<Value>>>, prof: P) {
    if q.distinct {
        let started = prof.begin();
        // Rows key on their cells (the group key's equality), so the
        // first of equal rows stays.
        let keep: Vec<bool> = {
            let mut seen: FxHashSet<Vec<Cell<'_>>> = FxHashSet::default();
            out.iter()
                .map(|r| seen.insert(r.iter().map(Cell::of_option).collect()))
                .collect()
        };
        let mut keep = keep.into_iter();
        out.retain(|_| keep.next().unwrap_or(false));
        prof.record(format_args!("distinct"), out.len(), started);
    }
    if let Some((index, descending)) = q.order_by {
        let started = prof.begin();
        out.sort_by(|a, b| order_cmp(a, b, index, descending));
        prof.record(format_args!("sort"), out.len(), started);
    }
    if let Some(skip) = q.skip {
        let started = prof.begin();
        out.drain(..skip.min(out.len()));
        prof.record(format_args!("skip"), out.len(), started);
    }
    if let Some(limit) = q.limit {
        let started = prof.begin();
        out.truncate(limit);
        prof.record(format_args!("limit"), out.len(), started);
    }
}

/// Whether any RETURN item is an aggregate (implicit GROUP BY applies).
pub(crate) fn has_aggregate(q: &SingleQuery) -> bool {
    q.return_items
        .iter()
        .any(|(item, _)| matches!(item, ReturnItem::Agg { .. }))
}

/// The total ordering ORDER BY and MIN/MAX share, over non-NULL values:
/// [`compare_scalars`] where defined, rendered-string comparison across
/// incomparable types (and for lists).
pub(crate) fn total_cmp(x: &Cell<'_>, y: &Cell<'_>) -> std::cmp::Ordering {
    match (x, y) {
        (Cell::Scalar(a), Cell::Scalar(b)) => total_cmp_scalars(*a, *b),
        _ => x.to_string().cmp(&y.to_string()),
    }
}

/// [`total_cmp`] over two scalars.
#[inline]
pub(crate) fn total_cmp_scalars(a: Scalar<'_>, b: Scalar<'_>) -> std::cmp::Ordering {
    compare_scalars(a, b).unwrap_or_else(|| a.to_string().cmp(&b.to_string()))
}

/// The exact ORDER BY comparator [`shape_rows`] sorts with, factored out so
/// the top-K pushdown selects under *the same* ordering: NULL sorts last
/// ascending, the whole ordering reverses under DESC.
pub(crate) fn order_cmp(
    a: &[Option<Value>],
    b: &[Option<Value>],
    index: usize,
    descending: bool,
) -> std::cmp::Ordering {
    order_cmp_cells(
        &Cell::of_option(&a[index]),
        &Cell::of_option(&b[index]),
        descending,
    )
}

/// [`order_cmp`] over two ORDER BY keys.
pub(crate) fn order_cmp_cells(x: &Cell<'_>, y: &Cell<'_>, descending: bool) -> std::cmp::Ordering {
    let ord = match (x, y) {
        (Cell::Null, Cell::Null) => std::cmp::Ordering::Equal,
        // NULL sorts last (Cypher default ascending).
        (Cell::Null, _) => std::cmp::Ordering::Greater,
        (_, Cell::Null) => std::cmp::Ordering::Less,
        _ => total_cmp(x, y),
    };
    if descending {
        ord.reverse()
    } else {
        ord
    }
}

/// Cypher's implicit grouping: non-aggregated RETURN items form the group
/// key; each aggregate accumulates within its group. `count(expr)` and
/// `sum(expr)` skip NULLs; `count(DISTINCT expr)` / `sum(DISTINCT expr)`
/// deduplicate non-NULL values first; `min`/`max` pick extremes under the
/// ORDER BY comparator; `count(n)` over a node or edge variable counts its
/// bindings. Rows flow through the executor's
/// [`GroupTable`](crate::morsel::GroupTable), so both evaluators aggregate
/// by identical rules.
fn aggregate_rows<G: PgRead>(
    pg: &G,
    q: &SingleQuery,
    rows: &[Row],
    params: &Params,
) -> Vec<Vec<Option<Value>>> {
    // The table's cells borrow their values, so evaluate every row first.
    let inputs: Vec<Vec<Option<Binding>>> = rows
        .iter()
        .map(|row| {
            q.return_items
                .iter()
                .map(|(item, _)| match item {
                    ReturnItem::Expr(e) => eval(pg, e, row, params).map(Binding::Val),
                    ReturnItem::Agg { arg: None, .. } => None,
                    // A bare node or edge variable is its binding.
                    ReturnItem::Agg {
                        arg: Some(Expr::Var(name)),
                        ..
                    } if matches!(row.get(name), Some(Binding::Node(_) | Binding::Edge(_))) => {
                        row.get(name).cloned()
                    }
                    ReturnItem::Agg { arg: Some(e), .. } => {
                        eval(pg, e, row, params).map(Binding::Val)
                    }
                })
                .collect()
        })
        .collect();
    let mut table = crate::morsel::GroupTable::new(q);
    let item = |k: usize, i: usize| match &inputs[i][k] {
        None => Cell::Null,
        Some(Binding::Val(v)) => Cell::of(v),
        Some(Binding::Node(n)) => Cell::Node(*n),
        Some(Binding::Edge(e)) => Cell::Edge(*e),
    };
    table.add_batch(inputs.len(), item, &[]);
    table.finish()
}

/// Start-binding candidates for an unbound pattern start: index probe if
/// planned, else label scan, else every live node. Probe results are
/// merged id-sorted, matching label-posting order, so indexed enumeration
/// visits nodes in the same order a label scan would.
pub(crate) enum Candidates<'a> {
    Borrowed(&'a [NodeId]),
    Owned(Vec<NodeId>),
}

impl Candidates<'_> {
    pub(crate) fn as_slice(&self) -> &[NodeId] {
        match self {
            Candidates::Borrowed(s) => s,
            Candidates::Owned(v) => v,
        }
    }
}

pub(crate) fn start_candidates<'a, G: PgRead>(
    pg: &'a G,
    start: &NodePattern,
    probe: Option<&Probe>,
) -> Candidates<'a> {
    // An unresolved param probe (no `resolve_probes` pass) falls through to
    // the label-scan superset; the WHERE predicate still filters.
    if let Some(Probe {
        label,
        key,
        keys: ProbeKeys::Values(keys),
    }) = probe
    {
        let mut out: Vec<NodeId> = Vec::new();
        for k in keys {
            out.extend_from_slice(&pg.nodes_with_label_prop(label, key, k));
        }
        out.sort_unstable();
        out.dedup();
        return Candidates::Owned(out);
    }
    match start.labels.first() {
        Some(label) => Candidates::Borrowed(pg.nodes_with_label(label)),
        None => Candidates::Owned(pg.all_node_ids()),
    }
}

/// Extend `row` with a start binding for every matching candidate.
fn seed_rows<G: PgRead>(pg: &G, start: &NodePattern, candidates: &[NodeId], row: Row) -> Vec<Row> {
    let mut out = Vec::new();
    for &n in candidates {
        if node_matches(pg, n, start) {
            let mut r = row.clone();
            if let Some(v) = &start.var {
                r.insert(v.clone(), Binding::Node(n));
            }
            // Track the anonymous position for subsequent hops.
            r.insert("\u{0}anchor".into(), Binding::Node(n));
            out.push(r);
        }
    }
    out
}

fn expand_path<G: PgRead>(
    pg: &G,
    pattern: &PathPattern,
    rows: Vec<Row>,
) -> Result<Vec<Row>, CypherError> {
    // Bind the start node. Start candidates are row-independent, so they
    // are enumerated (and probe results sorted/deduped) once for the whole
    // row set, not once per row.
    let mut current: Vec<Row> = Vec::new();
    let mut candidates: Option<Candidates<'_>> = None;
    for row in rows {
        let pre_bound = match pattern.start.var.as_ref().and_then(|v| row.get(v)) {
            Some(Binding::Node(n)) => Some(*n),
            Some(_) => return err("pattern variable already bound to a non-node"),
            None => None,
        };
        match pre_bound {
            Some(n) => {
                if node_matches(pg, n, &pattern.start) {
                    let mut r = row;
                    r.insert("\u{0}anchor".into(), Binding::Node(n));
                    current.push(r);
                }
            }
            None => {
                let candidates =
                    candidates.get_or_insert_with(|| start_candidates(pg, &pattern.start, None));
                current.extend(seed_rows(pg, &pattern.start, candidates.as_slice(), row));
            }
        }
    }
    expand_hops(pg, pattern, current)
}

/// Walk a pattern's hops from the seeded anchor rows, binding relationships
/// and target nodes via adjacency expansion.
fn expand_hops<G: PgRead>(
    pg: &G,
    pattern: &PathPattern,
    mut current: Vec<Row>,
) -> Result<Vec<Row>, CypherError> {
    // One candidate buffer for the whole expansion, cleared per row —
    // the per-row `Vec` churn here dominated allocation on hot traversals.
    let mut candidates: Vec<(EdgeId, NodeId)> = Vec::new();
    for (rel, node) in &pattern.hops {
        let mut next: Vec<Row> = Vec::new();
        for row in &current {
            let Some(Binding::Node(anchor)) = row.get("\u{0}anchor").cloned() else {
                continue;
            };
            candidates.clear();
            let mut collect = |edges: &[EdgeId], outgoing: bool| {
                for &e in edges {
                    if !pg.edge_live(e) {
                        continue;
                    }
                    if pg.edge_has_any_label(e, &rel.labels) {
                        let (src, dst) = pg.edge_endpoints(e);
                        let other = if outgoing { dst } else { src };
                        candidates.push((e, other));
                    }
                }
            };
            match rel.direction {
                Direction::Out => collect(pg.out_adjacency(anchor), true),
                Direction::In => collect(pg.in_adjacency(anchor), false),
                Direction::Undirected => {
                    collect(pg.out_adjacency(anchor), true);
                    collect(pg.in_adjacency(anchor), false);
                }
            }
            for &(e, target) in &candidates {
                if !node_matches(pg, target, node) {
                    continue;
                }
                // Respect pre-bound node variables (joins between patterns).
                if let Some(v) = &node.var {
                    if let Some(existing) = row.get(v) {
                        if existing != &Binding::Node(target) {
                            continue;
                        }
                    }
                }
                let mut r = row.clone();
                if let Some(v) = &rel.var {
                    r.insert(v.clone(), Binding::Edge(e));
                }
                if let Some(v) = &node.var {
                    r.insert(v.clone(), Binding::Node(target));
                }
                r.insert("\u{0}anchor".into(), Binding::Node(target));
                next.push(r);
            }
        }
        current = next;
        if current.is_empty() {
            break;
        }
    }
    for row in &mut current {
        row.remove("\u{0}anchor");
    }
    Ok(current)
}

fn node_matches<G: PgRead>(pg: &G, node: NodeId, pattern: &NodePattern) -> bool {
    pattern.labels.iter().all(|l| pg.has_label(node, l))
}

fn eval<G: PgRead>(pg: &G, expr: &Expr, row: &Row, params: &Params) -> Option<Value> {
    match expr {
        Expr::Null => None,
        Expr::Lit(v) => Some(v.clone()),
        // Unbound parameters are rejected before evaluation starts, so a
        // miss here (library misuse) degrades to NULL, never a panic.
        Expr::Param(name) => params.get(name).cloned(),
        Expr::Var(name) => match row.get(name)? {
            Binding::Val(v) => Some(v.clone()),
            Binding::Node(_) | Binding::Edge(_) => None,
        },
        Expr::Prop(var, key) => match row.get(var)? {
            Binding::Node(n) => pg.prop_value(*n, key),
            Binding::Edge(e) => pg.edge_prop_value(*e, key),
            Binding::Val(_) => None,
        },
        Expr::Coalesce(args) => args.iter().find_map(|a| eval(pg, a, row, params)),
        Expr::Cmp(op, left, right) => {
            let l = eval(pg, left, row, params)?;
            let r = eval(pg, right, row, params)?;
            Some(Value::Bool(op.holds(compare(&l, &r)?)))
        }
        Expr::And(a, b) => match (eval(pg, a, row, params), eval(pg, b, row, params)) {
            (Some(Value::Bool(x)), Some(Value::Bool(y))) => Some(Value::Bool(x && y)),
            (Some(Value::Bool(false)), _) | (_, Some(Value::Bool(false))) => {
                Some(Value::Bool(false))
            }
            _ => None,
        },
        Expr::Or(a, b) => match (eval(pg, a, row, params), eval(pg, b, row, params)) {
            (Some(Value::Bool(x)), Some(Value::Bool(y))) => Some(Value::Bool(x || y)),
            (Some(Value::Bool(true)), _) | (_, Some(Value::Bool(true))) => Some(Value::Bool(true)),
            _ => None,
        },
        Expr::Not(a) => match eval(pg, a, row, params) {
            Some(Value::Bool(b)) => Some(Value::Bool(!b)),
            _ => None,
        },
        Expr::IsNull(a, negated) => {
            let is_null = eval(pg, a, row, params).is_none();
            Some(Value::Bool(is_null != *negated))
        }
    }
}

/// The one comparison both evaluators use, over owned values: a thin
/// wrapper over [`compare_scalars`]. A list compares with nothing.
pub(crate) fn compare(l: &Value, r: &Value) -> Option<std::cmp::Ordering> {
    compare_scalars(l.as_scalar()?, r.as_scalar()?)
}

/// Cypher's comparison of two scalars: numbers compare across int and
/// float, a year compares with an int, strings, dates and datetimes
/// lexically within their type, and values of any other pair of types are
/// incomparable (`None`, which a predicate reads as NULL).
#[inline(always)]
pub(crate) fn compare_scalars(l: Scalar<'_>, r: Scalar<'_>) -> Option<std::cmp::Ordering> {
    use Scalar::*;
    match (l, r) {
        (Int(a), Int(b)) => Some(a.cmp(&b)),
        (Float(a), Float(b)) => a.partial_cmp(&b),
        (Int(a), Float(b)) => (a as f64).partial_cmp(&b),
        (Float(a), Int(b)) => a.partial_cmp(&(b as f64)),
        (String(a), String(b)) => Some(a.cmp(b)),
        (Bool(a), Bool(b)) => Some(a.cmp(&b)),
        (Date(a), Date(b)) => Some(a.cmp(b)),
        (DateTime(a), DateTime(b)) => Some(a.cmp(b)),
        (Year(a), Year(b)) => Some(a.cmp(&b)),
        (Year(a), Int(b)) => Some((a as i64).cmp(&b)),
        (Int(a), Year(b)) => Some(a.cmp(&(b as i64))),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3pg_pg::{PropertyGraph, IRI_KEY};

    fn graph() -> PropertyGraph {
        let mut pg = PropertyGraph::new();
        let bob = pg.add_node(["Person", "Student"]);
        pg.set_prop(bob, IRI_KEY, Value::String("http://ex/bob".into()));
        pg.set_prop(bob, "regNo", Value::String("Bs12".into()));
        pg.set_prop(bob, "age", Value::Int(24));
        pg.set_prop(
            bob,
            "nick",
            Value::List(vec![
                Value::String("bobby".into()),
                Value::String("rob".into()),
            ]),
        );
        let carol = pg.add_node(["Person", "Student"]);
        pg.set_prop(carol, IRI_KEY, Value::String("http://ex/carol".into()));
        pg.set_prop(carol, "regNo", Value::String("Bs13".into()));
        pg.set_prop(carol, "age", Value::Int(22));
        let alice = pg.add_node(["Person", "Professor"]);
        pg.set_prop(alice, IRI_KEY, Value::String("http://ex/alice".into()));
        pg.set_prop(alice, "name", Value::String("Alice".into()));
        let db = pg.add_node(["Course"]);
        pg.set_prop(db, IRI_KEY, Value::String("http://ex/db".into()));
        pg.set_prop(db, "title", Value::String("Databases".into()));
        let string_node = pg.add_node(["STRING"]);
        pg.set_prop(string_node, "ov", Value::String("Self Study".into()));
        pg.add_edge(bob, alice, "advisedBy");
        pg.add_edge(carol, alice, "advisedBy");
        pg.add_edge(bob, db, "takesCourse");
        pg.add_edge(carol, db, "takesCourse");
        pg.add_edge(bob, string_node, "takesCourse");
        pg
    }

    #[test]
    fn match_by_label() {
        let rows = execute(&graph(), "MATCH (n:Student) RETURN n.regNo").unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows.columns, vec!["n.regNo"]);
    }

    fn params(pairs: &[(&str, Value)]) -> Params {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect()
    }

    #[test]
    fn parameterized_where_resolves_at_evaluation() {
        let pg = graph();
        let q = parse("MATCH (n:Student) WHERE n.regNo = $reg RETURN n.iri").unwrap();
        assert_eq!(
            param_names(&q).into_iter().collect::<Vec<_>>(),
            vec!["reg".to_string()]
        );
        let p = plan(&pg, &q);
        // One plan, two bindings, two different answers.
        for (reg, iri) in [("Bs12", "http://ex/bob"), ("Bs13", "http://ex/carol")] {
            let binding = params(&[("reg", Value::String(reg.into()))]);
            let rows = evaluate_planned_params(&pg, &q, &p, &binding, 1).unwrap();
            assert_eq!(rows.len(), 1, "{reg}");
            assert_eq!(rows.rows[0][0], Some(Value::String(iri.into())));
            // Scan reference agrees.
            let scan = evaluate_scan_params(&pg, &q, &binding).unwrap();
            assert_eq!(sorted_rows(&rows), sorted_rows(&scan));
        }
    }

    #[test]
    fn parameterized_probe_uses_cross_type_keys() {
        let pg = graph();
        let q = parse("MATCH (n:Student) WHERE n.age = $age RETURN n.regNo").unwrap();
        let p = plan(&pg, &q);
        // Int and Float bindings must both find bob (age stored as Int 24).
        for age in [Value::Int(24), Value::Float(24.0)] {
            let rows = evaluate_planned_params(&pg, &q, &p, &params(&[("age", age)]), 1).unwrap();
            assert_eq!(rows.len(), 1);
            assert_eq!(rows.rows[0][0], Some(Value::String("Bs12".into())));
        }
    }

    #[test]
    fn parameter_in_return_and_unwind() {
        let pg = graph();
        let rows = execute_params(
            &pg,
            "MATCH (n:Professor) RETURN n.name, $tag AS tag",
            &params(&[("tag", Value::String("t1".into()))]),
        )
        .unwrap();
        assert_eq!(rows.rows[0][1], Some(Value::String("t1".into())));
        let rows = execute_params(
            &pg,
            "MATCH (n:Professor) UNWIND $items AS v RETURN v",
            &params(&[(
                "items",
                Value::List(vec![Value::Int(1), Value::Int(2), Value::Int(3)]),
            )]),
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn unbound_parameter_is_an_error() {
        let pg = graph();
        let err = execute_params(
            &pg,
            "MATCH (n:Student) WHERE n.regNo = $reg RETURN n.iri",
            &Params::default(),
        )
        .unwrap_err();
        assert!(err.0.contains("$reg"), "{err}");
    }

    #[test]
    fn dollar_without_name_is_a_parse_error() {
        assert!(parse("MATCH (n) WHERE n.x = $ RETURN n.x").is_err());
    }

    #[test]
    fn parameterized_plan_is_value_free() {
        // The same plan (computed once) must answer different parameter
        // values correctly.
        let mut pg = PropertyGraph::new();
        for i in 0..2000i64 {
            let n = pg.add_node(["Person"]);
            pg.set_prop(n, "idx", Value::Int(i));
            pg.set_prop(n, "name", Value::String(format!("p{i}")));
        }
        let q = parse("MATCH (n:Person) WHERE n.idx = $i RETURN n.name").unwrap();
        let p = plan(&pg, &q);
        for i in [0i64, 7, 1999] {
            let binding = params(&[("i", Value::Int(i))]);
            let rows = evaluate_planned_params(&pg, &q, &p, &binding, 1).unwrap();
            assert_eq!(rows.len(), 1, "i={i}");
            assert_eq!(rows.rows[0][0], Some(Value::String(format!("p{i}"))));
        }
    }

    /// Render rows order-independently for multiset comparison: planned
    /// reverse anchoring may emit within-pattern rows in adjacency order
    /// rather than start-bucket order.
    fn sorted_rows(rows: &Rows) -> Vec<String> {
        let mut out: Vec<String> = rows.rows.iter().map(|r| format!("{r:?}")).collect();
        out.sort();
        out
    }

    #[test]
    fn planner_reverses_value_join() {
        let pg = graph();
        let q = parse(
            "MATCH (a:Student)-[:takesCourse]->(v) MATCH (b:Person)-[:takesCourse]->(v) \
             RETURN a.iri, b.iri",
        )
        .unwrap();
        let p = plan(&pg, &q);
        // Student (2) ranks below Person (3), so the Person pattern runs
        // second — with `v` bound it anchors reversed.
        assert_eq!(p.plans[0].order, vec![0, 1]);
        assert_eq!(p.plans[0].reversed, vec![false, true]);
        let planned = evaluate(&pg, &q).unwrap();
        let scan = evaluate_scan(&pg, &q).unwrap();
        assert_eq!(planned.len(), 5);
        assert_eq!(sorted_rows(&planned), sorted_rows(&scan));
    }

    #[test]
    fn reversed_in_and_undirected_directions_match_scan() {
        let mut pg = PropertyGraph::new();
        let s1 = pg.add_node(["Student"]);
        pg.set_prop(s1, IRI_KEY, Value::String("http://ex/s1".into()));
        let s2 = pg.add_node(["Student"]);
        pg.set_prop(s2, IRI_KEY, Value::String("http://ex/s2".into()));
        let course = pg.add_node(["Course"]);
        let prof = pg.add_node(["Person"]);
        pg.set_prop(prof, IRI_KEY, Value::String("http://ex/p".into()));
        pg.add_edge(s1, course, "takesCourse");
        pg.add_edge(s2, course, "takesCourse");
        pg.add_edge(course, prof, "taughtBy");
        for text in [
            // In-direction second pattern: reversed walks v's out-edges.
            "MATCH (a:Student)-[:takesCourse]->(v) MATCH (b:Person)<-[:taughtBy]-(v) \
             RETURN a.iri, b.iri",
            // Undirected second pattern: reversed walks both lists.
            "MATCH (a:Student)-[:takesCourse]->(v) MATCH (b)-[:takesCourse]-(v) \
             RETURN a.iri, b.iri",
        ] {
            let q = parse(text).unwrap();
            let p = plan(&pg, &q);
            assert!(
                p.plans[0].reversed.contains(&true),
                "expected a reversed pattern for {text}"
            );
            let planned = evaluate(&pg, &q).unwrap();
            let scan = evaluate_scan(&pg, &q).unwrap();
            assert!(!planned.is_empty(), "no rows for {text}");
            assert_eq!(sorted_rows(&planned), sorted_rows(&scan), "{text}");
        }
    }

    #[test]
    fn match_relationship() {
        let rows = execute(
            &graph(),
            "MATCH (n:Student)-[:advisedBy]->(m) RETURN n.iri AS s, m.iri AS t",
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows
            .rows
            .iter()
            .all(|r| r[1] == Some(Value::String("http://ex/alice".into()))));
    }

    #[test]
    fn coalesce_handles_literal_nodes() {
        // The S3PG Q22 pattern: target may be an entity (iri) or a literal
        // carrier node (ov).
        let rows = execute(
            &graph(),
            "MATCH (n:Student)-[:takesCourse]->(tn) RETURN n.iri AS s, COALESCE(tn.ov, tn.iri) AS v",
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        let values: Vec<String> = rows
            .rows
            .iter()
            .map(|r| r[1].as_ref().unwrap().to_string())
            .collect();
        assert!(values.contains(&"Self Study".to_string()));
        assert!(values.contains(&"http://ex/db".to_string()));
    }

    #[test]
    fn union_all_with_unwind() {
        // The NeoSemantics Q22 pattern: relationship results UNION ALL
        // array-property results.
        let mut pg = graph();
        let bob = pg.node_by_iri("http://ex/bob").unwrap();
        pg.push_prop(bob, "writer", Value::String("Tofer Brown".into()));
        pg.push_prop(bob, "writer", Value::String("Billy Montana".into()));
        let rows = execute(
            &pg,
            "MATCH (n:Student)-[:advisedBy]->(m) RETURN n.iri AS s, m.iri AS v \
             UNION ALL \
             MATCH (n:Student) UNWIND n.writer AS v RETURN n.iri AS s, v",
        )
        .unwrap();
        // 2 advisedBy rows + 2 unwound writers (carol has none → no rows).
        assert_eq!(rows.len(), 4);
    }

    #[test]
    fn unwind_null_produces_no_rows() {
        let rows = execute(
            &graph(),
            "MATCH (n:Professor) UNWIND n.missing AS v RETURN v",
        )
        .unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn where_comparisons() {
        let rows = execute(
            &graph(),
            "MATCH (n:Student) WHERE n.age > 23 RETURN n.regNo",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.rows[0][0], Some(Value::String("Bs12".into())));
        let rows = execute(
            &graph(),
            "MATCH (n:Student) WHERE n.age >= 22 AND n.regNo = 'Bs13' RETURN n.iri",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
    }

    #[test]
    fn where_is_null() {
        let rows = execute(
            &graph(),
            "MATCH (n:Person) WHERE n.name IS NOT NULL RETURN n.name",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        let rows = execute(
            &graph(),
            "MATCH (n:Person) WHERE n.name IS NULL RETURN n.iri",
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn incoming_direction() {
        let rows = execute(
            &graph(),
            "MATCH (p:Professor)<-[:advisedBy]-(s) RETURN s.regNo",
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn undirected_matches_both() {
        let rows = execute(
            &graph(),
            "MATCH (p:Professor)-[:advisedBy]-(s) RETURN s.iri",
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn multi_hop_path() {
        let rows = execute(
            &graph(),
            "MATCH (p:Professor)<-[:advisedBy]-(s)-[:takesCourse]->(c:Course) RETURN s.regNo, c.title",
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn comma_patterns_join_on_shared_vars() {
        let rows = execute(
            &graph(),
            "MATCH (s:Student)-[:advisedBy]->(p), (s)-[:takesCourse]->(c:Course) RETURN s.regNo, p.iri, c.title",
        )
        .unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn distinct_and_limit() {
        let rows = execute(
            &graph(),
            "MATCH (s:Student)-[:takesCourse]->(c:Course) RETURN DISTINCT c.title",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        let rows = execute(&graph(), "MATCH (n:Person) RETURN n.iri LIMIT 2").unwrap();
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn multiple_labels_in_node_pattern() {
        let rows = execute(&graph(), "MATCH (n:Person:Student) RETURN n.iri").unwrap();
        assert_eq!(rows.len(), 2);
        let rows = execute(&graph(), "MATCH (n:Person:Course) RETURN n.iri").unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn missing_property_returns_null() {
        let rows = execute(&graph(), "MATCH (n:Course) RETURN n.nothing AS x").unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.rows[0][0], None);
    }

    #[test]
    fn edge_variable_properties() {
        let mut pg = graph();
        let bob = pg.node_by_iri("http://ex/bob").unwrap();
        let alice = pg.node_by_iri("http://ex/alice").unwrap();
        let e = pg.add_edge(bob, alice, "mentors");
        pg.set_edge_prop(e, "since", Value::Year(2021));
        let rows = execute(&pg, "MATCH (a)-[r:mentors]->(b) RETURN r.since").unwrap();
        assert_eq!(rows.rows, vec![vec![Some(Value::Year(2021))]]);
    }

    #[test]
    fn backtick_identifiers() {
        let mut pg = PropertyGraph::new();
        let n = pg.add_node(["Weird Label"]);
        pg.set_prop(n, "strange key", Value::Int(1));
        let rows = execute(&pg, "MATCH (n:`Weird Label`) RETURN n.`strange key`").unwrap();
        assert_eq!(rows.rows, vec![vec![Some(Value::Int(1))]]);
    }

    #[test]
    fn parse_errors() {
        assert!(execute(&graph(), "RETURN 1").is_err());
        assert!(execute(&graph(), "MATCH (n RETURN n").is_err());
        assert!(execute(&graph(), "MATCH (n) RETURN n.x UNION MATCH (n) RETURN n.x").is_err());
        assert!(execute(
            &graph(),
            "MATCH (n) RETURN n.x UNION ALL MATCH (n) RETURN n.x, n.y"
        )
        .is_err());
        // The error names the character, not its UTF-8 lead byte.
        assert_eq!(
            parse("MATCH (ñ) RETURN ñ.x").unwrap_err().0,
            "unexpected character 'ñ'"
        );
    }

    #[test]
    fn optional_match_keeps_unmatched_rows() {
        let rows = execute(
            &graph(),
            "MATCH (n:Person) OPTIONAL MATCH (n)<-[:advisedBy]-(s) RETURN n.iri AS p, s.iri AS s",
        )
        .unwrap();
        // alice matched twice (bob, carol); bob and carol keep NULL.
        assert_eq!(rows.len(), 4);
        let nulls = rows.rows.iter().filter(|r| r[1].is_none()).count();
        assert_eq!(nulls, 2);
    }

    #[test]
    fn optional_match_unbound_props_are_null() {
        let rows = execute(
            &graph(),
            "MATCH (c:Course) OPTIONAL MATCH (c)-[:taughtBy]->(t) RETURN c.title, t.iri",
        )
        .unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows.rows[0][1], None);
    }

    #[test]
    fn optional_requires_match_keyword() {
        assert!(execute(&graph(), "MATCH (n) OPTIONAL RETURN n.iri").is_err());
    }

    #[test]
    fn count_star() {
        let rows = execute(&graph(), "MATCH (n:Student) RETURN count(*) AS c").unwrap();
        assert_eq!(rows.rows, vec![vec![Some(Value::Int(2))]]);
    }

    #[test]
    fn count_expression_skips_nulls() {
        // Only alice has a name among Person nodes.
        let rows = execute(&graph(), "MATCH (n:Person) RETURN count(n.name) AS c").unwrap();
        assert_eq!(rows.rows, vec![vec![Some(Value::Int(1))]]);
    }

    #[test]
    fn count_distinct() {
        let rows = execute(
            &graph(),
            "MATCH (s:Student)-[:takesCourse]->(c:Course) RETURN count(DISTINCT c.title) AS c",
        )
        .unwrap();
        assert_eq!(rows.rows, vec![vec![Some(Value::Int(1))]]);
    }

    #[test]
    fn implicit_group_by_non_aggregated_items() {
        // Per-student course counts: bob takes 2 (db + carrier), carol 1.
        let rows = execute(
            &graph(),
            "MATCH (s:Student)-[:takesCourse]->(c) RETURN s.regNo AS r, count(*) AS n ORDER BY r",
        )
        .unwrap();
        assert_eq!(
            rows.rows,
            vec![
                vec![Some(Value::String("Bs12".into())), Some(Value::Int(2))],
                vec![Some(Value::String("Bs13".into())), Some(Value::Int(1))],
            ]
        );
    }

    #[test]
    fn count_on_empty_match_is_zero() {
        let rows = execute(&graph(), "MATCH (n:Nothing) RETURN count(*) AS c").unwrap();
        assert_eq!(rows.rows, vec![vec![Some(Value::Int(0))]]);
    }

    #[test]
    fn order_by_asc_desc_and_skip() {
        let rows = execute(&graph(), "MATCH (n:Student) RETURN n.age AS a ORDER BY a").unwrap();
        assert_eq!(
            rows.rows,
            vec![vec![Some(Value::Int(22))], vec![Some(Value::Int(24))]]
        );
        let rows = execute(
            &graph(),
            "MATCH (n:Student) RETURN n.age AS a ORDER BY a DESC",
        )
        .unwrap();
        assert_eq!(rows.rows[0], vec![Some(Value::Int(24))]);
        let rows = execute(
            &graph(),
            "MATCH (n:Student) RETURN n.age AS a ORDER BY a SKIP 1 LIMIT 1",
        )
        .unwrap();
        assert_eq!(rows.rows, vec![vec![Some(Value::Int(24))]]);
    }

    #[test]
    fn order_by_nulls_sort_last() {
        let rows = execute(&graph(), "MATCH (n:Person) RETURN n.name AS x ORDER BY x").unwrap();
        assert_eq!(rows.rows.last().unwrap(), &vec![None]);
        assert_eq!(rows.rows[0], vec![Some(Value::String("Alice".into()))]);
    }

    #[test]
    fn order_by_unknown_alias_errors() {
        assert!(execute(&graph(), "MATCH (n) RETURN n.x AS a ORDER BY b").is_err());
    }

    #[test]
    fn anonymous_nodes_and_rels() {
        let rows = execute(&graph(), "MATCH (:Student)-[]->(m:Course) RETURN m.title").unwrap();
        assert_eq!(rows.len(), 2);
    }

    /// Four nodes, answers written by hand: `count(v)` over a node or edge
    /// variable counts its bindings, `count(DISTINCT v)` its ids.
    #[test]
    fn count_over_bindings_counts_ids() {
        let mut pg = PropertyGraph::new();
        let ids: Vec<_> = ["a", "b", "c"]
            .into_iter()
            .map(|name| {
                let id = pg.add_node(["Person"]);
                pg.set_prop(id, "name", Value::String(name.into()));
                id
            })
            .collect();
        let course = pg.add_node(["Course"]);
        for (src, dst) in [(0, 1), (0, 2), (1, 2)] {
            pg.add_edge(ids[src], ids[dst], "knows");
        }
        pg.add_edge(ids[0], course, "takes");
        pg.add_edge(ids[2], course, "takes");
        let int = |n: i64| Some(Value::Int(n));
        let name = |n: &str| Some(Value::String(n.into()));
        let cases: Vec<(&str, Vec<Vec<Option<Value>>>)> = vec![
            (
                "MATCH (p:Person) RETURN count(p) AS n, count(*) AS m, count(DISTINCT p) AS d",
                vec![vec![int(3), int(3), int(3)]],
            ),
            (
                "MATCH (p:Person)-[k:knows]->(q) \
                 RETURN count(k) AS e, count(DISTINCT q) AS t, count(DISTINCT p) AS s",
                vec![vec![int(3), int(2), int(2)]],
            ),
            (
                "MATCH (p:Person)-[:knows]->(q) RETURN p.name AS p, count(q) AS n",
                vec![vec![name("a"), int(2)], vec![name("b"), int(1)]],
            ),
            (
                "MATCH (x)-[:takes]->(c:Course) RETURN count(x) AS n, count(DISTINCT c) AS d",
                vec![vec![int(2), int(1)]],
            ),
            (
                "MATCH (p:Person) OPTIONAL MATCH (p)-[:takes]->(c) RETURN p.name AS p, count(c) AS n",
                vec![
                    vec![name("a"), int(1)],
                    vec![name("b"), int(0)],
                    vec![name("c"), int(1)],
                ],
            ),
        ];
        let compact = pg.freeze();
        for (text, expected) in cases {
            let q = parse(text).unwrap();
            let params = Params::default();
            let planned = evaluate_planned_params(&pg, &q, &plan(&pg, &q), &params, 1).unwrap();
            assert_eq!(planned.rows, expected, "mutable: {text}");
            let frozen =
                evaluate_planned_params(&compact, &q, &plan(&compact, &q), &params, 1).unwrap();
            assert_eq!(frozen.rows, expected, "compact: {text}");
            assert_eq!(
                evaluate_scan(&pg, &q).unwrap().rows,
                expected,
                "scan: {text}"
            );
        }
    }

    /// PROFILE annotates a pattern's seed and every hop, not only the
    /// pattern's outermost operator, and the pattern total is unchanged.
    #[test]
    fn profile_records_the_seed_and_each_hop() {
        let pg = graph();
        let q = parse(
            "MATCH (p:Student)-[:advisedBy]->(a)<-[:advisedBy]-(o:Student) \
             MATCH (o)-[:takesCourse]->(c:Course) RETURN p.regNo, c.title",
        )
        .unwrap();
        let p = plan(&pg, &q);
        let sink = ProfSink::new();
        let rows = evaluate_planned_profiled(&pg, &q, &p, &Params::default(), 1, &sink).unwrap();
        let mut tree = explain(&q, &p);
        tree.annotate(&sink);
        let rows_of = |id: &str| tree.find(id).and_then(|n| n.rows);
        // Two students seed pattern 0; each reaches alice, who is advised
        // to both: 2 rows after the first hop, 4 after the second.
        assert_eq!(rows_of("p0.pat0.start"), Some(2), "{tree:?}");
        assert_eq!(rows_of("p0.pat0.hop0"), Some(2), "{tree:?}");
        assert_eq!(rows_of("p0.pat0"), Some(4), "{tree:?}");
        // Pattern 1 starts from the bound `o`: 4 rows, one course each.
        assert_eq!(rows_of("p0.pat1.start"), Some(4), "{tree:?}");
        assert_eq!(rows_of("p0.pat1"), Some(4), "{tree:?}");
        assert_eq!(rows.len(), 4);
        let timed = |id: &str| tree.find(id).and_then(|n| n.time_us).is_some();
        assert!(timed("p0.pat0.start") && timed("p0.pat0.hop0") && timed("p0.pat1.start"));
    }
}
