//! The batch operators of the Cypher executor, over any [`PgRead`].
//!
//! The scan oracle in [`crate::cypher`] carries each intermediate result
//! as a `FxHashMap<String, Binding>` — every pattern hop clones the map,
//! re-hashes variable names, and re-probes the key dictionary per property
//! read. The executor runs the plan (pattern order, index pushdown, reverse
//! anchoring) through batched physical operators instead:
//!
//! * label scans and eq-index probes emit sorted id runs (postings
//!   slices) that become a node **column**;
//! * adjacency expansion is a gather — one pass over each anchor's
//!   adjacency row appends to a selection vector plus edge/target columns,
//!   then every existing column is gathered by the selection vector.
//!   Tombstoned edges are skipped by [`PgRead::edge_live`], which is
//!   constant `true` on the compact form's CSR rows and compiles away
//!   there;
//! * property predicates and projections compile to [`VExpr`] trees whose
//!   label/key strings are resolved to symbols **once per batch**, then
//!   evaluated over id vectors.
//!
//! [`crate::morsel`] drives these operators on the calling thread and
//! owns the shaping tail. Answers agree with the
//! scan oracle as multisets (pinned by `tests/vectorized_differential.rs`):
//! operators apply the same three-valued NULL logic via the shared
//! [`compare`], and the `OPTIONAL MATCH` tail, which is row-oriented by
//! nature, materializes rows and runs the oracle's own left join.

use crate::cypher::compare;
use crate::cypher::{
    err, start_candidates, Binding, CmpOp, CypherError, Direction, Expr, NodePattern, Params,
    PathPattern, Probe, ReturnItem, Row, SingleQuery,
};
use crate::profile::ProfHook;
use s3pg_pg::{EdgeId, NodeId, PgRead, Value};
use s3pg_rdf::Sym;

/// One column of a batch: homogeneous bindings for a variable across all
/// rows. Node/edge columns are plain id vectors; `Val` columns (UNWIND
/// output) hold owned values.
#[derive(Debug, Clone)]
pub(crate) enum Col {
    Node(Vec<NodeId>),
    Edge(Vec<EdgeId>),
    Val(Vec<Value>),
}

impl Col {
    fn gather(&self, sel: &[u32]) -> Col {
        match self {
            Col::Node(v) => Col::Node(sel.iter().map(|&i| v[i as usize]).collect()),
            Col::Edge(v) => Col::Edge(sel.iter().map(|&i| v[i as usize]).collect()),
            Col::Val(v) => Col::Val(sel.iter().map(|&i| v[i as usize].clone()).collect()),
        }
    }
}

/// A batch of intermediate rows in columnar form: named columns of equal
/// length. The scan oracle's per-row hash maps become one `(name, column)`
/// pair per variable for the whole batch.
#[derive(Debug, Clone)]
pub(crate) struct Batch {
    pub(crate) cols: Vec<(String, Col)>,
    pub(crate) len: usize,
}

impl Batch {
    /// The expansion seed: one row binding nothing (the scan oracle's
    /// `vec![Row::default()]`).
    pub(crate) fn unit() -> Batch {
        Batch {
            cols: Vec::new(),
            len: 1,
        }
    }

    fn col_index(&self, name: &str) -> Option<usize> {
        self.cols.iter().position(|(n, _)| n == name)
    }

    fn col(&self, name: &str) -> Option<&Col> {
        self.cols.iter().find(|(n, _)| n == name).map(|(_, c)| c)
    }

    /// Regenerate every column through a selection vector of row indices
    /// (repeats allowed — fan-out gathers repeat the source row index once
    /// per emitted candidate).
    fn gather(&self, sel: &[u32]) -> Batch {
        Batch {
            cols: self
                .cols
                .iter()
                .map(|(n, c)| (n.clone(), c.gather(sel)))
                .collect(),
            len: sel.len(),
        }
    }

    /// Bind (or rebind) a variable column, mirroring `Row::insert`'s
    /// overwrite semantics.
    fn set_col(&mut self, name: &str, col: Col) {
        match self.col_index(name) {
            Some(i) => self.cols[i].1 = col,
            None => self.cols.push((name.to_string(), col)),
        }
    }
}

/// Node-pattern labels resolved to symbols once per batch. `None` means a
/// label the dictionary has never seen — no node can match.
fn resolve_node_labels<G: PgRead>(pg: &G, labels: &[String]) -> Option<Vec<Sym>> {
    labels.iter().map(|l| pg.key_sym(l)).collect()
}

#[inline]
fn labels_match<G: PgRead>(pg: &G, labels: &Option<Vec<Sym>>, n: NodeId) -> bool {
    match labels {
        None => false,
        Some(syms) => {
            let row = pg.node_label_syms(n);
            syms.iter().all(|s| row.contains(s))
        }
    }
}

/// Relationship labels resolved once per batch; an empty pattern matches
/// every edge, and unresolvable labels can never match.
struct RelSyms {
    match_all: bool,
    syms: Vec<Sym>,
}

fn resolve_rel_labels<G: PgRead>(pg: &G, labels: &[String]) -> RelSyms {
    RelSyms {
        match_all: labels.is_empty(),
        syms: labels.iter().filter_map(|l| pg.key_sym(l)).collect(),
    }
}

#[inline]
fn edge_label_ok<G: PgRead>(pg: &G, rs: &RelSyms, e: EdgeId) -> bool {
    if rs.match_all {
        return true;
    }
    let row = pg.edge_label_syms(e);
    rs.syms.iter().any(|s| row.contains(s))
}

/// Seed a pattern's start binding over an incoming batch: filter an
/// already-bound node column, or cross-product with the (probe or label
/// scan) candidate run. Returns the seeded batch plus the anchor column
/// the hops expand from.
fn seed_batch<G: PgRead>(
    pg: &G,
    pattern: &PathPattern,
    probe: Option<&Probe>,
    batch: Batch,
) -> Result<(Batch, Vec<NodeId>), CypherError> {
    let start = &pattern.start;
    match start.var.as_deref().and_then(|v| batch.col_index(v)) {
        Some(ci) => match &batch.cols[ci].1 {
            Col::Node(ids) => {
                let labels = resolve_node_labels(pg, &start.labels);
                let mut sel: Vec<u32> = Vec::with_capacity(ids.len());
                for (i, &n) in ids.iter().enumerate() {
                    if labels_match(pg, &labels, n) {
                        sel.push(i as u32);
                    }
                }
                let anchors: Vec<NodeId> = sel.iter().map(|&i| ids[i as usize]).collect();
                Ok((batch.gather(&sel), anchors))
            }
            _ => {
                if batch.len > 0 {
                    err("pattern variable already bound to a non-node")
                } else {
                    Ok((batch, Vec::new()))
                }
            }
        },
        None => {
            let candidates = start_candidates(pg, start, probe);
            let labels = resolve_node_labels(pg, &start.labels);
            let matching: Vec<NodeId> = candidates
                .as_slice()
                .iter()
                .copied()
                .filter(|&n| labels_match(pg, &labels, n))
                .collect();
            let n = batch.len;
            let m = matching.len();
            // Row-major cross product, matching the interpreter's
            // per-row candidate enumeration order.
            let mut sel: Vec<u32> = Vec::with_capacity(n * m);
            for i in 0..n as u32 {
                for _ in 0..m {
                    sel.push(i);
                }
            }
            let mut out = batch.gather(&sel);
            let mut anchors: Vec<NodeId> = Vec::with_capacity(n * m);
            for _ in 0..n {
                anchors.extend_from_slice(&matching);
            }
            if let Some(v) = &start.var {
                out.set_col(v, Col::Node(anchors.clone()));
            }
            Ok((out, anchors))
        }
    }
}

/// Seed the first pattern from its candidate run (the oracle's
/// `seed_rows` over a slice).
pub(crate) fn seed_candidates<G: PgRead>(
    pg: &G,
    start: &NodePattern,
    candidates: &[NodeId],
) -> (Batch, Vec<NodeId>) {
    let labels = resolve_node_labels(pg, &start.labels);
    let matching: Vec<NodeId> = candidates
        .iter()
        .copied()
        .filter(|&n| labels_match(pg, &labels, n))
        .collect();
    let mut batch = Batch {
        cols: Vec::new(),
        len: matching.len(),
    };
    if let Some(v) = &start.var {
        batch.set_col(v, Col::Node(matching.clone()));
    }
    (batch, matching)
}

/// Expand a pattern's hops: for each hop, one pass over every anchor's
/// adjacency row builds a selection vector plus edge/target columns, then
/// the batch is gathered through it. Check order (liveness, edge label,
/// target label, pre-bound target equality) matches the scan oracle's, so
/// rows come out in the oracle's adjacency order.
pub(crate) fn expand_hops_batch<G: PgRead>(
    pg: &G,
    pattern: &PathPattern,
    mut batch: Batch,
    mut anchors: Vec<NodeId>,
) -> Result<Batch, CypherError> {
    for (rel, node) in &pattern.hops {
        let rel_syms = resolve_rel_labels(pg, &rel.labels);
        let node_labels = resolve_node_labels(pg, &node.labels);
        let prebound = node.var.as_deref().and_then(|v| batch.col(v));
        let mut sel: Vec<u32> = Vec::new();
        let mut edges: Vec<EdgeId> = Vec::new();
        let mut targets: Vec<NodeId> = Vec::new();
        for (i, &anchor) in anchors.iter().enumerate() {
            let mut scan = |adj: &[EdgeId], outgoing: bool| {
                for &e in adj {
                    if !pg.edge_live(e) || !edge_label_ok(pg, &rel_syms, e) {
                        continue;
                    }
                    let (src, dst) = pg.edge_endpoints(e);
                    let other = if outgoing { dst } else { src };
                    if !labels_match(pg, &node_labels, other) {
                        continue;
                    }
                    // Respect pre-bound node variables (joins between
                    // patterns): a non-node binding never equals a node.
                    match prebound {
                        Some(Col::Node(ids)) if ids[i] != other => continue,
                        Some(Col::Node(_)) | None => {}
                        Some(_) => continue,
                    }
                    sel.push(i as u32);
                    edges.push(e);
                    targets.push(other);
                }
            };
            match rel.direction {
                Direction::Out => scan(pg.out_adjacency(anchor), true),
                Direction::In => scan(pg.in_adjacency(anchor), false),
                Direction::Undirected => {
                    scan(pg.out_adjacency(anchor), true);
                    scan(pg.in_adjacency(anchor), false);
                }
            }
        }
        let mut next = batch.gather(&sel);
        if let Some(v) = &rel.var {
            next.set_col(v, Col::Edge(edges));
        }
        if let Some(v) = &node.var {
            next.set_col(v, Col::Node(targets.clone()));
        }
        anchors = targets;
        batch = next;
        if batch.len == 0 {
            break;
        }
    }
    Ok(batch)
}

/// Evaluate a single-hop pattern anchored at its already-bound end node —
/// the [`ExpandReverse`] operator: walk the opposite adjacency row of each
/// end binding and gather matching start nodes. Same row multiset as the
/// forward expansion, in the end node's adjacency order.
///
/// [`ExpandReverse`]: crate::cypher::explain
fn expand_reversed<G: PgRead>(
    pg: &G,
    pattern: &PathPattern,
    batch: Batch,
) -> Result<Batch, CypherError> {
    let (rel, end) = &pattern.hops[0];
    let end_var = end
        .var
        .as_deref()
        .expect("reversed pattern has an end variable");
    let Some(ci) = batch.col_index(end_var) else {
        // Defensive: the planner only reverses patterns whose end variable
        // is bound by an earlier pattern, but fall back to the forward
        // expansion rather than miscompute.
        let (seeded, anchors) = seed_batch(pg, pattern, None, batch)?;
        return expand_hops_batch(pg, pattern, seeded, anchors);
    };
    let Col::Node(ends) = &batch.cols[ci].1 else {
        // A non-node binding never matches a node pattern: no rows.
        let mut out = batch.gather(&[]);
        if let Some(v) = &rel.var {
            out.set_col(v, Col::Edge(Vec::new()));
        }
        if let Some(v) = &pattern.start.var {
            out.set_col(v, Col::Node(Vec::new()));
        }
        return Ok(out);
    };
    let end_labels = resolve_node_labels(pg, &end.labels);
    let start_labels = resolve_node_labels(pg, &pattern.start.labels);
    let rel_syms = resolve_rel_labels(pg, &rel.labels);
    let mut sel: Vec<u32> = Vec::new();
    let mut edges: Vec<EdgeId> = Vec::new();
    let mut starts: Vec<NodeId> = Vec::new();
    for (i, &anchor) in ends.iter().enumerate() {
        if !labels_match(pg, &end_labels, anchor) {
            continue;
        }
        let mut scan = |adj: &[EdgeId], incoming: bool| {
            for &e in adj {
                if !pg.edge_live(e) || !edge_label_ok(pg, &rel_syms, e) {
                    continue;
                }
                let (src, dst) = pg.edge_endpoints(e);
                let other = if incoming { src } else { dst };
                if !labels_match(pg, &start_labels, other) {
                    continue;
                }
                sel.push(i as u32);
                edges.push(e);
                starts.push(other);
            }
        };
        // The hop direction is written relative to the start node; anchored
        // at the end we walk the opposite adjacency list.
        match rel.direction {
            Direction::Out => scan(pg.in_adjacency(anchor), true),
            Direction::In => scan(pg.out_adjacency(anchor), false),
            Direction::Undirected => {
                scan(pg.out_adjacency(anchor), false);
                scan(pg.in_adjacency(anchor), true);
            }
        }
    }
    let mut out = batch.gather(&sel);
    if let Some(v) = &rel.var {
        out.set_col(v, Col::Edge(edges));
    }
    if let Some(v) = &pattern.start.var {
        out.set_col(v, Col::Node(starts));
    }
    Ok(out)
}

/// One planned pattern: reverse-anchored or seed-then-expand.
pub(crate) fn expand_pattern<G: PgRead>(
    pg: &G,
    pattern: &PathPattern,
    probe: Option<&Probe>,
    reversed: bool,
    batch: Batch,
) -> Result<Batch, CypherError> {
    if reversed {
        expand_reversed(pg, pattern, batch)
    } else {
        let (seeded, anchors) = seed_batch(pg, pattern, probe, batch)?;
        expand_hops_batch(pg, pattern, seeded, anchors)
    }
}

/// An expression compiled against one batch's column layout: variable
/// names resolved to column indexes and property keys to dictionary
/// symbols once, instead of per row. Evaluation mirrors the scan oracle's
/// `eval` (same NULL propagation, same three-valued logic, the shared
/// [`compare`]).
pub(crate) enum VExpr {
    /// Literals, `NULL`, resolved parameters, and every reference that can
    /// only ever be NULL (unbound variables, unknown keys, non-node
    /// bindings).
    Const(Option<Value>),
    ValCol(usize),
    NodeProp(usize, Sym),
    EdgeProp(usize, Sym),
    Coalesce(Vec<VExpr>),
    Cmp(CmpOp, Box<VExpr>, Box<VExpr>),
    And(Box<VExpr>, Box<VExpr>),
    Or(Box<VExpr>, Box<VExpr>),
    Not(Box<VExpr>),
    IsNull(Box<VExpr>, bool),
}

impl VExpr {
    pub(crate) fn compile<G: PgRead>(pg: &G, expr: &Expr, batch: &Batch, params: &Params) -> VExpr {
        match expr {
            Expr::Null => VExpr::Const(None),
            Expr::Lit(v) => VExpr::Const(Some(v.clone())),
            // Unbound parameters are rejected before evaluation starts, so
            // a miss (library misuse) degrades to NULL, never a panic.
            Expr::Param(name) => VExpr::Const(params.get(name).cloned()),
            Expr::Var(name) => match batch.col_index(name) {
                Some(ci) => match &batch.cols[ci].1 {
                    Col::Val(_) => VExpr::ValCol(ci),
                    _ => VExpr::Const(None),
                },
                None => VExpr::Const(None),
            },
            Expr::Prop(var, key) => match (batch.col_index(var), pg.key_sym(key)) {
                (Some(ci), Some(k)) => match &batch.cols[ci].1 {
                    Col::Node(_) => VExpr::NodeProp(ci, k),
                    Col::Edge(_) => VExpr::EdgeProp(ci, k),
                    Col::Val(_) => VExpr::Const(None),
                },
                _ => VExpr::Const(None),
            },
            Expr::Coalesce(args) => VExpr::Coalesce(
                args.iter()
                    .map(|a| VExpr::compile(pg, a, batch, params))
                    .collect(),
            ),
            Expr::Cmp(op, l, r) => VExpr::Cmp(
                *op,
                Box::new(VExpr::compile(pg, l, batch, params)),
                Box::new(VExpr::compile(pg, r, batch, params)),
            ),
            Expr::And(a, b) => VExpr::And(
                Box::new(VExpr::compile(pg, a, batch, params)),
                Box::new(VExpr::compile(pg, b, batch, params)),
            ),
            Expr::Or(a, b) => VExpr::Or(
                Box::new(VExpr::compile(pg, a, batch, params)),
                Box::new(VExpr::compile(pg, b, batch, params)),
            ),
            Expr::Not(a) => VExpr::Not(Box::new(VExpr::compile(pg, a, batch, params))),
            Expr::IsNull(a, negated) => {
                VExpr::IsNull(Box::new(VExpr::compile(pg, a, batch, params)), *negated)
            }
        }
    }

    pub(crate) fn eval<G: PgRead>(&self, pg: &G, batch: &Batch, i: usize) -> Option<Value> {
        match self {
            VExpr::Const(v) => v.clone(),
            VExpr::ValCol(ci) => match &batch.cols[*ci].1 {
                Col::Val(v) => Some(v[i].clone()),
                _ => unreachable!("compiled against this batch"),
            },
            VExpr::NodeProp(ci, k) => match &batch.cols[*ci].1 {
                Col::Node(v) => pg.node_prop_sym(v[i], *k),
                _ => unreachable!("compiled against this batch"),
            },
            VExpr::EdgeProp(ci, k) => match &batch.cols[*ci].1 {
                Col::Edge(v) => pg.edge_prop_sym(v[i], *k),
                _ => unreachable!("compiled against this batch"),
            },
            VExpr::Coalesce(args) => args.iter().find_map(|a| a.eval(pg, batch, i)),
            VExpr::Cmp(op, l, r) => {
                let lv = l.eval(pg, batch, i)?;
                let rv = r.eval(pg, batch, i)?;
                let ord = compare(&lv, &rv)?;
                Some(Value::Bool(match op {
                    CmpOp::Eq => ord.is_eq(),
                    CmpOp::Ne => ord.is_ne(),
                    CmpOp::Lt => ord.is_lt(),
                    CmpOp::Le => ord.is_le(),
                    CmpOp::Gt => ord.is_gt(),
                    CmpOp::Ge => ord.is_ge(),
                }))
            }
            VExpr::And(a, b) => match (a.eval(pg, batch, i), b.eval(pg, batch, i)) {
                (Some(Value::Bool(x)), Some(Value::Bool(y))) => Some(Value::Bool(x && y)),
                (Some(Value::Bool(false)), _) | (_, Some(Value::Bool(false))) => {
                    Some(Value::Bool(false))
                }
                _ => None,
            },
            VExpr::Or(a, b) => match (a.eval(pg, batch, i), b.eval(pg, batch, i)) {
                (Some(Value::Bool(x)), Some(Value::Bool(y))) => Some(Value::Bool(x || y)),
                (Some(Value::Bool(true)), _) | (_, Some(Value::Bool(true))) => {
                    Some(Value::Bool(true))
                }
                _ => None,
            },
            VExpr::Not(a) => match a.eval(pg, batch, i) {
                Some(Value::Bool(b)) => Some(Value::Bool(!b)),
                _ => None,
            },
            VExpr::IsNull(a, negated) => {
                let is_null = a.eval(pg, batch, i).is_none();
                Some(Value::Bool(is_null != *negated))
            }
        }
    }
}

/// Materialize a batch back into binding rows (the `OPTIONAL MATCH`
/// tail).
pub(crate) fn batch_to_rows(batch: &Batch) -> Vec<Row> {
    (0..batch.len)
        .map(|i| {
            let mut row = Row::default();
            for (name, col) in &batch.cols {
                let binding = match col {
                    Col::Node(v) => Binding::Node(v[i]),
                    Col::Edge(v) => Binding::Edge(v[i]),
                    Col::Val(v) => Binding::Val(v[i].clone()),
                };
                row.insert(name.clone(), binding);
            }
            row
        })
        .collect()
}

/// The row-stage middle of a part: WHERE / UNWIND / post-UNWIND WHERE as
/// selection-vector filters over compiled expressions, recorded under the
/// operator ids EXPLAIN assigns.
pub(crate) fn apply_row_stages<G: PgRead, P: ProfHook>(
    pg: &G,
    q: &SingleQuery,
    mut batch: Batch,
    params: &Params,
    prof: P,
) -> Result<Batch, CypherError> {
    if let Some(where_clause) = &q.where_clause {
        let started = prof.begin();
        let ve = VExpr::compile(pg, where_clause, &batch, params);
        let mut sel: Vec<u32> = Vec::with_capacity(batch.len);
        for i in 0..batch.len {
            if matches!(ve.eval(pg, &batch, i), Some(Value::Bool(true))) {
                sel.push(i as u32);
            }
        }
        batch = batch.gather(&sel);
        prof.record(format_args!("filter"), batch.len, started);
    }
    for (k, (expr, var)) in q.unwind.iter().enumerate() {
        let started = prof.begin();
        let ve = VExpr::compile(pg, expr, &batch, params);
        let mut sel: Vec<u32> = Vec::new();
        let mut vals: Vec<Value> = Vec::new();
        for i in 0..batch.len {
            // UNWIND NULL → no rows; lists flatten, scalars pass through.
            if let Some(value) = ve.eval(pg, &batch, i) {
                for item in value.iter_flat() {
                    sel.push(i as u32);
                    vals.push(item.clone());
                }
            }
        }
        batch = batch.gather(&sel);
        batch.set_col(var, Col::Val(vals));
        prof.record(format_args!("unwind{k}"), batch.len, started);
    }
    if let Some(unwind_where) = &q.unwind_where {
        let started = prof.begin();
        let ve = VExpr::compile(pg, unwind_where, &batch, params);
        let mut sel: Vec<u32> = Vec::with_capacity(batch.len);
        for i in 0..batch.len {
            if matches!(ve.eval(pg, &batch, i), Some(Value::Bool(true))) {
                sel.push(i as u32);
            }
        }
        batch = batch.gather(&sel);
        prof.record(format_args!("unwind_filter"), batch.len, started);
    }
    Ok(batch)
}

/// Compile every return item against a batch's column layout: `Some` for
/// expressions and aggregate arguments, `None` for `count(*)` (no
/// argument — every row counts).
pub(crate) fn compile_return_items<G: PgRead>(
    pg: &G,
    q: &SingleQuery,
    batch: &Batch,
    params: &Params,
) -> Vec<Option<VExpr>> {
    q.return_items
        .iter()
        .map(|(item, _)| match item {
            ReturnItem::Expr(e) => Some(VExpr::compile(pg, e, batch, params)),
            ReturnItem::Agg { arg, .. } => {
                arg.as_ref().map(|e| VExpr::compile(pg, e, batch, params))
            }
        })
        .collect()
}
