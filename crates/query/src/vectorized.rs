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
//!   columns, key symbols and parameters are resolved **once per batch**,
//!   then evaluated over id vectors. A row reads borrowed [`Cell`]s — a
//!   scalar property is a [`PgRead::node_scalar`] read, with strings as
//!   `&str` into the store — so the row kernels allocate nothing per row;
//!   a WHERE comparison with a constant runs as its own loop.
//!
//! [`crate::morsel`] drives these operators on the calling thread and
//! owns the shaping tail. Answers agree with the
//! scan oracle as multisets (pinned by `tests/vectorized_differential.rs`):
//! operators apply the same three-valued NULL logic via the shared
//! [`compare_scalars`], of which the oracle's `compare` is a wrapper, and
//! the `OPTIONAL MATCH` tail, which is row-oriented by nature,
//! materializes rows and runs the oracle's own left join.

use crate::cypher::{
    compare_scalars, err, start_candidates, Binding, CmpOp, CypherError, Direction, Expr,
    NodePattern, Params, PathPattern, Probe, ReturnItem, Row, SingleQuery,
};
use crate::profile::{NoProf, ProfHook};
use s3pg_pg::{EdgeId, NodeId, PgRead, Scalar, Value};
use s3pg_rdf::fxhash::FxHasher;
use s3pg_rdf::Sym;
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};

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
pub(crate) fn expand_hops_batch<G: PgRead, P: ProfHook>(
    pg: &G,
    pattern: &PathPattern,
    mut batch: Batch,
    mut anchors: Vec<NodeId>,
    prof: P,
    pi: usize,
) -> Result<Batch, CypherError> {
    for (h, (rel, node)) in pattern.hops.iter().enumerate() {
        let started = prof.begin();
        let rel_syms = resolve_rel_labels(pg, &rel.labels);
        let node_labels = resolve_node_labels(pg, &node.labels);
        let prebound = node.var.as_deref().and_then(|v| batch.col(v));
        let bind_edges = rel.var.is_some();
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
                    if bind_edges {
                        edges.push(e);
                    }
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
        prof.record(format_args!("pat{pi}.hop{h}"), batch.len, started);
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
        return expand_hops_batch(pg, pattern, seeded, anchors, NoProf, 0);
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

/// One planned pattern (`pi`): reverse-anchored or seed-then-expand. The
/// seed records as `pat{pi}.start` and each hop as `pat{pi}.hop{h}`.
pub(crate) fn expand_pattern<G: PgRead, P: ProfHook>(
    pg: &G,
    pattern: &PathPattern,
    probe: Option<&Probe>,
    reversed: bool,
    batch: Batch,
    prof: P,
    pi: usize,
) -> Result<Batch, CypherError> {
    if reversed {
        expand_reversed(pg, pattern, batch)
    } else {
        let started = prof.begin();
        let (seeded, anchors) = seed_batch(pg, pattern, probe, batch)?;
        prof.record(format_args!("pat{pi}.start"), seeded.len, started);
        expand_hops_batch(pg, pattern, seeded, anchors, prof, pi)
    }
}

/// One evaluated expression in the row kernels: NULL, a scalar borrowed
/// from the store, a parameter or an UNWIND column, or a list. Reading a
/// scalar allocates nothing; only a list read from the store is owned. A
/// node or edge binding is a cell only where an aggregate takes the bare
/// variable (`count(n)`); everywhere else it evaluates to NULL, as in the
/// scan oracle's `eval`.
///
/// Equality and hashing are *key* equality, which grouping, `DISTINCT`
/// and `count(DISTINCT …)` share: two cells are equal exactly when their
/// values' `Debug` renderings are (`Int(1)` ≠ `Float(1.0)`, `-0.0` ≠
/// `0.0`, every NaN one key, a string never equals a date), and entities
/// are equal by id.
#[derive(Debug, Clone)]
pub(crate) enum Cell<'a> {
    Null,
    Scalar(Scalar<'a>),
    /// A value with no scalar form: a list.
    List(Cow<'a, Value>),
    Node(NodeId),
    Edge(EdgeId),
}

impl<'a> Cell<'a> {
    /// A value as a cell, borrowed.
    pub(crate) fn of(v: &'a Value) -> Cell<'a> {
        match v.as_scalar() {
            Some(s) => Cell::Scalar(s),
            None => Cell::List(Cow::Borrowed(v)),
        }
    }

    /// A nullable value as a cell, borrowed.
    pub(crate) fn of_option(v: &'a Option<Value>) -> Cell<'a> {
        v.as_ref().map_or(Cell::Null, Cell::of)
    }

    /// A property with no scalar read: missing, or a list read through
    /// the owned path.
    fn list(v: Option<Value>) -> Cell<'a> {
        v.map_or(Cell::Null, |v| {
            debug_assert!(v.as_scalar().is_none(), "a scalar read as a list");
            Cell::List(Cow::Owned(v))
        })
    }

    /// The output value: entities stay NULL until `RETURN n` renders them.
    pub(crate) fn into_value(self) -> Option<Value> {
        match self {
            Cell::Scalar(s) => Some(s.to_value()),
            Cell::List(v) => Some(v.into_owned()),
            Cell::Null | Cell::Node(_) | Cell::Edge(_) => None,
        }
    }

    /// The value as `Debug` renders it, `∅` for NULL: the key groups are
    /// ordered by at `finish`, rendered once per group. A [`Scalar`]'s
    /// `Debug` writes what its [`Value`]'s does (same variant names, and
    /// `&str` renders as `String` does).
    pub(crate) fn render_key(&self) -> String {
        match self {
            Cell::Scalar(s) => format!("{s:?}"),
            Cell::List(v) => format!("{v:?}"),
            Cell::Null | Cell::Node(_) | Cell::Edge(_) => "∅".to_string(),
        }
    }
}

/// The hasher of every set keyed by [`Cell`]: FxHash with a final
/// avalanche (MurmurHash3's `fmix64`). A plain Fx hash's low bits, which
/// pick the bucket, are a function of the low bits of the last words
/// written, so IRIs that differ only before a constant suffix, or floats
/// with zero low mantissa bits, crowd into a few buckets.
#[derive(Default)]
pub(crate) struct KeyHasher(FxHasher);

impl Hasher for KeyHasher {
    #[inline]
    fn finish(&self) -> u64 {
        let mut h = self.0.finish();
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 33;
        h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
        h ^ (h >> 33)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.write(bytes);
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.0.write_u8(v);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.0.write_u32(v);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.0.write_u64(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.0.write_usize(v);
    }
}

/// A map keyed by cells under key equality.
pub(crate) type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;
/// A set of cells under key equality.
pub(crate) type KeySet<T> = HashSet<T, BuildHasherDefault<KeyHasher>>;

/// Key equality of two scalars (see [`Cell`]): same variant, same
/// payload, floats by bits except that every NaN is one key.
fn scalar_key_eq(a: Scalar<'_>, b: Scalar<'_>) -> bool {
    match (a, b) {
        (Scalar::Float(x), Scalar::Float(y)) => float_key(x) == float_key(y),
        _ => a == b,
    }
}

/// The bits a float keys on: its own, or one pattern for every NaN.
fn float_key(x: f64) -> u64 {
    if x.is_nan() {
        f64::NAN.to_bits()
    } else {
        x.to_bits()
    }
}

fn value_key_eq(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::List(x), Value::List(y)) => {
            x.len() == y.len() && x.iter().zip(y).all(|(a, b)| value_key_eq(a, b))
        }
        _ => match (a.as_scalar(), b.as_scalar()) {
            (Some(x), Some(y)) => scalar_key_eq(x, y),
            _ => false,
        },
    }
}

fn hash_scalar<H: Hasher>(s: Scalar<'_>, state: &mut H) {
    std::mem::discriminant(&s).hash(state);
    match s {
        Scalar::String(v) | Scalar::Date(v) | Scalar::DateTime(v) => v.hash(state),
        Scalar::Int(i) => i.hash(state),
        Scalar::Float(f) => float_key(f).hash(state),
        Scalar::Bool(b) => b.hash(state),
        Scalar::Year(y) => y.hash(state),
    }
}

fn hash_value<H: Hasher>(v: &Value, state: &mut H) {
    match (v, v.as_scalar()) {
        (_, Some(s)) => hash_scalar(s, state),
        (Value::List(items), None) => {
            items.len().hash(state);
            for item in items {
                hash_value(item, state);
            }
        }
        (_, None) => {}
    }
}

impl PartialEq for Cell<'_> {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Cell::Null, Cell::Null) => true,
            (Cell::Scalar(a), Cell::Scalar(b)) => scalar_key_eq(*a, *b),
            (Cell::List(a), Cell::List(b)) => value_key_eq(a, b),
            (Cell::Node(a), Cell::Node(b)) => a == b,
            (Cell::Edge(a), Cell::Edge(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Cell<'_> {}

impl Hash for Cell<'_> {
    fn hash<H: Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Cell::Null => {}
            Cell::Scalar(s) => hash_scalar(*s, state),
            Cell::List(v) => hash_value(v, state),
            Cell::Node(n) => n.hash(state),
            Cell::Edge(e) => e.hash(state),
        }
    }
}

/// The text `Value`'s `Display` writes, which orders values of types
/// [`compare`](crate::cypher::compare) cannot compare. Only values are
/// ever ordered; NULL and entities write nothing.
impl fmt::Display for Cell<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cell::Scalar(s) => write!(f, "{s}"),
            Cell::List(v) => write!(f, "{v}"),
            Cell::Null | Cell::Node(_) | Cell::Edge(_) => Ok(()),
        }
    }
}

/// An expression compiled against one batch: variable names resolved to
/// the batch's columns, property keys to dictionary symbols, and
/// parameters to their values, once per batch instead of per row.
/// Evaluation mirrors the scan oracle's `eval` (same NULL propagation,
/// same three-valued logic, the shared [`compare_scalars`]) but reads
/// borrowed [`Cell`]s and [`Scalar`]s, so a row costs no allocation.
pub(crate) enum VExpr<'b> {
    /// Literals, `NULL`, resolved parameters, and every reference that can
    /// only ever be NULL (unbound variables, unknown keys, non-node
    /// bindings).
    Const(Option<Value>),
    Vals(&'b [Value]),
    NodeProp(&'b [NodeId], Sym),
    EdgeProp(&'b [EdgeId], Sym),
    /// A bare node or edge variable as an aggregate's argument.
    NodeVar(&'b [NodeId]),
    EdgeVar(&'b [EdgeId]),
    Coalesce(Vec<VExpr<'b>>),
    Cmp(CmpOp, Box<VExpr<'b>>, Box<VExpr<'b>>),
    And(Box<VExpr<'b>>, Box<VExpr<'b>>),
    Or(Box<VExpr<'b>>, Box<VExpr<'b>>),
    Not(Box<VExpr<'b>>),
    IsNull(Box<VExpr<'b>>, bool),
}

impl<'b> VExpr<'b> {
    pub(crate) fn compile<G: PgRead>(
        pg: &G,
        expr: &Expr,
        batch: &'b Batch,
        params: &Params,
    ) -> VExpr<'b> {
        let compile = |e: &Expr| Box::new(VExpr::compile(pg, e, batch, params));
        match expr {
            Expr::Null => VExpr::Const(None),
            Expr::Lit(v) => VExpr::Const(Some(v.clone())),
            // Unbound parameters are rejected before evaluation starts, so
            // a miss (library misuse) degrades to NULL, never a panic.
            Expr::Param(name) => VExpr::Const(params.get(name).cloned()),
            Expr::Var(name) => match batch.col(name) {
                Some(Col::Val(v)) => VExpr::Vals(v),
                _ => VExpr::Const(None),
            },
            Expr::Prop(var, key) => match (batch.col(var), pg.key_sym(key)) {
                (Some(Col::Node(ids)), Some(k)) => VExpr::NodeProp(ids, k),
                (Some(Col::Edge(ids)), Some(k)) => VExpr::EdgeProp(ids, k),
                _ => VExpr::Const(None),
            },
            Expr::Coalesce(args) => VExpr::Coalesce(
                args.iter()
                    .map(|a| VExpr::compile(pg, a, batch, params))
                    .collect(),
            ),
            Expr::Cmp(op, l, r) => VExpr::Cmp(*op, compile(l), compile(r)),
            Expr::And(a, b) => VExpr::And(compile(a), compile(b)),
            Expr::Or(a, b) => VExpr::Or(compile(a), compile(b)),
            Expr::Not(a) => VExpr::Not(compile(a)),
            Expr::IsNull(a, negated) => VExpr::IsNull(compile(a), *negated),
        }
    }

    /// An aggregate's argument: a bare node or edge variable is its
    /// binding, so `count(n)` counts bindings; anything else compiles as
    /// an expression.
    fn compile_agg_arg<G: PgRead>(
        pg: &G,
        expr: &Expr,
        batch: &'b Batch,
        params: &Params,
    ) -> VExpr<'b> {
        match expr {
            Expr::Var(name) => match batch.col(name) {
                Some(Col::Node(ids)) => VExpr::NodeVar(ids),
                Some(Col::Edge(ids)) => VExpr::EdgeVar(ids),
                _ => VExpr::compile(pg, expr, batch, params),
            },
            _ => VExpr::compile(pg, expr, batch, params),
        }
    }

    /// The value of row `i`.
    #[inline]
    pub(crate) fn cell<'a, G: PgRead>(&'a self, pg: &'a G, i: usize) -> Cell<'a> {
        match self {
            VExpr::Const(v) => Cell::of_option(v),
            VExpr::Vals(v) => Cell::of(&v[i]),
            VExpr::NodeProp(ids, k) => match pg.node_scalar(ids[i], *k) {
                Some(s) => Cell::Scalar(s),
                None => Cell::list(pg.node_prop_sym(ids[i], *k)),
            },
            VExpr::EdgeProp(ids, k) => match pg.edge_scalar(ids[i], *k) {
                Some(s) => Cell::Scalar(s),
                None => Cell::list(pg.edge_prop_sym(ids[i], *k)),
            },
            VExpr::NodeVar(ids) => Cell::Node(ids[i]),
            VExpr::EdgeVar(ids) => Cell::Edge(ids[i]),
            _ => self.compound_cell(pg, i),
        }
    }

    /// [`VExpr::cell`] of the expressions built from others, kept out of
    /// line so the leaf reads inline into the kernels' loops.
    fn compound_cell<'a, G: PgRead>(&'a self, pg: &'a G, i: usize) -> Cell<'a> {
        match self {
            VExpr::Coalesce(args) => {
                for a in args {
                    let c = a.cell(pg, i);
                    if !matches!(c, Cell::Null) {
                        return c;
                    }
                }
                Cell::Null
            }
            _ => self
                .truth(pg, i)
                .map_or(Cell::Null, |b| Cell::Scalar(Scalar::Bool(b))),
        }
    }

    /// The value of row `i` when it is a scalar; `None` when it is NULL, a
    /// list or a binding. A comparison reads its operands this way: only
    /// two scalars compare, so a list is never read.
    #[inline]
    fn scalar<'a, G: PgRead>(&'a self, pg: &'a G, i: usize) -> Option<Scalar<'a>> {
        match self {
            VExpr::Const(v) => v.as_ref()?.as_scalar(),
            VExpr::Vals(v) => v[i].as_scalar(),
            VExpr::NodeProp(ids, k) => pg.node_scalar(ids[i], *k),
            VExpr::EdgeProp(ids, k) => pg.edge_scalar(ids[i], *k),
            _ => match self.cell(pg, i) {
                Cell::Scalar(s) => Some(s),
                _ => None,
            },
        }
    }

    /// The three-valued truth of row `i`: `None` is NULL, and so is every
    /// value that is not a boolean.
    fn truth<G: PgRead>(&self, pg: &G, i: usize) -> Option<bool> {
        match self {
            VExpr::Cmp(op, l, r) => {
                let l = l.scalar(pg, i)?;
                compare_scalars(l, r.scalar(pg, i)?).map(|ord| op.holds(ord))
            }
            VExpr::And(a, b) => match a.truth(pg, i) {
                Some(false) => Some(false),
                x => match (x, b.truth(pg, i)) {
                    (_, Some(false)) => Some(false),
                    (Some(true), Some(true)) => Some(true),
                    _ => None,
                },
            },
            VExpr::Or(a, b) => match a.truth(pg, i) {
                Some(true) => Some(true),
                x => match (x, b.truth(pg, i)) {
                    (_, Some(true)) => Some(true),
                    (Some(false), Some(false)) => Some(false),
                    _ => None,
                },
            },
            VExpr::Not(a) => a.truth(pg, i).map(|b| !b),
            VExpr::IsNull(a, negated) => {
                let is_null = matches!(a.cell(pg, i), Cell::Null);
                Some(is_null != *negated)
            }
            _ => match self.scalar(pg, i) {
                Some(Scalar::Bool(b)) => Some(b),
                _ => None,
            },
        }
    }

    /// The rows of `0..len` whose truth is `true`: a WHERE clause's
    /// selection vector. A comparison of a property with a constant, the
    /// common predicate, runs as its own loop with the constant read once.
    fn select<G: PgRead>(&self, pg: &G, len: usize) -> Vec<u32> {
        if let VExpr::Cmp(op, l, r) = self {
            match (&**l, &**r) {
                (x, VExpr::Const(c)) => {
                    let c = c.as_ref().and_then(Value::as_scalar);
                    return select_rows(len, |i| cmp_holds(*op, x.scalar(pg, i), c));
                }
                (VExpr::Const(c), x) => {
                    let c = c.as_ref().and_then(Value::as_scalar);
                    return select_rows(len, |i| cmp_holds(*op, c, x.scalar(pg, i)));
                }
                _ => {}
            }
        }
        select_rows(len, |i| self.truth(pg, i) == Some(true))
    }
}

/// Whether `op` holds between two operands; NULL (a missing operand or an
/// incomparable pair) never holds.
#[inline]
fn cmp_holds(op: CmpOp, l: Option<Scalar<'_>>, r: Option<Scalar<'_>>) -> bool {
    match (l, r) {
        (Some(l), Some(r)) => compare_scalars(l, r).is_some_and(|ord| op.holds(ord)),
        _ => false,
    }
}

/// The selection vector of the rows in `0..len` that `keep`.
#[inline]
fn select_rows(len: usize, keep: impl Fn(usize) -> bool) -> Vec<u32> {
    let mut sel: Vec<u32> = vec![0; len];
    let mut n = 0;
    for i in 0..len {
        // Branch-free: write every row, advance past the kept ones.
        sel[n] = i as u32;
        n += usize::from(keep(i));
    }
    sel.truncate(n);
    sel
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
        let sel = VExpr::compile(pg, where_clause, &batch, params).select(pg, batch.len);
        batch = batch.gather(&sel);
        prof.record(format_args!("filter"), batch.len, started);
    }
    for (k, (expr, var)) in q.unwind.iter().enumerate() {
        let started = prof.begin();
        let mut sel: Vec<u32> = Vec::new();
        let mut vals: Vec<Value> = Vec::new();
        let ve = VExpr::compile(pg, expr, &batch, params);
        for i in 0..batch.len {
            // UNWIND NULL → no rows; lists flatten, scalars pass through.
            if let Some(value) = ve.cell(pg, i).into_value() {
                for item in value.iter_flat() {
                    sel.push(i as u32);
                    vals.push(item.clone());
                }
            }
        }
        drop(ve);
        batch = batch.gather(&sel);
        batch.set_col(var, Col::Val(vals));
        prof.record(format_args!("unwind{k}"), batch.len, started);
    }
    if let Some(unwind_where) = &q.unwind_where {
        let started = prof.begin();
        let sel = VExpr::compile(pg, unwind_where, &batch, params).select(pg, batch.len);
        batch = batch.gather(&sel);
        prof.record(format_args!("unwind_filter"), batch.len, started);
    }
    Ok(batch)
}

/// Compile every return item against a batch's column layout: `Some` for
/// expressions and aggregate arguments, `None` for `count(*)` (no
/// argument — every row counts).
pub(crate) fn compile_return_items<'b, G: PgRead>(
    pg: &G,
    q: &SingleQuery,
    batch: &'b Batch,
    params: &Params,
) -> Vec<Option<VExpr<'b>>> {
    q.return_items
        .iter()
        .map(|(item, _)| match item {
            ReturnItem::Expr(e) => Some(VExpr::compile(pg, e, batch, params)),
            ReturnItem::Agg { arg, .. } => arg
                .as_ref()
                .map(|e| VExpr::compile_agg_arg(pg, e, batch, params)),
        })
        .collect()
}
