//! The batch operators of the Cypher executor, over any [`PgRead`].
//!
//! The scan oracle in [`crate::cypher`] carries each intermediate result
//! as a `FxHashMap<String, Binding>` — every pattern hop clones the map,
//! re-hashes variable names, and re-probes the key dictionary per property
//! read. The executor runs the plan (pattern order, index pushdown, reverse
//! anchoring) through batched physical operators instead, each of which
//! resolves its shape once per batch and then runs one monomorphic loop:
//!
//! * label scans and eq-index probes emit sorted id runs (postings
//!   slices) that become a node **column**;
//! * adjacency expansion is a gather — one pass over each anchor's
//!   adjacency row appends to a selection vector plus edge/target columns,
//!   then every existing column is gathered by the selection vector. The
//!   pattern's labels are resolved to a [`LabelTest`] before the loop,
//!   and whether the edges are kept and the target is pre-bound are
//!   compile-time flags of the loop. Tombstoned edges are skipped by
//!   [`PgRead::edge_live`], which is constant `true` on the compact
//!   form's CSR rows and compiles away there;
//! * a property that more than one expression of a part reads is read
//!   once per row into a per-batch **property column** of `Copy`
//!   [`Prop`]s, which the gathers carry and the later stages share (see
//!   [`StageReads`]); so is an aggregate's property argument;
//! * property predicates and projections compile to [`VExpr`] trees whose
//!   columns, key symbols and parameters are resolved once per batch,
//!   then evaluated over id vectors. A row reads borrowed [`Cell`]s — a
//!   scalar property is a [`PgRead::node_scalar`] read, with strings as
//!   `&str` into the store — so the row kernels allocate nothing per row;
//!   a WHERE comparison with a constant runs as its own loop, and when a
//!   later stage reads its property again, that loop keeps the passing
//!   rows' values as their column.
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
    NodePattern, Params, PathPattern, Probe, RelPattern, ReturnItem, Row, SingleQuery,
};
use crate::profile::ProfHook;
use s3pg_pg::{EdgeId, NodeId, PgRead, Scalar, Value};
use s3pg_rdf::Sym;
use std::borrow::Cow;
use std::fmt;
use std::hash::{Hash, Hasher};

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
            Col::Node(v) => Col::Node(gather(v, sel)),
            Col::Edge(v) => Col::Edge(gather(v, sel)),
            Col::Val(v) => Col::Val(sel.iter().map(|&i| v[i as usize].clone()).collect()),
        }
    }
}

fn gather<T: Copy>(v: &[T], sel: &[u32]) -> Vec<T> {
    sel.iter().map(|&i| v[i as usize]).collect()
}

/// One row's value in a [`PropCol`]: NULL (the key is missing), a scalar
/// borrowed from the store, or a list, held by index beside the column.
/// It is `Copy`, so the row kernels read it with no drop glue.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Prop<'g> {
    Null,
    Scalar(Scalar<'g>),
    List(u32),
}

/// A property `var.key` read once per row of a batch. The stage that
/// first reads it fills the column, the gathers carry it along, and every
/// later expression that reads `var.key` reads the column instead of the
/// store.
#[derive(Debug)]
struct PropCol<'g> {
    var: String,
    key: String,
    vals: Vec<Prop<'g>>,
    /// The values of the rows that hold a list.
    lists: Vec<Value>,
}

/// A property column as compiled expressions and aggregate folds read it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PropRows<'a> {
    pub(crate) vals: &'a [Prop<'a>],
    lists: &'a [Value],
}

impl<'a> PropRows<'a> {
    #[inline]
    pub(crate) fn cell(self, i: usize) -> Cell<'a> {
        match self.vals[i] {
            Prop::Null => Cell::Null,
            Prop::Scalar(s) => Cell::Scalar(s),
            Prop::List(j) => Cell::List(Cow::Borrowed(&self.lists[j as usize])),
        }
    }

    #[inline]
    fn scalar(self, i: usize) -> Option<Scalar<'a>> {
        match self.vals[i] {
            Prop::Scalar(s) => Some(s),
            Prop::Null | Prop::List(_) => None,
        }
    }

    /// Whether every row is a scalar or NULL.
    pub(crate) fn scalars_only(self) -> bool {
        self.lists.is_empty()
    }
}

/// A node or an edge id, whose properties the row kernels read: a trait
/// rather than a closure, so each kernel's loop is one monomorphic body
/// with the read inlined.
trait Entity: Copy {
    fn scalar<G: PgRead>(self, pg: &G, key: Sym) -> Option<Scalar<'_>>;
    fn owned<G: PgRead>(self, pg: &G, key: Sym) -> Option<Value>;
}

impl Entity for NodeId {
    #[inline(always)]
    fn scalar<G: PgRead>(self, pg: &G, key: Sym) -> Option<Scalar<'_>> {
        pg.node_scalar(self, key)
    }

    fn owned<G: PgRead>(self, pg: &G, key: Sym) -> Option<Value> {
        pg.node_prop_sym(self, key)
    }
}

impl Entity for EdgeId {
    #[inline(always)]
    fn scalar<G: PgRead>(self, pg: &G, key: Sym) -> Option<Scalar<'_>> {
        pg.edge_scalar(self, key)
    }

    fn owned<G: PgRead>(self, pg: &G, key: Sym) -> Option<Value> {
        pg.edge_prop_sym(self, key)
    }
}

/// Read one property of every id into a column: the borrowed scalar, and
/// the owned value only where there is none (a list, or a missing key).
fn read_col<'g, G: PgRead, T: Entity>(
    pg: &'g G,
    ids: &[T],
    key: Sym,
    lists: &mut Vec<Value>,
) -> Vec<Prop<'g>> {
    let mut vals = Vec::with_capacity(ids.len());
    for &id in ids {
        vals.push(match id.scalar(pg, key) {
            Some(s) => Prop::Scalar(s),
            None => match id.owned(pg, key) {
                None => Prop::Null,
                Some(v) => {
                    lists.push(v);
                    Prop::List(lists.len() as u32 - 1)
                }
            },
        });
    }
    vals
}

/// A batch of intermediate rows in columnar form: named columns of equal
/// length, plus the property columns read so far. The scan oracle's
/// per-row hash maps become one `(name, column)` pair per variable for
/// the whole batch.
#[derive(Debug)]
pub(crate) struct Batch<'g> {
    pub(crate) cols: Vec<(String, Col)>,
    props: Vec<PropCol<'g>>,
    pub(crate) len: usize,
}

impl<'g> Batch<'g> {
    fn new(len: usize) -> Batch<'g> {
        Batch {
            cols: Vec::new(),
            props: Vec::new(),
            len,
        }
    }

    /// The expansion seed: one row binding nothing (the scan oracle's
    /// `vec![Row::default()]`).
    pub(crate) fn unit() -> Batch<'g> {
        Batch::new(1)
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
    fn gather(&self, sel: &[u32]) -> Batch<'g> {
        let props = self.props.iter().map(|p| PropCol {
            var: p.var.clone(),
            key: p.key.clone(),
            vals: gather(&p.vals, sel),
            lists: p.lists.clone(),
        });
        Batch {
            cols: self
                .cols
                .iter()
                .map(|(n, c)| (n.clone(), c.gather(sel)))
                .collect(),
            props: props.collect(),
            len: sel.len(),
        }
    }

    /// Bind (or rebind) a variable column, mirroring `Row::insert`'s
    /// overwrite semantics; a rebound variable's property columns go.
    fn set_col(&mut self, name: &str, col: Col) {
        self.props.retain(|p| p.var != name);
        match self.col_index(name) {
            Some(i) => self.cols[i].1 = col,
            None => self.cols.push((name.to_string(), col)),
        }
    }

    fn prop(&self, var: &str, key: &str) -> Option<PropRows<'_>> {
        self.props
            .iter()
            .find(|p| p.key == key && p.var == var)
            .map(|p| PropRows {
                vals: &p.vals,
                lists: &p.lists,
            })
    }

    /// Read `var.key` into a property column, unless the batch holds one
    /// or `var` is not bound to nodes or edges (it then reads as NULL).
    fn read_prop<G: PgRead>(&mut self, pg: &'g G, var: &str, key: &str) {
        let Some(sym) = pg.key_sym(key) else {
            return;
        };
        if self.prop(var, key).is_some() {
            return;
        }
        let mut lists = Vec::new();
        let vals = match self.col(var) {
            Some(Col::Node(ids)) => read_col(pg, ids, sym, &mut lists),
            Some(Col::Edge(ids)) => read_col(pg, ids, sym, &mut lists),
            _ => return,
        };
        self.props.push(PropCol {
            var: var.to_string(),
            key: key.to_string(),
            vals,
            lists,
        });
    }
}

/// A pattern's labels resolved to symbols once per batch: the test a
/// node's or an edge's label row must pass. A node pattern needs all its
/// labels, a relationship pattern any of them; a label the dictionary
/// has never seen matches nothing, and no label matches everything
/// without reading the row.
enum LabelTest {
    Any,
    Never,
    One(Sym),
    All(Vec<Sym>),
    AnyOf(Vec<Sym>),
}

impl LabelTest {
    fn node<G: PgRead>(pg: &G, labels: &[String]) -> LabelTest {
        match labels
            .iter()
            .map(|l| pg.key_sym(l))
            .collect::<Option<Vec<Sym>>>()
        {
            None => LabelTest::Never,
            Some(syms) => match syms[..] {
                [] => LabelTest::Any,
                [s] => LabelTest::One(s),
                _ => LabelTest::All(syms),
            },
        }
    }

    fn rel<G: PgRead>(pg: &G, labels: &[String]) -> LabelTest {
        if labels.is_empty() {
            return LabelTest::Any;
        }
        let syms: Vec<Sym> = labels.iter().filter_map(|l| pg.key_sym(l)).collect();
        match syms[..] {
            [] => LabelTest::Never,
            [s] => LabelTest::One(s),
            _ => LabelTest::AnyOf(syms),
        }
    }

    /// Whether the label row `row()` passes; the row is read only when
    /// the test depends on it.
    #[inline]
    fn holds<'r>(&self, row: impl FnOnce() -> &'r [Sym]) -> bool {
        match self {
            LabelTest::Any => true,
            LabelTest::Never => false,
            LabelTest::One(s) => row().contains(s),
            LabelTest::All(syms) => {
                let row = row();
                syms.iter().all(|s| row.contains(s))
            }
            LabelTest::AnyOf(syms) => {
                let row = row();
                syms.iter().any(|s| row.contains(s))
            }
        }
    }

    /// The ids of `ids` whose node passes.
    fn nodes<G: PgRead>(&self, pg: &G, ids: &[NodeId]) -> Vec<NodeId> {
        let keep = |&&n: &&NodeId| self.holds(|| pg.node_label_syms(n));
        ids.iter().filter(keep).copied().collect()
    }
}

/// Seed a pattern's start binding over an incoming batch: filter an
/// already-bound node column, or cross-product with the (probe or label
/// scan) candidate run. Returns the seeded batch plus the anchor column
/// the hops expand from.
fn seed_batch<'g, G: PgRead>(
    pg: &'g G,
    start: &NodePattern,
    probe: Option<&Probe>,
    batch: Batch<'g>,
) -> Result<(Batch<'g>, Vec<NodeId>), CypherError> {
    match start.var.as_deref().and_then(|v| batch.col(v)) {
        Some(Col::Node(ids)) => {
            let labels = LabelTest::node(pg, &start.labels);
            let mut sel: Vec<u32> = Vec::with_capacity(ids.len());
            for (i, &n) in ids.iter().enumerate() {
                if labels.holds(|| pg.node_label_syms(n)) {
                    sel.push(i as u32);
                }
            }
            let anchors = gather(ids, &sel);
            Ok((batch.gather(&sel), anchors))
        }
        Some(_) if batch.len > 0 => err("pattern variable already bound to a non-node"),
        Some(_) => Ok((batch, Vec::new())),
        None => {
            let candidates = start_candidates(pg, start, probe);
            let matching = LabelTest::node(pg, &start.labels).nodes(pg, candidates.as_slice());
            let n = batch.len;
            // Row-major cross product, matching the interpreter's
            // per-row candidate enumeration order.
            let sel: Vec<u32> = (0..n as u32)
                .flat_map(|i| std::iter::repeat_n(i, matching.len()))
                .collect();
            let mut out = batch.gather(&sel);
            let anchors = matching.repeat(n);
            if let Some(v) = &start.var {
                out.set_col(v, Col::Node(anchors.clone()));
            }
            Ok((out, anchors))
        }
    }
}

/// Seed the first pattern from its candidate run (the oracle's
/// `seed_rows` over a slice).
pub(crate) fn seed_candidates<'g, G: PgRead>(
    pg: &'g G,
    start: &NodePattern,
    candidates: &[NodeId],
) -> (Batch<'g>, Vec<NodeId>) {
    let matching = LabelTest::node(pg, &start.labels).nodes(pg, candidates);
    let mut batch = Batch::new(matching.len());
    if let Some(v) = &start.var {
        batch.set_col(v, Col::Node(matching.clone()));
    }
    (batch, matching)
}

/// The output of one hop: per emitted row, its source row, its edge
/// (kept only when the relationship is bound) and the node it reached.
#[derive(Default)]
struct HopRows {
    sel: Vec<u32>,
    edges: Vec<EdgeId>,
    targets: Vec<NodeId>,
}

/// One hop's row loop: each anchor's adjacency row, in order, through the
/// pre-resolved label tests. `BIND` keeps the edges; `PRE` keeps only
/// edges that reach the row's `prebound` node. Both are compile-time
/// constants, so an edge costs no check the pattern does not ask for.
fn hop_rows<G: PgRead, const BIND: bool, const PRE: bool>(
    pg: &G,
    anchors: &[NodeId],
    direction: Direction,
    rel: &LabelTest,
    node: &LabelTest,
    prebound: &[NodeId],
) -> HopRows {
    let degree = |a: NodeId| match direction {
        Direction::Out => pg.out_adjacency(a).len(),
        Direction::In => pg.in_adjacency(a).len(),
        Direction::Undirected => pg.out_adjacency(a).len() + pg.in_adjacency(a).len(),
    };
    let bound: usize = anchors.iter().map(|&a| degree(a)).sum();
    let mut sel = Vec::with_capacity(bound);
    let mut edges = Vec::with_capacity(if BIND { bound } else { 0 });
    let mut targets = Vec::with_capacity(bound);
    for (i, &anchor) in anchors.iter().enumerate() {
        let rows: [(&[EdgeId], bool); 2] = match direction {
            Direction::Out => [(pg.out_adjacency(anchor), true), (&[], true)],
            Direction::In => [(pg.in_adjacency(anchor), false), (&[], false)],
            Direction::Undirected => [
                (pg.out_adjacency(anchor), true),
                (pg.in_adjacency(anchor), false),
            ],
        };
        for (adj, outgoing) in rows {
            for &e in adj {
                if !pg.edge_live(e) || !rel.holds(|| pg.edge_label_syms(e)) {
                    continue;
                }
                let (src, dst) = pg.edge_endpoints(e);
                let other = if outgoing { dst } else { src };
                if (PRE && other != prebound[i]) || !node.holds(|| pg.node_label_syms(other)) {
                    continue;
                }
                sel.push(i as u32);
                if BIND {
                    edges.push(e);
                }
                targets.push(other);
            }
        }
    }
    HopRows {
        sel,
        edges,
        targets,
    }
}

/// One hop from `anchors` (one per row of `batch`) along `rel` in
/// `direction` to `node`: a pass over the anchors' adjacency rows builds
/// a selection vector plus edge/target columns, then the batch is
/// gathered through it. Rows come out in the scan oracle's adjacency
/// order. Returns the gathered batch and, if `keep_anchors`, the nodes
/// reached, which the next hop expands from.
fn hop<'g, G: PgRead>(
    pg: &G,
    batch: Batch<'g>,
    anchors: &[NodeId],
    (rel, direction): (&RelPattern, Direction),
    node: &NodePattern,
    keep_anchors: bool,
) -> (Batch<'g>, Vec<NodeId>) {
    let r = &LabelTest::rel(pg, &rel.labels);
    let n = &LabelTest::node(pg, &node.labels);
    // Respect pre-bound node variables (joins between patterns): a
    // non-node binding never equals a node.
    let rows = match (
        rel.var.is_some(),
        node.var.as_deref().and_then(|v| batch.col(v)),
    ) {
        (false, None) => hop_rows::<G, false, false>(pg, anchors, direction, r, n, &[]),
        (true, None) => hop_rows::<G, true, false>(pg, anchors, direction, r, n, &[]),
        (false, Some(Col::Node(to))) => {
            hop_rows::<G, false, true>(pg, anchors, direction, r, n, to)
        }
        (true, Some(Col::Node(to))) => hop_rows::<G, true, true>(pg, anchors, direction, r, n, to),
        (_, Some(_)) => HopRows::default(),
    };
    let mut next = batch.gather(&rows.sel);
    if let Some(v) = &rel.var {
        next.set_col(v, Col::Edge(rows.edges));
    }
    let anchors = match &node.var {
        Some(v) => {
            let anchors = if keep_anchors {
                rows.targets.clone()
            } else {
                Vec::new()
            };
            next.set_col(v, Col::Node(rows.targets));
            anchors
        }
        None => rows.targets,
    };
    (next, anchors)
}

/// Expand a pattern's hops from its seeded batch, one [`hop`] at a time.
pub(crate) fn expand_hops_batch<'g, G: PgRead, P: ProfHook>(
    pg: &G,
    pattern: &PathPattern,
    mut batch: Batch<'g>,
    mut anchors: Vec<NodeId>,
    prof: P,
    pi: usize,
) -> Result<Batch<'g>, CypherError> {
    for (h, (rel, node)) in pattern.hops.iter().enumerate() {
        let started = prof.begin();
        let more = h + 1 < pattern.hops.len();
        (batch, anchors) = hop(pg, batch, &anchors, (rel, rel.direction), node, more);
        prof.record(format_args!("pat{pi}.hop{h}"), batch.len, started);
        if batch.len == 0 {
            break;
        }
    }
    Ok(batch)
}

/// The direction of a hop walked from its end node back to its start.
fn reverse(direction: Direction) -> Direction {
    match direction {
        Direction::Out => Direction::In,
        Direction::In => Direction::Out,
        Direction::Undirected => Direction::Undirected,
    }
}

/// One planned pattern (`pi`): reverse-anchored or seed-then-expand. The
/// seed records as `pat{pi}.start` and each hop as `pat{pi}.hop{h}`.
///
/// A reversed pattern — the [`ExpandReverse`] operator — is a single hop
/// whose end variable is already bound: its end bindings are filtered by
/// the end labels and walked back along the opposite adjacency rows to
/// the start nodes. Same row multiset as the forward expansion, in the
/// end node's adjacency order.
///
/// [`ExpandReverse`]: crate::cypher::explain
pub(crate) fn expand_pattern<'g, G: PgRead, P: ProfHook>(
    pg: &'g G,
    pattern: &PathPattern,
    probe: Option<&Probe>,
    reversed: bool,
    batch: Batch<'g>,
    prof: P,
    pi: usize,
) -> Result<Batch<'g>, CypherError> {
    let started = prof.begin();
    if reversed {
        let (rel, end) = &pattern.hops[0];
        let end_col = end.var.as_deref().and_then(|v| batch.col(v));
        // The planner reverses only a pattern whose end is bound.
        if let Some(end_col) = end_col {
            let (seeded, anchors) = match end_col {
                Col::Node(_) => seed_batch(pg, end, None, batch)?,
                // A non-node binding never matches a node pattern: no rows.
                _ => (batch.gather(&[]), Vec::new()),
            };
            let back = (rel, reverse(rel.direction));
            return Ok(hop(pg, seeded, &anchors, back, &pattern.start, false).0);
        }
    }
    let (seeded, anchors) = seed_batch(pg, &pattern.start, probe, batch)?;
    prof.record(format_args!("pat{pi}.start"), seeded.len, started);
    expand_hops_batch(pg, pattern, seeded, anchors, prof, pi)
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
    /// A property read into one of the batch's property columns.
    Props(PropRows<'b>),
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
        batch: &'b Batch<'_>,
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
            Expr::Prop(var, key) => match (batch.prop(var, key), batch.col(var), pg.key_sym(key)) {
                (Some(rows), ..) => VExpr::Props(rows),
                (None, Some(Col::Node(ids)), Some(k)) => VExpr::NodeProp(ids, k),
                (None, Some(Col::Edge(ids)), Some(k)) => VExpr::EdgeProp(ids, k),
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
        batch: &'b Batch<'_>,
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
            VExpr::Props(rows) => rows.cell(i),
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
            VExpr::Props(rows) => rows.scalar(i),
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
                    let c = const_scalar(c);
                    return select_rows(len, |i| cmp_holds(*op, x.scalar(pg, i), c));
                }
                (VExpr::Const(c), x) => {
                    let c = const_scalar(c);
                    return select_rows(len, |i| cmp_holds(*op, c, x.scalar(pg, i)));
                }
                _ => {}
            }
        }
        select_rows(len, |i| self.truth(pg, i) == Some(true))
    }
}

fn const_scalar(c: &Option<Value>) -> Option<Scalar<'_>> {
    c.as_ref().and_then(Value::as_scalar)
}

/// Whether `op` holds between two operands; NULL (a missing operand or an
/// incomparable pair) never holds.
#[inline(always)]
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
pub(crate) fn batch_to_rows(batch: &Batch<'_>) -> Vec<Row> {
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

/// The `(variable, key)` property reads of an expression, repeats kept.
fn prop_reads<'q>(expr: &'q Expr, out: &mut Vec<(&'q str, &'q str)>) {
    match expr {
        Expr::Prop(var, key) => out.push((var, key)),
        Expr::Coalesce(args) => args.iter().for_each(|a| prop_reads(a, out)),
        Expr::Cmp(_, a, b) | Expr::And(a, b) | Expr::Or(a, b) => {
            prop_reads(a, out);
            prop_reads(b, out);
        }
        Expr::Not(a) | Expr::IsNull(a, _) => prop_reads(a, out),
        Expr::Var(_) | Expr::Lit(_) | Expr::Param(_) | Expr::Null => {}
    }
}

/// The property reads of a part's row stages, in stage order: the WHERE,
/// each UNWIND, the post-UNWIND WHERE, then the return items (aggregate
/// arguments and the ORDER BY key among them). A read that several
/// expressions make, counting repeats, goes into a property column at
/// the first stage that makes it, and the column is carried to the last
/// stage that reads it, so each row reads it once; so does every
/// aggregate's property argument, which the folds then read as `Copy`
/// scalars.
struct StageReads<'q> {
    stages: Vec<Vec<(&'q str, &'q str)>>,
    agg_args: Vec<(&'q str, &'q str)>,
}

impl<'q> StageReads<'q> {
    fn of(q: &'q SingleQuery) -> StageReads<'q> {
        let reads = |e: Option<&'q Expr>| {
            let mut out = Vec::new();
            e.inspect(|e| prop_reads(e, &mut out));
            out
        };
        let mut stages = vec![reads(q.where_clause.as_ref())];
        stages.extend(q.unwind.iter().map(|(e, _)| reads(Some(e))));
        stages.push(reads(q.unwind_where.as_ref()));
        let mut returns = Vec::new();
        let mut agg_args = Vec::new();
        for (item, _) in &q.return_items {
            match item {
                ReturnItem::Expr(e) => prop_reads(e, &mut returns),
                ReturnItem::Agg { arg: Some(e), .. } => {
                    if let Expr::Prop(var, key) = e {
                        agg_args.push((var.as_str(), key.as_str()));
                    }
                    prop_reads(e, &mut returns);
                }
                ReturnItem::Agg { arg: None, .. } => {}
            }
        }
        // Top-K reads the ORDER BY item to test a row, then again for
        // the rows it admits.
        if let (Some((index, _)), true) = (q.order_by, crate::morsel::topk_eligible(q)) {
            if let ReturnItem::Expr(e) = &q.return_items[index].0 {
                prop_reads(e, &mut returns);
            }
        }
        stages.push(returns);
        StageReads { stages, agg_args }
    }

    /// Whether stage `s` reads `read` into a column: it or a later stage
    /// reads it again, or it is an aggregate's argument at the return
    /// stage.
    fn wants(&self, s: usize, read: (&str, &str)) -> bool {
        let again = self.stages[s..].iter().flatten().filter(|&&r| r == read);
        again.count() > 1 || (s + 1 == self.stages.len() && self.agg_args.contains(&read))
    }

    /// Fill the property columns stage `s` wants.
    fn fill<'g, G: PgRead>(&self, pg: &'g G, batch: &mut Batch<'g>, s: usize) {
        for &read in &self.stages[s] {
            if self.wants(s, read) {
                batch.read_prop(pg, read.0, read.1);
            }
        }
    }

    /// Drop the property columns no stage after `s` reads, before the
    /// gather that ends stage `s`.
    fn drop_after(&self, batch: &mut Batch<'_>, s: usize) {
        let later = &self.stages[s + 1..];
        batch.props.retain(|p| {
            later
                .iter()
                .flatten()
                .any(|&(v, k)| v == p.var && k == p.key)
        });
    }
}

/// The row-stage middle of a part: WHERE / UNWIND / post-UNWIND WHERE as
/// selection-vector filters over compiled expressions, recorded under the
/// operator ids EXPLAIN assigns. The batch it returns holds the property
/// columns the return items read.
pub(crate) fn apply_row_stages<'g, G: PgRead, P: ProfHook>(
    pg: &'g G,
    q: &SingleQuery,
    mut batch: Batch<'g>,
    params: &Params,
    prof: P,
) -> Result<Batch<'g>, CypherError> {
    let reads = StageReads::of(q);
    let unwinds = q.unwind.len();
    if let Some(where_clause) = &q.where_clause {
        let started = prof.begin();
        batch = filter(pg, &reads, 0, where_clause, batch, params);
        prof.record(format_args!("filter"), batch.len, started);
    }
    for (k, (expr, var)) in q.unwind.iter().enumerate() {
        let started = prof.begin();
        reads.fill(pg, &mut batch, 1 + k);
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
        reads.drop_after(&mut batch, 1 + k);
        batch = batch.gather(&sel);
        batch.set_col(var, Col::Val(vals));
        prof.record(format_args!("unwind{k}"), batch.len, started);
    }
    if let Some(unwind_where) = &q.unwind_where {
        let started = prof.begin();
        batch = filter(pg, &reads, 1 + unwinds, unwind_where, batch, params);
        prof.record(format_args!("unwind_filter"), batch.len, started);
    }
    reads.fill(pg, &mut batch, 2 + unwinds);
    Ok(batch)
}

/// One WHERE stage `s` over a batch: fill the stage's property columns,
/// select the rows whose predicate holds, and gather them, dropping the
/// columns no later stage reads.
fn filter<'g, G: PgRead>(
    pg: &'g G,
    reads: &StageReads<'_>,
    s: usize,
    pred: &Expr,
    mut batch: Batch<'g>,
    params: &Params,
) -> Batch<'g> {
    reads.fill(pg, &mut batch, s);
    let sel = VExpr::compile(pg, pred, &batch, params).select(pg, batch.len);
    reads.drop_after(&mut batch, s);
    batch.gather(&sel)
}

/// Compile every return item against a batch's column layout: `Some` for
/// expressions and aggregate arguments, `None` for `count(*)` (no
/// argument — every row counts).
pub(crate) fn compile_return_items<'b, G: PgRead>(
    pg: &G,
    q: &SingleQuery,
    batch: &'b Batch<'_>,
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
