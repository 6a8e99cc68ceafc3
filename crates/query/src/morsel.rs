//! The Cypher executor: one batch pipeline over any [`PgRead`], and its
//! batch-native result shaping.
//!
//! Planned Cypher takes exactly one physical path, whichever snapshot form
//! serves it, on the calling thread. The first pattern's candidate run is
//! the unit of work: it is seeded once and driven through the *entire*
//! batch pipeline of [`crate::vectorized`] (seed → expand → predicate →
//! shaping).
//!
//! **Batch-native shaping.** Instead of materializing every row before
//! shaping:
//!
//! * aggregates (`count`/`sum`/`min`/`max` + implicit GROUP BY) accumulate
//!   into one [`GroupTable`] — float sums use the exact [`ExactSum`]
//!   accumulator, so the executor and the scan oracle agree to the bit,
//!   and `min`/`max` break representation ties (`Int(1)` vs `Float(1.0)`)
//!   by first-seen row. Rows resolve to groups by their borrowed key
//!   cells, each aggregate then folds its argument column, and `count(*)`
//!   without grouping adds the batch length; keys are rendered once per
//!   group, for the output order, and under `ORDER BY … LIMIT` only for
//!   the groups that reach the cut;
//! * `ORDER BY … LIMIT …` (no DISTINCT, no aggregates) keeps a bounded
//!   [`TopK`] of `SKIP+LIMIT` rows under the exact [`order_cmp`] ordering
//!   plus a row-index tiebreak, so it equals the first K rows of the
//!   stable full sort it replaces. The ORDER BY value is read first, and
//!   a row is built only when [`TopK::admits`] it.
//!
//! Queries with `OPTIONAL MATCH` expand their required patterns here, then
//! hand the rows to the scan oracle's left join and finish, which are
//! row-oriented by nature.

use crate::cypher::{
    finish_single_inner, has_aggregate, order_cmp, order_cmp_cells, shape_rows, start_candidates,
    total_cmp, total_cmp_scalars, AggFunc, CypherError, Params, Probe, ReturnItem, Rows,
    SinglePlan, SingleQuery,
};
use crate::profile::ProfHook;
use crate::vectorized::{
    apply_row_stages, batch_to_rows, compile_return_items, expand_hops_batch, expand_pattern,
    seed_candidates, Batch, Cell, Prop, PropRows, VExpr,
};
use s3pg_pg::{PgRead, Scalar, Value};
use s3pg_rdf::fxhash::{FxHashMap, FxHashSet};

/// Whether the executor may satisfy this part's `ORDER BY` with the
/// bounded top-K heap: an ORDER BY plus LIMIT, no DISTINCT (dedup needs
/// all rows), no aggregates (grouping shrinks rows before the sort), and
/// no `OPTIONAL MATCH` (row-oriented tail).
pub(crate) fn topk_eligible(q: &SingleQuery) -> bool {
    q.order_by.is_some()
        && q.limit.is_some()
        && !q.distinct
        && !has_aggregate(q)
        && q.optional_patterns.is_empty()
}

// ---- exact float summation -------------------------------------------------

/// An exact f64 accumulator (Shewchuk's expansion, the algorithm behind
/// Python's `math.fsum`): the running sum is kept as non-overlapping
/// partials updated by two-sum cascades, and [`ExactSum::total`] rounds
/// the exact value once. Addition order therefore cannot change the
/// result, so `sum()` over floats answers the same whatever order the
/// planner visits rows in, and the scan oracle shares it.
#[derive(Debug, Clone, Default)]
pub(crate) struct ExactSum {
    /// Non-overlapping partials, increasing magnitude.
    partials: Vec<f64>,
    /// Infinities and NaNs accumulate separately (IEEE semantics).
    special: f64,
}

impl ExactSum {
    /// Add one value exactly.
    pub(crate) fn add(&mut self, mut x: f64) {
        if !x.is_finite() {
            self.special += x;
            return;
        }
        let mut j = 0;
        for i in 0..self.partials.len() {
            let mut y = self.partials[i];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                self.partials[j] = lo;
                j += 1;
            }
            x = hi;
        }
        self.partials.truncate(j);
        if x.is_finite() {
            self.partials.push(x);
        } else {
            // Intermediate overflow: the exact value left representable
            // range; degrade to IEEE infinity like a plain sum would.
            self.special += x;
        }
    }

    /// The correctly rounded total (CPython `fsum` finalization: fold the
    /// partials from the largest down, track the first non-zero round-off,
    /// and apply the half-even correction).
    pub(crate) fn total(&self) -> f64 {
        if self.special != 0.0 || self.special.is_nan() {
            return self.special + self.partials.iter().sum::<f64>();
        }
        let p = &self.partials;
        let mut n = p.len();
        if n == 0 {
            return 0.0;
        }
        n -= 1;
        let mut hi = p[n];
        let mut lo = 0.0;
        while n > 0 {
            n -= 1;
            let x = hi;
            let y = p[n];
            hi = x + y;
            let yr = hi - x;
            lo = y - yr;
            if lo != 0.0 {
                break;
            }
        }
        if n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) || (lo > 0.0 && p[n - 1] > 0.0)) {
            let y = lo * 2.0;
            let x = hi + y;
            if y == x - hi {
                hi = x;
            }
        }
        hi
    }
}

// ---- grouped aggregation ---------------------------------------------------

/// The running state of one `sum(...)` slot: integers accumulate in a
/// wrapping i64 and floats in the exact [`ExactSum`]. The result is `Int`
/// until the first float arrives.
#[derive(Debug, Default)]
struct SumAcc {
    int: i64,
    float: ExactSum,
    saw_float: bool,
}

impl SumAcc {
    fn add(&mut self, v: &Cell<'_>) {
        if let Cell::Scalar(s) = v {
            self.add_scalar(*s);
        }
    }

    #[inline]
    fn add_scalar(&mut self, s: Scalar<'_>) {
        match s {
            Scalar::Int(i) => self.int = self.int.wrapping_add(i),
            Scalar::Float(f) => {
                self.float.add(f);
                self.saw_float = true;
            }
            // Non-numeric values are skipped, like NULLs.
            _ => {}
        }
    }

    fn finish(&self) -> Value {
        if self.saw_float {
            Value::Float(self.int as f64 + self.float.total())
        } else {
            Value::Int(self.int)
        }
    }
}

/// One aggregate slot's accumulator, picked by `(func, distinct)`. Its
/// inputs are borrowed [`Cell`]s, so a row allocates nothing; a distinct
/// set stores each value's first cell, keyed by [`Cell`]'s key equality.
#[derive(Debug)]
enum AggAcc<'a> {
    /// `count(*)`: every row counts.
    CountRows(i64),
    /// `count(expr)`: non-NULL values and bindings.
    Count(i64),
    /// `count(DISTINCT expr)`.
    CountDistinct(FxHashSet<Cell<'a>>),
    /// `sum(expr)`.
    Sum(SumAcc),
    /// `sum(DISTINCT expr)` — the distinct numbers, summed in rendered-key
    /// order at finish, so the result is arrival-order-free.
    SumDistinct(FxHashSet<Cell<'a>>),
    /// `min(expr)` / `max(expr)`: the champion value (NULL until the first
    /// value). Ties under [`total_cmp`] keep the champion — first row wins.
    MinMax { is_min: bool, best: Cell<'a> },
}

impl<'a> AggAcc<'a> {
    fn new(func: AggFunc, distinct: bool, has_arg: bool) -> AggAcc<'a> {
        match (func, distinct) {
            (AggFunc::Count, _) if !has_arg => AggAcc::CountRows(0),
            (AggFunc::Count, true) => AggAcc::CountDistinct(FxHashSet::default()),
            (AggFunc::Count, false) => AggAcc::Count(0),
            (AggFunc::Sum, true) => AggAcc::SumDistinct(FxHashSet::default()),
            (AggFunc::Sum, false) => AggAcc::Sum(SumAcc::default()),
            (AggFunc::Min | AggFunc::Max, _) => AggAcc::MinMax {
                is_min: func == AggFunc::Min,
                best: Cell::Null,
            },
        }
    }

    /// Feed one row's argument (`count(*)` ignores it).
    fn add(&mut self, v: Cell<'a>) {
        match self {
            AggAcc::CountRows(n) => *n += 1,
            AggAcc::Count(n) => *n += i64::from(!matches!(v, Cell::Null)),
            AggAcc::CountDistinct(seen) => {
                if !matches!(v, Cell::Null) {
                    seen.insert(v);
                }
            }
            AggAcc::Sum(acc) => acc.add(&v),
            AggAcc::SumDistinct(seen) => {
                if matches!(v, Cell::Scalar(Scalar::Int(_) | Scalar::Float(_))) {
                    seen.insert(v);
                }
            }
            AggAcc::MinMax { is_min, best } => min_max(*is_min, best, v),
        }
    }

    /// Fold rows `0..len` of one argument column, `arg(i)` being row `i`'s
    /// argument: the slot is matched once, not per row, and `count(*)`
    /// adds `len`.
    fn fold(&mut self, len: usize, arg: impl Fn(usize) -> Cell<'a>) {
        match self {
            AggAcc::CountRows(n) => *n += len as i64,
            AggAcc::Sum(acc) => (0..len).for_each(|i| acc.add(&arg(i))),
            AggAcc::MinMax { is_min, best } => {
                (0..len).for_each(|i| min_max(*is_min, best, arg(i)));
            }
            _ => (0..len).for_each(|i| self.add(arg(i))),
        }
    }

    /// [`AggAcc::fold`] over a property column, reading `Copy` scalars:
    /// `count`, `sum`, and `min`/`max` over a column with no list, run
    /// without building a cell per row.
    fn fold_props(&mut self, rows: PropRows<'a>) {
        let vals = rows.vals;
        match self {
            AggAcc::CountRows(n) => *n += vals.len() as i64,
            AggAcc::Count(n) => {
                *n += vals.iter().filter(|p| !matches!(p, Prop::Null)).count() as i64
            }
            AggAcc::Sum(acc) => {
                for p in vals {
                    if let Prop::Scalar(s) = p {
                        acc.add_scalar(*s);
                    }
                }
            }
            AggAcc::MinMax { is_min, best }
                if rows.scalars_only() && matches!(best, Cell::Null | Cell::Scalar(_)) =>
            {
                let mut champion = match best {
                    Cell::Scalar(s) => Some(*s),
                    _ => None,
                };
                let is_int = |s: &Scalar<'_>| matches!(s, Scalar::Int(_));
                if champion.as_ref().is_none_or(is_int) && ints_or_nulls(vals) {
                    // The case S_PG promises for an `xsd:integer` key, and
                    // every `min`/`max` the benchmark's workloads fold:
                    // equal integers are one value, so the first-seen rule
                    // is moot and the fold is a plain integer min or max.
                    let ints = vals.iter().filter_map(|p| match p {
                        Prop::Scalar(Scalar::Int(i)) => Some(*i),
                        _ => None,
                    });
                    let ints = ints.chain(champion.and_then(|c| match c {
                        Scalar::Int(i) => Some(i),
                        _ => None,
                    }));
                    let folded = if *is_min { ints.min() } else { ints.max() };
                    champion = folded.map(Scalar::Int);
                } else {
                    for p in vals {
                        if let Prop::Scalar(v) = *p {
                            if champion.is_none_or(|c| wins(*is_min, total_cmp_scalars(v, c))) {
                                champion = Some(v);
                            }
                        }
                    }
                }
                if let Some(c) = champion {
                    *best = Cell::Scalar(c);
                }
            }
            _ => (0..vals.len()).for_each(|i| self.add(rows.cell(i))),
        }
    }

    fn finish(self) -> Option<Value> {
        match self {
            AggAcc::CountRows(n) | AggAcc::Count(n) => Some(Value::Int(n)),
            AggAcc::CountDistinct(seen) => Some(Value::Int(seen.len() as i64)),
            AggAcc::Sum(acc) => Some(acc.finish()),
            AggAcc::SumDistinct(seen) => {
                // Sorted key order makes the accumulation order a function
                // of the value set alone, never of arrival order.
                let mut entries: Vec<(String, Cell<'_>)> =
                    seen.into_iter().map(|v| (v.render_key(), v)).collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                let mut acc = SumAcc::default();
                for (_, v) in &entries {
                    acc.add(v);
                }
                Some(acc.finish())
            }
            AggAcc::MinMax { best, .. } => best.into_value(),
        }
    }

    /// The value an aggregate reports over zero rows (ungrouped).
    fn empty_value(func: AggFunc) -> Option<Value> {
        match func {
            AggFunc::Count | AggFunc::Sum => Some(Value::Int(0)),
            AggFunc::Min | AggFunc::Max => None,
        }
    }
}

/// Fold one value into a `min`/`max` champion: only values take part,
/// not NULL or entity bindings, and a tie keeps the champion.
#[inline]
fn min_max<'a>(is_min: bool, best: &mut Cell<'a>, v: Cell<'a>) {
    if !matches!(v, Cell::Scalar(_) | Cell::List(_)) {
        return;
    }
    if matches!(best, Cell::Null) || wins(is_min, total_cmp(&v, best)) {
        *best = v;
    }
}

/// Whether every row holds an integer or NULL.
fn ints_or_nulls(vals: &[Prop<'_>]) -> bool {
    vals.iter()
        .all(|p| matches!(p, Prop::Null | Prop::Scalar(Scalar::Int(_))))
}

/// Whether a value that orders `ord` against the champion replaces it.
#[inline]
fn wins(is_min: bool, ord: std::cmp::Ordering) -> bool {
    match ord {
        std::cmp::Ordering::Less => is_min,
        std::cmp::Ordering::Greater => !is_min,
        std::cmp::Ordering::Equal => false,
    }
}

/// The hash aggregation table both evaluators share: the scan oracle
/// feeds it row by row, the executor batch by batch. Grouping keys, NULL
/// handling, accumulation, and output order (groups sorted by rendered
/// key) are defined once here, so the oracle and the executor aggregate by
/// identical rules.
///
/// A group is keyed by its grouping cells under [`Cell`]'s key equality —
/// exactly the equality of the rendered key each group is sorted by, which
/// [`GroupTable::finish`] renders once per group. A row costs one hash
/// probe with its borrowed cells; only a new group allocates.
pub(crate) struct GroupTable<'a> {
    /// Per return item: whether it is a grouping key (else an aggregate).
    is_key: Vec<bool>,
    /// Per aggregate item: `(func, distinct, has an argument)`.
    aggs: Vec<(AggFunc, bool, bool)>,
    /// Group index by key: the grouping cells of the row that created it.
    index: FxHashMap<Box<[Cell<'a>]>, usize>,
    /// Each group's aggregate slots, in return-item order.
    groups: Vec<Vec<AggAcc<'a>>>,
}

impl<'a> GroupTable<'a> {
    pub(crate) fn new(q: &SingleQuery) -> GroupTable<'a> {
        GroupTable {
            is_key: q
                .return_items
                .iter()
                .map(|(item, _)| matches!(item, ReturnItem::Expr(_)))
                .collect(),
            aggs: q
                .return_items
                .iter()
                .filter_map(|(item, _)| match item {
                    ReturnItem::Agg {
                        func,
                        distinct,
                        arg,
                    } => Some((*func, *distinct, arg.is_some())),
                    ReturnItem::Expr(_) => None,
                })
                .collect(),
            index: FxHashMap::default(),
            groups: Vec::new(),
        }
    }

    /// Accumulate rows `0..len`, `item(k, i)` being return item `k`'s
    /// value at row `i` — the grouping value of a key item, the argument
    /// of an aggregate (any cell for `count(*)`). Rows first resolve to
    /// their groups, then each aggregate folds its argument column; with
    /// no grouping key there is one group, and each aggregate folds its
    /// column without a per-row dispatch, reading `columns[k]` where item
    /// `k` is a property column.
    pub(crate) fn add_batch(
        &mut self,
        len: usize,
        item: impl Fn(usize, usize) -> Cell<'a>,
        columns: &[Option<PropRows<'a>>],
    ) {
        if len == 0 {
            return;
        }
        let (keys, aggs): (Vec<usize>, Vec<usize>) =
            (0..self.is_key.len()).partition(|&k| self.is_key[k]);
        if keys.is_empty() {
            let g = self.group_of(&[]);
            for (slot, &k) in self.groups[g].iter_mut().zip(&aggs) {
                match columns.get(k).copied().flatten() {
                    Some(rows) => slot.fold_props(rows),
                    None => slot.fold(len, |i| item(k, i)),
                }
            }
            return;
        }
        let mut key: Vec<Cell<'a>> = Vec::with_capacity(keys.len());
        let groups: Vec<u32> = (0..len)
            .map(|i| {
                key.clear();
                key.extend(keys.iter().map(|&k| item(k, i)));
                self.group_of(&key) as u32
            })
            .collect();
        for (slot, &k) in aggs.iter().enumerate() {
            for (i, &g) in groups.iter().enumerate() {
                self.groups[g as usize][slot].add(item(k, i));
            }
        }
    }

    /// The group `key` names, created on first sight.
    fn group_of(&mut self, key: &[Cell<'a>]) -> usize {
        if let Some(&g) = self.index.get(key) {
            return g;
        }
        let g = self.groups.len();
        self.index.insert(key.into(), g);
        let slots = self.aggs.iter();
        self.groups.push(
            slots
                .map(|&(func, distinct, has_arg)| AggAcc::new(func, distinct, has_arg))
                .collect(),
        );
        g
    }

    /// Emit one output row per group, sorted by rendered key. Zero rows
    /// with nothing but aggregates yields the single empty-input row
    /// (`count(*)` = 0).
    pub(crate) fn finish(mut self) -> Vec<Vec<Option<Value>>> {
        if self.groups.is_empty() && !self.is_key.contains(&true) {
            let row = self
                .aggs
                .iter()
                .map(|&(func, ..)| AggAcc::empty_value(func))
                .collect();
            return vec![row];
        }
        let mut entries: Vec<(Vec<String>, Box<[Cell<'a>]>, usize)> =
            std::mem::take(&mut self.index)
                .into_iter()
                .map(|(key, g)| (key.iter().map(Cell::render_key).collect(), key, g))
                .collect();
        // Rendered keys are unique, so an unstable sort is exact.
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        entries
            .into_iter()
            .map(|(_, key, g)| self.group_row(key, g))
            .collect()
    }

    /// [`GroupTable::finish`], then a stable sort on return item `index`
    /// and a cut to the first `k` rows — the shaping of `ORDER BY … LIMIT`
    /// over groups, with the same answer. Only the groups that reach the
    /// cut (the `k` best and every group tied with the `k`-th) have their
    /// keys rendered and sorted.
    pub(crate) fn finish_top(
        mut self,
        index: usize,
        descending: bool,
        k: usize,
    ) -> Vec<Vec<Option<Value>>> {
        if k == 0 || !self.is_key.contains(&true) {
            let mut rows = self.finish();
            rows.sort_by(|a, b| order_cmp(a, b, index, descending));
            rows.truncate(k);
            return rows;
        }
        let cmp =
            |a: &Vec<Option<Value>>, b: &Vec<Option<Value>>| order_cmp(a, b, index, descending);
        let mut rows: Vec<Vec<Option<Value>>> = std::mem::take(&mut self.index)
            .into_iter()
            .map(|(key, g)| self.group_row(key, g))
            .collect();
        if rows.len() > k {
            rows.select_nth_unstable_by(k - 1, cmp);
            let cut = rows[k - 1].clone();
            rows.retain(|r| cmp(r, &cut) != std::cmp::Ordering::Greater);
        }
        let is_key = &self.is_key;
        let mut keyed: Vec<(Vec<String>, Vec<Option<Value>>)> = rows
            .into_iter()
            .map(|r| {
                let key = r
                    .iter()
                    .zip(is_key)
                    .filter(|(_, &is_key)| is_key)
                    .map(|(v, _)| Cell::of_option(v).render_key())
                    .collect();
                (key, r)
            })
            .collect();
        keyed.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        let mut rows: Vec<Vec<Option<Value>>> = keyed.into_iter().map(|(_, r)| r).collect();
        rows.sort_by(cmp);
        rows.truncate(k);
        rows
    }

    /// The number of rows [`GroupTable::finish`] emits: one per group,
    /// and always one without grouping keys.
    pub(crate) fn len(&self) -> usize {
        if self.is_key.contains(&true) {
            self.index.len()
        } else {
            1
        }
    }

    /// One group's output row: its key values and finished aggregates in
    /// return-item order.
    fn group_row(&mut self, key: Box<[Cell<'a>]>, g: usize) -> Vec<Option<Value>> {
        let mut keys = key.into_vec().into_iter();
        let mut slots = std::mem::take(&mut self.groups[g]).into_iter();
        self.is_key
            .iter()
            .map(|&is_key| {
                if is_key {
                    keys.next().unwrap().into_value()
                } else {
                    slots.next().unwrap().finish()
                }
            })
            .collect()
    }
}

// ---- top-K pushdown --------------------------------------------------------

/// One top-K entry: the row's index in arrival order, then the row.
type Entry = (usize, Vec<Option<Value>>);

/// A bounded top-K selector over rows under the exact [`order_cmp`]
/// ordering with an arrival-index tiebreak. Because a stable sort keeps
/// equal rows in input order, the K smallest entries under
/// `(order key, index)` are exactly the first K rows of the full stable
/// sort — so pushdown output is bit-identical to sort-then-limit.
///
/// Implementation: an unsorted buffer compacted (sort + truncate to K)
/// whenever it doubles, with the current K-th entry cached as a rejection
/// bound; amortized O(n log K) without per-push heap maintenance. The
/// bound tightens at every doubling, so with the executor asking
/// [`TopK::admits`] before it builds a row, only O(K log n) rows are ever
/// built.
pub(crate) struct TopK {
    index: usize,
    descending: bool,
    k: usize,
    pushed: usize,
    entries: Vec<Entry>,
    bound: Option<Entry>,
}

impl TopK {
    pub(crate) fn new(index: usize, descending: bool, k: usize) -> TopK {
        TopK {
            index,
            descending,
            k,
            pushed: 0,
            entries: Vec::new(),
            bound: None,
        }
    }

    fn entry_cmp(&self, a: &Entry, b: &Entry) -> std::cmp::Ordering {
        order_cmp(&a.1, &b.1, self.index, self.descending).then(a.0.cmp(&b.0))
    }

    /// Whether a row whose ORDER BY value is `key` can enter the top K:
    /// not once K rows are held whose keys are no greater (a later row
    /// loses every tie). The executor asks before it builds the row.
    #[inline]
    pub(crate) fn admits(&self, key: &Cell<'_>) -> bool {
        self.k > 0
            && self.bound.as_ref().is_none_or(|(_, bound)| {
                let bound = Cell::of_option(&bound[self.index]);
                order_cmp_cells(key, &bound, self.descending) == std::cmp::Ordering::Less
            })
    }

    /// Offer the next row; rows that cannot make the top K are dropped.
    pub(crate) fn push(&mut self, row: Vec<Option<Value>>) {
        let entry = (self.pushed, row);
        self.pushed += 1;
        if self.k == 0 {
            return;
        }
        if let Some(bound) = &self.bound {
            if self.entry_cmp(&entry, bound) != std::cmp::Ordering::Less {
                return;
            }
        }
        self.entries.push(entry);
        if self.entries.len() >= self.k.saturating_mul(2).max(8) {
            self.compact();
        }
    }

    fn compact(&mut self) {
        // Unstable sort is safe: the index tiebreak makes the order total.
        let mut entries = std::mem::take(&mut self.entries);
        entries.sort_unstable_by(|a, b| self.entry_cmp(a, b));
        entries.truncate(self.k);
        if entries.len() == self.k {
            self.bound = entries.last().cloned();
        }
        self.entries = entries;
    }

    /// The surviving (≤ K) rows, in order.
    pub(crate) fn into_rows(mut self) -> Vec<Vec<Option<Value>>> {
        self.compact();
        self.entries.into_iter().map(|(_, r)| r).collect()
    }
}

// ---- the executor ----------------------------------------------------------

/// One UNION part, end to end — the one physical path planned Cypher
/// takes over any [`PgRead`]: the first pattern's whole candidate run is
/// seeded as one batch, each later pattern expands it, and the part's
/// shaping folds the result. A part with no required pattern seeds one
/// unit row.
pub(crate) fn evaluate_part<G: PgRead, P: ProfHook>(
    pg: &G,
    q: &SingleQuery,
    sp: &SinglePlan,
    probes: &[Option<Probe>],
    params: &Params,
    prof: P,
) -> Result<Rows, CypherError> {
    let batch = match sp.order.split_first() {
        Some((&first, rest)) => {
            let started = prof.begin();
            let pattern = &q.patterns[first];
            let candidates = start_candidates(pg, &pattern.start, probes[first].as_ref());
            let (seeded, anchors) = seed_candidates(pg, &pattern.start, candidates.as_slice());
            prof.record(format_args!("pat{first}.start"), seeded.len, started);
            let mut batch = expand_hops_batch(pg, pattern, seeded, anchors, prof, first)?;
            prof.record(format_args!("pat{first}"), batch.len, started);
            for &pi in rest {
                if batch.len == 0 {
                    break;
                }
                let started = prof.begin();
                batch = expand_pattern(
                    pg,
                    &q.patterns[pi],
                    probes[pi].as_ref(),
                    sp.reversed[pi],
                    batch,
                    prof,
                    pi,
                )?;
                prof.record(format_args!("pat{pi}"), batch.len, started);
            }
            batch
        }
        None => Batch::unit(),
    };
    if !q.optional_patterns.is_empty() {
        return finish_single_inner(pg, q, batch_to_rows(&batch), params, prof);
    }
    let columns: Vec<String> = q.return_items.iter().map(|(_, a)| a.clone()).collect();
    let batch = apply_row_stages(pg, q, batch, params, prof)?;
    let compiled = compile_return_items(pg, q, &batch, params);
    let row = |i: usize| -> Vec<Option<Value>> {
        compiled
            .iter()
            .map(|ve| ve.as_ref().and_then(|ve| ve.cell(pg, i).into_value()))
            .collect()
    };
    let rows = if has_aggregate(q) {
        let started = prof.begin();
        let mut table = GroupTable::new(q);
        let columns: Vec<Option<PropRows<'_>>> = compiled
            .iter()
            .map(|ve| match ve {
                Some(VExpr::Props(rows)) => Some(*rows),
                _ => None,
            })
            .collect();
        let item =
            |k: usize, i: usize| compiled[k].as_ref().map_or(Cell::Null, |ve| ve.cell(pg, i));
        table.add_batch(batch.len, item, &columns);
        let groups = table.len();
        let mut rows = match (q.order_by, q.limit) {
            // ORDER BY … LIMIT over groups: only the groups that can make
            // the cut are ordered by key; the shaping tail then sorts and
            // cuts these rows to the same answer.
            (Some((index, descending)), Some(limit)) if !q.distinct => {
                table.finish_top(index, descending, q.skip.unwrap_or(0).saturating_add(limit))
            }
            _ => table.finish(),
        };
        prof.record(format_args!("aggregate"), groups, started);
        shape_rows(q, &mut rows, prof);
        rows
    } else if topk_eligible(q) {
        let (index, descending) = q.order_by.expect("top-K requires ORDER BY");
        let skip = q.skip.unwrap_or(0);
        let started = prof.begin();
        let mut heap = TopK::new(index, descending, skip.saturating_add(q.limit.unwrap_or(0)));
        let order_key = compiled[index]
            .as_ref()
            .expect("ORDER BY names a return item");
        for i in 0..batch.len {
            if heap.admits(&order_key.cell(pg, i)) {
                heap.push(row(i));
            }
        }
        prof.record(format_args!("project"), batch.len, started);
        // Sort, SKIP and LIMIT record under the ids the full-sort path
        // uses, so PROFILE output stays joinable.
        let started = prof.begin();
        let mut rows = heap.into_rows();
        prof.record(format_args!("sort"), rows.len(), started);
        if q.skip.is_some() {
            let started = prof.begin();
            rows.drain(..skip.min(rows.len()));
            prof.record(format_args!("skip"), rows.len(), started);
        }
        if let Some(limit) = q.limit {
            let started = prof.begin();
            rows.truncate(limit);
            prof.record(format_args!("limit"), rows.len(), started);
        }
        rows
    } else {
        let started = prof.begin();
        let mut rows: Vec<Vec<Option<Value>>> = (0..batch.len).map(row).collect();
        prof.record(format_args!("project"), rows.len(), started);
        shape_rows(q, &mut rows, prof);
        rows
    };
    Ok(Rows { columns, rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3pg_rdf::fxhash::FxHasher;
    use std::hash::{Hash, Hasher};

    #[test]
    fn exact_sum_is_order_insensitive() {
        // A pathological cancellation set: naive left-to-right f64 sums
        // differ between orderings; the exact accumulator must not.
        let values = [1e16, 3.15625, -1e16, 2.65625, 1e-9, 0.1, -0.1, 1e16, -1e16];
        let mut forward = ExactSum::default();
        for v in values {
            forward.add(v);
        }
        let mut backward = ExactSum::default();
        for v in values.iter().rev() {
            backward.add(*v);
        }
        assert_eq!(forward.total().to_bits(), backward.total().to_bits());
        // And it is the correctly rounded exact value.
        // 3.15625 and 2.65625 are exact binary fractions, so their sum is
        // exact and the `+ 1e-9` rounds once — the correctly rounded value.
        assert_eq!(forward.total(), 3.15625 + 2.65625 + 1e-9);
    }

    #[test]
    fn exact_sum_handles_specials() {
        let mut s = ExactSum::default();
        s.add(1.0);
        s.add(f64::INFINITY);
        assert_eq!(s.total(), f64::INFINITY);
        let mut n = ExactSum::default();
        n.add(f64::NAN);
        assert!(n.total().is_nan());
    }

    #[test]
    fn topk_matches_stable_sort_prefix() {
        // 1000 rows with only 7 distinct keys: ties everywhere, so the
        // index tiebreak is what keeps pushdown identical to the stable sort.
        let rows: Vec<Vec<Option<Value>>> = (0..1000)
            .map(|i| vec![Some(Value::Int((i * 31) % 7)), Some(Value::Int(i))])
            .collect();
        for descending in [false, true] {
            let k = 25;
            let mut heap = TopK::new(0, descending, k);
            for r in &rows {
                heap.push(r.clone());
            }
            let got = heap.into_rows();
            let mut full = rows.clone();
            full.sort_by(|a, b| order_cmp(a, b, 0, descending));
            full.truncate(k);
            assert_eq!(got, full);
        }
    }

    #[test]
    fn cell_keys_are_rendered_key_equality() {
        fn key(v: &Value) -> (Cell<'_>, u64) {
            let mut h = FxHasher::default();
            Cell::of(v).hash(&mut h);
            (Cell::of(v), h.finish())
        }
        let same = |a: Value, b: Value| {
            let (ka, ha) = key(&a);
            let (kb, hb) = key(&b);
            assert_eq!(
                ka == kb,
                format!("{a:?}") == format!("{b:?}"),
                "{a:?} vs {b:?}"
            );
            if ka == kb {
                assert_eq!(ha, hb, "{a:?} vs {b:?}");
            }
        };
        same(Value::Int(1), Value::Float(1.0));
        same(Value::Float(-0.0), Value::Float(0.0));
        same(Value::Float(f64::NAN), Value::Float(-f64::NAN));
        same(Value::String("2020".into()), Value::Date("2020".into()));
        same(Value::Year(2020), Value::Int(2020));
        same(
            Value::List(vec![Value::Float(f64::NAN)]),
            Value::List(vec![Value::Float(-f64::NAN)]),
        );
        same(Value::List(vec![Value::Int(1)]), Value::Int(1));
        same(Value::String("x".into()), Value::String("x".into()));
    }

    #[test]
    fn finish_top_matches_finish_then_sort() {
        // 300 rows over 40 groups with many equal counts: the cut at k
        // falls inside ties, which the rendered key order must break.
        let q = crate::cypher::parse("MATCH (n) RETURN n.k AS k, count(*) AS c").unwrap();
        let q = &q.parts[0];
        let values: Vec<Value> = (0..300)
            .map(|i| match i % 40 {
                g if g % 3 == 0 => Value::Float(g as f64),
                g => Value::Int(g % 17),
            })
            .collect();
        for (descending, k) in [(true, 5), (false, 7), (true, 1), (false, 100)] {
            let table = || {
                let mut t = GroupTable::new(q);
                t.add_batch(
                    values.len(),
                    |item, i| match item {
                        0 => Cell::of(&values[i]),
                        _ => Cell::Null,
                    },
                    &[],
                );
                t
            };
            let mut full = table().finish();
            full.sort_by(|a, b| order_cmp(a, b, 1, descending));
            full.truncate(k);
            assert_eq!(table().finish_top(1, descending, k), full, "k {k}");
        }
    }
}
