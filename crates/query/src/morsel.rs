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
//!   by first-seen row;
//! * `ORDER BY … LIMIT …` (no DISTINCT, no aggregates) keeps a bounded
//!   [`TopK`] of `SKIP+LIMIT` rows under the exact [`order_cmp`] ordering
//!   plus a row-index tiebreak, so it equals the first K rows of the
//!   stable full sort it replaces.
//!
//! Queries with `OPTIONAL MATCH` expand their required patterns here, then
//! hand the rows to the scan oracle's left join and finish, which are
//! row-oriented by nature.

use crate::cypher::{
    finish_single_inner, has_aggregate, order_cmp, shape_rows, start_candidates, total_cmp_values,
    AggFunc, CypherError, Params, Probe, ReturnItem, Rows, SinglePlan, SingleQuery,
};
use crate::profile::ProfHook;
use crate::vectorized::{
    apply_row_stages, batch_to_rows, compile_return_items, expand_hops_batch, expand_pattern,
    seed_candidates, Batch,
};
use s3pg_pg::{PgRead, Value};
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

/// Render an optional value to the injective string key every grouping
/// site shares (`Debug` form, `∅` for NULL).
fn render_key(v: &Option<Value>) -> String {
    v.as_ref().map_or("∅".to_string(), |v| format!("{v:?}"))
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
    fn add_value(&mut self, v: &Value) {
        match v {
            Value::Int(i) => self.int = self.int.wrapping_add(*i),
            Value::Float(f) => {
                self.float.add(*f);
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

/// One aggregate slot's accumulator, picked by `(func, distinct)`.
#[derive(Debug)]
enum AggAcc {
    /// `count(*)` and `count(expr)`.
    Count(i64),
    /// `count(DISTINCT expr)` — rendered non-NULL values.
    CountDistinct(FxHashSet<String>),
    /// `sum(expr)`.
    Sum(SumAcc),
    /// `sum(DISTINCT expr)` — first value per rendered key; summed in
    /// sorted key order at finish, so the result is arrival-order-free.
    SumDistinct(FxHashMap<String, Value>),
    /// `min(expr)` / `max(expr)`: the champion value. Ties under the total
    /// comparator keep the champion — first row wins.
    MinMax { is_min: bool, best: Option<Value> },
}

impl AggAcc {
    fn new(func: AggFunc, distinct: bool) -> AggAcc {
        match (func, distinct) {
            (AggFunc::Count, true) => AggAcc::CountDistinct(FxHashSet::default()),
            (AggFunc::Count, false) => AggAcc::Count(0),
            (AggFunc::Sum, true) => AggAcc::SumDistinct(FxHashMap::default()),
            (AggFunc::Sum, false) => AggAcc::Sum(SumAcc::default()),
            (AggFunc::Min, _) => AggAcc::MinMax {
                is_min: true,
                best: None,
            },
            (AggFunc::Max, _) => AggAcc::MinMax {
                is_min: false,
                best: None,
            },
        }
    }

    /// Feed one row's input: `None` for `count(*)` (no argument — every
    /// row counts), `Some(v)` for an evaluated argument (NULL skipped).
    fn add(&mut self, input: Option<Option<Value>>) {
        match self {
            AggAcc::Count(n) => {
                if matches!(input, None | Some(Some(_))) {
                    *n += 1;
                }
            }
            AggAcc::CountDistinct(seen) => {
                if let Some(Some(v)) = input {
                    seen.insert(format!("{v:?}"));
                }
            }
            AggAcc::Sum(acc) => {
                if let Some(Some(v)) = input {
                    acc.add_value(&v);
                }
            }
            AggAcc::SumDistinct(seen) => {
                if let Some(Some(v)) = input {
                    seen.entry(format!("{v:?}")).or_insert(v);
                }
            }
            AggAcc::MinMax { is_min, best } => {
                if let Some(Some(v)) = input {
                    let better =
                        best.as_ref()
                            .is_none_or(|champion| match total_cmp_values(&v, champion) {
                                std::cmp::Ordering::Less => *is_min,
                                std::cmp::Ordering::Greater => !*is_min,
                                std::cmp::Ordering::Equal => false,
                            });
                    if better {
                        *best = Some(v);
                    }
                }
            }
        }
    }

    fn finish(self) -> Option<Value> {
        match self {
            AggAcc::Count(n) => Some(Value::Int(n)),
            AggAcc::CountDistinct(seen) => Some(Value::Int(seen.len() as i64)),
            AggAcc::Sum(acc) => Some(acc.finish()),
            AggAcc::SumDistinct(seen) => {
                // Sorted key order makes the accumulation order a function
                // of the value set alone, never of arrival order.
                let mut entries: Vec<(String, Value)> = seen.into_iter().collect();
                entries.sort_by(|a, b| a.0.cmp(&b.0));
                let mut acc = SumAcc::default();
                for (_, v) in &entries {
                    acc.add_value(v);
                }
                Some(acc.finish())
            }
            AggAcc::MinMax { best, .. } => best,
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

/// One group per rendered key vector: the grouping values from the first
/// row that created the group, plus one [`AggAcc`] per aggregate item.
struct GroupAcc {
    key_values: Vec<Option<Value>>,
    slots: Vec<AggAcc>,
}

/// The hash aggregation table both evaluators share: the scan oracle
/// feeds it row by row, the executor batch by batch. Grouping keys, NULL
/// handling, accumulation, and output order (groups sorted by rendered
/// key) are defined once here, so the oracle and the executor aggregate by
/// identical rules.
#[derive(Default)]
pub(crate) struct GroupTable {
    groups: FxHashMap<Vec<String>, GroupAcc>,
}

impl GroupTable {
    /// Accumulate one row. `eval_item(i)` evaluates return item `i` for
    /// this row.
    pub(crate) fn add_row(
        &mut self,
        q: &SingleQuery,
        mut eval_item: impl FnMut(usize) -> Option<Value>,
    ) {
        let mut key: Vec<String> = Vec::new();
        let mut key_values: Vec<Option<Value>> = Vec::new();
        let mut agg_inputs: Vec<Option<Option<Value>>> = Vec::new();
        for (idx, (item, _)) in q.return_items.iter().enumerate() {
            match item {
                ReturnItem::Expr(_) => {
                    let v = eval_item(idx);
                    key.push(render_key(&v));
                    key_values.push(v);
                }
                ReturnItem::Agg { arg, .. } => {
                    agg_inputs.push(arg.as_ref().map(|_| eval_item(idx)));
                }
            }
        }
        let group = self.groups.entry(key).or_insert_with(|| GroupAcc {
            key_values,
            slots: Self::slots_for(q),
        });
        for (acc, input) in group.slots.iter_mut().zip(agg_inputs) {
            acc.add(input);
        }
    }

    fn slots_for(q: &SingleQuery) -> Vec<AggAcc> {
        q.return_items
            .iter()
            .filter_map(|(item, _)| match item {
                ReturnItem::Agg { func, distinct, .. } => Some(AggAcc::new(*func, *distinct)),
                ReturnItem::Expr(_) => None,
            })
            .collect()
    }

    /// Emit one output row per group, sorted by rendered key. Zero rows
    /// with nothing but aggregates yields the single empty-input row
    /// (`count(*)` = 0).
    pub(crate) fn finish(self, q: &SingleQuery) -> Vec<Vec<Option<Value>>> {
        let n_aggs = q
            .return_items
            .iter()
            .filter(|(item, _)| matches!(item, ReturnItem::Agg { .. }))
            .count();
        if self.groups.is_empty() && n_aggs == q.return_items.len() {
            let row = q
                .return_items
                .iter()
                .map(|(item, _)| match item {
                    ReturnItem::Agg { func, .. } => AggAcc::empty_value(*func),
                    ReturnItem::Expr(_) => unreachable!("all items are aggregates"),
                })
                .collect();
            return vec![row];
        }
        let mut entries: Vec<(Vec<String>, GroupAcc)> = self.groups.into_iter().collect();
        entries.sort_by(|a, b| a.0.cmp(&b.0));
        entries
            .into_iter()
            .map(|(_, acc)| {
                let mut keys = acc.key_values.into_iter();
                let mut slots = acc.slots.into_iter();
                q.return_items
                    .iter()
                    .map(|(item, _)| match item {
                        ReturnItem::Expr(_) => keys.next().unwrap(),
                        ReturnItem::Agg { .. } => slots.next().unwrap().finish(),
                    })
                    .collect()
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
/// bound; amortized O(n log K) without per-push heap maintenance.
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
        if self.entries.len() >= self.k.saturating_mul(2).max(256) {
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
            let mut batch = expand_hops_batch(pg, pattern, seeded, anchors)?;
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
    let item = |i: usize, k: usize| compiled[k].as_ref().and_then(|ve| ve.eval(pg, &batch, i));
    let row =
        |i: usize| -> Vec<Option<Value>> { (0..compiled.len()).map(|k| item(i, k)).collect() };
    let rows = if has_aggregate(q) {
        let started = prof.begin();
        let mut table = GroupTable::default();
        for i in 0..batch.len {
            table.add_row(q, |k| item(i, k));
        }
        let mut rows = table.finish(q);
        prof.record(format_args!("aggregate"), rows.len(), started);
        shape_rows(q, &mut rows, prof);
        rows
    } else if topk_eligible(q) {
        let (index, descending) = q.order_by.expect("top-K requires ORDER BY");
        let skip = q.skip.unwrap_or(0);
        let started = prof.begin();
        let mut heap = TopK::new(index, descending, skip.saturating_add(q.limit.unwrap_or(0)));
        for i in 0..batch.len {
            heap.push(row(i));
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
}
