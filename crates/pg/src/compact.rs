//! Read-optimized compact snapshot of a property graph.
//!
//! [`CompactGraph`] is the frozen form the server's hot read path serves
//! from: the mutable [`PropertyGraph`]'s pointer-heavy layout (per-node
//! `Vec`s, owned `String` property values, nested hash maps) is rebuilt as
//!
//! * **CSR adjacency** — one offsets array plus one packed edge-id array
//!   per direction, each node's row sorted by (primary edge label,
//!   edge id) so label-constrained expansion touches a contiguous prefix
//!   of cache lines;
//! * **a graph-wide string dictionary** — every string property value
//!   (and `Date`/`DateTime` lexical form) is interned once and referred
//!   to by a 4-byte [`Sym`]. Unlike the mutable interner the RDF side
//!   uses (`crates/rdf/src/interner.rs`), the frozen dictionary stores
//!   each string exactly once: string→symbol probes walk an
//!   open-addressed slot array of 4-byte indexes instead of hashing a
//!   second owned copy of every string;
//! * **columnar records** — labels and properties of all nodes (and all
//!   edges) live in two flat arrays indexed by per-node offsets instead
//!   of one heap allocation per node;
//! * **flat postings indexes** — the label index and the
//!   `(label, key, value)` equality index are ranges into shared postings
//!   arrays, so planner pushdown keeps working at mutable-path speed.
//!
//! The build touches each value once and never hashes a posting: the
//! dictionary is filled in its frozen form while the records are encoded
//! (`DictBuilder`), the label index is a counting sort, and the equality
//! index is one `(label, key, value, node)` vector sorted once and cut into
//! runs. Postings therefore lie in key order — a canonical layout: the
//! image [`CompactGraph::write_to`] produces is a function of the graph.
//!
//! Freezing densely renumbers live nodes and edges in id order, compacting
//! tombstones away. The renumbering is monotone, so enumeration orders
//! (label scans, index probes, `all_node_ids`) match the mutable graph's
//! relative order; only adjacency rows may enumerate in a different order
//! (label-sorted instead of insertion-sorted), which the query engine
//! treats as an unordered set anyway.

use crate::graph::{EdgeId, NodeId, PropertyGraph};
use crate::read::PgRead;
use crate::value::{Scalar, Value};
use s3pg_rdf::fxhash::FxHashMap;
use s3pg_rdf::{Interner, Sym};
use std::borrow::Cow;

/// A dictionary-encoded property value. Strings hold a symbol into the
/// graph's value dictionary; floats hold raw bits so `CValue` is `Eq` and
/// `Hash` under the same bitwise semantics as [`Value`].
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CValue {
    Str(Sym),
    Int(i64),
    /// `f64::to_bits` of the value.
    Float(u64),
    Bool(bool),
    Date(Sym),
    DateTime(Sym),
    Year(i32),
    List(Box<[CValue]>),
}

impl CValue {
    /// Heap bytes owned beyond the inline enum size (list storage only —
    /// strings live in the shared dictionary).
    fn heap_size_bytes(&self) -> usize {
        match self {
            CValue::List(items) => {
                s3pg_obs::mem::boxed_slice_bytes(items)
                    + items.iter().map(CValue::heap_size_bytes).sum::<usize>()
            }
            _ => 0,
        }
    }
}

/// A frozen string dictionary. The mutable [`Interner`] keeps a second
/// owned copy of every string as its hash-lookup key — the right trade
/// while interning is hot, pure overhead once the graph is frozen. Here
/// each string is stored exactly once, in symbol order (so `Sym` indices
/// produced by an interner survive the conversion verbatim); string→symbol
/// probes stay O(1) through an open-addressed slot array holding 4-byte
/// indexes into the string table instead of owned keys.
#[derive(Debug, Clone)]
pub(crate) struct FrozenDict {
    pub(crate) strings: Box<[Box<str>]>,
    /// Open-addressing hash slots at ≤50% load: `index + 1` into
    /// `strings`, with 0 marking an empty slot. Power-of-two length.
    /// Rebuildable from `strings` alone, so snapshots never persist it.
    pub(crate) slots: Box<[u32]>,
}

/// FxHash of a dictionary string. The multiplicative scheme concentrates
/// entropy in the high bits, so slot indexes are taken from the top.
fn dict_hash(s: &str) -> u64 {
    use std::hash::Hasher;
    let mut h = s3pg_rdf::fxhash::FxHasher::default();
    h.write(s.as_bytes());
    h.finish()
}

/// One equality-index entry: a `(label, key, value)` triple mapped to its
/// range in the shared postings array.
pub(crate) type EqEntry = ((Sym, Sym, CValue), (u32, u32));

/// Build the open-addressed probe slots over a frozen equality index.
/// Shared by [`PropertyGraph::freeze`] and the snapshot codec, which
/// persists only the entries and rebuilds the slots on load.
pub(crate) fn build_eq_slots(eq_index: &[EqEntry]) -> Box<[u32]> {
    let mut eq_slots = vec![0u32; slot_count(eq_index.len())];
    for (i, (key, _)) in eq_index.iter().enumerate() {
        place(&mut eq_slots, eq_key_hash(key), i + 1);
    }
    eq_slots.into_boxed_slice()
}

/// FxHash of an equality-index key, for the same top-bits slot scheme.
fn eq_key_hash(key: &(Sym, Sym, CValue)) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = s3pg_rdf::fxhash::FxHasher::default();
    key.hash(&mut h);
    h.finish()
}

/// Home slot of a 64-bit hash in a power-of-two slot array.
#[inline]
fn home_slot(hash: u64, mask: usize) -> usize {
    (hash >> 32) as usize & mask
}

/// A [`FrozenDict`] under construction: the same single string table and
/// the same open-addressed slots, grown by doubling while values are
/// encoded. Strings are interned in first-seen order and the slot array
/// always has the length [`FrozenDict::from_strings`] would pick for the
/// strings so far, so the finished dictionary is laid out exactly as if it
/// had been rebuilt from its string table — which is what a snapshot
/// reload does.
#[derive(Default)]
struct DictBuilder {
    strings: Vec<Box<str>>,
    /// `dict_hash` of each string, kept so growing never re-reads them.
    hashes: Vec<u64>,
    slots: Vec<u32>,
}

impl DictBuilder {
    fn intern(&mut self, s: &str) -> Sym {
        let hash = dict_hash(s);
        if let Some(sym) = find(&self.slots, &self.strings, hash, s) {
            return sym;
        }
        let sym = Sym::from_index(self.strings.len());
        self.strings.push(s.into());
        self.hashes.push(hash);
        let wanted = slot_count(self.strings.len());
        if wanted == self.slots.len() {
            place(&mut self.slots, hash, self.strings.len());
        } else {
            self.slots = vec![0; wanted];
            for (i, &h) in self.hashes.iter().enumerate() {
                place(&mut self.slots, h, i + 1);
            }
        }
        sym
    }

    fn finish(self) -> FrozenDict {
        FrozenDict {
            strings: self.strings.into_boxed_slice(),
            slots: self.slots.into_boxed_slice(),
        }
    }
}

/// Slot-array length for `len` entries: a power of two at ≤50% load.
fn slot_count(len: usize) -> usize {
    if len == 0 {
        0
    } else {
        (len * 2).next_power_of_two()
    }
}

/// Probe `slots` for the string `s` (whose `dict_hash` is `hash`).
fn find(slots: &[u32], strings: &[Box<str>], hash: u64, s: &str) -> Option<Sym> {
    if slots.is_empty() {
        return None;
    }
    let mask = slots.len() - 1;
    let mut at = home_slot(hash, mask);
    while slots[at] != 0 {
        let i = slots[at] as usize - 1;
        if strings[i].as_ref() == s {
            return Some(Sym::from_index(i));
        }
        at = (at + 1) & mask;
    }
    None
}

/// Linear-probe `entry` (`index + 1`) into the first free slot from its
/// hash's home.
fn place(slots: &mut [u32], hash: u64, entry: usize) {
    let mask = slots.len() - 1;
    let mut at = home_slot(hash, mask);
    while slots[at] != 0 {
        at = (at + 1) & mask;
    }
    slots[at] = entry as u32;
}

impl FrozenDict {
    fn from_interner(interner: &Interner) -> FrozenDict {
        FrozenDict::from_strings(interner.iter().map(|(_, s)| s.into()).collect())
    }

    /// Build a dictionary from its string table alone, recomputing the
    /// probe slots. The snapshot codec persists only the strings.
    pub(crate) fn from_strings(strings: Vec<Box<str>>) -> FrozenDict {
        let mut slots = vec![0u32; slot_count(strings.len())];
        for (i, s) in strings.iter().enumerate() {
            place(&mut slots, dict_hash(s), i + 1);
        }
        FrozenDict {
            strings: strings.into_boxed_slice(),
            slots: slots.into_boxed_slice(),
        }
    }

    #[inline]
    fn resolve(&self, sym: Sym) -> &str {
        &self.strings[sym.index()]
    }

    fn get(&self, s: &str) -> Option<Sym> {
        find(&self.slots, &self.strings, dict_hash(s), s)
    }

    fn len(&self) -> usize {
        self.strings.len()
    }

    fn deep_size_bytes(&self) -> usize {
        use s3pg_obs::mem::boxed_slice_bytes;
        boxed_slice_bytes(&self.strings)
            + boxed_slice_bytes(&self.slots)
            + self.strings.iter().map(|s| s.len()).sum::<usize>()
    }
}

/// A frozen, immutable, read-optimized property graph. Built by
/// [`PropertyGraph::freeze`]; answers the whole [`PgRead`] surface without
/// allocation except for decoded property values.
#[derive(Debug, Clone)]
pub struct CompactGraph {
    /// Label/key dictionary, frozen from the source graph's interner so
    /// `Sym`s stored in the columnar arrays keep their meaning.
    pub(crate) keys: FrozenDict,
    /// Graph-wide dictionary over string property values.
    pub(crate) dict: FrozenDict,
    /// Total string-value encodes performed during freeze; together with
    /// `dict.len()` this yields the dictionary hit rate.
    pub(crate) dict_encodes: u64,

    // Columnar node storage: `offsets[i]..offsets[i+1]` is node i's row.
    pub(crate) node_label_offsets: Vec<u32>,
    pub(crate) node_labels: Vec<Sym>,
    pub(crate) node_prop_offsets: Vec<u32>,
    pub(crate) node_props: Vec<(Sym, CValue)>,

    // Columnar edge storage.
    pub(crate) edge_endpoints: Vec<(NodeId, NodeId)>,
    pub(crate) edge_label_offsets: Vec<u32>,
    pub(crate) edge_labels: Vec<Sym>,
    pub(crate) edge_prop_offsets: Vec<u32>,
    pub(crate) edge_props: Vec<(Sym, CValue)>,

    // CSR adjacency, rows sorted by (primary edge label, edge id).
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_csr: Vec<EdgeId>,
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_csr: Vec<EdgeId>,

    // Label index: ranges into one flat, id-sorted postings array.
    pub(crate) by_label: FxHashMap<Sym, (u32, u32)>,
    pub(crate) by_label_postings: Vec<NodeId>,

    // Equality index over scalar properties: `(label, key, value)` ranges
    // into one flat, id-sorted postings array. Entries are key-sorted,
    // probed O(1) through an open-addressed slot array (`index + 1`,
    // 0 = empty) — the key set is frozen, so a flat array plus 4-byte
    // slots beats a hash table of owned keys without losing probe speed.
    pub(crate) eq_index: Box<[EqEntry]>,
    pub(crate) eq_slots: Box<[u32]>,
    pub(crate) eq_postings: Vec<NodeId>,
}

/// Encode a mutable-graph value into the dictionary, counting every string
/// encode so the hit rate can be reported.
fn encode(value: &Value, dict: &mut DictBuilder, encodes: &mut u64) -> CValue {
    match value {
        Value::String(s) => {
            *encodes += 1;
            CValue::Str(dict.intern(s))
        }
        Value::Int(i) => CValue::Int(*i),
        Value::Float(f) => CValue::Float(f.to_bits()),
        Value::Bool(b) => CValue::Bool(*b),
        Value::Date(s) => {
            *encodes += 1;
            CValue::Date(dict.intern(s))
        }
        Value::DateTime(s) => {
            *encodes += 1;
            CValue::DateTime(dict.intern(s))
        }
        Value::Year(y) => CValue::Year(*y),
        Value::List(items) => {
            CValue::List(items.iter().map(|v| encode(v, dict, encodes)).collect())
        }
    }
}

impl CompactGraph {
    /// Freeze a mutable graph into its compact form. Uses only the source
    /// graph's public read API; the source is untouched and writes can keep
    /// targeting it.
    pub fn freeze(pg: &PropertyGraph) -> CompactGraph {
        // The value dictionary is built in its frozen, single-copy form
        // while the records are encoded.
        let mut dict = DictBuilder::default();
        let mut dict_encodes: u64 = 0;

        // Dense, monotone renumbering of live nodes and edges.
        let live_nodes: Vec<NodeId> = pg.node_ids().collect();
        let live_edges: Vec<EdgeId> = pg.edge_ids().collect();
        let n = live_nodes.len();
        let m = live_edges.len();
        let mut node_map = vec![u32::MAX; live_nodes.last().map_or(0, |id| id.0 as usize + 1)];
        for (new, old) in live_nodes.iter().enumerate() {
            node_map[old.0 as usize] = new as u32;
        }
        let mut edge_map = vec![u32::MAX; live_edges.last().map_or(0, |id| id.0 as usize + 1)];
        for (new, old) in live_edges.iter().enumerate() {
            edge_map[old.0 as usize] = new as u32;
        }

        // Columnar nodes, plus one `(label, key, value) → node` pair per
        // scalar property per label for the equality index. Pairs are
        // pushed in new-id order; the sort below keeps that order inside
        // each key's run.
        let mut node_label_offsets = Vec::with_capacity(n + 1);
        let mut node_labels = Vec::new();
        let mut node_prop_offsets = Vec::with_capacity(n + 1);
        let mut node_props = Vec::new();
        let mut eq_pairs: Vec<((Sym, Sym, CValue), NodeId)> = Vec::new();
        node_label_offsets.push(0);
        node_prop_offsets.push(0);
        for (new, &old) in live_nodes.iter().enumerate() {
            let new_id = NodeId(new as u32);
            let node = pg.node(old);
            node_labels.extend_from_slice(&node.labels);
            for &(k, ref v) in &node.props {
                let cv = encode(v, &mut dict, &mut dict_encodes);
                if !matches!(cv, CValue::List(_)) {
                    for &l in &node.labels {
                        eq_pairs.push(((l, k, cv.clone()), new_id));
                    }
                }
                node_props.push((k, cv));
            }
            node_label_offsets.push(node_labels.len() as u32);
            node_prop_offsets.push(node_props.len() as u32);
        }

        // Columnar edges with renumbered endpoints.
        let mut edge_endpoints = Vec::with_capacity(m);
        let mut edge_label_offsets = Vec::with_capacity(m + 1);
        let mut edge_labels = Vec::new();
        let mut edge_prop_offsets = Vec::with_capacity(m + 1);
        let mut edge_props = Vec::new();
        edge_label_offsets.push(0);
        edge_prop_offsets.push(0);
        for &old in &live_edges {
            let e = pg.edge(old);
            edge_endpoints.push((
                NodeId(node_map[e.src.0 as usize]),
                NodeId(node_map[e.dst.0 as usize]),
            ));
            edge_labels.extend_from_slice(&e.labels);
            for &(k, ref v) in &e.props {
                edge_props.push((k, encode(v, &mut dict, &mut dict_encodes)));
            }
            edge_label_offsets.push(edge_labels.len() as u32);
            edge_prop_offsets.push(edge_props.len() as u32);
        }

        // CSR adjacency sorted by (primary edge label, edge id): the key
        // reads a new edge id's first label out of the columnar storage.
        let sort_key = |e: EdgeId| {
            let s = edge_label_offsets[e.0 as usize] as usize;
            let t = edge_label_offsets[e.0 as usize + 1] as usize;
            let label = if s < t {
                edge_labels[s].index()
            } else {
                usize::MAX
            };
            (label, e.0)
        };
        let mut out_offsets = Vec::with_capacity(n + 1);
        let mut out_csr = Vec::with_capacity(m);
        let mut in_offsets = Vec::with_capacity(n + 1);
        let mut in_csr = Vec::with_capacity(m);
        out_offsets.push(0);
        in_offsets.push(0);
        let mut row: Vec<EdgeId> = Vec::new();
        for &old in &live_nodes {
            row.clear();
            row.extend(pg.out_edges(old).map(|e| EdgeId(edge_map[e.0 as usize])));
            row.sort_unstable_by_key(|&e| sort_key(e));
            out_csr.extend_from_slice(&row);
            out_offsets.push(out_csr.len() as u32);

            row.clear();
            row.extend(pg.in_edges(old).map(|e| EdgeId(edge_map[e.0 as usize])));
            row.sort_unstable_by_key(|&e| sort_key(e));
            in_csr.extend_from_slice(&row);
            in_offsets.push(in_csr.len() as u32);
        }

        // Label index by counting sort: postings laid out label by label
        // in symbol order, id-sorted within a label.
        let mut starts = vec![0u32; pg.interner().len() + 1];
        for &l in &node_labels {
            starts[l.index() + 1] += 1;
        }
        for i in 1..starts.len() {
            starts[i] += starts[i - 1];
        }
        let mut by_label_postings = vec![NodeId(0); node_labels.len()];
        let mut cursor = starts.clone();
        for new in 0..n {
            let row = node_label_offsets[new] as usize..node_label_offsets[new + 1] as usize;
            for &l in &node_labels[row] {
                by_label_postings[cursor[l.index()] as usize] = NodeId(new as u32);
                cursor[l.index()] += 1;
            }
        }
        let by_label: FxHashMap<Sym, (u32, u32)> = starts
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] < w[1])
            .map(|(i, w)| (Sym::from_index(i), (w[0], w[1])))
            .collect();

        // Equality index from one sorted run: entries come out key-sorted
        // and each key's postings are a contiguous, id-sorted range laid
        // out in the same key order — the image depends on the graph alone.
        eq_pairs.sort_unstable();
        let mut eq_index: Vec<EqEntry> = Vec::with_capacity(eq_pairs.len());
        let mut eq_postings = Vec::with_capacity(eq_pairs.len());
        for (key, node) in eq_pairs {
            let at = eq_postings.len() as u32;
            eq_postings.push(node);
            match eq_index.last_mut() {
                Some((last, range)) if *last == key => range.1 = at + 1,
                _ => eq_index.push((key, (at, at + 1))),
            }
        }
        let eq_slots = build_eq_slots(&eq_index);

        CompactGraph {
            keys: FrozenDict::from_interner(pg.interner()),
            dict: dict.finish(),
            dict_encodes,
            node_label_offsets,
            node_labels,
            node_prop_offsets,
            node_props,
            edge_endpoints,
            edge_label_offsets,
            edge_labels,
            edge_prop_offsets,
            edge_props,
            out_offsets,
            out_csr,
            in_offsets,
            in_csr,
            by_label,
            by_label_postings,
            eq_index: eq_index.into_boxed_slice(),
            eq_slots,
            eq_postings,
        }
    }

    /// Decode a stored value back to the engine's owned [`Value`] form.
    pub fn decode(&self, value: &CValue) -> Value {
        match value {
            CValue::List(items) => Value::List(items.iter().map(|v| self.decode(v)).collect()),
            _ => self
                .scalar(value)
                .map(Scalar::to_value)
                .expect("only a list has no scalar form"),
        }
    }

    /// A stored scalar, borrowed: strings resolve through the dictionary.
    /// `None` for a list.
    #[inline]
    fn scalar(&self, value: &CValue) -> Option<Scalar<'_>> {
        Some(match value {
            CValue::Str(s) => Scalar::String(self.dict.resolve(*s)),
            CValue::Int(i) => Scalar::Int(*i),
            CValue::Float(bits) => Scalar::Float(f64::from_bits(*bits)),
            CValue::Bool(b) => Scalar::Bool(*b),
            CValue::Date(s) => Scalar::Date(self.dict.resolve(*s)),
            CValue::DateTime(s) => Scalar::DateTime(self.dict.resolve(*s)),
            CValue::Year(y) => Scalar::Year(*y),
            CValue::List(_) => return None,
        })
    }

    /// Encode an equality-probe value against the frozen dictionary.
    /// `None` means a string the dictionary has never seen (or a list) —
    /// the probe can only answer the empty set.
    fn encode_probe(&self, value: &Value) -> Option<CValue> {
        match value {
            Value::String(s) => self.dict.get(s).map(CValue::Str),
            Value::Int(i) => Some(CValue::Int(*i)),
            Value::Float(f) => Some(CValue::Float(f.to_bits())),
            Value::Bool(b) => Some(CValue::Bool(*b)),
            Value::Date(s) => self.dict.get(s).map(CValue::Date),
            Value::DateTime(s) => self.dict.get(s).map(CValue::DateTime),
            Value::Year(y) => Some(CValue::Year(*y)),
            Value::List(_) => None,
        }
    }

    /// The equality index's postings for `(label, key, value)`: id-sorted,
    /// empty when the triple never occurs.
    fn eq_postings(&self, label: &str, key: &str, value: &Value) -> &[NodeId] {
        let (Some(l), Some(k)) = (self.keys.get(label), self.keys.get(key)) else {
            return &[];
        };
        let Some(cv) = self.encode_probe(value) else {
            return &[];
        };
        let probe = (l, k, cv);
        if self.eq_slots.is_empty() {
            return &[];
        }
        let mask = self.eq_slots.len() - 1;
        let mut at = home_slot(eq_key_hash(&probe), mask);
        loop {
            match self.eq_slots[at] {
                0 => return &[],
                slot => {
                    let (key, (s, t)) = &self.eq_index[slot as usize - 1];
                    if *key == probe {
                        return &self.eq_postings[*s as usize..*t as usize];
                    }
                }
            }
            at = (at + 1) & mask;
        }
    }

    /// Number of distinct strings in the value dictionary.
    pub fn dict_len(&self) -> usize {
        self.dict.len()
    }

    /// Heap footprint of the value dictionary alone (gauge input).
    pub fn dict_size_bytes(&self) -> usize {
        self.dict.deep_size_bytes()
    }

    /// Total string-value encodes performed while freezing.
    pub fn dict_encodes(&self) -> u64 {
        self.dict_encodes
    }

    /// Fraction of string encodes answered by an already-interned entry:
    /// `1 − distinct/encodes`. Zero when the graph holds no strings.
    pub fn dict_hit_rate(&self) -> f64 {
        if self.dict_encodes == 0 {
            0.0
        } else {
            1.0 - self.dict.len() as f64 / self.dict_encodes as f64
        }
    }

    /// Estimated resident heap footprint of the snapshot: both frozen
    /// dictionaries, every columnar array, the CSR arrays, and the flat
    /// postings indexes. Feeds the `s3pg_mem_pg_compact_bytes` gauge.
    pub fn deep_size_bytes(&self) -> usize {
        use s3pg_obs::mem::{boxed_slice_bytes, map_bytes, vec_bytes};
        let props_heap = |props: &[(Sym, CValue)]| {
            props
                .iter()
                .map(|(_, v)| v.heap_size_bytes())
                .sum::<usize>()
        };
        self.keys.deep_size_bytes()
            + self.dict.deep_size_bytes()
            + vec_bytes(&self.node_label_offsets)
            + vec_bytes(&self.node_labels)
            + vec_bytes(&self.node_prop_offsets)
            + vec_bytes(&self.node_props)
            + props_heap(&self.node_props)
            + vec_bytes(&self.edge_endpoints)
            + vec_bytes(&self.edge_label_offsets)
            + vec_bytes(&self.edge_labels)
            + vec_bytes(&self.edge_prop_offsets)
            + vec_bytes(&self.edge_props)
            + props_heap(&self.edge_props)
            + vec_bytes(&self.out_offsets)
            + vec_bytes(&self.out_csr)
            + vec_bytes(&self.in_offsets)
            + vec_bytes(&self.in_csr)
            + map_bytes::<Sym, (u32, u32)>(self.by_label.capacity())
            + vec_bytes(&self.by_label_postings)
            + boxed_slice_bytes(&self.eq_index)
            + boxed_slice_bytes(&self.eq_slots)
            + vec_bytes(&self.eq_postings)
    }

    /// Labels of a node, resolved to strings (diagnostics; allocates).
    pub fn labels_of(&self, id: NodeId) -> Vec<&str> {
        self.node_labels_row(id)
            .iter()
            .map(|&l| self.keys.resolve(l))
            .collect()
    }

    #[inline]
    fn node_labels_row(&self, id: NodeId) -> &[Sym] {
        let s = self.node_label_offsets[id.0 as usize] as usize;
        let t = self.node_label_offsets[id.0 as usize + 1] as usize;
        &self.node_labels[s..t]
    }

    #[inline]
    fn node_props_row(&self, id: NodeId) -> &[(Sym, CValue)] {
        let s = self.node_prop_offsets[id.0 as usize] as usize;
        let t = self.node_prop_offsets[id.0 as usize + 1] as usize;
        &self.node_props[s..t]
    }

    #[inline]
    fn edge_labels_row(&self, id: EdgeId) -> &[Sym] {
        let s = self.edge_label_offsets[id.0 as usize] as usize;
        let t = self.edge_label_offsets[id.0 as usize + 1] as usize;
        &self.edge_labels[s..t]
    }

    #[inline]
    fn edge_props_row(&self, id: EdgeId) -> &[(Sym, CValue)] {
        let s = self.edge_prop_offsets[id.0 as usize] as usize;
        let t = self.edge_prop_offsets[id.0 as usize + 1] as usize;
        &self.edge_props[s..t]
    }
}

impl PgRead for CompactGraph {
    fn node_count(&self) -> usize {
        self.node_label_offsets.len() - 1
    }

    fn edge_count(&self) -> usize {
        self.edge_endpoints.len()
    }

    fn all_node_ids(&self) -> Vec<NodeId> {
        (0..self.node_count() as u32).map(NodeId).collect()
    }

    fn nodes_with_label(&self, label: &str) -> &[NodeId] {
        self.keys
            .get(label)
            .and_then(|sym| self.by_label.get(&sym))
            .map(|&(s, t)| &self.by_label_postings[s as usize..t as usize])
            .unwrap_or(&[])
    }

    fn label_cardinality(&self, label: &str) -> usize {
        self.nodes_with_label(label).len()
    }

    fn nodes_with_label_prop(&self, label: &str, key: &str, value: &Value) -> Cow<'_, [NodeId]> {
        Cow::Borrowed(self.eq_postings(label, key, value))
    }

    #[inline]
    fn key_sym(&self, name: &str) -> Option<Sym> {
        self.keys.get(name)
    }

    #[inline]
    fn node_label_syms(&self, id: NodeId) -> &[Sym] {
        self.node_labels_row(id)
    }

    #[inline]
    fn edge_label_syms(&self, id: EdgeId) -> &[Sym] {
        self.edge_labels_row(id)
    }

    #[inline]
    fn node_prop_sym(&self, id: NodeId, key: Sym) -> Option<Value> {
        self.node_props_row(id)
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| self.decode(v))
    }

    #[inline]
    fn edge_prop_sym(&self, id: EdgeId, key: Sym) -> Option<Value> {
        self.edge_props_row(id)
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| self.decode(v))
    }

    #[inline(always)]
    fn node_scalar(&self, id: NodeId, key: Sym) -> Option<Scalar<'_>> {
        let (_, v) = self.node_props_row(id).iter().find(|(k, _)| *k == key)?;
        self.scalar(v)
    }

    #[inline(always)]
    fn edge_scalar(&self, id: EdgeId, key: Sym) -> Option<Scalar<'_>> {
        let (_, v) = self.edge_props_row(id).iter().find(|(k, _)| *k == key)?;
        self.scalar(v)
    }

    #[inline]
    fn edge_endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        self.edge_endpoints[id.0 as usize]
    }

    #[inline]
    fn out_adjacency(&self, id: NodeId) -> &[EdgeId] {
        let s = self.out_offsets[id.0 as usize] as usize;
        let t = self.out_offsets[id.0 as usize + 1] as usize;
        &self.out_csr[s..t]
    }

    #[inline]
    fn in_adjacency(&self, id: NodeId) -> &[EdgeId] {
        let s = self.in_offsets[id.0 as usize] as usize;
        let t = self.in_offsets[id.0 as usize + 1] as usize;
        &self.in_csr[s..t]
    }

    #[inline]
    fn edge_live(&self, _id: EdgeId) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::IRI_KEY;
    use std::collections::BTreeSet;

    fn sample() -> PropertyGraph {
        let mut pg = PropertyGraph::new();
        let bob = pg.add_node(["Person", "Student"]);
        pg.set_prop(bob, IRI_KEY, Value::String("http://ex/bob".into()));
        pg.set_prop(bob, "regNo", Value::String("Bs12".into()));
        pg.set_prop(bob, "age", Value::Int(24));
        let alice = pg.add_node(["Person", "Professor"]);
        pg.set_prop(alice, IRI_KEY, Value::String("http://ex/alice".into()));
        pg.set_prop(alice, "name", Value::String("Alice".into()));
        let d1 = pg.add_node(["Department"]);
        pg.set_prop(d1, IRI_KEY, Value::String("http://ex/cs".into()));
        pg.set_prop(d1, "name", Value::String("Alice".into())); // repeated value
        pg.push_prop(bob, "nick", Value::String("bobby".into()));
        pg.push_prop(bob, "nick", Value::String("rob".into()));
        let e = pg.add_edge(bob, alice, "advisedBy");
        pg.set_edge_prop(e, "since", Value::Year(2020));
        pg.add_edge(alice, d1, "worksFor");
        pg
    }

    /// Render every node as a label-set + property-set string, for
    /// representation-independent comparison.
    fn node_fingerprints<G: PgRead>(g: &G) -> BTreeSet<String> {
        g.all_node_ids()
            .into_iter()
            .map(|id| {
                let mut labels: Vec<String> = ["Person", "Student", "Professor", "Department"]
                    .iter()
                    .filter(|l| g.has_label(id, l))
                    .map(|l| l.to_string())
                    .collect();
                labels.sort();
                let mut props: Vec<String> = [IRI_KEY, "regNo", "age", "name", "nick"]
                    .iter()
                    .filter_map(|k| g.prop_value(id, k).map(|v| format!("{k}={v:?}")))
                    .collect();
                props.sort();
                format!("{labels:?} {props:?}")
            })
            .collect()
    }

    #[test]
    fn freeze_preserves_nodes_and_props() {
        let pg = sample();
        let cg = pg.freeze();
        assert_eq!(PgRead::node_count(&cg), pg.node_count());
        assert_eq!(PgRead::edge_count(&cg), pg.edge_count());
        assert_eq!(node_fingerprints(&cg), node_fingerprints(&pg));
    }

    #[test]
    fn freeze_compacts_tombstones_with_monotone_renumbering() {
        let mut pg = sample();
        let extra = pg.add_node(["Person"]);
        pg.set_prop(extra, "name", Value::String("Gone".into()));
        assert!(pg.remove_node(extra));
        let before = node_fingerprints(&pg);
        let cg = pg.freeze();
        assert_eq!(PgRead::node_count(&cg), pg.node_count());
        assert_eq!(node_fingerprints(&cg), before);
        // Label postings stay id-sorted after renumbering.
        let postings = PgRead::nodes_with_label(&cg, "Person");
        assert!(postings.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn equality_index_matches_mutable_probes() {
        let pg = sample();
        let cg = pg.freeze();
        for (label, key, value) in [
            ("Person", "regNo", Value::String("Bs12".into())),
            ("Person", "name", Value::String("Alice".into())),
            ("Department", "name", Value::String("Alice".into())),
            ("Person", "age", Value::Int(24)),
            ("Person", "name", Value::String("Nobody".into())),
            ("Person", "missing", Value::Int(1)),
        ] {
            let mutable = pg.nodes_with_label_prop(label, key, &value).len();
            let compact = PgRead::nodes_with_label_prop(&cg, label, key, &value).len();
            assert_eq!(mutable, compact, "probe ({label}, {key}, {value:?})");
        }
        // Lists are never indexed in either representation.
        assert!(PgRead::nodes_with_label_prop(
            &cg,
            "Person",
            "nick",
            &Value::String("bobby".into())
        )
        .is_empty());
    }

    #[test]
    fn csr_adjacency_round_trips_edges() {
        let pg = sample();
        let cg = pg.freeze();
        let mut seen = 0;
        for id in cg.all_node_ids() {
            for &e in cg.out_adjacency(id) {
                assert!(cg.edge_live(e));
                let (src, _) = PgRead::edge_endpoints(&cg, e);
                assert_eq!(src, id);
                seen += 1;
            }
            for &e in cg.in_adjacency(id) {
                let (_, dst) = PgRead::edge_endpoints(&cg, e);
                assert_eq!(dst, id);
            }
        }
        assert_eq!(seen, PgRead::edge_count(&cg));
        // Edge labels and properties survive.
        let person = PgRead::nodes_with_label(&cg, "Student")[0];
        let e = cg.out_adjacency(person)[0];
        assert!(cg.edge_has_any_label(e, &["advisedBy".to_string()]));
        assert!(!cg.edge_has_any_label(e, &["worksFor".to_string()]));
        assert!(cg.edge_has_any_label(e, &[]));
        assert_eq!(cg.edge_prop_value(e, "since"), Some(Value::Year(2020)));
    }

    #[test]
    fn dictionary_deduplicates_repeated_strings() {
        let pg = sample();
        let cg = pg.freeze();
        // "Alice" appears twice but is stored once.
        assert!(cg.dict_encodes() > cg.dict_len() as u64);
        assert!(cg.dict_hit_rate() > 0.0);
        assert!(cg.dict_size_bytes() > 0);
    }

    #[test]
    fn compact_is_smaller_than_mutable_on_redundant_graphs() {
        let mut pg = PropertyGraph::new();
        let ids: Vec<NodeId> = (0..2000)
            .map(|i| {
                let id = pg.add_node(["Person"]);
                pg.set_prop(id, IRI_KEY, Value::String(format!("http://ex/p{i}")));
                pg.set_prop(id, "city", Value::String(format!("City-{}", i % 10)));
                id
            })
            .collect();
        for (i, &id) in ids.iter().enumerate() {
            pg.add_edge(id, ids[(i + 1) % ids.len()], "knows");
        }
        let cg = pg.freeze();
        assert!(
            cg.deep_size_bytes() * 2 <= pg.deep_size_bytes(),
            "compact {} vs mutable {}",
            cg.deep_size_bytes(),
            pg.deep_size_bytes()
        );
    }

    #[test]
    fn probe_with_unknown_string_is_empty() {
        let pg = sample();
        let cg = pg.freeze();
        assert!(PgRead::nodes_with_label_prop(
            &cg,
            "Person",
            "name",
            &Value::String("never-interned".into())
        )
        .is_empty());
    }
}
