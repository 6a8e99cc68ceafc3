//! String interning.
//!
//! Every IRI, blank-node label, literal lexical form, datatype IRI, and
//! language tag is interned once into an [`Interner`] and referred to by a
//! 4-byte [`Sym`]. This makes [`crate::Term`] `Copy` and triple comparison an
//! integer comparison, which is the main reason the two-pass data
//! transformation of the paper (Algorithm 1) streams through hundreds of
//! millions of triples within memory limits.
//!
//! The interner holds one copy of each string: all of them back to back in
//! one buffer, a vector of end offsets that turns a [`Sym`] into its slice,
//! and an open-addressed `(hash tag, Sym)` table that turns a string into
//! its [`Sym`]. Cloning it is three `memcpy`s and dropping it three frees,
//! whatever the number of strings.

use crate::fxhash::FxHasher;
use crate::table::{finish_tag, Probe, TagTable};
use std::fmt;
use std::hash::Hasher;

/// An interned string symbol. Only meaningful relative to the [`Interner`]
/// that produced it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Sym(pub(crate) u32);

impl Sym {
    /// Raw index of this symbol in its interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Reconstruct a symbol from a raw index previously obtained from
    /// [`Sym::index`]. The caller must guarantee the index belongs to the
    /// same interner.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Sym(u32::try_from(index).expect("interner overflow: more than u32::MAX symbols"))
    }
}

impl fmt::Display for Sym {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// An append-only string interner.
///
/// Strings are stored once; lookups by string and by symbol are both O(1).
#[derive(Debug, Default, Clone)]
pub struct Interner {
    /// Every interned string, back to back in interning order.
    data: String,
    /// `ends[i]` is where string `i` ends in `data` (and string `i + 1`
    /// begins). Byte offsets are `usize`, so an input at the paper's
    /// Table 4 scale does not overflow them.
    ends: Vec<usize>,
    /// String → symbol index.
    table: TagTable,
}

/// The 32-bit tag of a string in the lookup table.
#[inline]
fn tag_of(s: &str) -> u32 {
    let mut h = FxHasher::default();
    h.write(s.as_bytes());
    finish_tag(&h)
}

impl Interner {
    /// Create an empty interner.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create an interner sized for roughly `cap` distinct strings.
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            data: String::new(),
            ends: Vec::with_capacity(cap),
            table: TagTable::with_capacity(cap),
        }
    }

    #[inline]
    fn probe(&self, tag: u32, s: &str) -> Probe {
        self.table
            .probe(tag, |i| self.resolve(Sym(i)).as_bytes() == s.as_bytes())
    }

    /// Intern `s`, returning its symbol. Idempotent.
    pub fn intern(&mut self, s: &str) -> Sym {
        let tag = tag_of(s);
        match self.probe(tag, s) {
            Probe::Found(slot) => Sym(self.table.index_at(slot)),
            Probe::Vacant(slot) => {
                let sym = Sym::from_index(self.ends.len());
                self.data.push_str(s);
                self.ends.push(self.data.len());
                self.table.occupy(slot, tag, sym.0);
                sym
            }
        }
    }

    /// Resolve a symbol back to its string.
    ///
    /// # Panics
    /// Panics if `sym` was not produced by this interner.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        let i = sym.index();
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.data[start..self.ends[i]]
    }

    /// Look up a string without interning it.
    pub fn get(&self, s: &str) -> Option<Sym> {
        match self.probe(tag_of(s), s) {
            Probe::Found(slot) => Some(Sym(self.table.index_at(slot))),
            Probe::Vacant(_) => None,
        }
    }

    /// Number of distinct strings interned.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the interner holds no strings.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Total bytes of interned string data (used by dataset statistics).
    pub fn string_bytes(&self) -> usize {
        self.data.len()
    }

    /// Estimated resident heap footprint: the string buffer, the offset
    /// vector and the lookup table's slot array, each at its capacity.
    /// Feeds the `s3pg_mem_*` gauges.
    pub fn deep_size_bytes(&self) -> usize {
        self.data.capacity() + s3pg_obs::mem::vec_bytes(&self.ends) + self.table.heap_bytes()
    }

    /// Merge every string of `other` into `self` and return the remap table:
    /// entry `i` is the symbol in `self` for the string `other` interned as
    /// symbol index `i`.
    ///
    /// This is the merge step of the parallel parser: each worker interns
    /// into a private interner, and the deltas are folded into the global
    /// interner with exactly one hash lookup per *distinct* worker string.
    pub fn merge_map(&mut self, other: &Interner) -> Vec<Sym> {
        other.iter().map(|(_, s)| self.intern(s)).collect()
    }

    /// Iterate over all `(Sym, &str)` pairs in interning order.
    pub fn iter(&self) -> impl Iterator<Item = (Sym, &str)> {
        let mut start = 0;
        self.ends.iter().enumerate().map(move |(i, &end)| {
            let s = &self.data[start..end];
            start = end;
            (Sym::from_index(i), s)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_is_idempotent() {
        let mut i = Interner::new();
        let a = i.intern("http://example.org/a");
        let b = i.intern("http://example.org/a");
        assert_eq!(a, b);
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn resolve_roundtrips() {
        let mut i = Interner::new();
        let syms: Vec<Sym> = (0..100).map(|n| i.intern(&format!("s{n}"))).collect();
        for (n, sym) in syms.iter().enumerate() {
            assert_eq!(i.resolve(*sym), format!("s{n}"));
        }
    }

    #[test]
    fn distinct_strings_get_distinct_syms() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let b = i.intern("b");
        assert_ne!(a, b);
    }

    #[test]
    fn get_does_not_intern() {
        let mut i = Interner::new();
        assert_eq!(i.get("missing"), None);
        let s = i.intern("present");
        assert_eq!(i.get("present"), Some(s));
        assert_eq!(i.len(), 1);
    }

    #[test]
    fn string_bytes_counts_data() {
        let mut i = Interner::new();
        i.intern("abcd");
        i.intern("ef");
        assert_eq!(i.string_bytes(), 6);
    }

    #[test]
    fn deep_size_grows_with_content() {
        let mut i = Interner::new();
        assert_eq!(i.deep_size_bytes(), 0);
        i.intern("http://example.org/quite-a-long-iri");
        let small = i.deep_size_bytes();
        assert!(small >= i.string_bytes());
        for n in 0..100 {
            i.intern(&format!("http://example.org/entity/{n}"));
        }
        assert!(i.deep_size_bytes() > small);
    }

    #[test]
    fn merge_map_translates_symbols() {
        let mut global = Interner::new();
        let shared = global.intern("shared");
        let mut worker = Interner::new();
        let w_new = worker.intern("worker-only");
        let w_shared = worker.intern("shared");
        let map = global.merge_map(&worker);
        assert_eq!(map.len(), worker.len());
        assert_eq!(map[w_shared.index()], shared);
        assert_eq!(global.resolve(map[w_new.index()]), "worker-only");
        // Merging again is idempotent: no new symbols appear.
        let before = global.len();
        assert_eq!(global.merge_map(&worker), map);
        assert_eq!(global.len(), before);
    }

    #[test]
    fn get_on_an_empty_interner_finds_nothing() {
        let i = Interner::new();
        assert_eq!(i.get(""), None);
        assert_eq!(i.get("http://example.org/a"), None);
        assert!(i.is_empty());
        assert_eq!(i.iter().count(), 0);
    }

    #[test]
    fn the_empty_string_is_a_string() {
        let mut i = Interner::new();
        let a = i.intern("a");
        let empty = i.intern("");
        assert_ne!(a, empty);
        assert_eq!(i.intern(""), empty);
        assert_eq!(i.get(""), Some(empty));
        assert_eq!(i.resolve(empty), "");
        assert_eq!(i.resolve(a), "a");
    }

    #[test]
    fn every_sym_survives_table_growth() {
        // 8 → 16 → … → 8192 slots: ten doublings, checked at each.
        let mut i = Interner::new();
        let mut syms = Vec::new();
        for n in 0..3000usize {
            let before = i.table.heap_bytes();
            syms.push(i.intern(&format!("http://example.org/resource/{n}")));
            if i.table.heap_bytes() != before {
                for (m, &sym) in syms.iter().enumerate() {
                    let s = format!("http://example.org/resource/{m}");
                    assert_eq!(i.resolve(sym), s, "after growth at n={n}");
                    assert_eq!(i.get(&s), Some(sym), "after growth at n={n}");
                }
            }
        }
        assert_eq!(i.len(), 3000);
        assert!(i.table.heap_bytes() >= 8 * 8 * 8);
        assert!(i.deep_size_bytes() >= i.string_bytes());
    }

    #[test]
    fn strings_sharing_a_tag_stay_distinct() {
        // 300k strings into 2^32 tags: about ten colliding pairs expected.
        let mut by_tag: std::collections::HashMap<u32, String> = Default::default();
        let mut pairs = Vec::new();
        for n in 0..300_000u32 {
            let s = format!("s{n}");
            if let Some(other) = by_tag.insert(tag_of(&s), s.clone()) {
                pairs.push((other, s));
            }
        }
        assert!(!pairs.is_empty(), "no two of 300k strings share a tag");
        let mut i = Interner::new();
        for (a, b) in &pairs {
            assert_eq!(tag_of(a), tag_of(b));
            let (sa, sb) = (i.intern(a), i.intern(b));
            assert_ne!(sa, sb, "{a} and {b}");
            assert_eq!((i.resolve(sa), i.resolve(sb)), (a.as_str(), b.as_str()));
            assert_eq!((i.get(a), i.get(b)), (Some(sa), Some(sb)));
            assert_eq!((i.intern(a), i.intern(b)), (sa, sb));
        }
        assert_eq!(i.len(), 2 * pairs.len());
    }

    #[test]
    fn iter_yields_in_order() {
        let mut i = Interner::new();
        i.intern("x");
        i.intern("y");
        i.intern("");
        i.intern("x");
        i.intern("zed");
        let pairs: Vec<_> = i.iter().map(|(s, t)| (s.index(), t)).collect();
        assert_eq!(pairs, vec![(0, "x"), (1, "y"), (2, ""), (3, "zed")]);
    }
}
