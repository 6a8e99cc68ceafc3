//! The indexed, set-semantics RDF triple store (Definition 2.1).
//!
//! A [`Graph`] owns its [`Interner`] and stores triples append-only in a
//! log with a tombstone vector for deletion. Beside the log sit the
//! membership table — open-addressed `(hash tag, log index)` slots, the
//! triples themselves stay in the log — and postings by subject, by
//! predicate and by object, so that the pattern-matching primitives used by
//! the SPARQL engine, the SHACL validator/extractor, and Algorithm 1 of the
//! paper are all index lookups rather than scans. A posting list is a chain
//! threaded through one `next` array parallel to the log: each key maps to
//! its chain's head, tail and length, and every statement carries the log
//! index of the next statement with the same subject, the same predicate
//! and the same object. Inserting therefore allocates nothing, walking a
//! chain visits statements in insertion order, cloning the store copies a
//! handful of flat arrays and dropping it frees them.

use crate::fxhash::{FxHashMap, FxHashSet, FxHasher};
use crate::interner::{Interner, Sym};
use crate::table::{finish_tag, Probe, TagTable};
use crate::term::{Literal, Term};
use crate::vocab;
use std::collections::hash_map::Entry;
use std::hash::Hash;

/// A single `<subject, predicate, object>` statement.
///
/// The predicate is stored as a bare [`Sym`] because predicates are always
/// IRIs (Definition 2.1: `E ⊂ (I ∪ B) × I × (I ∪ B ∪ L)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Triple {
    pub s: Term,
    pub p: Sym,
    pub o: Term,
}

/// End of a chain in [`Graph::next`].
const NIL: u32 = u32::MAX;

/// Which link of a [`Graph::next`] entry a chain follows.
const SUBJECT: usize = 0;
const PREDICATE: usize = 1;
const OBJECT: usize = 2;

/// One posting list: the log indexes of the statements that share a
/// subject, predicate or object, linked in insertion order. `len` counts
/// tombstoned statements too.
#[derive(Debug, Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
    len: u32,
}

/// Where [`Graph::matches`] reads its candidates: one chain, or a run of
/// the log (the whole log for a full scan, one entry for a membership
/// probe).
enum Walk {
    Chain { at: u32, position: usize },
    Log { at: usize, end: usize },
}

impl Walk {
    fn chain(chain: Option<&Chain>, position: usize) -> Walk {
        Walk::Chain {
            at: chain.map_or(NIL, |c| c.head),
            position,
        }
    }

    /// The next candidate's log index, live or not.
    #[inline]
    fn step(&mut self, next: &[[u32; 3]]) -> Option<usize> {
        match self {
            Walk::Chain { at, position } => (*at != NIL).then(|| {
                let i = *at as usize;
                *at = next[i][*position];
                i
            }),
            Walk::Log { at, end } => (*at < *end).then(|| {
                *at += 1;
                *at - 1
            }),
        }
    }
}

/// The membership table's tag for a triple.
#[inline]
fn tag_of(t: &Triple) -> u32 {
    let mut h = FxHasher::default();
    t.hash(&mut h);
    finish_tag(&h)
}

/// Append log index `idx` to `key`'s chain.
#[inline]
fn link<K: Hash + Eq>(
    chains: &mut FxHashMap<K, Chain>,
    next: &mut [[u32; 3]],
    position: usize,
    key: K,
    idx: u32,
) {
    match chains.entry(key) {
        Entry::Occupied(mut entry) => {
            let chain = entry.get_mut();
            next[chain.tail as usize][position] = idx;
            chain.tail = idx;
            chain.len += 1;
        }
        Entry::Vacant(entry) => {
            entry.insert(Chain {
                head: idx,
                tail: idx,
                len: 1,
            });
        }
    }
}

/// An in-memory RDF graph with set semantics and postings by subject,
/// predicate and object.
#[derive(Debug, Default, Clone)]
pub struct Graph {
    interner: Interner,
    /// The log: every statement ever inserted, in insertion order.
    triples: Vec<Triple>,
    /// `live[i]` is false once log entry `i` has been removed.
    live: Vec<bool>,
    /// `next[i]` is the log index of the next statement with entry `i`'s
    /// subject, predicate and object ([`NIL`] at a chain's end).
    next: Vec<[u32; 3]>,
    /// Triple → its latest log index, live or not.
    table: TagTable,
    by_subject: FxHashMap<Term, Chain>,
    by_predicate: FxHashMap<Sym, Chain>,
    by_object: FxHashMap<Term, Chain>,
    len: usize,
    type_predicate: Option<Sym>,
}

impl Graph {
    /// Create an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a graph sized for roughly `triples` statements.
    pub fn with_capacity(triples: usize) -> Self {
        Self {
            interner: Interner::with_capacity(triples / 2),
            triples: Vec::with_capacity(triples),
            live: Vec::with_capacity(triples),
            next: Vec::with_capacity(triples),
            table: TagTable::with_capacity(triples),
            by_subject: FxHashMap::default(),
            by_predicate: FxHashMap::default(),
            by_object: FxHashMap::default(),
            len: 0,
            type_predicate: None,
        }
    }

    // ---- interning -------------------------------------------------------

    /// Intern an arbitrary string.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.interner.intern(s)
    }

    /// Resolve a symbol to its string.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// Borrow the underlying interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    /// The interner, for the N-Triples reader to intern a chunk's tokens
    /// ahead of indexing its statements.
    pub(crate) fn interner_mut(&mut self) -> &mut Interner {
        &mut self.interner
    }

    /// Intern an IRI and wrap it as a [`Term`].
    pub fn intern_iri(&mut self, iri: &str) -> Term {
        Term::Iri(self.interner.intern(iri))
    }

    /// Intern a blank-node label and wrap it as a [`Term`].
    pub fn intern_blank(&mut self, label: &str) -> Term {
        Term::Blank(self.interner.intern(label))
    }

    /// Build a typed literal term.
    pub fn typed_literal(&mut self, lexical: &str, datatype: &str) -> Term {
        Term::Literal(Literal {
            lexical: self.interner.intern(lexical),
            datatype: self.interner.intern(datatype),
            lang: None,
        })
    }

    /// Build an `xsd:string` literal term.
    pub fn string_literal(&mut self, lexical: &str) -> Term {
        self.typed_literal(lexical, vocab::xsd::STRING)
    }

    /// Build an `xsd:integer` literal term.
    pub fn integer_literal(&mut self, value: i64) -> Term {
        self.typed_literal(&value.to_string(), vocab::xsd::INTEGER)
    }

    /// Build a language-tagged `rdf:langString` literal term.
    pub fn lang_literal(&mut self, lexical: &str, lang: &str) -> Term {
        Term::Literal(Literal {
            lexical: self.interner.intern(lexical),
            datatype: self.interner.intern(vocab::rdf::LANG_STRING),
            lang: Some(self.interner.intern(lang)),
        })
    }

    /// The interned `rdf:type` predicate symbol.
    pub fn type_predicate(&mut self) -> Sym {
        match self.type_predicate {
            Some(p) => p,
            None => {
                let p = self.interner.intern(vocab::rdf::TYPE);
                self.type_predicate = Some(p);
                p
            }
        }
    }

    /// The `rdf:type` symbol if it has ever been interned (read-only variant).
    pub fn type_predicate_opt(&self) -> Option<Sym> {
        self.type_predicate
            .or_else(|| self.interner.get(vocab::rdf::TYPE))
    }

    // ---- mutation --------------------------------------------------------

    /// Insert a triple; returns `true` if it was not already present.
    ///
    /// # Panics
    /// Panics (in debug builds) if `s` is a literal, which Definition 2.1
    /// forbids in subject position.
    pub fn insert(&mut self, s: Term, p: impl IntoPredicate, o: Term) -> bool {
        debug_assert!(s.is_resource(), "literal in subject position");
        let p = p.into_predicate();
        self.insert_triple(Triple { s, p, o })
    }

    fn insert_triple(&mut self, t: Triple) -> bool {
        let tag = tag_of(&t);
        let probe = self.table.probe(tag, |i| self.triples[i as usize] == t);
        let idx = u32::try_from(self.triples.len()).expect("graph exceeds u32::MAX triples");
        match probe {
            Probe::Found(slot) if self.live[self.table.index_at(slot) as usize] => return false,
            // A statement coming back after its removal is appended like
            // any other and takes over the dead entry's slot.
            Probe::Found(slot) => self.table.set_index(slot, idx),
            Probe::Vacant(slot) => self.table.occupy(slot, tag, idx),
        }
        self.triples.push(t);
        self.live.push(true);
        self.next.push([NIL; 3]);
        link(&mut self.by_subject, &mut self.next, SUBJECT, t.s, idx);
        link(&mut self.by_predicate, &mut self.next, PREDICATE, t.p, idx);
        link(&mut self.by_object, &mut self.next, OBJECT, t.o, idx);
        self.len += 1;
        true
    }

    /// Insert every statement of `batch` in order; returns how many were
    /// not already present. The bulk path of the N-Triples reader and of
    /// [`Graph::absorb_remapped`]: the log and the membership table are
    /// sized once for the batch instead of doubling their way there.
    pub(crate) fn insert_batch(&mut self, batch: impl IntoIterator<Item = Triple>) -> usize {
        let batch = batch.into_iter();
        // A `Vec`'s length, or the length of another graph's log.
        let (lower, upper) = batch.size_hint();
        let expected = upper.unwrap_or(lower);
        self.triples.reserve(expected);
        self.live.reserve(expected);
        self.next.reserve(expected);
        self.table.reserve(expected);
        batch.filter(|&t| self.insert_triple(t)).count()
    }

    /// Convenience: insert a triple built from raw strings
    /// (`object_iri` interned as an IRI).
    pub fn insert_iri(&mut self, s: &str, p: &str, o: &str) -> bool {
        let s = self.intern_iri(s);
        let p = self.intern(p);
        let o = self.intern_iri(o);
        self.insert(s, p, o)
    }

    /// Convenience: insert an `rdf:type` triple from raw strings.
    pub fn insert_type(&mut self, entity: &str, class: &str) -> bool {
        let s = self.intern_iri(entity);
        let p = self.type_predicate();
        let o = self.intern_iri(class);
        self.insert(s, p, o)
    }

    /// Remove a triple; returns `true` if it was present.
    pub fn remove(&mut self, s: Term, p: impl IntoPredicate, o: Term) -> bool {
        let p = p.into_predicate();
        // Tombstone: the table and the chains keep the dead entry;
        // membership and iteration filter on `live`.
        match self.live_index(Triple { s, p, o }) {
            Some(idx) => {
                self.live[idx] = false;
                self.len -= 1;
                true
            }
            None => false,
        }
    }

    /// The log index of `t` if it is present.
    #[inline]
    fn live_index(&self, t: Triple) -> Option<usize> {
        match self
            .table
            .probe(tag_of(&t), |i| self.triples[i as usize] == t)
        {
            Probe::Found(slot) => {
                let idx = self.table.index_at(slot) as usize;
                self.live[idx].then_some(idx)
            }
            Probe::Vacant(_) => None,
        }
    }

    /// Absorb all triples of `other` into `self`, re-interning symbols.
    /// Returns the number of newly added triples.
    pub fn absorb(&mut self, other: &Graph) -> usize {
        let mut added = 0;
        for t in other.triples() {
            let s = self.import_term(other, t.s);
            let p = self.import_sym(other, t.p);
            let o = self.import_term(other, t.o);
            if self.insert(s, p, o) {
                added += 1;
            }
        }
        added
    }

    /// Absorb all triples of `other` using a precomputed interner remap
    /// table instead of per-term string lookups. Returns the number of
    /// newly added triples.
    ///
    /// This is the fast merge path of the parallel parser: the remap table
    /// costs one hash lookup per *distinct* string in `other`, after which
    /// every triple transfers with pure integer translation. Insertion
    /// order of `other` is preserved, so merging worker graphs in chunk
    /// order reproduces the sequential parse exactly.
    pub fn absorb_remapped(&mut self, other: &Graph) -> usize {
        let map = self.interner.merge_map(other.interner());
        let remap = |term: Term| -> Term {
            match term {
                Term::Iri(s) => Term::Iri(map[s.index()]),
                Term::Blank(s) => Term::Blank(map[s.index()]),
                Term::Literal(l) => Term::Literal(Literal {
                    lexical: map[l.lexical.index()],
                    datatype: map[l.datatype.index()],
                    lang: l.lang.map(|t| map[t.index()]),
                }),
            }
        };
        self.insert_batch(other.triples().map(|t| Triple {
            s: remap(t.s),
            p: map[t.p.index()],
            o: remap(t.o),
        }))
    }

    /// Re-intern a symbol from another graph's interner into this one.
    pub fn import_sym(&mut self, other: &Graph, sym: Sym) -> Sym {
        self.interner.intern(other.resolve(sym))
    }

    /// Re-intern a term from another graph's interner into this one.
    pub fn import_term(&mut self, other: &Graph, term: Term) -> Term {
        match term {
            Term::Iri(s) => Term::Iri(self.import_sym(other, s)),
            Term::Blank(s) => Term::Blank(self.import_sym(other, s)),
            Term::Literal(l) => Term::Literal(Literal {
                lexical: self.import_sym(other, l.lexical),
                datatype: self.import_sym(other, l.datatype),
                lang: l.lang.map(|t| self.import_sym(other, t)),
            }),
        }
    }

    // ---- queries ---------------------------------------------------------

    /// Number of (live) triples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the graph has no triples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Estimated resident heap footprint of the store: the interner, the
    /// triple log with its tombstone vector and chain links, the
    /// membership table, and the three key → chain maps. Feeds the
    /// `s3pg_mem_rdf_bytes` gauge.
    pub fn deep_size_bytes(&self) -> usize {
        use s3pg_obs::mem::{map_bytes, vec_bytes};
        self.interner.deep_size_bytes()
            + vec_bytes(&self.triples)
            + vec_bytes(&self.live)
            + vec_bytes(&self.next)
            + self.table.heap_bytes()
            + map_bytes::<Term, Chain>(self.by_subject.capacity())
            + map_bytes::<Sym, Chain>(self.by_predicate.capacity())
            + map_bytes::<Term, Chain>(self.by_object.capacity())
    }

    /// Membership test.
    pub fn contains(&self, s: Term, p: impl IntoPredicate, o: Term) -> bool {
        let p = p.into_predicate();
        self.live_index(Triple { s, p, o }).is_some()
    }

    /// Iterate over all live triples in insertion order.
    pub fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        self.triples
            .iter()
            .zip(self.live.iter())
            .filter_map(|(t, &alive)| alive.then_some(*t))
    }

    /// Match a triple pattern; `None` components are wildcards. The
    /// collected form of [`Graph::matches`].
    pub fn match_pattern(&self, s: Option<Term>, p: Option<Sym>, o: Option<Term>) -> Vec<Triple> {
        self.matches(s, p, o).collect()
    }

    /// The live statements matching a triple pattern (`None` components
    /// are wildcards), in insertion order, borrowed off the most selective
    /// index: one membership probe when all three positions are bound,
    /// else the subject's chain, the object's chain, the predicate's chain,
    /// or the whole log, in that order of preference.
    pub fn matches(
        &self,
        s: Option<Term>,
        p: Option<Sym>,
        o: Option<Term>,
    ) -> impl Iterator<Item = Triple> + '_ {
        let walk = match (s, o, p) {
            (Some(s), Some(o), Some(p)) => match self.live_index(Triple { s, p, o }) {
                Some(i) => Walk::Log { at: i, end: i + 1 },
                None => Walk::Log { at: 0, end: 0 },
            },
            (Some(s), _, _) => Walk::chain(self.by_subject.get(&s), SUBJECT),
            (None, Some(o), _) => Walk::chain(self.by_object.get(&o), OBJECT),
            (None, None, Some(p)) => Walk::chain(self.by_predicate.get(&p), PREDICATE),
            (None, None, None) => Walk::Log {
                at: 0,
                end: self.triples.len(),
            },
        };
        self.live(walk).filter(move |t| {
            s.is_none_or(|s| t.s == s) && p.is_none_or(|p| t.p == p) && o.is_none_or(|o| t.o == o)
        })
    }

    /// The live statements `walk` reaches, in its order.
    fn live(&self, mut walk: Walk) -> impl Iterator<Item = Triple> + '_ {
        std::iter::from_fn(move || {
            while let Some(i) = walk.step(&self.next) {
                if self.live[i] {
                    return Some(self.triples[i]);
                }
            }
            None
        })
    }

    /// The live statements with subject `s`, in insertion order, borrowed
    /// straight off the subject's chain: what both scans of Algorithm 1
    /// walk per entity, without the `Vec<Triple>` [`Graph::match_pattern`]
    /// collects.
    pub fn statements_of(&self, s: Term) -> impl Iterator<Item = Triple> + '_ {
        self.live(Walk::chain(self.by_subject.get(&s), SUBJECT))
    }

    /// Reference implementation of [`Graph::match_pattern`] that ignores
    /// the indexes and scans every live triple. Exists as the baseline for
    /// the index ablation (`benches/ablation.rs` in the bench crate) and as
    /// a differential-testing oracle; always returns the same multiset of
    /// triples as the indexed path.
    pub fn match_pattern_scan(
        &self,
        s: Option<Term>,
        p: Option<Sym>,
        o: Option<Term>,
    ) -> Vec<Triple> {
        self.triples()
            .filter(|t| {
                s.is_none_or(|s| t.s == s)
                    && p.is_none_or(|p| t.p == p)
                    && o.is_none_or(|o| t.o == o)
            })
            .collect()
    }

    /// Estimated number of candidate triples a pattern would scan; used by
    /// the SPARQL engine for greedy join ordering.
    pub fn pattern_cardinality(&self, s: Option<Term>, p: Option<Sym>, o: Option<Term>) -> usize {
        match (s, o, p) {
            (Some(s), _, _) => self.by_subject.get(&s).map_or(0, |c| c.len as usize),
            (None, Some(o), _) => self.by_object.get(&o).map_or(0, |c| c.len as usize),
            (None, None, Some(p)) => self.by_predicate.get(&p).map_or(0, |c| c.len as usize),
            (None, None, None) => self.triples.len(),
        }
    }

    /// All objects of `(s, p, ?)`.
    pub fn objects(&self, s: Term, p: Sym) -> Vec<Term> {
        self.match_pattern(Some(s), Some(p), None)
            .into_iter()
            .map(|t| t.o)
            .collect()
    }

    /// All subjects of `(?, p, o)`.
    pub fn subjects(&self, p: Sym, o: Term) -> Vec<Term> {
        self.match_pattern(None, Some(p), Some(o))
            .into_iter()
            .map(|t| t.s)
            .collect()
    }

    /// All `rdf:type` objects of `entity`.
    pub fn types_of(&self, entity: Term) -> Vec<Term> {
        match self.type_predicate_opt() {
            Some(p) => self.objects(entity, p),
            None => Vec::new(),
        }
    }

    /// All entities declared `rdf:type class`.
    pub fn instances_of(&self, class: Term) -> Vec<Term> {
        match self.type_predicate_opt() {
            Some(p) => self.subjects(p, class),
            None => Vec::new(),
        }
    }

    /// Distinct predicates present in the graph.
    pub fn predicates(&self) -> Vec<Sym> {
        let mut out: Vec<Sym> = self
            .by_predicate
            .iter()
            .filter(|(_, c)| self.live(Walk::chain(Some(c), PREDICATE)).next().is_some())
            .map(|(&p, _)| p)
            .collect();
        out.sort_unstable();
        out
    }

    /// Distinct subjects present in the graph.
    pub fn subjects_distinct(&self) -> Vec<Term> {
        let mut out: Vec<Term> = self
            .by_subject
            .iter()
            .filter(|(_, c)| self.live(Walk::chain(Some(c), SUBJECT)).next().is_some())
            .map(|(&s, _)| s)
            .collect();
        out.sort_unstable();
        out
    }

    /// Compute the transitive `rdfs:subClassOf` closure: for each class, the
    /// set of all its (direct and indirect) superclasses.
    ///
    /// Needed by the shape semantics of Definition 2.3 ("instance of `t` or
    /// of a subclass of `t`").
    pub fn subclass_closure(&self) -> FxHashMap<Term, FxHashSet<Term>> {
        let Some(sub) = self.interner.get(vocab::rdfs::SUB_CLASS_OF) else {
            return FxHashMap::default();
        };
        let mut direct: FxHashMap<Term, Vec<Term>> = FxHashMap::default();
        for t in self.match_pattern(None, Some(sub), None) {
            direct.entry(t.s).or_default().push(t.o);
        }
        let mut closure: FxHashMap<Term, FxHashSet<Term>> = FxHashMap::default();
        for &class in direct.keys() {
            let mut seen = FxHashSet::default();
            let mut stack = vec![class];
            while let Some(c) = stack.pop() {
                if let Some(supers) = direct.get(&c) {
                    for &sup in supers {
                        if seen.insert(sup) {
                            stack.push(sup);
                        }
                    }
                }
            }
            closure.insert(class, seen);
        }
        closure
    }

    /// Set difference: triples of `self` not present in `other`
    /// (compared by resolved string value, not raw symbols).
    pub fn difference(&self, other: &Graph) -> Graph {
        let mut delta = Graph::new();
        for t in self.triples() {
            let s = delta.import_term(self, t.s);
            let p = delta.import_sym(self, t.p);
            let o = delta.import_term(self, t.o);
            // Check membership in `other` by string value.
            if !other.contains_resolved(self, t) {
                delta.insert(s, p, o);
            }
        }
        delta
    }

    /// Whether `other_triple` (a triple of `other_graph`) is present in
    /// `self`, comparing by resolved strings.
    pub fn contains_resolved(&self, other_graph: &Graph, other_triple: Triple) -> bool {
        let Some(s) = self.lookup_term(other_graph, other_triple.s) else {
            return false;
        };
        let Some(p) = self.interner.get(other_graph.resolve(other_triple.p)) else {
            return false;
        };
        let Some(o) = self.lookup_term(other_graph, other_triple.o) else {
            return false;
        };
        self.live_index(Triple { s, p, o }).is_some()
    }

    fn lookup_term(&self, other: &Graph, term: Term) -> Option<Term> {
        Some(match term {
            Term::Iri(s) => Term::Iri(self.interner.get(other.resolve(s))?),
            Term::Blank(s) => Term::Blank(self.interner.get(other.resolve(s))?),
            Term::Literal(l) => Term::Literal(Literal {
                lexical: self.interner.get(other.resolve(l.lexical))?,
                datatype: self.interner.get(other.resolve(l.datatype))?,
                lang: match l.lang {
                    Some(t) => Some(self.interner.get(other.resolve(t))?),
                    None => None,
                },
            }),
        })
    }

    /// Graph isomorphism under string resolution (ignoring symbol identity).
    /// Blank nodes are compared by label, which suffices for our
    /// deterministic round-trip tests.
    pub fn same_triples(&self, other: &Graph) -> bool {
        self.len() == other.len() && self.triples().all(|t| other.contains_resolved(self, t))
    }
}

/// Accepts either a bare predicate symbol or an IRI `Term` where a predicate
/// is expected, so call sites can pass whichever they hold.
pub trait IntoPredicate {
    fn into_predicate(self) -> Sym;
}

impl IntoPredicate for Sym {
    #[inline]
    fn into_predicate(self) -> Sym {
        self
    }
}

impl IntoPredicate for Term {
    #[inline]
    fn into_predicate(self) -> Sym {
        match self {
            Term::Iri(s) => s,
            _ => panic!("predicate must be an IRI"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Graph {
        let mut g = Graph::new();
        g.insert_type("http://ex/bob", "http://ex/Student");
        g.insert_iri("http://ex/bob", "http://ex/advisedBy", "http://ex/alice");
        let s = g.intern_iri("http://ex/bob");
        let p = g.intern("http://ex/regNo");
        let o = g.string_literal("Bs12");
        g.insert(s, p, o);
        g
    }

    #[test]
    fn deep_size_covers_interner_and_indexes() {
        let g = tiny();
        let size = g.deep_size_bytes();
        assert!(size >= g.interner().deep_size_bytes());
        let mut bigger = g.clone();
        for n in 0..100 {
            bigger.insert_iri(
                &format!("http://ex/s{n}"),
                "http://ex/p",
                &format!("http://ex/o{n}"),
            );
        }
        assert!(bigger.deep_size_bytes() > size);
    }

    #[test]
    fn insert_is_set_semantics() {
        let mut g = Graph::new();
        assert!(g.insert_iri("http://ex/a", "http://ex/p", "http://ex/b"));
        assert!(!g.insert_iri("http://ex/a", "http://ex/p", "http://ex/b"));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn contains_and_len() {
        let g = tiny();
        assert_eq!(g.len(), 3);
        let s = g.interner().get("http://ex/bob").map(Term::Iri).unwrap();
        let p = g.interner().get(vocab::rdf::TYPE).unwrap();
        let o = g
            .interner()
            .get("http://ex/Student")
            .map(Term::Iri)
            .unwrap();
        assert!(g.contains(s, p, o));
    }

    #[test]
    fn remove_then_reinsert() {
        let mut g = Graph::new();
        let s = g.intern_iri("http://ex/a");
        let p = g.intern("http://ex/p");
        let o = g.intern_iri("http://ex/b");
        g.insert(s, p, o);
        assert!(g.remove(s, p, o));
        assert!(!g.remove(s, p, o));
        assert_eq!(g.len(), 0);
        assert!(!g.contains(s, p, o));
        assert!(g.insert(s, p, o));
        assert_eq!(g.len(), 1);
        assert_eq!(g.triples().count(), 1);
    }

    #[test]
    fn match_pattern_by_each_position() {
        let g = tiny();
        let bob = g.interner().get("http://ex/bob").map(Term::Iri).unwrap();
        assert_eq!(g.match_pattern(Some(bob), None, None).len(), 3);
        let type_p = g.interner().get(vocab::rdf::TYPE).unwrap();
        assert_eq!(g.match_pattern(None, Some(type_p), None).len(), 1);
        let alice = g.interner().get("http://ex/alice").map(Term::Iri).unwrap();
        assert_eq!(g.match_pattern(None, None, Some(alice)).len(), 1);
        assert_eq!(g.match_pattern(None, None, None).len(), 3);
    }

    #[test]
    fn statements_of_borrows_what_match_pattern_collects() {
        let mut g = tiny();
        let bob = g.interner().get("http://ex/bob").map(Term::Iri).unwrap();
        let adv = g.interner().get("http://ex/advisedBy").unwrap();
        let alice = g.interner().get("http://ex/alice").map(Term::Iri).unwrap();
        for s in [bob, alice] {
            let borrowed: Vec<Triple> = g.statements_of(s).collect();
            assert_eq!(borrowed, g.match_pattern(Some(s), None, None));
        }
        // Tombstones are skipped, order is insertion order.
        g.remove(bob, adv, alice);
        let borrowed: Vec<Triple> = g.statements_of(bob).collect();
        assert_eq!(borrowed, g.match_pattern(Some(bob), None, None));
        assert_eq!(borrowed.len(), 2);
    }

    #[test]
    fn match_pattern_fully_bound() {
        let g = tiny();
        let bob = g.interner().get("http://ex/bob").map(Term::Iri).unwrap();
        let adv = g.interner().get("http://ex/advisedBy").unwrap();
        let alice = g.interner().get("http://ex/alice").map(Term::Iri).unwrap();
        assert_eq!(g.match_pattern(Some(bob), Some(adv), Some(alice)).len(), 1);
        assert_eq!(g.match_pattern(Some(alice), Some(adv), Some(bob)).len(), 0);
    }

    #[test]
    fn objects_and_subjects() {
        let g = tiny();
        let bob = g.interner().get("http://ex/bob").map(Term::Iri).unwrap();
        let reg = g.interner().get("http://ex/regNo").unwrap();
        let objs = g.objects(bob, reg);
        assert_eq!(objs.len(), 1);
        assert!(objs[0].is_literal());
        let adv = g.interner().get("http://ex/advisedBy").unwrap();
        let alice = g.interner().get("http://ex/alice").map(Term::Iri).unwrap();
        assert_eq!(g.subjects(adv, alice), vec![bob]);
    }

    #[test]
    fn types_and_instances() {
        let g = tiny();
        let bob = g.interner().get("http://ex/bob").map(Term::Iri).unwrap();
        let student = g
            .interner()
            .get("http://ex/Student")
            .map(Term::Iri)
            .unwrap();
        assert_eq!(g.types_of(bob), vec![student]);
        assert_eq!(g.instances_of(student), vec![bob]);
    }

    #[test]
    fn absorb_reinterns_across_graphs() {
        let mut g1 = tiny();
        let mut g2 = Graph::new();
        g2.insert_iri("http://ex/carol", "http://ex/advisedBy", "http://ex/alice");
        // Different interners: symbols differ, strings matter.
        let added = g1.absorb(&g2);
        assert_eq!(added, 1);
        assert_eq!(g1.len(), 4);
        // Absorbing again adds nothing (set semantics by value).
        assert_eq!(g1.absorb(&g2), 0);
    }

    #[test]
    fn absorb_remapped_matches_absorb() {
        let mut g2 = Graph::new();
        g2.insert_iri("http://ex/carol", "http://ex/advisedBy", "http://ex/alice");
        g2.insert_type("http://ex/carol", "http://ex/Student");
        let s = g2.intern_iri("http://ex/carol");
        let p = g2.intern("http://ex/name");
        let o = g2.lang_literal("Carol", "en");
        g2.insert(s, p, o);
        let b = g2.intern_blank("b0");
        g2.insert(b, p, o);

        let mut via_absorb = tiny();
        via_absorb.absorb(&g2);
        let mut via_remap = tiny();
        let added = via_remap.absorb_remapped(&g2);
        assert_eq!(added, 4);
        assert!(via_absorb.same_triples(&via_remap));
        // Merging the same graph again is a no-op under set semantics.
        assert_eq!(via_remap.absorb_remapped(&g2), 0);
    }

    #[test]
    fn difference_and_same_triples() {
        let g1 = tiny();
        let mut g2 = tiny();
        g2.insert_iri("http://ex/extra", "http://ex/p", "http://ex/x");
        let delta = g2.difference(&g1);
        assert_eq!(delta.len(), 1);
        assert!(g1.difference(&g2).is_empty());
        assert!(!g1.same_triples(&g2));
        let mut g3 = Graph::new();
        g3.absorb(&g1);
        assert!(g1.same_triples(&g3));
    }

    #[test]
    fn subclass_closure_is_transitive() {
        let mut g = Graph::new();
        g.insert_iri(
            "http://ex/GS",
            vocab::rdfs::SUB_CLASS_OF,
            "http://ex/Student",
        );
        g.insert_iri(
            "http://ex/Student",
            vocab::rdfs::SUB_CLASS_OF,
            "http://ex/Person",
        );
        let closure = g.subclass_closure();
        let gs = g.interner().get("http://ex/GS").map(Term::Iri).unwrap();
        let person = g.interner().get("http://ex/Person").map(Term::Iri).unwrap();
        let student = g
            .interner()
            .get("http://ex/Student")
            .map(Term::Iri)
            .unwrap();
        let supers = &closure[&gs];
        assert!(supers.contains(&student));
        assert!(supers.contains(&person));
        assert_eq!(supers.len(), 2);
    }

    #[test]
    fn predicates_lists_distinct_live() {
        let mut g = tiny();
        assert_eq!(g.predicates().len(), 3);
        let bob = g.interner().get("http://ex/bob").map(Term::Iri).unwrap();
        let reg = g.interner().get("http://ex/regNo").unwrap();
        let lit = g.string_literal("Bs12");
        g.remove(bob, reg, lit);
        assert_eq!(g.predicates().len(), 2);
    }

    #[test]
    fn pattern_cardinality_matches_index_sizes() {
        let g = tiny();
        let bob = g.interner().get("http://ex/bob").map(Term::Iri).unwrap();
        assert_eq!(g.pattern_cardinality(Some(bob), None, None), 3);
        assert_eq!(g.pattern_cardinality(None, None, None), 3);
        let missing = Term::Iri(g.interner().get("http://ex/alice").unwrap());
        assert_eq!(g.pattern_cardinality(None, None, Some(missing)), 1);
    }
}
