//! Randomized tests for the RDF substrate: serializer/parser round-trips
//! over arbitrary graphs, set semantics, index/scan equivalence (the
//! differential oracle for the index ablation), and the store against a
//! naive log-and-tombstones model under random mutation.
//!
//! Formerly proptest suites; now driven by the in-tree deterministic
//! [`XorShiftRng`] so the offline build needs no external registry crates.
//! Each `#[test]` loops over a fixed set of seeds; a failure message always
//! includes the seed, which reproduces the case exactly.

use s3pg_rdf::parser::parse_ntriples;
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::serializer::to_ntriples;
use s3pg_rdf::{vocab, Graph, Sym, Term, Triple};

/// Characters that stress literal escaping: printable ASCII plus non-ASCII
/// and the escape-sensitive backslash/quote/newline/tab.
fn lexical(rng: &mut XorShiftRng) -> String {
    const EXTRA: &[char] = &['ä', 'ö', 'ü', '€', '\\', '"', '\n', '\t'];
    let len = rng.random_range(0..25usize);
    (0..len)
        .map(|_| {
            if rng.random_bool(0.25) {
                EXTRA[rng.random_range(0..EXTRA.len())]
            } else {
                rng.random_range(0x20u32..0x7f) as u8 as char
            }
        })
        .collect()
}

fn iri(rng: &mut XorShiftRng) -> String {
    const POOL: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_/";
    let len = rng.random_range(1..17usize);
    let local: String = (0..len)
        .map(|_| POOL[rng.random_range(0..POOL.len())] as char)
        .collect();
    format!("http://ex.org/{local}")
}

fn blank_label(rng: &mut XorShiftRng) -> String {
    let mut s = String::new();
    s.push(rng.random_range(b'a'..b'z' + 1) as char);
    for _ in 0..rng.random_range(0..9usize) {
        if rng.random_bool(0.3) {
            s.push(rng.random_range(b'0'..b'9' + 1) as char);
        } else {
            s.push(rng.random_range(b'a'..b'z' + 1) as char);
        }
    }
    s
}

fn lang_tag(rng: &mut XorShiftRng) -> String {
    let mut s = String::new();
    s.push(rng.random_range(b'a'..b'z' + 1) as char);
    s.push(rng.random_range(b'a'..b'z' + 1) as char);
    if rng.random_bool(0.5) {
        s.push('-');
        s.push(rng.random_range(b'A'..b'Z' + 1) as char);
        s.push(rng.random_range(b'A'..b'Z' + 1) as char);
    }
    s
}

#[derive(Debug, Clone)]
enum ArbObject {
    Iri(String),
    Blank(String),
    PlainLiteral(String),
    TypedLiteral(String, u8),
    LangLiteral(String, String),
}

fn arb_object(rng: &mut XorShiftRng) -> ArbObject {
    match rng.random_range(0..5u8) {
        0 => ArbObject::Iri(iri(rng)),
        1 => ArbObject::Blank(blank_label(rng)),
        2 => ArbObject::PlainLiteral(lexical(rng)),
        3 => ArbObject::TypedLiteral(lexical(rng), rng.random_range(0..4u8)),
        _ => {
            let lex = lexical(rng);
            let tag = lang_tag(rng);
            ArbObject::LangLiteral(lex, tag)
        }
    }
}

fn datatype(ix: u8) -> &'static str {
    match ix {
        0 => vocab::xsd::INTEGER,
        1 => vocab::xsd::DATE,
        2 => vocab::xsd::G_YEAR,
        _ => "http://custom.example.org/datatype",
    }
}

fn arb_triples(rng: &mut XorShiftRng, min: usize, max: usize) -> Vec<(String, String, ArbObject)> {
    let n = rng.random_range(min..max);
    (0..n)
        .map(|_| (iri(rng), iri(rng), arb_object(rng)))
        .collect()
}

fn build_graph(triples: &[(String, String, ArbObject)]) -> Graph {
    let mut g = Graph::new();
    for (s, p, o) in triples {
        let s = g.intern_iri(s);
        let p = g.intern(p);
        let o = match o {
            ArbObject::Iri(iri) => g.intern_iri(iri),
            ArbObject::Blank(label) => g.intern_blank(label),
            ArbObject::PlainLiteral(lex) => g.string_literal(lex),
            ArbObject::TypedLiteral(lex, d) => g.typed_literal(lex, datatype(*d)),
            ArbObject::LangLiteral(lex, tag) => g.lang_literal(lex, tag),
        };
        g.insert(s, p, o);
    }
    g
}

const CASES: u64 = 64;

/// N-Triples serialization round-trips arbitrary graphs exactly.
#[test]
fn ntriples_roundtrip() {
    for seed in 0..CASES {
        let mut rng = XorShiftRng::seed_from_u64(seed);
        let triples = arb_triples(&mut rng, 0, 40);
        let g = build_graph(&triples);
        let text = to_ntriples(&g);
        let back = parse_ntriples(&text).unwrap();
        assert_eq!(back.len(), g.len(), "seed {seed}");
        assert!(back.same_triples(&g), "seed {seed}");
    }
}

/// Insertion is idempotent (set semantics) and `len` tracks it.
#[test]
fn set_semantics() {
    for seed in 0..CASES {
        let mut rng = XorShiftRng::seed_from_u64(1_000 + seed);
        let triples = arb_triples(&mut rng, 0, 30);
        let g1 = build_graph(&triples);
        let mut doubled = triples.clone();
        doubled.extend(triples.iter().cloned());
        let g2 = build_graph(&doubled);
        assert_eq!(g1.len(), g2.len(), "seed {seed}");
        assert!(g1.same_triples(&g2), "seed {seed}");
    }
}

/// The indexed pattern matcher agrees with the full-scan oracle for every
/// pattern shape (all 8 bound/unbound masks over s/p/o).
#[test]
fn index_matches_scan() {
    for seed in 0..CASES {
        let mut rng = XorShiftRng::seed_from_u64(2_000 + seed);
        let triples = arb_triples(&mut rng, 1, 30);
        let probe = rng.random_range(0..30usize);
        let g = build_graph(&triples);
        let all: Vec<_> = g.triples().collect();
        let t = all[probe % all.len()];
        for mask in 0u8..8 {
            let s = (mask & 1 != 0).then_some(t.s);
            let p = (mask & 2 != 0).then_some(t.p);
            let o = (mask & 4 != 0).then_some(t.o);
            let mut indexed = g.match_pattern(s, p, o);
            let mut scanned = g.match_pattern_scan(s, p, o);
            indexed.sort_unstable();
            scanned.sort_unstable();
            assert_eq!(indexed, scanned, "seed {seed} mask {mask}");
        }
    }
}

/// Removal then re-insertion restores the graph.
#[test]
fn remove_reinsert() {
    for seed in 0..CASES {
        let mut rng = XorShiftRng::seed_from_u64(3_000 + seed);
        let triples = arb_triples(&mut rng, 1, 20);
        let victim = rng.random_range(0..20usize);
        let mut g = build_graph(&triples);
        let all: Vec<_> = g.triples().collect();
        let t = all[victim % all.len()];
        let before = g.len();
        assert!(g.remove(t.s, t.p, t.o), "seed {seed}");
        assert_eq!(g.len(), before - 1, "seed {seed}");
        assert!(!g.contains(t.s, t.p, t.o), "seed {seed}");
        assert!(g.insert(t.s, t.p, t.o), "seed {seed}");
        assert_eq!(g.len(), before, "seed {seed}");
        // Indexes stay coherent after the tombstone round-trip.
        assert_eq!(
            g.match_pattern(Some(t.s), Some(t.p), Some(t.o)).len(),
            1,
            "seed {seed}"
        );
    }
}

/// `absorb` is idempotent and value-based.
#[test]
fn absorb_idempotent() {
    for seed in 0..CASES {
        let mut rng = XorShiftRng::seed_from_u64(4_000 + seed);
        let a = arb_triples(&mut rng, 0, 15);
        let b = arb_triples(&mut rng, 0, 15);
        let ga = build_graph(&a);
        let gb = build_graph(&b);
        let mut merged = Graph::new();
        merged.absorb(&ga);
        merged.absorb(&gb);
        let before = merged.len();
        assert_eq!(merged.absorb(&ga), 0, "seed {seed}");
        assert_eq!(merged.absorb(&gb), 0, "seed {seed}");
        assert_eq!(merged.len(), before, "seed {seed}");
        // Every source triple is present.
        for t in ga.triples() {
            assert!(merged.contains_resolved(&ga, t), "seed {seed}");
        }
    }
}

#[test]
fn scan_and_index_agree_on_wildcard() {
    let mut g = Graph::new();
    g.insert_iri("http://ex/a", "http://ex/p", "http://ex/b");
    g.insert_iri("http://ex/b", "http://ex/p", "http://ex/c");
    let a = Term::Iri(g.interner().get("http://ex/a").unwrap());
    assert_eq!(
        g.match_pattern(Some(a), None, None),
        g.match_pattern_scan(Some(a), None, None)
    );
    assert_eq!(g.match_pattern(None, None, None).len(), 2);
}

/// The store as its documentation describes it and nothing more: the log
/// and the tombstones, every question answered by a scan.
#[derive(Clone, Default)]
struct Model {
    log: Vec<Triple>,
    live: Vec<bool>,
}

fn matches(t: &Triple, s: Option<Term>, p: Option<Sym>, o: Option<Term>) -> bool {
    s.is_none_or(|s| t.s == s) && p.is_none_or(|p| t.p == p) && o.is_none_or(|o| t.o == o)
}

impl Model {
    fn position(&self, t: Triple) -> Option<usize> {
        (0..self.log.len()).find(|&i| self.live[i] && self.log[i] == t)
    }

    fn insert(&mut self, t: Triple) -> bool {
        let fresh = self.position(t).is_none();
        if fresh {
            self.log.push(t);
            self.live.push(true);
        }
        fresh
    }

    fn remove(&mut self, t: Triple) -> bool {
        let at = self.position(t);
        if let Some(i) = at {
            self.live[i] = false;
        }
        at.is_some()
    }

    fn triples(&self) -> impl Iterator<Item = Triple> + '_ {
        (0..self.log.len())
            .filter(|&i| self.live[i])
            .map(|i| self.log[i])
    }

    fn match_pattern(&self, s: Option<Term>, p: Option<Sym>, o: Option<Term>) -> Vec<Triple> {
        self.triples().filter(|t| matches(t, s, p, o)).collect()
    }

    /// Entries, dead ones included, of the postings the store would pick:
    /// the subject's, else the object's, else the predicate's, else the log.
    fn pattern_cardinality(&self, s: Option<Term>, p: Option<Sym>, o: Option<Term>) -> usize {
        let (s, p, o) = match (s, o, p) {
            (Some(s), _, _) => (Some(s), None, None),
            (None, Some(o), _) => (None, None, Some(o)),
            (None, None, p) => (None, p, None),
        };
        self.log.iter().filter(|t| matches(t, s, p, o)).count()
    }
}

/// Everything a caller can ask the store, against the model.
fn assert_store_is_model(g: &Graph, m: &Model, terms: &Pools, context: &str) {
    let live: Vec<Triple> = m.triples().collect();
    assert_eq!(g.len(), live.len(), "len, {context}");
    assert_eq!(g.is_empty(), live.is_empty(), "is_empty, {context}");
    assert_eq!(g.triples().collect::<Vec<_>>(), live, "triples, {context}");
    let mut predicates: Vec<Sym> = live.iter().map(|t| t.p).collect();
    predicates.sort_unstable();
    predicates.dedup();
    assert_eq!(g.predicates(), predicates, "predicates, {context}");
    let mut subjects: Vec<Term> = live.iter().map(|t| t.s).collect();
    subjects.sort_unstable();
    subjects.dedup();
    assert_eq!(
        g.subjects_distinct(),
        subjects,
        "subjects_distinct, {context}"
    );
    for &s in &terms.subjects {
        assert_eq!(
            g.statements_of(s).collect::<Vec<_>>(),
            m.match_pattern(Some(s), None, None),
            "statements_of, {context}"
        );
    }
    // Every binding shape, over patterns that hit and patterns that miss.
    for (i, &s) in terms.subjects.iter().enumerate() {
        let p = terms.predicates[i % terms.predicates.len()];
        for &o in terms.objects.iter().skip(i % 3).step_by(3) {
            for mask in 0u8..8 {
                let s = (mask & 1 != 0).then_some(s);
                let p = (mask & 2 != 0).then_some(p);
                let o = (mask & 4 != 0).then_some(o);
                let expected = m.match_pattern(s, p, o);
                assert_eq!(
                    g.match_pattern(s, p, o),
                    expected,
                    "match_pattern {mask}, {context}"
                );
                assert_eq!(
                    g.match_pattern_scan(s, p, o),
                    expected,
                    "scan {mask}, {context}"
                );
                assert_eq!(
                    g.matches(s, p, o).collect::<Vec<_>>(),
                    expected,
                    "matches {mask}, {context}"
                );
                assert_eq!(
                    g.pattern_cardinality(s, p, o),
                    m.pattern_cardinality(s, p, o),
                    "pattern_cardinality {mask}, {context}"
                );
            }
            let t = Triple { s, p, o };
            assert_eq!(
                g.contains(s, p, o),
                live.contains(&t),
                "contains, {context}"
            );
        }
    }
}

/// The terms the random operations draw from, interned in the store under
/// test (clones of it share the numbering).
struct Pools {
    subjects: Vec<Term>,
    predicates: Vec<Sym>,
    objects: Vec<Term>,
}

impl Pools {
    fn new(g: &mut Graph) -> Pools {
        let mut subjects: Vec<Term> = (0..10)
            .map(|i| g.intern_iri(&format!("http://ex.org/s{i}")))
            .collect();
        subjects.push(g.intern_blank("b0"));
        subjects.push(g.intern_blank("b1"));
        let predicates = (0..5)
            .map(|i| g.intern(&format!("http://ex.org/p{i}")))
            .collect();
        let mut objects = subjects.clone();
        for i in 0..4 {
            objects.push(g.string_literal(&format!("v{i}")));
            objects.push(g.integer_literal(i));
            objects.push(g.lang_literal(&format!("v{i}"), "en"));
        }
        Pools {
            subjects,
            predicates,
            objects,
        }
    }

    fn triple(&self, rng: &mut XorShiftRng) -> Triple {
        Triple {
            s: self.subjects[rng.random_range(0..self.subjects.len())],
            p: self.predicates[rng.random_range(0..self.predicates.len())],
            o: self.objects[rng.random_range(0..self.objects.len())],
        }
    }
}

/// One random mutation applied to the store and the model alike.
fn mutate(g: &mut Graph, m: &mut Model, terms: &Pools, rng: &mut XorShiftRng, context: &str) {
    match rng.random_range(0..10u8) {
        // Insert: fresh, duplicate, or the return of a removed statement.
        0..=5 => {
            let t = terms.triple(rng);
            assert_eq!(g.insert(t.s, t.p, t.o), m.insert(t), "insert, {context}");
        }
        // Remove something drawn the same way: present about half the time.
        6..=7 => {
            let t = terms.triple(rng);
            assert_eq!(g.remove(t.s, t.p, t.o), m.remove(t), "remove, {context}");
        }
        // Remove a statement known to be live, then perhaps put it back.
        8 => {
            let live: Vec<Triple> = m.triples().collect();
            if let Some(i) = rng.choose_index(live.len()) {
                let t = live[i];
                assert!(
                    g.remove(t.s, t.p, t.o) && m.remove(t),
                    "remove live, {context}"
                );
                assert!(!g.remove(t.s, t.p, t.o), "remove twice, {context}");
                if rng.random_bool(0.5) {
                    assert!(
                        g.insert(t.s, t.p, t.o) && m.insert(t),
                        "re-insert, {context}"
                    );
                }
            }
        }
        // Absorb a graph with its own numbering; both merge paths must
        // add exactly what the model adds, in the other graph's order.
        _ => {
            let mut other = Graph::new();
            for _ in 0..rng.random_range(1..40usize) {
                let t = terms.triple(rng);
                let (s, p, o) = (
                    other.import_term(g, t.s),
                    other.import_sym(g, t.p),
                    other.import_term(g, t.o),
                );
                other.insert(s, p, o);
                if rng.random_bool(0.1) {
                    other.remove(s, p, o);
                }
            }
            let mut expected = 0;
            for t in other.triples() {
                let t = Triple {
                    s: g.import_term(&other, t.s),
                    p: g.import_sym(&other, t.p),
                    o: g.import_term(&other, t.o),
                };
                expected += m.insert(t) as usize;
            }
            let added = if rng.random_bool(0.5) {
                g.absorb(&other)
            } else {
                g.absorb_remapped(&other)
            };
            assert_eq!(added, expected, "absorb, {context}");
        }
    }
}

/// The store ≡ the naive model under random insert / remove / re-insert /
/// absorb, through several growths of its tables, and a clone diverges
/// from its original without either disturbing the other.
#[test]
fn store_matches_naive_model() {
    for seed in 0..4u64 {
        let mut rng = XorShiftRng::seed_from_u64(5_000 + seed);
        let mut g = Graph::new();
        let terms = Pools::new(&mut g);
        let mut m = Model::default();
        let mut fork: Option<(Graph, Model)> = None;
        for step in 0..1_000 {
            let context = format!("seed {seed} step {step}");
            mutate(&mut g, &mut m, &terms, &mut rng, &context);
            if let Some((fg, fm)) = &mut fork {
                mutate(fg, fm, &terms, &mut rng, &format!("{context} (fork)"));
            }
            if step % 250 == 100 {
                assert_store_is_model(&g, &m, &terms, &context);
                if let Some((fg, fm)) = &fork {
                    assert_store_is_model(fg, fm, &terms, &format!("{context} (fork)"));
                    let sorted = |m: &Model| {
                        let mut live: Vec<Triple> = m.triples().collect();
                        live.sort_unstable();
                        live
                    };
                    assert_eq!(
                        g.same_triples(fg),
                        sorted(&m) == sorted(fm),
                        "same_triples, {context}"
                    );
                }
                fork = Some((g.clone(), m.clone()));
                let (fg, _) = fork.as_ref().unwrap();
                assert!(
                    g.same_triples(fg) && fg.same_triples(&g),
                    "clone, {context}"
                );
            }
        }
        // Over a thousand log entries: the membership table has doubled
        // eight times on the way, the log's vectors about as often.
        assert!(
            m.log.len() > 1_000,
            "seed {seed}: {} log entries",
            m.log.len()
        );
        assert_store_is_model(&g, &m, &terms, &format!("seed {seed} at the end"));
    }
}

/// The borrowed walk ≡ the full scan after every step of a random insert /
/// remove / re-insert churn: same statements in the same (log) order as
/// `match_pattern` collects, for all 8 masks — among them the membership
/// probe a fully bound pattern takes, over tombstoned and revived entries.
#[test]
fn matches_is_scan_under_churn() {
    for seed in 0..CASES {
        let mut rng = XorShiftRng::seed_from_u64(6_000 + seed);
        let mut g = Graph::new();
        let terms = Pools::new(&mut g);
        let mut removed: Vec<Triple> = Vec::new();
        for step in 0..200 {
            match rng.random_range(0..4u8) {
                0 | 1 => {
                    let t = terms.triple(&mut rng);
                    g.insert(t.s, t.p, t.o);
                }
                2 => {
                    let t = terms.triple(&mut rng);
                    if g.remove(t.s, t.p, t.o) {
                        removed.push(t);
                    }
                }
                _ => {
                    if let Some(i) = rng.choose_index(removed.len()) {
                        let t = removed.swap_remove(i);
                        g.insert(t.s, t.p, t.o);
                    }
                }
            }
            let t = terms.triple(&mut rng);
            for mask in 0u8..8 {
                let s = (mask & 1 != 0).then_some(t.s);
                let p = (mask & 2 != 0).then_some(t.p);
                let o = (mask & 4 != 0).then_some(t.o);
                let walked: Vec<Triple> = g.matches(s, p, o).collect();
                let context = format!("seed {seed} step {step} mask {mask}");
                assert_eq!(walked, g.match_pattern_scan(s, p, o), "{context}");
                assert_eq!(walked, g.match_pattern(s, p, o), "{context}");
            }
        }
    }
}
