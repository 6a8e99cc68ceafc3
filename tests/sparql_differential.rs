//! The SPARQL engine ≡ its planner-free oracle, `sparql::evaluate_scan`.
//!
//! The engine picks a join order by sampled selectivity, runs each FILTER
//! right after the step that binds its last variable and walks the
//! indexes; the oracle joins in textual order over full scans and filters
//! at the end. Their answers must agree:
//!
//! * as multisets of rows (a COUNT exactly);
//! * with ORDER BY, on the sequence of sort keys too;
//! * with a LIMIT or OFFSET, in size, and the engine's rows must be a
//!   sub-multiset of the oracle's answer without the cut (which rows
//!   survive a cut depends on the join order when nothing orders them).
//!
//! The corpus: every dataset generator's category queries, the two skew
//! join templates of the benchmark at thresholds that pass none, a few,
//! half and all rows, and a hand-written set over random graphs — filters
//! on OPTIONAL-only and unknown variables, `!` / `||` / `&&` across two
//! patterns, string, IRI and `NaN` comparisons, `$param` patterns, COUNT,
//! DISTINCT and OFFSET.

use s3pg_query::sparql::{self, Outcome, Params, PatternTerm, SelectQuery};
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::{Graph, Term};
use s3pg_workloads::bio2rdf::bio2rdf_ct;
use s3pg_workloads::dbpedia::{dbpedia2020, dbpedia2022};
use s3pg_workloads::{generate, generate_queries, generate_skewed, skew};

type Row = Vec<Option<Term>>;

fn sorted(rows: &[Row]) -> Vec<Row> {
    let mut rows = rows.to_vec();
    rows.sort();
    rows
}

/// Whether every row of `small` occurs in `big` at least as often.
fn sub_multiset(small: &[Row], big: &[Row]) -> bool {
    let mut big = sorted(big);
    small.iter().all(|row| match big.binary_search(row) {
        Ok(i) => {
            big.remove(i);
            true
        }
        Err(_) => false,
    })
}

fn assert_engine_is_oracle(graph: &Graph, query: &SelectQuery, params: &Params, context: &str) {
    let engine = sparql::evaluate_outcome_threads_params(graph, query, params, 1)
        .unwrap_or_else(|e| panic!("engine: {e}: {context}"));
    let oracle = sparql::evaluate_scan_params(graph, query, params)
        .unwrap_or_else(|e| panic!("oracle: {e}: {context}"));
    let (engine, oracle) = match (engine, oracle) {
        (Outcome::Solutions(e), Outcome::Solutions(o)) => (e, o),
        (e, o) => {
            assert_eq!(e, o, "{context}");
            return;
        }
    };
    assert_eq!(engine.vars, oracle.vars, "{context}");
    assert_eq!(engine.rows.len(), oracle.rows.len(), "size: {context}");
    if let Some((var, _)) = &query.order_by {
        let k = engine
            .vars
            .iter()
            .position(|v| v == var)
            .unwrap_or_else(|| panic!("corpus sort key ?{var} is not projected: {context}"));
        let keys = |rows: &[Row]| rows.iter().map(|r| r[k]).collect::<Vec<_>>();
        assert_eq!(
            keys(&engine.rows),
            keys(&oracle.rows),
            "sort keys: {context}"
        );
    }
    if query.limit.is_none() && query.offset.is_none() {
        assert_eq!(sorted(&engine.rows), sorted(&oracle.rows), "{context}");
    } else {
        let mut uncut = query.clone();
        uncut.limit = None;
        uncut.offset = None;
        let Outcome::Solutions(all) = sparql::evaluate_scan_params(graph, &uncut, params).unwrap()
        else {
            unreachable!("a cut query has rows")
        };
        assert!(
            sub_multiset(&engine.rows, &all.rows),
            "engine rows outside the uncut answer: {context}"
        );
    }
}

fn check_text(graph: &Graph, text: &str, params: &Params, context: &str) {
    let query = sparql::parse(text).unwrap_or_else(|e| panic!("{e}: {text}"));
    assert_engine_is_oracle(graph, &query, params, &format!("{context}: {text}"));
}

#[test]
fn category_queries_of_every_generator() {
    for spec in [dbpedia2020(0.02), dbpedia2022(0.02), bio2rdf_ct(0.05)] {
        let name = spec.name.clone();
        let generated = generate(&spec);
        let queries = generate_queries(&generated.meta, 3);
        assert!(!queries.is_empty(), "{name}: no category queries");
        for q in &queries {
            check_text(&generated.graph, &q.sparql, &Params::default(), &name);
            // The same query cut, filtered and aggregated.
            let body = q.sparql.trim_end_matches('}');
            let limited = format!("{} LIMIT 7", q.sparql);
            let filtered = format!("{body} FILTER(isLiteral(?p) || ?e > \"http://\") }}");
            let counted = q
                .sparql
                .replacen("SELECT ?e ?p", "SELECT (COUNT(DISTINCT ?e) AS ?n)", 1);
            for text in [&limited, &filtered, &counted] {
                check_text(&generated.graph, text, &Params::default(), &name);
            }
        }
    }
}

/// The ranks of the skew graph's targets, ascending.
fn ranks(graph: &Graph) -> Vec<i64> {
    let rank = graph.interner().get(skew::RANK).unwrap();
    let mut ranks: Vec<i64> = graph
        .matches(None, Some(rank), None)
        .map(|t| match t.o {
            Term::Literal(l) => graph.resolve(l.lexical).parse().unwrap(),
            _ => unreachable!("ranks are literals"),
        })
        .collect();
    ranks.sort_unstable();
    ranks
}

/// Thresholds `FILTER(?r > k)` passes no, a few, half and all targets at.
fn thresholds(graph: &Graph) -> [i64; 4] {
    let ranks = ranks(graph);
    let n = ranks.len();
    [ranks[n - 1], ranks[n - 4], ranks[n / 2], ranks[0] - 1]
}

#[test]
fn skew_join_templates_at_every_selectivity() {
    let graph = generate_skewed(0.05, 0x5EED).graph;
    let (links, rank) = (skew::LINKS_TO, skew::RANK);
    let (source, target) = (skew::SOURCE_CLASS, skew::TARGET_CLASS);
    for k in thresholds(&graph) {
        for text in [
            format!("SELECT ?s ?r WHERE {{ ?s <{links}> ?t . ?t <{rank}> ?r . FILTER(?r > {k}) }}"),
            format!(
                "SELECT ?s ?t WHERE {{ ?s a <{source}> . ?s <{links}> ?t . ?t a <{target}> . ?t <{rank}> ?r . FILTER(?r > {k}) }}"
            ),
            format!(
                "SELECT ?s ?r WHERE {{ ?s <{links}> ?t . ?t <{rank}> ?r . FILTER(?r > {k}) }} ORDER BY DESC(?r) LIMIT 5"
            ),
            format!(
                "SELECT DISTINCT ?t ?r WHERE {{ ?s <{links}> ?t . ?t <{rank}> ?r . FILTER(?r <= {k} && ?s != \"{}s0\") }} ORDER BY ?r OFFSET 3",
                skew::NAMESPACE
            ),
            format!(
                "SELECT (COUNT(*) AS ?n) WHERE {{ ?s <{links}> ?t . ?t <{rank}> ?r . FILTER(!(?r > {k})) }}"
            ),
        ] {
            check_text(&graph, &text, &Params::default(), &format!("threshold {k}"));
        }
    }
}

/// A random graph over `http://d/`: ten entities, four predicates, and
/// objects that are entities, integers, numeric-looking and plain strings
/// and `NaN`, dense enough that a predicate's chain passes the sampler's
/// threshold.
fn random_graph(seed: u64) -> Graph {
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let mut g = Graph::new();
    for _ in 0..rng.random_range(150..400usize) {
        let s = g.intern_iri(&format!("http://d/e{}", rng.random_range(0..10usize)));
        let p = g.intern(&format!("http://d/p{}", rng.random_range(0..4usize)));
        let o = match rng.random_range(0..10usize) {
            0..=3 => g.intern_iri(&format!("http://d/e{}", rng.random_range(0..10usize))),
            4..=6 => g.integer_literal(rng.random_range(0..8i64)),
            7 => g.string_literal(&format!("{}.5", rng.random_range(0..8usize))),
            8 => g.string_literal(["abc", "lit", "B", ""][rng.random_range(0..4usize)]),
            _ => g.string_literal("NaN"),
        };
        g.insert(s, p, o);
    }
    g
}

const RANDOM_QUERIES: &[&str] = &[
    "SELECT ?s ?o WHERE { ?s <http://d/p0> ?o . FILTER(?o > 3) }",
    "SELECT ?s ?o ?v WHERE { ?s <http://d/p0> ?o . ?o <http://d/p1> ?v . FILTER(?v >= 2 && ?s != \"http://d/e1\") }",
    "SELECT ?s ?o ?v WHERE { ?s <http://d/p0> ?o . ?o <http://d/p1> ?v . FILTER(!(?v < 4) || isIRI(?v)) }",
    "SELECT ?s ?v WHERE { ?s <http://d/p2> ?o . ?o <http://d/p3> ?v . FILTER(!(?s = \"http://d/e2\")) . FILTER(?o < \"http://d/e5\") }",
    "SELECT ?s ?n WHERE { ?s <http://d/p0> ?o OPTIONAL { ?s <http://d/p2> ?n } FILTER(?n > 1) }",
    "SELECT ?s ?n WHERE { ?s <http://d/p0> ?o OPTIONAL { ?s <http://d/p2> ?n } FILTER(!(?n > 1)) }",
    "SELECT ?s ?n WHERE { ?s <http://d/p0> ?o OPTIONAL { ?o <http://d/p1> ?n } FILTER(?n > 1 || ?o > 2) }",
    "SELECT ?s WHERE { ?s <http://d/p0> ?o . FILTER(?ghost = 1) }",
    "SELECT ?s WHERE { ?s <http://d/p0> ?o . FILTER(!(?ghost = 1)) }",
    "SELECT ?s ?o WHERE { ?s <http://d/p1> ?o . FILTER(?o = NaN) }",
    "SELECT ?s ?o WHERE { ?s <http://d/p1> ?o . FILTER(?o != \"NaN\") }",
    "SELECT ?s ?o WHERE { ?s ?p ?o . FILTER(?o > \"lit\") }",
    "SELECT ?s ?o WHERE { ?s ?p ?o . FILTER(?o >= \"2.5\" && ?o < \"B\") }",
    "SELECT ?s ?o WHERE { ?s ?p ?o . FILTER(isLiteral(?o)) } LIMIT 4",
    "SELECT ?s ?o WHERE { ?s <http://d/p0> ?o . ?o <http://d/p0> ?s . FILTER(isIRI(?o)) }",
    "SELECT ?s WHERE { ?s ?p ?s . }",
    "SELECT DISTINCT ?s WHERE { ?s <http://d/p0> ?o . ?o <http://d/p1> ?v . FILTER(?v > 2) }",
    "SELECT (COUNT(*) AS ?n) WHERE { ?s <http://d/p0> ?o . ?o <http://d/p1> ?v . FILTER(?v > 2) }",
    "SELECT (COUNT(DISTINCT ?o) AS ?n) WHERE { ?s <http://d/p0> ?o . FILTER(isLiteral(?o)) }",
    "SELECT ?s ?v WHERE { ?s <http://d/p0> ?o . ?o <http://d/p1> ?v . FILTER(?v > 0) } ORDER BY ?v OFFSET 2",
    "SELECT ?s ?v WHERE { ?s <http://d/p3> ?v . FILTER(?v != 3) } ORDER BY DESC(?v) LIMIT 3 OFFSET 1",
    "SELECT * WHERE { ?a <http://d/p0> ?b . ?c <http://d/p1> ?d . FILTER(?b = 1 && ?d = 2) }",
];

#[test]
fn hand_written_filters_over_random_graphs() {
    for seed in 0..12u64 {
        let graph = random_graph(seed);
        for text in RANDOM_QUERIES {
            check_text(&graph, text, &Params::default(), &format!("seed {seed}"));
        }
    }
}

#[test]
fn parameterized_patterns_with_filters() {
    let text = "SELECT ?s ?v WHERE { ?s $p ?o . ?o <http://d/p1> ?v . FILTER(?v > 1) }";
    let typed = "SELECT ?s WHERE { ?s <http://d/p0> $o . ?s ?q ?v . FILTER(isLiteral(?v)) }";
    for seed in 0..6u64 {
        let graph = random_graph(100 + seed);
        for p in ["http://d/p0", "http://d/p2", "http://d/nowhere"] {
            let mut params = Params::default();
            params.insert("p".into(), PatternTerm::Iri(p.into()));
            check_text(&graph, text, &params, &format!("seed {seed} $p={p}"));
        }
        let mut params = Params::default();
        params.insert(
            "o".into(),
            PatternTerm::Literal {
                lexical: "3".into(),
                datatype: Some(s3pg_rdf::vocab::xsd::INTEGER.into()),
            },
        );
        check_text(&graph, typed, &params, &format!("seed {seed} $o=3"));
    }
}

/// A filter on an OPTIONAL-only variable runs after the left join: the
/// row the OPTIONAL leaves unbound passes `!(?n > 1)`, so a filter pushed
/// below the OPTIONAL (or onto the required group) would lose it.
#[test]
fn optional_only_filter_keeps_unbound_rows() {
    let mut graph = Graph::new();
    graph.insert_iri("http://d/e0", "http://d/p0", "http://d/e1");
    graph.insert_iri("http://d/e1", "http://d/p0", "http://d/e2");
    let (e0, p2, five) = (
        graph.intern_iri("http://d/e0"),
        graph.intern("http://d/p2"),
        graph.integer_literal(5),
    );
    graph.insert(e0, p2, five);
    let text = "SELECT ?s ?n WHERE { ?s <http://d/p0> ?o OPTIONAL { ?s <http://d/p2> ?n } FILTER(!(?n > 1)) }";
    let e1 = graph.interner().get("http://d/e1").map(Term::Iri);
    let expected = vec![vec![e1, None]];
    let q = sparql::parse(text).unwrap();
    for outcome in [
        sparql::evaluate_outcome(&graph, &q).unwrap(),
        sparql::evaluate_scan(&graph, &q).unwrap(),
    ] {
        let Outcome::Solutions(s) = outcome else {
            panic!("{outcome:?}")
        };
        assert_eq!(s.rows, expected);
    }
}
