//! Server-side query plan cache.
//!
//! Serving workloads repeat a small set of query shapes over and over, so
//! the per-request parse + plan cost is pure overhead after the first
//! issue. The cache keys on *normalized query text* (whitespace collapsed,
//! endpoint-prefixed so a Cypher and a SPARQL query can never collide) and
//! stores the parsed AST — including parse *errors*, so a repeatedly
//! malformed query doesn't re-run the parser either.
//!
//! Parameterized queries are what make the cache effective across users:
//! `WHERE n.iri = $iri` is one cache entry no matter how many distinct
//! values bind `$iri`, because plans are value-free — index probes carry a
//! parameter *slot* resolved at evaluation time (see
//! [`s3pg_query::cypher`]). Literal-text queries that differ only in an
//! embedded constant each occupy (and miss) their own entry.
//!
//! Cypher entries additionally carry the cardinality-based
//! [`CypherPlan`], which depends on the graph's statistics and is
//! therefore tagged with the snapshot **epoch** it was computed against
//! (see [`crate::store::Snapshot::epoch`]). When an update publishes a new
//! snapshot the epoch advances and the next lookup *replans* from the
//! cached AST — much cheaper than a reparse, and deliberately **not** a
//! miss: the entry was found and its parse reused, so the lookup counts a
//! hit and the replan lands on its own counter. SPARQL orders its patterns
//! inside evaluation (the ordering is a pure function of the graph probed
//! at run time), so its entries cache only the AST.
//!
//! A hit skips the `query_plan` span entirely: repeat queries show
//! `request → execute → query_eval` with no planning child, which
//! `tests/observability.rs` asserts. Accounting is per listener — the
//! JSON and Bolt front ends share one cache but report
//! `s3pg_plan_cache_{hits,misses,replans}_total{listener="..."}`
//! separately, so each wire protocol's cache effectiveness is visible on
//! its own.

use s3pg_obs::{Counter, Registry};
use s3pg_pg::PgRead;
use s3pg_query::cypher::{self, CypherPlan, CypherQuery};
use s3pg_query::sparql::SelectQuery;
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// Entries retained before the cache flushes itself. Serving workloads
/// have a few dozen distinct query shapes; the bound only guards against
/// an adversarial stream of unique texts growing memory without limit.
const DEFAULT_CAPACITY: usize = 1024;

/// The listeners the cache meters. The first entry is the fallback for
/// unknown labels.
pub const LISTENERS: [&str; 2] = ["json", "bolt"];

/// One cached query: the parse outcome for its endpoint.
pub enum CachedEntry {
    /// A Cypher query (or its parse error message, verbatim).
    Cypher(Result<CachedCypher, String>),
    /// A SPARQL query (or its parse error message, verbatim).
    Sparql(Result<CachedSparql, String>),
}

/// A parsed Cypher query plus its epoch-tagged plan.
pub struct CachedCypher {
    pub ast: Arc<CypherQuery>,
    /// Every `$name` the query references, computed once at parse time so
    /// per-request parameter validation never re-walks the AST.
    pub params: BTreeSet<String>,
    /// `(epoch, plan)` the plan was computed against. Replaced (not
    /// accumulated) when the snapshot epoch moves on.
    plan: Mutex<(u64, Arc<CypherPlan>)>,
}

/// A parsed SPARQL query plus its referenced parameter names.
pub struct CachedSparql {
    pub ast: Arc<SelectQuery>,
    /// Every `$name` the query references (see [`CachedCypher::params`]).
    pub params: BTreeSet<String>,
}

impl CachedSparql {
    pub fn new(ast: Arc<SelectQuery>) -> CachedSparql {
        let params = s3pg_query::sparql::param_names(&ast);
        CachedSparql { ast, params }
    }
}

impl CachedCypher {
    pub fn new(ast: Arc<CypherQuery>, epoch: u64, plan: Arc<CypherPlan>) -> CachedCypher {
        let params = cypher::param_names(&ast);
        CachedCypher {
            ast,
            params,
            plan: Mutex::new((epoch, plan)),
        }
    }

    /// The plan for `epoch`, replanning from the cached AST if the cached
    /// one was computed against an older snapshot. Generic over the graph
    /// representation: plans are a pure function of cardinality statistics,
    /// which the mutable and compact forms of one snapshot share — so a
    /// plan computed against either serves both under the same epoch.
    pub fn plan_for<G: PgRead>(&self, pg: &G, epoch: u64, replans: &Counter) -> Arc<CypherPlan> {
        let mut guard = self.plan.lock().unwrap_or_else(|e| e.into_inner());
        if guard.0 != epoch {
            replans.inc();
            *guard = (epoch, Arc::new(cypher::plan(pg, &self.ast)));
        }
        Arc::clone(&guard.1)
    }
}

/// Hit/miss/replan counter handles for one listener label.
struct ListenerCounters {
    hits: Arc<Counter>,
    misses: Arc<Counter>,
    replans: Arc<Counter>,
}

/// Normalized-text → parsed-entry map shared by all server workers (and
/// all listeners — a query planned through JSON is a hit over Bolt).
pub struct PlanCache {
    entries: Mutex<HashMap<String, Arc<CachedEntry>>>,
    capacity: usize,
    listeners: Vec<(&'static str, ListenerCounters)>,
}

impl PlanCache {
    /// A cache whose per-listener hit/miss/replan counters live on
    /// `registry`.
    pub fn new(registry: &Registry) -> PlanCache {
        PlanCache {
            entries: Mutex::new(HashMap::new()),
            capacity: DEFAULT_CAPACITY,
            listeners: LISTENERS
                .iter()
                .map(|&listener| {
                    let series = |family: &str| format!("{family}{{listener=\"{listener}\"}}");
                    (
                        listener,
                        ListenerCounters {
                            hits: registry.counter(&series("s3pg_plan_cache_hits_total")),
                            misses: registry.counter(&series("s3pg_plan_cache_misses_total")),
                            replans: registry.counter(&series("s3pg_plan_cache_replans_total")),
                        },
                    )
                })
                .collect(),
        }
    }

    fn counters(&self, listener: &str) -> &ListenerCounters {
        self.listeners
            .iter()
            .find(|(name, _)| *name == listener)
            .map(|(_, c)| c)
            .unwrap_or(&self.listeners[0].1)
    }

    /// The cache key: endpoint-prefixed, whitespace-normalized query text.
    /// Collapsing runs of whitespace makes trivially reformatted queries
    /// (extra spaces, newlines) share one entry; no deeper canonicalization
    /// is attempted. Parameter *values* never reach the key — that is the
    /// point of parameterization.
    pub fn key(endpoint: &str, query: &str) -> String {
        let mut key = String::with_capacity(endpoint.len() + 1 + query.len());
        key.push_str(endpoint);
        key.push('\u{0}');
        let mut first = true;
        for word in query.split_whitespace() {
            if !first {
                key.push(' ');
            }
            key.push_str(word);
            first = false;
        }
        key
    }

    /// Look up a query on behalf of `listener`. `Some` counts a hit,
    /// `None` a miss — the caller is expected to parse/plan and
    /// [`insert`](PlanCache::insert).
    pub fn lookup(&self, listener: &str, endpoint: &str, query: &str) -> Option<Arc<CachedEntry>> {
        let key = PlanCache::key(endpoint, query);
        let counters = self.counters(listener);
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        match entries.get(&key) {
            Some(entry) => {
                counters.hits.inc();
                Some(Arc::clone(entry))
            }
            None => {
                counters.misses.inc();
                None
            }
        }
    }

    /// Insert the parse outcome for a query. At capacity the whole map is
    /// flushed — O(1) amortized, and correct because entries are pure
    /// functions of the text (plans re-validate via their epoch anyway).
    pub fn insert(&self, endpoint: &str, query: &str, entry: Arc<CachedEntry>) {
        let key = PlanCache::key(endpoint, query);
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        if entries.len() >= self.capacity && !entries.contains_key(&key) {
            entries.clear();
        }
        entries.insert(key, entry);
    }

    /// Counter handle for `listener`'s epoch-mismatch replans (used by
    /// [`CachedCypher::plan_for`]). A replan reuses the cached parse, so
    /// it rides on a *hit* — never a miss.
    pub fn replan_counter(&self, listener: &str) -> &Counter {
        &self.counters(listener).replans
    }

    /// Cached entry count (tests/introspection).
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3pg_pg::PropertyGraph;

    fn cache() -> (Arc<Registry>, PlanCache) {
        let registry = Arc::new(Registry::new());
        let cache = PlanCache::new(&registry);
        (registry, cache)
    }

    #[test]
    fn key_normalizes_whitespace_and_separates_endpoints() {
        assert_eq!(
            PlanCache::key("cypher", "MATCH  (n)\n RETURN n"),
            "cypher\u{0}MATCH (n) RETURN n"
        );
        assert_ne!(
            PlanCache::key("cypher", "MATCH (n) RETURN n"),
            PlanCache::key("sparql", "MATCH (n) RETURN n")
        );
    }

    #[test]
    fn lookup_counts_hits_and_misses_per_listener() {
        let (registry, cache) = cache();
        assert!(cache
            .lookup("json", "cypher", "MATCH (n) RETURN n")
            .is_none());
        cache.insert(
            "cypher",
            "MATCH (n) RETURN n",
            Arc::new(CachedEntry::Cypher(Err("nope".into()))),
        );
        // Differently spaced text resolves to the same entry, and an entry
        // inserted through one listener is a hit on the other.
        assert!(cache
            .lookup("json", "cypher", "MATCH  (n)  RETURN  n")
            .is_some());
        assert!(cache
            .lookup("bolt", "cypher", "MATCH (n) RETURN n")
            .is_some());
        let series = |family: &str, listener: &str| {
            registry
                .counter(&format!("{family}{{listener=\"{listener}\"}}"))
                .get()
        };
        assert_eq!(series("s3pg_plan_cache_hits_total", "json"), 1);
        assert_eq!(series("s3pg_plan_cache_misses_total", "json"), 1);
        assert_eq!(series("s3pg_plan_cache_hits_total", "bolt"), 1);
        assert_eq!(series("s3pg_plan_cache_misses_total", "bolt"), 0);
    }

    #[test]
    fn unknown_listener_falls_back_to_first_label() {
        let (registry, cache) = cache();
        assert!(cache.lookup("??", "cypher", "MATCH (n) RETURN n").is_none());
        assert_eq!(
            registry
                .counter("s3pg_plan_cache_misses_total{listener=\"json\"}")
                .get(),
            1
        );
    }

    #[test]
    fn epoch_mismatch_replans_from_ast_without_counting_a_miss() {
        let (registry, cache) = cache();
        let pg = PropertyGraph::new();
        let ast = Arc::new(cypher::parse("MATCH (n:Person) RETURN n").unwrap());
        let plan = Arc::new(cypher::plan(&pg, &ast));
        let cached = CachedCypher::new(Arc::clone(&ast), 0, plan);
        let replans = registry.counter("s3pg_plan_cache_replans_total{listener=\"json\"}");
        cached.plan_for(&pg, 0, cache.replan_counter("json"));
        assert_eq!(replans.get(), 0);
        cached.plan_for(&pg, 1, cache.replan_counter("json"));
        cached.plan_for(&pg, 1, cache.replan_counter("json"));
        assert_eq!(replans.get(), 1);
        assert_eq!(
            registry
                .counter("s3pg_plan_cache_misses_total{listener=\"json\"}")
                .get(),
            0
        );
    }

    #[test]
    fn cached_entries_precompute_param_names() {
        let ast = Arc::new(
            cypher::parse("MATCH (n:Person) WHERE n.iri = $iri AND n.age = $age RETURN n").unwrap(),
        );
        let pg = PropertyGraph::new();
        let plan = Arc::new(cypher::plan(&pg, &ast));
        let cached = CachedCypher::new(ast, 0, plan);
        let names: Vec<&str> = cached.params.iter().map(String::as_str).collect();
        assert_eq!(names, ["age", "iri"]);

        let ast = Arc::new(s3pg_query::sparql::parse("SELECT ?s WHERE { ?s ?p $o }").unwrap());
        let cached = CachedSparql::new(ast);
        let names: Vec<&str> = cached.params.iter().map(String::as_str).collect();
        assert_eq!(names, ["o"]);
    }

    #[test]
    fn capacity_flushes_instead_of_growing() {
        let (_registry, cache) = cache();
        for i in 0..DEFAULT_CAPACITY {
            cache.insert(
                "cypher",
                &format!("MATCH (n{i}) RETURN n{i}"),
                Arc::new(CachedEntry::Cypher(Err("x".into()))),
            );
        }
        assert_eq!(cache.len(), DEFAULT_CAPACITY);
        cache.insert(
            "cypher",
            "MATCH (overflow) RETURN overflow",
            Arc::new(CachedEntry::Cypher(Err("x".into()))),
        );
        assert_eq!(cache.len(), 1);
    }
}
