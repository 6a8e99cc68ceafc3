//! A skewed-degree workload for scheduler benchmarks.
//!
//! Uniform synthetic datasets ([`crate::spec`]) spread expansion work
//! evenly over the first pattern's candidates, so static contiguous
//! chunking parallelizes them fine. Real graphs do not look like that: a
//! handful of celebrity vertices own a large share of the edges, and a
//! scheduler that assigns candidates in contiguous chunks strands every
//! worker but the one that drew the hot chunk. This module generates that
//! adversarial shape deterministically:
//!
//! * one **hub** source vertex owns [`HUB_EDGE_SHARE`] (~30%) of all
//!   edges;
//! * four **warm** vertices own 10% each, spaced [`HOT_SPACING`] ids
//!   apart so they land in *different* 2048-id pieces of the candidate
//!   run (and, at the benchmark scales, in the same static chunk — the
//!   worst case for contiguous chunking);
//! * the remaining edges spread uniformly over the source tail.
//!
//! Every source has type `Source`, every target type `Target` plus an
//! integer `rank` property (the ORDER BY/LIMIT pushdown benchmarks sort
//! on it), and every edge uses the single `linksTo` predicate.

use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::Graph;

/// IRI namespace of the generated entities.
pub const NAMESPACE: &str = "http://skew.test/";
/// Class IRI of edge-owning source vertices.
pub const SOURCE_CLASS: &str = "http://skew.test/Source";
/// Class IRI of edge targets.
pub const TARGET_CLASS: &str = "http://skew.test/Target";
/// The single edge predicate.
pub const LINKS_TO: &str = "http://skew.test/linksTo";
/// Integer property carried by every target (sort key for top-K benches).
pub const RANK: &str = "http://skew.test/rank";

/// Fraction of all edges owned by the single hub vertex.
pub const HUB_EDGE_SHARE: f64 = 0.30;
/// Fraction of all edges owned by *each* of the warm vertices.
pub const WARM_EDGE_SHARE: f64 = 0.10;
/// Number of warm vertices.
pub const WARM_COUNT: usize = 4;

/// Id distance between consecutive hot vertices: far enough apart that
/// cutting the candidate run into pieces of up to 2048 ids puts each hot
/// vertex in its own piece, so a skewed graph does not hide its hot
/// vertices in one unit of work. The benchmark's skewed inputs are
/// generated with it, so it stays fixed.
pub const HOT_SPACING: usize = 2048;

/// Base source count at scale 1.
pub const BASE_SOURCES: usize = 4000;
/// Base target count at scale 1. Deliberately larger than the hub's edge
/// budget (`0.3 × 8 × BASE_SOURCES = 9600`): an RDF graph is a *set* of
/// triples, so a hub can only own as many distinct edges as there are
/// targets — with too few targets the hub's edges silently dedup away
/// and the skew this module exists to produce flattens out.
pub const BASE_TARGETS: usize = 12_000;
/// Edges per source on average (total edges = `8 × sources`).
pub const EDGES_PER_SOURCE: usize = 8;

/// A generated skewed graph plus the shape statistics the benchmark
/// artifact records.
#[derive(Debug)]
pub struct SkewedDataset {
    pub graph: Graph,
    /// Out-degree of the hub vertex.
    pub hub_degree: usize,
    /// Total `linksTo` edges.
    pub edges: usize,
}

impl SkewedDataset {
    /// The hub's realized share of all edges (sanity-checked by the
    /// benchmark gate).
    pub fn hub_edge_share(&self) -> f64 {
        self.hub_degree as f64 / self.edges.max(1) as f64
    }
}

/// Generate the skewed graph at a scale factor. Deterministic in the seed.
pub fn generate_skewed(scale: f64, seed: u64) -> SkewedDataset {
    let sources = ((BASE_SOURCES as f64 * scale).round() as usize).max(16);
    let targets = ((BASE_TARGETS as f64 * scale).round() as usize).max(4);
    let edges = sources * EDGES_PER_SOURCE;
    let mut rng = XorShiftRng::seed_from_u64(seed);
    let mut graph = Graph::with_capacity(sources + 2 * targets + edges);

    let source_iris: Vec<String> = (0..sources).map(|i| format!("{NAMESPACE}s{i}")).collect();
    let target_iris: Vec<String> = (0..targets).map(|i| format!("{NAMESPACE}t{i}")).collect();
    for iri in &source_iris {
        graph.insert_type(iri, SOURCE_CLASS);
    }
    for iri in &target_iris {
        graph.insert_type(iri, TARGET_CLASS);
        let s = graph.intern_iri(iri);
        let p = graph.intern(RANK);
        let o = graph.typed_literal(
            &rng.random_range(0..100_000i64).to_string(),
            s3pg_rdf::vocab::xsd::INTEGER,
        );
        graph.insert(s, p, o);
    }

    // Hot vertices: the hub at id 0, warm vertices one HOT_SPACING apart
    // (wrapped at small scales, where everything is sequential anyway).
    let hub = 0usize;
    let warm: Vec<usize> = (1..=WARM_COUNT)
        .map(|k| (k * HOT_SPACING) % sources)
        .collect();
    let hub_edges = (edges as f64 * HUB_EDGE_SHARE).round() as usize;
    let warm_edges = (edges as f64 * WARM_EDGE_SHARE).round() as usize;

    let links = graph.intern(LINKS_TO);
    // Hot-vertex edges go to *distinct* targets (round-robin from a
    // seeded offset): triples are a set, so drawing targets with
    // replacement would collapse a celebrity vertex's edges to at most
    // one per target and quietly destroy the degree skew. Distinctness
    // needs `hot edges ≤ targets`, which `BASE_TARGETS` guarantees at
    // every scale (the `.min(targets)` only bites at degenerate floors).
    let hub_edges = hub_edges.min(targets);
    let warm_edges = warm_edges.min(targets);
    let emit_distinct = |graph: &mut Graph, src: usize, count: usize, offset: usize| {
        let s = graph.intern_iri(&source_iris[src]);
        for j in 0..count {
            let o = graph.intern_iri(&target_iris[(offset + j) % targets]);
            graph.insert(s, links, o);
        }
    };
    let hub_degree = hub_edges;
    let mut emitted = 0usize;
    let offset = rng.random_range(0..targets);
    emit_distinct(&mut graph, hub, hub_edges, offset);
    emitted += hub_edges;
    for &w in &warm {
        let offset = rng.random_range(0..targets);
        emit_distinct(&mut graph, w, warm_edges, offset);
        emitted += warm_edges;
    }
    // Uniform tail over the cold sources: ~1–2 random edges per source,
    // so with-replacement collisions are negligible there.
    while emitted < edges {
        let src = rng.random_range(0..sources);
        if src == hub || warm.contains(&src) {
            continue;
        }
        let s = graph.intern_iri(&source_iris[src]);
        let o = graph.intern_iri(&target_iris[rng.random_range(0..targets)]);
        graph.insert(s, links, o);
        emitted += 1;
    }

    SkewedDataset {
        graph,
        hub_degree,
        edges,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = generate_skewed(1.0, 0xD1CE);
        let b = generate_skewed(1.0, 0xD1CE);
        assert_eq!(a.graph.len(), b.graph.len());
        assert!(a.graph.same_triples(&b.graph));
        assert_eq!(a.hub_degree, b.hub_degree);
    }

    #[test]
    fn hub_owns_about_thirty_percent_of_edges() {
        let d = generate_skewed(1.0, 0xD1CE);
        let share = d.hub_edge_share();
        // Exactly hub_edges plus whatever the uniform tail adds.
        assert!(
            (0.29..0.35).contains(&share),
            "hub share {share} outside expected band"
        );
    }

    #[test]
    fn scale_multiplies_sources_and_edges() {
        let small = generate_skewed(1.0, 1);
        let big = generate_skewed(10.0, 1);
        assert_eq!(small.edges, BASE_SOURCES * EDGES_PER_SOURCE);
        assert_eq!(big.edges, 10 * BASE_SOURCES * EDGES_PER_SOURCE);
        assert!(big.graph.len() > small.graph.len());
    }

    #[test]
    fn warm_vertices_are_spaced_morsels_apart() {
        let d = generate_skewed(10.0, 2);
        let sources = 10 * BASE_SOURCES;
        // At scale 10 no wrap occurs: warm ids are 2048, 4096, 6144, 8192.
        for k in 1..=WARM_COUNT {
            assert!(k * HOT_SPACING < sources);
        }
        // All hot vertices carry real out-edges.
        let links = d.graph.interner().get(LINKS_TO).unwrap();
        for id in [0, HOT_SPACING, 2 * HOT_SPACING] {
            let iri = format!("{NAMESPACE}s{id}");
            let s = d.graph.interner().get(&iri).unwrap();
            let degree = d
                .graph
                .match_pattern(Some(s3pg_rdf::Term::Iri(s)), Some(links), None)
                .len();
            assert!(degree > 0, "hot vertex {iri} has no edges");
        }
    }
}
