//! Everything the program under test is given, made from `--seed`: the
//! graph as N-Triples text, its shapes as SHACL Turtle, and the delta
//! stream of `mixed`. The server only ever sees these as files and
//! request bytes.

use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::serializer::to_ntriples;
use s3pg_rdf::{Graph, Term};
use s3pg_shacl::serializer::to_turtle;
use s3pg_workloads::dbpedia::dbpedia2022;
use s3pg_workloads::spec::{DatasetSpec, GeneratedDataset};
use s3pg_workloads::{generate, generate_skewed};

/// `G(s)`: the DBpedia2022 emulation at scale `s` unioned with the skewed
/// hub graph at scale `s / 10` (so the hub's degree grows with the graph).
///
/// The graph is the same under every `--seed`; the seed drives what is
/// asked of it — which entities are looked up, the order of every
/// schedule, which instances the delta stream clones. Both generators
/// draw *structure* from their seed (the emulation its class hierarchy,
/// datatypes and targets; the skew generator its wiring), and structure
/// moves cost: across ten emulation seeds a conformance check varied
/// 1.8x and `convert` 31%, across ten skew seeds the SPARQL joins 16%.
/// Runs under different seeds would not be runs of the same workload.
pub struct Inputs {
    pub spec: DatasetSpec,
    pub dataset: GeneratedDataset,
    pub ntriples: String,
    pub shacl: String,
}

impl Inputs {
    pub fn triples(&self) -> usize {
        self.dataset.graph.len()
    }
}

/// The skew generator's seed (the emulation keeps the one in its spec).
const SKEW_SEED: u64 = 0xD1CE;

pub fn generate_inputs(scale: f64) -> Inputs {
    let spec = dbpedia2022(scale);
    let mut dataset = generate(&spec);
    dataset
        .graph
        .absorb(&generate_skewed(scale / 10.0, SKEW_SEED).graph);
    let shapes = s3pg_shacl::extract_shapes(&dataset.graph);
    Inputs {
        ntriples: to_ntriples(&dataset.graph),
        shacl: to_turtle(&shapes),
        spec,
        dataset,
    }
}

/// One update request of `mixed`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    pub additions: String,
    pub deletions: String,
    /// Subject of the delta's first entity: once the delta is
    /// acknowledged, a lookup of this subject must return its triples.
    pub marker: String,
}

/// Entities a delta adds (about ten triples each at the default density).
const ENTITIES_PER_DELTA: usize = 2;
/// Every this-many-th delta also replaces a literal an earlier delta added.
pub const DELETE_EVERY: usize = 10;

/// `base`'s triples about `source`, re-subjected to `fresh`, as N-Triples.
fn clone_entity(base: &Graph, source: Term, fresh: &str) -> String {
    let mut g = Graph::new();
    let s = g.intern_iri(fresh);
    for t in base.match_pattern(Some(source), None, None) {
        let p = g.import_sym(base, t.p);
        let o = g.import_term(base, t.o);
        g.insert(s, p, o);
    }
    to_ntriples(&g)
}

/// `count` deltas, each adding new entities of the base graph's classes
/// linked to base instances. A new entity is a base instance's triples
/// under a fresh IRI, so it conforms to the same node type and PG ⊨ S_PG
/// holds after every update. (The evolution generator's entities carry
/// three properties of their class and match no node type of the shapes
/// extracted from the base graph, so every acknowledgement would report
/// `conforms: false`.) Every [`DELETE_EVERY`]-th delta also replaces a
/// single-type literal of the previous delta's *non-marker* entity — a
/// deletion plus an addition — so markers and base answers are stable
/// under the whole stream.
pub fn delta_stream(inputs: &Inputs, seed: u64, count: usize) -> Vec<Delta> {
    let graph = &inputs.dataset.graph;
    let mut rng = XorShiftRng::seed_from_u64(seed ^ 0x0064_656c_7461);
    let populated: Vec<Vec<Term>> = inputs
        .dataset
        .meta
        .classes
        .iter()
        .filter_map(|c| graph.interner().get(c))
        .map(|c| graph.instances_of(Term::Iri(c)))
        .filter(|instances| !instances.is_empty())
        .collect();
    assert!(!populated.is_empty(), "dataset has no instances to clone");
    let mut deltas: Vec<Delta> = Vec::with_capacity(count);
    for i in 0..count {
        let mut additions = String::new();
        let mut subjects = Vec::new();
        for k in 0..ENTITIES_PER_DELTA {
            let instances = &populated[rng.random_range(0..populated.len())];
            let source = instances[rng.random_range(0..instances.len())];
            let fresh = format!(
                "{}delta_e{}",
                inputs.spec.namespace,
                i * ENTITIES_PER_DELTA + k
            );
            additions.push_str(&clone_entity(graph, source, &fresh));
            subjects.push(format!("<{fresh}>"));
        }
        let mut deletions = String::new();
        if i % DELETE_EVERY == DELETE_EVERY - 1 {
            let previous = &deltas[i - 1];
            // Swap two single-type literals of the previous non-marker
            // entity that share a datatype: both properties stay present
            // and well-typed, two triples go and two arrive.
            let literals: Vec<(&str, &str, &str)> = previous
                .additions
                .lines()
                .filter(|l| !l.starts_with(&previous.marker))
                .filter_map(|l| {
                    let mut parts = l.splitn(3, ' ');
                    let (s, p, o) = (parts.next()?, parts.next()?, parts.next()?);
                    (p.ends_with("_slit>") && o.starts_with('"')).then_some((s, p, o))
                })
                .collect();
            let datatype = |o: &str| o.rsplit_once("^^").map_or("plain", |(_, d)| d).to_string();
            let swap = literals.iter().enumerate().find_map(|(a, x)| {
                literals[a + 1..]
                    .iter()
                    .find(|y| x.2 != y.2 && datatype(x.2) == datatype(y.2))
                    .map(|y| (*x, *y))
            });
            if let Some(((s, p1, o1), (_, p2, o2))) = swap {
                deletions = format!("{s} {p1} {o1}\n{s} {p2} {o2}\n");
                additions.push_str(&format!("{s} {p1} {o2}\n{s} {p2} {o1}\n"));
            }
        }
        deltas.push(Delta {
            additions,
            deletions,
            marker: subjects.swap_remove(0),
        });
    }
    deltas
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_graph_repeats_and_the_delta_stream_follows_the_seed() {
        let (a, b) = (generate_inputs(0.2), generate_inputs(0.2));
        assert_eq!(a.ntriples, b.ntriples);
        assert_eq!(a.shacl, b.shacl);
        assert_eq!(delta_stream(&a, 7, 12), delta_stream(&b, 7, 12));
        assert_ne!(delta_stream(&a, 7, 12), delta_stream(&a, 8, 12));
    }

    #[test]
    fn deltas_are_marked_and_every_tenth_rewrites_its_predecessor() {
        let inputs = generate_inputs(0.2);
        let deltas = delta_stream(&inputs, 3, 20);
        for (i, d) in deltas.iter().enumerate() {
            assert!(d.additions.starts_with(&d.marker), "delta {i}");
            assert!(d.marker.starts_with("<http://dbpedia.org/2022/delta_e"));
            if i % DELETE_EVERY == DELETE_EVERY - 1 {
                assert!(!d.deletions.is_empty(), "delta {i} deletes nothing");
                for line in d.deletions.lines() {
                    assert!(deltas[i - 1].additions.contains(line), "delta {i}");
                    assert!(!line.starts_with(&deltas[i - 1].marker));
                }
            } else {
                assert!(d.deletions.is_empty());
            }
        }
    }
}
