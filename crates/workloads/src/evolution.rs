//! Graph-evolution deltas for the monotonicity analysis (§5.4).
//!
//! The paper's two DBpedia snapshots differ by +5.21% added triples, −1.84%
//! deleted triples, and a set of object-value updates. [`evolve`] produces
//! an equivalent Δ against any generated dataset: additions re-use the same
//! generator distributions (new entities of existing classes, new property
//! values), deletions sample existing non-type triples, and updates are
//! modelled as delete+add pairs on object values.

use crate::spec::{DatasetSpec, GeneratedDataset};
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::{Graph, Term};

/// Randomly partition `graph` into `batches` delta graphs at *entity*
/// granularity: every triple travels in the batch of its subject, so each
/// delta is a well-formed graph fragment (an entity arrives with its type
/// statements) — the delta contract the serving write path enforces.
/// Objects may be forward references to entities of later batches.
pub fn random_entity_split(graph: &Graph, batches: usize, rng: &mut XorShiftRng) -> Vec<Graph> {
    let mut out: Vec<Graph> = (0..batches).map(|_| Graph::new()).collect();
    for s_term in graph.subjects_distinct() {
        let k = rng.choose_index(batches).expect("at least one batch");
        let batch = &mut out[k];
        for t in graph.match_pattern(Some(s_term), None, None) {
            let s = batch.import_term(graph, t.s);
            let p = batch.import_sym(graph, t.p);
            let o = batch.import_term(graph, t.o);
            batch.insert(s, p, o);
        }
    }
    out
}

/// Fractions of the base graph affected by the paper's DBpedia Δ.
#[derive(Debug, Clone, Copy)]
pub struct EvolutionSpec {
    /// Fraction of triples added (paper: 0.0521).
    pub add_fraction: f64,
    /// Fraction of triples deleted (paper: 0.0184).
    pub delete_fraction: f64,
    /// Fraction of triples whose object value changes (delete+add).
    pub update_fraction: f64,
    pub seed: u64,
}

impl Default for EvolutionSpec {
    fn default() -> Self {
        EvolutionSpec {
            add_fraction: 0.0521,
            delete_fraction: 0.0184,
            update_fraction: 0.02,
            seed: 99,
        }
    }
}

/// A delta between two snapshots.
#[derive(Debug, Clone)]
pub struct Evolution {
    /// Triples present only in the new snapshot.
    pub additions: Graph,
    /// Triples removed from the old snapshot.
    pub deletions: Graph,
}

impl Evolution {
    /// Apply this delta to `base`, producing the new snapshot.
    pub fn apply(&self, base: &Graph) -> Graph {
        let mut out = Graph::with_capacity(base.len() + self.additions.len());
        out.absorb(base);
        for t in self.deletions.triples() {
            let s = out.import_term(&self.deletions, t.s);
            let p = out.import_sym(&self.deletions, t.p);
            let o = out.import_term(&self.deletions, t.o);
            out.remove(s, p, o);
        }
        out.absorb(&self.additions);
        out
    }
}

/// Produce a Δ for `dataset` following `evo`.
pub fn evolve(
    dataset: &GeneratedDataset,
    base_spec: &DatasetSpec,
    evo: &EvolutionSpec,
) -> Evolution {
    let mut rng = XorShiftRng::seed_from_u64(evo.seed);
    let graph = &dataset.graph;
    let type_p = graph.type_predicate_opt();

    let mut additions = Graph::new();
    let mut deletions = Graph::new();

    // --- deletions & updates: sample existing non-type triples ---
    let non_type: Vec<_> = graph.triples().filter(|t| Some(t.p) != type_p).collect();
    let n_delete = (graph.len() as f64 * evo.delete_fraction) as usize;
    let n_update = (graph.len() as f64 * evo.update_fraction) as usize;
    let mut picked = s3pg_rdf::fxhash::FxHashSet::default();
    let sample = |rng: &mut XorShiftRng, picked: &mut s3pg_rdf::fxhash::FxHashSet<usize>| {
        if non_type.is_empty() {
            return None;
        }
        for _ in 0..20 {
            let i = rng.random_range(0..non_type.len());
            if picked.insert(i) {
                return Some(non_type[i]);
            }
        }
        None
    };

    for _ in 0..n_delete {
        let Some(t) = sample(&mut rng, &mut picked) else {
            break;
        };
        let s = deletions.import_term(graph, t.s);
        let p = deletions.import_sym(graph, t.p);
        let o = deletions.import_term(graph, t.o);
        deletions.insert(s, p, o);
    }
    for salt in 0..n_update {
        // Updates change the *object value* only (paper: "all those triples
        // with changes in their object values"), so only literal-object
        // triples qualify.
        let Some(t) =
            (0..10).find_map(|_| sample(&mut rng, &mut picked).filter(|t| t.o.is_literal()))
        else {
            break;
        };
        let s = deletions.import_term(graph, t.s);
        let p = deletions.import_sym(graph, t.p);
        let o = deletions.import_term(graph, t.o);
        deletions.insert(s, p, o);
        let s2 = additions.import_term(graph, t.s);
        let p2 = additions.import_sym(graph, t.p);
        let o2 = additions.string_literal(&format!("updated value {salt}"));
        additions.insert(s2, p2, o2);
    }

    // --- pure additions: new entities of existing classes with fresh
    //     property values following the same category mix ---
    let n_add = (graph.len() as f64 * evo.add_fraction) as usize;
    let mut added = 0usize;
    let mut entity_counter = 0usize;
    'outer: while added < n_add {
        let class = &dataset.meta.classes[rng.random_range(0..dataset.meta.classes.len().max(1))];
        let entity = format!("{}delta_e{}", base_spec.namespace, entity_counter);
        entity_counter += 1;
        additions.insert_type(&entity, class);
        added += 1;
        // Attach values for up to three of the class's properties.
        let props: Vec<_> = dataset
            .meta
            .properties
            .iter()
            .filter(|p| &p.class == class)
            .take(3)
            .collect();
        for prop in props {
            let s = additions.intern_iri(&entity);
            let p = additions.intern(&prop.predicate);
            let o = if prop.datatypes.is_empty() {
                // Link to an existing instance of a target class.
                match prop
                    .target_classes
                    .first()
                    .and_then(|tc| graph.interner().get(tc))
                    .map(Term::Iri)
                    .map(|c| graph.instances_of(c))
                    .and_then(|insts| {
                        if insts.is_empty() {
                            None
                        } else {
                            Some(insts[rng.random_range(0..insts.len())])
                        }
                    }) {
                    Some(target) => additions.import_term(graph, target),
                    None => continue,
                }
            } else {
                let dt = &prop.datatypes[rng.random_range(0..prop.datatypes.len())];
                let lex = match dt.as_str() {
                    d if d.ends_with("integer") => rng.random_range(0..9999i64).to_string(),
                    d if d.ends_with("gYear") => rng.random_range(1900..2024i32).to_string(),
                    d if d.ends_with("date") => "2023-01-01".to_string(),
                    d if d.ends_with("double") => "1.5".to_string(),
                    _ => format!("delta value {added}"),
                };
                additions.typed_literal(&lex, dt)
            };
            additions.insert(s, p, o);
            added += 1;
            if added >= n_add {
                break 'outer;
            }
        }
    }

    Evolution {
        additions,
        deletions,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dbpedia::dbpedia2020;
    use crate::spec::generate;

    fn setup() -> (GeneratedDataset, DatasetSpec, Evolution) {
        let spec = dbpedia2020(0.3);
        let dataset = generate(&spec);
        let evo = evolve(&dataset, &spec, &EvolutionSpec::default());
        (dataset, spec, evo)
    }

    #[test]
    fn delta_sizes_match_fractions() {
        let (dataset, _, evo) = setup();
        let base = dataset.graph.len() as f64;
        let adds = evo.additions.len() as f64;
        let dels = evo.deletions.len() as f64;
        // additions ≈ 5.21% + 2% updates, deletions ≈ 1.84% + 2% updates
        assert!(
            adds / base > 0.04 && adds / base < 0.12,
            "adds {}",
            adds / base
        );
        assert!(
            dels / base > 0.02 && dels / base < 0.08,
            "dels {}",
            dels / base
        );
    }

    #[test]
    fn deletions_are_subset_of_base() {
        let (dataset, _, evo) = setup();
        for t in evo.deletions.triples() {
            assert!(dataset.graph.contains_resolved(&evo.deletions, t));
        }
    }

    #[test]
    fn apply_produces_new_snapshot() {
        let (dataset, _, evo) = setup();
        let snapshot = evo.apply(&dataset.graph);
        let expected = dataset.graph.len() - evo.deletions.len() + evo.additions.len();
        assert_eq!(snapshot.len(), expected);
        // Additions present, deletions gone.
        let t = evo.additions.triples().next().unwrap();
        assert!(snapshot.contains_resolved(&evo.additions, t));
        let t = evo.deletions.triples().next().unwrap();
        assert!(!snapshot.contains_resolved(&evo.deletions, t));
    }

    #[test]
    fn evolution_is_deterministic() {
        let (dataset, spec, evo1) = setup();
        let evo2 = evolve(&dataset, &spec, &EvolutionSpec::default());
        assert!(evo1.additions.same_triples(&evo2.additions));
        assert!(evo1.deletions.same_triples(&evo2.deletions));
    }

    #[test]
    fn additions_and_deletions_are_disjoint() {
        let (_, _, evo) = setup();
        for t in evo.additions.triples() {
            assert!(!evo.deletions.contains_resolved(&evo.additions, t));
        }
    }
}
