//! The parametric dataset generator.

use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::{vocab, Graph, Term};
use s3pg_shacl::PsCategory;

/// Parameters of a synthetic dataset, mirroring the characteristics the
/// paper reports in Tables 2–3.
#[derive(Debug, Clone)]
pub struct DatasetSpec {
    /// Dataset name (used in namespaces and reports).
    pub name: String,
    /// IRI namespace for generated entities and predicates.
    pub namespace: String,
    /// Number of classes.
    pub classes: usize,
    /// Fraction of classes that are subclasses of another class.
    pub subclass_fraction: f64,
    /// Average instances per class.
    pub instances_per_class: usize,
    /// Property shapes per category, distributed round-robin over classes.
    pub single_literal: usize,
    pub single_non_literal: usize,
    pub mt_homo_literal: usize,
    pub mt_homo_non_literal: usize,
    pub mt_hetero: usize,
    /// Probability that an instance carries a given optional/multi value.
    pub density: f64,
    /// Probability that a multi-valued property has a second value on an
    /// instance.
    pub multi_value_p: f64,
    /// RNG seed — generation is fully deterministic.
    pub seed: u64,
}

/// Standard scale tiers for multi-tier benchmarks: ×1 is the CI smoke
/// scale (and the no-regression gate), ×10 is where batched execution must
/// demonstrate its traversal win, ×100 is the offline headroom tier kept
/// out of CI. Generators scale through [`DatasetSpec::scaled`], so a tier
/// multiplies instance counts while the class/property schema — and with
/// it the query set — stays fixed.
pub const BENCH_TIERS: [f64; 3] = [1.0, 10.0, 100.0];

impl DatasetSpec {
    /// Uniform scale factor on instance counts.
    pub fn scaled(mut self, factor: f64) -> Self {
        self.instances_per_class =
            ((self.instances_per_class as f64 * factor).round() as usize).max(1);
        self
    }

    /// Total property shapes across categories.
    fn total_properties(&self) -> usize {
        self.single_literal
            + self.single_non_literal
            + self.mt_homo_literal
            + self.mt_homo_non_literal
            + self.mt_hetero
    }
}

/// Metadata about one generated predicate: which class it attaches to and
/// which category it belongs to — the query generator needs this.
#[derive(Debug, Clone, PartialEq)]
pub struct PropertyMeta {
    pub predicate: String,
    pub class: String,
    pub category: PsCategory,
    /// Target classes (non-literal alternatives), if any.
    pub target_classes: Vec<String>,
    /// Literal datatypes (literal alternatives), if any.
    pub datatypes: Vec<String>,
}

/// Metadata of a generated dataset.
#[derive(Debug, Clone, Default)]
pub struct DatasetMeta {
    pub classes: Vec<String>,
    pub properties: Vec<PropertyMeta>,
    /// (subclass, superclass) pairs.
    pub subclass_axioms: Vec<(String, String)>,
}

impl DatasetMeta {
    /// Properties in a given category.
    pub fn by_category(&self, category: PsCategory) -> Vec<&PropertyMeta> {
        self.properties
            .iter()
            .filter(|p| p.category == category)
            .collect()
    }
}

/// A generated dataset: the RDF graph plus its metadata.
#[derive(Debug, Clone)]
pub struct GeneratedDataset {
    pub graph: Graph,
    pub meta: DatasetMeta,
}

const LITERAL_DATATYPE_POOL: &[&str] = &[
    vocab::xsd::STRING,
    vocab::xsd::INTEGER,
    vocab::xsd::DATE,
    vocab::xsd::G_YEAR,
    vocab::xsd::DOUBLE,
];

/// Generate a dataset from a spec. Deterministic in the seed.
pub fn generate(spec: &DatasetSpec) -> GeneratedDataset {
    let mut rng = XorShiftRng::seed_from_u64(spec.seed);
    let ns = &spec.namespace;
    let mut graph = Graph::with_capacity(
        spec.classes
            * spec.instances_per_class
            * (2 + spec.total_properties() / spec.classes.max(1)),
    );
    let mut meta = DatasetMeta::default();

    // Classes (with some subclass axioms).
    let classes: Vec<String> = (0..spec.classes).map(|i| format!("{ns}Class{i}")).collect();
    meta.classes = classes.clone();
    let mut superclass_of: Vec<Option<usize>> = vec![None; spec.classes];
    for i in 1..spec.classes {
        if rng.random_bool(spec.subclass_fraction) {
            let sup = rng.random_range(0..i);
            superclass_of[i] = Some(sup);
            graph.insert_iri(&classes[i], vocab::rdfs::SUB_CLASS_OF, &classes[sup]);
            meta.subclass_axioms
                .push((classes[i].clone(), classes[sup].clone()));
        }
    }

    // Instances, typed transitively (type-closed, as DBpedia is).
    let mut instances: Vec<Vec<String>> = vec![Vec::new(); spec.classes];
    for (ci, class) in classes.iter().enumerate() {
        for j in 0..spec.instances_per_class {
            let iri = format!("{ns}e{ci}_{j}");
            graph.insert_type(&iri, class);
            let mut sup = superclass_of[ci];
            while let Some(s) = sup {
                graph.insert_type(&iri, &classes[s]);
                sup = superclass_of[s];
            }
            instances[ci].push(iri);
        }
    }

    // Property shapes per category, round-robin over classes.
    let mut prop_counter = 0usize;
    let mut next_class = {
        let n = spec.classes.max(1);
        let mut i = 0usize;
        move || {
            let c = i % n;
            i += 1;
            c
        }
    };

    let emit_literal = |graph: &mut Graph,
                        rng: &mut XorShiftRng,
                        subject: &str,
                        predicate: &str,
                        datatype: &str,
                        salt: usize| {
        let s = graph.intern_iri(subject);
        let p = graph.intern(predicate);
        let o = match datatype {
            d if d == vocab::xsd::INTEGER => {
                graph.typed_literal(&rng.random_range(0..100_000i64).to_string(), d)
            }
            d if d == vocab::xsd::DATE => graph.typed_literal(
                &format!(
                    "{:04}-{:02}-{:02}",
                    rng.random_range(1950..2024),
                    rng.random_range(1..13),
                    rng.random_range(1..29)
                ),
                d,
            ),
            d if d == vocab::xsd::G_YEAR => {
                graph.typed_literal(&rng.random_range(1900..2024).to_string(), d)
            }
            d if d == vocab::xsd::DOUBLE => {
                graph.typed_literal(&format!("{}.5", rng.random_range(0..1000)), d)
            }
            d => graph.typed_literal(
                &format!("value {salt} {}", rng.random_range(0..1_000_000u64)),
                d,
            ),
        };
        graph.insert(s, p, o);
    };

    // Single-type literal properties.
    for _ in 0..spec.single_literal {
        let ci = next_class();
        let predicate = format!("{ns}p{prop_counter}_slit");
        prop_counter += 1;
        let dt = LITERAL_DATATYPE_POOL[rng.random_range(0..LITERAL_DATATYPE_POOL.len())];
        for (j, inst) in instances[ci].iter().enumerate() {
            emit_literal(&mut graph, &mut rng, inst, &predicate, dt, j);
        }
        meta.properties.push(PropertyMeta {
            predicate,
            class: classes[ci].clone(),
            category: PsCategory::SingleTypeLiteral,
            target_classes: vec![],
            datatypes: vec![dt.to_string()],
        });
    }

    // Single-type non-literal properties.
    for _ in 0..spec.single_non_literal {
        let ci = next_class();
        let target = rng.random_range(0..spec.classes.max(1));
        let predicate = format!("{ns}p{prop_counter}_snl");
        prop_counter += 1;
        for inst in &instances[ci] {
            if instances[target].is_empty() {
                continue;
            }
            let obj = &instances[target][rng.random_range(0..instances[target].len())];
            graph.insert_iri(inst, &predicate, obj);
        }
        meta.properties.push(PropertyMeta {
            predicate,
            class: classes[ci].clone(),
            category: PsCategory::SingleTypeNonLiteral,
            target_classes: vec![classes[target].clone()],
            datatypes: vec![],
        });
    }

    // Multi-type homogeneous literal properties (2–3 datatypes).
    for _ in 0..spec.mt_homo_literal {
        let ci = next_class();
        let predicate = format!("{ns}p{prop_counter}_mtl");
        prop_counter += 1;
        let n_dts = rng.random_range(2..4usize);
        let mut dts: Vec<&str> = Vec::new();
        while dts.len() < n_dts {
            let dt = LITERAL_DATATYPE_POOL[rng.random_range(0..LITERAL_DATATYPE_POOL.len())];
            if !dts.contains(&dt) {
                dts.push(dt);
            }
        }
        for (j, inst) in instances[ci].iter().enumerate() {
            let dt = dts[rng.random_range(0..dts.len())];
            emit_literal(&mut graph, &mut rng, inst, &predicate, dt, j);
            if rng.random_bool(spec.multi_value_p) {
                let dt2 = dts[rng.random_range(0..dts.len())];
                emit_literal(&mut graph, &mut rng, inst, &predicate, dt2, j + 1_000_000);
            }
        }
        meta.properties.push(PropertyMeta {
            predicate,
            class: classes[ci].clone(),
            category: PsCategory::MultiTypeHomoLiteral,
            target_classes: vec![],
            datatypes: dts.iter().map(|d| d.to_string()).collect(),
        });
    }

    // Multi-type homogeneous non-literal properties (2 target classes).
    for _ in 0..spec.mt_homo_non_literal {
        let ci = next_class();
        let t1 = rng.random_range(0..spec.classes.max(1));
        let t2 = rng.random_range(0..spec.classes.max(1));
        let predicate = format!("{ns}p{prop_counter}_mtnl");
        prop_counter += 1;
        for inst in &instances[ci] {
            let target = if rng.random_bool(0.5) { t1 } else { t2 };
            if instances[target].is_empty() {
                continue;
            }
            let obj = &instances[target][rng.random_range(0..instances[target].len())];
            graph.insert_iri(inst, &predicate, obj);
        }
        meta.properties.push(PropertyMeta {
            predicate,
            class: classes[ci].clone(),
            category: PsCategory::MultiTypeHomoNonLiteral,
            target_classes: vec![classes[t1].clone(), classes[t2].clone()],
            datatypes: vec![],
        });
    }

    // Multi-type heterogeneous properties: the dbp:writer phenomenon — the
    // same predicate links to entities *and* plain literals, sometimes both
    // on the same subject.
    for _ in 0..spec.mt_hetero {
        let ci = next_class();
        let target = rng.random_range(0..spec.classes.max(1));
        let predicate = format!("{ns}p{prop_counter}_het");
        prop_counter += 1;
        for (j, inst) in instances[ci].iter().enumerate() {
            if !rng.random_bool(spec.density) {
                continue;
            }
            let literal_first = rng.random_bool(0.5);
            if literal_first || instances[target].is_empty() {
                emit_literal(
                    &mut graph,
                    &mut rng,
                    inst,
                    &predicate,
                    vocab::xsd::STRING,
                    j,
                );
            } else {
                let obj = &instances[target][rng.random_range(0..instances[target].len())];
                graph.insert_iri(inst, &predicate, obj);
            }
            // Sometimes mix both kinds on one subject (NeoSemantics's loss
            // case) or add a second value of the same kind.
            if rng.random_bool(spec.multi_value_p) {
                if rng.random_bool(0.5) && !instances[target].is_empty() {
                    let obj = &instances[target][rng.random_range(0..instances[target].len())];
                    graph.insert_iri(inst, &predicate, obj);
                } else {
                    emit_literal(
                        &mut graph,
                        &mut rng,
                        inst,
                        &predicate,
                        vocab::xsd::STRING,
                        j + 2_000_000,
                    );
                }
            }
        }
        meta.properties.push(PropertyMeta {
            predicate,
            class: classes[ci].clone(),
            category: PsCategory::MultiTypeHetero,
            target_classes: vec![classes[target].clone()],
            datatypes: vec![vocab::xsd::STRING.to_string()],
        });
    }

    GeneratedDataset { graph, meta }
}

/// Count the instances of `class` in a generated graph.
pub fn instance_count(graph: &Graph, class: &str) -> usize {
    match graph.interner().get(class) {
        Some(sym) => graph.instances_of(Term::Iri(sym)).len(),
        None => 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_spec() -> DatasetSpec {
        DatasetSpec {
            name: "test".into(),
            namespace: "http://test/".into(),
            classes: 5,
            subclass_fraction: 0.4,
            instances_per_class: 20,
            single_literal: 5,
            single_non_literal: 3,
            mt_homo_literal: 3,
            mt_homo_non_literal: 2,
            mt_hetero: 4,
            density: 0.9,
            multi_value_p: 0.4,
            seed: 42,
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(&small_spec());
        let b = generate(&small_spec());
        assert_eq!(a.graph.len(), b.graph.len());
        assert!(a.graph.same_triples(&b.graph));
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&small_spec());
        let mut spec = small_spec();
        spec.seed = 7;
        let b = generate(&spec);
        assert!(!a.graph.same_triples(&b.graph));
    }

    #[test]
    fn category_mix_matches_spec() {
        let d = generate(&small_spec());
        assert_eq!(d.meta.by_category(PsCategory::SingleTypeLiteral).len(), 5);
        assert_eq!(d.meta.by_category(PsCategory::MultiTypeHetero).len(), 4);
        assert_eq!(d.meta.properties.len(), small_spec().total_properties());
    }

    #[test]
    fn instances_are_typed() {
        let d = generate(&small_spec());
        let stats = s3pg_rdf::DatasetStats::of(&d.graph);
        assert!(stats.instances >= 5 * 20);
        assert!(stats.classes >= 5);
    }

    #[test]
    fn hetero_properties_have_mixed_object_kinds() {
        let d = generate(&small_spec());
        let het = d.meta.by_category(PsCategory::MultiTypeHetero)[0].clone();
        let p = d.graph.interner().get(&het.predicate).unwrap();
        let objects: Vec<_> = d.graph.match_pattern(None, Some(p), None);
        let literals = objects.iter().filter(|t| t.o.is_literal()).count();
        let iris = objects.iter().filter(|t| t.o.is_iri()).count();
        assert!(literals > 0, "hetero property must have literal values");
        assert!(iris > 0, "hetero property must have IRI values");
    }

    #[test]
    fn scaled_spec_multiplies_instances() {
        let spec = small_spec().scaled(2.0);
        assert_eq!(spec.instances_per_class, 40);
        let bigger = generate(&spec);
        let base = generate(&small_spec());
        assert!(bigger.graph.len() > base.graph.len());
    }

    #[test]
    fn subclass_axioms_produce_type_closure() {
        let d = generate(&small_spec());
        // Every subclass instance must also be typed with the superclass.
        for (sub, sup) in &d.meta.subclass_axioms {
            let sub_sym = d.graph.interner().get(sub).unwrap();
            let sup_sym = d.graph.interner().get(sup).unwrap();
            for inst in d.graph.instances_of(Term::Iri(sub_sym)) {
                let types = d.graph.types_of(inst);
                assert!(types.contains(&Term::Iri(sup_sym)), "type closure violated");
            }
        }
    }
}
