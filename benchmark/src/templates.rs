//! The request templates of the served workloads, the mixes they are
//! drawn from, and the seeded schedule.
//!
//! Every template belongs to one of two *classes*; a workload reports one
//! median per class (`p50_us` for class A, `p50_b_us` for class B), so the
//! two medians never straddle a change of code path (cache hit vs miss,
//! Cypher vs SPARQL, JSON vs Bolt, read vs write).

use crate::inputs::Inputs;
use s3pg_rdf::rng::XorShiftRng;
use s3pg_rdf::{Graph, Term};
use s3pg_server::json::Json;
use s3pg_server::protocol::Request;
use s3pg_shacl::PsCategory;
use s3pg_workloads::skew;
use s3pg_workloads::spec::{DatasetMeta, PropertyMeta};

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    A,
    B,
}

#[derive(Debug, Clone)]
pub struct Template {
    pub name: &'static str,
    pub class: Class,
    /// Share of its class's draws, in percent; a class's weights sum to 100.
    pub weight: u32,
    /// Relative cost within the class (0 = cheapest), from the measured
    /// per-template medians in the README; equal ranks cost about the same.
    pub cost_rank: u32,
    /// The template's parameter variants; a draw picks one uniformly.
    pub variants: Vec<Request>,
}

#[derive(Debug, Clone)]
pub struct Mix {
    pub templates: Vec<Template>,
    /// Share of draws that go to class A, in percent.
    pub class_a_share: u32,
}

/// One scheduled request: (template index, variant index).
pub type Pick = (u16, u32);

impl Mix {
    /// Draw the next request of a connection's schedule.
    pub fn draw(&self, rng: &mut XorShiftRng) -> Pick {
        let class = if rng.random_range(0..100u32) < self.class_a_share {
            Class::A
        } else {
            Class::B
        };
        self.draw_in(class, rng)
    }

    /// Draw from one class only (a phase that carries a single class).
    pub fn draw_in(&self, class: Class, rng: &mut XorShiftRng) -> Pick {
        let mut ticket = rng.random_range(0..100u32);
        for (i, t) in self.templates.iter().enumerate() {
            if t.class != class {
                continue;
            }
            if ticket < t.weight {
                let variant = rng.random_range(0..t.variants.len() as u32);
                return (i as u16, variant);
            }
            ticket -= t.weight;
        }
        unreachable!("class weights sum to 100 (checked by Mix::validate)")
    }

    pub fn request(&self, pick: Pick) -> &Request {
        &self.templates[pick.0 as usize].variants[pick.1 as usize]
    }

    /// Cumulative shares (percent) at which a class's latency distribution
    /// steps from one cost rank to the next.
    pub fn cost_boundaries(&self, class: Class) -> Vec<f64> {
        let mut by_rank: Vec<(u32, u32)> = self
            .templates
            .iter()
            .filter(|t| t.class == class)
            .map(|t| (t.cost_rank, t.weight))
            .collect();
        by_rank.sort_unstable();
        let mut out = Vec::new();
        let mut cumulative = 0u32;
        for pair in by_rank.windows(2) {
            cumulative += pair[0].1;
            if pair[0].0 != pair[1].0 {
                out.push(f64::from(cumulative));
            }
        }
        out
    }

    /// The mix rule: weights of each class sum to 100, every template has
    /// a variant, and neither the median nor a reportable tail percentile
    /// sits within five points of a boundary between templates of
    /// different cost.
    pub fn validate(&self) -> Result<(), String> {
        for class in [Class::A, Class::B] {
            let members: Vec<&Template> =
                self.templates.iter().filter(|t| t.class == class).collect();
            if members.is_empty() {
                if class == Class::A || self.class_a_share < 100 {
                    return Err(format!("class {class:?} has no templates"));
                }
                continue;
            }
            let total: u32 = members.iter().map(|t| t.weight).sum();
            if total != 100 {
                return Err(format!("class {class:?} weights sum to {total}, not 100"));
            }
            if let Some(t) = members.iter().find(|t| t.variants.is_empty()) {
                return Err(format!("template {} has no variants", t.name));
            }
            for boundary in self.cost_boundaries(class) {
                for p in [50.0, 99.0, 99.9] {
                    if (boundary - p).abs() < 5.0 {
                        return Err(format!(
                            "class {class:?}: cost boundary at {boundary}% is within 5 points of p{p}"
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

fn local(iri: &str) -> &str {
    iri.rsplit(['/', '#']).next().unwrap_or(iri)
}

fn cypher(query: String, params: &[(&str, &str)]) -> Request {
    Request::Cypher {
        query,
        params: params
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Str(v.to_string())))
            .collect(),
    }
}

fn sparql(query: String, params: &[(&str, String)]) -> Request {
    Request::Sparql {
        query,
        params: params
            .iter()
            .map(|(k, v)| (k.to_string(), Json::Str(v.clone())))
            .collect(),
    }
}

/// IRIs of the instances of `class`, in the graph's own order.
fn instances(graph: &Graph, class: &str) -> Vec<String> {
    let Some(sym) = graph.interner().get(class) else {
        return Vec::new();
    };
    graph
        .instances_of(Term::Iri(sym))
        .into_iter()
        .filter_map(|t| match t {
            Term::Iri(s) => Some(graph.resolve(s).to_string()),
            _ => None,
        })
        .collect()
}

/// Distinct inlined texts `read-point` cycles through: more than the plan
/// cache's 1,024 entries, so the miss half also exercises its
/// flush-at-capacity path.
pub const POINT_VARIANTS: usize = 1536;

/// `read-point`: single-entity lookups returning at most a few rows. Class
/// A binds `$iri`/`$s` (one text per template: plan-cache hits); class B
/// inlines the entity (one text per entity: misses).
pub fn read_point(inputs: &Inputs, seed: u64) -> Mix {
    let graph = &inputs.dataset.graph;
    let mut rng = XorShiftRng::seed_from_u64(seed ^ 0x0070_6f69_6e74);
    // (class, single-type literal property of that class, entity) triples.
    let props: Vec<&PropertyMeta> = inputs
        .dataset
        .meta
        .by_category(PsCategory::SingleTypeLiteral);
    let mut pool: Vec<(&PropertyMeta, Vec<String>)> = Vec::new();
    for p in props {
        if !pool.iter().any(|(q, _)| q.class == p.class) {
            pool.push((p, instances(graph, &p.class)));
        }
    }
    pool.retain(|(_, entities)| !entities.is_empty());
    assert!(
        !pool.is_empty(),
        "dataset has no single-type literal property"
    );
    let mut cy_hit = Vec::new();
    let mut sp_hit = Vec::new();
    let mut cy_miss = Vec::new();
    let mut sp_miss = Vec::new();
    for _ in 0..POINT_VARIANTS {
        let (prop, entities) = &pool[rng.random_range(0..pool.len())];
        let entity = &entities[rng.random_range(0..entities.len())];
        let (label, key) = (local(&prop.class), local(&prop.predicate));
        cy_hit.push(cypher(
            format!("MATCH (n:{label}) WHERE n.iri = $iri RETURN n.iri, n.{key}"),
            &[("iri", entity)],
        ));
        sp_hit.push(sparql(
            format!("SELECT ?o WHERE {{ $s <{}> ?o }}", prop.predicate),
            &[("s", format!("<{entity}>"))],
        ));
        cy_miss.push(cypher(
            format!("MATCH (n:{label}) WHERE n.iri = \"{entity}\" RETURN n.iri, n.{key}"),
            &[],
        ));
        sp_miss.push(sparql(
            format!("SELECT ?o WHERE {{ <{entity}> <{}> ?o }}", prop.predicate),
            &[],
        ));
    }
    let t = |name, class, weight, cost_rank, variants| Template {
        name,
        class,
        weight,
        cost_rank,
        variants,
    };
    // A bound lookup costs the same in either language; an inlined one
    // also parses and plans, which costs Cypher about 10 us more, so the
    // miss half leans on Cypher to keep its median off that step.
    Mix {
        templates: vec![
            t("cypher-probe-bound", Class::A, 50, 0, cy_hit),
            t("sparql-subject-bound", Class::A, 50, 0, sp_hit),
            t("sparql-subject-inlined", Class::B, 30, 0, sp_miss),
            t("cypher-probe-inlined", Class::B, 70, 1, cy_miss),
        ],
        class_a_share: 50,
    }
}

/// The skew subgraph's vocabulary as Cypher labels.
const LINKS: &str = "(s:Source)-[:linksTo]->(t:Target)";

/// IRI of skewed source `i`.
fn source(i: usize) -> String {
    format!("{}s{i}", skew::NAMESPACE)
}

/// The rank thresholds above which only a handful of `linksTo` edges
/// remain, so a join over every edge still answers with few rows.
fn selective_ranks(graph: &Graph) -> Vec<i64> {
    let Some(rank) = graph.interner().get(skew::RANK) else {
        return vec![99_999];
    };
    let mut ranks: Vec<i64> = graph
        .match_pattern(None, Some(rank), None)
        .into_iter()
        .filter_map(|t| match t.o {
            Term::Literal(l) => graph.resolve(l.lexical).parse().ok(),
            _ => None,
        })
        .collect();
    ranks.sort_unstable_by(|a, b| b.cmp(a));
    ranks.dedup();
    // Strictly-greater-than the 3rd, 4th and 5th highest distinct ranks.
    ranks.into_iter().skip(2).take(3).collect()
}

/// The templates over the skew subgraph, which `mixed`'s deltas never
/// touch: `(name, class, weight-in-read-analytic, cost rank, variants)`.
fn skew_templates(graph: &Graph) -> Vec<Template> {
    let sources = instances(graph, skew::SOURCE_CLASS).len().max(1);
    let warm: Vec<String> = (1..=skew::WARM_COUNT)
        .map(|k| source((k * skew::HOT_SPACING) % sources))
        .collect();
    let thresholds = selective_ranks(graph);
    let links_to = skew::LINKS_TO;
    let rank = skew::RANK;
    vec![
        Template {
            name: "hub-topk",
            class: Class::A,
            weight: 0,
            cost_rank: 0,
            variants: vec![cypher(
                format!("MATCH {LINKS} WHERE s.iri = $hub RETURN t.rank ORDER BY t.rank DESC LIMIT 10"),
                &[("hub", &source(0))],
            )],
        },
        Template {
            name: "warm-topk",
            class: Class::A,
            weight: 0,
            cost_rank: 0,
            variants: warm
                .iter()
                .map(|w| {
                    cypher(
                        format!("MATCH {LINKS} WHERE s.iri = $hub RETURN t.rank ORDER BY t.rank DESC LIMIT 10"),
                        &[("hub", w)],
                    )
                })
                .collect(),
        },
        Template {
            name: "edge-minmax",
            class: Class::A,
            weight: 0,
            cost_rank: 0,
            variants: [20_000, 50_000, 80_000]
                .iter()
                .map(|r| Request::Cypher {
                    query: format!(
                        "MATCH {LINKS} WHERE t.rank > $r RETURN count(*) AS n, min(t.rank) AS lo, max(t.rank) AS hi"
                    ),
                    params: vec![("r".to_string(), Json::Num(f64::from(*r)))],
                })
                .collect(),
        },
        Template {
            name: "group-agg-top5",
            class: Class::A,
            weight: 0,
            cost_rank: 0,
            // The hub and the four warm sources are the five largest
            // groups by a wide margin, so the cut at 5 has no ties.
            variants: vec![cypher(
                format!("MATCH {LINKS} RETURN s.iri, count(t) AS n, sum(t.rank) AS total ORDER BY n DESC LIMIT 5"),
                &[],
            )],
        },
        Template {
            name: "sparql-join-filter",
            class: Class::B,
            weight: 0,
            cost_rank: 0,
            variants: thresholds
                .iter()
                .map(|r| {
                    sparql(
                        format!(
                            "SELECT ?s ?r WHERE {{ ?s <{links_to}> ?t . ?t <{rank}> ?r . FILTER(?r > {r}) }}"
                        ),
                        &[],
                    )
                })
                .collect(),
        },
        Template {
            name: "sparql-join-typed",
            class: Class::B,
            weight: 0,
            cost_rank: 0,
            variants: thresholds
                .iter()
                .map(|r| {
                    sparql(
                        format!(
                            "SELECT ?s ?t WHERE {{ ?s a <{}> . ?s <{links_to}> ?t . ?t a <{}> . ?t <{rank}> ?r . FILTER(?r > {r}) }}",
                            skew::SOURCE_CLASS,
                            skew::TARGET_CLASS
                        ),
                        &[],
                    )
                })
                .collect(),
        },
    ]
}

/// A two-hop chain through the DBpedia emulation: a non-literal property
/// of class X whose targets include a class Y that itself has a
/// non-literal property. `None` when the generated schema has no chain.
fn two_hop(meta: &DatasetMeta) -> Option<(&PropertyMeta, &PropertyMeta)> {
    let edges: Vec<&PropertyMeta> = meta
        .properties
        .iter()
        .filter(|p| {
            matches!(
                p.category,
                PsCategory::SingleTypeNonLiteral | PsCategory::MultiTypeHomoNonLiteral
            )
        })
        .collect();
    edges.iter().find_map(|first| {
        edges
            .iter()
            .find(|second| first.target_classes.contains(&second.class))
            .map(|second| (*first, *second))
    })
}

fn set(templates: &mut [Template], name: &str, weight: u32, cost_rank: u32) {
    let t = templates
        .iter_mut()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("no template {name}"));
    t.weight = weight;
    t.cost_rank = cost_rank;
}

/// `read-analytic`: large intermediate results, at most 20 output rows.
/// Class A is Cypher over the compact graph, class B the SPARQL BGP join.
pub fn read_analytic(inputs: &Inputs) -> Mix {
    let graph = &inputs.dataset.graph;
    let mut templates = skew_templates(graph);
    let meta = &inputs.dataset.meta;
    let (first, second) = two_hop(meta).expect("DBpedia emulation has a two-hop chain");
    templates.push(Template {
        name: "typed-expand-count",
        class: Class::A,
        weight: 0,
        cost_rank: 0,
        variants: vec![cypher(
            format!(
                "MATCH (a:{})-[:{}]->(v) RETURN count(*) AS n",
                local(&first.class),
                local(&first.predicate)
            ),
            &[],
        )],
    });
    templates.push(Template {
        name: "two-hop-count",
        class: Class::A,
        weight: 0,
        cost_rank: 0,
        variants: vec![cypher(
            format!(
                "MATCH (a:{})-[:{}]->(v)-[:{}]->(w) RETURN count(*) AS n",
                local(&first.class),
                local(&first.predicate),
                local(&second.predicate)
            ),
            &[],
        )],
    });
    // Cost ranks from the measured medians (README, "templates"): the
    // class A median falls inside edge-minmax's span (30..70) and both
    // reportable tails inside group-agg-top5's (80..100).
    set(&mut templates, "typed-expand-count", 10, 0);
    set(&mut templates, "two-hop-count", 10, 1);
    set(&mut templates, "warm-topk", 10, 2);
    set(&mut templates, "edge-minmax", 40, 3);
    set(&mut templates, "hub-topk", 10, 4);
    set(&mut templates, "group-agg-top5", 20, 5);
    set(&mut templates, "sparql-join-filter", 60, 0);
    set(&mut templates, "sparql-join-typed", 40, 1);
    Mix {
        templates,
        class_a_share: 75,
    }
}

/// The reads of `mixed`: the `read-analytic` templates that only touch the
/// skew subgraph, so every answer is stable under the delta stream. All
/// class A; class B of `mixed` is the writer's updates.
pub fn mixed_reads(inputs: &Inputs) -> Mix {
    let mut templates = skew_templates(&inputs.dataset.graph);
    for t in &mut templates {
        t.class = Class::A;
    }
    // The median falls inside edge-minmax's span (10..60), the tails
    // inside group-agg-top5's (90..100).
    set(&mut templates, "warm-topk", 10, 0);
    set(&mut templates, "edge-minmax", 50, 1);
    set(&mut templates, "sparql-join-filter", 10, 2);
    set(&mut templates, "hub-topk", 10, 3);
    set(&mut templates, "sparql-join-typed", 10, 4);
    set(&mut templates, "group-agg-top5", 10, 5);
    Mix {
        templates,
        class_a_share: 100,
    }
}

/// Queries per Fig. 6 category `read-wide` asks for.
const WIDE_PER_CATEGORY: usize = 2;

/// `read-wide`: the paper's category queries, each as SPARQL and as its
/// `F_qt` Cypher, hundreds to thousands of rows per answer. Class A is the
/// JSON phase (both languages); class B the Bolt phase (Cypher only).
pub fn read_wide(inputs: &Inputs, mapping: &s3pg::Mapping) -> Mix {
    let queries = s3pg_workloads::generate_queries(&inputs.dataset.meta, WIDE_PER_CATEGORY);
    let mut as_sparql = Vec::new();
    let mut as_cypher = Vec::new();
    for q in &queries {
        let translated = s3pg::query_translate::translate_str(&q.sparql, mapping)
            .unwrap_or_else(|e| panic!("category query {} does not translate: {e}", q.id));
        as_sparql.push(sparql(q.sparql.clone(), &[]));
        as_cypher.push(cypher(translated, &[]));
    }
    assert!(!queries.is_empty(), "dataset yields no category queries");
    let t = |name, class, weight, variants| Template {
        name,
        class,
        weight,
        cost_rank: 0,
        variants,
    };
    Mix {
        templates: vec![
            t("category-sparql", Class::A, 50, as_sparql),
            t("category-cypher", Class::A, 50, as_cypher.clone()),
            t("category-cypher-bolt", Class::B, 100, as_cypher),
        ],
        class_a_share: 50,
    }
}

/// The first `n` picks of connection `connection` under `seed`.
#[cfg(test)]
pub fn schedule(mix: &Mix, seed: u64, connection: usize, n: usize) -> Vec<Pick> {
    let mut rng = connection_rng(seed, connection);
    (0..n).map(|_| mix.draw(&mut rng)).collect()
}

pub fn connection_rng(seed: u64, connection: usize) -> XorShiftRng {
    XorShiftRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ (connection as u64 + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::generate_inputs;

    fn mixes(inputs: &Inputs, seed: u64) -> Vec<(&'static str, Mix)> {
        let shapes = s3pg_shacl::extract_shapes(&inputs.dataset.graph);
        let out = s3pg::transform(&inputs.dataset.graph, &shapes, s3pg::Mode::Parsimonious);
        vec![
            ("read-point", read_point(inputs, seed)),
            ("read-analytic", read_analytic(inputs)),
            ("read-wide", read_wide(inputs, &out.schema.mapping)),
            ("mixed", mixed_reads(inputs)),
        ]
    }

    #[test]
    fn every_mix_obeys_the_boundary_rule() {
        let inputs = generate_inputs(0.5);
        for (name, mix) in mixes(&inputs, 1) {
            assert_eq!(mix.validate(), Ok(()), "{name}");
        }
    }

    #[test]
    fn boundary_rule_rejects_a_median_on_a_cost_step() {
        let t = |weight, cost_rank| Template {
            name: "t",
            class: Class::A,
            weight,
            cost_rank,
            variants: vec![Request::Ping],
        };
        let bad = Mix {
            templates: vec![t(52, 0), t(48, 1)],
            class_a_share: 100,
        };
        assert!(bad.validate().unwrap_err().contains("p50"));
        let thin_tail = Mix {
            templates: vec![t(97, 0), t(3, 1)],
            class_a_share: 100,
        };
        assert!(thin_tail.validate().unwrap_err().contains("p99"));
        let same_cost = Mix {
            templates: vec![t(50, 0), t(50, 0)],
            class_a_share: 100,
        };
        assert_eq!(same_cost.validate(), Ok(()));
        assert_eq!(same_cost.cost_boundaries(Class::A), Vec::<f64>::new());
    }

    #[test]
    fn schedules_repeat_for_equal_seeds_and_differ_otherwise() {
        let inputs = generate_inputs(0.5);
        for (name, mix) in mixes(&inputs, 1) {
            let a = schedule(&mix, 1, 0, 500);
            assert_eq!(a, schedule(&mix, 1, 0, 500), "{name}");
            assert_ne!(a, schedule(&mix, 2, 0, 500), "{name}");
            assert_ne!(a, schedule(&mix, 1, 1, 500), "{name}");
        }
    }

    #[test]
    fn read_point_has_more_inlined_texts_than_the_plan_cache_holds() {
        let inputs = generate_inputs(0.5);
        let mix = read_point(&inputs, 1);
        let mut texts: Vec<String> = mix
            .templates
            .iter()
            .filter(|t| t.class == Class::B)
            .flat_map(|t| t.variants.iter().map(Request::encode))
            .collect();
        texts.sort();
        texts.dedup();
        assert!(texts.len() > 1024, "{} distinct texts", texts.len());
    }
}
