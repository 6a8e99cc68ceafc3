//! Figure 6 benchmark: query runtime per category on the source RDF graph
//! (SPARQL) and on the three transformed PGs (Cypher) — plus the
//! pre-planner scan baseline against planned evaluation on the workload
//! mix and on multi-pattern value joins, and index probe vs label scan on
//! equality-predicate queries.
//!
//! ```text
//! cargo bench --bench query_runtime -- [--scale F] [--inspect]
//! ```

use s3pg::query_translate;
use s3pg_baselines::NeoSemantics;
use s3pg_bench::experiments::{accuracy_context, Dataset, Scale};
use s3pg_bench::timing::{bench, bench_samples, section};
use s3pg_pg::{PropertyGraph, Value};
use s3pg_query::{cypher, sparql};
use s3pg_workloads::generate_queries;
use s3pg_workloads::QueryCategory;

fn main() {
    // `cargo bench` forwards arguments after `--`; it also passes
    // `--bench` itself, which is ignored like any other unknown flag.
    let mut scale = 0.15f64;
    let mut inspect = false;
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--scale" => {
                if let Some(v) = it.next().and_then(|v| v.parse::<f64>().ok()) {
                    scale = v;
                }
            }
            "--inspect" => inspect = true,
            _ => {}
        }
    }

    let cx = accuracy_context(Dataset::DBpedia2022, Scale(scale));
    if inspect {
        inspect_pg(&cx.s3pg.pg);
        return;
    }
    let graph = &cx.prepared.generated.graph;
    let queries = generate_queries(&cx.prepared.generated.meta, 1);

    section("figure6");
    for category in QueryCategory::ALL {
        let Some(q) = queries.iter().find(|q| q.category == category) else {
            continue;
        };
        let sparql_q = sparql::parse(&q.sparql).unwrap();
        let s3pg_q = cypher::parse(
            &query_translate::translate_str(&q.sparql, &cx.s3pg.schema.mapping).unwrap(),
        )
        .unwrap();
        let neo_q = cypher::parse(&NeoSemantics::query(Some(&q.class), &q.predicate)).unwrap();
        let r2p_q = cypher::parse(&cx.rdf2pg.query(Some(&q.class), &q.predicate)).unwrap();

        let name = category.name();
        bench(&format!("sparql/{name}"), || {
            sparql::evaluate(graph, &sparql_q).unwrap()
        });
        bench(&format!("s3pg/{name}"), || {
            cypher::evaluate(&cx.s3pg.pg, &s3pg_q).unwrap()
        });
        bench(&format!("neosem/{name}"), || {
            cypher::evaluate(&cx.neosem.pg, &neo_q).unwrap()
        });
        bench(&format!("rdf2pg/{name}"), || {
            cypher::evaluate(&cx.rdf2pg.pg, &r2p_q).unwrap()
        });
    }

    section("workload mix: scan vs planned");
    for q in &queries {
        let name = format!("{}-Q{}", q.category.name(), q.id);
        let sparql_q = sparql::parse(&q.sparql).unwrap();
        let s3pg_q = cypher::parse(
            &query_translate::translate_str(&q.sparql, &cx.s3pg.schema.mapping).unwrap(),
        )
        .unwrap();
        bench(&format!("cypher-scan/{name}"), || {
            cypher::evaluate_scan(&cx.s3pg.pg, &s3pg_q).unwrap()
        });
        bench(&format!("cypher/{name}"), || {
            cypher::evaluate(&cx.s3pg.pg, &s3pg_q).unwrap()
        });
        bench(&format!("sparql/{name}"), || {
            sparql::evaluate(graph, &sparql_q).unwrap()
        });
    }

    // Two MATCH patterns sharing a carrier variable: the planner
    // reverse-anchors the second pattern instead of rescanning its bucket.
    section("multi-pattern value joins: scan vs planned");
    for text in join_queries(&cx.s3pg.pg, 3) {
        let parsed = cypher::parse(&text).unwrap();
        let tag = short_tag(&text);
        let scan = bench_samples(&format!("join-scan/{tag}"), || {
            cypher::evaluate_scan(&cx.s3pg.pg, &parsed).unwrap()
        });
        let planned = bench_samples(&format!("join/{tag}"), || {
            cypher::evaluate(&cx.s3pg.pg, &parsed).unwrap()
        });
        let speedup = scan.p50.as_nanos() as f64 / planned.p50.as_nanos().max(1) as f64;
        println!("{tag:<56} planned vs scan {speedup:.1}x (p50)");
    }

    section("equality predicates: index vs scan");
    for (label, key, literal) in equality_targets(&cx.s3pg.pg, 4) {
        let text = format!("MATCH (n:{label}) WHERE n.{key} = {literal} RETURN n.{key}");
        let parsed = cypher::parse(&text).unwrap();
        let tag = format!("{label}.{key}");
        let scan = bench_samples(&format!("eq-scan/{tag}"), || {
            cypher::evaluate_scan(&cx.s3pg.pg, &parsed).unwrap()
        });
        let indexed = bench_samples(&format!("eq-index/{tag}"), || {
            cypher::evaluate(&cx.s3pg.pg, &parsed).unwrap()
        });
        let speedup = scan.p50.as_nanos() as f64 / indexed.p50.as_nanos().max(1) as f64;
        println!("{tag:<56} index speedup {speedup:.1}x (p50)");
    }
}

/// First 3 tokens of a query as a display tag.
fn short_tag(query: &str) -> String {
    query
        .split_whitespace()
        .take(3)
        .collect::<Vec<_>>()
        .join(" ")
}

/// Build up to `limit` two-pattern value-join queries from the PG: pairs
/// of entity classes that reach the same literal carrier through the same
/// multi-type edge label (the paper's shared-property-value join shape).
/// Ranked by estimated join work, biggest first, so the benchmark
/// exercises the heaviest joins the dataset offers.
fn join_queries(pg: &PropertyGraph, limit: usize) -> Vec<String> {
    use std::collections::BTreeMap;
    // edge label → (src label → edge count)
    let mut by_edge: BTreeMap<String, BTreeMap<String, usize>> = BTreeMap::new();
    for id in pg.edge_ids() {
        let src = pg.edge(id).src;
        for el in pg.edge_labels_of(id) {
            if !identifier_safe(el) {
                continue;
            }
            let entry = by_edge.entry(el.to_string()).or_default();
            for sl in pg.labels_of(src) {
                if identifier_safe(sl) {
                    *entry.entry(sl.to_string()).or_insert(0) += 1;
                }
            }
        }
    }
    let mut ranked: Vec<(usize, String)> = Vec::new();
    for (el, srcs) in &by_edge {
        if srcs.len() < 2 {
            continue;
        }
        let mut classes: Vec<(&String, &usize)> = srcs.iter().collect();
        classes.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
        let (l1, n1) = classes[0];
        let (l2, n2) = classes[1];
        ranked.push((
            n1 * n2,
            format!("MATCH (a:{l1})-[:{el}]->(v) MATCH (b:{l2})-[:{el}]->(v) RETURN a.iri, b.iri"),
        ));
    }
    ranked.sort_by(|a, b| b.0.cmp(&a.0).then_with(|| a.1.cmp(&b.1)));
    ranked.into_iter().take(limit).map(|(_, q)| q).collect()
}

/// `--inspect`: dump label and edge-label cardinalities plus a sample
/// node per label, for designing benchmark queries against the
/// transformed graph without guessing at its shape.
fn inspect_pg(pg: &PropertyGraph) {
    let mut labels = std::collections::BTreeMap::new();
    let mut edge_labels = std::collections::BTreeMap::new();
    for id in pg.node_ids() {
        for label in pg.labels_of(id) {
            *labels.entry(label.to_string()).or_insert(0usize) += 1;
        }
    }
    for id in pg.edge_ids() {
        for label in pg.edge_labels_of(id) {
            *edge_labels.entry(label.to_string()).or_insert(0usize) += 1;
        }
    }
    println!("nodes={} edges={}", pg.node_count(), pg.edge_count());
    for (label, n) in &labels {
        let sample = pg.nodes_with_label(label).first().map(|&id| {
            let node = pg.node(id);
            let keys: Vec<&str> = node.props.iter().map(|(k, _)| pg.resolve(*k)).collect();
            let degree = pg.out_edges(id).count();
            format!("keys={keys:?} out_degree={degree}")
        });
        println!("label {label:<40} {n:>8}  {}", sample.unwrap_or_default());
    }
    for (label, n) in &edge_labels {
        println!("edge  {label:<40} {n:>8}");
    }
}

/// Whether `s` can appear bare as a Cypher label/key identifier.
fn identifier_safe(s: &str) -> bool {
    !s.is_empty()
        && s.chars().next().is_some_and(|c| c.is_ascii_alphabetic())
        && s.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Pick up to `limit` real `(label, key, literal)` equality targets from
/// the PG, largest label first, so index-vs-scan is measured on the same
/// data the workload queries touch. The literal is the first bucket
/// node's value — any present value works, since scan cost is the label
/// cardinality regardless of selectivity.
fn equality_targets(pg: &PropertyGraph, limit: usize) -> Vec<(String, String, String)> {
    let mut labels: Vec<(String, usize)> = {
        let mut set = std::collections::BTreeMap::new();
        for id in pg.node_ids() {
            for label in pg.labels_of(id) {
                *set.entry(label.to_string()).or_insert(0usize) += 1;
            }
        }
        set.into_iter().collect()
    };
    labels.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));

    let mut out = Vec::new();
    for (label, _) in labels {
        if out.len() >= limit {
            break;
        }
        if !identifier_safe(&label) {
            continue;
        }
        let Some(&node) = pg.nodes_with_label(&label).first() else {
            continue;
        };
        let target = pg.node(node).props.iter().find_map(|(k, v)| {
            let key = pg.resolve(*k);
            if !identifier_safe(key) {
                return None;
            }
            match v {
                Value::String(s) if !s.contains(['"', '\\']) => {
                    Some((key.to_string(), format!("{s:?}")))
                }
                Value::Int(i) => Some((key.to_string(), i.to_string())),
                _ => None,
            }
        });
        if let Some((key, literal)) = target {
            out.push((label, key, literal));
        }
    }
    out
}
