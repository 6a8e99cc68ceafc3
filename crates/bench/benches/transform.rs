//! Table 4 benchmark: transformation + loading time of S3PG vs the two
//! baselines on each emulated dataset.

use s3pg::pipeline;
use s3pg::Mode;
use s3pg_baselines::{NeoSemantics, Rdf2Pg};
use s3pg_bench::experiments::{prepare, Dataset, Scale};
use s3pg_bench::timing::{bench, section};

const SCALE: Scale = Scale(0.15);

fn main() {
    section("table4/transform");
    for dataset in Dataset::ALL {
        let prepared = prepare(dataset, SCALE);
        let graph = &prepared.generated.graph;
        bench(&format!("s3pg/{}", dataset.name()), || {
            pipeline::transform(graph, &prepared.shapes, Mode::Parsimonious)
        });
        bench(&format!("neosem/{}", dataset.name()), || {
            NeoSemantics::transform(graph)
        });
        bench(&format!("rdf2pg/{}", dataset.name()), || {
            Rdf2Pg::transform(graph)
        });
    }

    section("table4/load");
    for dataset in [Dataset::DBpedia2020, Dataset::Bio2RdfCt] {
        let prepared = prepare(dataset, SCALE);
        let out = pipeline::transform(
            &prepared.generated.graph,
            &prepared.shapes,
            Mode::Parsimonious,
        );
        bench(&format!("csv_roundtrip/{}", dataset.name()), || {
            pipeline::load(&out.pg)
        });
    }
}
