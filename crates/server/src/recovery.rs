//! Boot-time recovery: checkpoint load + WAL tail replay.
//!
//! A durable server (`--wal-dir`) reconstructs its state in three steps:
//!
//! 1. **Base** — the newest intact checkpoint's `rdf.nt`, if one exists;
//!    otherwise the `--data` file. Either way the base is re-transformed
//!    through the full pipeline, which deterministically re-derives every
//!    piece of writer-side state (PG, schema transform, incremental state) —
//!    nothing but the RDF text needs to survive a crash.
//! 2. **Tail replay** — WAL records with `seq >` the checkpoint's are
//!    replayed through [`s3pg::incremental::replay_deltas`], which
//!    coalesces runs of additions-only records into single batched
//!    ingests (monotonicity, §4.2.1: additions commute into one delta).
//! 3. **Adopt** — when the tail was empty the checkpoint's `compact.bin`
//!    is served as-is, skipping the startup freeze, provided it was
//!    frozen under the current mapping semantics
//!    ([`s3pg_wal::MAPPING_SEMANTICS`]); an older one is re-frozen from
//!    the transformed `rdf.nt`.
//!
//! `PG ⊨ S_PG` is checked once per boot: by the transform when nothing
//! replays on top of it, else after the replay.
//!
//! The recovered store ends at exactly the state of the pre-crash store
//! at its last *committed* (fsynced) record — the crash-recovery
//! differential test in `tests/durability.rs` checks this equivalence
//! against a never-killed reference, record for record.

use crate::store::{boot_step, GraphStore, StoreParts};
use s3pg::pipeline::{self, transform_unchecked};
use s3pg::Mode;
use s3pg_obs::{tracer, Registry};
use s3pg_rdf::parser::parse_ntriples;
use s3pg_rdf::Graph;
use s3pg_shacl::parser::parse_shacl_turtle;
use s3pg_shacl::{extract_shapes, ShapeSchema};
use s3pg_wal::{load_latest, Wal, WalOptions, MAPPING_SEMANTICS};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// What recovery needs to know (a subset of the CLI options).
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// The cold-start data file, used when no checkpoint exists.
    pub data: PathBuf,
    /// Explicit SHACL shapes; `None` extracts them from the base graph.
    pub shapes: Option<PathBuf>,
    pub mode: Mode,
    /// WAL directory; `None` builds an ephemeral store.
    pub wal_dir: Option<PathBuf>,
    pub wal_options: WalOptions,
}

/// A recovered, servable store plus a boot report.
pub struct RecoveredStore {
    pub store: Arc<GraphStore>,
    /// One human-readable line per notable recovery step.
    pub report: Vec<String>,
}

fn load_shapes(config: &RecoveryConfig, base: &Graph) -> Result<ShapeSchema, String> {
    match &config.shapes {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            parse_shacl_turtle(&text).map_err(|e| e.to_string())
        }
        None => Ok(extract_shapes(base)),
    }
}

/// The `transform` step of a boot: the shapes, then the whole pipeline —
/// without its closing check when a WAL tail will change the graph first
/// (`from_parts` checks after the replay instead).
fn transform(
    config: &RecoveryConfig,
    registry: &Registry,
    rdf: Graph,
    tail_follows: bool,
) -> Result<StoreParts, String> {
    boot_step(registry, "transform", || {
        let shapes = load_shapes(config, &rdf)?;
        Ok(if tail_follows {
            let (schema, data) = transform_unchecked(&rdf, &shapes, config.mode);
            StoreParts {
                rdf,
                pg: data.pg,
                schema,
                state: data.state,
                conformance: None,
            }
        } else {
            let out = pipeline::transform(&rdf, &shapes, config.mode);
            StoreParts {
                rdf,
                pg: out.pg,
                schema: out.schema,
                state: out.state,
                conformance: Some(out.conformance),
            }
        })
    })
}

/// Build the store: either ephemeral (no WAL) or recovered from
/// checkpoint + WAL tail. `registry` is the serving registry created
/// before recovery began, so recovery metrics (WAL bytes, fsyncs) are
/// visible from the first scrape. The whole boot is one `boot` span whose
/// children — `parse`, `transform`, `replay` on a durable store, `freeze`
/// — are also the `s3pg_boot_step_seconds{step=…}` gauges.
pub fn recover(config: &RecoveryConfig, registry: Arc<Registry>) -> Result<RecoveredStore, String> {
    let tracer = tracer();
    let _boot = tracer.span(tracer.new_trace(), "boot");
    let Some(wal_dir) = config.wal_dir.clone() else {
        let base = boot_step(&registry, "parse", || s3pg::cli::load_graph(&config.data))?;
        let parts = transform(config, &registry, base, false)?;
        return Ok(RecoveredStore {
            store: Arc::new(GraphStore::from_parts(parts, registry, None, 0, None)),
            report: vec![
                "ephemeral store (no --wal-dir): updates do not survive restart".to_string(),
            ],
        });
    };
    recover_durable(config, &wal_dir, registry)
}

fn recover_durable(
    config: &RecoveryConfig,
    wal_dir: &Path,
    registry: Arc<Registry>,
) -> Result<RecoveredStore, String> {
    let mut report = Vec::new();
    let checkpoint = load_latest(wal_dir)
        .map_err(|e| format!("cannot scan checkpoints in {}: {e}", wal_dir.display()))?;

    let (base, base_seq, prebuilt) = match checkpoint {
        Some(cp) => {
            let graph = boot_step(&registry, "parse", || parse_ntriples(&cp.rdf))
                .map_err(|e| format!("checkpoint {} rdf.nt is unparsable: {e}", cp.seq))?;
            report.push(format!(
                "loaded checkpoint seq={} ({} triples{})",
                cp.seq,
                graph.len(),
                if cp.compact.is_some() {
                    ", with compact snapshot".to_string()
                } else if cp.semantics != MAPPING_SEMANTICS {
                    format!(
                        "; its compact snapshot predates mapping semantics \
                         {MAPPING_SEMANTICS} and is re-frozen"
                    )
                } else {
                    String::new()
                }
            ));
            (graph, cp.seq, cp.compact)
        }
        None => {
            let graph = boot_step(&registry, "parse", || s3pg::cli::load_graph(&config.data))?;
            report.push(format!(
                "no checkpoint; cold start from {} ({} triples)",
                config.data.display(),
                graph.len()
            ));
            (graph, 0, None)
        }
    };

    let (wal, recovered) = Wal::open(wal_dir, config.wal_options, &registry)
        .map_err(|e| format!("cannot open WAL in {}: {e}", wal_dir.display()))?;
    if recovered.truncated_bytes > 0 {
        report.push(format!(
            "truncated {} torn byte(s) from the WAL tail (interrupted append)",
            recovered.truncated_bytes
        ));
    }

    // A checkpoint at seq N implies the WAL once reached N. If the log
    // now ends below that (segments deleted, partial restore), a fresh
    // tail would hand new updates sequence numbers 1..N that the *next*
    // restart filters out as already covered by the checkpoint —
    // acknowledged writes would silently vanish. Refuse to boot instead.
    if base_seq > 0 && wal.last_seq() < base_seq {
        return Err(format!(
            "WAL behind checkpoint: checkpoint covers through seq {base_seq} but the WAL \
             ends at seq {} — the WAL directory was emptied or restored incompletely. \
             Restore the missing WAL segments, or remove the checkpoint directories to \
             cold-start from --data with a fresh log.",
            wal.last_seq()
        ));
    }

    // Only the tail past the checkpoint replays. A gap would mean records
    // the checkpoint doesn't cover were pruned — unrecoverable, so fail
    // loudly rather than serve a silently incomplete graph.
    let tail: Vec<_> = recovered
        .records
        .into_iter()
        .filter(|r| r.seq > base_seq)
        .collect();
    if let Some(first) = tail.first() {
        if first.seq != base_seq + 1 {
            return Err(format!(
                "WAL gap: checkpoint covers through seq {}, oldest surviving record is {}",
                base_seq, first.seq
            ));
        }
    }
    let applied_seq = tail.last().map(|r| r.seq).unwrap_or(base_seq);

    let mut parts = transform(config, &registry, base, !tail.is_empty())?;
    let outcome = boot_step(&registry, "replay", || {
        s3pg::incremental::replay_deltas(
            &mut parts.rdf,
            &mut parts.pg,
            &mut parts.schema,
            &mut parts.state,
            tail.iter()
                .map(|r| (r.additions.as_str(), r.deletions.as_str())),
        )
    })
    .map_err(|e| format!("WAL replay failed at a logged record: {e}"))?;
    if outcome.records > 0 {
        report.push(format!(
            "replayed {} WAL record(s) in {} batch(es): +{} triples, -{} removals",
            outcome.records, outcome.batches, outcome.added_triples, outcome.removed
        ));
    }

    // The checkpoint's frozen snapshot is only exact when nothing was
    // replayed on top of it; otherwise from_parts re-freezes.
    let prebuilt = if tail.is_empty() {
        prebuilt.map(Arc::new)
    } else {
        None
    };

    let store = Arc::new(GraphStore::from_parts(
        parts,
        registry,
        Some(Arc::new(wal)),
        applied_seq,
        prebuilt,
    ));
    store.note_checkpoint(base_seq);
    report.push(format!(
        "durable: WAL at seq {} in {}",
        applied_seq,
        wal_dir.display()
    ));
    Ok(RecoveredStore { store, report })
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3pg_wal::write_checkpoint;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("s3pg-recovery-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config(dir: &Path, data: &Path) -> RecoveryConfig {
        RecoveryConfig {
            data: data.to_path_buf(),
            shapes: None,
            mode: Mode::Parsimonious,
            wal_dir: Some(dir.join("wal")),
            wal_options: WalOptions::default(),
        }
    }

    const BASE: &str = "<http://ex/alice> <http://ex/knows> <http://ex/bob> .\n\
                        <http://ex/alice> <http://ex/name> \"Alice\" .\n";

    #[test]
    fn cold_start_then_reopen_replays_wal_tail() {
        let dir = temp_dir("cold");
        let data = dir.join("base.nt");
        std::fs::write(&data, BASE).unwrap();
        let cfg = config(&dir, &data);

        let registry = Arc::new(Registry::new());
        let first = recover(&cfg, registry).unwrap();
        let before = first.store.snapshot().pg.node_count();
        first
            .store
            .apply_update("<http://ex/carol> <http://ex/name> \"Carol\" .\n", "")
            .unwrap();
        first.store.sync_wal().unwrap();
        assert_eq!(first.store.applied_seq(), 1);
        drop(first);

        let second = recover(&cfg, Arc::new(Registry::new())).unwrap();
        assert_eq!(second.store.applied_seq(), 1);
        assert!(second.store.snapshot().pg.node_count() > before);
        assert!(second
            .report
            .iter()
            .any(|l| l.contains("replayed 1 WAL record")));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_base_skips_replayed_prefix() {
        let dir = temp_dir("ckpt");
        let data = dir.join("base.nt");
        std::fs::write(&data, BASE).unwrap();
        let cfg = config(&dir, &data);

        let first = recover(&cfg, Arc::new(Registry::new())).unwrap();
        for i in 0..5 {
            first
                .store
                .apply_update(
                    &format!("<http://ex/n{i}> <http://ex/name> \"N{i}\" .\n"),
                    "",
                )
                .unwrap();
        }
        assert_eq!(first.store.checkpoint().unwrap(), Some(5));
        drop(first);

        let second = recover(&cfg, Arc::new(Registry::new())).unwrap();
        assert_eq!(second.store.applied_seq(), 5);
        assert_eq!(second.store.checkpoint_seq(), 5);
        // Nothing replays: the checkpoint covered every record.
        assert!(second.report.iter().any(|l| l.contains("checkpoint seq=5")));
        assert!(!second.report.iter().any(|l| l.contains("replayed")));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_from_older_semantics_is_re_frozen_not_adopted() {
        let dir = temp_dir("semantics");
        let data = dir.join("base.nt");
        std::fs::write(&data, BASE).unwrap();
        let cfg = config(&dir, &data);
        let first = recover(&cfg, Arc::new(Registry::new())).unwrap();
        first
            .store
            .apply_update("<http://ex/n0> <http://ex/name> \"N0\" .\n", "")
            .unwrap();
        assert_eq!(first.store.checkpoint().unwrap(), Some(1));
        let nodes = first.store.snapshot().pg.node_count();
        drop(first);

        // Strip the stamp, as a checkpoint written before it existed.
        let checkpoint = cfg
            .wal_dir
            .clone()
            .unwrap()
            .join("checkpoint-0000000000000001");
        let meta = std::fs::read_to_string(checkpoint.join("META")).unwrap();
        assert!(meta.contains("compact=present"), "{meta}");
        let unstamped: String = meta
            .lines()
            .filter(|l| !l.starts_with("semantics="))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(checkpoint.join("META"), unstamped).unwrap();

        let second = recover(&cfg, Arc::new(Registry::new())).unwrap();
        assert_eq!(second.store.applied_seq(), 1);
        assert!(
            second.report.iter().any(|l| l.contains("is re-frozen")),
            "{:?}",
            second.report
        );
        assert_eq!(second.store.snapshot().pg.node_count(), nodes);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn emptied_wal_beside_a_checkpoint_is_fatal() {
        let dir = temp_dir("emptied");
        let data = dir.join("base.nt");
        std::fs::write(&data, BASE).unwrap();
        let cfg = config(&dir, &data);

        let first = recover(&cfg, Arc::new(Registry::new())).unwrap();
        for i in 0..3 {
            first
                .store
                .apply_update(
                    &format!("<http://ex/n{i}> <http://ex/name> \"N{i}\" .\n"),
                    "",
                )
                .unwrap();
        }
        assert_eq!(first.store.checkpoint().unwrap(), Some(3));
        drop(first);

        // Operator error: every WAL segment deleted, checkpoints kept. A
        // fresh log would restart numbering at 1 and the *next* boot
        // would filter those records as already covered by seq 3.
        let wal_dir = cfg.wal_dir.clone().unwrap();
        for entry in std::fs::read_dir(&wal_dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_some_and(|e| e == "seg") {
                std::fs::remove_file(&path).unwrap();
            }
        }

        let err = match recover(&cfg, Arc::new(Registry::new())) {
            Err(err) => err,
            Ok(_) => panic!("an emptied WAL beside a checkpoint must fail recovery"),
        };
        assert!(err.contains("WAL behind checkpoint"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gap_between_checkpoint_and_wal_is_fatal() {
        let dir = temp_dir("gap");
        let data = dir.join("base.nt");
        std::fs::write(&data, BASE).unwrap();
        let cfg = config(&dir, &data);
        let wal_dir = cfg.wal_dir.clone().unwrap();
        std::fs::create_dir_all(&wal_dir).unwrap();

        // A checkpoint covering through seq 1, but the only surviving WAL
        // segment starts at seq 3 — record 2 is gone. Recovery must
        // refuse to serve the silently incomplete graph.
        write_checkpoint(&wal_dir, 1, BASE, None).unwrap();
        let mut frame = Vec::new();
        s3pg_wal::Record {
            seq: 3,
            additions: "<http://ex/z> <http://ex/name> \"Z\" .\n".to_string(),
            deletions: String::new(),
        }
        .encode_into(&mut frame);
        std::fs::write(wal_dir.join(format!("wal-{:016x}.seg", 3)), &frame).unwrap();

        let err = match recover(&cfg, Arc::new(Registry::new())) {
            Err(err) => err,
            Ok(_) => panic!("a pruned-away record must fail recovery"),
        };
        assert!(err.contains("WAL gap"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
