//! The served graph state: concurrent snapshot reads, serialized
//! monotonic writes.
//!
//! Reads and writes are decoupled the way the paper's incremental result
//! (§4.2.1) makes possible:
//!
//! * **Read path** — an [`RwLock`] guards an [`Arc`]`<`[`Snapshot`]`>`.
//!   Readers hold the lock only long enough to clone the `Arc`, then run
//!   Cypher/SPARQL on the immutable snapshot entirely lock-free, so any
//!   number of queries execute concurrently and a long-running query never
//!   blocks an update (or another query).
//! * **Write path** — a [`Mutex`] serializes writers. A delta is parsed,
//!   then applied through [`s3pg::incremental`]'s monotone update
//!   algorithm — no re-transformation — to a side no reader can see, which
//!   is then swapped in. Readers that grabbed the old snapshot finish on
//!   the old state; new reads see the new one. An acknowledged update is
//!   therefore visible to every read that starts after the ack.
//!
//! ## Left-right publication
//!
//! Two full copies of the graph are resident either way (what readers see,
//! and what the writer may mutate), so both are kept *publishable*: every
//! [`Snapshot`] carries the schema transform and incremental state a
//! writer needs, and the one that is not live waits, as the *standby*,
//! behind the writer mutex together with the one delta it has not seen.
//! An update takes the standby out of its `Arc`
//! ([`Arc::try_unwrap`] succeeds only when no reader, checkpoint or freeze
//! still holds it — so no reader can ever observe a mutation), applies the
//! missed delta, applies the new one, checks `PG ⊨ S_PG`, publishes it,
//! and the snapshot it superseded becomes the next standby. Both sides see
//! the same deltas in the same order through the same deterministic apply
//! ([`apply_delta_mirrored`]), so they stay identical down to node ids.
//!
//! When the standby is still held elsewhere (a query, checkpoint or freeze
//! that outlived one inter-update gap) or does not exist yet (the first
//! update after startup), the update deep-copies the live snapshot instead
//! — the only O(|G|) copy left, counted as
//! `s3pg_update_side_total{outcome="cloned"}` against `outcome="reused"`.
//! It never waits for a reader. A superseded snapshot is freed by whoever
//! drops its last `Arc`; on the reuse path no graph is freed at all.
//!
//! ## What an update pays
//!
//! Under the writer lock an update is O(|Δ|) on the reuse path: catching
//! the standby up and applying the delta touch what the two deltas touch,
//! and the check is [`conformance::check_since`] — every snapshot keeps its
//! report, and the side's graph records what its two deltas changed, so
//! only those elements are re-decided (EXPERIMENTS.md, "An O(|Δ|)
//! acknowledged update"). The whole-graph check runs only when an update
//! widened the schema or the side has no record of its changes, counted as
//! `s3pg_conformance_checks_total{scope="full"}` against `scope="delta"`.
//! The one O(|G|) step left on the lock is the fallback copy: ≈ 10 ms in
//! a warm loop at 37k triples, 20–30 ms into freshly mapped memory in a
//! live server. Off the lock, the `s3pg-freeze` thread re-freezes the
//! snapshot (≈ 10 ms, `s3pg_compaction_wall_microseconds`) and walks it
//! for the memory gauges; the fsync that acknowledges the update waits
//! for company only when writers are arriving together (see
//! `s3pg_wal::log`). The server reports the steps as
//! `s3pg_update_clone_microseconds` ("obtain a writable side", whichever
//! way), `s3pg_update_conformance_microseconds` and
//! `s3pg_update_commit_microseconds`.
//!
//! ## Background compaction
//!
//! Each published snapshot is additionally *frozen* into a read-optimized
//! [`CompactGraph`] (CSR adjacency + graph-wide value dictionary) that the
//! Cypher read path prefers when present. The startup snapshot freezes
//! synchronously — the server never serves its initial graph from the
//! mutable form. Updates publish the mutable snapshot immediately (an
//! acknowledged update is visible to the very next read) and compact on a
//! detached background thread; the compact form lands in the snapshot's
//! [`OnceLock`] in place, so readers that grabbed the snapshot before
//! compaction finished simply keep using the mutable PG, and no second
//! snapshot swap (or epoch bump) is needed — plans are computed from
//! cardinality statistics that are identical across both representations,
//! so one epoch covers both. A compaction whose snapshot was already
//! superseded by a newer update is skipped. While it runs, the freeze
//! thread holds its snapshot like any reader, so an update that finds it
//! on the standby takes the copy; when a superseded snapshot comes back
//! into use its frozen form is outdated and is handed to the next freeze
//! thread to free.

use s3pg::data_transform::TransformState;
use s3pg::incremental::{apply_delta_mirrored, parse_delta, MirroredOutcome};
use s3pg::pipeline::transform;
use s3pg::schema_transform::SchemaTransform;
use s3pg::{Mode, S3pgError};
use s3pg_obs::{tracer, Registry};
use s3pg_pg::conformance::{self, ConformanceReport};
use s3pg_pg::{CompactGraph, PropertyGraph};
use s3pg_rdf::serializer::to_ntriples;
use s3pg_rdf::Graph;
use s3pg_shacl::ShapeSchema;
use s3pg_wal::{Wal, WalError};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock, RwLock};
use std::time::Instant;

/// An immutable point-in-time view served to readers.
#[derive(Debug)]
pub struct Snapshot {
    /// The source RDF graph (SPARQL endpoint reads this).
    pub rdf: Graph,
    /// The transformed property graph (Cypher endpoint reads this).
    pub pg: PropertyGraph,
    /// `PG ⊨ S_PG` for this snapshot: the failures, if any. The next
    /// update's delta-scoped check starts from it.
    pub conformance: ConformanceReport,
    /// Monotone publication counter: 0 for the startup snapshot, +1 per
    /// applied update. The server's plan cache tags each cached query plan
    /// with the epoch it was computed against; an epoch mismatch means the
    /// graph (and so its cardinality statistics) changed and the plan is
    /// recomputed from the cached AST.
    pub epoch: u64,
    /// WAL sequence number this snapshot reflects: every logged record
    /// with `seq <=` this is folded in. Stays 0 on a store without a WAL.
    pub seq: u64,
    /// The read-optimized frozen form of [`pg`](Snapshot::pg), filled by
    /// background compaction after publication (synchronously for the
    /// startup snapshot). Empty only in the window between an update's
    /// publication and its compaction finishing.
    compact: OnceLock<Arc<CompactGraph>>,
    /// [`Snapshot::mem_bytes`], walked once on first use.
    mem_bytes: OnceLock<u64>,
    /// What a writer needs to apply the next delta to this snapshot once it
    /// is the standby (see the module docs); readers never look at these.
    schema: SchemaTransform,
    state: TransformState,
}

impl Snapshot {
    /// The compact form, once background compaction has landed it.
    pub fn compact(&self) -> Option<&Arc<CompactGraph>> {
        self.compact.get()
    }

    /// Whether `PG ⊨ S_PG` held when this snapshot was published.
    pub fn conforms(&self) -> bool {
        self.conformance.conforms()
    }

    /// Estimated resident footprint of this snapshot in bytes (deep size
    /// of the RDF store plus the PG store, including index capacity). The
    /// walk runs once, normally on the freeze thread that sets the memory
    /// gauges.
    pub fn mem_bytes(&self) -> u64 {
        *self
            .mem_bytes
            .get_or_init(|| (self.rdf.deep_size_bytes() + self.pg.deep_size_bytes()) as u64)
    }
}

/// What an applied delta changed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UpdateSummary {
    pub added_nodes: u64,
    pub added_edges: u64,
    pub added_properties: u64,
    pub removed: u64,
    /// Whether the post-update PG still conforms to the (possibly widened)
    /// schema.
    pub conforms: bool,
}

/// The side that is not published: the snapshot the last update
/// superseded, and the delta — `(additions, deletions)` — that update
/// applied to the other side, which this one has therefore not seen.
struct Standby {
    snapshot: Arc<Snapshot>,
    missed: (Graph, Graph),
}

/// Concurrently readable, serially updatable graph store.
pub struct GraphStore {
    /// `Arc` so detached compaction threads can re-check which snapshot is
    /// current without borrowing the store.
    snapshot: Arc<RwLock<Arc<Snapshot>>>,
    /// Serializes writers. `None` until the first update.
    writer: Mutex<Option<Standby>>,
    /// Next snapshot's epoch (the startup snapshot is 0). Bumped under the
    /// writer lock, so epochs are published in apply order.
    epoch: AtomicU64,
    /// Per-store metrics: memory gauges, snapshot sizes, update counter.
    /// The server shares this registry for its endpoint metrics, so one
    /// exposition covers both layers.
    registry: Arc<Registry>,
    /// The write-ahead log, when the store is durable. Appends happen
    /// under the writer lock (so WAL order is apply order); the fsync
    /// rendezvous in [`Wal::commit`] happens *after* the lock is released,
    /// which is what lets concurrent writers share one flush.
    wal: Option<Arc<Wal>>,
    /// Newest WAL sequence number folded into the served graph. Written
    /// under the writer lock, read lock-free by status endpoints.
    applied_seq: AtomicU64,
    /// Sequence number covered by the newest on-disk checkpoint (0 = none).
    checkpoint_seq: AtomicU64,
}

/// The two models and the state that steps them together: what a recovered
/// (or freshly transformed) graph hands to [`GraphStore::from_parts`], and
/// what a writer holds of a side while it mutates it.
pub struct StoreParts {
    pub rdf: Graph,
    pub pg: PropertyGraph,
    pub schema: SchemaTransform,
    pub state: TransformState,
    /// `PG ⊨ S_PG` for exactly this state, when the caller already checked
    /// it (a transform's own report); `from_parts` checks when `None`. A
    /// writer's side carries `None`.
    pub conformance: Option<ConformanceReport>,
}

impl StoreParts {
    /// Apply one parsed delta to both models (deletions first).
    pub fn apply(&mut self, additions: &Graph, deletions: &Graph) -> MirroredOutcome {
        apply_delta_mirrored(
            &mut self.rdf,
            &mut self.pg,
            &mut self.schema,
            &mut self.state,
            additions,
            deletions,
        )
    }
}

/// Terminate the process: the in-memory graph has mutated but the WAL
/// could not record (or flush) the delta, so serving on would hand out
/// acknowledgements the log cannot honour after a restart. An abort (not
/// a panic) because the server catches handler panics per request — a
/// divergence this fundamental must not be survivable.
fn fail_stop(message: &str) -> ! {
    eprintln!("fatal: {message}");
    std::process::abort();
}

/// Run one step of the write path as a span under the caller's
/// innermost open span and record its wall time in `histogram`.
fn timed_step<T>(
    registry: &Registry,
    span: &'static str,
    histogram: &str,
    step: impl FnOnce() -> T,
) -> T {
    let _span = s3pg_obs::tracer().span_here(span);
    let started = Instant::now();
    let out = step();
    registry
        .histogram(histogram)
        .record_micros(started.elapsed().as_micros() as u64);
    out
}

/// Build a snapshot and publish its size and conformance gauges to
/// `registry` (the memory gauges are [`memory_gauges`], off the lock).
fn publish(
    registry: &Registry,
    parts: StoreParts,
    conformance: ConformanceReport,
    epoch: u64,
    seq: u64,
) -> Arc<Snapshot> {
    let StoreParts {
        rdf,
        pg,
        schema,
        state,
        ..
    } = parts;
    let conforms = conformance.conforms();
    registry
        .gauge("s3pg_snapshot_triples")
        .set_u64(rdf.len() as u64);
    registry
        .gauge("s3pg_snapshot_nodes")
        .set_u64(pg.node_count() as u64);
    registry
        .gauge("s3pg_snapshot_edges")
        .set_u64(pg.edge_count() as u64);
    registry
        .gauge("s3pg_snapshot_conforms")
        .set_u64(u64::from(conforms));
    registry
        .gauge("s3pg_snapshot_nonconforming_elements")
        .set_u64(conformance.failures.len() as u64);
    registry.gauge("s3pg_applied_seq").set_u64(seq);
    Arc::new(Snapshot {
        rdf,
        pg,
        conformance,
        epoch,
        seq,
        compact: OnceLock::new(),
        mem_bytes: OnceLock::new(),
        schema,
        state,
    })
}

/// Walk `snap` for the memory gauges (and its [`Snapshot::mem_bytes`]).
/// O(|G|): the freeze thread runs it, never the writer.
fn memory_gauges(registry: &Registry, snap: &Snapshot) {
    let rdf_bytes = snap.rdf.deep_size_bytes() as u64;
    let pg_bytes = snap.pg.deep_size_bytes() as u64;
    let _ = snap.mem_bytes.set(rdf_bytes + pg_bytes);
    registry.gauge("s3pg_mem_rdf_bytes").set_u64(rdf_bytes);
    registry.gauge("s3pg_mem_pg_bytes").set_u64(pg_bytes);
    registry
        .gauge("s3pg_mem_pg_prop_index_bytes")
        .set_u64(snap.pg.prop_index_size_bytes() as u64);
    registry
        .gauge("s3pg_mem_total_bytes")
        .set_u64(rdf_bytes + pg_bytes);
}

/// Freeze `snap.pg` into its compact form, publish the compaction gauges,
/// and land the result in the snapshot's `OnceLock`.
fn compact_into(registry: &Registry, snap: &Snapshot) {
    let started = Instant::now();
    let compact = Arc::new(snap.pg.freeze());
    registry
        .gauge("s3pg_compaction_wall_microseconds")
        .set_u64(started.elapsed().as_micros() as u64);
    registry
        .gauge("s3pg_mem_pg_compact_bytes")
        .set_u64(compact.deep_size_bytes() as u64);
    registry
        .gauge("s3pg_pg_dict_entries")
        .set_u64(compact.dict_len() as u64);
    registry
        .gauge("s3pg_mem_pg_dict_bytes")
        .set_u64(compact.dict_size_bytes() as u64);
    registry.counter("s3pg_compactions_total").inc();
    // `set` can only lose a race against another compaction of the same
    // snapshot, which `apply_update` never spawns; ignore the result.
    let _ = snap.compact.set(compact);
}

/// The update-path check counter for one [`conformance::CheckScope`].
fn checks_total(scope: &str) -> String {
    format!("s3pg_conformance_checks_total{{scope=\"{scope}\"}}")
}

/// Run one step of a cold start or recovery as a child of the open `boot`
/// span and leave its wall time in `s3pg_boot_step_seconds{step=…}`: the
/// split of what a benchmark sees as `setup_s`. Set once per process.
pub(crate) fn boot_step<T>(registry: &Registry, step: &'static str, run: impl FnOnce() -> T) -> T {
    let _span = tracer().span_here(step);
    let started = Instant::now();
    let out = run();
    registry
        .gauge(&format!("s3pg_boot_step_seconds{{step=\"{step}\"}}"))
        .set(started.elapsed().as_secs_f64());
    out
}

impl GraphStore {
    /// Transform `rdf` under `shapes` and serve the result, without a WAL
    /// (an ephemeral store: tests, benchmarks, `--wal-dir`-less serving).
    /// Steady-state updates go through the incremental path.
    pub fn new(rdf: Graph, shapes: &ShapeSchema, mode: Mode) -> GraphStore {
        let out = transform(&rdf, shapes, mode);
        GraphStore::from_parts(
            StoreParts {
                rdf,
                pg: out.pg,
                schema: out.schema,
                state: out.state,
                conformance: Some(out.conformance),
            },
            Arc::new(Registry::new()),
            None,
            0,
            None,
        )
    }

    /// Serve an already-built graph — the recovery path's constructor;
    /// `parts` is published as it stands, not copied, and checked unless it
    /// carries its report. From here on its graph records what each update
    /// touches. `applied_seq` is the
    /// newest WAL sequence number folded into `parts` (0 for a fresh
    /// graph); `prebuilt_compact` short-cuts the synchronous startup freeze
    /// when a checkpoint supplied a frozen form that is still exact (no WAL
    /// tail was replayed on top of it).
    pub fn from_parts(
        mut parts: StoreParts,
        registry: Arc<Registry>,
        wal: Option<Arc<Wal>>,
        applied_seq: u64,
        prebuilt_compact: Option<Arc<CompactGraph>>,
    ) -> GraphStore {
        let conformance = match parts.conformance.take() {
            Some(report) => report,
            None => conformance::check(&parts.pg, &parts.schema.pg_schema),
        };
        // Turn change recording on: the first update's check is then
        // delta-scoped too, on either path to a side.
        parts.pg.drain_touched();
        for scope in ["delta", "full"] {
            registry.counter(&checks_total(scope));
        }
        let snapshot = publish(&registry, parts, conformance, 0, applied_seq);
        memory_gauges(&registry, &snapshot);
        // The startup graph is served compact from request 1: adopt the
        // checkpoint's frozen form when exact, else freeze synchronously.
        boot_step(&registry, "freeze", || match prebuilt_compact {
            Some(compact) => {
                registry
                    .gauge("s3pg_mem_pg_compact_bytes")
                    .set_u64(compact.deep_size_bytes() as u64);
                registry
                    .gauge("s3pg_pg_dict_entries")
                    .set_u64(compact.dict_len() as u64);
                registry
                    .gauge("s3pg_mem_pg_dict_bytes")
                    .set_u64(compact.dict_size_bytes() as u64);
                let _ = snapshot.compact.set(compact);
            }
            None => compact_into(&registry, &snapshot),
        });
        GraphStore {
            snapshot: Arc::new(RwLock::new(snapshot)),
            writer: Mutex::new(None),
            epoch: AtomicU64::new(1),
            registry,
            wal,
            applied_seq: AtomicU64::new(applied_seq),
            checkpoint_seq: AtomicU64::new(0),
        }
    }

    /// The store's metrics registry (shared with the serving layer).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Current snapshot. Constant-time: one read-lock acquisition and one
    /// `Arc` clone; the returned snapshot is read without any lock.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.snapshot
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Apply an N-Triples delta (deletions then additions) and publish a
    /// new snapshot. Serialized across callers; concurrent reads keep
    /// running on the previous snapshot until the swap.
    ///
    /// On a durable store the delta is appended to the WAL in apply order
    /// and this call blocks on the group-commit fsync **after** releasing
    /// the write lock — the next writer appends while this one's flush is
    /// in flight, so one `fdatasync` acknowledges a whole batch. The ack
    /// therefore implies durability; visibility happens at the snapshot
    /// swap, fractionally earlier.
    ///
    /// On a malformed delta the typed error is returned and **no state
    /// changes**: both documents are parsed before any mutation.
    pub fn apply_update(
        &self,
        additions: &str,
        deletions: &str,
    ) -> Result<UpdateSummary, S3pgError> {
        let (summary, commit_seq) = self.apply_and_publish(additions, deletions, None)?;
        if let (Some(wal), Some(seq)) = (&self.wal, commit_seq) {
            // Durability gate, outside the writer lock. A failed fsync
            // means the ack cannot be honoured — fail stop rather than
            // acknowledge a write the log may not replay.
            let committed = timed_step(
                &self.registry,
                "update_commit",
                "s3pg_update_commit_microseconds",
                || wal.commit(seq),
            );
            if let Err(e) = committed {
                fail_stop(&format!(
                    "WAL commit failed, cannot acknowledge update: {e}"
                ));
            }
        }
        Ok(summary)
    }

    /// Apply a record replicated from a primary, preserving the primary's
    /// sequence number. Durability is batched by the caller (one
    /// [`GraphStore::sync_wal`] per poll round-trip), not per record —
    /// the primary already holds the durable copy.
    pub fn apply_replicated(
        &self,
        seq: u64,
        additions: &str,
        deletions: &str,
    ) -> Result<UpdateSummary, S3pgError> {
        let (summary, _) = self.apply_and_publish(additions, deletions, Some(seq))?;
        Ok(summary)
    }

    fn apply_and_publish(
        &self,
        additions: &str,
        deletions: &str,
        exact_seq: Option<u64>,
    ) -> Result<(UpdateSummary, Option<u64>), S3pgError> {
        // Validate before anything is locked or touched.
        let (add_graph, del_graph) = parse_delta(additions, deletions)?;
        let mut writer = self.writer.lock().unwrap_or_else(|e| e.into_inner());
        // Under the writer lock the live snapshot is the state before this
        // update; its report is where the check starts.
        let live = self.snapshot();
        // The three steps an update holds the writer lock for are spans
        // under the request's `execute` span: clone, apply, conformance.
        let (mut side, stale_compact) = timed_step(
            &self.registry,
            "update_clone",
            "s3pg_update_clone_microseconds",
            || self.writable_side(writer.take(), &live),
        );
        let apply_span = s3pg_obs::tracer().span_here("update_apply");
        let outcome = side.apply(&add_graph, &del_graph);
        drop(apply_span);

        // Log under the writer lock: WAL order is exactly apply order, so
        // replaying the log is replaying history. The delta was validated
        // above, so only valid records are ever logged. An append failure
        // after mutation would desynchronize log and state — fail stop.
        let commit_seq = match &self.wal {
            Some(wal) => {
                let append = match exact_seq {
                    Some(seq) => wal.append_exact(seq, additions, deletions).map(|()| seq),
                    None => wal.append(additions, deletions),
                };
                match append {
                    Ok(seq) => Some(seq),
                    Err(e) => fail_stop(&format!("WAL append failed after mutation: {e}")),
                }
            }
            None => None,
        };
        // A WAL-less replica still tracks the primary's sequence numbers;
        // that is what its replication loop polls from.
        let visible_seq = commit_seq.or(exact_seq);
        if let Some(seq) = visible_seq {
            self.applied_seq.store(seq, Ordering::SeqCst);
        }

        // The side's record holds the caught-up missed delta and this one:
        // everything that differs from the live snapshot.
        let touched = side.pg.drain_touched();
        let (conformance, scope) = timed_step(
            &self.registry,
            "update_conformance",
            "s3pg_update_conformance_microseconds",
            || {
                conformance::check_since(
                    &side.pg,
                    &side.schema.pg_schema,
                    &live.conformance,
                    touched.as_ref(),
                )
            },
        );
        drop(live);
        self.registry.counter(&checks_total(scope.as_str())).inc();
        let summary = UpdateSummary {
            added_nodes: outcome.counters.entity_nodes as u64
                + outcome.counters.carrier_nodes as u64,
            added_edges: outcome.counters.edges as u64,
            added_properties: outcome.counters.key_values as u64,
            removed: outcome.removed as u64,
            conforms: conformance.conforms(),
        };

        self.registry.counter("s3pg_updates_applied_total").inc();
        let next = publish(
            &self.registry,
            side,
            conformance,
            self.epoch.fetch_add(1, Ordering::SeqCst),
            visible_seq.unwrap_or(0),
        );
        // Publish while still holding the writer lock, so snapshots are
        // swapped in the same order updates were applied. The superseded
        // snapshot is moved out of the guard, never dropped under it: it
        // is the next standby, one delta behind.
        let superseded = std::mem::replace(
            &mut *self.snapshot.write().unwrap_or_else(|e| e.into_inner()),
            Arc::clone(&next),
        );
        *writer = Some(Standby {
            snapshot: superseded,
            missed: (add_graph, del_graph),
        });

        // Compact off the write path: the update is acknowledged (and
        // readable) now; the frozen form lands in `next.compact` whenever
        // the detached thread finishes. Skipped if a newer snapshot was
        // published in the meantime — that one spawns its own compaction.
        // The thread also frees the reused side's outdated frozen form.
        let registry = Arc::clone(&self.registry);
        let current = Arc::clone(&self.snapshot);
        let spawned = std::thread::Builder::new()
            .name("s3pg-freeze".to_string())
            .spawn(move || {
                drop(stale_compact);
                let still_current = {
                    let guard = current.read().unwrap_or_else(|e| e.into_inner());
                    Arc::ptr_eq(&guard, &next)
                };
                if still_current {
                    compact_into(&registry, &next);
                    memory_gauges(&registry, &next);
                }
            });
        if let Err(e) = spawned {
            // The snapshot stays on its mutable form, which every read
            // path handles; the next update tries again.
            static LOGGED: Once = Once::new();
            LOGGED.call_once(|| eprintln!("warning: cannot spawn s3pg-freeze thread: {e}"));
            self.registry
                .counter("s3pg_compaction_spawn_failures_total")
                .inc();
        }
        Ok((summary, commit_seq))
    }

    /// A side the writer owns outright, at the live snapshot's state, plus
    /// the frozen form it carried (now outdated) when it is the standby:
    /// the standby caught up with the delta it missed when nothing else
    /// holds it, else a deep copy of the live snapshot. Call under the
    /// writer lock.
    fn writable_side(
        &self,
        standby: Option<Standby>,
        live: &Snapshot,
    ) -> (StoreParts, Option<Arc<CompactGraph>>) {
        if let Some(Standby { snapshot, missed }) = standby {
            if let Ok(snapshot) = Arc::try_unwrap(snapshot) {
                let Snapshot {
                    rdf,
                    pg,
                    schema,
                    state,
                    compact,
                    ..
                } = snapshot;
                let mut side = StoreParts {
                    rdf,
                    pg,
                    schema,
                    state,
                    conformance: None,
                };
                side.apply(&missed.0, &missed.1);
                self.registry
                    .counter("s3pg_update_side_total{outcome=\"reused\"}")
                    .inc();
                return (side, compact.into_inner());
            }
        }
        self.registry
            .counter("s3pg_update_side_total{outcome=\"cloned\"}")
            .inc();
        let side = StoreParts {
            rdf: live.rdf.clone(),
            pg: live.pg.clone(),
            schema: live.schema.clone(),
            state: live.state.clone(),
            conformance: None,
        };
        (side, None)
    }

    /// The write-ahead log, when this store is durable.
    pub fn wal(&self) -> Option<&Arc<Wal>> {
        self.wal.as_ref()
    }

    /// Newest WAL sequence number folded into the served graph.
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::SeqCst)
    }

    /// Sequence number covered by the newest on-disk checkpoint (0 = none).
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq.load(Ordering::SeqCst)
    }

    /// Note a checkpoint written (or loaded) at `seq` for status frames.
    pub fn note_checkpoint(&self, seq: u64) {
        self.checkpoint_seq.store(seq, Ordering::SeqCst);
        self.registry.gauge("s3pg_checkpoint_seq").set_u64(seq);
    }

    /// Flush the WAL tail to disk. A no-op on an ephemeral store. Called
    /// at shutdown (so a clean exit leaves no tail to replay) and after a
    /// replica applies a poll batch.
    pub fn sync_wal(&self) -> Result<(), WalError> {
        match &self.wal {
            Some(wal) => wal.sync_all(),
            None => Ok(()),
        }
    }

    /// Write a checkpoint covering everything applied so far: serialize
    /// the source RDF graph (and the current snapshot's frozen compact
    /// form, when it has landed) next to the WAL, then prune segments the
    /// checkpoint covers. Returns the covered sequence number, or `None`
    /// on an ephemeral store or when nothing changed since the last
    /// checkpoint.
    ///
    /// Takes no lock: a snapshot carries the sequence number its RDF graph
    /// reflects, so text and number agree by construction and writers never
    /// queue behind the serialization.
    pub fn checkpoint(&self) -> Result<Option<u64>, WalError> {
        let Some(wal) = &self.wal else {
            return Ok(None);
        };
        let started = Instant::now();
        let snap = self.snapshot();
        let seq = snap.seq;
        if seq == self.checkpoint_seq.load(Ordering::SeqCst) && seq != 0 {
            return Ok(None);
        }
        let rdf_text = to_ntriples(&snap.rdf);
        // The compact form may or may not have landed yet.
        let compact = snap.compact().cloned();
        drop(snap);
        // Everything the checkpoint covers must be durable before the
        // covered segments become prunable.
        wal.sync_all()?;
        wal.rotate()?;
        s3pg_wal::write_checkpoint(wal.dir(), seq, &rdf_text, compact.as_deref())?;
        wal.prune_through(seq)?;
        self.note_checkpoint(seq);
        self.registry
            .histogram("s3pg_checkpoint_wall_microseconds")
            .record_micros(started.elapsed().as_micros() as u64);
        self.registry.counter("s3pg_checkpoints_total").inc();
        Ok(Some(seq))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3pg_rdf::parser::parse_turtle;
    use s3pg_shacl::parser::parse_shacl_turtle;

    const SHAPES: &str = r#"
@prefix sh: <http://www.w3.org/ns/shacl#> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
@prefix : <http://ex/> .
<http://ex/shape/Person> a sh:NodeShape ; sh:targetClass :Person ;
    sh:property [ sh:path :name ; sh:datatype xsd:string ;
                  sh:minCount 1 ; sh:maxCount 1 ] ;
    sh:property [ sh:path :knows ; sh:class :Person ; sh:minCount 0 ] .
"#;

    const DATA: &str = r#"
@prefix : <http://ex/> .
:a a :Person ; :name "A" ; :knows :b .
:b a :Person ; :name "B" .
"#;

    fn store() -> GraphStore {
        let rdf = parse_turtle(DATA).unwrap();
        let shapes = parse_shacl_turtle(SHAPES).unwrap();
        GraphStore::new(rdf, &shapes, Mode::Parsimonious)
    }

    #[test]
    fn snapshot_reflects_initial_transform() {
        let store = store();
        let snap = store.snapshot();
        assert_eq!(snap.pg.node_count(), 2);
        assert_eq!(snap.rdf.len(), 5);
        assert!(snap.conforms());
    }

    #[test]
    fn update_publishes_new_snapshot_but_old_readers_keep_theirs() {
        let store = store();
        let before = store.snapshot();
        let summary = store
            .apply_update(
                "<http://ex/c> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
                 <http://ex/c> <http://ex/name> \"C\" .\n\
                 <http://ex/c> <http://ex/knows> <http://ex/a> .\n",
                "",
            )
            .unwrap();
        assert_eq!(summary.added_nodes, 1);
        assert_eq!(summary.added_edges, 1);
        assert_eq!(summary.added_properties, 1);
        assert!(summary.conforms);
        let after = store.snapshot();
        assert_eq!(after.pg.node_count(), 3);
        assert_eq!(after.rdf.len(), 8);
        // The old Arc still sees the pre-update world.
        assert_eq!(before.pg.node_count(), 2);
        assert_eq!(before.rdf.len(), 5);
    }

    #[test]
    fn deletions_update_both_models() {
        let store = store();
        let summary = store
            .apply_update("", "<http://ex/a> <http://ex/knows> <http://ex/b> .\n")
            .unwrap();
        assert_eq!(summary.removed, 1);
        let snap = store.snapshot();
        assert_eq!(snap.pg.edge_count(), 0);
        assert_eq!(snap.rdf.len(), 4);
    }

    #[test]
    fn malformed_delta_changes_nothing() {
        let store = store();
        let before = store.snapshot();
        assert!(store.apply_update("garbage", "").is_err());
        let after = store.snapshot();
        assert_eq!(before.pg.node_count(), after.pg.node_count());
        assert_eq!(before.rdf.len(), after.rdf.len());
    }

    #[test]
    fn snapshot_reports_memory_and_gauges() {
        let store = store();
        let before = store.snapshot();
        assert!(before.mem_bytes() > 0);
        let text = store.registry().expose();
        for family in [
            "s3pg_mem_rdf_bytes",
            "s3pg_mem_pg_bytes",
            "s3pg_mem_total_bytes",
            "s3pg_snapshot_nodes",
            "s3pg_snapshot_edges",
            "s3pg_snapshot_triples",
        ] {
            assert!(text.contains(family), "{family} missing from:\n{text}");
        }
        store
            .apply_update(
                "<http://ex/c> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
                 <http://ex/c> <http://ex/name> \"C\" .\n",
                "",
            )
            .unwrap();
        let after = store.snapshot();
        assert!(after.mem_bytes() >= before.mem_bytes());
        assert_eq!(
            store.registry().counter("s3pg_updates_applied_total").get(),
            1
        );
    }

    #[test]
    fn snapshots_carry_compact_forms() {
        use s3pg_pg::PgRead;
        let store = store();
        // The startup snapshot compacts synchronously.
        let snap = store.snapshot();
        let compact = snap.compact().expect("startup snapshot is compacted");
        assert_eq!(compact.node_count(), 2);
        assert_eq!(compact.edge_count(), 1);
        let text = store.registry().expose();
        for family in [
            "s3pg_mem_pg_compact_bytes",
            "s3pg_pg_dict_entries",
            "s3pg_mem_pg_dict_bytes",
            "s3pg_compaction_wall_microseconds",
        ] {
            assert!(text.contains(family), "{family} missing from:\n{text}");
        }
        // Updates compact in the background: the new snapshot is readable
        // immediately and its compact form lands shortly after.
        store
            .apply_update(
                "<http://ex/c> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
                 <http://ex/c> <http://ex/name> \"C\" .\n",
                "",
            )
            .unwrap();
        let deadline = Instant::now() + std::time::Duration::from_secs(30);
        let compacted = loop {
            let snap = store.snapshot();
            if let Some(compact) = snap.compact() {
                break Arc::clone(compact);
            }
            assert!(
                Instant::now() < deadline,
                "background compaction never landed"
            );
            std::thread::sleep(std::time::Duration::from_millis(2));
        };
        assert_eq!(compacted.node_count(), 3);
        assert!(store.registry().counter("s3pg_compactions_total").get() >= 2);
    }

    #[test]
    fn concurrent_readers_and_writers_converge() {
        let store = Arc::new(store());
        let writers = 4;
        let updates_each = 10;
        let mut handles = Vec::new();
        for w in 0..writers {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for i in 0..updates_each {
                    let delta = format!(
                        "<http://ex/w{w}n{i}> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> <http://ex/Person> .\n\
                         <http://ex/w{w}n{i}> <http://ex/name> \"w{w}n{i}\" .\n"
                    );
                    store.apply_update(&delta, "").unwrap();
                }
            }));
        }
        for _ in 0..4 {
            let store = Arc::clone(&store);
            handles.push(std::thread::spawn(move || {
                for _ in 0..50 {
                    let snap = store.snapshot();
                    // Snapshots are internally consistent: nodes only grow.
                    assert!(snap.pg.node_count() >= 2);
                    assert!(snap.rdf.len() >= 5);
                }
            }));
        }
        for handle in handles {
            handle.join().expect("reader or writer panicked");
        }
        let snap = store.snapshot();
        assert_eq!(snap.pg.node_count(), 2 + writers * updates_each);
        assert!(snap.conforms());
    }
}
