//! The in-process replay behind the per-layer ledger: the same requests
//! the wire run sent, pushed through each crate's public functions in the
//! order `s3pg-serve` calls them, with a harness-side span around each
//! call. What the server does between those calls (accept, queue,
//! dispatch, statistics, socket I/O) cannot be reached from outside and
//! shows up as `server.residual_us`.

use crate::inputs::{Delta, Inputs};
use crate::spans::Tracer;
use s3pg::data_transform::TransformState;
use s3pg::incremental::{apply_ntriples_delta, replay_deltas, DeltaOutcome};
use s3pg::pipeline::{transform_with, PipelineConfig, TransformOutput};
use s3pg::schema_transform::SchemaTransform;
use s3pg::Mode;
use s3pg_bolt::packstream::Value;
use s3pg_bolt::{frame, message};
use s3pg_obs::Registry;
use s3pg_pg::{conformance, CompactGraph, PropertyGraph};
use s3pg_query::profile::{PlanNode, ProfSink};
use s3pg_query::{cypher, render_term, render_value, sparql};
use s3pg_rdf::parser::parse_ntriples;
use s3pg_rdf::Graph;
use s3pg_server::params;
use s3pg_server::plan_cache::{CachedCypher, CachedEntry, CachedSparql, PlanCache};
use s3pg_server::protocol::{Request, Response};
use s3pg_shacl::parser::parse_shacl_turtle;
use s3pg_wal::{load_latest, write_checkpoint, Wal, WalOptions};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// The offline pipeline's stages as the library reports them itself
/// (`PipelineMetrics`), for one `transform_with` call.
#[derive(Debug, Clone, Copy, Default)]
pub struct Phases {
    pub f_st: Duration,
    pub phase1: Duration,
    pub phase2: Duration,
    pub conformance: Duration,
}

impl Phases {
    pub fn of(out: &TransformOutput) -> Phases {
        let wall = |name: &str| {
            out.metrics
                .phase(name)
                .map(|p| p.wall)
                .unwrap_or(Duration::ZERO)
        };
        Phases {
            f_st: wall("schema_transform"),
            phase1: wall("phase1_nodes"),
            phase2: wall("phase2_props"),
            conformance: wall("conformance"),
        }
    }
}

/// What one pass of the offline pipeline produced.
pub struct Converted {
    pub rdf: Graph,
    pub out: TransformOutput,
    pub compact: CompactGraph,
    pub phases: Phases,
    /// The load stage (Table 4's "L"): freeze + checkpoint write.
    pub load: Duration,
}

/// N-Triples + SHACL text → RDF graph → PG → compact PG → checkpoint on
/// disk: the `convert` workload's iteration, and the server's cold start.
pub fn convert_once(
    tracer: &mut Tracer,
    inputs: &Inputs,
    checkpoint_dir: &Path,
    seq: u64,
) -> Result<Converted, String> {
    let rdf = tracer
        .span("rdf.parse", || parse_ntriples(&inputs.ntriples))
        .map_err(|e| e.to_string())?;
    let shapes = tracer
        .span("shacl.parse", || parse_shacl_turtle(&inputs.shacl))
        .map_err(|e| e.to_string())?;
    let out = tracer.span("s3pg.transform", || {
        transform_with(
            &rdf,
            &shapes,
            Mode::Parsimonious,
            PipelineConfig { threads: 1 },
        )
    });
    let load_started = std::time::Instant::now();
    let compact = tracer.span("pg.freeze", || out.pg.freeze());
    tracer
        .span("wal.checkpoint_write", || {
            write_checkpoint(checkpoint_dir, seq, &inputs.ntriples, Some(&compact))
        })
        .map_err(|e| format!("checkpoint write: {e}"))?;
    let load = load_started.elapsed();
    let phases = Phases::of(&out);
    Ok(Converted {
        rdf,
        out,
        compact,
        phases,
        load,
    })
}

/// The read side of a server, rebuilt from public parts: one snapshot
/// (RDF graph + compact PG) and the shared plan cache.
pub struct ReadEngine {
    rdf: Graph,
    compact: CompactGraph,
    /// The writer-side state the snapshot was cloned from, kept alive as
    /// the server keeps it: what else is on the heap shapes the timings.
    _master: (Graph, TransformOutput),
    registry: Registry,
    cache: PlanCache,
}

/// What replaying one read produced, for the counts in the ledger.
pub struct ReadReplay {
    pub response: Response,
    pub response_bytes: usize,
}

impl ReadEngine {
    /// Publish a snapshot the way `GraphStore::from_parts` does: clone
    /// the master RDF graph and PG, then freeze the cloned PG.
    pub fn new(converted: Converted) -> ReadEngine {
        let registry = Registry::new();
        let cache = PlanCache::new(&registry);
        let rdf = converted.rdf.clone();
        let compact = converted.out.pg.clone().freeze();
        ReadEngine {
            rdf,
            compact,
            _master: (converted.rdf, converted.out),
            registry,
            cache,
        }
    }

    /// Start over with an empty plan cache, as a freshly started server.
    pub fn reset_cache(&mut self) {
        self.registry = Registry::new();
        self.cache = PlanCache::new(&self.registry);
    }

    /// One JSON-listener read, from request bytes to response bytes.
    /// With `client_decode`, the client's own decode of the answer is
    /// timed too (beside the server's lines, never charged to them) and
    /// must give back the answer that was encoded.
    pub fn json_read(
        &self,
        tracer: &mut Tracer,
        line: &str,
        client_decode: bool,
    ) -> Result<ReadReplay, String> {
        let root = tracer.enter("request");
        let request = tracer
            .span("server.request_decode", || Request::decode(line))
            .map_err(|e| e.to_string());
        let result = request.and_then(|request| {
            let response = self.dispatch(tracer, &request, "json")?;
            let encoded = tracer.span("server.response_encode", || response.encode());
            if client_decode {
                let decoded = tracer
                    .span("client.decode", || Response::decode(&encoded))
                    .map_err(|e| format!("client decode: {e}"))?;
                if decoded != response {
                    return Err("client decodes a different answer than was encoded".into());
                }
            }
            Ok(ReadReplay {
                response,
                response_bytes: encoded.len() + 1,
            })
        });
        tracer.exit(root);
        result
    }

    /// One Bolt read: `RUN`+`PULL` payloads in, framed messages out.
    pub fn bolt_read(
        &self,
        tracer: &mut Tracer,
        run_pull: &[u8],
        client_decode: bool,
    ) -> Result<ReadReplay, String> {
        let root = tracer.enter("request");
        let result = self.bolt_read_inner(tracer, run_pull, client_decode);
        tracer.exit(root);
        result
    }

    fn bolt_read_inner(
        &self,
        tracer: &mut Tracer,
        run_pull: &[u8],
        client_decode: bool,
    ) -> Result<ReadReplay, String> {
        let open = tracer.enter("bolt.unpack");
        let mut reader = run_pull;
        let mut messages = Vec::new();
        while let Some(payload) =
            frame::read_message(&mut reader, s3pg_bolt::DEFAULT_MAX_MESSAGE_BYTES)
                .map_err(|e| e.to_string())?
        {
            messages.push(message::decode_client(&payload).map_err(|e| e.to_string())?);
        }
        tracer.exit(open);
        let Some(message::ClientMessage::Run {
            query, parameters, ..
        }) = messages.into_iter().next()
        else {
            return Err("bolt replay expects RUN first".into());
        };
        let request = Request::Cypher {
            query,
            params: parameters
                .into_iter()
                .map(|(k, v)| {
                    let json = match v {
                        Value::String(s) => s3pg_server::json::Json::Str(s),
                        Value::Int(i) => s3pg_server::json::Json::Num(i as f64),
                        Value::Float(f) => s3pg_server::json::Json::Num(f),
                        Value::Bool(b) => s3pg_server::json::Json::Bool(b),
                        _ => s3pg_server::json::Json::Null,
                    };
                    (k, json)
                })
                .collect(),
        };
        let response = self.dispatch(tracer, &request, "bolt")?;
        let Response::Cypher { columns, rows } = &response else {
            return Err("bolt replay expects rows".into());
        };
        // What the session does with the rows: RUN's SUCCESS with the
        // field list, one RECORD per row, the final SUCCESS.
        let open = tracer.enter("bolt.pack");
        let mut out = Vec::new();
        let mut push = |payload: Vec<u8>| {
            frame::write_message(&mut out, &payload).expect("writing to a Vec cannot fail")
        };
        push(message::encode_success(&[
            (
                "fields".to_string(),
                Value::List(columns.iter().cloned().map(Value::String).collect()),
            ),
            ("t_first".to_string(), Value::Int(0)),
        ]));
        for row in rows {
            push(message::encode_record(
                row.iter()
                    .map(|cell| cell.clone().map_or(Value::Null, Value::String))
                    .collect(),
            ));
        }
        push(message::encode_success(&[(
            "t_last".to_string(),
            Value::Int(0),
        )]));
        tracer.exit(open);
        if client_decode {
            let open = tracer.enter("client.decode");
            let mut reader = out.as_slice();
            let mut payloads = Vec::new();
            while let Some(payload) =
                frame::read_message(&mut reader, s3pg_bolt::DEFAULT_MAX_MESSAGE_BYTES)
                    .map_err(|e| e.to_string())?
            {
                payloads.push(payload);
            }
            let decoded = crate::wire::decode_bolt(&payloads);
            tracer.exit(open);
            if decoded? != response {
                return Err("client decodes a different answer than was packed".into());
            }
        }
        Ok(ReadReplay {
            response_bytes: out.len(),
            response,
        })
    }

    /// `Shared::run_cypher` / `run_sparql`, step for step, over the
    /// compact form with `threads = 1` as the server calls them.
    fn dispatch(
        &self,
        tracer: &mut Tracer,
        request: &Request,
        listener: &'static str,
    ) -> Result<Response, String> {
        match request {
            Request::Cypher { query, params } => {
                let hit = tracer.span("server.plan_cache", || {
                    self.cache.lookup(listener, "cypher", query)
                });
                let entry = match hit {
                    Some(entry) => entry,
                    None => {
                        let ast = tracer
                            .span("query.parse", || cypher::parse(query))
                            .map_err(|e| e.to_string())?;
                        let ast = Arc::new(ast);
                        let plan = tracer.span("query.plan", || {
                            let plan = cypher::plan(&self.compact, &ast);
                            // The server renders the operator tree once
                            // per fresh plan, for its statistics registry.
                            std::hint::black_box(cypher::explain_compact(&ast, &plan, 1));
                            Arc::new(plan)
                        });
                        let entry =
                            Arc::new(CachedEntry::Cypher(Ok(CachedCypher::new(ast, 0, plan))));
                        tracer.span("server.plan_cache", || {
                            self.cache.insert("cypher", query, Arc::clone(&entry))
                        });
                        entry
                    }
                };
                let CachedEntry::Cypher(Ok(cached)) = &*entry else {
                    return Err("cached entry is not a parsed Cypher query".into());
                };
                let bound = tracer
                    .span("server.params", || {
                        params::check_names(&cached.params, params)
                            .and_then(|()| params::cypher_params(params))
                    })
                    .map_err(|e| e.to_string())?;
                let plan = tracer.span("server.plan_cache", || {
                    cached.plan_for(&self.compact, 0, self.cache.replan_counter(listener))
                });
                let rows = tracer
                    .span("query.cypher_execute", || {
                        cypher::evaluate_planned_params(
                            &self.compact,
                            &cached.ast,
                            &plan,
                            &bound,
                            1,
                        )
                    })
                    .map_err(|e| e.to_string())?;
                let rendered = tracer.span("query.render", || {
                    rows.rows
                        .iter()
                        .map(|row| row.iter().map(|v| v.as_ref().map(render_value)).collect())
                        .collect()
                });
                Ok(Response::Cypher {
                    columns: rows.columns,
                    rows: rendered,
                })
            }
            Request::Sparql { query, params } => {
                let hit = tracer.span("server.plan_cache", || {
                    self.cache.lookup(listener, "sparql", query)
                });
                let entry = match hit {
                    Some(entry) => entry,
                    None => {
                        let ast = tracer
                            .span("query.parse", || sparql::parse(query))
                            .map_err(|e| e.to_string())?;
                        let entry =
                            Arc::new(CachedEntry::Sparql(Ok(CachedSparql::new(Arc::new(ast)))));
                        tracer.span("server.plan_cache", || {
                            self.cache.insert("sparql", query, Arc::clone(&entry))
                        });
                        entry
                    }
                };
                let CachedEntry::Sparql(Ok(cached)) = &*entry else {
                    return Err("cached entry is not a parsed SPARQL query".into());
                };
                let bound = tracer
                    .span("server.params", || {
                        params::check_names(&cached.params, params)
                            .and_then(|()| params::sparql_params(params))
                    })
                    .map_err(|e| e.to_string())?;
                let outcome = tracer
                    .span("query.sparql_execute", || {
                        sparql::evaluate_outcome_threads_params(&self.rdf, &cached.ast, &bound, 1)
                    })
                    .map_err(|e| e.to_string())?;
                let sparql::Outcome::Solutions(solutions) = outcome else {
                    return Err("aggregate SPARQL is not served on the wire".into());
                };
                let rendered = tracer.span("query.render", || {
                    solutions
                        .rows
                        .iter()
                        .map(|row| {
                            row.iter()
                                .map(|t| t.map(|t| render_term(&self.rdf, t)))
                                .collect()
                        })
                        .collect()
                });
                Ok(Response::Sparql {
                    vars: solutions.vars,
                    rows: rendered,
                })
            }
            other => Err(format!("no read replay for {}", other.endpoint())),
        }
    }

    /// Rows every operator emitted per row returned, from a profiled
    /// evaluation of a Cypher request. `None` for other requests.
    pub fn rows_examined(&self, request: &Request) -> Option<(u64, u64)> {
        let Request::Cypher { query, params } = request else {
            return None;
        };
        let ast = cypher::parse(query).ok()?;
        let plan = cypher::plan(&self.compact, &ast);
        let bound = params::cypher_params(params).ok()?;
        let sink = ProfSink::new();
        let rows =
            cypher::evaluate_planned_profiled(&self.compact, &ast, &plan, &bound, 1, &sink).ok()?;
        let mut tree = cypher::explain_compact(&ast, &plan, 1);
        tree.annotate(&sink);
        fn examined(node: &PlanNode) -> u64 {
            node.rows.unwrap_or(0) + node.children.iter().map(examined).sum::<u64>()
        }
        Some((examined(&tree), rows.len() as u64))
    }
}

/// Mirror an applied delta into the source RDF graph, as the server's
/// write path does so that SPARQL serves the same state as Cypher.
pub fn mirror(rdf: &mut Graph, outcome: &DeltaOutcome) {
    for t in outcome.deletions.triples() {
        let s = rdf.import_term(&outcome.deletions, t.s);
        let p = rdf.import_sym(&outcome.deletions, t.p);
        let o = rdf.import_term(&outcome.deletions, t.o);
        rdf.remove(s, p, o);
    }
    rdf.absorb(&outcome.additions);
}

/// The write side of a server, rebuilt from public parts: the master
/// state and the WAL, stepped the way `GraphStore::apply_update` steps
/// them (apply → mirror → log → conformance → clone → clone → commit →
/// re-freeze; the server runs the last step on a background thread).
pub struct WriteEngine {
    rdf: Graph,
    pg: PropertyGraph,
    schema: SchemaTransform,
    state: TransformState,
    wal: Wal,
    pub registry: Registry,
}

impl WriteEngine {
    pub fn new(converted: Converted, wal_dir: &Path) -> Result<WriteEngine, String> {
        let registry = Registry::new();
        let (wal, _) = Wal::open(wal_dir, WalOptions::default(), &registry)
            .map_err(|e| format!("cannot open WAL: {e}"))?;
        Ok(WriteEngine {
            rdf: converted.rdf,
            pg: converted.out.pg,
            schema: converted.out.schema,
            state: converted.out.state,
            wal,
            registry,
        })
    }

    pub fn update(&mut self, tracer: &mut Tracer, delta: &Delta) -> Result<bool, String> {
        let root = tracer.enter("update");
        let result = self.update_inner(tracer, delta);
        tracer.exit(root);
        result
    }

    fn update_inner(&mut self, tracer: &mut Tracer, delta: &Delta) -> Result<bool, String> {
        let outcome = tracer
            .span("s3pg.incremental_apply", || {
                apply_ntriples_delta(
                    &mut self.pg,
                    &mut self.schema,
                    &mut self.state,
                    &delta.additions,
                    &delta.deletions,
                )
            })
            .map_err(|e| e.to_string())?;
        tracer.span("rdf.mirror", || mirror(&mut self.rdf, &outcome));
        let seq = tracer
            .span("wal.append", || {
                self.wal.append(&delta.additions, &delta.deletions)
            })
            .map_err(|e| format!("WAL append: {e}"))?;
        let conforms = tracer.span("pg.conformance", || {
            conformance::check(&self.pg, &self.schema.pg_schema).conforms()
        });
        let rdf_snapshot = tracer.span("rdf.clone", || self.rdf.clone());
        let pg_snapshot = tracer.span("pg.clone", || self.pg.clone());
        tracer
            .span("wal.commit", || self.wal.commit(seq))
            .map_err(|e| format!("WAL commit: {e}"))?;
        let compact = tracer.span("pg.refreeze", || pg_snapshot.freeze());
        std::hint::black_box((rdf_snapshot, compact));
        Ok(conforms)
    }

    /// (fsyncs, WAL bytes) so far.
    pub fn wal_counts(&self) -> (u64, u64) {
        (
            self.registry.counter("s3pg_wal_fsyncs_total").get(),
            self.wal.total_bytes(),
        )
    }
}

/// `recovery::recover`, step for step: newest checkpoint, re-transform,
/// WAL open, tail replay, then what `GraphStore::from_parts` does before
/// the first request can be served.
pub fn recover_once(tracer: &mut Tracer, inputs: &Inputs, wal_dir: &Path) -> Result<(), String> {
    let root = tracer.enter("recover");
    let result = (|| {
        let checkpoint = tracer
            .span("wal.load_checkpoint", || load_latest(wal_dir))
            .map_err(|e| format!("checkpoint scan: {e}"))?;
        let (text, base_seq, prebuilt) = match &checkpoint {
            Some(cp) => (cp.rdf.as_str(), cp.seq, cp.compact.is_some()),
            None => (inputs.ntriples.as_str(), 0, false),
        };
        let mut rdf = tracer
            .span("rdf.parse", || parse_ntriples(text))
            .map_err(|e| e.to_string())?;
        let shapes = tracer
            .span("shacl.parse", || parse_shacl_turtle(&inputs.shacl))
            .map_err(|e| e.to_string())?;
        let mut out = tracer.span("s3pg.transform", || {
            transform_with(
                &rdf,
                &shapes,
                Mode::Parsimonious,
                PipelineConfig { threads: 1 },
            )
        });
        let registry = Registry::new();
        let (wal, recovered) = tracer
            .span("wal.open", || {
                Wal::open(wal_dir, WalOptions::default(), &registry)
            })
            .map_err(|e| format!("WAL open: {e}"))?;
        let tail: Vec<_> = recovered
            .records
            .iter()
            .filter(|r| r.seq > base_seq)
            .collect();
        tracer
            .span("s3pg.replay_deltas", || {
                replay_deltas(
                    &mut rdf,
                    &mut out.pg,
                    &mut out.schema,
                    &mut out.state,
                    tail.iter()
                        .map(|r| (r.additions.as_str(), r.deletions.as_str())),
                )
            })
            .map_err(|e| e.to_string())?;
        tracer.span("pg.conformance", || {
            std::hint::black_box(conformance::check(&out.pg, &out.schema.pg_schema).conforms())
        });
        let rdf_snapshot = tracer.span("rdf.clone", || rdf.clone());
        let pg_snapshot = tracer.span("pg.clone", || out.pg.clone());
        if tail.is_empty() && prebuilt {
            std::hint::black_box(&pg_snapshot);
        } else {
            tracer.span("pg.freeze", || std::hint::black_box(pg_snapshot.freeze()));
        }
        std::hint::black_box((rdf_snapshot, wal));
        Ok(())
    })();
    tracer.exit(root);
    result
}
