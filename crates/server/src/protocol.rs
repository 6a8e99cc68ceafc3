//! The `s3pg-serve` wire protocol: one JSON object per line, in both
//! directions.
//!
//! Requests name an endpoint in `"op"`; responses always carry `"ok"`.
//! Every failure is a *typed* error frame — `{"ok":false,"error":{"kind":
//! ..., "message": ...}}` — so clients can tell a malformed query
//! (`"query"`) from a saturated server (`"overloaded"`) from a server that
//! is draining for shutdown (`"shutting_down"`) without string matching.
//!
//! ```text
//! → {"op":"cypher","query":"MATCH (n:Person) RETURN n.name"}
//! ← {"ok":true,"columns":["n.name"],"rows":[["Ada"],["Bob"]]}
//! → {"op":"update","additions":"<http://ex/c> <http://ex/name> \"C\" .\n"}
//! ← {"ok":true,"added_nodes":0,"added_edges":0,"added_properties":1,
//!    "removed":0,"conforms":true}
//! ```

use crate::json::{self, Json};
use s3pg_query::profile::PlanNode;
use std::fmt;
use std::io::{self, Write};

/// How many trace events a `trace` request tails when the client does not
/// say how many it wants.
pub const DEFAULT_TRACE_LIMIT: u64 = 256;

/// Put one encoded frame on the wire, newline included, in a single
/// `write`. On an unbuffered `TCP_NODELAY` socket `writeln!` makes two —
/// the frame, then `"\n"` — which is two system calls and two segments,
/// and the peer's `read_line` cannot return before the second arrives.
/// A result frame from [`Response::encode`] has room for the newline, so
/// appending it does not copy the line.
pub fn write_frame(writer: &mut impl Write, mut frame: String) -> io::Result<()> {
    frame.push('\n');
    writer.write_all(frame.as_bytes())
}

/// A client request: one endpoint invocation.
///
/// (`PartialEq` only: parameter values may carry JSON floats.)
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Run a Cypher query against the current PG snapshot. `params` binds
    /// `$name` references in the query text; see [`crate::params`] for the
    /// JSON → value mapping and the undeclared/unused rejection rules.
    Cypher {
        query: String,
        params: Vec<(String, Json)>,
    },
    /// Run a SPARQL query against the current RDF snapshot. `params` binds
    /// `$name` references (`"<iri>"` strings become IRIs, everything else
    /// becomes a literal — see [`crate::params`]).
    Sparql {
        query: String,
        params: Vec<(String, Json)>,
    },
    /// Apply an N-Triples delta (additions and/or deletions) through the
    /// monotonic incremental-update path.
    Update {
        additions: String,
        deletions: String,
    },
    /// Snapshot statistics: node/edge/triple counts, conformance, and
    /// resident memory footprint.
    Stats,
    /// Prometheus-style text exposition of every registered metric.
    Metrics,
    /// Liveness probe with uptime (cheap, no store access).
    Health,
    /// Tail of the server's span ring: the most recent `limit` trace
    /// events as JSONL lines. `since` is a cursor — only events whose
    /// timestamp (µs since server start) is strictly greater are returned,
    /// so a poller can resume from the last event it saw instead of
    /// re-downloading the whole ring.
    Trace { limit: u64, since: u64 },
    /// Per-query statistics: one entry per normalized parameterized query
    /// text the server has executed, with calls, errors, rows, latency
    /// quantiles, per-listener counts, and the last rendered plan.
    QueryStats,
    /// Liveness probe.
    Ping,
    /// Begin graceful shutdown: drain in-flight requests, then exit.
    Shutdown,
    /// Stream committed WAL records with sequence numbers strictly after
    /// `from`, at most `max` of them. This is the replication feed: a
    /// replica polls it and applies the records through the incremental
    /// path.
    Replicate { from: u64, max: u64 },
    /// Durability status: role, WAL watermarks, checkpoint coverage, and
    /// (on a replica) replication progress.
    WalStatus,
}

/// How many records one `replicate` response carries when the client does
/// not say how many it wants.
pub const DEFAULT_REPLICATE_MAX: u64 = 512;

impl Request {
    /// A parameterless Cypher request.
    pub fn cypher(query: impl Into<String>) -> Request {
        Request::Cypher {
            query: query.into(),
            params: Vec::new(),
        }
    }

    /// A parameterless SPARQL request.
    pub fn sparql(query: impl Into<String>) -> Request {
        Request::Sparql {
            query: query.into(),
            params: Vec::new(),
        }
    }

    /// The endpoint name used for metrics and the `"op"` field.
    pub fn endpoint(&self) -> &'static str {
        match self {
            Request::Cypher { .. } => "cypher",
            Request::Sparql { .. } => "sparql",
            Request::Update { .. } => "update",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Health => "health",
            Request::Trace { .. } => "trace",
            Request::QueryStats => "query_stats",
            Request::Ping => "ping",
            Request::Shutdown => "shutdown",
            Request::Replicate { .. } => "replicate",
            Request::WalStatus => "wal",
        }
    }

    /// Endpoints a server tracks metrics for, in reporting order.
    /// `"invalid"` accounts for frames that never parsed into a request.
    pub const ENDPOINTS: [&'static str; 13] = [
        "cypher",
        "sparql",
        "update",
        "stats",
        "metrics",
        "health",
        "trace",
        "query_stats",
        "ping",
        "shutdown",
        "replicate",
        "wal",
        "invalid",
    ];

    /// Decode one request line. Returns a typed [`ErrorFrame`] (kind
    /// `bad_request`) on malformed JSON or an unknown/missing `op`.
    pub fn decode(line: &str) -> Result<Request, ErrorFrame> {
        let bad = |message: String| ErrorFrame {
            kind: ErrorKind::BadRequest,
            message,
        };
        let value = json::parse(line.trim()).map_err(|e| bad(e.to_string()))?;
        let op = value
            .get("op")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("missing string field \"op\"".to_string()))?;
        let field = |name: &str| -> Result<String, ErrorFrame> {
            value
                .get(name)
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| bad(format!("op \"{op}\" needs a string field \"{name}\"")))
        };
        let optional = |name: &str| {
            value
                .get(name)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        // Optional `params` object: `{"name": value, ...}`. Anything other
        // than an object (or absence) is a typed bad_request; value
        // conversion and declared/unused checks happen at dispatch, where
        // the parsed query is known.
        let params = || -> Result<Vec<(String, Json)>, ErrorFrame> {
            match value.get("params") {
                None => Ok(Vec::new()),
                Some(Json::Obj(fields)) => Ok(fields.clone()),
                Some(_) => Err(bad("\"params\" must be a JSON object".to_string())),
            }
        };
        match op {
            "cypher" => Ok(Request::Cypher {
                query: field("query")?,
                params: params()?,
            }),
            "sparql" => Ok(Request::Sparql {
                query: field("query")?,
                params: params()?,
            }),
            "update" => {
                let additions = optional("additions");
                let deletions = optional("deletions");
                if additions.is_empty() && deletions.is_empty() {
                    return Err(bad(
                        "op \"update\" needs \"additions\" and/or \"deletions\"".to_string(),
                    ));
                }
                Ok(Request::Update {
                    additions,
                    deletions,
                })
            }
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "health" => Ok(Request::Health),
            "trace" => Ok(Request::Trace {
                limit: value
                    .get("limit")
                    .and_then(Json::as_u64)
                    .unwrap_or(DEFAULT_TRACE_LIMIT),
                since: value.get("since").and_then(Json::as_u64).unwrap_or(0),
            }),
            "query_stats" => Ok(Request::QueryStats),
            "ping" => Ok(Request::Ping),
            "shutdown" => Ok(Request::Shutdown),
            "replicate" => Ok(Request::Replicate {
                from: value.get("from").and_then(Json::as_u64).unwrap_or(0),
                max: value
                    .get("max")
                    .and_then(Json::as_u64)
                    .unwrap_or(DEFAULT_REPLICATE_MAX),
            }),
            "wal" => Ok(Request::WalStatus),
            other => Err(bad(format!("unknown op {other:?}"))),
        }
    }

    /// Encode this request as one protocol line (no newline).
    pub fn encode(&self) -> String {
        // Omit an empty `params` object so parameterless frames keep the
        // exact wire shape older clients produce.
        let query_op = |op: &'static str, query: &str, params: &[(String, Json)]| {
            let mut fields = vec![
                ("op".to_string(), Json::Str(op.to_string())),
                ("query".to_string(), Json::Str(query.to_string())),
            ];
            if !params.is_empty() {
                fields.push(("params".to_string(), Json::Obj(params.to_vec())));
            }
            Json::Obj(fields)
        };
        let json = match self {
            Request::Cypher { query, params } => query_op("cypher", query, params),
            Request::Sparql { query, params } => query_op("sparql", query, params),
            Request::Update {
                additions,
                deletions,
            } => Json::obj([
                ("op", "update".into()),
                ("additions", additions.as_str().into()),
                ("deletions", deletions.as_str().into()),
            ]),
            Request::Stats => Json::obj([("op", "stats".into())]),
            Request::Metrics => Json::obj([("op", "metrics".into())]),
            Request::Health => Json::obj([("op", "health".into())]),
            Request::Trace { limit, since } => Json::obj([
                ("op", "trace".into()),
                ("limit", (*limit).into()),
                ("since", (*since).into()),
            ]),
            Request::QueryStats => Json::obj([("op", "query_stats".into())]),
            Request::Ping => Json::obj([("op", "ping".into())]),
            Request::Shutdown => Json::obj([("op", "shutdown".into())]),
            Request::Replicate { from, max } => Json::obj([
                ("op", "replicate".into()),
                ("from", (*from).into()),
                ("max", (*max).into()),
            ]),
            Request::WalStatus => Json::obj([("op", "wal".into())]),
        };
        json.to_line()
    }
}

/// Typed error categories of the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The frame was not valid JSON / not a known request shape.
    BadRequest,
    /// The request payload failed to parse (bad N-Triples delta).
    Parse,
    /// The query was rejected by the Cypher/SPARQL engine.
    Query,
    /// The accept queue is full; the connection was shed.
    Overloaded,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// The server is up but still replaying its checkpoint and WAL tail;
    /// retry shortly. Distinct from `internal` so clients and load
    /// balancers can treat boot replay as a transient, expected state.
    Recovering,
    /// The server is a read replica: writes must go to the primary.
    ReadOnly,
    /// A `replicate` cursor predates the primary's oldest retained WAL
    /// record (a checkpoint pruned past it). The stream cannot be served
    /// without a hole, so the replica must be re-seeded from a fresh
    /// copy of the primary's state instead of silently skipping records.
    ReseedRequired,
    /// A bug: the handler panicked or hit an unexpected state.
    Internal,
}

impl ErrorKind {
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::Parse => "parse",
            ErrorKind::Query => "query",
            ErrorKind::Overloaded => "overloaded",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::Recovering => "recovering",
            ErrorKind::ReadOnly => "read_only",
            ErrorKind::ReseedRequired => "reseed_required",
            ErrorKind::Internal => "internal",
        }
    }

    fn parse_kind(s: &str) -> Option<ErrorKind> {
        Some(match s {
            "bad_request" => ErrorKind::BadRequest,
            "parse" => ErrorKind::Parse,
            "query" => ErrorKind::Query,
            "overloaded" => ErrorKind::Overloaded,
            "shutting_down" => ErrorKind::ShuttingDown,
            "recovering" => ErrorKind::Recovering,
            "read_only" => ErrorKind::ReadOnly,
            "reseed_required" => ErrorKind::ReseedRequired,
            "internal" => ErrorKind::Internal,
            _ => return None,
        })
    }
}

/// An error response frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ErrorFrame {
    pub kind: ErrorKind,
    pub message: String,
}

impl fmt::Display for ErrorFrame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.as_str(), self.message)
    }
}

/// A server response: one success shape per endpoint, or a typed error.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Cypher result rows (values rendered in the `tr(µ)` domain).
    Cypher {
        columns: Vec<String>,
        rows: Vec<Vec<Option<String>>>,
    },
    /// SPARQL result rows (terms rendered in the `tr(µ)` domain).
    Sparql {
        vars: Vec<String>,
        rows: Vec<Vec<Option<String>>>,
    },
    /// The operator tree an `EXPLAIN`-prefixed query would execute —
    /// nothing was executed. `language` is `"cypher"` or `"sparql"`.
    Explain {
        language: String,
        plan: PlanNode,
    },
    /// Result rows of a `PROFILE`-prefixed query plus its operator tree
    /// annotated with per-operator rows and time. `columns` carries the
    /// projection for both languages (SPARQL variables appear as columns).
    Profile {
        language: String,
        columns: Vec<String>,
        rows: Vec<Vec<Option<String>>>,
        plan: PlanNode,
    },
    /// The per-query statistics registry, most-called entries first.
    QueryStats {
        queries: Vec<QueryStatEntry>,
    },
    /// Outcome of an applied delta.
    Update {
        added_nodes: u64,
        added_edges: u64,
        added_properties: u64,
        removed: u64,
        conforms: bool,
    },
    Stats {
        nodes: u64,
        edges: u64,
        triples: u64,
        conforms: bool,
        /// Estimated resident footprint of the served snapshot in bytes
        /// (RDF store + PG store, deep-size accounting).
        mem_bytes: u64,
    },
    /// Prometheus-style text exposition of every registered metric.
    Metrics {
        exposition: String,
    },
    /// Liveness with server uptime; never touches the store locks.
    Health {
        uptime_micros: u64,
    },
    /// Tail of the server's trace ring: JSONL event lines, oldest first.
    Trace {
        events: Vec<String>,
    },
    Pong,
    /// Acknowledgement that the server is draining for exit.
    ShuttingDown,
    /// A batch of committed WAL records for a replica, plus the primary's
    /// newest sequence number so the replica can gauge its lag.
    Replicate {
        records: Vec<ReplicaRecord>,
        last_seq: u64,
    },
    /// Durability status frame.
    WalStatus {
        /// `"primary"`, `"replica"`, or `"ephemeral"` (no WAL configured).
        role: String,
        /// Newest sequence number appended to the local WAL.
        last_seq: u64,
        /// Newest sequence number known durable on local disk.
        durable_seq: u64,
        /// Total bytes across live WAL segments.
        wal_bytes: u64,
        /// Sequence number covered by the newest on-disk checkpoint
        /// (0 = none yet).
        checkpoint_seq: u64,
        /// Newest sequence number applied to the served graph. On a
        /// replica this trails the primary's `last_seq` by the lag.
        applied_seq: u64,
    },
    Error(ErrorFrame),
}

/// One WAL record on the wire, inside a [`Response::Replicate`] frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaRecord {
    pub seq: u64,
    pub additions: String,
    pub deletions: String,
}

/// One registry entry on the wire, inside a [`Response::QueryStats`] frame.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryStatEntry {
    /// `"cypher"` or `"sparql"`.
    pub endpoint: String,
    /// Whitespace-normalized parameterized query text (the plan-cache key).
    pub query: String,
    /// Successful executions.
    pub calls: u64,
    /// Executions that returned a typed error.
    pub errors: u64,
    /// Result rows emitted across all successful executions.
    pub rows: u64,
    /// Latency quantiles over successful executions, microseconds.
    pub p50_us: u64,
    pub p99_us: u64,
    pub max_us: u64,
    /// Calls that arrived over the JSON line protocol.
    pub json_calls: u64,
    /// Calls that arrived over the Bolt listener.
    pub bolt_calls: u64,
    /// The most recently rendered plan for this query, if any execution
    /// ran with `EXPLAIN`/`PROFILE` or the slow-query path captured one.
    pub last_plan: Option<PlanNode>,
}

/// Serialize an operator tree as a JSON object: `op`, `id`, then `args`
/// (object), `rows`/`time_us` (profile annotations), and
/// `children` — each omitted when empty/absent, so
/// `EXPLAIN` plans carry no profile fields at all.
pub fn plan_to_json(node: &PlanNode) -> Json {
    let mut fields: Vec<(String, Json)> = vec![
        ("op".to_string(), Json::Str(node.op.clone())),
        ("id".to_string(), Json::Str(node.id.clone())),
    ];
    if !node.args.is_empty() {
        fields.push((
            "args".to_string(),
            Json::Obj(
                node.args
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone())))
                    .collect(),
            ),
        ));
    }
    if let Some(rows) = node.rows {
        fields.push(("rows".to_string(), rows.into()));
    }
    if let Some(time_us) = node.time_us {
        fields.push(("time_us".to_string(), time_us.into()));
    }
    if !node.children.is_empty() {
        fields.push((
            "children".to_string(),
            Json::Arr(node.children.iter().map(plan_to_json).collect()),
        ));
    }
    Json::Obj(fields)
}

/// Parse an operator tree produced by [`plan_to_json`].
fn plan_from_json(value: &Json) -> Result<PlanNode, String> {
    let text = |name: &str| -> Result<String, String> {
        value
            .get(name)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("plan node missing string field \"{name}\""))
    };
    let mut node = PlanNode::new(text("op")?, text("id")?);
    if let Some(args) = value.get("args") {
        let Json::Obj(fields) = args else {
            return Err("plan node \"args\" must be an object".to_string());
        };
        for (k, v) in fields {
            let v = v.as_str().ok_or("plan arg values must be strings")?;
            node.args.push((k.clone(), v.to_string()));
        }
    }
    node.rows = value.get("rows").and_then(Json::as_u64);
    node.time_us = value.get("time_us").and_then(Json::as_u64);
    if let Some(children) = value.get("children") {
        for child in children
            .as_array()
            .ok_or("plan \"children\" must be an array")?
        {
            node.children.push(plan_from_json(child)?);
        }
    }
    Ok(node)
}

/// Encode a result frame: `ok`, then `language` (`Profile` only), the
/// column names under the key `names.0` (`columns` or `vars`), the rows,
/// and the plan (`Profile` only).
///
/// Cells go through [`json::write_escaped`] straight into the line, which
/// is sized from the rows with room for the newline [`write_frame`]
/// appends: a frame whose cells need no escapes is one allocation.
fn result_frame(
    language: Option<&str>,
    names: (&str, &[String]),
    rows: &[Vec<Option<String>>],
    plan: Option<&PlanNode>,
) -> String {
    let plan = plan.map(|plan| plan_to_json(plan).to_line());
    // Quotes and a comma per string, `null,` per NULL, brackets and a comma
    // per row, then the fixed keys.
    let quoted = |s: &String| s.len() + 3;
    let cells: usize = rows
        .iter()
        .map(|row| {
            3 + row
                .iter()
                .map(|cell| cell.as_ref().map_or(5, quoted))
                .sum::<usize>()
        })
        .sum();
    let capacity = 64
        + language.map_or(0, str::len)
        + names.1.iter().map(quoted).sum::<usize>()
        + cells
        + plan.as_ref().map_or(0, String::len);
    let mut line = String::with_capacity(capacity);
    write_result_frame(&mut line, language, names, rows, plan.as_deref())
        .expect("writing to a String cannot fail");
    line
}

fn write_result_frame(
    out: &mut String,
    language: Option<&str>,
    (key, names): (&str, &[String]),
    rows: &[Vec<Option<String>>],
    plan: Option<&str>,
) -> fmt::Result {
    out.push_str("{\"ok\":true,");
    if let Some(language) = language {
        out.push_str("\"language\":");
        json::write_escaped(out, language)?;
        out.push(',');
    }
    json::write_escaped(out, key)?;
    out.push_str(":[");
    for (i, name) in names.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        json::write_escaped(out, name)?;
    }
    out.push_str("],\"rows\":[");
    for (i, row) in rows.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, cell) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            match cell {
                Some(text) => json::write_escaped(out, text)?,
                None => out.push_str("null"),
            }
        }
        out.push(']');
    }
    out.push(']');
    if let Some(plan) = plan {
        out.push_str(",\"plan\":");
        out.push_str(plan);
    }
    out.push('}');
    Ok(())
}

impl Response {
    /// Whether this is a success frame.
    pub fn is_ok(&self) -> bool {
        !matches!(self, Response::Error(_))
    }

    /// Encode as one protocol line (no newline).
    ///
    /// Result frames (`Cypher`, `Sparql`, `Profile`) are written straight
    /// from their rows into one line sized for them, newline included; the
    /// other frames are small and serialise a [`Json`] tree.
    pub fn encode(&self) -> String {
        let json = match self {
            Response::Cypher { columns, rows } => {
                return result_frame(None, ("columns", columns), rows, None)
            }
            Response::Sparql { vars, rows } => {
                return result_frame(None, ("vars", vars), rows, None)
            }
            Response::Profile {
                language,
                columns,
                rows,
                plan,
            } => return result_frame(Some(language), ("columns", columns), rows, Some(plan)),
            Response::Explain { language, plan } => Json::obj([
                ("ok", true.into()),
                ("language", language.as_str().into()),
                ("plan", plan_to_json(plan)),
            ]),
            Response::QueryStats { queries } => Json::obj([
                ("ok", true.into()),
                (
                    "queries",
                    Json::Arr(
                        queries
                            .iter()
                            .map(|q| {
                                let mut fields: Vec<(String, Json)> = vec![
                                    ("endpoint".to_string(), q.endpoint.as_str().into()),
                                    ("query".to_string(), q.query.as_str().into()),
                                    ("calls".to_string(), q.calls.into()),
                                    ("errors".to_string(), q.errors.into()),
                                    ("rows".to_string(), q.rows.into()),
                                    ("p50_us".to_string(), q.p50_us.into()),
                                    ("p99_us".to_string(), q.p99_us.into()),
                                    ("max_us".to_string(), q.max_us.into()),
                                    ("json_calls".to_string(), q.json_calls.into()),
                                    ("bolt_calls".to_string(), q.bolt_calls.into()),
                                ];
                                if let Some(plan) = &q.last_plan {
                                    fields.push(("last_plan".to_string(), plan_to_json(plan)));
                                }
                                Json::Obj(fields)
                            })
                            .collect(),
                    ),
                ),
            ]),
            Response::Update {
                added_nodes,
                added_edges,
                added_properties,
                removed,
                conforms,
            } => Json::obj([
                ("ok", true.into()),
                ("added_nodes", (*added_nodes).into()),
                ("added_edges", (*added_edges).into()),
                ("added_properties", (*added_properties).into()),
                ("removed", (*removed).into()),
                ("conforms", (*conforms).into()),
            ]),
            Response::Stats {
                nodes,
                edges,
                triples,
                conforms,
                mem_bytes,
            } => Json::obj([
                ("ok", true.into()),
                ("nodes", (*nodes).into()),
                ("edges", (*edges).into()),
                ("triples", (*triples).into()),
                ("conforms", (*conforms).into()),
                ("mem_bytes", (*mem_bytes).into()),
            ]),
            Response::Metrics { exposition } => Json::obj([
                ("ok", true.into()),
                ("exposition", exposition.as_str().into()),
            ]),
            Response::Health { uptime_micros } => Json::obj([
                ("ok", true.into()),
                ("healthy", true.into()),
                ("uptime_micros", (*uptime_micros).into()),
            ]),
            Response::Trace { events } => Json::obj([
                ("ok", true.into()),
                (
                    "events",
                    Json::Arr(events.iter().map(|e| e.as_str().into()).collect()),
                ),
            ]),
            Response::Pong => Json::obj([("ok", true.into()), ("pong", true.into())]),
            Response::ShuttingDown => {
                Json::obj([("ok", true.into()), ("shutting_down", true.into())])
            }
            Response::Replicate { records, last_seq } => Json::obj([
                ("ok", true.into()),
                (
                    "records",
                    Json::Arr(
                        records
                            .iter()
                            .map(|r| {
                                Json::obj([
                                    ("seq", r.seq.into()),
                                    ("additions", r.additions.as_str().into()),
                                    ("deletions", r.deletions.as_str().into()),
                                ])
                            })
                            .collect(),
                    ),
                ),
                ("last_seq", (*last_seq).into()),
            ]),
            Response::WalStatus {
                role,
                last_seq,
                durable_seq,
                wal_bytes,
                checkpoint_seq,
                applied_seq,
            } => Json::obj([
                ("ok", true.into()),
                ("role", role.as_str().into()),
                ("last_seq", (*last_seq).into()),
                ("durable_seq", (*durable_seq).into()),
                ("wal_bytes", (*wal_bytes).into()),
                ("checkpoint_seq", (*checkpoint_seq).into()),
                ("applied_seq", (*applied_seq).into()),
            ]),
            Response::Error(e) => Json::obj([
                ("ok", false.into()),
                (
                    "error",
                    Json::obj([
                        ("kind", e.kind.as_str().into()),
                        ("message", e.message.as_str().into()),
                    ]),
                ),
            ]),
        };
        json.to_line()
    }

    /// Decode one response line. The success shape is inferred from the
    /// fields present (each endpoint has a distinct marker field).
    pub fn decode(line: &str) -> Result<Response, String> {
        let value = json::parse(line.trim()).map_err(|e| e.to_string())?;
        let ok = value
            .get("ok")
            .and_then(Json::as_bool)
            .ok_or("missing \"ok\" field")?;
        if !ok {
            let error = value.get("error").ok_or("error frame without \"error\"")?;
            let kind = error
                .get("kind")
                .and_then(Json::as_str)
                .and_then(ErrorKind::parse_kind)
                .ok_or("error frame with unknown kind")?;
            let message = error
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string();
            return Ok(Response::Error(ErrorFrame { kind, message }));
        }
        let rows_of = |v: &Json| -> Result<Vec<Vec<Option<String>>>, String> {
            v.as_array()
                .ok_or("\"rows\" must be an array")?
                .iter()
                .map(|row| {
                    row.as_array()
                        .ok_or_else(|| "row must be an array".to_string())?
                        .iter()
                        .map(|cell| match cell {
                            Json::Null => Ok(None),
                            Json::Str(s) => Ok(Some(s.clone())),
                            _ => Err("cell must be string or null".to_string()),
                        })
                        .collect()
                })
                .collect()
        };
        let strings_of = |v: &Json| -> Result<Vec<String>, String> {
            v.as_array()
                .ok_or("expected an array of strings")?
                .iter()
                .map(|s| {
                    s.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| "expected a string".to_string())
                })
                .collect()
        };
        let num = |v: &Json, name: &str| -> Result<u64, String> {
            v.get(name)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("missing numeric field \"{name}\""))
        };
        // `plan` must be checked before `columns`: Profile frames carry both.
        if let Some(plan) = value.get("plan") {
            let language = value
                .get("language")
                .and_then(Json::as_str)
                .ok_or("plan frame missing \"language\"")?
                .to_string();
            let plan = plan_from_json(plan)?;
            match value.get("columns") {
                Some(columns) => Ok(Response::Profile {
                    language,
                    columns: strings_of(columns)?,
                    rows: rows_of(value.get("rows").ok_or("missing \"rows\"")?)?,
                    plan,
                }),
                None => Ok(Response::Explain { language, plan }),
            }
        } else if let Some(queries) = value.get("queries") {
            let queries = queries
                .as_array()
                .ok_or("\"queries\" must be an array")?
                .iter()
                .map(|q| -> Result<QueryStatEntry, String> {
                    let text = |name: &str| -> Result<String, String> {
                        q.get(name)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("query entry missing \"{name}\""))
                    };
                    Ok(QueryStatEntry {
                        endpoint: text("endpoint")?,
                        query: text("query")?,
                        calls: num(q, "calls")?,
                        errors: num(q, "errors")?,
                        rows: num(q, "rows")?,
                        p50_us: num(q, "p50_us")?,
                        p99_us: num(q, "p99_us")?,
                        max_us: num(q, "max_us")?,
                        json_calls: num(q, "json_calls")?,
                        bolt_calls: num(q, "bolt_calls")?,
                        last_plan: match q.get("last_plan") {
                            Some(p) => Some(plan_from_json(p)?),
                            None => None,
                        },
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Response::QueryStats { queries })
        } else if let Some(columns) = value.get("columns") {
            Ok(Response::Cypher {
                columns: strings_of(columns)?,
                rows: rows_of(value.get("rows").ok_or("missing \"rows\"")?)?,
            })
        } else if let Some(vars) = value.get("vars") {
            Ok(Response::Sparql {
                vars: strings_of(vars)?,
                rows: rows_of(value.get("rows").ok_or("missing \"rows\"")?)?,
            })
        } else if value.get("added_nodes").is_some() {
            Ok(Response::Update {
                added_nodes: num(&value, "added_nodes")?,
                added_edges: num(&value, "added_edges")?,
                added_properties: num(&value, "added_properties")?,
                removed: num(&value, "removed")?,
                conforms: value
                    .get("conforms")
                    .and_then(Json::as_bool)
                    .ok_or("missing \"conforms\"")?,
            })
        } else if value.get("triples").is_some() {
            Ok(Response::Stats {
                nodes: num(&value, "nodes")?,
                edges: num(&value, "edges")?,
                triples: num(&value, "triples")?,
                conforms: value
                    .get("conforms")
                    .and_then(Json::as_bool)
                    .ok_or("missing \"conforms\"")?,
                mem_bytes: num(&value, "mem_bytes")?,
            })
        } else if let Some(exposition) = value.get("exposition") {
            Ok(Response::Metrics {
                exposition: exposition
                    .as_str()
                    .ok_or("\"exposition\" must be a string")?
                    .to_string(),
            })
        } else if value.get("healthy").is_some() {
            Ok(Response::Health {
                uptime_micros: num(&value, "uptime_micros")?,
            })
        } else if let Some(events) = value.get("events") {
            Ok(Response::Trace {
                events: strings_of(events)?,
            })
        } else if value.get("pong").is_some() {
            Ok(Response::Pong)
        } else if value.get("shutting_down").is_some() {
            Ok(Response::ShuttingDown)
        } else if let Some(records) = value.get("records") {
            let records = records
                .as_array()
                .ok_or("\"records\" must be an array")?
                .iter()
                .map(|r| -> Result<ReplicaRecord, String> {
                    let text = |name: &str| -> Result<String, String> {
                        r.get(name)
                            .and_then(Json::as_str)
                            .map(str::to_string)
                            .ok_or_else(|| format!("record missing \"{name}\""))
                    };
                    Ok(ReplicaRecord {
                        seq: r
                            .get("seq")
                            .and_then(Json::as_u64)
                            .ok_or("record missing \"seq\"")?,
                        additions: text("additions")?,
                        deletions: text("deletions")?,
                    })
                })
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Response::Replicate {
                records,
                last_seq: num(&value, "last_seq")?,
            })
        } else if let Some(role) = value.get("role") {
            Ok(Response::WalStatus {
                role: role
                    .as_str()
                    .ok_or("\"role\" must be a string")?
                    .to_string(),
                last_seq: num(&value, "last_seq")?,
                durable_seq: num(&value, "durable_seq")?,
                wal_bytes: num(&value, "wal_bytes")?,
                checkpoint_seq: num(&value, "checkpoint_seq")?,
                applied_seq: num(&value, "applied_seq")?,
            })
        } else {
            Err("unrecognized response shape".to_string())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_frame_is_one_write_ending_in_a_newline() {
        /// Records what each `write` call was handed.
        struct Calls(Vec<Vec<u8>>);
        impl Write for Calls {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                self.0.push(buf.to_vec());
                Ok(buf.len())
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let frames = [
            Response::Pong.encode(),
            Response::Error(ErrorFrame {
                kind: ErrorKind::Overloaded,
                message: "accept queue full".to_string(),
            })
            .encode(),
            Request::cypher("MATCH (n) RETURN n").encode(),
            String::new(),
        ];
        for frame in frames {
            let mut calls = Calls(Vec::new());
            write_frame(&mut calls, frame.clone()).unwrap();
            assert_eq!(calls.0.len(), 1, "{frame:?}");
            assert_eq!(calls.0[0], format!("{frame}\n").as_bytes());
        }
    }

    #[test]
    fn requests_round_trip() {
        for request in [
            Request::cypher("MATCH (n) RETURN n"),
            Request::sparql("SELECT * WHERE { ?s ?p ?o }"),
            Request::Cypher {
                query: "MATCH (n:Person) WHERE n.iri = $iri RETURN n.name".to_string(),
                params: vec![
                    ("iri".to_string(), Json::Str("http://ex/a".to_string())),
                    ("limit".to_string(), Json::Num(3.0)),
                ],
            },
            Request::Sparql {
                query: "SELECT ?s WHERE { ?s ?p $o }".to_string(),
                params: vec![("o".to_string(), Json::Str("<http://ex/b>".to_string()))],
            },
            Request::Update {
                additions: "<http://ex/a> <http://ex/p> \"line\\nbreak\" .\n".to_string(),
                deletions: String::new(),
            },
            Request::Stats,
            Request::Metrics,
            Request::Health,
            Request::Trace {
                limit: 64,
                since: 120_000,
            },
            Request::QueryStats,
            Request::Ping,
            Request::Shutdown,
            Request::Replicate { from: 41, max: 16 },
            Request::WalStatus,
        ] {
            let line = request.encode();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::decode(&line).unwrap(), request, "{line}");
        }
    }

    #[test]
    fn responses_round_trip() {
        for response in [
            Response::Cypher {
                columns: vec!["a".into(), "b".into()],
                rows: vec![
                    vec![Some("x".into()), None],
                    vec![Some("y".into()), Some("z".into())],
                ],
            },
            Response::Sparql {
                vars: vec!["s".into()],
                rows: vec![vec![Some("http://ex/a".into())]],
            },
            Response::Explain {
                language: "cypher".to_string(),
                plan: PlanNode::new("NodeByLabelScan", "p0.pat0")
                    .arg("label", "Person")
                    .arg("est_rows", "12")
                    .feed(PlanNode::new("Projection", "p0.project").arg("columns", "n.name")),
            },
            Response::Profile {
                language: "sparql".to_string(),
                columns: vec!["s".into()],
                rows: vec![vec![Some("http://ex/a".into())]],
                plan: {
                    let mut scan =
                        PlanNode::new("TriplePatternScan", "pat0").arg("pattern", "?s ?p ?o");
                    scan.rows = Some(3);
                    scan.time_us = Some(17);
                    scan.feed(PlanNode::new("Projection", "project"))
                },
            },
            Response::QueryStats {
                queries: vec![
                    QueryStatEntry {
                        endpoint: "cypher".to_string(),
                        query: "MATCH (n:Person) RETURN n.name".to_string(),
                        calls: 9,
                        errors: 1,
                        rows: 42,
                        p50_us: 120,
                        p99_us: 900,
                        max_us: 1400,
                        json_calls: 7,
                        bolt_calls: 2,
                        last_plan: Some(PlanNode::new("NodeByLabelScan", "p0.pat0")),
                    },
                    QueryStatEntry {
                        endpoint: "sparql".to_string(),
                        query: "SELECT ?s WHERE { ?s ?p $o }".to_string(),
                        calls: 1,
                        ..QueryStatEntry::default()
                    },
                ],
            },
            Response::QueryStats {
                queries: Vec::new(),
            },
            Response::Update {
                added_nodes: 1,
                added_edges: 2,
                added_properties: 3,
                removed: 0,
                conforms: true,
            },
            Response::Stats {
                nodes: 10,
                edges: 20,
                triples: 30,
                conforms: false,
                mem_bytes: 4096,
            },
            Response::Metrics {
                exposition: "# TYPE s3pg_requests_total counter\ns3pg_requests_total{endpoint=\"cypher\"} 5\n".to_string(),
            },
            Response::Health { uptime_micros: 1234 },
            Response::Trace {
                events: vec![
                    r#"{"trace":1,"span":1,"parent":0,"name":"request","ev":"begin","t_us":10}"#
                        .to_string(),
                    r#"{"trace":1,"span":1,"parent":0,"name":"request","ev":"end","t_us":42}"#
                        .to_string(),
                ],
            },
            Response::Pong,
            Response::ShuttingDown,
            Response::Replicate {
                records: vec![
                    ReplicaRecord {
                        seq: 7,
                        additions: "<http://ex/a> <http://ex/p> \"v\" .\n".to_string(),
                        deletions: String::new(),
                    },
                    ReplicaRecord {
                        seq: 8,
                        additions: String::new(),
                        deletions: "<http://ex/a> <http://ex/p> \"v\" .\n".to_string(),
                    },
                ],
                last_seq: 12,
            },
            Response::Replicate {
                records: Vec::new(),
                last_seq: 0,
            },
            Response::WalStatus {
                role: "primary".to_string(),
                last_seq: 42,
                durable_seq: 40,
                wal_bytes: 8192,
                checkpoint_seq: 30,
                applied_seq: 42,
            },
            Response::Error(ErrorFrame {
                kind: ErrorKind::Overloaded,
                message: "accept queue full".to_string(),
            }),
            Response::Error(ErrorFrame {
                kind: ErrorKind::Recovering,
                message: "replaying checkpoint and WAL tail".to_string(),
            }),
            Response::Error(ErrorFrame {
                kind: ErrorKind::ReadOnly,
                message: "writes must go to the primary".to_string(),
            }),
        ] {
            let line = response.encode();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Response::decode(&line).unwrap(), response, "{line}");
        }
    }

    #[test]
    fn malformed_requests_become_typed_errors() {
        for bad in [
            "",
            "not json",
            "{}",
            r#"{"op":42}"#,
            r#"{"op":"fly"}"#,
            r#"{"op":"cypher"}"#,
            r#"{"op":"cypher","query":"RETURN 1","params":[1,2]}"#,
            r#"{"op":"sparql","query":"SELECT ?s WHERE { ?s ?p ?o }","params":"x"}"#,
            r#"{"op":"update"}"#,
            r#"{"op":"update","additions":7}"#,
        ] {
            let e = Request::decode(bad).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{bad}");
        }
    }

    #[test]
    fn error_kind_strings_are_stable() {
        for kind in [
            ErrorKind::BadRequest,
            ErrorKind::Parse,
            ErrorKind::Query,
            ErrorKind::Overloaded,
            ErrorKind::ShuttingDown,
            ErrorKind::Recovering,
            ErrorKind::ReadOnly,
            ErrorKind::ReseedRequired,
            ErrorKind::Internal,
        ] {
            assert_eq!(ErrorKind::parse_kind(kind.as_str()), Some(kind));
        }
        assert_eq!(ErrorKind::parse_kind("nope"), None);
    }

    #[test]
    fn trace_limit_defaults_when_omitted() {
        assert_eq!(
            Request::decode(r#"{"op":"trace"}"#).unwrap(),
            Request::Trace {
                limit: DEFAULT_TRACE_LIMIT,
                since: 0,
            }
        );
        assert_eq!(
            Request::decode(r#"{"op":"trace","limit":8,"since":99}"#).unwrap(),
            Request::Trace {
                limit: 8,
                since: 99
            }
        );
    }

    #[test]
    fn replicate_defaults_when_fields_omitted() {
        assert_eq!(
            Request::decode(r#"{"op":"replicate"}"#).unwrap(),
            Request::Replicate {
                from: 0,
                max: DEFAULT_REPLICATE_MAX
            }
        );
        assert_eq!(
            Request::decode(r#"{"op":"replicate","from":9,"max":3}"#).unwrap(),
            Request::Replicate { from: 9, max: 3 }
        );
    }

    #[test]
    fn params_are_optional_and_omitted_when_empty() {
        let r = Request::decode(r#"{"op":"cypher","query":"RETURN 1"}"#).unwrap();
        assert_eq!(r, Request::cypher("RETURN 1"));
        let line = Request::cypher("RETURN 1").encode();
        assert!(!line.contains("params"), "{line}");
        let r = Request::decode(r#"{"op":"cypher","query":"RETURN $x","params":{"x":7,"y":"s"}}"#)
            .unwrap();
        assert_eq!(
            r,
            Request::Cypher {
                query: "RETURN $x".to_string(),
                params: vec![
                    ("x".to_string(), Json::Num(7.0)),
                    ("y".to_string(), Json::Str("s".to_string())),
                ],
            }
        );
    }

    #[test]
    fn update_with_only_deletions_is_valid() {
        let r = Request::decode(r#"{"op":"update","deletions":"<a> <b> <c> ."}"#).unwrap();
        assert_eq!(
            r,
            Request::Update {
                additions: String::new(),
                deletions: "<a> <b> <c> .".to_string()
            }
        );
    }
}
