//! The Bolt listener: lets stock Neo4j drivers and `cypher-shell` run
//! Cypher against the s3pg store.
//!
//! One acceptor thread owns a second [`TcpListener`] (`--bolt-addr`);
//! each accepted connection gets a session thread running the state
//! machine below. Sessions are long-lived and stateful (Bolt pipelines
//! `RUN` + `PULL` on one connection), which is why this front end is
//! thread-per-session rather than reusing the JSON worker pool — but
//! everything *behind* the wire format is shared: `RUN` funnels through
//! [`Shared::run_cypher`], so the plan cache, parameter validation, the
//! snapshot read path, metrics, and trace spans are identical to the
//! JSON listener's by construction.
//!
//! ## Session state machine
//!
//! ```text
//! handshake → HELLO (→ LOGON) → { RUN → (PULL | DISCARD)* , RESET }* → GOODBYE
//! ```
//!
//! A failed request parks the session: subsequent `RUN`/`PULL`/`DISCARD`
//! answer `IGNORED` until the client sends `RESET` (standard Bolt
//! failure handling). Framing or PackStream violations answer one typed
//! `FAILURE` and close — after a malformed chunk the byte stream cannot
//! be resynchronized.
//!
//! ## Robustness bounds
//!
//! The handshake must complete within [`HANDSHAKE_TIMEOUT`]; a message
//! may not exceed [`s3pg_bolt::DEFAULT_MAX_MESSAGE_BYTES`] reassembled;
//! a peer stalling mid-message is dropped after [`SESSION_READ_TIMEOUT`].
//! Every violation is a counted, typed close — never a hang, never a
//! panic (handler panics become `FAILURE` records like the JSON
//! listener's `internal` frames).

use crate::json::Json;
use crate::protocol::{ErrorKind, Response};
use crate::server::{panic_message, Shared, SlowQuery, ACCEPT_POLL, POLL_INTERVAL};
use s3pg_bolt::message::{self, ClientMessage};
use s3pg_bolt::packstream::Value;
use s3pg_bolt::{frame, handshake, DEFAULT_MAX_MESSAGE_BYTES};
use s3pg_obs::Counter;
use s3pg_query::profile::PlanNode;
use std::collections::VecDeque;
use std::io::ErrorKind as IoErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A connection must complete the 20-byte handshake within this window
/// or be dropped — an idle pre-handshake socket never pins a thread.
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(2);

/// A peer that stalls mid-message (header promised bytes that never
/// arrive) is dropped after this long.
const SESSION_READ_TIMEOUT: Duration = Duration::from_secs(30);

// Neo4j-style status codes, so stock drivers classify failures
// correctly (client vs transient vs database errors).
const CODE_INVALID: &str = "Neo.ClientError.Request.Invalid";
const CODE_SYNTAX: &str = "Neo.ClientError.Statement.SyntaxError";
const CODE_UNAVAILABLE: &str = "Neo.TransientError.General.DatabaseUnavailable";
const CODE_READ_ONLY: &str = "Neo.ClientError.General.ForbiddenOnReadOnlyDatabase";
const CODE_INTERNAL: &str = "Neo.DatabaseError.General.UnknownError";

fn failure_code(kind: ErrorKind) -> &'static str {
    match kind {
        ErrorKind::BadRequest => CODE_INVALID,
        ErrorKind::Parse | ErrorKind::Query => CODE_SYNTAX,
        ErrorKind::Overloaded | ErrorKind::ShuttingDown | ErrorKind::Recovering => CODE_UNAVAILABLE,
        ErrorKind::ReadOnly => CODE_READ_ONLY,
        ErrorKind::ReseedRequired | ErrorKind::Internal => CODE_INTERNAL,
    }
}

/// Listener-level counters (the per-request series ride on the shared
/// endpoint metrics and the `listener="bolt"` plan-cache series).
struct BoltMetrics {
    sessions: Arc<Counter>,
    messages: Arc<Counter>,
    protocol_errors: Arc<Counter>,
    handshake_failures: Arc<Counter>,
    connection_seq: AtomicU64,
}

impl BoltMetrics {
    fn new(shared: &Shared) -> Self {
        let registry = shared.registry();
        BoltMetrics {
            sessions: registry.counter("s3pg_bolt_sessions_total"),
            messages: registry.counter("s3pg_bolt_messages_total"),
            protocol_errors: registry.counter("s3pg_bolt_protocol_errors_total"),
            handshake_failures: registry.counter("s3pg_bolt_handshake_failures_total"),
            connection_seq: AtomicU64::new(0),
        }
    }
}

/// Bind `addr` and start the Bolt acceptor. Returns the bound address
/// and the acceptor thread (which joins all its session threads before
/// exiting, so [`crate::ServerHandle::join`] covers everything).
pub(crate) fn spawn(
    addr: &str,
    shared: Arc<Shared>,
) -> std::io::Result<(SocketAddr, JoinHandle<()>)> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    listener.set_nonblocking(true)?;
    let thread = std::thread::Builder::new()
        .name("s3pg-bolt-acceptor".to_string())
        .spawn(move || accept_loop(&listener, &shared))?;
    Ok((local, thread))
}

fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    let metrics = Arc::new(BoltMetrics::new(shared));
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    while !shared.is_shutdown() {
        match listener.accept() {
            Ok((stream, _)) => {
                metrics.sessions.inc();
                let shared = Arc::clone(shared);
                let metrics = Arc::clone(&metrics);
                let spawned = std::thread::Builder::new()
                    .name("s3pg-bolt-session".to_string())
                    .spawn(move || serve_session(stream, &shared, &metrics));
                if let Ok(handle) = spawned {
                    sessions.push(handle);
                }
                // Reap finished sessions so the vector stays bounded by
                // the number of *live* connections.
                sessions.retain(|h| !h.is_finished());
            }
            Err(e) if e.kind() == IoErrorKind::WouldBlock => std::thread::sleep(ACCEPT_POLL),
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
    for handle in sessions {
        let _ = handle.join();
    }
}

fn serve_session(mut stream: TcpStream, shared: &Shared, metrics: &BoltMetrics) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    if stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT)).is_err() {
        return;
    }
    // Bad magic, no version overlap, timeout: count and close. There is
    // no Bolt framing yet at this point, so a FAILURE record cannot be
    // expressed — the deterministic close (after the all-zeros answer,
    // when negotiation at least started) is the typed outcome.
    match handshake::serve_handshake(&mut stream) {
        Ok(Some(_version)) => {}
        Ok(None) | Err(_) => {
            metrics.handshake_failures.inc();
            return;
        }
    }
    let connection_id = metrics.connection_seq.fetch_add(1, Ordering::Relaxed);
    Session {
        shared,
        metrics,
        connection_id,
        authenticated: false,
        failed: false,
        fields: Vec::new(),
        pending: VecDeque::new(),
        summary: None,
    }
    .run(stream);
}

/// One Bolt connection's state.
struct Session<'a> {
    shared: &'a Shared,
    metrics: &'a BoltMetrics,
    connection_id: u64,
    /// `HELLO` has been accepted.
    authenticated: bool,
    /// A request failed; `RUN`/`PULL`/`DISCARD` answer `IGNORED` until
    /// `RESET`.
    failed: bool,
    /// Columns of the current result.
    fields: Vec<String>,
    /// Buffered rows of the current result, drained by `PULL`.
    pending: VecDeque<Vec<Value>>,
    /// Extra metadata for the current result's final `SUCCESS` — the
    /// Neo4j-style `plan` (EXPLAIN) or `profile` (PROFILE) entry, so
    /// `cypher-shell` renders operator trees natively.
    summary: Option<(&'static str, Value)>,
}

impl Session<'_> {
    fn run(&mut self, mut stream: TcpStream) {
        use std::io::Write;
        loop {
            // Idle wait at poll granularity so shutdown lands promptly,
            // then switch to the stall cap for the actual message read.
            if stream.set_read_timeout(Some(POLL_INTERVAL)).is_err() {
                return;
            }
            let mut probe = [0u8; 1];
            loop {
                if self.shared.is_shutdown() {
                    let mut goodbye = Vec::new();
                    push(
                        &mut goodbye,
                        message::encode_failure(CODE_UNAVAILABLE, "server is shutting down"),
                    );
                    let _ = stream.write_all(&goodbye);
                    return;
                }
                match stream.peek(&mut probe) {
                    Ok(0) => return, // EOF
                    Ok(_) => break,
                    Err(e)
                        if matches!(e.kind(), IoErrorKind::WouldBlock | IoErrorKind::TimedOut) => {}
                    Err(_) => return,
                }
            }
            if stream.set_read_timeout(Some(SESSION_READ_TIMEOUT)).is_err() {
                return;
            }
            let payload = match frame::read_message(&mut stream, DEFAULT_MAX_MESSAGE_BYTES) {
                Ok(Some(payload)) => payload,
                Ok(None) => return,
                // Oversized or malformed framing: one typed FAILURE,
                // then close — the chunk stream cannot be resynced.
                Err(e) => {
                    self.metrics.protocol_errors.inc();
                    let mut out = Vec::new();
                    push(
                        &mut out,
                        message::encode_failure(CODE_INVALID, &e.to_string()),
                    );
                    let _ = stream.write_all(&out);
                    return;
                }
            };
            let decoded = match message::decode_client(&payload) {
                Ok(decoded) => decoded,
                Err(e) => {
                    self.metrics.protocol_errors.inc();
                    let mut out = Vec::new();
                    push(
                        &mut out,
                        message::encode_failure(CODE_INVALID, &e.to_string()),
                    );
                    let _ = stream.write_all(&out);
                    return;
                }
            };
            self.metrics.messages.inc();
            let mut out = Vec::new();
            let close = self.handle(decoded, &mut out);
            if !out.is_empty() && (stream.write_all(&out).is_err() || stream.flush().is_err()) {
                return;
            }
            if close {
                return;
            }
        }
    }

    /// Process one message, appending framed responses to `out`.
    /// Returns `true` when the session should close.
    fn handle(&mut self, decoded: ClientMessage, out: &mut Vec<u8>) -> bool {
        match decoded {
            ClientMessage::Goodbye => return true,
            ClientMessage::Hello(_) if !self.authenticated => {
                self.authenticated = true;
                push(
                    out,
                    message::encode_success(&[
                        (
                            "server".to_string(),
                            Value::String(concat!("s3pg-serve/", env!("CARGO_PKG_VERSION")).into()),
                        ),
                        (
                            "connection_id".to_string(),
                            Value::String(format!("bolt-{}", self.connection_id)),
                        ),
                    ]),
                );
            }
            message if !self.authenticated => {
                self.metrics.protocol_errors.inc();
                push(
                    out,
                    message::encode_failure(
                        CODE_INVALID,
                        &format!("expected HELLO, got {}", message.name()),
                    ),
                );
                return true;
            }
            ClientMessage::Hello(_) => {
                self.metrics.protocol_errors.inc();
                push(
                    out,
                    message::encode_failure(CODE_INVALID, "HELLO already received"),
                );
                return true;
            }
            // Any auth scheme is accepted — the server has no accounts.
            ClientMessage::Logon(_) | ClientMessage::Logoff => {
                push(out, message::encode_success(&[]));
            }
            ClientMessage::Reset => {
                self.failed = false;
                self.fields.clear();
                self.pending.clear();
                self.summary = None;
                push(out, message::encode_success(&[]));
            }
            ClientMessage::Run { .. } | ClientMessage::Pull(_) | ClientMessage::Discard(_)
                if self.failed =>
            {
                push(out, message::encode_ignored());
            }
            ClientMessage::Run {
                query,
                parameters,
                extra: _,
            } => self.run_query(&query, parameters, out),
            ClientMessage::Pull(meta) => self.drain(&meta, true, out),
            ClientMessage::Discard(meta) => self.drain(&meta, false, out),
        }
        false
    }

    fn run_query(&mut self, query: &str, parameters: Vec<(String, Value)>, out: &mut Vec<u8>) {
        if !self.pending.is_empty() {
            self.failed = true;
            push(
                out,
                message::encode_failure(
                    CODE_INVALID,
                    "previous result not consumed; PULL or DISCARD it first",
                ),
            );
            return;
        }
        let params = match convert_parameters(parameters) {
            Ok(params) => params,
            Err(message) => {
                self.failed = true;
                push(out, message::encode_failure(CODE_INVALID, &message));
                return;
            }
        };
        let Some(serving) = self.shared.serving() else {
            self.failed = true;
            push(
                out,
                message::encode_failure(
                    CODE_UNAVAILABLE,
                    "store is recovering (checkpoint load / WAL replay); retry shortly",
                ),
            );
            return;
        };
        // Same panic containment as the JSON worker: a handler panic is
        // one failed request, not a dead session thread.
        let store = serving.store.as_ref();
        let started = Instant::now();
        let (response, form) = catch_unwind(AssertUnwindSafe(|| {
            self.shared.run_cypher(store, query, &params, "bolt")
        }))
        .unwrap_or_else(|panic| {
            let frame = crate::protocol::ErrorFrame {
                kind: ErrorKind::Internal,
                message: format!("handler panicked: {}", panic_message(&panic)),
            };
            (Response::Error(frame), None)
        });
        let elapsed = started.elapsed();
        let ok = response.is_ok();
        self.shared.observe_request("cypher", elapsed, ok);
        // Bolt queries go through the same slow-query log as the JSON
        // listener's; only the execute stage exists here (no JSON
        // decode/serialize stages on this path).
        if let Some(threshold) = self.shared.slow_query_threshold() {
            if elapsed >= threshold {
                self.shared.log_slow_query(SlowQuery {
                    endpoint: "cypher",
                    listener: "bolt",
                    form,
                    query: query.to_string(),
                    rows: match &response {
                        Response::Cypher { rows, .. } | Response::Profile { rows, .. } => {
                            rows.len() as u64
                        }
                        _ => 0,
                    },
                    total_micros: elapsed.as_micros() as u64,
                    decode_micros: 0,
                    execute_micros: elapsed.as_micros() as u64,
                    serialize_micros: 0,
                    plan: self.shared.last_plan_json("cypher", query),
                });
            }
        }
        match response {
            Response::Cypher { columns, rows } => {
                self.install_result(columns, rows, None, out);
            }
            Response::Explain { plan, .. } => {
                // Nothing executed: an empty result whose final SUCCESS
                // carries the `plan` metadata entry.
                self.install_result(Vec::new(), Vec::new(), Some(("plan", plan)), out);
            }
            Response::Profile {
                columns,
                rows,
                plan,
                ..
            } => {
                self.install_result(columns, rows, Some(("profile", plan)), out);
            }
            Response::Error(frame) => {
                self.failed = true;
                push(
                    out,
                    message::encode_failure(failure_code(frame.kind), &frame.message),
                );
            }
            other => {
                self.failed = true;
                push(
                    out,
                    message::encode_failure(
                        CODE_INTERNAL,
                        &format!("unexpected engine response {other:?}"),
                    ),
                );
            }
        }
    }

    /// Stage a query result for `PULL`/`DISCARD`: fields, buffered rows,
    /// and an optional `plan`/`profile` summary entry for the final
    /// `SUCCESS`, then answer the `RUN` with the field list.
    fn install_result(
        &mut self,
        columns: Vec<String>,
        rows: Vec<Vec<Option<String>>>,
        summary: Option<(&'static str, PlanNode)>,
        out: &mut Vec<u8>,
    ) {
        self.fields = columns;
        self.pending = rows
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|cell| match cell {
                        Some(text) => Value::String(text),
                        None => Value::Null,
                    })
                    .collect()
            })
            .collect();
        self.summary = summary.map(|(key, plan)| (key, plan_value(&plan)));
        push(
            out,
            message::encode_success(&[
                (
                    "fields".to_string(),
                    Value::List(self.fields.iter().cloned().map(Value::String).collect()),
                ),
                ("t_first".to_string(), Value::Int(0)),
            ]),
        );
    }

    /// `PULL` (emit records) or `DISCARD` (drop them): consume up to `n`
    /// buffered rows (`-1` = all), then report whether more remain.
    fn drain(&mut self, meta: &[(String, Value)], emit: bool, out: &mut Vec<u8>) {
        let n = meta
            .iter()
            .find(|(k, _)| k == "n")
            .and_then(|(_, v)| v.as_int())
            .unwrap_or(-1);
        let take = if n < 0 {
            self.pending.len()
        } else {
            (n as usize).min(self.pending.len())
        };
        for _ in 0..take {
            let row = self.pending.pop_front().expect("take bounded by len");
            if emit {
                push(out, message::encode_record(row));
            }
        }
        if self.pending.is_empty() {
            self.fields.clear();
            let mut meta = vec![("t_last".to_string(), Value::Int(0))];
            if let Some((key, plan)) = self.summary.take() {
                meta.push((key.to_string(), plan));
            }
            push(out, message::encode_success(&meta));
        } else {
            push(
                out,
                message::encode_success(&[("has_more".to_string(), Value::Bool(true))]),
            );
        }
    }
}

/// Frame one response message onto the output buffer.
fn push(out: &mut Vec<u8>, payload: Vec<u8>) {
    frame::write_message(out, &payload).expect("writing to a Vec cannot fail");
}

/// Render an operator tree as Neo4j-style plan metadata: `operatorType`,
/// an `args` map (operator id and per-operator stats ride in it), `rows`
/// at the top level for profiled operators, and nested `children` —
/// exactly the shape `cypher-shell` renders for `EXPLAIN`/`PROFILE`.
fn plan_value(node: &PlanNode) -> Value {
    let mut args: Vec<(String, Value)> = vec![("id".to_string(), Value::String(node.id.clone()))];
    args.extend(
        node.args
            .iter()
            .map(|(k, v)| (k.clone(), Value::String(v.clone()))),
    );
    if let Some(time_us) = node.time_us {
        args.push(("time_us".to_string(), Value::Int(time_us as i64)));
    }
    let mut map = vec![
        ("operatorType".to_string(), Value::String(node.op.clone())),
        ("args".to_string(), Value::Map(args)),
        ("identifiers".to_string(), Value::List(Vec::new())),
    ];
    if let Some(rows) = node.rows {
        map.push(("rows".to_string(), Value::Int(rows as i64)));
        // `dbHits` is required by some renderers for profile trees; we
        // don't track page-level hits, so report 0 rather than omit it.
        map.push(("dbHits".to_string(), Value::Int(0)));
    }
    map.push((
        "children".to_string(),
        Value::List(node.children.iter().map(plan_value).collect()),
    ));
    Value::Map(map)
}

/// Convert Bolt parameter values to the protocol's JSON shape so both
/// listeners share the exact conversion and validation code in
/// [`crate::params`]. Integers above 2^53 lose precision exactly as
/// they would arriving via JSON — the shared pipeline then classifies
/// them as floats.
fn convert_parameters(parameters: Vec<(String, Value)>) -> Result<Vec<(String, Json)>, String> {
    parameters
        .into_iter()
        .map(|(name, value)| {
            value_to_json(&value)
                .map(|json| (name.clone(), json))
                .map_err(|e| format!("parameter ${name}: {e}"))
        })
        .collect()
}

fn value_to_json(value: &Value) -> Result<Json, String> {
    match value {
        Value::Null => Ok(Json::Null),
        Value::Bool(b) => Ok(Json::Bool(*b)),
        Value::Int(n) => Ok(Json::Num(*n as f64)),
        Value::Float(f) => Ok(Json::Num(*f)),
        Value::String(s) => Ok(Json::Str(s.clone())),
        Value::List(items) => items
            .iter()
            .map(value_to_json)
            .collect::<Result<Vec<_>, _>>()
            .map(Json::Arr),
        Value::Map(pairs) => pairs
            .iter()
            .map(|(k, v)| value_to_json(v).map(|json| (k.clone(), json)))
            .collect::<Result<Vec<_>, _>>()
            .map(Json::Obj),
        Value::Node(_) | Value::Relationship(_) => {
            Err("graph structures are not valid parameter values".to_string())
        }
    }
}
