//! The program under test as a child process, and the two raw clients
//! that drive it.
//!
//! A latency sample runs from the first request byte written to the last
//! response byte read (the terminating newline on the JSON listener, the
//! final `SUCCESS` on Bolt). Responses are kept as bytes; decoding and
//! checking them happens off the clock.

use s3pg_bolt::message::{self, ClientMessage, ServerMessage};
use s3pg_bolt::packstream::Value;
use s3pg_bolt::{frame, handshake, DEFAULT_MAX_MESSAGE_BYTES};
use s3pg_server::protocol::{Request, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker threads the server is started with (two load connections plus
/// the harness's control connection each hold one while open).
pub const SERVER_WORKERS: usize = 4;
/// How long a spawned server may take to report its listeners.
const STARTUP_CEILING: Duration = Duration::from_secs(60);
/// Socket timeout: turns a hung server into failed operations.
const IO_CEILING: Duration = Duration::from_secs(30);

/// How to start `s3pg-serve`.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    pub binary: PathBuf,
    pub data: PathBuf,
    pub shapes: PathBuf,
    pub wal_dir: PathBuf,
    pub checkpoint_every: Option<u64>,
}

/// A running `s3pg-serve` child.
pub struct Server {
    /// Behind a mutex so a thread can kill the server while connection
    /// threads still borrow it for its addresses.
    child: Mutex<Child>,
    pid: u32,
    pub addr: String,
    pub bolt_addr: String,
    /// Spawn → first `health` answered.
    pub startup: Duration,
}

impl Server {
    /// Start the server on ephemeral ports (JSON and Bolt), WAL on with
    /// the default group-commit policy, and wait for `health`.
    pub fn spawn(spec: &ServerSpec) -> Result<Server, String> {
        let started = Instant::now();
        let mut command = Command::new(&spec.binary);
        command
            .arg("--data")
            .arg(&spec.data)
            .arg("--shapes")
            .arg(&spec.shapes)
            .args(["--addr", "127.0.0.1:0", "--bolt-addr", "127.0.0.1:0"])
            .args(["--workers", &SERVER_WORKERS.to_string()])
            .arg("--wal-dir")
            .arg(&spec.wal_dir);
        if let Some(n) = spec.checkpoint_every {
            command.args(["--checkpoint-every", &n.to_string()]);
        }
        let mut child = command
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", spec.binary.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = Server {
            pid: child.id(),
            child: Mutex::new(child),
            addr: String::new(),
            bolt_addr: String::new(),
            startup: Duration::ZERO,
        };
        // The startup report ends with the listener lines; the Bolt line
        // is last. Reading on this thread is fine: a server that never
        // reports is killed by the caller's ceiling through `Drop`.
        let mut lines = BufReader::new(stdout).lines();
        while server.bolt_addr.is_empty() {
            if started.elapsed() > STARTUP_CEILING {
                return Err("server did not report its listeners in time".into());
            }
            let line = match lines.next() {
                Some(Ok(line)) => line,
                _ => return Err("server exited before reporting its listeners".into()),
            };
            if let Some(rest) = line.strip_prefix("bolt listening on ") {
                server.bolt_addr = rest.trim().to_string();
            } else if let Some(rest) = line.strip_prefix("listening on ") {
                server.addr = rest.split(' ').next().unwrap_or("").to_string();
            }
        }
        // Keep draining stdout so the child never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        let mut control = JsonConn::connect(&server.addr)?;
        match control.call(&Request::Health)? {
            Response::Health { .. } => {}
            other => return Err(format!("health answered {other:?}")),
        }
        server.startup = started.elapsed();
        Ok(server)
    }

    /// Peak resident set size of the server process, bytes (`VmHWM`).
    pub fn peak_rss_bytes(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.pid);
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<u64>().ok())
            .map(|kb| kb * 1024)
            .ok_or_else(|| format!("{path} has no VmHWM"))
    }

    /// The server's Prometheus exposition as (series, value) pairs.
    pub fn counters(&self) -> Result<Vec<(String, f64)>, String> {
        let mut control = JsonConn::connect(&self.addr)?;
        match control.call(&Request::Metrics)? {
            Response::Metrics { exposition } => Ok(s3pg_obs::parse_exposition(&exposition)?
                .into_iter()
                .map(|s| (s.name, s.value))
                .collect()),
            other => Err(format!("metrics answered {other:?}")),
        }
    }

    /// `kill -9`, then reap. What survives is what the WAL had written;
    /// the page cache survives with it, so this checks ack-implies-logged.
    pub fn kill(&self) {
        let mut child = self.child.lock().unwrap_or_else(|e| e.into_inner());
        let _ = child.kill();
        let _ = child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}

/// A JSON-listener connection that keeps response bytes undecoded.
pub struct JsonConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

impl JsonConn {
    pub fn connect(addr: &str) -> Result<JsonConn, String> {
        let stream = dial(addr)?;
        let reader = BufReader::with_capacity(
            1 << 16,
            stream.try_clone().map_err(|e| format!("clone: {e}"))?,
        );
        Ok(JsonConn {
            writer: stream,
            reader,
        })
    }

    /// Write one request line (newline included in `line`) and read the
    /// response line into `into`. Returns the time on the wire.
    pub fn exchange(&mut self, line: &[u8], into: &mut Vec<u8>) -> Result<Duration, String> {
        into.clear();
        let started = Instant::now();
        self.writer
            .write_all(line)
            .map_err(|e| format!("send: {e}"))?;
        let n = self
            .reader
            .read_until(b'\n', into)
            .map_err(|e| format!("recv: {e}"))?;
        let elapsed = started.elapsed();
        if n == 0 || into.last() != Some(&b'\n') {
            return Err("connection closed mid-response".into());
        }
        Ok(elapsed)
    }

    /// Untimed typed call, for control traffic.
    pub fn call(&mut self, request: &Request) -> Result<Response, String> {
        let mut raw = Vec::new();
        self.exchange(&request_line(request), &mut raw)?;
        decode_json(&raw)
    }
}

/// The bytes a request puts on the JSON listener's socket.
pub fn request_line(request: &Request) -> Vec<u8> {
    let mut line = request.encode().into_bytes();
    line.push(b'\n');
    line
}

pub fn decode_json(raw: &[u8]) -> Result<Response, String> {
    let text = std::str::from_utf8(raw).map_err(|e| format!("response is not UTF-8: {e}"))?;
    Response::decode(text)
}

fn dial(addr: &str) -> Result<TcpStream, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(IO_CEILING))
        .and_then(|()| stream.set_write_timeout(Some(IO_CEILING)))
        .and_then(|()| stream.set_nodelay(true))
        .map_err(|e| format!("socket options: {e}"))?;
    Ok(stream)
}

/// A Bolt session (handshake and `HELLO` done) that keeps response
/// messages undecoded.
pub struct BoltConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

const BOLT_SUCCESS: u8 = 0x70;
const BOLT_RECORD: u8 = 0x71;

impl BoltConn {
    pub fn connect(addr: &str) -> Result<BoltConn, String> {
        let mut stream = dial(addr)?;
        handshake::client_handshake(&mut stream)
            .map_err(|e| format!("bolt handshake: {e}"))?
            .ok_or("server rejected every proposed Bolt version")?;
        let reader = BufReader::with_capacity(
            1 << 16,
            stream.try_clone().map_err(|e| format!("clone: {e}"))?,
        );
        let mut conn = BoltConn {
            writer: stream,
            reader,
        };
        let hello = frame_client(&ClientMessage::Hello(vec![(
            "user_agent".into(),
            Value::String("s3pg-benchmark/0".into()),
        )]));
        conn.writer
            .write_all(&hello)
            .map_err(|e| format!("send HELLO: {e}"))?;
        match conn.read_message()?.get(1) {
            Some(&BOLT_SUCCESS) => Ok(conn),
            _ => Err("HELLO was not answered with SUCCESS".into()),
        }
    }

    fn read_message(&mut self) -> Result<Vec<u8>, String> {
        frame::read_message(&mut self.reader, DEFAULT_MAX_MESSAGE_BYTES)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or_else(|| "server closed mid-conversation".to_string())
    }

    /// Write a pipelined `RUN` + `PULL` and read message payloads into
    /// `into` up to and including the final `SUCCESS`.
    pub fn exchange(
        &mut self,
        run_pull: &[u8],
        into: &mut Vec<Vec<u8>>,
    ) -> Result<Duration, String> {
        into.clear();
        let started = Instant::now();
        self.writer
            .write_all(run_pull)
            .map_err(|e| format!("send: {e}"))?;
        let mut successes = 0;
        while successes < 2 {
            let payload = self.read_message()?;
            match payload.get(1) {
                Some(&BOLT_SUCCESS) => successes += 1,
                Some(&BOLT_RECORD) => {}
                // FAILURE / IGNORED: the PULL's answer still follows.
                _ => successes += 1,
            }
            into.push(payload);
        }
        Ok(started.elapsed())
    }
}

fn frame_client(message: &ClientMessage) -> Vec<u8> {
    let mut out = Vec::new();
    frame::write_message(&mut out, &message::encode_client(message))
        .expect("writing to a Vec cannot fail");
    out
}

/// The bytes a Cypher request puts on the Bolt listener's socket: `RUN`
/// with its parameters, then `PULL` of everything.
pub fn run_pull_bytes(request: &Request) -> Vec<u8> {
    let Request::Cypher { query, params } = request else {
        panic!("only Cypher travels over Bolt");
    };
    let parameters = params
        .iter()
        .map(|(k, v)| {
            let value = match v {
                s3pg_server::json::Json::Str(s) => Value::String(s.clone()),
                s3pg_server::json::Json::Num(n) if n.fract() == 0.0 => Value::Int(*n as i64),
                s3pg_server::json::Json::Num(n) => Value::Float(*n),
                s3pg_server::json::Json::Bool(b) => Value::Bool(*b),
                _ => Value::Null,
            };
            (k.clone(), value)
        })
        .collect();
    let mut out = frame_client(&ClientMessage::Run {
        query: query.clone(),
        parameters,
        extra: Vec::new(),
    });
    out.extend(frame_client(&ClientMessage::Pull(vec![(
        "n".into(),
        Value::Int(-1),
    )])));
    out
}

/// Decode a Bolt answer into the JSON listener's response shape, so one
/// oracle checks both and Bolt answers can be compared with JSON answers.
pub fn decode_bolt(payloads: &[Vec<u8>]) -> Result<Response, String> {
    let mut columns = Vec::new();
    let mut rows = Vec::new();
    for (i, payload) in payloads.iter().enumerate() {
        match message::decode_server(payload).map_err(|e| format!("bolt decode: {e}"))? {
            ServerMessage::Success(meta) if i == 0 => {
                if let Some((_, Value::List(fields))) = meta.iter().find(|(k, _)| k == "fields") {
                    columns = fields
                        .iter()
                        .filter_map(|f| f.as_str().map(str::to_string))
                        .collect();
                }
            }
            ServerMessage::Success(_) => {}
            ServerMessage::Record(values) => rows.push(
                values
                    .into_iter()
                    .map(|v| match v {
                        Value::Null => None,
                        Value::String(s) => Some(s),
                        other => Some(format!("{other:?}")),
                    })
                    .collect(),
            ),
            ServerMessage::Failure { code, message } => {
                return Err(format!("bolt failure {code}: {message}"))
            }
            ServerMessage::Ignored => return Err("bolt request ignored".into()),
        }
    }
    Ok(Response::Cypher { columns, rows })
}

/// Per-run scratch space under the benchmark's own `out/`, removed when
/// the run ends, however it ends.
pub struct Scratch(PathBuf);

impl Scratch {
    pub fn new(bench_root: &Path, workload: &str) -> Result<Scratch, String> {
        let dir = bench_root
            .join("out")
            .join(format!("run-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(Scratch(dir))
    }

    pub fn join(&self, name: impl AsRef<Path>) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Recursive directory copy (WAL directories hold checkpoint subdirectories).
pub fn copy_dir(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        let target = to.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            copy_dir(&entry.path(), &target)?;
        } else {
            std::fs::copy(entry.path(), target)?;
        }
    }
    Ok(())
}
