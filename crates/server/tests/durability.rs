//! Durability and replication, end to end against the real binary.
//!
//! The load-bearing test is the crash-recovery differential: a server is
//! killed with `SIGKILL` mid-write-stream, restarted on the same WAL
//! directory, and its recovered graph is compared — via the wire protocol
//! — against a never-killed reference that applied the same prefix of
//! updates. The WAL's contract is exactly "recovered state ≡ the state at
//! the last committed record", and monotonicity (§4.2.1) is what makes
//! replaying logged deltas a faithful reconstruction.
//!
//! Every child the tests stop through the protocol must also drain, exit
//! 0 and print `shutdown complete`.

use s3pg_server::client::Client;
use s3pg_server::protocol::{ErrorKind, Request, Response};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const BASE: &str = "<http://ex/alice> <http://ex/name> \"Alice\" .\n\
                    <http://ex/alice> <http://ex/knows> <http://ex/bob> .\n\
                    <http://ex/bob> <http://ex/name> \"Bob\" .\n";

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("s3pg-durability-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A spawned `s3pg-serve` process, its ephemeral address, and the
/// threads draining its output.
struct Server {
    child: Child,
    addr: String,
    stdout: Option<JoinHandle<Vec<String>>>,
    stderr: Option<JoinHandle<Vec<String>>>,
}

/// Collect a child's output lines on a thread, so the child never blocks
/// on a full pipe.
fn drain(
    lines: impl Iterator<Item = std::io::Result<String>> + Send + 'static,
) -> JoinHandle<Vec<String>> {
    std::thread::spawn(move || lines.map_while(Result::ok).collect())
}

impl Server {
    /// Spawn the real binary and wait until it reports its address.
    fn spawn(args: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_s3pg-serve"))
            .args(args)
            .arg("--addr")
            .arg("127.0.0.1:0")
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn s3pg-serve");
        let stderr = drain(BufReader::new(child.stderr.take().unwrap()).lines());
        let mut lines = BufReader::new(child.stdout.take().unwrap()).lines();
        let addr = loop {
            let line = lines
                .next()
                .expect("server exited before reporting its address")
                .unwrap();
            if let Some(rest) = line.strip_prefix("listening on ") {
                break rest.split_whitespace().next().unwrap().to_string();
            }
        };
        Server {
            child,
            addr,
            stdout: Some(drain(lines)),
            stderr: Some(stderr),
        }
    }

    fn client(&self) -> Client {
        Client::connect(&self.addr).expect("connect")
    }

    /// SIGKILL — the crash under test: no drain, no flush, no atexit.
    fn kill9(&mut self) {
        unsafe extern "C" {
            fn kill(pid: i32, sig: i32) -> i32;
        }
        unsafe {
            kill(self.child.id() as i32, 9);
        }
        let _ = self.child.wait();
    }

    /// Protocol shutdown: the process drains, exits 0 and prints
    /// `shutdown complete` last. Returns its stderr lines.
    fn shutdown(&mut self) -> Vec<String> {
        assert_eq!(
            self.client().call(&Request::Shutdown).unwrap(),
            Response::ShuttingDown
        );
        let status = self.child.wait().unwrap();
        let stdout = self.stdout.take().unwrap().join().unwrap();
        let stderr = self.stderr.take().unwrap().join().unwrap();
        assert!(status.success(), "{status}: {stderr:#?}");
        assert_eq!(
            stdout.last().map(String::as_str),
            Some("shutdown complete"),
            "{stdout:#?}"
        );
        stderr
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for drain in [self.stdout.take(), self.stderr.take()]
            .into_iter()
            .flatten()
        {
            let _ = drain.join();
        }
    }
}

fn addition(i: usize) -> String {
    format!("<http://ex/n{i}> <http://ex/name> \"N{i}\" .\n<http://ex/n{i}> <http://ex/knows> <http://ex/alice> .\n")
}

/// All `?s ?o` name pairs, as a canonical sorted list.
fn names(client: &mut Client) -> Vec<Vec<Option<String>>> {
    let response = client
        .call(&Request::Sparql {
            query: "SELECT ?s ?o WHERE { ?s <http://ex/name> ?o }".to_string(),
            params: Vec::new(),
        })
        .unwrap();
    let Response::Sparql { mut rows, .. } = response else {
        panic!("expected sparql rows, got {response:?}");
    };
    rows.sort();
    rows
}

fn stats(client: &mut Client) -> (u64, u64, u64) {
    let Response::Stats {
        nodes,
        edges,
        triples,
        ..
    } = client.call(&Request::Stats).unwrap()
    else {
        panic!("expected stats");
    };
    (nodes, edges, triples)
}

fn wal_status(client: &mut Client) -> (String, u64, u64, u64) {
    let Response::WalStatus {
        role,
        last_seq,
        durable_seq,
        applied_seq,
        ..
    } = client.call(&Request::WalStatus).unwrap()
    else {
        panic!("expected wal status");
    };
    (role, last_seq, durable_seq, applied_seq)
}

fn wait_until(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(25));
    }
}

#[test]
fn kill9_recovery_matches_never_killed_reference() {
    let dir = temp_dir("kill9");
    let data = dir.join("base.nt");
    std::fs::write(&data, BASE).unwrap();
    let data = data.to_str().unwrap();
    let wal = dir.join("wal");
    let wal = wal.to_str().unwrap();

    // Victim: durable, aggressive fsync so acknowledged == committed.
    let mut victim = Server::spawn(&["--data", data, "--wal-dir", wal, "--fsync-ms", "0"]);
    let mut victim_client = victim.client();
    const UPDATES: usize = 40;
    for i in 0..UPDATES {
        let response = victim_client
            .call(&Request::Update {
                additions: addition(i),
                deletions: String::new(),
            })
            .unwrap();
        assert!(response.is_ok(), "update {i} failed: {response:?}");
    }
    let (_, _, durable_seq, _) = wal_status(&mut victim_client);
    victim.kill9();
    // Every acknowledged update must survive: `update` acks only after the
    // group commit fsync, so the durable watermark covers all 40.
    assert_eq!(durable_seq, UPDATES as u64);

    // Restart on the same WAL dir: checkpoint (none) + tail replay.
    let mut recovered = Server::spawn(&["--data", data, "--wal-dir", wal]);
    let mut recovered_client = recovered.client();
    let (role, last_seq, _, applied_seq) = wal_status(&mut recovered_client);
    assert_eq!(role, "primary");
    assert_eq!(last_seq, UPDATES as u64);
    assert_eq!(applied_seq, UPDATES as u64);

    // Reference: never crashed, applied the identical prefix.
    let mut reference = Server::spawn(&["--data", data]);
    let mut reference_client = reference.client();
    for i in 0..UPDATES {
        reference_client
            .call(&Request::Update {
                additions: addition(i),
                deletions: String::new(),
            })
            .unwrap();
    }

    assert_eq!(
        stats(&mut recovered_client),
        stats(&mut reference_client),
        "recovered node/edge/triple counts diverge from the reference"
    );
    assert_eq!(
        names(&mut recovered_client),
        names(&mut reference_client),
        "recovered graph content diverges from the reference"
    );

    recovered.shutdown();
    reference.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpointed_restart_recovers_including_deletions() {
    let dir = temp_dir("ckpt");
    let data = dir.join("base.nt");
    std::fs::write(&data, BASE).unwrap();
    let data = data.to_str().unwrap();
    let wal = dir.join("wal");
    let wal = wal.to_str().unwrap();

    // Low checkpoint threshold so the run writes at least one checkpoint.
    let mut server = Server::spawn(&[
        "--data",
        data,
        "--wal-dir",
        wal,
        "--checkpoint-every",
        "8",
        "--fsync-ms",
        "0",
    ]);
    let mut client = server.client();
    for i in 0..20 {
        client
            .call(&Request::Update {
                additions: addition(i),
                deletions: String::new(),
            })
            .unwrap();
    }
    // A deletion-bearing record exercises the replay barrier path.
    client
        .call(&Request::Update {
            additions: String::new(),
            deletions: "<http://ex/n3> <http://ex/knows> <http://ex/alice> .\n".to_string(),
        })
        .unwrap();
    wait_until(
        "a checkpoint to be written",
        Duration::from_secs(10),
        || {
            std::fs::read_dir(wal)
                .map(|entries| {
                    entries.flatten().any(|e| {
                        e.file_name()
                            .to_str()
                            .is_some_and(|n| n.starts_with("checkpoint-"))
                    })
                })
                .unwrap_or(false)
        },
    );
    let before = (stats(&mut client), names(&mut client));
    server.kill9();

    let mut recovered = Server::spawn(&["--data", data, "--wal-dir", wal]);
    let mut client = recovered.client();
    assert_eq!((stats(&mut client), names(&mut client)), before);
    let (_, _, _, applied_seq) = wal_status(&mut client);
    assert_eq!(applied_seq, 21);
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_cursor_after_prune_gets_reseed_required() {
    let dir = temp_dir("reseed");
    let data = dir.join("base.nt");
    std::fs::write(&data, BASE).unwrap();
    let data = data.to_str().unwrap();
    let wal = dir.join("wal");
    let wal = wal.to_str().unwrap();

    let mut primary = Server::spawn(&[
        "--data",
        data,
        "--wal-dir",
        wal,
        "--checkpoint-every",
        "8",
        "--fsync-ms",
        "0",
    ]);
    let mut client = primary.client();
    for i in 0..20 {
        client
            .call(&Request::Update {
                additions: addition(i),
                deletions: String::new(),
            })
            .unwrap();
    }

    // Once the checkpointer prunes the covered segments, a replica whose
    // cursor predates the oldest retained record must be told to re-seed
    // — never silently handed a stream with the pruned records missing.
    wait_until(
        "a pruning checkpoint to refuse the stale cursor",
        Duration::from_secs(10),
        || {
            matches!(
                client.call(&Request::Replicate { from: 0, max: 512 }).unwrap(),
                Response::Error(frame) if frame.kind == ErrorKind::ReseedRequired
            )
        },
    );

    // A cursor at (or past) the pruning point is still served normally.
    let (_, _, durable, _) = wal_status(&mut client);
    let caught_up = client
        .call(&Request::Replicate {
            from: durable,
            max: 512,
        })
        .unwrap();
    let Response::Replicate { records, .. } = caught_up else {
        panic!("a caught-up cursor must still be served, got {caught_up:?}");
    };
    assert!(records.is_empty());

    primary.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn replica_catches_up_and_rejects_writes() {
    let dir = temp_dir("replica");
    let data = dir.join("base.nt");
    std::fs::write(&data, BASE).unwrap();
    let data = data.to_str().unwrap();
    let primary_wal = dir.join("primary-wal");
    let primary_wal = primary_wal.to_str().unwrap();

    let mut primary = Server::spawn(&["--data", data, "--wal-dir", primary_wal]);
    let mut primary_client = primary.client();

    // The replica starts *lagged*: the primary takes writes first.
    for i in 0..15 {
        primary_client
            .call(&Request::Update {
                additions: addition(i),
                deletions: String::new(),
            })
            .unwrap();
    }

    let mut replica = Server::spawn(&["--data", data, "--replica-of", &primary.addr]);
    let mut replica_client = replica.client();

    // Writes to the replica are rejected with the typed frame.
    let rejected = replica_client
        .call(&Request::Update {
            additions: addition(99),
            deletions: String::new(),
        })
        .unwrap();
    let Response::Error(frame) = rejected else {
        panic!("replica accepted a write: {rejected:?}");
    };
    assert_eq!(frame.kind, ErrorKind::ReadOnly);

    // Catch-up: the replica pulls the 15-record backlog…
    wait_until("replica catch-up", Duration::from_secs(10), || {
        let (role, _, _, applied) = wal_status(&mut replica_client);
        assert_eq!(role, "replica");
        applied == 15
    });
    // …and then live-follows new writes.
    for i in 15..20 {
        primary_client
            .call(&Request::Update {
                additions: addition(i),
                deletions: String::new(),
            })
            .unwrap();
    }
    wait_until("replica live follow", Duration::from_secs(10), || {
        wal_status(&mut replica_client).3 == 20
    });
    assert_eq!(names(&mut replica_client), names(&mut primary_client));
    assert_eq!(stats(&mut replica_client), stats(&mut primary_client));

    replica.shutdown();
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovering_frame_served_until_store_installs() {
    use s3pg_obs::Registry;
    use s3pg_server::server::{serve_deferred, ServerConfig};
    use std::sync::Arc;

    let registry = Arc::new(Registry::new());
    let (handle, installer) =
        serve_deferred("127.0.0.1:0", ServerConfig::default(), registry).unwrap();
    let mut client = Client::connect(&handle.addr.to_string()).unwrap();

    // Stateless endpoints answer during recovery…
    assert_eq!(client.call(&Request::Ping).unwrap(), Response::Pong);
    assert!(matches!(
        client.call(&Request::Health).unwrap(),
        Response::Health { .. }
    ));
    // …but graph state gets the typed `recovering` frame.
    let Response::Error(frame) = client.call(&Request::Stats).unwrap() else {
        panic!("stats served before a store existed");
    };
    assert_eq!(frame.kind, ErrorKind::Recovering);

    // Install a store; the same connection starts getting answers.
    let rdf = s3pg_rdf::parser::parse_ntriples(BASE).unwrap();
    let shapes = s3pg_shacl::extract_shapes(&rdf);
    let store = s3pg_server::store::GraphStore::new(rdf, &shapes, s3pg::Mode::Parsimonious);
    installer.install(Arc::new(store), false);
    assert!(matches!(
        client.call(&Request::Stats).unwrap(),
        Response::Stats { .. }
    ));

    handle.shutdown();
    handle.join();
}

#[test]
fn clean_shutdown_leaves_no_tail_to_lose() {
    let dir = temp_dir("clean");
    let data = dir.join("base.nt");
    std::fs::write(&data, BASE).unwrap();
    let data = data.to_str().unwrap();
    let wal = dir.join("wal");
    let wal_arg = wal.to_str().unwrap();

    // A long dally window. A lone write no longer waits it out (its flush
    // is not a batch, so the leader does not dally), and the acknowledged
    // record is durable either way; what this pins is that a clean
    // shutdown flushes the tail too, so recovery sees every record at
    // once, durable watermark included.
    let mut server = Server::spawn(&["--data", data, "--wal-dir", wal_arg, "--fsync-ms", "1500"]);
    let mut client = server.client();
    client
        .call(&Request::Update {
            additions: addition(0),
            deletions: String::new(),
        })
        .unwrap();
    server.shutdown();

    let mut recovered = Server::spawn(&["--data", data, "--wal-dir", wal_arg]);
    let mut client = recovered.client();
    let (_, last_seq, durable_seq, applied_seq) = wal_status(&mut client);
    assert_eq!((last_seq, durable_seq, applied_seq), (1, 1, 1));
    recovered.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

/// With `--slow-query-ms 0` the binary logs every query on stderr, the
/// line naming its listener, and a profiled query's line embeds its
/// operator tree.
#[test]
fn slow_query_lines_name_the_listener_and_embed_the_plan() {
    let dir = temp_dir("slowlog");
    let data = dir.join("base.nt");
    std::fs::write(&data, BASE).unwrap();

    let mut server = Server::spawn(&["--data", data.to_str().unwrap(), "--slow-query-ms", "0"]);
    let response = server
        .client()
        .call(&Request::Cypher {
            query: "PROFILE MATCH (p) RETURN p.name".to_string(),
            params: Vec::new(),
        })
        .unwrap();
    assert!(matches!(response, Response::Profile { .. }), "{response:?}");

    let stderr = server.shutdown();
    let line = stderr.iter().find(|line| line.starts_with("slow-query "));
    assert!(
        line.is_some_and(
            |l| l.contains("endpoint=cypher listener=json") && l.contains("plan={\"op\"")
        ),
        "{stderr:#?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Guard against the WAL directory being silently unusable (e.g. the
/// binary treating a file path as a directory).
#[test]
fn unusable_wal_dir_is_a_startup_error() {
    let dir = temp_dir("baddir");
    let data = dir.join("base.nt");
    std::fs::write(&data, BASE).unwrap();
    let file_as_dir = dir.join("not-a-dir");
    std::fs::write(&file_as_dir, "occupied").unwrap();

    let status = Command::new(env!("CARGO_BIN_EXE_s3pg-serve"))
        .args([
            "--data",
            data.to_str().unwrap(),
            "--wal-dir",
            file_as_dir.to_str().unwrap(),
            "--addr",
            "127.0.0.1:0",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .unwrap();
    assert!(!status.success());
    let _ = std::fs::remove_dir_all(&dir);
}
