//! Argument parsing and startup for the `s3pg-serve` binary. The logic
//! lives here (unit-testable); the binary is a thin wrapper.
//!
//! Startup order matters for durability: the listener binds *first* (so
//! health checks and metrics answer immediately, with a typed
//! `recovering` error for graph requests), then [`crate::recovery`]
//! rebuilds the store from checkpoint + WAL tail, then the store is
//! installed and the checkpointer/replicator threads start.

use crate::recovery::{recover, RecoveryConfig};
use crate::server::{serve_deferred, ServerConfig, ServerHandle, ShutdownWatcher};
use crate::store::GraphStore;
use s3pg::Mode;
use s3pg_obs::Registry;
use s3pg_wal::WalOptions;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

/// Parsed command-line options.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Options {
    pub data: PathBuf,
    pub shapes: Option<PathBuf>,
    pub mode: Mode,
    /// Bind address; port 0 picks an ephemeral port (printed on startup).
    pub addr: String,
    /// Bolt listener bind address (`None` disables the Bolt front end).
    pub bolt_addr: Option<String>,
    pub workers: usize,
    pub queue_capacity: usize,
    /// Slow-query log threshold in milliseconds (`None` disables the log,
    /// `0` logs every request).
    pub slow_query_ms: Option<u64>,
    /// Directory for the write-ahead log and checkpoints. `None` serves
    /// ephemerally: updates are lost on restart.
    pub wal_dir: Option<PathBuf>,
    /// Write a checkpoint every this many applied records.
    pub checkpoint_every: u64,
    /// Group-commit dally window in milliseconds (0 = flush immediately).
    pub fsync_ms: u64,
    /// Flush without dallying once this many commits are pending.
    pub fsync_batch: u64,
    /// Run as a read-only replica of this primary (`HOST:PORT`).
    pub replica_of: Option<String>,
}

/// Usage text.
pub const USAGE: &str = "usage: s3pg-serve --data FILE[.ttl|.nt] [--shapes FILE.ttl] \
                         [--mode parsimonious|non-parsimonious] [--addr HOST:PORT] \
                         [--bolt-addr HOST:PORT] \
                         [--workers N] [--queue N] [--slow-query-ms MS] \
                         [--wal-dir DIR] [--checkpoint-every N] [--fsync-ms MS] \
                         [--fsync-batch N] [--replica-of HOST:PORT]";

/// Parse argv-style arguments (without the program name).
pub fn parse_args<I: IntoIterator<Item = String>>(args: I) -> Result<Options, String> {
    let mut data = None;
    let mut shapes = None;
    let mut mode = Mode::Parsimonious;
    let mut addr = "127.0.0.1:7878".to_string();
    let mut bolt_addr = None;
    let mut workers = 4usize;
    let mut queue_capacity = 64usize;
    let mut slow_query_ms = None;
    let mut wal_dir = None;
    let mut checkpoint_every = 512u64;
    let mut fsync_ms = WalOptions::default().fsync_ms;
    let mut fsync_batch = WalOptions::default().fsync_batch;
    let mut replica_of = None;

    let positive = |flag: &str, value: Option<String>| -> Result<usize, String> {
        let v = value.ok_or(format!("{flag} needs a count"))?;
        v.parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
            .ok_or(format!("{flag} needs a positive integer, got '{v}'"))
    };
    let non_negative = |flag: &str, value: Option<String>| -> Result<u64, String> {
        let v = value.ok_or(format!("{flag} needs a count"))?;
        v.parse::<u64>()
            .map_err(|_| format!("{flag} needs a non-negative integer, got '{v}'"))
    };

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--data" => data = Some(PathBuf::from(it.next().ok_or("--data needs a path")?)),
            "--shapes" => shapes = Some(PathBuf::from(it.next().ok_or("--shapes needs a path")?)),
            "--mode" => {
                mode = match it.next().as_deref() {
                    Some("parsimonious") => Mode::Parsimonious,
                    Some("non-parsimonious") => Mode::NonParsimonious,
                    other => return Err(format!("unknown mode {other:?}")),
                }
            }
            "--addr" => addr = it.next().ok_or("--addr needs HOST:PORT")?,
            "--bolt-addr" => bolt_addr = Some(it.next().ok_or("--bolt-addr needs HOST:PORT")?),
            "--workers" => workers = positive("--workers", it.next())?,
            "--queue" => queue_capacity = positive("--queue", it.next())?,
            "--slow-query-ms" => {
                slow_query_ms = Some(non_negative("--slow-query-ms", it.next())?);
            }
            "--wal-dir" => {
                wal_dir = Some(PathBuf::from(it.next().ok_or("--wal-dir needs a path")?))
            }
            "--checkpoint-every" => {
                checkpoint_every = positive("--checkpoint-every", it.next())? as u64;
            }
            "--fsync-ms" => fsync_ms = non_negative("--fsync-ms", it.next())?,
            "--fsync-batch" => fsync_batch = positive("--fsync-batch", it.next())? as u64,
            "--replica-of" => replica_of = Some(it.next().ok_or("--replica-of needs HOST:PORT")?),
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown argument '{other}'\n{USAGE}")),
        }
    }
    Ok(Options {
        data: data.ok_or(format!("--data is required\n{USAGE}"))?,
        shapes,
        mode,
        addr,
        bolt_addr,
        workers,
        queue_capacity,
        slow_query_ms,
        wal_dir,
        checkpoint_every,
        fsync_ms,
        fsync_batch,
        replica_of,
    })
}

/// How often the checkpointer re-checks the applied-records threshold.
const CHECKPOINT_POLL: Duration = Duration::from_millis(200);

/// Load inputs, recover the store, and start serving. Returns the
/// running server and a human-readable startup report.
pub fn start(options: &Options) -> Result<(ServerHandle, String), String> {
    let registry = Arc::new(Registry::new());
    let config = ServerConfig {
        workers: options.workers,
        queue_capacity: options.queue_capacity,
        slow_query_threshold: options.slow_query_ms.map(Duration::from_millis),
    };
    // Bind before recovery: a long WAL replay keeps the port reachable
    // (health/metrics answer; graph requests get `recovering`).
    let (mut handle, installer) = serve_deferred(&options.addr, config, Arc::clone(&registry))
        .map_err(|e| format!("cannot bind {}: {e}", options.addr))?;
    // The Bolt listener binds before recovery too: drivers connecting
    // during a long WAL replay get a typed transient FAILURE, not a
    // connection refused.
    let bolt_addr = match &options.bolt_addr {
        Some(bolt) => match handle.listen_bolt(bolt) {
            Ok(addr) => Some(addr),
            Err(e) => {
                handle.shutdown();
                handle.join();
                return Err(format!("cannot bind bolt {bolt}: {e}"));
            }
        },
        None => None,
    };

    let recovered = match recover(
        &RecoveryConfig {
            data: options.data.clone(),
            shapes: options.shapes.clone(),
            mode: options.mode,
            wal_dir: options.wal_dir.clone(),
            wal_options: WalOptions {
                fsync_ms: options.fsync_ms,
                fsync_batch: options.fsync_batch,
                ..WalOptions::default()
            },
        },
        Arc::clone(&registry),
    ) {
        Ok(recovered) => recovered,
        Err(e) => {
            handle.shutdown();
            handle.join();
            return Err(e);
        }
    };
    let store = recovered.store;
    let snapshot = store.snapshot();
    let replica = options.replica_of.is_some();
    installer.install(Arc::clone(&store), replica);

    if store.wal().is_some() {
        handle.adopt_thread(spawn_checkpointer(
            Arc::clone(&store),
            options.checkpoint_every,
            handle.shutdown_watcher(),
        ));
    }
    if let Some(primary) = &options.replica_of {
        let store = Arc::clone(&store);
        let primary = primary.clone();
        let watcher = handle.shutdown_watcher();
        handle.adopt_thread(
            std::thread::Builder::new()
                .name("s3pg-replicator".to_string())
                .spawn(move || crate::replica::run(store, primary, watcher))
                .map_err(|e| format!("cannot spawn replicator: {e}"))?,
        );
    }

    let mut report = format!(
        "serving {} triples as {} nodes / {} edges ({}, PG {} S_PG)",
        snapshot.rdf.len(),
        snapshot.pg.node_count(),
        snapshot.pg.edge_count(),
        options.mode.name(),
        if snapshot.conforms() { "⊨" } else { "⊭" },
    );
    for line in &recovered.report {
        report.push('\n');
        report.push_str(line);
    }
    if let Some(primary) = &options.replica_of {
        report.push_str(&format!("\nread-only replica of {primary}"));
    }
    report.push_str(&format!(
        "\nlistening on {} ({} workers, queue {})",
        handle.addr, options.workers, options.queue_capacity
    ));
    if let Some(bolt) = bolt_addr {
        report.push_str(&format!("\nbolt listening on {bolt}"));
    }
    Ok((handle, report))
}

/// Checkpoint once `checkpoint_every` records have been applied past the
/// last checkpoint. Runs until shutdown; a failed checkpoint logs and
/// retries on the next threshold crossing (the WAL alone is still a
/// complete recovery story, just a slower one).
fn spawn_checkpointer(
    store: Arc<GraphStore>,
    checkpoint_every: u64,
    watcher: ShutdownWatcher,
) -> std::thread::JoinHandle<()> {
    std::thread::Builder::new()
        .name("s3pg-checkpointer".to_string())
        .spawn(move || {
            while !watcher.is_shutdown() {
                std::thread::sleep(CHECKPOINT_POLL);
                let behind = store.applied_seq().saturating_sub(store.checkpoint_seq());
                if behind >= checkpoint_every {
                    match store.checkpoint() {
                        Ok(Some(seq)) => eprintln!("checkpoint written at seq {seq}"),
                        Ok(None) => {}
                        Err(e) => eprintln!("checkpoint failed (will retry): {e}"),
                    }
                }
            }
        })
        .expect("spawn checkpointer")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Options, String> {
        parse_args(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_minimal_args() {
        let o = args(&["--data", "g.ttl"]).unwrap();
        assert_eq!(o.data, PathBuf::from("g.ttl"));
        assert_eq!(o.mode, Mode::Parsimonious);
        assert_eq!(o.addr, "127.0.0.1:7878");
        assert_eq!((o.workers, o.queue_capacity), (4, 64));
        assert_eq!(o.slow_query_ms, None);
        assert_eq!(o.bolt_addr, None);
    }

    #[test]
    fn parses_full_args() {
        let o = args(&[
            "--data",
            "g.nt",
            "--shapes",
            "s.ttl",
            "--mode",
            "non-parsimonious",
            "--addr",
            "0.0.0.0:0",
            "--bolt-addr",
            "127.0.0.1:7687",
            "--workers",
            "8",
            "--queue",
            "2",
            "--slow-query-ms",
            "250",
        ])
        .unwrap();
        assert_eq!(o.mode, Mode::NonParsimonious);
        assert_eq!(o.addr, "0.0.0.0:0");
        assert_eq!((o.workers, o.queue_capacity), (8, 2));
        assert_eq!(o.shapes, Some(PathBuf::from("s.ttl")));
        assert_eq!(o.slow_query_ms, Some(250));
        assert_eq!(o.bolt_addr.as_deref(), Some("127.0.0.1:7687"));
        assert!(args(&["--data", "g.ttl", "--bolt-addr"]).is_err());
    }

    #[test]
    fn rejects_bad_args() {
        assert!(args(&[]).is_err());
        assert!(args(&["--data"]).is_err());
        assert!(args(&["--data", "g.ttl", "--mode", "chaotic"]).is_err());
        assert!(args(&["--data", "g.ttl", "--workers", "0"]).is_err());
        assert!(args(&["--data", "g.ttl", "--queue", "-3"]).is_err());
        assert!(args(&["--data", "g.ttl", "--slow-query-ms"]).is_err());
        assert!(args(&["--data", "g.ttl", "--slow-query-ms", "fast"]).is_err());
        assert!(args(&["--data", "g.ttl", "--flag"]).is_err());
        // The boot transform runs on one thread; there is nothing to set.
        let err = args(&["--data", "g.ttl", "--threads", "2"]).unwrap_err();
        assert!(err.starts_with("unknown argument '--threads'"), "{err}");
        assert!(args(&["--help"]).is_err());
    }

    #[test]
    fn start_reports_missing_data_as_error() {
        let o = args(&["--data", "/nonexistent/graph.ttl", "--addr", "127.0.0.1:0"]).unwrap();
        let err = match start(&o) {
            Err(err) => err,
            Ok(_) => panic!("start must fail on a missing data file"),
        };
        assert!(err.contains("cannot read"), "{err}");
    }
}
