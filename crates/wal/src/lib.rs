//! Durability for the S3PG server: a write-ahead log of RDF deltas plus
//! compact-snapshot checkpoints.
//!
//! The serving layer (`crates/server`) keeps the source RDF graph and the
//! transformed property graph in memory and applies updates through the
//! incremental path (`s3pg::incremental`). This crate makes that state
//! survive crashes, and turns the same log into a replication feed:
//!
//! * [`record`] — the on-disk unit: one acknowledged update's additions
//!   and deletions as N-Triples, length-prefixed and CRC-32-framed so a
//!   torn tail after `kill -9` is *detected and truncated*, never
//!   replayed.
//! * [`log`] — the segmented append-only [`Wal`] with **fsync group
//!   commit**: writers append under a short lock and rendezvous in
//!   [`Wal::commit`], where one leader's `fdatasync` covers every record
//!   appended so far. Committed records stream back out through
//!   [`Wal::read_since`], which is the primary→replica feed.
//! * [`checkpoint`] — periodic snapshots of the source graph (plus the
//!   frozen [`CompactGraph`](s3pg_pg::CompactGraph) read form), written
//!   atomically, so restart cost is *checkpoint load + tail replay*
//!   instead of *replay since genesis*.
//!
//! Replaying the log through the incremental transform is correct because
//! the paper's transformation is monotone on additions —
//! F(G ∪ Δ) = F(G) ∪ F(Δ) — and the incremental path handles deletions
//! exactly; recovery and replication therefore converge to the state a
//! never-crashed server would hold, byte for byte. The server's crash
//! differential tests (`crates/server/tests/durability.rs`) enforce this.
//!
//! # Example
//!
//! ```
//! use s3pg_wal::{Wal, WalOptions};
//! use s3pg_obs::registry::Registry;
//!
//! let dir = std::env::temp_dir().join(format!("wal-doc-{}", std::process::id()));
//! let registry = Registry::new();
//! let (wal, recovered) = Wal::open(&dir, WalOptions::default(), &registry).unwrap();
//! assert!(recovered.records.is_empty());
//! let seq = wal.append("<http://ex/s> <http://ex/p> \"o\" .\n", "").unwrap();
//! wal.commit(seq).unwrap();               // durable from here on
//! assert_eq!(wal.durable_seq(), seq);
//! let feed = wal.read_since(0, 100).unwrap();
//! assert_eq!(feed.len(), 1);              // the replication feed
//! # std::fs::remove_dir_all(&dir).ok();
//! ```

pub mod checkpoint;
pub mod log;
pub mod record;

pub use checkpoint::{load_latest, write_checkpoint, Checkpoint, MAPPING_SEMANTICS};
pub use log::{Recovered, Wal, WalError, WalOptions};
pub use record::{Record, MAX_RECORD_BYTES};
