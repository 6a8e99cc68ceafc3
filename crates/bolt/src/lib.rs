//! # `s3pg-bolt` — a Bolt protocol subset for serving Cypher
//!
//! The pieces of Neo4j's Bolt protocol needed to let stock drivers and
//! `cypher-shell` talk to the s3pg server: PackStream v2 values, chunked
//! message framing, handshake version negotiation, and the client/server
//! message vocabulary (`HELLO`/`LOGON`, `RUN`/`PULL`/`DISCARD`, `RESET`,
//! `GOODBYE`, `SUCCESS`/`RECORD`/`IGNORED`/`FAILURE`).
//!
//! This crate is pure codec: no sockets, no threads, no engine types.
//! The server crate owns the listener and session state machine and uses
//! these building blocks; tests and the benchmark use the same
//! codec from the client side, so both directions are exercised by
//! construction.
//!
//! Every decode path is bounded: framing enforces a maximum message size,
//! PackStream decoding enforces a nesting-depth limit and validates every
//! claimed length against the actual buffer, and unknown structure or
//! message tags yield typed [`Error::Protocol`] values — never a panic,
//! never unbounded allocation from attacker-controlled lengths.
//!
//! * [`packstream`] — [`packstream::Value`] and its binary encoding:
//!   null, bool, int, float, string, list, map, plus the graph structures
//!   `Node` (tag `0x4E`) and `Relationship` (tag `0x52`).
//! * [`frame`] — 2-byte big-endian chunk framing with `0x0000` message
//!   terminators and NOOP keep-alive tolerance.
//! * [`handshake`] — the `0x6060B017` magic and 4-proposal version
//!   negotiation (Bolt 4.4 and 5.0–5.4 are accepted).
//! * [`message`] — typed client/server messages over PackStream structs.

pub mod frame;
pub mod handshake;
pub mod message;
pub mod packstream;

/// Default cap on a single reassembled message (1 MiB) — far above any
/// legitimate query or result row, far below what a hostile peer could
/// use to exhaust memory.
pub const DEFAULT_MAX_MESSAGE_BYTES: usize = 1 << 20;

/// Maximum PackStream nesting depth accepted by the decoder.
pub const MAX_DEPTH: usize = 64;

/// Everything that can go wrong speaking Bolt.
#[derive(Debug)]
pub enum Error {
    /// The underlying transport failed (including read timeouts).
    Io(std::io::Error),
    /// The peer sent bytes that violate the protocol; the message is
    /// suitable for a `FAILURE` record or a log line.
    Protocol(String),
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::Io(e) => write!(f, "io: {e}"),
            Error::Protocol(m) => write!(f, "protocol: {m}"),
        }
    }
}

impl std::error::Error for Error {}

impl From<std::io::Error> for Error {
    fn from(e: std::io::Error) -> Self {
        Error::Io(e)
    }
}

impl Error {
    /// Build a protocol error from anything displayable.
    pub fn protocol(message: impl Into<String>) -> Self {
        Error::Protocol(message.into())
    }
}
