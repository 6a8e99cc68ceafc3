//! Connection handshake: magic preamble plus version negotiation.
//!
//! A Bolt client opens with the 4-byte magic `0x6060B017` followed by
//! four 4-byte version proposals in preference order, each encoded
//! big-endian as `[0, range, minor, major]` — `range` extends a proposal
//! to cover `major.(minor-range) ..= major.minor`. The server answers
//! with the single version it picked (same encoding, `range` = 0) or
//! all zeros when nothing overlaps, then either side proceeds or closes.

use crate::Error;
use std::io::{Read, Write};

/// The Bolt magic preamble.
pub const MAGIC: [u8; 4] = [0x60, 0x60, 0xB0, 0x17];

/// A negotiated protocol version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Version {
    pub major: u8,
    pub minor: u8,
}

impl std::fmt::Display for Version {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.major, self.minor)
    }
}

/// Versions this server speaks, newest first: Bolt 5.0–5.4 (the 5.x
/// message vocabulary with `LOGON`) and 4.4 (auth inside `HELLO`).
fn supported(major: u8, minor: u8) -> bool {
    (major == 5 && minor <= 4) || (major == 4 && minor == 4)
}

const NEWEST_MINOR_5: u8 = 4;

/// Pick a version from the client's four proposals, honoring proposal
/// order (the client lists its preference first).
fn negotiate(proposals: &[[u8; 4]; 4]) -> Option<Version> {
    for proposal in proposals {
        let [_, range, minor, major] = *proposal;
        // Newest minor the proposal covers, walking down through `range`.
        let low = minor.saturating_sub(range);
        if major == 5 {
            let pick = minor.min(NEWEST_MINOR_5);
            if pick >= low && supported(major, pick) {
                return Some(Version { major, minor: pick });
            }
        }
        if major == 4 && (low..=minor).contains(&4) {
            return Some(Version { major: 4, minor: 4 });
        }
    }
    None
}

/// Run the server side of the handshake on `stream`.
///
/// Returns the negotiated version, `Ok(None)` if no proposal overlapped
/// (the all-zeros answer has been written; caller closes), or an error
/// for a bad magic preamble or transport failure (nothing is written;
/// caller closes). Read timeouts set on the stream surface here as
/// [`Error::Io`], which is how the idle-handshake timeout lands.
pub fn serve_handshake(stream: &mut (impl Read + Write)) -> Result<Option<Version>, Error> {
    let mut preamble = [0u8; 20];
    stream.read_exact(&mut preamble)?;
    if preamble[..4] != MAGIC {
        return Err(Error::protocol(format!(
            "bad handshake magic {:02X?}",
            &preamble[..4]
        )));
    }
    let mut proposals = [[0u8; 4]; 4];
    for (i, chunk) in preamble[4..].chunks_exact(4).enumerate() {
        proposals[i].copy_from_slice(chunk);
    }
    match negotiate(&proposals) {
        Some(version) => {
            stream.write_all(&[0, 0, version.minor, version.major])?;
            stream.flush()?;
            Ok(Some(version))
        }
        None => {
            stream.write_all(&[0, 0, 0, 0])?;
            stream.flush()?;
            Ok(None)
        }
    }
}

/// Run the client side of the handshake (used by tests and the
/// benchmark): propose 5.4 with a full back-range plus 4.4, return what the
/// server picked, or `None` if it answered all zeros.
pub fn client_handshake(stream: &mut (impl Read + Write)) -> Result<Option<Version>, Error> {
    let mut hello = Vec::with_capacity(20);
    hello.extend_from_slice(&MAGIC);
    hello.extend_from_slice(&[0, 4, 4, 5]); // 5.0 ..= 5.4
    hello.extend_from_slice(&[0, 0, 4, 4]); // 4.4
    hello.extend_from_slice(&[0, 0, 0, 0]);
    hello.extend_from_slice(&[0, 0, 0, 0]);
    stream.write_all(&hello)?;
    stream.flush()?;
    let mut answer = [0u8; 4];
    stream.read_exact(&mut answer)?;
    if answer == [0, 0, 0, 0] {
        return Ok(None);
    }
    Ok(Some(Version {
        major: answer[3],
        minor: answer[2],
    }))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(major: u8, minor: u8) -> Version {
        Version { major, minor }
    }

    #[test]
    fn negotiation_honors_preference_order_and_ranges() {
        // Plain 5.4 proposal.
        let picked = negotiate(&[[0, 0, 4, 5], [0; 4], [0; 4], [0; 4]]);
        assert_eq!(picked, Some(v(5, 4)));
        // A newer client proposing 5.7 with range 7 still lands on 5.4.
        let picked = negotiate(&[[0, 7, 7, 5], [0; 4], [0; 4], [0; 4]]);
        assert_eq!(picked, Some(v(5, 4)));
        // 5.7 with a short range that never reaches 5.4 → fall through
        // to the next proposal.
        let picked = negotiate(&[[0, 1, 7, 5], [0, 0, 4, 4], [0; 4], [0; 4]]);
        assert_eq!(picked, Some(v(4, 4)));
        // Unknown majors (including the handshake-v2 marker 255.1) are
        // skipped, not fatal.
        let picked = negotiate(&[[0, 0, 1, 0xFF], [0, 0, 2, 5], [0; 4], [0; 4]]);
        assert_eq!(picked, Some(v(5, 2)));
        // Nothing we speak.
        assert_eq!(negotiate(&[[0, 0, 0, 3], [0; 4], [0; 4], [0; 4]]), None);
    }

    /// An in-memory duplex half: reads from a canned input, captures
    /// everything written.
    struct Duplex {
        input: std::io::Cursor<Vec<u8>>,
        output: Vec<u8>,
    }

    impl std::io::Read for Duplex {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            self.input.read(buf)
        }
    }

    impl std::io::Write for Duplex {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.output.extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn server_and_client_handshakes_agree_over_buffers() {
        // Client side against the answer the server will produce below.
        let mut client = Duplex {
            input: std::io::Cursor::new(vec![0, 0, 4, 5]),
            output: Vec::new(),
        };
        assert_eq!(client_handshake(&mut client).unwrap(), Some(v(5, 4)));
        // Server side consuming exactly the bytes the client wrote.
        let mut server = Duplex {
            input: std::io::Cursor::new(client.output),
            output: Vec::new(),
        };
        assert_eq!(serve_handshake(&mut server).unwrap(), Some(v(5, 4)));
        assert_eq!(server.output, [0, 0, 4, 5]);
    }

    #[test]
    fn no_overlap_answers_zeros() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&MAGIC);
        wire.extend_from_slice(&[0, 0, 0, 3]); // Bolt 3.0 only
        wire.extend_from_slice(&[0u8; 12]);
        let mut server = Duplex {
            input: std::io::Cursor::new(wire),
            output: Vec::new(),
        };
        assert_eq!(serve_handshake(&mut server).unwrap(), None);
        assert_eq!(server.output, [0, 0, 0, 0]);
    }

    #[test]
    fn bad_magic_is_a_typed_error() {
        let mut wire = std::io::Cursor::new(vec![0u8; 20]);
        let err = serve_handshake(&mut wire).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
    }
}
