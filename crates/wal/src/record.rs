//! The on-disk WAL record format: length-prefixed, CRC-framed N-Triples
//! deltas.
//!
//! One record is one acknowledged update — exactly the `additions` and
//! `deletions` documents the server's `update` endpoint received, plus a
//! monotone sequence number assigned at append time:
//!
//! ```text
//! ┌──────────┬──────────┬─────────────────────────────────────────────┐
//! │ len: u32 │ crc: u32 │ payload (len bytes)                         │
//! └──────────┴──────────┴─────────────────────────────────────────────┘
//! payload = seq: u64 | add_len: u32 | additions … | del_len: u32 | deletions …
//! ```
//!
//! All integers are little-endian; `crc` is CRC-32 (IEEE) over the payload
//! bytes. The frame is self-delimiting, so a reader can distinguish a
//! *torn tail* (the file ends inside a frame — the expected outcome of
//! `kill -9` mid-append, recoverable by truncation) from *corruption* (a
//! complete frame whose checksum or structure is wrong — never silently
//! replayed).

use s3pg_rdf::crc32::crc32;

/// The largest payload a single record may carry (64 MiB). A length
/// prefix beyond this is treated as corruption rather than attempted as
/// an allocation.
pub const MAX_RECORD_BYTES: usize = 64 << 20;

/// One durable delta: what an acknowledged `update` request carried.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Monotone sequence number, 1-based; assigned by the log at append.
    pub seq: u64,
    /// N-Triples document of added triples (may be empty).
    pub additions: String,
    /// N-Triples document of deleted triples (may be empty).
    pub deletions: String,
}

/// Why a frame failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// The buffer ends inside a frame: a torn tail. `offset` is the start
    /// of the incomplete frame — everything before it decoded cleanly.
    Truncated { offset: usize },
    /// A complete frame is structurally invalid or fails its checksum.
    Corrupt { offset: usize, reason: String },
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated { offset } => {
                write!(f, "torn record frame at byte {offset}")
            }
            DecodeError::Corrupt { offset, reason } => {
                write!(f, "corrupt record frame at byte {offset}: {reason}")
            }
        }
    }
}

impl std::error::Error for DecodeError {}

impl Record {
    /// Append this record's frame to `buf`. Returns the frame length.
    pub fn encode_into(&self, buf: &mut Vec<u8>) -> usize {
        let payload_len = 8 + 4 + self.additions.len() + 4 + self.deletions.len();
        let mut payload = Vec::with_capacity(payload_len);
        payload.extend_from_slice(&self.seq.to_le_bytes());
        payload.extend_from_slice(&(self.additions.len() as u32).to_le_bytes());
        payload.extend_from_slice(self.additions.as_bytes());
        payload.extend_from_slice(&(self.deletions.len() as u32).to_le_bytes());
        payload.extend_from_slice(self.deletions.as_bytes());
        buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        buf.extend_from_slice(&crc32(&payload).to_le_bytes());
        buf.extend_from_slice(&payload);
        8 + payload.len()
    }

    /// Decode one frame starting at `buf[at..]`. Returns the record and
    /// the offset just past its frame.
    fn decode_at(buf: &[u8], at: usize) -> Result<(Record, usize), DecodeError> {
        let truncated = || DecodeError::Truncated { offset: at };
        let corrupt = |reason: &str| DecodeError::Corrupt {
            offset: at,
            reason: reason.to_string(),
        };
        let header = buf.get(at..at + 8).ok_or_else(truncated)?;
        let len = u32::from_le_bytes(header[0..4].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        if len > MAX_RECORD_BYTES {
            return Err(corrupt("length prefix exceeds MAX_RECORD_BYTES"));
        }
        if len < 16 {
            return Err(corrupt("payload shorter than the fixed fields"));
        }
        let payload = buf.get(at + 8..at + 8 + len).ok_or_else(truncated)?;
        if crc32(payload) != crc {
            return Err(corrupt("checksum mismatch"));
        }
        let seq = u64::from_le_bytes(payload[0..8].try_into().unwrap());
        let add_len = u32::from_le_bytes(payload[8..12].try_into().unwrap()) as usize;
        let rest = &payload[12..];
        if add_len + 4 > rest.len() {
            return Err(corrupt("additions length overruns payload"));
        }
        let additions = std::str::from_utf8(&rest[..add_len])
            .map_err(|_| corrupt("additions are not UTF-8"))?;
        let del_len = u32::from_le_bytes(rest[add_len..add_len + 4].try_into().unwrap()) as usize;
        let del_bytes = &rest[add_len + 4..];
        if del_len != del_bytes.len() {
            return Err(corrupt("deletions length disagrees with payload length"));
        }
        let deletions =
            std::str::from_utf8(del_bytes).map_err(|_| corrupt("deletions are not UTF-8"))?;
        Ok((
            Record {
                seq,
                additions: additions.to_string(),
                deletions: deletions.to_string(),
            },
            at + 8 + len,
        ))
    }
}

/// Decode every complete frame in `buf`. On a torn tail, returns the
/// records decoded so far plus the byte offset where the tail begins (the
/// caller truncates there). Corruption inside the buffer is an error.
pub fn decode_all(buf: &[u8]) -> Result<(Vec<Record>, usize), DecodeError> {
    let mut records = Vec::new();
    let mut at = 0;
    while at < buf.len() {
        match Record::decode_at(buf, at) {
            Ok((record, next)) => {
                records.push(record);
                at = next;
            }
            Err(DecodeError::Truncated { offset }) => return Ok((records, offset)),
            Err(e) => return Err(e),
        }
    }
    Ok((records, at))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seq: u64) -> Record {
        Record {
            seq,
            additions: format!("<http://ex/n{seq}> <http://ex/p> \"v{seq}\" .\n"),
            deletions: if seq.is_multiple_of(3) {
                "<http://ex/a> <http://ex/q> <http://ex/b> .\n".to_string()
            } else {
                String::new()
            },
        }
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        for seq in 1..=20 {
            sample(seq).encode_into(&mut buf);
        }
        let (records, end) = decode_all(&buf).unwrap();
        assert_eq!(end, buf.len());
        assert_eq!(records.len(), 20);
        for (i, r) in records.iter().enumerate() {
            assert_eq!(*r, sample(i as u64 + 1));
        }
    }

    #[test]
    fn torn_tail_is_detected_not_replayed() {
        let mut buf = Vec::new();
        sample(1).encode_into(&mut buf);
        let good_end = buf.len();
        sample(2).encode_into(&mut buf);
        // Simulate kill -9 mid-write: drop the last few bytes.
        buf.truncate(buf.len() - 3);
        let (records, end) = decode_all(&buf).unwrap();
        assert_eq!(records.len(), 1);
        assert_eq!(end, good_end);
    }

    #[test]
    fn bit_flips_are_corruption() {
        let mut buf = Vec::new();
        sample(1).encode_into(&mut buf);
        buf[12] ^= 0x01; // inside the payload
        assert!(matches!(
            decode_all(&buf),
            Err(DecodeError::Corrupt { offset: 0, .. })
        ));
    }

    #[test]
    fn absurd_length_prefix_is_corruption() {
        let buf = vec![0xFF; 32];
        assert!(matches!(decode_all(&buf), Err(DecodeError::Corrupt { .. })));
    }
}
