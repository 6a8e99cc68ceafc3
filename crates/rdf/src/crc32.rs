//! CRC-32 (IEEE 802.3, the zlib/PNG polynomial) checksums.
//!
//! Used to frame write-ahead-log records and to seal compact-snapshot
//! checkpoint files: both are read back after crashes, where a torn or
//! bit-rotted tail must be *detected*, never silently replayed. A
//! checkpoint runs the whole `rdf.nt` text and the whole `compact.bin`
//! image through here, so the loop is *slicing-by-8*: eight reflected
//! tables (8 KiB, computed at compile time, so the hermetic build stays
//! dependency-free) fold one 64-bit word per step instead of one byte,
//! breaking the byte loop's load → xor → load dependency chain into eight
//! independent lookups. Same polynomial, same initial value and final
//! complement, so the checksum of every input is what the byte-at-a-time
//! loop returned: files and WAL frames written before the change verify
//! unchanged. That loop is kept under `#[cfg(test)]` as the reference the
//! unit tests compare against.

/// The reflected polynomial of CRC-32/ISO-HDLC (0x04C11DB7 bit-reversed).
const POLY: u32 = 0xEDB8_8320;

/// `TABLES[0]` is the classic byte table; `TABLES[k][b]` is the CRC of
/// byte `b` followed by `k` zero bytes, which is what lets eight bytes be
/// folded at once.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// A streaming CRC-32 state. Feed bytes with [`Crc32::update`], read the
/// checksum with [`Crc32::finish`].
#[derive(Debug, Clone)]
pub struct Crc32 {
    state: u32,
}

impl Default for Crc32 {
    fn default() -> Self {
        Crc32::new()
    }
}

impl Crc32 {
    /// A fresh checksum state.
    pub fn new() -> Crc32 {
        Crc32 { state: !0 }
    }

    /// Absorb `bytes` into the running checksum, eight at a time.
    pub fn update(&mut self, bytes: &[u8]) {
        let mut crc = self.state;
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            let lo = u32::from_le_bytes([w[0], w[1], w[2], w[3]]) ^ crc;
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            crc = TABLES[7][(lo & 0xFF) as usize]
                ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
                ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
                ^ TABLES[4][(lo >> 24) as usize]
                ^ TABLES[3][(hi & 0xFF) as usize]
                ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
                ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
                ^ TABLES[0][(hi >> 24) as usize];
        }
        for &b in words.remainder() {
            crc = (crc >> 8) ^ TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        self.state = crc;
    }

    /// The byte-at-a-time table loop `update` replaced: the reference the
    /// tests hold the sliced loop to, for every length and every split.
    #[cfg(test)]
    fn update_bytewise(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state = (self.state >> 8) ^ TABLES[0][((self.state ^ b as u32) & 0xFF) as usize];
        }
    }

    /// The checksum over everything absorbed so far. Does not consume the
    /// state: more bytes may still be absorbed afterwards.
    pub fn finish(&self) -> u32 {
        !self.state
    }
}

/// One-shot CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::XorShiftRng;

    #[test]
    fn known_vectors() {
        // The canonical check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    fn random_bytes(rng: &mut XorShiftRng, len: usize) -> Vec<u8> {
        (0..len).map(|_| rng.next_u64() as u8).collect()
    }

    fn bytewise(bytes: &[u8]) -> u32 {
        let mut c = Crc32::new();
        c.update_bytewise(bytes);
        c.finish()
    }

    #[test]
    fn sliced_equals_bytewise_for_every_short_length() {
        // 0–64 covers every remainder length, with and without whole words
        // before it, at several alignments of the slice start.
        const SEED: u64 = 0xC4C3_2001;
        let mut rng = XorShiftRng::seed_from_u64(SEED);
        for len in 0..=64usize {
            for offset in 0..8usize {
                let buf = random_bytes(&mut rng, offset + len);
                assert_eq!(
                    crc32(&buf[offset..]),
                    bytewise(&buf[offset..]),
                    "seed {SEED:#x}, len {len}, offset {offset}"
                );
            }
        }
    }

    #[test]
    fn sliced_equals_bytewise_across_random_update_splits() {
        const SEED: u64 = 0xC4C3_2002;
        let mut rng = XorShiftRng::seed_from_u64(SEED);
        let buf = random_bytes(&mut rng, 1 << 20);
        let expected = bytewise(&buf);
        assert_eq!(crc32(&buf), expected, "seed {SEED:#x}, one shot");
        for round in 0..8 {
            let mut c = Crc32::new();
            let mut at = 0;
            while at < buf.len() {
                // Odd piece lengths, so pieces start at every offset mod 8.
                let piece = (rng.random_range(0..4096usize) | 1).min(buf.len() - at);
                c.update(&buf[at..at + piece]);
                at += piece;
            }
            assert_eq!(c.finish(), expected, "seed {SEED:#x}, round {round}");
        }
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"split across several updates";
        let mut c = Crc32::new();
        for chunk in data.chunks(5) {
            c.update(chunk);
        }
        assert_eq!(c.finish(), crc32(data));
    }

    #[test]
    fn single_bit_flip_changes_checksum() {
        let mut data = b"write-ahead log record payload".to_vec();
        let clean = crc32(&data);
        data[7] ^= 0x40;
        assert_ne!(crc32(&data), clean);
    }
}
