//! The segmented write-ahead log with fsync group commit.
//!
//! # Layout
//!
//! A log is a directory of segment files named `wal-<first seq, 16 hex
//! digits>.seg`, each a concatenation of [`Record`] frames in sequence
//! order. Appends always go to the newest segment; [`Wal::rotate`] seals
//! it and opens the next, and [`Wal::prune_through`] unlinks segments
//! wholly covered by a checkpoint. On open, every segment is decoded; a
//! torn frame is tolerated (truncated away) only at the tail of the
//! *newest* segment — anywhere else it is corruption and open fails.
//!
//! # Group commit
//!
//! Appends buffer the frame into the segment file under a short internal
//! lock and return immediately; durability comes from [`Wal::commit`],
//! which callers invoke *outside* any store-wide write lock. The first
//! committer to arrive becomes the **leader**: when the previous flush
//! covered more than one record — writers are arriving together — it
//! dallies [`WalOptions::fsync_ms`] to let more appends accumulate
//! (skipping the dally once [`WalOptions::fsync_batch`] records are
//! pending); it then issues a single `fdatasync` covering every record
//! appended so far, advances the durable watermark, and wakes the
//! **followers** — committers that arrived while the leader was flushing
//! and merely wait for the watermark to pass their sequence number. One
//! disk flush thus pays for a whole batch of acknowledgements, and a lone
//! writer, whose flushes each cover its own record, never waits for
//! company that is not coming. Records appended during a flush make the
//! next flush a batch, so concurrent writers switch the dally back on.

use std::collections::BTreeMap;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use s3pg_obs::metrics::{Counter, Gauge, Histogram};
use s3pg_obs::registry::Registry;

use crate::record::{decode_all, DecodeError, Record};

/// Tuning knobs for [`Wal::open`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WalOptions {
    /// How long a group-commit leader dallies for followers before
    /// flushing, in milliseconds, when the previous flush covered more
    /// than one record. `0` flushes immediately (every commit may still
    /// batch whatever appended concurrently).
    pub fsync_ms: u64,
    /// Flush without dallying once this many records are pending.
    pub fsync_batch: u64,
    /// Rotate to a new segment file once the current one exceeds this
    /// many bytes.
    pub segment_bytes: u64,
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            fsync_ms: 2,
            fsync_batch: 64,
            segment_bytes: 64 << 20,
        }
    }
}

/// Errors from opening or appending to a log.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// A segment other than the newest has a torn or corrupt frame, or
    /// sequence numbers are not contiguous across segments.
    Corrupt(String),
    /// A group-commit fsync failed earlier; the log refuses all further
    /// commits and replication reads. An fsync error consumes the
    /// kernel's dirty-page error state, so a retry could spuriously
    /// succeed and acknowledge a write that was in fact lost — once a
    /// flush fails, the only safe course is a restart and recovery from
    /// what is verifiably on disk.
    Poisoned(String),
}

impl std::fmt::Display for WalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WalError::Io(e) => write!(f, "wal i/o error: {e}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
            WalError::Poisoned(m) => {
                write!(f, "wal poisoned by an earlier fsync failure: {m}")
            }
        }
    }
}

impl std::error::Error for WalError {}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        WalError::Io(e)
    }
}

/// Mutable writer state: the open tail segment and the append cursor.
struct Writer {
    /// Handle on the newest segment, positioned at its end.
    file: File,
    /// Path of the newest segment (for error messages).
    path: PathBuf,
    /// First sequence number in the newest segment.
    first_seq: u64,
    /// Bytes written to the newest segment so far.
    segment_len: u64,
    /// Highest sequence number appended (not necessarily durable).
    last_seq: u64,
    /// Scratch buffer reused across appends.
    scratch: Vec<u8>,
}

/// Group-commit coordination: watermark plus leader election.
struct SyncState {
    /// Highest sequence number known durable on disk.
    durable_seq: u64,
    /// Whether a leader is currently flushing.
    leader_active: bool,
    /// Records the previous flush covered: a leader dallies only after a
    /// flush of more than one.
    last_batch: u64,
    /// Set when a group-commit fsync fails, and never cleared: every
    /// later commit and replication read fails with
    /// [`WalError::Poisoned`] instead of re-flushing a file whose error
    /// state the failed fsync already consumed.
    poisoned: Option<String>,
}

/// Metric handles, resolved once at open.
struct WalMetrics {
    bytes: Arc<Gauge>,
    fsyncs: Arc<Counter>,
    records: Arc<Counter>,
    batch: Arc<Histogram>,
    last_seq: Arc<Gauge>,
    durable_seq: Arc<Gauge>,
}

impl WalMetrics {
    fn resolve(registry: &Registry) -> WalMetrics {
        WalMetrics {
            bytes: registry.gauge("s3pg_wal_bytes"),
            fsyncs: registry.counter("s3pg_wal_fsyncs_total"),
            records: registry.counter("s3pg_wal_records_total"),
            batch: registry.histogram("s3pg_wal_group_commit_batch"),
            last_seq: registry.gauge("s3pg_wal_last_seq"),
            durable_seq: registry.gauge("s3pg_wal_durable_seq"),
        }
    }
}

/// A durable, segmented log of [`Record`]s. All methods take `&self`;
/// the log is shared across server workers behind an [`Arc`].
pub struct Wal {
    dir: PathBuf,
    opts: WalOptions,
    writer: Mutex<Writer>,
    sync: Mutex<SyncState>,
    synced: Condvar,
    /// Total bytes across all live segments (gauge mirror).
    total_bytes: AtomicU64,
    metrics: WalMetrics,
}

/// What [`Wal::open`] found on disk.
pub struct Recovered {
    /// Every intact record, in sequence order.
    pub records: Vec<Record>,
    /// Bytes of torn tail truncated from the newest segment, if any.
    pub truncated_bytes: u64,
}

fn segment_path(dir: &Path, first_seq: u64) -> PathBuf {
    dir.join(format!("wal-{first_seq:016x}.seg"))
}

fn parse_segment_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

/// Flush directory metadata so created/renamed/unlinked entries survive a
/// crash. Best-effort on filesystems that reject directory fsync.
pub(crate) fn fsync_dir(dir: &Path) -> io::Result<()> {
    match File::open(dir) {
        Ok(d) => match d.sync_all() {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::InvalidInput => Ok(()),
            Err(e) => Err(e),
        },
        Err(e) => Err(e),
    }
}

impl Wal {
    /// Open (creating if needed) the log in `dir`, replaying what is on
    /// disk. A torn frame at the very tail of the newest segment is
    /// truncated away — that is the expected state after `kill -9` — but
    /// corruption anywhere else fails the open.
    pub fn open(
        dir: &Path,
        opts: WalOptions,
        registry: &Registry,
    ) -> Result<(Wal, Recovered), WalError> {
        fs::create_dir_all(dir)?;
        let mut segments = BTreeMap::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            if let Some(first) = entry.file_name().to_str().and_then(parse_segment_name) {
                segments.insert(first, entry.path());
            }
        }

        let mut records: Vec<Record> = Vec::new();
        let mut truncated_bytes = 0u64;
        let mut total_bytes = 0u64;
        let newest = segments.keys().next_back().copied();
        for (&first, path) in &segments {
            let mut buf = Vec::new();
            File::open(path)?.read_to_end(&mut buf)?;
            let is_newest = Some(first) == newest;
            let (mut segment_records, clean_end) = match decode_all(&buf) {
                Ok(ok) => ok,
                Err(DecodeError::Corrupt { offset, reason }) => {
                    return Err(WalError::Corrupt(format!(
                        "{}: byte {offset}: {reason}",
                        path.display()
                    )));
                }
                Err(DecodeError::Truncated { .. }) => {
                    unreachable!("decode_all returns Ok on truncation")
                }
            };
            if clean_end < buf.len() {
                if !is_newest {
                    return Err(WalError::Corrupt(format!(
                        "{}: torn frame in a sealed segment (byte {clean_end})",
                        path.display()
                    )));
                }
                // Torn tail on the newest segment: truncate it away.
                truncated_bytes = (buf.len() - clean_end) as u64;
                let f = OpenOptions::new().write(true).open(path)?;
                f.set_len(clean_end as u64)?;
                f.sync_data()?;
            }
            if let Some(head) = segment_records.first() {
                if head.seq != first {
                    return Err(WalError::Corrupt(format!(
                        "{}: first record seq {} disagrees with file name",
                        path.display(),
                        head.seq
                    )));
                }
            }
            let mut expected = records.last().map(|p: &Record| p.seq + 1);
            for r in &segment_records {
                let want = expected.unwrap_or(r.seq);
                if r.seq != want {
                    return Err(WalError::Corrupt(format!(
                        "{}: sequence gap: expected {want}, found {}",
                        path.display(),
                        r.seq
                    )));
                }
                expected = Some(r.seq + 1);
            }
            total_bytes += clean_end as u64;
            records.append(&mut segment_records);
        }

        // An empty tail segment (rotation, or every record pruned by a
        // checkpoint) still pins the sequence: its name is `last + 1`.
        let last_seq = records
            .last()
            .map(|r| r.seq)
            .unwrap_or(0)
            .max(newest.map(|f| f.saturating_sub(1)).unwrap_or(0));
        let (first_seq, path) = match newest {
            Some(first) => (first, segments[&first].clone()),
            None => {
                let first = last_seq + 1;
                (first, segment_path(dir, first))
            }
        };
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        file.seek(SeekFrom::End(0))?;
        let segment_len = file.metadata()?.len();
        if newest.is_none() {
            total_bytes += segment_len;
            fsync_dir(dir)?;
        }

        let metrics = WalMetrics::resolve(registry);
        metrics.bytes.set_u64(total_bytes);
        metrics.records.add(records.len() as u64);
        metrics.last_seq.set_u64(last_seq);
        metrics.durable_seq.set_u64(last_seq);
        let wal = Wal {
            dir: dir.to_path_buf(),
            opts,
            writer: Mutex::new(Writer {
                file,
                path,
                first_seq,
                segment_len,
                last_seq,
                scratch: Vec::new(),
            }),
            sync: Mutex::new(SyncState {
                durable_seq: last_seq,
                leader_active: false,
                last_batch: 0,
                poisoned: None,
            }),
            synced: Condvar::new(),
            total_bytes: AtomicU64::new(total_bytes),
            metrics,
        };
        Ok((
            wal,
            Recovered {
                records,
                truncated_bytes,
            },
        ))
    }

    /// Append a delta, assigning it the next sequence number. The record
    /// is *written* (buffered in the kernel) but not yet durable; follow
    /// with [`Wal::commit`] outside any wider lock to make it so.
    pub fn append(&self, additions: &str, deletions: &str) -> Result<u64, WalError> {
        let mut w = self.writer.lock().unwrap();
        let seq = w.last_seq + 1;
        self.append_locked(&mut w, seq, additions, deletions)?;
        Ok(seq)
    }

    /// Append a record with an externally assigned sequence number —
    /// replicas mirror the primary's numbering so watermarks agree.
    /// `seq` must be exactly `last_seq() + 1`.
    pub fn append_exact(&self, seq: u64, additions: &str, deletions: &str) -> Result<(), WalError> {
        let mut w = self.writer.lock().unwrap();
        if seq != w.last_seq + 1 {
            return Err(WalError::Corrupt(format!(
                "append_exact out of order: expected {}, got {seq}",
                w.last_seq + 1
            )));
        }
        self.append_locked(&mut w, seq, additions, deletions)
    }

    fn append_locked(
        &self,
        w: &mut Writer,
        seq: u64,
        additions: &str,
        deletions: &str,
    ) -> Result<(), WalError> {
        if w.segment_len >= self.opts.segment_bytes {
            self.rotate_locked(w, seq)?;
        }
        let record = Record {
            seq,
            additions: additions.to_string(),
            deletions: deletions.to_string(),
        };
        w.scratch.clear();
        let frame_len = record.encode_into(&mut w.scratch);
        let scratch = std::mem::take(&mut w.scratch);
        let write = w.file.write_all(&scratch);
        w.scratch = scratch;
        write?;
        w.segment_len += frame_len as u64;
        w.last_seq = seq;
        let total = self
            .total_bytes
            .fetch_add(frame_len as u64, Ordering::Relaxed)
            + frame_len as u64;
        self.metrics.bytes.set_u64(total);
        self.metrics.records.inc();
        self.metrics.last_seq.set_u64(seq);
        Ok(())
    }

    /// Block until every record with sequence number ≤ `seq` is durable.
    /// This is the group-commit rendezvous: the first caller in becomes
    /// the leader and flushes for everyone.
    pub fn commit(&self, seq: u64) -> Result<(), WalError> {
        let mut sync = self.sync.lock().unwrap();
        loop {
            if let Some(m) = &sync.poisoned {
                return Err(WalError::Poisoned(m.clone()));
            }
            if sync.durable_seq >= seq {
                return Ok(());
            }
            if !sync.leader_active {
                break; // become leader
            }
            sync = self.synced.wait(sync).unwrap();
        }
        sync.leader_active = true;
        let dally = self.opts.fsync_ms > 0 && sync.last_batch > 1;
        drop(sync);

        // Dally for followers unless a full batch is already pending.
        if dally {
            let deadline = Instant::now() + Duration::from_millis(self.opts.fsync_ms);
            loop {
                let pending = {
                    let w = self.writer.lock().unwrap();
                    let durable = self.sync.lock().unwrap().durable_seq;
                    w.last_seq.saturating_sub(durable)
                };
                if pending >= self.opts.fsync_batch {
                    break;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                std::thread::sleep((deadline - now).min(Duration::from_micros(250)));
            }
        }

        // One flush covers everything appended so far.
        let flush = {
            let w = self.writer.lock().unwrap();
            let r = w.file.sync_data();
            (r, w.last_seq)
        };
        let mut sync = self.sync.lock().unwrap();
        sync.leader_active = false;
        let result = match flush {
            (Ok(()), flushed_seq) => {
                let batch = flushed_seq.saturating_sub(sync.durable_seq);
                sync.durable_seq = flushed_seq;
                sync.last_batch = batch;
                self.metrics.fsyncs.inc();
                self.metrics.batch.record_micros(batch);
                self.metrics.durable_seq.set_u64(flushed_seq);
                Ok(())
            }
            (Err(e), _) => {
                // Sticky: the failed fsync consumed the kernel's error
                // state, so a retry by the next leader could "succeed"
                // without the lost pages ever reaching disk. Fail every
                // future commit instead of electing another leader.
                sync.poisoned = Some(e.to_string());
                Err(WalError::Io(e))
            }
        };
        self.synced.notify_all();
        result
    }

    /// Flush everything appended so far. Used at shutdown and before
    /// checkpoints.
    pub fn sync_all(&self) -> Result<(), WalError> {
        let last = self.writer.lock().unwrap().last_seq;
        if last == 0 {
            return Ok(());
        }
        self.commit(last)
    }

    /// Committed records with sequence numbers in `(from, from + max]` —
    /// i.e. strictly after `from`, at most `max`, never beyond the durable
    /// watermark. This is the replication feed: a replica never sees a
    /// record the primary could still lose.
    pub fn read_since(&self, from: u64, max: usize) -> Result<Vec<Record>, WalError> {
        let durable = {
            let sync = self.sync.lock().unwrap();
            // A poisoned log must not feed replicas either: durable_seq
            // stopped being trustworthy at the failed flush.
            if let Some(m) = &sync.poisoned {
                return Err(WalError::Poisoned(m.clone()));
            }
            sync.durable_seq
        };
        if from >= durable || max == 0 {
            return Ok(Vec::new());
        }
        let mut segments = BTreeMap::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(first) = entry.file_name().to_str().and_then(parse_segment_name) {
                segments.insert(first, entry.path());
            }
        }
        let mut out = Vec::new();
        for (&first, path) in &segments {
            // Skip segments wholly before the cursor: the *next* segment's
            // first seq bounds this one's last.
            if let Some((&next_first, _)) = segments.range(first + 1..).next() {
                if next_first <= from + 1 {
                    continue;
                }
            }
            let mut buf = Vec::new();
            // For the live tail, capture the complete-frame length under
            // the writer lock, then read *outside* it: `segment_len` is
            // only advanced after a frame's `write_all` returns, so every
            // byte below it is a whole frame, and bytes past it (a write
            // racing this read) are simply not taken. Reading a 64 MiB
            // tail must not stall appends — append runs under the store's
            // master lock, so a lagging replica would otherwise block
            // every update.
            let tail_limit = {
                let w = self.writer.lock().unwrap();
                (w.first_seq == first).then_some(w.segment_len)
            };
            match tail_limit {
                Some(limit) => {
                    File::open(path)?.take(limit).read_to_end(&mut buf)?;
                }
                None => {
                    File::open(path)?.read_to_end(&mut buf)?;
                }
            }
            let (records, _) = decode_all(&buf)
                .map_err(|e| WalError::Corrupt(format!("{}: {e}", path.display())))?;
            for r in records {
                if r.seq > from && r.seq <= durable {
                    out.push(r);
                    if out.len() >= max {
                        return Ok(out);
                    }
                }
            }
        }
        Ok(out)
    }

    /// Seal the current segment and start a new one. Called around
    /// checkpoints so [`Wal::prune_through`] has a segment boundary to cut
    /// at.
    pub fn rotate(&self) -> Result<(), WalError> {
        let mut w = self.writer.lock().unwrap();
        if w.segment_len == 0 {
            return Ok(()); // already fresh
        }
        let next = w.last_seq + 1;
        self.rotate_locked(&mut w, next)
    }

    fn rotate_locked(&self, w: &mut Writer, next_seq: u64) -> Result<(), WalError> {
        w.file.sync_data()?;
        let path = segment_path(&self.dir, next_seq);
        let file = OpenOptions::new().create(true).append(true).open(&path)?;
        fsync_dir(&self.dir)?;
        w.file = file;
        w.path = path;
        w.first_seq = next_seq;
        w.segment_len = 0;
        Ok(())
    }

    /// Unlink sealed segments whose records are all ≤ `seq` (covered by a
    /// checkpoint). The live tail segment is never removed.
    pub fn prune_through(&self, seq: u64) -> Result<u64, WalError> {
        let tail_first = self.writer.lock().unwrap().first_seq;
        let mut segments = BTreeMap::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(first) = entry.file_name().to_str().and_then(parse_segment_name) {
                segments.insert(first, entry.path());
            }
        }
        let firsts: Vec<u64> = segments.keys().copied().collect();
        let mut removed_bytes = 0u64;
        for (i, &first) in firsts.iter().enumerate() {
            if first == tail_first {
                continue;
            }
            // A sealed segment's records end just before the next
            // segment's first seq.
            let last_in_segment = match firsts.get(i + 1) {
                Some(&next_first) => next_first - 1,
                None => continue, // newest segment, never pruned
            };
            if last_in_segment <= seq {
                let path = &segments[&first];
                removed_bytes += fs::metadata(path).map(|m| m.len()).unwrap_or(0);
                fs::remove_file(path)?;
            }
        }
        if removed_bytes > 0 {
            fsync_dir(&self.dir)?;
            let total =
                self.total_bytes.fetch_sub(removed_bytes, Ordering::Relaxed) - removed_bytes;
            self.metrics.bytes.set_u64(total);
        }
        Ok(removed_bytes)
    }

    /// Sequence number of the first record still on disk — the oldest
    /// live segment's name. Records below this were pruned by a
    /// checkpoint: a replication cursor at less than `oldest − 1` asks
    /// for records that no longer exist, and that replica must be
    /// re-seeded rather than silently served a stream with a hole in it.
    pub fn oldest_retained_seq(&self) -> Result<u64, WalError> {
        let mut oldest: Option<u64> = None;
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            if let Some(first) = entry.file_name().to_str().and_then(parse_segment_name) {
                oldest = Some(oldest.map_or(first, |o| o.min(first)));
            }
        }
        // A log always has a tail segment; an empty directory can only
        // mean it was created this instant, where everything is retained.
        Ok(oldest.unwrap_or(1))
    }

    /// Highest sequence number appended (not necessarily durable yet).
    pub fn last_seq(&self) -> u64 {
        self.writer.lock().unwrap().last_seq
    }

    /// Highest sequence number known durable on disk.
    pub fn durable_seq(&self) -> u64 {
        self.sync.lock().unwrap().durable_seq
    }

    /// Total bytes across live segments.
    pub fn total_bytes(&self) -> u64 {
        self.total_bytes.load(Ordering::Relaxed)
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured options.
    pub fn options(&self) -> &WalOptions {
        &self.opts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("s3pg-wal-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn opts() -> WalOptions {
        WalOptions {
            fsync_ms: 0,
            fsync_batch: 8,
            segment_bytes: 256,
        }
    }

    #[test]
    fn append_commit_reopen_round_trip() {
        let dir = tmpdir("roundtrip");
        let registry = Registry::new();
        {
            let (wal, rec) = Wal::open(&dir, opts(), &registry).unwrap();
            assert!(rec.records.is_empty());
            for i in 1..=10u64 {
                let add = format!("<http://ex/n{i}> <http://ex/p> \"{i}\" .\n");
                let seq = wal.append(&add, "").unwrap();
                assert_eq!(seq, i);
                wal.commit(seq).unwrap();
            }
            assert_eq!(wal.durable_seq(), 10);
        }
        let (wal, rec) = Wal::open(&dir, opts(), &Registry::new()).unwrap();
        assert_eq!(rec.records.len(), 10);
        assert_eq!(rec.records.last().unwrap().seq, 10);
        assert_eq!(wal.last_seq(), 10);
        // The tiny segment_bytes forced rotation: there are several files.
        let n_segments = fs::read_dir(&dir).unwrap().count();
        assert!(
            n_segments > 1,
            "expected rotation, found {n_segments} file(s)"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_truncated_on_open() {
        let dir = tmpdir("torn");
        {
            let (wal, _) = Wal::open(&dir, opts(), &Registry::new()).unwrap();
            wal.append("<http://ex/a> <http://ex/p> \"1\" .\n", "")
                .unwrap();
            wal.sync_all().unwrap();
        }
        // Tear the tail of the newest segment.
        let newest = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .max()
            .unwrap();
        let len = fs::metadata(&newest).unwrap().len();
        // Append half a frame.
        let mut f = OpenOptions::new().append(true).open(&newest).unwrap();
        f.write_all(&[0x20, 0x00, 0x00, 0x00, 0xAA, 0xBB]).unwrap();
        drop(f);
        let (wal, rec) = Wal::open(&dir, opts(), &Registry::new()).unwrap();
        assert_eq!(rec.records.len(), 1);
        assert_eq!(rec.truncated_bytes, 6);
        assert_eq!(fs::metadata(&newest).unwrap().len(), len);
        // Appends continue from the recovered tail.
        assert_eq!(
            wal.append("<http://ex/b> <http://ex/p> \"2\" .\n", "")
                .unwrap(),
            2
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corruption_in_sealed_segment_fails_open() {
        let dir = tmpdir("sealed-corrupt");
        {
            let (wal, _) = Wal::open(&dir, opts(), &Registry::new()).unwrap();
            // Enough records to rotate past the 256-byte segment cap.
            for i in 1..=12u64 {
                wal.append(&format!("<http://ex/n{i}> <http://ex/p> \"{i}\" .\n"), "")
                    .unwrap();
            }
            wal.sync_all().unwrap();
        }
        let oldest = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .min()
            .unwrap();
        let mut bytes = fs::read(&oldest).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xFF;
        fs::write(&oldest, &bytes).unwrap();
        assert!(matches!(
            Wal::open(&dir, opts(), &Registry::new()),
            Err(WalError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_since_is_capped_at_durable() {
        let dir = tmpdir("read-since");
        let (wal, _) = Wal::open(&dir, opts(), &Registry::new()).unwrap();
        for i in 1..=6u64 {
            wal.append(&format!("<http://ex/n{i}> <http://ex/p> \"{i}\" .\n"), "")
                .unwrap();
            if i <= 4 {
                wal.commit(i).unwrap();
            }
        }
        // Records 5 and 6 are appended but uncommitted after the last
        // explicit commit(4)... except commit(4) may have flushed them as
        // part of its batch. Re-derive the watermark honestly.
        let durable = wal.durable_seq();
        let got = wal.read_since(2, 100).unwrap();
        assert_eq!(got.first().unwrap().seq, 3);
        assert_eq!(got.last().unwrap().seq, durable);
        let capped = wal.read_since(2, 2).unwrap();
        assert_eq!(capped.len(), 2);
        assert_eq!(capped[1].seq, 4);
        assert!(wal.read_since(durable, 100).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn group_commit_batches_concurrent_writers() {
        let dir = tmpdir("group");
        let registry = Registry::new();
        let (wal, _) = Wal::open(
            &dir,
            WalOptions {
                fsync_ms: 5,
                fsync_batch: 64,
                segment_bytes: 64 << 20,
            },
            &registry,
        )
        .unwrap();
        let wal = Arc::new(wal);
        // Every round, all eight writers append before any commits, so
        // whichever commit leads flushes the whole round: the batching
        // does not depend on how the threads happen to be scheduled.
        let round = Arc::new(std::sync::Barrier::new(8));
        let threads: Vec<_> = (0..8)
            .map(|t| {
                let (wal, round) = (Arc::clone(&wal), Arc::clone(&round));
                std::thread::spawn(move || {
                    for i in 0..16 {
                        let seq = wal
                            .append(&format!("<http://ex/t{t}i{i}> <http://ex/p> \"x\" .\n"), "")
                            .unwrap();
                        round.wait();
                        wal.commit(seq).unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(wal.durable_seq(), 8 * 16);
        let fsyncs = registry.counter("s3pg_wal_fsyncs_total").get();
        assert!(
            (1..=16).contains(&fsyncs),
            "group commit should batch each round: {fsyncs} fsyncs for 128 commits"
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_lone_writer_does_not_wait_out_the_dally() {
        let dir = tmpdir("lone");
        let registry = Registry::new();
        let (wal, _) = Wal::open(
            &dir,
            WalOptions {
                fsync_ms: 1500,
                fsync_batch: 64,
                segment_bytes: 64 << 20,
            },
            &registry,
        )
        .unwrap();
        for i in 1..=3u64 {
            let seq = wal
                .append(&format!("<http://ex/n{i}> <http://ex/p> \"{i}\" .\n"), "")
                .unwrap();
            let started = Instant::now();
            wal.commit(seq).unwrap();
            let waited = started.elapsed();
            assert!(
                waited < Duration::from_millis(500),
                "commit {i} of a lone writer took {waited:?} under a 1500 ms dally"
            );
        }
        assert_eq!(registry.counter("s3pg_wal_fsyncs_total").get(), 3);

        // Two records in one flush: the next leader expects company.
        wal.append("<http://ex/a> <http://ex/p> \"a\" .\n", "")
            .unwrap();
        let seq = wal
            .append("<http://ex/b> <http://ex/p> \"b\" .\n", "")
            .unwrap();
        wal.commit(seq).unwrap();
        let seq = wal
            .append("<http://ex/c> <http://ex/p> \"c\" .\n", "")
            .unwrap();
        let started = Instant::now();
        wal.commit(seq).unwrap();
        assert!(started.elapsed() >= Duration::from_millis(1500));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn prune_removes_only_covered_sealed_segments() {
        let dir = tmpdir("prune");
        let (wal, _) = Wal::open(&dir, opts(), &Registry::new()).unwrap();
        for i in 1..=12u64 {
            wal.append(&format!("<http://ex/n{i}> <http://ex/p> \"{i}\" .\n"), "")
                .unwrap();
        }
        wal.sync_all().unwrap();
        wal.rotate().unwrap();
        let before = fs::read_dir(&dir).unwrap().count();
        assert!(before > 2);
        let removed = wal.prune_through(12).unwrap();
        assert!(removed > 0);
        let after = fs::read_dir(&dir).unwrap().count();
        assert!(after < before);
        // Everything after the checkpoint is still readable.
        assert!(wal.read_since(12, 100).unwrap().is_empty());
        // And reopen still works: remaining segments are contiguous.
        drop(wal);
        let (wal2, rec) = Wal::open(&dir, opts(), &Registry::new()).unwrap();
        assert_eq!(wal2.last_seq(), 12);
        assert!(rec.records.is_empty() || rec.records.first().unwrap().seq > 12);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn oldest_retained_tracks_pruning() {
        let dir = tmpdir("oldest");
        let (wal, _) = Wal::open(&dir, opts(), &Registry::new()).unwrap();
        assert_eq!(wal.oldest_retained_seq().unwrap(), 1);
        for i in 1..=12u64 {
            wal.append(&format!("<http://ex/n{i}> <http://ex/p> \"{i}\" .\n"), "")
                .unwrap();
        }
        wal.sync_all().unwrap();
        wal.rotate().unwrap();
        wal.prune_through(12).unwrap();
        let oldest = wal.oldest_retained_seq().unwrap();
        assert!(oldest > 1, "pruning must advance the floor, got {oldest}");
        // A cursor just below the floor minus one can no longer be served
        // contiguously; one at the floor minus one can.
        assert!(wal.read_since(oldest - 1, 100).unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn poisoned_log_refuses_commits_and_reads() {
        let dir = tmpdir("poison");
        let (wal, _) = Wal::open(&dir, opts(), &Registry::new()).unwrap();
        let seq = wal
            .append("<http://ex/a> <http://ex/p> \"1\" .\n", "")
            .unwrap();
        wal.commit(seq).unwrap();
        // Simulate a failed group-commit fsync: the error must be sticky.
        wal.sync.lock().unwrap().poisoned = Some("injected fsync failure".to_string());
        let seq = wal
            .append("<http://ex/b> <http://ex/p> \"2\" .\n", "")
            .unwrap();
        assert!(matches!(wal.commit(seq), Err(WalError::Poisoned(_))));
        assert!(matches!(wal.sync_all(), Err(WalError::Poisoned(_))));
        assert!(matches!(wal.read_since(0, 100), Err(WalError::Poisoned(_))));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_since_tail_ignores_bytes_past_the_captured_length() {
        let dir = tmpdir("tail-limit");
        let (wal, _) = Wal::open(&dir, opts(), &Registry::new()).unwrap();
        wal.append("<http://ex/a> <http://ex/p> \"1\" .\n", "")
            .unwrap();
        wal.commit(1).unwrap();
        // A half-written frame past segment_len (a racing append) must
        // not corrupt the replication read.
        {
            let w = wal.writer.lock().unwrap();
            let mut f = OpenOptions::new().append(true).open(&w.path).unwrap();
            f.write_all(&[0x20, 0x00, 0x00, 0x00, 0xAA]).unwrap();
        }
        let got = wal.read_since(0, 100).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].seq, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn append_exact_enforces_contiguity() {
        let dir = tmpdir("exact");
        let (wal, _) = Wal::open(&dir, opts(), &Registry::new()).unwrap();
        wal.append_exact(1, "<http://ex/a> <http://ex/p> \"1\" .\n", "")
            .unwrap();
        assert!(wal.append_exact(3, "x", "").is_err());
        wal.append_exact(2, "<http://ex/b> <http://ex/p> \"2\" .\n", "")
            .unwrap();
        assert_eq!(wal.last_seq(), 2);
        let _ = fs::remove_dir_all(&dir);
    }
}
