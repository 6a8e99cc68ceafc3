//! Compact-snapshot checkpoints: the recovery shortcut that turns
//! restart from *replay everything since genesis* into *load the latest
//! checkpoint, replay the tail*.
//!
//! A checkpoint is a directory `checkpoint-<seq, 16 hex digits>` inside
//! the WAL directory, holding
//!
//! * `rdf.nt` — the source RDF graph as N-Triples at WAL sequence `seq`.
//!   The transformation is deterministic, so re-running it on this file
//!   re-derives the *entire* server state (property graph, inferred
//!   schema, incremental-transform bookkeeping) exactly;
//! * `compact.bin` — the frozen [`CompactGraph`] serialized by
//!   [`CompactGraph::write_to`], letting a restart with no WAL tail skip
//!   the synchronous re-freeze too;
//! * `META` — written last: the sequence number plus CRC-32s of the other
//!   two files. A directory without a valid `META` is an unfinished
//!   checkpoint and is ignored.
//!
//! Writes go to a `.tmp` sibling first and are renamed into place after
//! an fsync of every file, so a crash mid-checkpoint leaves either the
//! previous checkpoint or a complete new one — never a half-written one
//! that recovery would trust. Loading walks checkpoints newest-first and
//! falls back to the next older one if validation fails; a damaged
//! `compact.bin` alone merely downgrades to re-freezing from `rdf.nt`.

use std::fs::{self, File};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use s3pg_pg::CompactGraph;
use s3pg_rdf::crc32::crc32;

use crate::log::fsync_dir;

const META_HEADER: &str = "s3pg-checkpoint v1";

/// A validated checkpoint loaded from disk.
pub struct Checkpoint {
    /// WAL sequence number the checkpoint covers: every record with
    /// `seq <= this` is already folded into `rdf`.
    pub seq: u64,
    /// The source RDF graph as an N-Triples document.
    pub rdf: String,
    /// The frozen read snapshot, when `compact.bin` was present and
    /// intact. `None` downgrades recovery to an in-process re-freeze.
    pub compact: Option<CompactGraph>,
}

fn checkpoint_dir_name(seq: u64) -> String {
    format!("checkpoint-{seq:016x}")
}

fn parse_checkpoint_name(name: &str) -> Option<u64> {
    let hex = name.strip_prefix("checkpoint-")?;
    if hex.len() != 16 {
        return None;
    }
    u64::from_str_radix(hex, 16).ok()
}

fn write_file_synced(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let file = File::create(path)?;
    let mut w = BufWriter::new(file);
    w.write_all(bytes)?;
    w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
    Ok(())
}

/// Write a checkpoint at `seq` into `wal_dir`, atomically. Returns the
/// final checkpoint directory. Older checkpoints are removed after the
/// new one is durable, so at most one complete checkpoint plus one being
/// written ever occupy disk.
pub fn write_checkpoint(
    wal_dir: &Path,
    seq: u64,
    rdf_ntriples: &str,
    compact: Option<&CompactGraph>,
) -> io::Result<PathBuf> {
    let final_dir = wal_dir.join(checkpoint_dir_name(seq));
    let tmp_dir = wal_dir.join(format!("{}.tmp", checkpoint_dir_name(seq)));
    if tmp_dir.exists() {
        fs::remove_dir_all(&tmp_dir)?;
    }
    if final_dir.exists() {
        // Same sequence number twice (no writes since last checkpoint):
        // the existing one is already complete and identical in effect.
        return Ok(final_dir);
    }
    fs::create_dir_all(&tmp_dir)?;

    write_file_synced(&tmp_dir.join("rdf.nt"), rdf_ntriples.as_bytes())?;
    let mut compact_crc_line = String::new();
    if let Some(cg) = compact {
        let file = File::create(tmp_dir.join("compact.bin"))?;
        let mut w = BufWriter::new(file);
        cg.write_to(&mut w)?;
        w.into_inner().map_err(|e| e.into_error())?.sync_all()?;
        // compact.bin carries its own internal CRC; META records only its
        // presence.
        compact_crc_line = "compact=present\n".to_string();
    }
    let meta = format!(
        "{META_HEADER}\nseq={seq}\nrdf_crc={:08x}\n{compact_crc_line}",
        crc32(rdf_ntriples.as_bytes())
    );
    write_file_synced(&tmp_dir.join("META"), meta.as_bytes())?;
    fsync_dir(&tmp_dir)?;

    fs::rename(&tmp_dir, &final_dir)?;
    fsync_dir(wal_dir)?;

    // The new checkpoint is durable; older ones are now dead weight.
    for entry in fs::read_dir(wal_dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(other_seq) = name.to_str().and_then(parse_checkpoint_name) else {
            // Also clear abandoned tmp dirs from crashed checkpoints.
            if name
                .to_str()
                .is_some_and(|n| n.starts_with("checkpoint-") && n.ends_with(".tmp"))
                && entry.path() != tmp_dir
            {
                let _ = fs::remove_dir_all(entry.path());
            }
            continue;
        };
        if other_seq < seq {
            fs::remove_dir_all(entry.path())?;
        }
    }
    fsync_dir(wal_dir)?;
    Ok(final_dir)
}

fn load_one(dir: &Path) -> io::Result<Checkpoint> {
    let corrupt = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
    let meta = fs::read_to_string(dir.join("META"))?;
    let mut lines = meta.lines();
    if lines.next() != Some(META_HEADER) {
        return Err(corrupt("unknown META header"));
    }
    let mut seq = None;
    let mut rdf_crc = None;
    let mut compact_present = false;
    for line in lines {
        if let Some(v) = line.strip_prefix("seq=") {
            seq = v.parse::<u64>().ok();
        } else if let Some(v) = line.strip_prefix("rdf_crc=") {
            rdf_crc = u32::from_str_radix(v, 16).ok();
        } else if line == "compact=present" {
            compact_present = true;
        }
    }
    let seq = seq.ok_or_else(|| corrupt("META missing seq"))?;
    let rdf_crc = rdf_crc.ok_or_else(|| corrupt("META missing rdf_crc"))?;

    let mut rdf = String::new();
    File::open(dir.join("rdf.nt"))?.read_to_string(&mut rdf)?;
    if crc32(rdf.as_bytes()) != rdf_crc {
        return Err(corrupt("rdf.nt checksum mismatch"));
    }

    // compact.bin validates itself; failure only costs the shortcut.
    let compact = if compact_present {
        File::open(dir.join("compact.bin"))
            .and_then(|f| CompactGraph::read_from(BufReader::new(f)))
            .ok()
    } else {
        None
    };
    Ok(Checkpoint { seq, rdf, compact })
}

/// Load the newest valid checkpoint under `wal_dir`, or `None` if no
/// complete checkpoint exists. An invalid newer checkpoint is skipped in
/// favour of the next older one (corruption in `compact.bin` alone does
/// not disqualify a checkpoint — see [`Checkpoint::compact`]).
pub fn load_latest(wal_dir: &Path) -> io::Result<Option<Checkpoint>> {
    if !wal_dir.exists() {
        return Ok(None);
    }
    let mut seqs: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(wal_dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_checkpoint_name) {
            seqs.push((seq, entry.path()));
        }
    }
    seqs.sort_unstable_by_key(|&(seq, _)| std::cmp::Reverse(seq));
    for (_, dir) in seqs {
        match load_one(&dir) {
            Ok(cp) => return Ok(Some(cp)),
            Err(_) => continue,
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use s3pg_pg::read::PgRead;
    use s3pg_pg::value::Value;
    use s3pg_pg::PropertyGraph;

    fn tmpdir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("s3pg-ckpt-test-{name}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_compact() -> CompactGraph {
        let mut pg = PropertyGraph::new();
        let a = pg.add_node(["Person"]);
        pg.set_prop(a, "name", Value::String("Alice".into()));
        let b = pg.add_node(["Person"]);
        pg.add_edge(a, b, "knows");
        pg.freeze()
    }

    const RDF: &str = "<http://ex/a> <http://ex/knows> <http://ex/b> .\n";

    #[test]
    fn checkpoint_round_trip() {
        let dir = tmpdir("roundtrip");
        write_checkpoint(&dir, 42, RDF, Some(&sample_compact())).unwrap();
        let cp = load_latest(&dir).unwrap().unwrap();
        assert_eq!(cp.seq, 42);
        assert_eq!(cp.rdf, RDF);
        let cg = cp.compact.unwrap();
        assert_eq!(cg.node_count(), 2);
        assert_eq!(cg.edge_count(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newer_checkpoint_supersedes_and_prunes_older() {
        let dir = tmpdir("supersede");
        write_checkpoint(&dir, 10, RDF, None).unwrap();
        write_checkpoint(&dir, 20, RDF, None).unwrap();
        let cp = load_latest(&dir).unwrap().unwrap();
        assert_eq!(cp.seq, 20);
        let dirs: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.unwrap().file_name().to_str().map(String::from))
            .filter(|n| n.starts_with("checkpoint-"))
            .collect();
        assert_eq!(dirs.len(), 1, "older checkpoint not pruned: {dirs:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_rdf_falls_back_to_older_checkpoint() {
        let dir = tmpdir("fallback");
        write_checkpoint(&dir, 10, RDF, None).unwrap();
        let newer = write_checkpoint(&dir, 20, RDF, None).unwrap();
        // write_checkpoint(20) pruned checkpoint 10; recreate an older one
        // to fall back to, then damage the newer.
        write_checkpoint(&dir, 15, RDF, None).unwrap();
        fs::write(newer.join("rdf.nt"), "<corrupted").unwrap();
        let cp = load_latest(&dir).unwrap().unwrap();
        assert_eq!(cp.seq, 15);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_compact_bin_only_loses_the_shortcut() {
        let dir = tmpdir("compact-damage");
        let path = write_checkpoint(&dir, 7, RDF, Some(&sample_compact())).unwrap();
        let mut bytes = fs::read(path.join("compact.bin")).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0xFF;
        fs::write(path.join("compact.bin"), &bytes).unwrap();
        let cp = load_latest(&dir).unwrap().unwrap();
        assert_eq!(cp.seq, 7);
        assert_eq!(cp.rdf, RDF);
        assert!(cp.compact.is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn unfinished_tmp_dir_is_ignored() {
        let dir = tmpdir("tmp-ignored");
        fs::create_dir_all(dir.join("checkpoint-0000000000000063.tmp")).unwrap();
        assert!(load_latest(&dir).unwrap().is_none());
        write_checkpoint(&dir, 5, RDF, None).unwrap();
        assert_eq!(load_latest(&dir).unwrap().unwrap().seq, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_missing_dir_is_none() {
        let dir = tmpdir("empty");
        assert!(load_latest(&dir).unwrap().is_none());
        assert!(load_latest(&dir.join("never-created")).unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }
}
