//! Binary serialization of [`CompactGraph`] for checkpoint files.
//!
//! The durability layer periodically persists the server's frozen
//! snapshot so a restart can skip re-freezing the whole graph. The format
//! is deliberately dumb: a magic tag, every columnar array length-prefixed
//! in declaration order, little-endian integers throughout, and a trailing
//! CRC-32 over everything that precedes it. Derived probe structures (the
//! dictionaries' hash slots and the equality index's slot array) are *not*
//! persisted — they are deterministic functions of the persisted arrays
//! and are rebuilt on load, which keeps the file smaller and removes a
//! whole class of corrupt-probe-table failure modes.
//!
//! The codec is versioned by its magic (`S3PGCPT1`); an incompatible
//! layout bumps the tag, and loaders treat an unknown tag as corruption
//! so a checkpoint from a different build is rejected rather than
//! misread. Checkpoint loading falls back to re-freezing from the RDF
//! source in that case, so rejection is safe, merely slower.

use std::io::{self, Read, Write};

use s3pg_rdf::crc32::Crc32;
use s3pg_rdf::Sym;

use crate::compact::{build_eq_slots, CValue, CompactGraph, EqEntry, FrozenDict};
use crate::graph::{EdgeId, NodeId};
use s3pg_rdf::fxhash::FxHashMap;

/// Magic + version tag opening every snapshot file.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"S3PGCPT1";

fn corrupt(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Bytes gathered before the checksum and the sink see them. The image is
/// written field by field, four bytes at a time; a word-at-a-time CRC only
/// pays off over runs much longer than its word.
const BLOCK: usize = 64 << 10;

/// A writer that CRCs everything passing through it, a block at a time.
struct CrcWriter<W: Write> {
    inner: W,
    crc: Crc32,
    block: Vec<u8>,
}

impl<W: Write> CrcWriter<W> {
    fn new(inner: W) -> Self {
        CrcWriter {
            inner,
            crc: Crc32::new(),
            block: Vec::with_capacity(BLOCK),
        }
    }

    #[inline]
    fn put(&mut self, bytes: &[u8]) -> io::Result<()> {
        if self.block.len() + bytes.len() > BLOCK {
            return self.put_across(bytes);
        }
        self.block.extend_from_slice(bytes);
        Ok(())
    }

    /// `put` for bytes that do not fit the block's remaining room.
    fn put_across(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.drain()?;
        if bytes.len() >= BLOCK {
            self.crc.update(bytes);
            return self.inner.write_all(bytes);
        }
        self.block.extend_from_slice(bytes);
        Ok(())
    }

    /// Checksum and hand on what the block holds.
    fn drain(&mut self) -> io::Result<()> {
        self.crc.update(&self.block);
        self.inner.write_all(&self.block)?;
        self.block.clear();
        Ok(())
    }

    /// Seal the image: everything put so far, then its CRC-32.
    fn finish(mut self) -> io::Result<()> {
        self.drain()?;
        let crc = self.crc.finish();
        self.inner.write_all(&crc.to_le_bytes())?;
        self.inner.flush()
    }

    fn put_u32(&mut self, v: u32) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn put_u64(&mut self, v: u64) -> io::Result<()> {
        self.put(&v.to_le_bytes())
    }

    fn put_len(&mut self, len: usize) -> io::Result<()> {
        self.put_u32(u32::try_from(len).map_err(|_| corrupt("array too long for snapshot"))?)
    }

    fn put_sym(&mut self, s: Sym) -> io::Result<()> {
        self.put_u32(s.index() as u32)
    }

    fn put_u32s(&mut self, vs: &[u32]) -> io::Result<()> {
        self.put_len(vs.len())?;
        for &v in vs {
            self.put_u32(v)?;
        }
        Ok(())
    }

    fn put_value(&mut self, v: &CValue) -> io::Result<()> {
        match v {
            CValue::Str(s) => {
                self.put(&[0])?;
                self.put_sym(*s)
            }
            CValue::Int(i) => {
                self.put(&[1])?;
                self.put(&i.to_le_bytes())
            }
            CValue::Float(bits) => {
                self.put(&[2])?;
                self.put_u64(*bits)
            }
            CValue::Bool(b) => self.put(&[3, *b as u8]),
            CValue::Date(s) => {
                self.put(&[4])?;
                self.put_sym(*s)
            }
            CValue::DateTime(s) => {
                self.put(&[5])?;
                self.put_sym(*s)
            }
            CValue::Year(y) => {
                self.put(&[6])?;
                self.put(&y.to_le_bytes())
            }
            CValue::List(items) => {
                self.put(&[7])?;
                self.put_len(items.len())?;
                for item in items.iter() {
                    self.put_value(item)?;
                }
                Ok(())
            }
        }
    }

    fn put_props(&mut self, props: &[(Sym, CValue)]) -> io::Result<()> {
        self.put_len(props.len())?;
        for (k, v) in props {
            self.put_sym(*k)?;
            self.put_value(v)?;
        }
        Ok(())
    }

    fn put_dict(&mut self, dict: &FrozenDict) -> io::Result<()> {
        self.put_len(dict.strings.len())?;
        for s in dict.strings.iter() {
            self.put_len(s.len())?;
            self.put(s.as_bytes())?;
        }
        Ok(())
    }
}

/// A cursor over an in-memory snapshot image, bounds-checked throughout.
struct Cursor<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        let bytes = self
            .buf
            .get(self.at..self.at + n)
            .ok_or_else(|| corrupt("snapshot ends mid-field"))?;
        self.at += n;
        Ok(bytes)
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn len(&mut self) -> io::Result<usize> {
        let n = self.u32()? as usize;
        // An array can't hold more elements than bytes remaining — reject
        // absurd lengths before attempting the allocation.
        if n > self.buf.len() - self.at {
            return Err(corrupt("snapshot array length exceeds file size"));
        }
        Ok(n)
    }

    fn sym(&mut self) -> io::Result<Sym> {
        Ok(Sym::from_index(self.u32()? as usize))
    }

    fn u32s(&mut self) -> io::Result<Vec<u32>> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(self.u32()?);
        }
        Ok(out)
    }

    fn value(&mut self) -> io::Result<CValue> {
        Ok(match self.take(1)?[0] {
            0 => CValue::Str(self.sym()?),
            1 => CValue::Int(i64::from_le_bytes(self.take(8)?.try_into().unwrap())),
            2 => CValue::Float(self.u64()?),
            3 => CValue::Bool(self.take(1)?[0] != 0),
            4 => CValue::Date(self.sym()?),
            5 => CValue::DateTime(self.sym()?),
            6 => CValue::Year(i32::from_le_bytes(self.take(4)?.try_into().unwrap())),
            7 => {
                let n = self.len()?;
                let mut items = Vec::with_capacity(n);
                for _ in 0..n {
                    items.push(self.value()?);
                }
                CValue::List(items.into_boxed_slice())
            }
            tag => return Err(corrupt(format!("unknown value tag {tag}"))),
        })
    }

    fn props(&mut self) -> io::Result<Vec<(Sym, CValue)>> {
        let n = self.len()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            let k = self.sym()?;
            let v = self.value()?;
            out.push((k, v));
        }
        Ok(out)
    }

    fn dict(&mut self) -> io::Result<FrozenDict> {
        let n = self.len()?;
        let mut strings = Vec::with_capacity(n);
        for _ in 0..n {
            let len = self.len()?;
            let s = std::str::from_utf8(self.take(len)?)
                .map_err(|_| corrupt("dictionary string is not UTF-8"))?;
            strings.push(Box::from(s));
        }
        Ok(FrozenDict::from_strings(strings))
    }
}

impl CompactGraph {
    /// Serialize the snapshot into `out`. The image is self-validating:
    /// [`CompactGraph::read_from`] verifies a trailing CRC-32 before
    /// trusting any field.
    pub fn write_to<W: Write>(&self, out: W) -> io::Result<()> {
        let mut w = CrcWriter::new(out);
        w.put(SNAPSHOT_MAGIC)?;
        w.put_dict(&self.keys)?;
        w.put_dict(&self.dict)?;
        w.put_u64(self.dict_encodes)?;

        w.put_u32s(&self.node_label_offsets)?;
        w.put_len(self.node_labels.len())?;
        for &l in &self.node_labels {
            w.put_sym(l)?;
        }
        w.put_u32s(&self.node_prop_offsets)?;
        w.put_props(&self.node_props)?;

        w.put_len(self.edge_endpoints.len())?;
        for &(s, d) in &self.edge_endpoints {
            w.put_u32(s.0)?;
            w.put_u32(d.0)?;
        }
        w.put_u32s(&self.edge_label_offsets)?;
        w.put_len(self.edge_labels.len())?;
        for &l in &self.edge_labels {
            w.put_sym(l)?;
        }
        w.put_u32s(&self.edge_prop_offsets)?;
        w.put_props(&self.edge_props)?;

        w.put_u32s(&self.out_offsets)?;
        w.put_len(self.out_csr.len())?;
        for &e in &self.out_csr {
            w.put_u32(e.0)?;
        }
        w.put_u32s(&self.in_offsets)?;
        w.put_len(self.in_csr.len())?;
        for &e in &self.in_csr {
            w.put_u32(e.0)?;
        }

        // The range map is a hash map: persist it in symbol order. `freeze`
        // lays the label postings out in that same order and the equality
        // postings in key order, so nothing in the image of a freshly
        // frozen graph depends on hash-map iteration order. (Images from
        // before freeze did — ranges in build order — load all the same:
        // a range is a range.)
        let mut by_label: Vec<(Sym, (u32, u32))> =
            self.by_label.iter().map(|(&k, &v)| (k, v)).collect();
        by_label.sort_unstable_by_key(|&(k, _)| k.index());
        w.put_len(by_label.len())?;
        for (label, (s, t)) in by_label {
            w.put_sym(label)?;
            w.put_u32(s)?;
            w.put_u32(t)?;
        }
        w.put_len(self.by_label_postings.len())?;
        for &n in &self.by_label_postings {
            w.put_u32(n.0)?;
        }

        w.put_len(self.eq_index.len())?;
        for ((l, k, v), (s, t)) in self.eq_index.iter() {
            w.put_sym(*l)?;
            w.put_sym(*k)?;
            w.put_value(v)?;
            w.put_u32(*s)?;
            w.put_u32(*t)?;
        }
        w.put_len(self.eq_postings.len())?;
        for &n in &self.eq_postings {
            w.put_u32(n.0)?;
        }

        w.finish()
    }

    /// Deserialize a snapshot previously written by
    /// [`CompactGraph::write_to`]. Reads the source to the end, verifies
    /// the trailing CRC-32 and the magic tag, and rebuilds the derived
    /// probe structures. Any mismatch is reported as
    /// [`io::ErrorKind::InvalidData`].
    pub fn read_from<R: Read>(mut source: R) -> io::Result<CompactGraph> {
        let mut buf = Vec::new();
        source.read_to_end(&mut buf)?;
        if buf.len() < SNAPSHOT_MAGIC.len() + 4 {
            return Err(corrupt("snapshot shorter than its framing"));
        }
        let (body, tail) = buf.split_at(buf.len() - 4);
        let stored_crc = u32::from_le_bytes(tail.try_into().unwrap());
        let mut crc = Crc32::new();
        crc.update(body);
        if crc.finish() != stored_crc {
            return Err(corrupt("snapshot checksum mismatch"));
        }
        let mut c = Cursor { buf: body, at: 0 };
        if c.take(SNAPSHOT_MAGIC.len())? != SNAPSHOT_MAGIC {
            return Err(corrupt("not a compact-snapshot file (bad magic)"));
        }

        let keys = c.dict()?;
        let dict = c.dict()?;
        let dict_encodes = c.u64()?;

        let node_label_offsets = c.u32s()?;
        let n_labels = c.len()?;
        let mut node_labels = Vec::with_capacity(n_labels);
        for _ in 0..n_labels {
            node_labels.push(c.sym()?);
        }
        let node_prop_offsets = c.u32s()?;
        let node_props = c.props()?;

        let n_edges = c.len()?;
        let mut edge_endpoints = Vec::with_capacity(n_edges);
        for _ in 0..n_edges {
            let s = NodeId(c.u32()?);
            let d = NodeId(c.u32()?);
            edge_endpoints.push((s, d));
        }
        let edge_label_offsets = c.u32s()?;
        let n_elabels = c.len()?;
        let mut edge_labels = Vec::with_capacity(n_elabels);
        for _ in 0..n_elabels {
            edge_labels.push(c.sym()?);
        }
        let edge_prop_offsets = c.u32s()?;
        let edge_props = c.props()?;

        let out_offsets = c.u32s()?;
        let out_csr: Vec<EdgeId> = c.u32s()?.into_iter().map(EdgeId).collect();
        let in_offsets = c.u32s()?;
        let in_csr: Vec<EdgeId> = c.u32s()?.into_iter().map(EdgeId).collect();

        let n_by_label = c.len()?;
        let mut by_label = FxHashMap::default();
        for _ in 0..n_by_label {
            let label = c.sym()?;
            let s = c.u32()?;
            let t = c.u32()?;
            by_label.insert(label, (s, t));
        }
        let by_label_postings: Vec<NodeId> = c.u32s()?.into_iter().map(NodeId).collect();

        let n_eq = c.len()?;
        let mut eq_index: Vec<EqEntry> = Vec::with_capacity(n_eq);
        for _ in 0..n_eq {
            let l = c.sym()?;
            let k = c.sym()?;
            let v = c.value()?;
            let s = c.u32()?;
            let t = c.u32()?;
            eq_index.push(((l, k, v), (s, t)));
        }
        let eq_postings: Vec<NodeId> = c.u32s()?.into_iter().map(NodeId).collect();
        if c.at != body.len() {
            return Err(corrupt("trailing bytes after snapshot payload"));
        }

        // Structural sanity: offset arrays must be well-formed before the
        // read path indexes through them unchecked.
        let check_offsets = |name: &str, offsets: &[u32], backing: usize| -> io::Result<()> {
            if offsets.first() != Some(&0)
                || offsets.windows(2).any(|w| w[0] > w[1])
                || offsets.last().copied().unwrap_or(0) as usize != backing
            {
                return Err(corrupt(format!("malformed {name} offsets")));
            }
            Ok(())
        };
        let n = node_label_offsets.len().saturating_sub(1);
        check_offsets("node label", &node_label_offsets, node_labels.len())?;
        check_offsets("node prop", &node_prop_offsets, node_props.len())?;
        check_offsets("edge label", &edge_label_offsets, edge_labels.len())?;
        check_offsets("edge prop", &edge_prop_offsets, edge_props.len())?;
        check_offsets("out adjacency", &out_offsets, out_csr.len())?;
        check_offsets("in adjacency", &in_offsets, in_csr.len())?;
        if node_prop_offsets.len() != n + 1
            || out_offsets.len() != n + 1
            || in_offsets.len() != n + 1
            || edge_label_offsets.len() != n_edges + 1
            || edge_prop_offsets.len() != n_edges + 1
        {
            return Err(corrupt("offset array lengths disagree with counts"));
        }

        let eq_slots = build_eq_slots(&eq_index);
        Ok(CompactGraph {
            keys,
            dict,
            dict_encodes,
            node_label_offsets,
            node_labels,
            node_prop_offsets,
            node_props,
            edge_endpoints,
            edge_label_offsets,
            edge_labels,
            edge_prop_offsets,
            edge_props,
            out_offsets,
            out_csr,
            in_offsets,
            in_csr,
            by_label,
            by_label_postings,
            eq_index: eq_index.into_boxed_slice(),
            eq_slots,
            eq_postings,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{PropertyGraph, IRI_KEY};
    use crate::read::PgRead;
    use crate::value::Value;

    fn sample() -> PropertyGraph {
        let mut pg = PropertyGraph::new();
        let bob = pg.add_node(["Person", "Student"]);
        pg.set_prop(bob, IRI_KEY, Value::String("http://ex/bob".into()));
        pg.set_prop(bob, "regNo", Value::String("Bs12".into()));
        pg.set_prop(bob, "age", Value::Int(24));
        pg.set_prop(bob, "gpa", Value::Float(3.5));
        pg.set_prop(bob, "active", Value::Bool(true));
        pg.set_prop(bob, "born", Value::Date("2001-05-17".into()));
        pg.set_prop(bob, "seen", Value::DateTime("2026-01-01T00:00:00".into()));
        let alice = pg.add_node(["Person", "Professor"]);
        pg.set_prop(alice, IRI_KEY, Value::String("http://ex/alice".into()));
        pg.set_prop(alice, "name", Value::String("Alice".into()));
        pg.push_prop(bob, "nick", Value::String("bobby".into()));
        pg.push_prop(bob, "nick", Value::String("rob".into()));
        let e = pg.add_edge(bob, alice, "advisedBy");
        pg.set_edge_prop(e, "since", Value::Year(2020));
        pg
    }

    fn round_trip(cg: &CompactGraph) -> CompactGraph {
        let mut image = Vec::new();
        cg.write_to(&mut image).unwrap();
        CompactGraph::read_from(&image[..]).unwrap()
    }

    #[test]
    fn snapshot_round_trips_every_read() {
        let pg = sample();
        let cg = pg.freeze();
        let back = round_trip(&cg);
        assert_eq!(PgRead::node_count(&back), PgRead::node_count(&cg));
        assert_eq!(PgRead::edge_count(&back), PgRead::edge_count(&cg));
        assert_eq!(back.dict_encodes(), cg.dict_encodes());
        assert_eq!(back.dict_len(), cg.dict_len());
        for id in cg.all_node_ids() {
            for key in [
                IRI_KEY, "regNo", "age", "gpa", "active", "born", "seen", "name", "nick",
            ] {
                assert_eq!(back.prop_value(id, key), cg.prop_value(id, key), "{key}");
            }
            for label in ["Person", "Student", "Professor"] {
                assert_eq!(back.has_label(id, label), cg.has_label(id, label));
            }
            assert_eq!(back.out_adjacency(id), cg.out_adjacency(id));
            assert_eq!(back.in_adjacency(id), cg.in_adjacency(id));
        }
        assert_eq!(
            PgRead::nodes_with_label(&back, "Person"),
            PgRead::nodes_with_label(&cg, "Person")
        );
        assert_eq!(
            PgRead::nodes_with_label_prop(&back, "Person", "regNo", &Value::String("Bs12".into())),
            PgRead::nodes_with_label_prop(&cg, "Person", "regNo", &Value::String("Bs12".into())),
        );
        let e = cg.out_adjacency(PgRead::nodes_with_label(&cg, "Student")[0])[0];
        assert_eq!(back.edge_prop_value(e, "since"), Some(Value::Year(2020)));
        assert!(back.edge_has_any_label(e, &["advisedBy".to_string()]));
    }

    #[test]
    fn identical_graphs_serialize_identically() {
        let cg = sample().freeze();
        let mut a = Vec::new();
        let mut b = Vec::new();
        cg.write_to(&mut a).unwrap();
        round_trip(&cg).write_to(&mut b).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn image_with_unordered_eq_postings_loads_and_answers_identically() {
        // Freeze lays each key's postings out in key order. Images written
        // before it did (same magic, same format) have the ranges in the
        // hash-iteration order of their build; here they are reversed.
        // Such an image must keep loading and answering the same.
        let mut pg = sample();
        let carol = pg.add_node(["Person"]);
        pg.set_prop(carol, "name", Value::String("Alice".into()));
        let canonical = pg.freeze();
        assert!(
            canonical
                .eq_index
                .windows(2)
                .all(|w| w[0].0 < w[1].0 && w[0].1 .1 == w[1].1 .0),
            "freeze must lay postings out in key order"
        );

        let mut older = canonical.clone();
        older.eq_postings.clear();
        let mut eq_index = canonical.eq_index.to_vec();
        for (i, (_, range)) in eq_index.iter_mut().enumerate().rev() {
            let (s, t) = canonical.eq_index[i].1;
            let start = older.eq_postings.len() as u32;
            older
                .eq_postings
                .extend_from_slice(&canonical.eq_postings[s as usize..t as usize]);
            *range = (start, older.eq_postings.len() as u32);
        }
        older.eq_index = eq_index.into_boxed_slice();

        let mut image = Vec::new();
        older.write_to(&mut image).unwrap();
        let mut canonical_image = Vec::new();
        canonical.write_to(&mut canonical_image).unwrap();
        assert_ne!(image, canonical_image, "the permutation changed nothing");

        let back = CompactGraph::read_from(&image[..]).unwrap();
        for (label, key, value) in [
            ("Person", "name", Value::String("Alice".into())),
            ("Professor", "name", Value::String("Alice".into())),
            ("Person", "regNo", Value::String("Bs12".into())),
            ("Student", "age", Value::Int(24)),
            ("Person", "gpa", Value::Float(3.5)),
            ("Person", "born", Value::Date("2001-05-17".into())),
            ("Person", "name", Value::String("Nobody".into())),
        ] {
            assert_eq!(
                PgRead::nodes_with_label_prop(&back, label, key, &value),
                PgRead::nodes_with_label_prop(&canonical, label, key, &value),
                "probe ({label}, {key}, {value:?})"
            );
        }
        assert_eq!(
            PgRead::nodes_with_label_prop(&back, "Person", "name", &Value::String("Alice".into()))
                .len(),
            2
        );
    }

    #[test]
    fn empty_graph_round_trips() {
        let cg = PropertyGraph::new().freeze();
        let back = round_trip(&cg);
        assert_eq!(PgRead::node_count(&back), 0);
        assert_eq!(PgRead::edge_count(&back), 0);
    }

    #[test]
    fn bit_flip_is_rejected() {
        let cg = sample().freeze();
        let mut image = Vec::new();
        cg.write_to(&mut image).unwrap();
        for at in [10, image.len() / 2, image.len() - 6] {
            let mut bad = image.clone();
            bad[at] ^= 0x10;
            assert!(CompactGraph::read_from(&bad[..]).is_err(), "flip at {at}");
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let cg = sample().freeze();
        let mut image = Vec::new();
        cg.write_to(&mut image).unwrap();
        image.truncate(image.len() - 9);
        assert!(CompactGraph::read_from(&image[..]).is_err());
    }

    #[test]
    fn wrong_magic_is_rejected() {
        let cg = sample().freeze();
        let mut image = Vec::new();
        cg.write_to(&mut image).unwrap();
        image[0] = b'X';
        assert!(CompactGraph::read_from(&image[..]).is_err());
    }
}
