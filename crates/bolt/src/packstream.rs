//! PackStream v2: the self-describing binary serialization under Bolt.
//!
//! Values are encoded as a marker byte (which carries the type and, for
//! small values, the size) followed by payload bytes; big-endian
//! throughout. Maps are kept as ordered `Vec<(String, Value)>` pairs so
//! encoding is deterministic and round-trips preserve insertion order.
//!
//! Decoding is defensive: every claimed length is validated against the
//! remaining buffer *before* allocation, nesting depth is capped, and
//! unknown markers or structure tags produce [`Error::Protocol`] — a
//! hostile peer can make a session fail, never make it panic or balloon.

use crate::{Error, MAX_DEPTH};

/// A PackStream value: the scalar/collection types plus the two graph
/// structures the Bolt subset returns (`Node`, `Relationship`).
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    String(String),
    List(Vec<Value>),
    Map(Vec<(String, Value)>),
    Node(Node),
    Relationship(Relationship),
}

/// A graph node (structure tag `0x4E`), Bolt 5.x shape: numeric id,
/// labels, properties, and the string element id.
#[derive(Debug, Clone, PartialEq)]
pub struct Node {
    pub id: i64,
    pub labels: Vec<String>,
    pub properties: Vec<(String, Value)>,
    pub element_id: String,
}

/// A graph relationship (structure tag `0x52`), Bolt 5.x shape.
#[derive(Debug, Clone, PartialEq)]
pub struct Relationship {
    pub id: i64,
    pub start: i64,
    pub end: i64,
    pub typ: String,
    pub properties: Vec<(String, Value)>,
    pub element_id: String,
    pub start_element_id: String,
    pub end_element_id: String,
}

impl Value {
    /// Convenience: look up a key in a `Map` value.
    pub fn get(&self, key: &str) -> Option<&Value> {
        match self {
            Value::Map(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Convenience: the string payload, if this is a `String`.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Convenience: the integer payload, if this is an `Int`.
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(n) => Some(*n),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------- markers

const M_NULL: u8 = 0xC0;
const M_FLOAT: u8 = 0xC1;
const M_FALSE: u8 = 0xC2;
const M_TRUE: u8 = 0xC3;
const M_INT8: u8 = 0xC8;
const M_INT16: u8 = 0xC9;
const M_INT32: u8 = 0xCA;
const M_INT64: u8 = 0xCB;
const M_BYTES8: u8 = 0xCC;
const M_BYTES16: u8 = 0xCD;
const M_BYTES32: u8 = 0xCE;
const M_STRING8: u8 = 0xD0;
const M_STRING16: u8 = 0xD1;
const M_STRING32: u8 = 0xD2;
const M_LIST8: u8 = 0xD4;
const M_LIST16: u8 = 0xD5;
const M_LIST32: u8 = 0xD6;
const M_MAP8: u8 = 0xD8;
const M_MAP16: u8 = 0xD9;
const M_MAP32: u8 = 0xDA;

/// Structure tag for a graph node.
pub const TAG_NODE: u8 = 0x4E;
/// Structure tag for a graph relationship.
pub const TAG_RELATIONSHIP: u8 = 0x52;

// ---------------------------------------------------------------- encode

/// Append the encoding of `value` to `out`.
pub fn encode(value: &Value, out: &mut Vec<u8>) {
    match value {
        Value::Null => out.push(M_NULL),
        Value::Bool(true) => out.push(M_TRUE),
        Value::Bool(false) => out.push(M_FALSE),
        Value::Int(n) => encode_int(*n, out),
        Value::Float(f) => {
            out.push(M_FLOAT);
            out.extend_from_slice(&f.to_be_bytes());
        }
        Value::String(s) => encode_string(s, out),
        Value::List(items) => {
            list_header(items.len(), out);
            for item in items {
                encode(item, out);
            }
        }
        Value::Map(pairs) => encode_map(pairs, out),
        Value::Node(node) => {
            struct_header(4, TAG_NODE, out);
            encode_int(node.id, out);
            list_header(node.labels.len(), out);
            for label in &node.labels {
                encode_string(label, out);
            }
            encode_map(&node.properties, out);
            encode_string(&node.element_id, out);
        }
        Value::Relationship(rel) => {
            struct_header(8, TAG_RELATIONSHIP, out);
            encode_int(rel.id, out);
            encode_int(rel.start, out);
            encode_int(rel.end, out);
            encode_string(&rel.typ, out);
            encode_map(&rel.properties, out);
            encode_string(&rel.element_id, out);
            encode_string(&rel.start_element_id, out);
            encode_string(&rel.end_element_id, out);
        }
    }
}

/// Append the header of a list of `len` items; the items follow it.
pub(crate) fn list_header(len: usize, out: &mut Vec<u8>) {
    size_header(len, 0x90, M_LIST8, out);
}

/// Append a structure header (`0xB0 | size`, then the tag byte).
pub fn struct_header(size: usize, tag: u8, out: &mut Vec<u8>) {
    debug_assert!(size <= 0x0F, "tiny struct only");
    out.push(0xB0 | size as u8);
    out.push(tag);
}

fn encode_int(n: i64, out: &mut Vec<u8>) {
    if (-16..=127).contains(&n) {
        out.push(n as u8);
    } else if (-128..=127).contains(&n) {
        out.push(M_INT8);
        out.push(n as u8);
    } else if (i64::from(i16::MIN)..=i64::from(i16::MAX)).contains(&n) {
        out.push(M_INT16);
        out.extend_from_slice(&(n as i16).to_be_bytes());
    } else if (i64::from(i32::MIN)..=i64::from(i32::MAX)).contains(&n) {
        out.push(M_INT32);
        out.extend_from_slice(&(n as i32).to_be_bytes());
    } else {
        out.push(M_INT64);
        out.extend_from_slice(&n.to_be_bytes());
    }
}

fn encode_string(s: &str, out: &mut Vec<u8>) {
    size_header(s.len(), 0x80, M_STRING8, out);
    out.extend_from_slice(s.as_bytes());
}

fn encode_map(pairs: &[(String, Value)], out: &mut Vec<u8>) {
    size_header(pairs.len(), 0xA0, M_MAP8, out);
    for (key, value) in pairs {
        encode_string(key, out);
        encode(value, out);
    }
}

/// The shared tiny/8/16/32 size-header shape used by strings, lists, and
/// maps: the three wide markers are always consecutive (`base8`,
/// `base8+1`, `base8+2`).
fn size_header(len: usize, tiny: u8, base8: u8, out: &mut Vec<u8>) {
    if len < 0x10 {
        out.push(tiny | len as u8);
    } else if len <= 0xFF {
        out.push(base8);
        out.push(len as u8);
    } else if len <= 0xFFFF {
        out.push(base8 + 1);
        out.extend_from_slice(&(len as u16).to_be_bytes());
    } else {
        out.push(base8 + 2);
        out.extend_from_slice(&(len as u32).to_be_bytes());
    }
}

// ---------------------------------------------------------------- decode

/// A bounds- and depth-checked PackStream reader over one message buffer.
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Decode one value (recursively, depth-capped).
    pub fn value(&mut self) -> Result<Value, Error> {
        self.value_at_depth(0)
    }

    /// Read a structure header, returning `(field_count, tag)`.
    pub fn struct_header(&mut self) -> Result<(usize, u8), Error> {
        let marker = self.byte()?;
        if (0xB0..=0xBF).contains(&marker) {
            let tag = self.byte()?;
            Ok(((marker & 0x0F) as usize, tag))
        } else {
            Err(Error::protocol(format!(
                "expected structure, found marker 0x{marker:02X}"
            )))
        }
    }

    /// Decode a string value or fail.
    pub fn string(&mut self) -> Result<String, Error> {
        match self.value_at_depth(MAX_DEPTH - 1)? {
            Value::String(s) => Ok(s),
            other => Err(Error::protocol(format!(
                "expected string, found {}",
                kind(&other)
            ))),
        }
    }

    /// Decode a map value or fail.
    pub fn map(&mut self) -> Result<Vec<(String, Value)>, Error> {
        match self.value_at_depth(0)? {
            Value::Map(pairs) => Ok(pairs),
            other => Err(Error::protocol(format!(
                "expected map, found {}",
                kind(&other)
            ))),
        }
    }

    fn value_at_depth(&mut self, depth: usize) -> Result<Value, Error> {
        if depth >= MAX_DEPTH {
            return Err(Error::protocol(format!(
                "value nesting exceeds {MAX_DEPTH} levels"
            )));
        }
        let marker = self.byte()?;
        match marker {
            M_NULL => Ok(Value::Null),
            M_TRUE => Ok(Value::Bool(true)),
            M_FALSE => Ok(Value::Bool(false)),
            // Tiny ints: the marker byte IS the two's-complement value.
            0x00..=0x7F => Ok(Value::Int(i64::from(marker))),
            0xF0..=0xFF => Ok(Value::Int(i64::from(marker as i8))),
            M_INT8 => Ok(Value::Int(i64::from(self.byte()? as i8))),
            M_INT16 => Ok(Value::Int(i64::from(i16::from_be_bytes(
                self.array::<2>()?,
            )))),
            M_INT32 => Ok(Value::Int(i64::from(i32::from_be_bytes(
                self.array::<4>()?,
            )))),
            M_INT64 => Ok(Value::Int(i64::from_be_bytes(self.array::<8>()?))),
            M_FLOAT => Ok(Value::Float(f64::from_be_bytes(self.array::<8>()?))),
            0x80..=0x8F => self.string_body((marker & 0x0F) as usize),
            M_STRING8 => {
                let len = self.byte()? as usize;
                self.string_body(len)
            }
            M_STRING16 => {
                let len = u16::from_be_bytes(self.array::<2>()?) as usize;
                self.string_body(len)
            }
            M_STRING32 => {
                let len = u32::from_be_bytes(self.array::<4>()?) as usize;
                self.string_body(len)
            }
            0x90..=0x9F => self.list_body((marker & 0x0F) as usize, depth),
            M_LIST8 => {
                let len = self.byte()? as usize;
                self.list_body(len, depth)
            }
            M_LIST16 => {
                let len = u16::from_be_bytes(self.array::<2>()?) as usize;
                self.list_body(len, depth)
            }
            M_LIST32 => {
                let len = u32::from_be_bytes(self.array::<4>()?) as usize;
                self.list_body(len, depth)
            }
            0xA0..=0xAF => self.map_body((marker & 0x0F) as usize, depth),
            M_MAP8 => {
                let len = self.byte()? as usize;
                self.map_body(len, depth)
            }
            M_MAP16 => {
                let len = u16::from_be_bytes(self.array::<2>()?) as usize;
                self.map_body(len, depth)
            }
            M_MAP32 => {
                let len = u32::from_be_bytes(self.array::<4>()?) as usize;
                self.map_body(len, depth)
            }
            0xB0..=0xBF => {
                let size = (marker & 0x0F) as usize;
                let tag = self.byte()?;
                self.structure_body(size, tag, depth)
            }
            M_BYTES8 | M_BYTES16 | M_BYTES32 => {
                Err(Error::protocol("byte arrays are not supported"))
            }
            other => Err(Error::protocol(format!(
                "unrecognized PackStream marker 0x{other:02X}"
            ))),
        }
    }

    fn structure_body(&mut self, size: usize, tag: u8, depth: usize) -> Result<Value, Error> {
        match tag {
            TAG_NODE => {
                if size != 4 {
                    return Err(Error::protocol(format!(
                        "Node structure has {size} fields, expected 4"
                    )));
                }
                let id = self.int()?;
                let labels = match self.value_at_depth(depth + 1)? {
                    Value::List(items) => items
                        .into_iter()
                        .map(|v| match v {
                            Value::String(s) => Ok(s),
                            other => Err(Error::protocol(format!(
                                "node label must be a string, found {}",
                                kind(&other)
                            ))),
                        })
                        .collect::<Result<Vec<_>, _>>()?,
                    other => {
                        return Err(Error::protocol(format!(
                            "node labels must be a list, found {}",
                            kind(&other)
                        )))
                    }
                };
                let properties = self.map_at(depth + 1)?;
                let element_id = self.string()?;
                Ok(Value::Node(Node {
                    id,
                    labels,
                    properties,
                    element_id,
                }))
            }
            TAG_RELATIONSHIP => {
                if size != 8 {
                    return Err(Error::protocol(format!(
                        "Relationship structure has {size} fields, expected 8"
                    )));
                }
                Ok(Value::Relationship(Relationship {
                    id: self.int()?,
                    start: self.int()?,
                    end: self.int()?,
                    typ: self.string()?,
                    properties: self.map_at(depth + 1)?,
                    element_id: self.string()?,
                    start_element_id: self.string()?,
                    end_element_id: self.string()?,
                }))
            }
            other => Err(Error::protocol(format!(
                "unsupported structure tag 0x{other:02X}"
            ))),
        }
    }

    fn int(&mut self) -> Result<i64, Error> {
        match self.value_at_depth(MAX_DEPTH - 1)? {
            Value::Int(n) => Ok(n),
            other => Err(Error::protocol(format!(
                "expected integer, found {}",
                kind(&other)
            ))),
        }
    }

    fn map_at(&mut self, depth: usize) -> Result<Vec<(String, Value)>, Error> {
        match self.value_at_depth(depth)? {
            Value::Map(pairs) => Ok(pairs),
            other => Err(Error::protocol(format!(
                "expected map, found {}",
                kind(&other)
            ))),
        }
    }

    fn string_body(&mut self, len: usize) -> Result<Value, Error> {
        let bytes = self.take(len)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(Value::String(s.to_string())),
            Err(_) => Err(Error::protocol("string payload is not valid UTF-8")),
        }
    }

    fn list_body(&mut self, len: usize, depth: usize) -> Result<Value, Error> {
        // A list of N items needs at least N marker bytes: cheap guard
        // against a huge claimed length on a tiny buffer.
        if len > self.remaining() {
            return Err(Error::protocol(format!(
                "list claims {len} items but only {} bytes remain",
                self.remaining()
            )));
        }
        let mut items = Vec::with_capacity(len);
        for _ in 0..len {
            items.push(self.value_at_depth(depth + 1)?);
        }
        Ok(Value::List(items))
    }

    fn map_body(&mut self, len: usize, depth: usize) -> Result<Value, Error> {
        if len > self.remaining() {
            return Err(Error::protocol(format!(
                "map claims {len} entries but only {} bytes remain",
                self.remaining()
            )));
        }
        let mut pairs = Vec::with_capacity(len);
        for _ in 0..len {
            let key = self.string()?;
            let value = self.value_at_depth(depth + 1)?;
            pairs.push((key, value));
        }
        Ok(Value::Map(pairs))
    }

    fn byte(&mut self) -> Result<u8, Error> {
        if self.pos < self.buf.len() {
            let b = self.buf[self.pos];
            self.pos += 1;
            Ok(b)
        } else {
            Err(Error::protocol("message truncated"))
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], Error> {
        let bytes = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(bytes);
        Ok(out)
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], Error> {
        if self.remaining() < len {
            return Err(Error::protocol(format!(
                "value claims {len} bytes but only {} remain",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(slice)
    }
}

fn kind(value: &Value) -> &'static str {
    match value {
        Value::Null => "null",
        Value::Bool(_) => "boolean",
        Value::Int(_) => "integer",
        Value::Float(_) => "float",
        Value::String(_) => "string",
        Value::List(_) => "list",
        Value::Map(_) => "map",
        Value::Node(_) => "node",
        Value::Relationship(_) => "relationship",
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(value: Value) {
        let mut buf = Vec::new();
        encode(&value, &mut buf);
        let mut dec = Decoder::new(&buf);
        assert_eq!(dec.value().unwrap(), value);
        assert_eq!(dec.remaining(), 0, "decoder must consume the encoding");
    }

    #[test]
    fn scalars_round_trip_across_all_width_classes() {
        round_trip(Value::Null);
        round_trip(Value::Bool(true));
        round_trip(Value::Bool(false));
        for n in [
            0i64,
            1,
            -1,
            -16,
            -17,
            127,
            128,
            -128,
            -129,
            32767,
            32768,
            -32768,
            -32769,
            i64::from(i32::MAX),
            i64::from(i32::MAX) + 1,
            i64::from(i32::MIN),
            i64::from(i32::MIN) - 1,
            i64::MAX,
            i64::MIN,
        ] {
            round_trip(Value::Int(n));
        }
        round_trip(Value::Float(1.5));
        round_trip(Value::Float(-0.0));
        round_trip(Value::Float(f64::MAX));
    }

    #[test]
    fn tiny_int_markers_match_the_spec() {
        let mut buf = Vec::new();
        encode(&Value::Int(-1), &mut buf);
        assert_eq!(buf, [0xFF]);
        buf.clear();
        encode(&Value::Int(42), &mut buf);
        assert_eq!(buf, [0x2A]);
        buf.clear();
        encode(&Value::Int(-17), &mut buf);
        assert_eq!(buf, [0xC8, 0xEF]);
    }

    #[test]
    fn strings_lists_maps_round_trip_at_size_boundaries() {
        for len in [0usize, 1, 15, 16, 255, 256, 65535, 65536] {
            round_trip(Value::String("x".repeat(len)));
        }
        round_trip(Value::List(vec![
            Value::Int(1),
            Value::String("two".into()),
            Value::Null,
        ]));
        round_trip(Value::List((0..300).map(Value::Int).collect()));
        round_trip(Value::Map(vec![
            ("a".into(), Value::Int(1)),
            ("b".into(), Value::List(vec![Value::Bool(true)])),
        ]));
        round_trip(Value::Map(
            (0..20).map(|i| (format!("k{i}"), Value::Int(i))).collect(),
        ));
    }

    #[test]
    fn node_and_relationship_round_trip() {
        round_trip(Value::Node(Node {
            id: 7,
            labels: vec!["Person".into(), "Author".into()],
            properties: vec![
                ("name".into(), Value::String("Ada".into())),
                ("age".into(), Value::Int(36)),
            ],
            element_id: "7".into(),
        }));
        round_trip(Value::Relationship(Relationship {
            id: 3,
            start: 7,
            end: 9,
            typ: "KNOWS".into(),
            properties: vec![("since".into(), Value::Int(2001))],
            element_id: "3".into(),
            start_element_id: "7".into(),
            end_element_id: "9".into(),
        }));
    }

    #[test]
    fn hostile_lengths_and_markers_fail_typed_not_panic() {
        // STRING_32 claiming 4 GiB on a 2-byte buffer.
        let err = Decoder::new(&[0xD2, 0xFF, 0xFF, 0xFF, 0xFF, 0x41])
            .value()
            .unwrap_err();
        assert!(err.to_string().contains("bytes"), "{err}");
        // LIST_32 claiming u32::MAX items.
        let err = Decoder::new(&[0xD6, 0xFF, 0xFF, 0xFF, 0xFF])
            .value()
            .unwrap_err();
        assert!(err.to_string().contains("items"), "{err}");
        // Truncated INT_64.
        assert!(Decoder::new(&[0xCB, 0x00]).value().is_err());
        // Reserved marker.
        assert!(Decoder::new(&[0xCF]).value().is_err());
        // Invalid UTF-8 string payload.
        assert!(Decoder::new(&[0x81, 0xFF]).value().is_err());
        // Unknown structure tag.
        assert!(Decoder::new(&[0xB1, 0x00, 0xC0]).value().is_err());
        // Byte arrays are rejected, not mis-decoded.
        assert!(Decoder::new(&[0xCC, 0x01, 0x00]).value().is_err());
    }

    #[test]
    fn nesting_depth_is_capped() {
        // 70 nested single-element lists, deeper than MAX_DEPTH.
        let mut buf = vec![0x91u8; 70];
        buf.push(0xC0);
        let err = Decoder::new(&buf).value().unwrap_err();
        assert!(err.to_string().contains("nesting"), "{err}");
    }
}
