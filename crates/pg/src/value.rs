//! Property values for PG records.
//!
//! A record (Definition 2.4) maps keys to values; values carry the content
//! types PG-Schema talks about (STRING, INT, FLOAT, BOOL, DATE, YEAR) plus
//! homogeneous arrays, which Table 1 of the paper uses to encode
//! multi-valued literal properties (`STRING ARRAY {M, N}`).

use s3pg_rdf::vocab;
use std::fmt;

/// The content type of a value, mirroring PG-Schema content types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ContentType {
    String,
    Int,
    Float,
    Bool,
    Date,
    DateTime,
    Year,
    /// Unconstrained (used by open types).
    Any,
}

impl ContentType {
    /// Map an XSD datatype IRI to the PG content type the paper's Figure 5
    /// uses (`xsd:string → STRING`, `xsd:date → DATE`, `xsd:gYear → YEAR`,
    /// numerics → INT/FLOAT, …). Unknown datatypes fall back to STRING.
    pub fn from_xsd(datatype: &str) -> ContentType {
        match datatype {
            vocab::xsd::STRING | vocab::xsd::ANY_URI => ContentType::String,
            d if d == vocab::rdf::LANG_STRING => ContentType::String,
            vocab::xsd::INTEGER | vocab::xsd::INT | vocab::xsd::LONG => ContentType::Int,
            vocab::xsd::DECIMAL | vocab::xsd::DOUBLE | vocab::xsd::FLOAT => ContentType::Float,
            vocab::xsd::BOOLEAN => ContentType::Bool,
            vocab::xsd::DATE => ContentType::Date,
            vocab::xsd::DATE_TIME => ContentType::DateTime,
            vocab::xsd::G_YEAR => ContentType::Year,
            _ => ContentType::String,
        }
    }

    /// The XSD datatype IRI this content type maps back to (inverse of
    /// [`ContentType::from_xsd`] for the supported types).
    pub fn to_xsd(self) -> &'static str {
        match self {
            ContentType::String | ContentType::Any => vocab::xsd::STRING,
            ContentType::Int => vocab::xsd::INTEGER,
            ContentType::Float => vocab::xsd::DOUBLE,
            ContentType::Bool => vocab::xsd::BOOLEAN,
            ContentType::Date => vocab::xsd::DATE,
            ContentType::DateTime => vocab::xsd::DATE_TIME,
            ContentType::Year => vocab::xsd::G_YEAR,
        }
    }

    /// PG-Schema DDL spelling (Figure 5 of the paper uses upper-case names).
    pub fn ddl_name(self) -> &'static str {
        match self {
            ContentType::String => "STRING",
            ContentType::Int => "INT",
            ContentType::Float => "FLOAT",
            ContentType::Bool => "BOOL",
            ContentType::Date => "DATE",
            ContentType::DateTime => "DATETIME",
            ContentType::Year => "YEAR",
            ContentType::Any => "ANY",
        }
    }

    /// Parse a DDL spelling back into a content type.
    pub fn from_ddl_name(name: &str) -> Option<ContentType> {
        Some(match name {
            "STRING" => ContentType::String,
            "INT" => ContentType::Int,
            "FLOAT" => ContentType::Float,
            "BOOL" => ContentType::Bool,
            "DATE" => ContentType::Date,
            "DATETIME" => ContentType::DateTime,
            "YEAR" => ContentType::Year,
            "ANY" => ContentType::Any,
            _ => return None,
        })
    }
}

impl fmt::Display for ContentType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.ddl_name())
    }
}

/// A property value.
///
/// Floats are compared bitwise so `Value` can be `Eq`/`Hash` (needed for
/// set-based query result comparison); this is exact for round-tripped data.
#[derive(Debug, Clone, PartialOrd)]
pub enum Value {
    String(String),
    Int(i64),
    Float(f64),
    Bool(bool),
    /// ISO `YYYY-MM-DD`, kept lexical (no calendar arithmetic needed).
    Date(String),
    /// ISO timestamp, kept lexical.
    DateTime(String),
    Year(i32),
    /// Homogeneous array of values.
    List(Vec<Value>),
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        use Value::*;
        match (self, other) {
            (String(a), String(b)) => a == b,
            (Int(a), Int(b)) => a == b,
            (Float(a), Float(b)) => a.to_bits() == b.to_bits(),
            (Bool(a), Bool(b)) => a == b,
            (Date(a), Date(b)) => a == b,
            (DateTime(a), DateTime(b)) => a == b,
            (Year(a), Year(b)) => a == b,
            (List(a), List(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        core::mem::discriminant(self).hash(state);
        match self {
            Value::String(s) | Value::Date(s) | Value::DateTime(s) => s.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Bool(b) => b.hash(state),
            Value::Year(y) => y.hash(state),
            Value::List(l) => l.hash(state),
        }
    }
}

impl Value {
    /// Convert an RDF literal (lexical form + datatype IRI) into a value,
    /// falling back to `String` when the lexical form does not parse.
    /// Typed parses borrow `lexical`; exactly one `String` is allocated,
    /// and only on the lexical arms (Date/DateTime/String) or the shared
    /// fallback path.
    pub fn from_xsd(lexical: &str, datatype: &str) -> Value {
        let parsed = match ContentType::from_xsd(datatype) {
            ContentType::Int => lexical.parse().ok().map(Value::Int),
            ContentType::Float => lexical.parse().ok().map(Value::Float),
            ContentType::Bool => match lexical {
                "true" | "1" => Some(Value::Bool(true)),
                "false" | "0" => Some(Value::Bool(false)),
                _ => None,
            },
            ContentType::Date => Some(Value::Date(lexical.to_string())),
            ContentType::DateTime => Some(Value::DateTime(lexical.to_string())),
            ContentType::Year => lexical.parse().ok().map(Value::Year),
            ContentType::String | ContentType::Any => None,
        };
        parsed.unwrap_or_else(|| Value::String(lexical.to_string()))
    }

    /// The content type of this value. Lists report the element type
    /// (or `Any` when empty/mixed).
    pub fn content_type(&self) -> ContentType {
        match self {
            Value::String(_) => ContentType::String,
            Value::Int(_) => ContentType::Int,
            Value::Float(_) => ContentType::Float,
            Value::Bool(_) => ContentType::Bool,
            Value::Date(_) => ContentType::Date,
            Value::DateTime(_) => ContentType::DateTime,
            Value::Year(_) => ContentType::Year,
            Value::List(items) => {
                let mut it = items.iter().map(Value::content_type);
                match it.next() {
                    Some(first) if it.all(|t| t == first) => first,
                    _ => ContentType::Any,
                }
            }
        }
    }

    /// The lexical form, used when converting back to RDF literals
    /// (the inverse mapping `M : PG → G`).
    pub fn lexical(&self) -> String {
        match self {
            Value::String(s) | Value::Date(s) | Value::DateTime(s) => s.clone(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => format_float(*f),
            Value::Bool(b) => b.to_string(),
            Value::Year(y) => y.to_string(),
            Value::List(items) => items
                .iter()
                .map(Value::lexical)
                .collect::<Vec<_>>()
                .join(","),
        }
    }

    /// Whether [`Value::lexical`] equals `lexical`. The string-backed
    /// variants compare in place; only numbers, booleans and lists are
    /// formatted, where the comparison is a round-trip check.
    pub fn lexical_eq(&self, lexical: &str) -> bool {
        match self {
            Value::String(s) | Value::Date(s) | Value::DateTime(s) => s == lexical,
            formatted => formatted.lexical() == lexical,
        }
    }

    /// This value as a borrowed [`Scalar`]; `None` for a list.
    pub fn as_scalar(&self) -> Option<Scalar<'_>> {
        Some(match self {
            Value::String(s) => Scalar::String(s),
            Value::Int(i) => Scalar::Int(*i),
            Value::Float(f) => Scalar::Float(*f),
            Value::Bool(b) => Scalar::Bool(*b),
            Value::Date(s) => Scalar::Date(s),
            Value::DateTime(s) => Scalar::DateTime(s),
            Value::Year(y) => Scalar::Year(*y),
            Value::List(_) => return None,
        })
    }

    /// Treat this value as a list: a `List` yields its items, a scalar
    /// yields itself. Mirrors Cypher's `UNWIND` coercion.
    pub fn iter_flat(&self) -> Box<dyn Iterator<Item = &Value> + '_> {
        match self {
            Value::List(items) => Box::new(items.iter()),
            other => Box::new(std::iter::once(other)),
        }
    }

    /// Heap bytes owned by this value (beyond its inline enum size):
    /// string capacities and, recursively, list storage. Feeds the
    /// property-graph memory gauges.
    pub fn heap_size_bytes(&self) -> usize {
        match self {
            Value::String(s) | Value::Date(s) | Value::DateTime(s) => s.capacity(),
            Value::Int(_) | Value::Float(_) | Value::Bool(_) | Value::Year(_) => 0,
            Value::List(items) => {
                items.capacity() * std::mem::size_of::<Value>()
                    + items.iter().map(Value::heap_size_bytes).sum::<usize>()
            }
        }
    }

    /// Push a value into this one, turning a scalar into a two-element list.
    /// This is how the NeoSemantics baseline accumulates multi-valued
    /// properties into arrays.
    pub fn push(&mut self, value: Value) {
        match self {
            Value::List(items) => items.push(value),
            _ => {
                let old = std::mem::replace(self, Value::List(Vec::with_capacity(2)));
                if let Value::List(items) = self {
                    items.push(old);
                    items.push(value);
                }
            }
        }
    }
}

/// A scalar property value borrowed from its store: numbers, booleans and
/// years inline, strings, dates and datetimes as `&str` into the graph
/// (the mutable graph's [`Value`], the compact form's dictionary). It is
/// what the Cypher executor's row kernels read, so a property read costs
/// no allocation; a list has no scalar form and is read as an owned
/// [`Value`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Scalar<'a> {
    String(&'a str),
    Int(i64),
    Float(f64),
    Bool(bool),
    Date(&'a str),
    DateTime(&'a str),
    Year(i32),
}

impl Scalar<'_> {
    /// The owned value this scalar borrows from.
    pub fn to_value(self) -> Value {
        match self {
            Scalar::String(s) => Value::String(s.to_string()),
            Scalar::Int(i) => Value::Int(i),
            Scalar::Float(f) => Value::Float(f),
            Scalar::Bool(b) => Value::Bool(b),
            Scalar::Date(s) => Value::Date(s.to_string()),
            Scalar::DateTime(s) => Value::DateTime(s.to_string()),
            Scalar::Year(y) => Value::Year(y),
        }
    }
}

/// The same text [`Value`]'s `Display` writes for the scalar it borrows.
impl fmt::Display for Scalar<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Scalar::String(s) | Scalar::Date(s) | Scalar::DateTime(s) => f.write_str(s),
            Scalar::Int(i) => write!(f, "{i}"),
            Scalar::Float(x) => f.write_str(&format_float(*x)),
            Scalar::Bool(b) => write!(f, "{b}"),
            Scalar::Year(y) => write!(f, "{y}"),
        }
    }
}

fn format_float(f: f64) -> String {
    if f.fract() == 0.0 && f.is_finite() && f.abs() < 1e15 {
        format!("{f:.1}")
    } else {
        f.to_string()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let Value::List(items) = self else {
            // Every other variant has a scalar form.
            return self.as_scalar().map_or(Ok(()), |s| write!(f, "{s}"));
        };
        write!(f, "[")?;
        for (i, v) in items.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xsd_mapping_covers_running_example_types() {
        assert_eq!(
            ContentType::from_xsd(vocab::xsd::STRING),
            ContentType::String
        );
        assert_eq!(ContentType::from_xsd(vocab::xsd::DATE), ContentType::Date);
        assert_eq!(ContentType::from_xsd(vocab::xsd::G_YEAR), ContentType::Year);
        assert_eq!(ContentType::from_xsd(vocab::xsd::INTEGER), ContentType::Int);
        assert_eq!(
            ContentType::from_xsd("http://unknown/dt"),
            ContentType::String
        );
    }

    #[test]
    fn xsd_roundtrip_for_supported_types() {
        for ct in [
            ContentType::String,
            ContentType::Int,
            ContentType::Float,
            ContentType::Bool,
            ContentType::Date,
            ContentType::DateTime,
            ContentType::Year,
        ] {
            assert_eq!(ContentType::from_xsd(ct.to_xsd()), ct);
        }
    }

    #[test]
    fn ddl_name_roundtrip() {
        for ct in [
            ContentType::String,
            ContentType::Int,
            ContentType::Float,
            ContentType::Bool,
            ContentType::Date,
            ContentType::DateTime,
            ContentType::Year,
            ContentType::Any,
        ] {
            assert_eq!(ContentType::from_ddl_name(ct.ddl_name()), Some(ct));
        }
        assert_eq!(ContentType::from_ddl_name("NOPE"), None);
    }

    #[test]
    fn value_from_xsd_parses() {
        assert_eq!(Value::from_xsd("42", vocab::xsd::INTEGER), Value::Int(42));
        assert_eq!(
            Value::from_xsd("true", vocab::xsd::BOOLEAN),
            Value::Bool(true)
        );
        assert_eq!(
            Value::from_xsd("1984", vocab::xsd::G_YEAR),
            Value::Year(1984)
        );
        assert_eq!(
            Value::from_xsd("2024-01-01", vocab::xsd::DATE),
            Value::Date("2024-01-01".into())
        );
        // malformed numeric falls back to string, preserving information
        assert_eq!(
            Value::from_xsd("forty-two", vocab::xsd::INTEGER),
            Value::String("forty-two".into())
        );
    }

    #[test]
    fn lexical_roundtrips_through_from_xsd() {
        let cases = [
            Value::Int(7),
            Value::String("hello".into()),
            Value::Bool(false),
            Value::Year(2020),
            Value::Date("2022-12-01".into()),
        ];
        for v in cases {
            let ct = v.content_type();
            assert_eq!(Value::from_xsd(&v.lexical(), ct.to_xsd()), v);
            assert!(v.lexical_eq(&v.lexical()), "{v:?}");
            assert!(!v.lexical_eq("0042"), "{v:?}");
        }
    }

    #[test]
    fn float_equality_is_bitwise() {
        assert_eq!(Value::Float(1.5), Value::Float(1.5));
        assert_ne!(Value::Float(1.5), Value::Float(2.5));
        assert_eq!(Value::Float(f64::NAN), Value::Float(f64::NAN));
    }

    #[test]
    fn push_builds_arrays() {
        let mut v = Value::String("a".into());
        v.push(Value::String("b".into()));
        v.push(Value::String("c".into()));
        assert_eq!(
            v,
            Value::List(vec![
                Value::String("a".into()),
                Value::String("b".into()),
                Value::String("c".into())
            ])
        );
    }

    #[test]
    fn iter_flat_unwinds() {
        let list = Value::List(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(list.iter_flat().count(), 2);
        let scalar = Value::Int(5);
        assert_eq!(scalar.iter_flat().count(), 1);
    }

    #[test]
    fn list_content_type_is_element_type() {
        let homo = Value::List(vec![Value::Int(1), Value::Int(2)]);
        assert_eq!(homo.content_type(), ContentType::Int);
        let mixed = Value::List(vec![Value::Int(1), Value::String("x".into())]);
        assert_eq!(mixed.content_type(), ContentType::Any);
    }

    #[test]
    fn display_is_human_readable() {
        assert_eq!(Value::Int(3).to_string(), "3");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Int(2)]).to_string(),
            "[1, 2]"
        );
        assert_eq!(Value::Float(2.0).to_string(), "2.0");
    }

    #[test]
    fn scalars_render_like_their_values() {
        let values = [
            Value::String("a \"q\"".into()),
            Value::Int(-3),
            Value::Float(-0.0),
            Value::Float(f64::NAN),
            Value::Bool(true),
            Value::Date("2024-01-01".into()),
            Value::DateTime("2024-01-01T00:00:00".into()),
            Value::Year(1999),
        ];
        for v in values {
            let s = v.as_scalar().unwrap();
            assert_eq!(format!("{s:?}"), format!("{v:?}"));
            assert_eq!(s.to_string(), v.to_string());
            assert_eq!(format!("{:?}", s.to_value()), format!("{v:?}"));
        }
        assert!(Value::List(vec![]).as_scalar().is_none());
    }
}
