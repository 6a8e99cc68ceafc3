//! The transformation mapping `F_st`'s bookkeeping.
//!
//! Problem 1 of the paper asks for the pair `(S_PG, F_st)`: the transformed
//! schema *and* the mapping between the two schemas. [`Mapping`] is that
//! mapping, materialised: it records how every class, predicate, and
//! datatype of the SHACL side corresponds to labels, keys, edge labels, and
//! carrier types on the PG side. The data transformation `F_dt[F_st]`
//! consults it triple-by-triple, the inverse mappings `M`/`N` invert it, and
//! the query translator `F_qt` uses it to rewrite SPARQL into Cypher.

use s3pg_rdf::fxhash::FxHashMap;
use s3pg_rdf::vocab;

/// Reserved property keys that carry S3PG bookkeeping on PG nodes.
pub const RESERVED_KEYS: &[&str] = &["iri", "ov", "lang"];

/// How a (node type, predicate) pair is encoded in the property graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Handling {
    /// Encoded as a key/value property within the node (parsimonious mode,
    /// single-type literal). `array` mirrors Table 1: `true` when the
    /// cardinality admits more than one value.
    KeyValue { key: String, array: bool },
    /// Encoded as an edge (to entity nodes and/or literal-carrier nodes).
    Edge { label: String },
}

/// The bidirectional name mapping produced by the schema transformation.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Mapping {
    /// class IRI → node type name.
    pub type_of_class: FxHashMap<String, String>,
    /// node label → class IRI.
    pub class_of_label: FxHashMap<String, String>,
    /// class IRI → node label.
    pub label_of_class: FxHashMap<String, String>,
    /// node type name → originating shape name.
    pub shape_of_type: FxHashMap<String, String>,
    /// property key → predicate IRI (global, collision-free).
    pub pred_of_key: FxHashMap<String, String>,
    /// predicate IRI → property key.
    pub key_of_pred: FxHashMap<String, String>,
    /// edge label → predicate IRI (global, collision-free).
    pub pred_of_edge_label: FxHashMap<String, String>,
    /// predicate IRI → edge label.
    pub edge_label_of_pred: FxHashMap<String, String>,
    /// datatype IRI → literal-carrier label (e.g. `xsd:string` → `STRING`).
    pub carrier_of_datatype: FxHashMap<String, String>,
    /// literal-carrier label → datatype IRI.
    pub datatype_of_carrier: FxHashMap<String, String>,
    /// node type name → predicate IRI → handling. Nested so the per-triple
    /// hot-path lookup of Algorithm 1 needs no key allocation.
    pub handling: FxHashMap<String, FxHashMap<String, Handling>>,
    /// (node type name, property key) → the exact SHACL datatype IRI of a
    /// key/value-encoded property. Needed by the inverse mappings: the PG
    /// content type alone cannot distinguish e.g. `xsd:string` from a
    /// custom datatype that maps onto STRING.
    pub kv_datatype: FxHashMap<(String, String), String>,
}

impl Mapping {
    /// Create an empty mapping.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a class, allocating a collision-free label and type name.
    /// Idempotent per class IRI. Returns (type name, label).
    pub fn register_class(&mut self, class_iri: &str) -> (String, String) {
        if let Some(tn) = self.type_of_class.get(class_iri) {
            let label = self.label_of_class[class_iri].clone();
            return (tn.clone(), label);
        }
        let base = sanitize(vocab::local_name(class_iri));
        let mut label = base.clone();
        let mut n = 1;
        while self.class_of_label.contains_key(&label) {
            n += 1;
            label = format!("{base}_{n}");
        }
        let type_name = type_name_for(&label);
        self.type_of_class
            .insert(class_iri.to_string(), type_name.clone());
        self.class_of_label
            .insert(label.clone(), class_iri.to_string());
        self.label_of_class
            .insert(class_iri.to_string(), label.clone());
        (type_name, label)
    }

    /// Register a predicate as a key/value property key. Idempotent.
    pub fn register_key(&mut self, predicate_iri: &str) -> String {
        if let Some(key) = self.key_of_pred.get(predicate_iri) {
            return key.clone();
        }
        let mut base = sanitize(vocab::local_name(predicate_iri));
        if RESERVED_KEYS.contains(&base.as_str()) {
            base.push_str("_p");
        }
        let mut key = base.clone();
        let mut n = 1;
        while self.pred_of_key.contains_key(&key) {
            n += 1;
            key = format!("{base}_{n}");
        }
        self.pred_of_key
            .insert(key.clone(), predicate_iri.to_string());
        self.key_of_pred
            .insert(predicate_iri.to_string(), key.clone());
        key
    }

    /// Register a predicate as an edge label. Idempotent.
    pub fn register_edge_label(&mut self, predicate_iri: &str) -> String {
        if let Some(label) = self.edge_label_of_pred.get(predicate_iri) {
            return label.clone();
        }
        let base = sanitize(vocab::local_name(predicate_iri));
        let mut label = base.clone();
        let mut n = 1;
        while self.pred_of_edge_label.contains_key(&label) {
            n += 1;
            label = format!("{base}_{n}");
        }
        self.pred_of_edge_label
            .insert(label.clone(), predicate_iri.to_string());
        self.edge_label_of_pred
            .insert(predicate_iri.to_string(), label.clone());
        label
    }

    /// Register a literal-carrier label for a datatype IRI. Idempotent.
    /// Returns (carrier type name, carrier label).
    pub fn register_carrier(&mut self, datatype_iri: &str) -> (String, String) {
        if let Some(label) = self.carrier_of_datatype.get(datatype_iri) {
            return (carrier_type_name(label), label.clone());
        }
        let base = sanitize(vocab::local_name(datatype_iri)).to_uppercase();
        let mut label = base.clone();
        let mut n = 1;
        while self.datatype_of_carrier.contains_key(&label) {
            n += 1;
            label = format!("{base}_{n}");
        }
        self.carrier_of_datatype
            .insert(datatype_iri.to_string(), label.clone());
        self.datatype_of_carrier
            .insert(label.clone(), datatype_iri.to_string());
        (carrier_type_name(&label), label)
    }

    /// Record how `(node type, predicate)` is encoded.
    pub fn set_handling(&mut self, type_name: &str, predicate_iri: &str, handling: Handling) {
        self.handling
            .entry(type_name.to_string())
            .or_default()
            .insert(predicate_iri.to_string(), handling);
    }

    /// Look up the handling for one node type. Allocation-free.
    pub fn handling_for(&self, type_name: &str, predicate_iri: &str) -> Option<&Handling> {
        self.handling.get(type_name)?.get(predicate_iri)
    }
}

/// Replace characters outside `[A-Za-z0-9_]` with `_`, ensuring a
/// non-empty identifier.
pub fn sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out.is_empty() || out.chars().next().unwrap().is_ascii_digit() {
        out.insert(0, 'n');
    }
    out
}

/// Carrier label `STRING` → type name `stringType` (Figure 5d).
fn carrier_type_name(label: &str) -> String {
    format!("{}Type", label.to_lowercase())
}

/// The paper's naming convention: class label `Person` → type `personType`.
fn type_name_for(label: &str) -> String {
    let mut chars = label.chars();
    let lowered = match chars.next() {
        Some(first) => first.to_ascii_lowercase().to_string() + chars.as_str(),
        None => String::new(),
    };
    format!("{lowered}Type")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_class_is_idempotent_and_collision_free() {
        let mut m = Mapping::new();
        let (t1, l1) = m.register_class("http://a/Person");
        assert_eq!((t1.as_str(), l1.as_str()), ("personType", "Person"));
        let (t2, l2) = m.register_class("http://b/Person");
        assert_eq!(l2, "Person_2");
        assert_eq!(t2, "person_2Type");
        let (t3, l3) = m.register_class("http://a/Person");
        assert_eq!((t3, l3), (t1, l1));
    }

    #[test]
    fn register_key_avoids_reserved_names() {
        let mut m = Mapping::new();
        assert_eq!(m.register_key("http://ex/iri"), "iri_p");
        assert_eq!(m.register_key("http://ex/ov"), "ov_p");
        assert_eq!(m.register_key("http://ex/name"), "name");
        assert_eq!(m.register_key("http://other/name"), "name_2");
        // idempotent
        assert_eq!(m.register_key("http://ex/name"), "name");
        assert_eq!(m.pred_of_key["name_2"], "http://other/name");
    }

    #[test]
    fn register_edge_label_disambiguates() {
        let mut m = Mapping::new();
        assert_eq!(m.register_edge_label("http://a/knows"), "knows");
        let second = m.register_edge_label("http://b/knows");
        assert_ne!(second, "knows");
        assert_eq!(m.register_edge_label("http://a/knows"), "knows");
    }

    #[test]
    fn register_carrier_matches_paper_naming() {
        let mut m = Mapping::new();
        let (tn, label) = m.register_carrier(vocab::xsd::STRING);
        assert_eq!(label, "STRING");
        assert_eq!(tn, "stringType");
        let (_, g_year) = m.register_carrier(vocab::xsd::G_YEAR);
        assert_eq!(g_year, "GYEAR");
        assert_eq!(m.datatype_of_carrier["GYEAR"], vocab::xsd::G_YEAR);
    }

    #[test]
    fn sanitize_handles_awkward_input() {
        assert_eq!(sanitize("has space"), "has_space");
        assert_eq!(sanitize("1starts-digit"), "n1starts_digit");
        assert_eq!(sanitize(""), "n");
        assert_eq!(sanitize("ok_name"), "ok_name");
    }

    #[test]
    fn handling_roundtrip() {
        let mut m = Mapping::new();
        m.set_handling(
            "personType",
            "http://ex/name",
            Handling::KeyValue {
                key: "name".into(),
                array: false,
            },
        );
        assert!(matches!(
            m.handling_for("personType", "http://ex/name"),
            Some(Handling::KeyValue { .. })
        ));
        assert!(m.handling_for("personType", "http://ex/other").is_none());
    }
}
