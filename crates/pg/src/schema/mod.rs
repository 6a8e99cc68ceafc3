//! PG-Schema (Definition 2.5 of the paper): PG-Types and PG-Keys.
//!
//! `S_PG = (N_S, E_S, ν_S, η_S, γ_S, K_S)` — node type names with their base
//! types ([`NodeType`], ν), edge type names with source/target combinations
//! ([`EdgeType`], η), a type hierarchy (γ, via [`NodeType::extends`]), and
//! PG-Keys constraint expressions ([`CountKey`], K).

pub(crate) mod compiled;
mod keys;
mod types;

pub use keys::CountKey;
pub use types::{EdgeType, NodeType, NodeTypeKind, PropertySpec};

use s3pg_rdf::fxhash::FxHashMap;

/// A complete PG schema.
///
/// Equality compares the schema's content only, not its [revision](Self::revision).
#[derive(Debug, Clone, Default)]
pub struct PgSchema {
    node_types: Vec<NodeType>,
    edge_types: Vec<EdgeType>,
    keys: Vec<CountKey>,
    node_by_name: FxHashMap<String, usize>,
    node_by_label: FxHashMap<String, usize>,
    edge_by_name: FxHashMap<String, usize>,
    /// Bumped by every `&mut` accessor; see [`Self::revision`].
    revision: u64,
}

impl PartialEq for PgSchema {
    fn eq(&self, other: &Self) -> bool {
        self.node_types == other.node_types
            && self.edge_types == other.edge_types
            && self.keys == other.keys
            && self.node_by_name == other.node_by_name
            && self.node_by_label == other.node_by_label
            && self.edge_by_name == other.edge_by_name
    }
}

impl PgSchema {
    /// Create an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// A counter every `&mut` accessor bumps, whether or not it changes
    /// anything. A conformance report remembers the revision it was taken
    /// at, so [`check_since`](crate::conformance::check_since) can tell
    /// that the schema it is asked about is still the one the report
    /// describes. Two schemas stepped through the same calls from one
    /// clone have the same revision.
    pub fn revision(&self) -> u64 {
        self.revision
    }

    /// Add (or replace, by name) a node type.
    pub fn add_node_type(&mut self, nt: NodeType) {
        self.revision += 1;
        if let Some(&i) = self.node_by_name.get(&nt.name) {
            self.node_by_label.remove(&self.node_types[i].label);
            self.node_by_label.insert(nt.label.clone(), i);
            self.node_types[i] = nt;
            return;
        }
        let idx = self.node_types.len();
        self.node_by_name.insert(nt.name.clone(), idx);
        self.node_by_label.insert(nt.label.clone(), idx);
        self.node_types.push(nt);
    }

    /// Add (or replace, by name) an edge type.
    pub fn add_edge_type(&mut self, et: EdgeType) {
        self.revision += 1;
        if let Some(&i) = self.edge_by_name.get(&et.name) {
            self.edge_types[i] = et;
            return;
        }
        let idx = self.edge_types.len();
        self.edge_by_name.insert(et.name.clone(), idx);
        self.edge_types.push(et);
    }

    /// Add a PG-Key constraint.
    pub fn add_key(&mut self, key: CountKey) {
        self.revision += 1;
        self.keys.push(key);
    }

    /// All node types, in insertion order.
    pub fn node_types(&self) -> &[NodeType] {
        &self.node_types
    }

    /// All edge types, in insertion order.
    pub fn edge_types(&self) -> &[EdgeType] {
        &self.edge_types
    }

    /// All PG-Keys.
    pub fn keys(&self) -> &[CountKey] {
        &self.keys
    }

    /// Mutable access to PG-Keys (monotone updates widen cardinalities).
    pub fn keys_mut(&mut self) -> &mut Vec<CountKey> {
        self.revision += 1;
        &mut self.keys
    }

    /// Look up a node type by name.
    pub fn node_type(&self, name: &str) -> Option<&NodeType> {
        self.node_by_name.get(name).map(|&i| &self.node_types[i])
    }

    /// Mutable lookup by name.
    pub fn node_type_mut(&mut self, name: &str) -> Option<&mut NodeType> {
        self.revision += 1;
        self.node_by_name
            .get(name)
            .copied()
            .map(move |i| &mut self.node_types[i])
    }

    /// Look up a node type by its (primary) label.
    pub fn node_type_by_label(&self, label: &str) -> Option<&NodeType> {
        self.node_by_label.get(label).map(|&i| &self.node_types[i])
    }

    /// Look up an edge type by name.
    pub fn edge_type(&self, name: &str) -> Option<&EdgeType> {
        self.edge_by_name.get(name).map(|&i| &self.edge_types[i])
    }

    /// Mutable lookup of an edge type by name.
    pub fn edge_type_mut(&mut self, name: &str) -> Option<&mut EdgeType> {
        self.revision += 1;
        self.edge_by_name
            .get(name)
            .copied()
            .map(move |i| &mut self.edge_types[i])
    }

    /// All edge types with a given label (η_S may map one label to several
    /// source/target combinations across types).
    pub fn edge_types_by_label<'a>(&'a self, label: &'a str) -> impl Iterator<Item = &'a EdgeType> {
        self.edge_types.iter().filter(move |e| e.label == label)
    }

    /// The *effective* property specs of a node type: its own plus all
    /// transitively inherited ones; own specs win on key conflicts.
    pub fn effective_properties(&self, nt: &NodeType) -> Vec<PropertySpec> {
        let mut out: Vec<PropertySpec> = Vec::new();
        let mut seen: Vec<&str> = Vec::new();
        let mut visited: Vec<&str> = Vec::new();
        let mut stack: Vec<&NodeType> = vec![nt];
        while let Some(t) = stack.pop() {
            if visited.contains(&t.name.as_str()) {
                continue;
            }
            visited.push(&t.name);
            for spec in &t.properties {
                if !seen.contains(&spec.key.as_str()) {
                    // Cloning a key already collected would shadow wrongly.
                    out.push(spec.clone());
                }
            }
            seen.extend(t.properties.iter().map(|s| s.key.as_str()));
            for parent in &t.extends {
                if let Some(p) = self.node_type(parent) {
                    stack.push(p);
                }
            }
        }
        out
    }

    /// Number of node types.
    pub fn node_type_count(&self) -> usize {
        self.node_types.len()
    }

    /// Number of edge types.
    pub fn edge_type_count(&self) -> usize {
        self.edge_types.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::ContentType;

    fn sample() -> PgSchema {
        let mut s = PgSchema::new();
        let mut person = NodeType::entity("personType", "Person", "http://ex/Person");
        person
            .properties
            .push(PropertySpec::required("name", ContentType::String));
        let mut student = NodeType::entity("studentType", "Student", "http://ex/Student");
        student.extends.push("personType".into());
        student
            .properties
            .push(PropertySpec::required("regNo", ContentType::String));
        s.add_node_type(person);
        s.add_node_type(student);
        s.add_edge_type(EdgeType {
            name: "advisedByType".into(),
            label: "advisedBy".into(),
            iri: Some("http://ex/advisedBy".into()),
            source: "studentType".into(),
            targets: vec!["personType".into()],
        });
        s.add_key(CountKey {
            for_type: "studentType".into(),
            edge_label: "advisedBy".into(),
            min: 1,
            max: None,
            target_types: vec!["personType".into()],
        });
        s
    }

    #[test]
    fn lookups_by_name_and_label() {
        let s = sample();
        assert!(s.node_type("personType").is_some());
        assert_eq!(s.node_type_by_label("Student").unwrap().name, "studentType");
        assert!(s.edge_type("advisedByType").is_some());
        assert_eq!(s.edge_types_by_label("advisedBy").count(), 1);
    }

    #[test]
    fn effective_properties_follow_hierarchy() {
        let s = sample();
        let student = s.node_type("studentType").unwrap();
        let eff = s.effective_properties(student);
        let keys: Vec<&str> = eff.iter().map(|p| p.key.as_str()).collect();
        assert!(keys.contains(&"regNo"));
        assert!(keys.contains(&"name"));
    }

    #[test]
    fn add_replaces_by_name() {
        let mut s = sample();
        let replacement = NodeType::entity("personType", "Human", "http://ex/Human");
        s.add_node_type(replacement);
        assert_eq!(s.node_type_count(), 2);
        assert!(s.node_type_by_label("Human").is_some());
        assert!(s.node_type_by_label("Person").is_none());
    }

    #[test]
    fn keys_are_recorded() {
        let s = sample();
        assert_eq!(s.keys().len(), 1);
        assert_eq!(s.keys()[0].edge_label, "advisedBy");
    }

    #[test]
    fn every_mut_accessor_bumps_the_revision_and_equality_ignores_it() {
        let mut s = sample();
        let before = s.clone();
        let mut r = s.revision();
        let mut bumped = |s: &PgSchema| {
            assert!(s.revision() > r);
            r = s.revision();
        };
        s.node_type_mut("personType");
        bumped(&s);
        s.edge_type_mut("advisedByType");
        bumped(&s);
        s.keys_mut();
        bumped(&s);
        assert_eq!(s, before, "no content changed");
        s.add_key(s.keys()[0].clone());
        bumped(&s);
        assert_ne!(s, before);
        s.add_node_type(NodeType::entity("tType", "T", "http://ex/T"));
        bumped(&s);
        s.add_edge_type(s.edge_types()[0].clone());
        bumped(&s);
    }

    #[test]
    fn hierarchy_cycles_terminate() {
        let mut s = PgSchema::new();
        let mut a = NodeType::entity("aType", "A", "http://ex/A");
        a.extends.push("bType".into());
        a.properties
            .push(PropertySpec::required("x", ContentType::String));
        let mut b = NodeType::entity("bType", "B", "http://ex/B");
        b.extends.push("aType".into());
        b.properties
            .push(PropertySpec::required("y", ContentType::String));
        s.add_node_type(a);
        s.add_node_type(b);
        let a = s.node_type("aType").unwrap();
        assert_eq!(s.effective_properties(a).len(), 2);
    }
}
