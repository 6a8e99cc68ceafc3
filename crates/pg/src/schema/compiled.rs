//! `S_PG` resolved against one graph's symbol table, for the conformance
//! check.
//!
//! [`PgSchema`] names everything by string: labels, property keys, and the
//! node types an edge type or PG-Key refers to. Deciding `PG ⊨ S_PG`
//! element by element from that form re-hashes those strings and re-walks
//! the type hierarchy for every node and edge. [`CompiledSchema`] does
//! each of those resolutions once: node types become indices (schema
//! order), sets of node types become bit masks over those indices, labels
//! and keys become the graph's [`Sym`]s, and every node type carries its
//! effective (own + inherited) specs. A string the graph never interned
//! resolves to "cannot occur", which is exactly what a by-name lookup
//! against the graph would have answered.
//!
//! The compiled form borrows nothing from the schema or the graph. It is
//! only meaningful for the schema revision and the interner it was
//! compiled against; a conformance report keeps it so the next
//! delta-scoped check can reuse it while neither has moved.

use super::{CountKey, PgSchema};
use crate::value::ContentType;
use s3pg_rdf::{Interner, Sym};

/// A set of node types: bit `i` stands for `schema.node_types()[i]`.
pub(crate) type TypeMask = Vec<u64>;

/// Whether bit `i` is set.
#[inline]
pub(crate) fn has_type(bits: &[u64], i: u32) -> bool {
    bits[(i / 64) as usize] & (1 << (i % 64)) != 0
}

/// Set bit `i`.
#[inline]
pub(crate) fn set_type(bits: &mut [u64], i: u32) {
    bits[(i / 64) as usize] |= 1 << (i % 64);
}

/// Whether two equally long sets share a type.
#[inline]
pub(crate) fn intersects(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(x, y)| x & y != 0)
}

/// One effective property spec with its key resolved.
pub(crate) struct CompiledSpec {
    pub key: Sym,
    pub content: ContentType,
    pub optional: bool,
    pub array: Option<(u32, Option<u32>)>,
}

/// One `⟨source, label, targets⟩` combination of `η_S` for an edge label.
pub(crate) struct EdgeRule {
    pub source: u32,
    pub targets: TypeMask,
}

/// One PG-Key whose FOR type exists.
pub(crate) struct CompiledKey {
    pub key: CountKey,
    /// `key` as failures name it.
    pub text: String,
    pub for_type: u32,
    /// The FOR type's label: its postings are the candidate nodes.
    pub for_label: String,
    /// `None` when no edge of the graph carries the key's label.
    pub edge_label: Option<Sym>,
    pub targets: TypeMask,
}

/// See the module documentation.
pub(crate) struct CompiledSchema {
    /// Words per type set: `⌈|N_S| / 64⌉`.
    pub words: usize,
    /// Per node type: the effective specs a node must satisfy, or `None`
    /// when a required key is not interned (no node can have it).
    /// Optional specs over keys that are not interned are dropped.
    specs: Vec<Option<Vec<CompiledSpec>>>,
    /// `Sym::index()` of a label → the node types carrying that label.
    types_by_label: Vec<Vec<u32>>,
    /// `Sym::index()` of a label → the edge types with that label whose
    /// source type exists.
    rules_by_label: Vec<Vec<EdgeRule>>,
    /// PG-Keys in schema order, without those whose FOR type is unknown.
    pub keys: Vec<CompiledKey>,
}

impl CompiledSchema {
    /// Resolve `schema` against `interner` (the graph's).
    pub fn new(schema: &PgSchema, interner: &Interner) -> Self {
        let words = schema.node_types.len().div_ceil(64);
        let type_index = |name: &str| schema.node_by_name.get(name).map(|&i| i as u32);
        let mask_of = |names: &[String]| {
            let mut mask = vec![0u64; words];
            for t in names.iter().filter_map(|n| type_index(n)) {
                set_type(&mut mask, t);
            }
            mask
        };

        let mut types_by_label: Vec<Vec<u32>> = vec![Vec::new(); interner.len()];
        let mut specs = Vec::with_capacity(schema.node_types.len());
        for (i, nt) in schema.node_types.iter().enumerate() {
            if let Some(label) = interner.get(&nt.label) {
                types_by_label[label.index()].push(i as u32);
            }
            let mut resolved = Some(Vec::new());
            for spec in schema.effective_properties(nt) {
                match interner.get(&spec.key) {
                    Some(key) => {
                        if let Some(out) = &mut resolved {
                            out.push(CompiledSpec {
                                key,
                                content: spec.content,
                                optional: spec.optional,
                                array: spec.array,
                            });
                        }
                    }
                    None if spec.optional => {}
                    None => resolved = None,
                }
            }
            specs.push(resolved);
        }

        let mut rules_by_label: Vec<Vec<EdgeRule>> = Vec::new();
        rules_by_label.resize_with(interner.len(), Vec::new);
        for et in &schema.edge_types {
            if let (Some(label), Some(source)) = (interner.get(&et.label), type_index(&et.source)) {
                rules_by_label[label.index()].push(EdgeRule {
                    source,
                    targets: mask_of(&et.targets),
                });
            }
        }

        let keys = schema
            .keys
            .iter()
            .filter_map(|key| {
                let for_type = type_index(&key.for_type)?;
                Some(CompiledKey {
                    key: key.clone(),
                    text: key.to_string(),
                    for_type,
                    for_label: schema.node_types[for_type as usize].label.clone(),
                    edge_label: interner.get(&key.edge_label),
                    targets: mask_of(&key.target_types),
                })
            })
            .collect();

        CompiledSchema {
            words,
            specs,
            types_by_label,
            rules_by_label,
            keys,
        }
    }

    /// The node types carrying `label`, in schema order.
    #[inline]
    pub fn types_with_label(&self, label: Sym) -> &[u32] {
        &self.types_by_label[label.index()]
    }

    /// Effective specs of node type `t`; `None` = unsatisfiable here.
    #[inline]
    pub fn specs_of(&self, t: u32) -> Option<&[CompiledSpec]> {
        self.specs[t as usize].as_deref()
    }

    /// The source/target combinations `η_S` admits for an edge label.
    #[inline]
    pub fn rules_with_label(&self, label: Sym) -> &[EdgeRule] {
        &self.rules_by_label[label.index()]
    }
}
