//! Read-side storage abstraction over property-graph representations.
//!
//! The Cypher engine (and the SPARQL-over-PG path that translates into it)
//! is generic over [`PgRead`], so one executor runs unchanged over either
//! the mutable [`PropertyGraph`](crate::graph::PropertyGraph) or the
//! frozen, read-optimized [`CompactGraph`](crate::compact::CompactGraph).
//! The trait is shaped so both implementations answer from slices with no
//! per-call allocation, except the equality probe:
//!
//! * labels and property keys resolve to [`Sym`]s once ([`key_sym`]); the
//!   executor then reads label rows and properties by symbol, with no
//!   hashing per row — both stores already hold exactly these rows;
//! * adjacency is exposed as raw `&[EdgeId]` rows plus an [`edge_live`]
//!   predicate — the mutable graph's rows contain tombstones that callers
//!   skip, while the compact form returns contiguous CSR rows where every
//!   edge is live (the predicate is constant `true`);
//! * a scalar property read ([`node_scalar`]) borrows: a [`Scalar`] holds
//!   numbers inline and strings as `&str` into the mutable graph's value
//!   or the compact form's dictionary. Lists, and callers that keep the
//!   value, read an owned [`Value`] ([`node_prop_sym`]) — the compact
//!   form decodes it from its dictionary;
//! * an equality probe ([`nodes_with_label_prop`]) borrows the compact
//!   form's index postings, while the mutable graph, which keeps no value
//!   index, filters its label postings into an owned list. Both answer the
//!   same ids in the same order.
//!
//! The string-keyed reads ([`has_label`], [`prop_value`], …) are provided
//! on top of the symbol-keyed ones, for callers that touch one row.
//!
//! [`key_sym`]: PgRead::key_sym
//! [`node_scalar`]: PgRead::node_scalar
//! [`node_prop_sym`]: PgRead::node_prop_sym
//! [`edge_live`]: PgRead::edge_live
//! [`has_label`]: PgRead::has_label
//! [`prop_value`]: PgRead::prop_value
//! [`nodes_with_label_prop`]: PgRead::nodes_with_label_prop

use crate::graph::{EdgeId, NodeId};
use crate::value::{Scalar, Value};
use s3pg_rdf::Sym;
use std::borrow::Cow;

/// Read-only access to a property graph, sufficient for query planning and
/// evaluation. `Sync` so parallel evaluation can share the graph across
/// scoped worker threads.
pub trait PgRead: Sync {
    /// Number of live nodes.
    fn node_count(&self) -> usize;

    /// Number of live edges.
    fn edge_count(&self) -> usize;

    /// All live node ids, in id order.
    fn all_node_ids(&self) -> Vec<NodeId>;

    /// Live node ids carrying `label`, in id order.
    fn nodes_with_label(&self, label: &str) -> &[NodeId];

    /// Exact number of live nodes carrying `label` (planner statistic).
    fn label_cardinality(&self, label: &str) -> usize;

    /// Live nodes carrying `label` whose scalar property `key` equals
    /// `value`, in id order — the equality-pushdown probe.
    fn nodes_with_label_prop(&self, label: &str, key: &str, value: &Value) -> Cow<'_, [NodeId]>;

    /// Resolve a label or property key to this graph's symbol. `None`
    /// means the graph has never seen the string — nothing carries it.
    fn key_sym(&self, name: &str) -> Option<Sym>;

    /// The label symbols of a node.
    fn node_label_syms(&self, id: NodeId) -> &[Sym];

    /// The label symbols of an edge.
    fn edge_label_syms(&self, id: EdgeId) -> &[Sym];

    /// A node property by resolved key symbol, as an owned value.
    fn node_prop_sym(&self, id: NodeId, key: Sym) -> Option<Value>;

    /// An edge property by resolved key symbol, as an owned value.
    fn edge_prop_sym(&self, id: EdgeId, key: Sym) -> Option<Value>;

    /// A node property by resolved key symbol, borrowed. `None` when the
    /// node has no such property *or* holds a list there, which has no
    /// scalar form; a caller that must tell the two apart reads
    /// [`PgRead::node_prop_sym`].
    fn node_scalar(&self, id: NodeId, key: Sym) -> Option<Scalar<'_>>;

    /// An edge property by resolved key symbol, borrowed (see
    /// [`PgRead::node_scalar`]).
    fn edge_scalar(&self, id: EdgeId, key: Sym) -> Option<Scalar<'_>>;

    /// Source and destination of an edge.
    fn edge_endpoints(&self, id: EdgeId) -> (NodeId, NodeId);

    /// The raw outgoing adjacency row of a node. May contain tombstoned
    /// edges — callers must filter with [`PgRead::edge_live`].
    fn out_adjacency(&self, id: NodeId) -> &[EdgeId];

    /// The raw incoming adjacency row of a node (see [`PgRead::out_adjacency`]).
    fn in_adjacency(&self, id: NodeId) -> &[EdgeId];

    /// Whether an edge id from an adjacency row refers to a live edge.
    fn edge_live(&self, id: EdgeId) -> bool;

    /// Whether a node carries a label.
    fn has_label(&self, id: NodeId, label: &str) -> bool {
        self.key_sym(label)
            .is_some_and(|sym| self.node_label_syms(id).contains(&sym))
    }

    /// A node property, decoded to an owned value.
    fn prop_value(&self, id: NodeId, key: &str) -> Option<Value> {
        self.node_prop_sym(id, self.key_sym(key)?)
    }

    /// An edge property, decoded to an owned value.
    fn edge_prop_value(&self, id: EdgeId, key: &str) -> Option<Value> {
        self.edge_prop_sym(id, self.key_sym(key)?)
    }

    /// Whether the edge carries at least one of `labels`; an empty set
    /// matches every edge (an unlabelled relationship pattern).
    fn edge_has_any_label(&self, id: EdgeId, labels: &[String]) -> bool {
        if labels.is_empty() {
            return true;
        }
        let row = self.edge_label_syms(id);
        labels
            .iter()
            .any(|l| self.key_sym(l).is_some_and(|sym| row.contains(&sym)))
    }
}
