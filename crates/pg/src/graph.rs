//! The property graph model (Definition 2.4 of the paper) with indexes.
//!
//! `PG = (N, E, ρ, λ, π)`: nodes `N`, edges `E`, an incidence function
//! `ρ : E → N × N` (here stored on each edge), a labelling `λ` mapping nodes
//! and edges to label sets, and a record mapping `π` assigning key/value
//! properties. Labels and keys are interned.
//!
//! The store maintains the indexes the transformation and the Cypher engine
//! need: nodes by label, in/out adjacency, and a unique index over the
//! `iri` property — S3PG stores each RDF entity's IRI as a node property
//! (Figure 2c), and Algorithm 1's second phase resolves subjects/objects
//! through this index. It keeps no property value index: an equality probe
//! filters the label's postings, and the frozen
//! [`CompactGraph`](crate::compact::CompactGraph) that serves reads builds
//! the `(label, key, value)` index once per snapshot.
//!
//! A long-lived graph can also record what its mutators touch (see
//! [`PropertyGraph::drain_touched`]), which is what lets the conformance
//! check of an update look at the delta instead of the whole graph.

use crate::value::Value;
use s3pg_rdf::fxhash::FxHashMap;
use s3pg_rdf::{Interner, Sym};
use std::borrow::Cow;

/// Identifier of a node in a [`PropertyGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

/// Identifier of an edge in a [`PropertyGraph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub u32);

/// Property key under which S3PG stores the originating IRI of a node.
pub const IRI_KEY: &str = "iri";
/// Property key under which S3PG stores the value of a literal-carrying node
/// (`ov` for "object value", as in the paper's Q22 translation
/// `COALESCE(tn.ov, tn.iri)`).
pub const VALUE_KEY: &str = "ov";

/// A node: label set plus record.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Node {
    pub labels: Vec<Sym>,
    pub props: Vec<(Sym, Value)>,
}

/// An edge: endpoints, label set, record.
#[derive(Debug, Clone, PartialEq)]
pub struct Edge {
    pub src: NodeId,
    pub dst: NodeId,
    pub labels: Vec<Sym>,
    pub props: Vec<(Sym, Value)>,
}

/// The elements a graph's mutators changed between two
/// [`PropertyGraph::drain_touched`] calls, each list sorted and free of
/// duplicates. `nodes` are nodes whose labels, properties or liveness
/// changed (new nodes included); `edges` are edges added or removed. Edge
/// properties are not tracked: no conformance rule reads them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Touched {
    nodes: Vec<NodeId>,
    edges: Vec<EdgeId>,
}

impl Touched {
    /// The touched nodes, ascending.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The touched edges, ascending.
    pub fn edges(&self) -> &[EdgeId] {
        &self.edges
    }
}

/// An in-memory property graph with label, adjacency, and IRI indexes.
#[derive(Debug, Default, Clone)]
pub struct PropertyGraph {
    interner: Interner,
    nodes: Vec<Node>,
    node_live: Vec<bool>,
    live_node_count: usize,
    edges: Vec<Edge>,
    edge_live: Vec<bool>,
    live_edge_count: usize,
    by_label: FxHashMap<Sym, Vec<NodeId>>,
    out_edges: Vec<Vec<EdgeId>>,
    in_edges: Vec<Vec<EdgeId>>,
    by_iri: FxHashMap<String, NodeId>,
    iri_key: Option<Sym>,
    /// What changed since the last drain; `None` until the first drain
    /// turns recording on, so bulk transforms pay nothing.
    touched: Option<Touched>,
}

impl PropertyGraph {
    /// Create an empty property graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a graph sized for roughly `nodes`/`edges` elements.
    pub fn with_capacity(nodes: usize, edges: usize) -> Self {
        PropertyGraph {
            nodes: Vec::with_capacity(nodes),
            edges: Vec::with_capacity(edges),
            out_edges: Vec::with_capacity(nodes),
            in_edges: Vec::with_capacity(nodes),
            ..Default::default()
        }
    }

    // ---- change tracking -------------------------------------------------

    /// Take what the mutators touched since the previous call and keep
    /// recording. The first call turns recording on and returns `None`:
    /// nothing was recorded, so a caller must treat everything as changed.
    /// A clone inherits the recording state and what was recorded so far.
    pub fn drain_touched(&mut self) -> Option<Touched> {
        let mut drained = self.touched.replace(Touched::default())?;
        drained.nodes.sort_unstable();
        drained.nodes.dedup();
        drained.edges.sort_unstable();
        drained.edges.dedup();
        Some(drained)
    }

    #[inline]
    fn touch_node(&mut self, id: NodeId) {
        if let Some(touched) = &mut self.touched {
            touched.nodes.push(id);
        }
    }

    #[inline]
    fn touch_edge(&mut self, id: EdgeId) {
        if let Some(touched) = &mut self.touched {
            touched.edges.push(id);
        }
    }

    // ---- interning -------------------------------------------------------

    /// Intern a label or key string.
    pub fn intern(&mut self, s: &str) -> Sym {
        self.interner.intern(s)
    }

    /// Resolve an interned label/key.
    #[inline]
    pub fn resolve(&self, sym: Sym) -> &str {
        self.interner.resolve(sym)
    }

    /// Borrow the interner.
    pub fn interner(&self) -> &Interner {
        &self.interner
    }

    // ---- nodes -----------------------------------------------------------

    /// Add a node with the given labels; returns its id.
    pub fn add_node<S: AsRef<str>>(&mut self, labels: impl IntoIterator<Item = S>) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        let mut node = Node::default();
        for l in labels {
            let sym = self.interner.intern(l.as_ref());
            if !node.labels.contains(&sym) {
                node.labels.push(sym);
                self.by_label.entry(sym).or_default().push(id);
            }
        }
        self.nodes.push(node);
        self.node_live.push(true);
        self.live_node_count += 1;
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        self.touch_node(id);
        id
    }

    /// Remove (tombstone) a node. Refuses while live edges are attached —
    /// remove those first. Returns `true` on success.
    pub fn remove_node(&mut self, id: NodeId) -> bool {
        if !self.node_live[id.0 as usize] {
            return false;
        }
        let has_live_edges = self.out_edges[id.0 as usize]
            .iter()
            .chain(self.in_edges[id.0 as usize].iter())
            .any(|&e| self.edge_live[e.0 as usize]);
        if has_live_edges {
            return false;
        }
        self.node_live[id.0 as usize] = false;
        self.live_node_count -= 1;
        self.touch_node(id);
        if let Some(Value::String(iri)) = self.prop(id, IRI_KEY).cloned() {
            self.by_iri.remove(&iri);
        }
        // Purge the label postings too: in a long-lived graph (the serving
        // write path removes repaired carrier nodes on every delta),
        // tombstones would otherwise accumulate unboundedly and every
        // label scan would pay to skip them.
        for sym in &self.nodes[id.0 as usize].labels {
            if let Some(postings) = self.by_label.get_mut(sym) {
                postings.retain(|&n| n != id);
            }
        }
        true
    }

    /// Whether a node id refers to a live node.
    #[inline]
    pub fn node_is_live(&self, id: NodeId) -> bool {
        self.node_live[id.0 as usize]
    }

    /// Add a label to an existing node (λ is a set: duplicates are ignored).
    pub fn add_label(&mut self, node: NodeId, label: &str) {
        let sym = self.interner.intern(label);
        self.add_label_sym(node, sym);
    }

    /// [`Self::add_label`] with a pre-interned label.
    pub fn add_label_sym(&mut self, node: NodeId, sym: Sym) {
        let n = &mut self.nodes[node.0 as usize];
        if !n.labels.contains(&sym) {
            n.labels.push(sym);
            // Keep postings id-sorted even when a node is relabelled after
            // later nodes joined the bucket: the query engines rely on
            // label scans and index probes enumerating in the same order.
            let postings = self.by_label.entry(sym).or_default();
            if let Err(pos) = postings.binary_search(&node) {
                postings.insert(pos, node);
            }
            self.touch_node(node);
        }
    }

    /// Remove a label from a node; returns `true` if it was present.
    pub fn remove_label(&mut self, node: NodeId, label: &str) -> bool {
        let Some(sym) = self.interner.get(label) else {
            return false;
        };
        let n = &mut self.nodes[node.0 as usize];
        let Some(pos) = n.labels.iter().position(|&l| l == sym) else {
            return false;
        };
        n.labels.remove(pos);
        if let Some(postings) = self.by_label.get_mut(&sym) {
            postings.retain(|&id| id != node);
        }
        self.touch_node(node);
        true
    }

    /// Set a property on a node, replacing any existing value for the key.
    /// Setting the [`IRI_KEY`] maintains the unique IRI index.
    pub fn set_prop(&mut self, node: NodeId, key: &str, value: Value) {
        let sym = self.interner.intern(key);
        self.set_prop_sym(node, sym, value);
    }

    /// Accumulate a value into a node property: absent → scalar; present →
    /// array append (NeoSemantics-style multi-value handling).
    pub fn push_prop(&mut self, node: NodeId, key: &str, value: Value) {
        let sym = self.interner.intern(key);
        self.push_prop_sym(node, sym, value);
    }

    /// Read a node property by key name.
    pub fn prop(&self, node: NodeId, key: &str) -> Option<&Value> {
        let sym = self.interner.get(key)?;
        self.nodes[node.0 as usize]
            .props
            .iter()
            .find(|(k, _)| *k == sym)
            .map(|(_, v)| v)
    }

    /// Borrow a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Labels of a node, resolved to strings.
    pub fn labels_of(&self, id: NodeId) -> Vec<&str> {
        self.nodes[id.0 as usize]
            .labels
            .iter()
            .map(|&l| self.interner.resolve(l))
            .collect()
    }

    /// Whether a node carries a label.
    pub fn has_label(&self, id: NodeId, label: &str) -> bool {
        match self.interner.get(label) {
            Some(sym) => self.nodes[id.0 as usize].labels.contains(&sym),
            None => false,
        }
    }

    /// All live node ids carrying `label`, in insertion (id) order. The
    /// postings are purged on node/label removal, so the bucket contains
    /// only live nodes and is borrowed directly — no per-call allocation.
    pub fn nodes_with_label(&self, label: &str) -> &[NodeId] {
        self.interner
            .get(label)
            .and_then(|sym| self.by_label.get(&sym))
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Find the node representing an RDF entity via the unique `iri` index.
    pub fn node_by_iri(&self, iri: &str) -> Option<NodeId> {
        self.by_iri.get(iri).copied()
    }

    /// All live node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.nodes.len() as u32)
            .map(NodeId)
            .filter(|&n| self.node_live[n.0 as usize])
    }

    /// Number of live nodes.
    pub fn node_count(&self) -> usize {
        self.live_node_count
    }

    /// Number of node ids ever handed out, tombstoned ones included: every
    /// raw `NodeId` is below this.
    pub(crate) fn node_slots(&self) -> usize {
        self.nodes.len()
    }

    /// Estimated resident heap footprint of the store: the interner, node
    /// and edge arrays (with their per-element label/property storage),
    /// tombstone vectors, adjacency lists, and the label and IRI indexes.
    /// Feeds the `s3pg_mem_pg_bytes` gauge.
    pub fn deep_size_bytes(&self) -> usize {
        use s3pg_obs::mem::{map_bytes, vec_bytes};
        let record = |labels: &Vec<Sym>, props: &Vec<(Sym, Value)>| {
            vec_bytes(labels)
                + vec_bytes(props)
                + props
                    .iter()
                    .map(|(_, v)| v.heap_size_bytes())
                    .sum::<usize>()
        };
        let adjacency = |lists: &Vec<Vec<EdgeId>>| {
            vec_bytes(lists) + lists.iter().map(vec_bytes).sum::<usize>()
        };
        self.interner.deep_size_bytes()
            + vec_bytes(&self.nodes)
            + self
                .nodes
                .iter()
                .map(|n| record(&n.labels, &n.props))
                .sum::<usize>()
            + vec_bytes(&self.edges)
            + self
                .edges
                .iter()
                .map(|e| record(&e.labels, &e.props))
                .sum::<usize>()
            + vec_bytes(&self.node_live)
            + vec_bytes(&self.edge_live)
            + adjacency(&self.out_edges)
            + adjacency(&self.in_edges)
            + map_bytes::<Sym, Vec<NodeId>>(self.by_label.capacity())
            + self.by_label.values().map(vec_bytes).sum::<usize>()
            + map_bytes::<String, NodeId>(self.by_iri.capacity())
            + self.by_iri.keys().map(|k| k.capacity()).sum::<usize>()
            + self
                .touched
                .as_ref()
                .map_or(0, |t| vec_bytes(&t.nodes) + vec_bytes(&t.edges))
    }

    // ---- bulk insertion --------------------------------------------------
    //
    // Symbol-level entry points for the transform's phase 2: it resolves a
    // label or key to its symbol once per pass, so each element it writes
    // is pure integer work (no hashing, no string allocation).

    /// Add a node carrying one pre-interned label; returns its id.
    pub fn add_node_with_label_sym(&mut self, label: Sym) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        self.nodes.push(Node {
            labels: vec![label],
            props: Vec::new(),
        });
        self.node_live.push(true);
        self.live_node_count += 1;
        self.out_edges.push(Vec::new());
        self.in_edges.push(Vec::new());
        self.by_label.entry(label).or_default().push(id);
        self.touch_node(id);
        id
    }

    /// Add an edge whose label is already interned; returns its id.
    pub fn add_edge_sym(&mut self, src: NodeId, dst: NodeId, label: Sym) -> EdgeId {
        let id = EdgeId(u32::try_from(self.edges.len()).expect("too many edges"));
        self.edges.push(Edge {
            src,
            dst,
            labels: vec![label],
            props: Vec::new(),
        });
        self.edge_live.push(true);
        self.live_edge_count += 1;
        self.out_edges[src.0 as usize].push(id);
        self.in_edges[dst.0 as usize].push(id);
        self.touch_edge(id);
        id
    }

    /// [`Self::set_prop`] with a pre-interned key. Maintains the unique IRI
    /// index when `key` resolves to [`IRI_KEY`].
    pub fn set_prop_sym(&mut self, node: NodeId, key: Sym, value: Value) {
        if self.interner.resolve(key) == IRI_KEY {
            self.iri_key = Some(key);
            if let Value::String(iri) = &value {
                self.by_iri.insert(iri.clone(), node);
            }
        }
        let props = &mut self.nodes[node.0 as usize].props;
        match props.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => *v = value,
            None => props.push((key, value)),
        }
        self.touch_node(node);
    }

    /// [`Self::push_prop`] with a pre-interned key.
    pub fn push_prop_sym(&mut self, node: NodeId, key: Sym, value: Value) {
        let props = &mut self.nodes[node.0 as usize].props;
        match props.iter_mut().find(|(k, _)| *k == key) {
            Some((_, v)) => v.push(value),
            None => props.push((key, value)),
        }
        self.touch_node(node);
    }

    /// Live nodes carrying `label` whose scalar property `key` equals
    /// `value`, in id order: a filter over the label's postings. A list
    /// never matches — Cypher equality compares a list to a scalar as
    /// "incomparable" — so this answers exactly what the frozen form's
    /// equality index answers.
    pub fn nodes_with_label_prop(&self, label: &str, key: &str, value: &Value) -> Vec<NodeId> {
        let Some(key) = self.interner.get(key) else {
            return Vec::new();
        };
        if matches!(value, Value::List(_)) {
            return Vec::new();
        }
        self.nodes_with_label(label)
            .iter()
            .copied()
            .filter(|&id| {
                self.nodes[id.0 as usize]
                    .props
                    .iter()
                    .any(|(k, v)| *k == key && v == value)
            })
            .collect()
    }

    /// Exact number of live nodes carrying `label` — O(1), since label
    /// postings are purged on removal. The planner's primary cardinality
    /// statistic.
    pub fn label_cardinality(&self, label: &str) -> usize {
        self.interner
            .get(label)
            .and_then(|sym| self.by_label.get(&sym))
            .map(Vec::len)
            .unwrap_or(0)
    }

    // ---- edges -----------------------------------------------------------

    /// Add an edge `src -[label]-> dst`; returns its id.
    pub fn add_edge(&mut self, src: NodeId, dst: NodeId, label: &str) -> EdgeId {
        let id = EdgeId(u32::try_from(self.edges.len()).expect("too many edges"));
        let sym = self.interner.intern(label);
        self.edges.push(Edge {
            src,
            dst,
            labels: vec![sym],
            props: Vec::new(),
        });
        self.edge_live.push(true);
        self.live_edge_count += 1;
        self.out_edges[src.0 as usize].push(id);
        self.in_edges[dst.0 as usize].push(id);
        self.touch_edge(id);
        id
    }

    /// Remove one edge `src -[label]-> dst` (tombstoned); returns `true` if
    /// such an edge existed. Used by the incremental transformation to apply
    /// deletions from an RDF Δ without recomputation.
    pub fn remove_edge(&mut self, src: NodeId, dst: NodeId, label: &str) -> bool {
        let Some(sym) = self.interner.get(label) else {
            return false;
        };
        let found = self.out_edges[src.0 as usize].iter().copied().find(|&e| {
            self.edge_live[e.0 as usize] && {
                let edge = &self.edges[e.0 as usize];
                edge.dst == dst && edge.labels.contains(&sym)
            }
        });
        match found {
            Some(e) => {
                self.edge_live[e.0 as usize] = false;
                self.live_edge_count -= 1;
                self.touch_edge(e);
                true
            }
            None => false,
        }
    }

    /// Whether an edge id refers to a live (not removed) edge.
    #[inline]
    pub fn edge_is_live(&self, id: EdgeId) -> bool {
        self.edge_live[id.0 as usize]
    }

    /// Remove a specific edge by id; returns `true` if it was live.
    pub fn remove_edge_by_id(&mut self, id: EdgeId) -> bool {
        if self.edge_live[id.0 as usize] {
            self.edge_live[id.0 as usize] = false;
            self.live_edge_count -= 1;
            self.touch_edge(id);
            true
        } else {
            false
        }
    }

    /// Remove a property from a node; returns the removed value.
    pub fn remove_prop(&mut self, node: NodeId, key: &str) -> Option<Value> {
        let sym = self.interner.get(key)?;
        let props = &mut self.nodes[node.0 as usize].props;
        let pos = props.iter().position(|(k, _)| *k == sym)?;
        let value = props.remove(pos).1;
        self.touch_node(node);
        Some(value)
    }

    /// Remove one occurrence of `value` from a node property: scalars are
    /// removed entirely, arrays lose one matching element (collapsing to a
    /// scalar when one element remains).
    pub fn remove_prop_value(&mut self, node: NodeId, key: &str, value: &Value) -> bool {
        let Some(sym) = self.interner.get(key) else {
            return false;
        };
        let props = &mut self.nodes[node.0 as usize].props;
        let Some(pos) = props.iter().position(|(k, _)| *k == sym) else {
            return false;
        };
        match &mut props[pos].1 {
            Value::List(items) => {
                let Some(i) = items.iter().position(|v| v == value) else {
                    return false;
                };
                items.remove(i);
                if items.len() == 1 {
                    props[pos].1 = items.pop().unwrap();
                } else if items.is_empty() {
                    props.remove(pos);
                }
            }
            scalar if scalar == value => {
                props.remove(pos);
            }
            _ => return false,
        }
        self.touch_node(node);
        true
    }

    /// Set a property on an edge.
    pub fn set_edge_prop(&mut self, edge: EdgeId, key: &str, value: Value) {
        let sym = self.interner.intern(key);
        let props = &mut self.edges[edge.0 as usize].props;
        match props.iter_mut().find(|(k, _)| *k == sym) {
            Some((_, v)) => *v = value,
            None => props.push((sym, value)),
        }
    }

    /// Read an edge property by key name.
    pub fn edge_prop(&self, edge: EdgeId, key: &str) -> Option<&Value> {
        let sym = self.interner.get(key)?;
        self.edges[edge.0 as usize]
            .props
            .iter()
            .find(|(k, _)| *k == sym)
            .map(|(_, v)| v)
    }

    /// Borrow an edge.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0 as usize]
    }

    /// Labels of an edge, resolved.
    pub fn edge_labels_of(&self, id: EdgeId) -> Vec<&str> {
        self.edges[id.0 as usize]
            .labels
            .iter()
            .map(|&l| self.interner.resolve(l))
            .collect()
    }

    /// Live outgoing edges of a node. Borrowing iterator over the adjacency
    /// list — no per-call allocation; this runs in the innermost match loop.
    pub fn out_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.out_edges[node.0 as usize]
            .iter()
            .copied()
            .filter(move |&e| self.edge_live[e.0 as usize])
    }

    /// Live incoming edges of a node, as a borrowing iterator.
    pub fn in_edges(&self, node: NodeId) -> impl Iterator<Item = EdgeId> + '_ {
        self.in_edges[node.0 as usize]
            .iter()
            .copied()
            .filter(move |&e| self.edge_live[e.0 as usize])
    }

    /// All live edge ids.
    pub fn edge_ids(&self) -> impl Iterator<Item = EdgeId> + '_ {
        (0..self.edges.len() as u32)
            .map(EdgeId)
            .filter(|&e| self.edge_live[e.0 as usize])
    }

    /// Number of live edges.
    pub fn edge_count(&self) -> usize {
        self.live_edge_count
    }

    /// Number of distinct edge labels with at least one live edge
    /// ("# of Rel Types" in Table 5): one pass over the live edges.
    pub fn relationship_type_count(&self) -> usize {
        let mut seen = vec![false; self.interner.len()];
        self.edge_ids()
            .flat_map(|e| &self.edges[e.0 as usize].labels)
            .filter(|l| !std::mem::replace(&mut seen[l.index()], true))
            .count()
    }

    /// Whether a live edge `src -[label]-> dst` exists.
    pub fn has_edge(&self, src: NodeId, dst: NodeId, label: &str) -> bool {
        let Some(sym) = self.interner.get(label) else {
            return false;
        };
        self.out_edges[src.0 as usize].iter().any(|&e| {
            self.edge_live[e.0 as usize] && {
                let edge = &self.edges[e.0 as usize];
                edge.dst == dst && edge.labels.contains(&sym)
            }
        })
    }

    /// Build the read-optimized [`CompactGraph`](crate::compact::CompactGraph)
    /// form of this graph: tombstones compacted away, adjacency in CSR
    /// layout, string property values dictionary-encoded.
    pub fn freeze(&self) -> crate::compact::CompactGraph {
        crate::compact::CompactGraph::freeze(self)
    }
}

impl crate::read::PgRead for PropertyGraph {
    fn node_count(&self) -> usize {
        self.live_node_count
    }

    fn edge_count(&self) -> usize {
        self.live_edge_count
    }

    fn all_node_ids(&self) -> Vec<NodeId> {
        self.node_ids().collect()
    }

    fn nodes_with_label(&self, label: &str) -> &[NodeId] {
        PropertyGraph::nodes_with_label(self, label)
    }

    fn label_cardinality(&self, label: &str) -> usize {
        PropertyGraph::label_cardinality(self, label)
    }

    fn nodes_with_label_prop(&self, label: &str, key: &str, value: &Value) -> Cow<'_, [NodeId]> {
        Cow::Owned(PropertyGraph::nodes_with_label_prop(
            self, label, key, value,
        ))
    }

    fn key_sym(&self, name: &str) -> Option<Sym> {
        self.interner.get(name)
    }

    fn node_label_syms(&self, id: NodeId) -> &[Sym] {
        &self.nodes[id.0 as usize].labels
    }

    fn edge_label_syms(&self, id: EdgeId) -> &[Sym] {
        &self.edges[id.0 as usize].labels
    }

    fn node_prop_sym(&self, id: NodeId, key: Sym) -> Option<Value> {
        let props = &self.nodes[id.0 as usize].props;
        props
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    }

    fn edge_prop_sym(&self, id: EdgeId, key: Sym) -> Option<Value> {
        let props = &self.edges[id.0 as usize].props;
        props
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, v)| v.clone())
    }

    fn node_scalar(&self, id: NodeId, key: Sym) -> Option<crate::value::Scalar<'_>> {
        let props = &self.nodes[id.0 as usize].props;
        props.iter().find(|(k, _)| *k == key)?.1.as_scalar()
    }

    fn edge_scalar(&self, id: EdgeId, key: Sym) -> Option<crate::value::Scalar<'_>> {
        let props = &self.edges[id.0 as usize].props;
        props.iter().find(|(k, _)| *k == key)?.1.as_scalar()
    }

    fn edge_endpoints(&self, id: EdgeId) -> (NodeId, NodeId) {
        let e = &self.edges[id.0 as usize];
        (e.src, e.dst)
    }

    fn out_adjacency(&self, id: NodeId) -> &[EdgeId] {
        &self.out_edges[id.0 as usize]
    }

    fn in_adjacency(&self, id: NodeId) -> &[EdgeId] {
        &self.in_edges[id.0 as usize]
    }

    fn edge_live(&self, id: EdgeId) -> bool {
        self.edge_live[id.0 as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn figure2c() -> (PropertyGraph, NodeId, NodeId, NodeId) {
        // The PG of Figure 2c: bob (Person,Student,GS), alice
        // (Person,Faculty,Professor), d1 (Department).
        let mut pg = PropertyGraph::new();
        let bob = pg.add_node(["Person", "Student", "GS"]);
        pg.set_prop(bob, IRI_KEY, Value::String("http://ex/bob".into()));
        pg.set_prop(bob, "regNo", Value::String("Bs12".into()));
        let alice = pg.add_node(["Person", "Faculty", "Professor"]);
        pg.set_prop(alice, IRI_KEY, Value::String("http://ex/alice".into()));
        pg.set_prop(alice, "name", Value::String("Alice".into()));
        let d1 = pg.add_node(["Department"]);
        pg.set_prop(d1, IRI_KEY, Value::String("http://ex/cs".into()));
        pg.set_prop(d1, "name", Value::String("Computer Science".into()));
        pg.add_edge(bob, alice, "advisedBy");
        pg.add_edge(alice, d1, "worksFor");
        (pg, bob, alice, d1)
    }

    #[test]
    fn deep_size_counts_records_and_indexes() {
        let (pg, ..) = figure2c();
        let size = pg.deep_size_bytes();
        assert!(size >= pg.interner().deep_size_bytes());
        let mut bigger = pg.clone();
        for n in 0..100 {
            let id = bigger.add_node(["Person"]);
            bigger.set_prop(id, IRI_KEY, Value::String(format!("http://ex/p{n}")));
        }
        assert!(bigger.deep_size_bytes() > size);
    }

    #[test]
    fn multi_labels_are_sets() {
        let (pg, bob, ..) = figure2c();
        assert_eq!(pg.labels_of(bob), vec!["Person", "Student", "GS"]);
        let mut pg = pg;
        pg.add_label(bob, "Person"); // duplicate ignored
        assert_eq!(pg.labels_of(bob).len(), 3);
        assert_eq!(pg.nodes_with_label("Person").len(), 2);
    }

    #[test]
    fn remove_node_purges_label_postings() {
        let mut pg = PropertyGraph::new();
        let a = pg.add_node(["STRING"]);
        let b = pg.add_node(["STRING"]);
        assert!(pg.remove_node(a));
        let sym = pg.interner.get("STRING").unwrap();
        assert_eq!(pg.by_label[&sym], vec![b]);
        assert_eq!(pg.nodes_with_label("STRING"), vec![b]);
        assert!(!pg.remove_node(a)); // already dead
    }

    #[test]
    fn iri_index_resolves_entities() {
        let (pg, bob, ..) = figure2c();
        assert_eq!(pg.node_by_iri("http://ex/bob"), Some(bob));
        assert_eq!(pg.node_by_iri("http://ex/nobody"), None);
    }

    #[test]
    fn set_prop_replaces() {
        let (mut pg, bob, ..) = figure2c();
        pg.set_prop(bob, "regNo", Value::String("Bs99".into()));
        assert_eq!(pg.prop(bob, "regNo"), Some(&Value::String("Bs99".into())));
        assert_eq!(pg.node(bob).props.len(), 2); // iri + regNo
    }

    #[test]
    fn push_prop_accumulates_arrays() {
        let (mut pg, bob, ..) = figure2c();
        pg.push_prop(bob, "nick", Value::String("bobby".into()));
        pg.push_prop(bob, "nick", Value::String("rob".into()));
        assert_eq!(
            pg.prop(bob, "nick"),
            Some(&Value::List(vec![
                Value::String("bobby".into()),
                Value::String("rob".into())
            ]))
        );
    }

    #[test]
    fn adjacency_indexes() {
        let (pg, bob, alice, d1) = figure2c();
        assert_eq!(pg.out_edges(bob).count(), 1);
        assert_eq!(pg.in_edges(alice).count(), 1);
        assert_eq!(pg.out_edges(alice).count(), 1);
        assert_eq!(pg.in_edges(d1).count(), 1);
        let e = pg.edge(pg.out_edges(bob).next().unwrap());
        assert_eq!(e.src, bob);
        assert_eq!(e.dst, alice);
    }

    #[test]
    fn edge_label_index_and_counts() {
        let (mut pg, bob, alice, _) = figure2c();
        assert_eq!(pg.edge_count(), 2);
        assert_eq!(pg.relationship_type_count(), 2);
        // A second edge of a known label adds no type; a label whose last
        // live edge goes stops counting.
        pg.add_edge(alice, bob, "advisedBy");
        assert_eq!(pg.relationship_type_count(), 2);
        assert!(pg.remove_edge(alice, bob, "advisedBy"));
        assert!(pg.remove_edge(bob, alice, "advisedBy"));
        assert_eq!(pg.relationship_type_count(), 1);
    }

    #[test]
    fn has_edge_detects_duplicates() {
        let (mut pg, bob, alice, _) = figure2c();
        assert!(pg.has_edge(bob, alice, "advisedBy"));
        assert!(!pg.has_edge(alice, bob, "advisedBy"));
        assert!(!pg.has_edge(bob, alice, "worksFor"));
        pg.add_edge(bob, alice, "advisedBy");
        assert_eq!(pg.edge_count(), 3); // multigraph: duplicates allowed
    }

    #[test]
    fn edge_props() {
        let (mut pg, bob, alice, _) = figure2c();
        let e = pg.add_edge(bob, alice, "knows");
        pg.set_edge_prop(e, "since", Value::Year(2020));
        assert_eq!(pg.edge_prop(e, "since"), Some(&Value::Year(2020)));
        assert_eq!(pg.edge_prop(e, "until"), None);
    }

    #[test]
    fn sym_entry_points_match_string_entry_points() {
        let mut pg = PropertyGraph::with_capacity(2, 1);
        let person = pg.intern("Person");
        let knows = pg.intern("knows");
        let iri = pg.intern(IRI_KEY);
        let nick = pg.intern("nick");
        let a = pg.add_node_with_label_sym(person);
        let b = pg.add_node_with_label_sym(person);
        pg.set_prop_sym(a, iri, Value::String("http://ex/a".into()));
        pg.push_prop_sym(a, nick, Value::String("x".into()));
        pg.push_prop_sym(a, nick, Value::String("y".into()));
        let e = pg.add_edge_sym(a, b, knows);

        assert_eq!(pg.nodes_with_label("Person"), vec![a, b]);
        // set_prop_sym on the iri key must maintain the unique IRI index.
        assert_eq!(pg.node_by_iri("http://ex/a"), Some(a));
        assert_eq!(
            pg.prop(a, "nick"),
            Some(&Value::List(vec![
                Value::String("x".into()),
                Value::String("y".into())
            ]))
        );
        assert_eq!(pg.edge_labels_of(e), ["knows"]);
        assert!(pg.out_edges(a).eq([e]));
        assert!(pg.in_edges(b).eq([e]));
        assert!(pg.has_edge(a, b, "knows"));
    }

    #[test]
    fn equality_probes_filter_label_postings() {
        let (pg, bob, alice, _) = figure2c();
        assert_eq!(
            pg.nodes_with_label_prop("Person", "name", &Value::String("Alice".into())),
            &[alice]
        );
        // Reachable under every label the node carries.
        assert_eq!(
            pg.nodes_with_label_prop("Professor", "name", &Value::String("Alice".into())),
            &[alice]
        );
        assert_eq!(
            pg.nodes_with_label_prop("Person", "regNo", &Value::String("Bs12".into())),
            &[bob]
        );
        // Misses: wrong value, wrong label, unknown key.
        assert!(pg
            .nodes_with_label_prop("Person", "name", &Value::String("Bob".into()))
            .is_empty());
        assert!(pg
            .nodes_with_label_prop("Department", "regNo", &Value::String("Bs12".into()))
            .is_empty());
        assert!(pg
            .nodes_with_label_prop("Person", "missing", &Value::Int(1))
            .is_empty());
    }

    #[test]
    fn equality_probes_follow_set_remove_and_relabel() {
        let (mut pg, bob, ..) = figure2c();
        let probe = |pg: &PropertyGraph, v: &str| {
            pg.nodes_with_label_prop("Person", "regNo", &Value::String(v.into()))
        };
        // set_prop replaces: the old value no longer matches.
        pg.set_prop(bob, "regNo", Value::String("Bs99".into()));
        assert!(probe(&pg, "Bs12").is_empty());
        assert_eq!(probe(&pg, "Bs99"), vec![bob]);
        // remove_prop: nothing matches.
        pg.remove_prop(bob, "regNo");
        assert!(probe(&pg, "Bs99").is_empty());
        // add_label makes existing props reachable under the new label;
        // remove_label takes them back out.
        pg.set_prop(bob, "regNo", Value::String("Bs99".into()));
        pg.add_label(bob, "Alum");
        assert_eq!(
            pg.nodes_with_label_prop("Alum", "regNo", &Value::String("Bs99".into())),
            &[bob]
        );
        pg.remove_label(bob, "Alum");
        assert!(pg
            .nodes_with_label_prop("Alum", "regNo", &Value::String("Bs99".into()))
            .is_empty());
    }

    #[test]
    fn equality_probes_skip_lists_and_track_collapse() {
        let mut pg = PropertyGraph::new();
        let n = pg.add_node(["Person"]);
        let probe = |pg: &PropertyGraph, v: &str| {
            pg.nodes_with_label_prop("Person", "nick", &Value::String(v.into()))
        };
        pg.push_prop(n, "nick", Value::String("bobby".into()));
        assert_eq!(probe(&pg, "bobby"), vec![n]); // scalar: matches
        pg.push_prop(n, "nick", Value::String("rob".into()));
        // Now a list: neither element is an equality match.
        assert!(probe(&pg, "bobby").is_empty());
        assert!(probe(&pg, "rob").is_empty());
        // Removing one occurrence collapses back to a matching scalar.
        assert!(pg.remove_prop_value(n, "nick", &Value::String("rob".into())));
        assert_eq!(probe(&pg, "bobby"), vec![n]);
        assert!(pg.remove_prop_value(n, "nick", &Value::String("bobby".into())));
        assert!(probe(&pg, "bobby").is_empty());
    }

    #[test]
    fn equality_probes_skip_removed_nodes() {
        let mut pg = PropertyGraph::new();
        let a = pg.add_node(["Person"]);
        pg.set_prop(a, "name", Value::String("A".into()));
        let b = pg.add_node(["Person"]);
        pg.set_prop(b, "name", Value::String("A".into()));
        assert_eq!(
            pg.nodes_with_label_prop("Person", "name", &Value::String("A".into())),
            &[a, b]
        );
        assert!(pg.remove_node(a));
        assert_eq!(
            pg.nodes_with_label_prop("Person", "name", &Value::String("A".into())),
            &[b]
        );
    }

    #[test]
    fn cardinality_statistics() {
        let (mut pg, bob, alice, _) = figure2c();
        assert_eq!(pg.label_cardinality("Person"), 2);
        assert_eq!(pg.label_cardinality("Department"), 1);
        assert_eq!(pg.label_cardinality("nothing"), 0);
        assert_eq!(pg.edge_count(), 2);
        let e = pg.add_edge(bob, alice, "advisedBy");
        assert_eq!(pg.edge_count(), 3);
        pg.remove_edge_by_id(e);
        assert_eq!(pg.edge_count(), 2);
    }

    #[test]
    fn drain_touched_records_only_after_the_first_drain() {
        let (mut pg, bob, alice, _) = figure2c();
        assert_eq!(pg.drain_touched(), None, "nothing recorded before");
        assert_eq!(pg.drain_touched(), Some(Touched::default()));

        pg.set_prop(bob, "nick", Value::String("bobby".into()));
        pg.add_label(alice, "Alum");
        let knows = pg.add_edge(alice, bob, "knows");
        pg.set_edge_prop(knows, "since", Value::Year(2020));
        pg.push_prop(bob, "nick", Value::String("rob".into()));
        let carrier = pg.add_node(["STRING"]);
        assert!(pg.remove_edge(bob, alice, "advisedBy"));
        assert_eq!(
            pg.drain_touched(),
            Some(Touched {
                nodes: vec![bob, alice, carrier],
                edges: vec![EdgeId(0), knows],
            })
        );
        // A failed mutation and an edge property touch nothing.
        assert!(!pg.remove_label(alice, "Nope"));
        pg.set_edge_prop(knows, "until", Value::Year(2021));
        assert_eq!(pg.drain_touched(), Some(Touched::default()));

        // A clone keeps recording.
        let mut copy = pg.clone();
        assert!(copy.remove_node(carrier));
        assert_eq!(copy.drain_touched().unwrap().nodes(), [carrier]);
        assert_eq!(pg.drain_touched(), Some(Touched::default()));
    }

    #[test]
    fn empty_label_set_is_allowed() {
        let mut pg = PropertyGraph::new();
        let n = pg.add_node(Vec::<&str>::new());
        assert!(pg.labels_of(n).is_empty());
        assert_eq!(pg.node_count(), 1);
    }
}
