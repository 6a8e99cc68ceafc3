//! The shape-schema model (Definition 2.2 of the paper).

use s3pg_rdf::fxhash::FxHashMap;
use s3pg_rdf::vocab;
use std::fmt;

/// Min/max cardinality constraint `C_p = (n, m)`, `m = None` meaning `∞`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Cardinality {
    pub min: u32,
    pub max: Option<u32>,
}

impl Cardinality {
    /// `[0..*]` — completely unconstrained.
    pub const ANY: Cardinality = Cardinality { min: 0, max: None };
    /// `[1..1]` — mandatory single value.
    pub const ONE: Cardinality = Cardinality {
        min: 1,
        max: Some(1),
    };
    /// `[0..1]` — optional single value.
    pub const OPTIONAL: Cardinality = Cardinality {
        min: 0,
        max: Some(1),
    };
    /// `[1..*]` — at least one value.
    pub const AT_LEAST_ONE: Cardinality = Cardinality { min: 1, max: None };

    /// Construct a cardinality, normalising `max < min` to `max = min`.
    pub fn new(min: u32, max: Option<u32>) -> Self {
        let max = max.map(|m| m.max(min));
        Cardinality { min, max }
    }

    /// Whether `count` occurrences satisfy this constraint.
    pub fn admits(self, count: usize) -> bool {
        count >= self.min as usize && self.max.is_none_or(|m| count <= m as usize)
    }

    /// Least upper bound of two cardinalities (used by extraction and by
    /// monotone schema updates: widening only).
    pub fn widen(self, other: Cardinality) -> Cardinality {
        Cardinality {
            min: self.min.min(other.min),
            max: match (self.max, other.max) {
                (Some(a), Some(b)) => Some(a.max(b)),
                _ => None,
            },
        }
    }
}

impl fmt::Display for Cardinality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max {
            Some(m) => write!(f, "[{}..{}]", self.min, m),
            None => write!(f, "[{}..*]", self.min),
        }
    }
}

/// One alternative in a property shape's target type set `T_p`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum TypeConstraint {
    /// A literal datatype constraint (`sh:nodeKind sh:Literal` +
    /// `sh:datatype`), e.g. `xsd:string`.
    Datatype(String),
    /// A class value type constraint (`sh:nodeKind sh:IRI` + `sh:class`).
    Class(String),
    /// A node-shape reference (`sh:node`), Definition 2.3's "node type
    /// value-based constraint".
    NodeShape(String),
    /// `sh:nodeKind sh:IRI` with no class restriction.
    AnyIri,
}

impl TypeConstraint {
    /// Whether this alternative admits literal values.
    pub fn is_literal(&self) -> bool {
        matches!(self, TypeConstraint::Datatype(_))
    }

    /// The IRI carried by this constraint, if any.
    pub fn iri(&self) -> Option<&str> {
        match self {
            TypeConstraint::Datatype(iri)
            | TypeConstraint::Class(iri)
            | TypeConstraint::NodeShape(iri) => Some(iri),
            TypeConstraint::AnyIri => None,
        }
    }
}

/// The taxonomy of property-shape kinds from Figure 3 of the paper, used for
/// Table 3 statistics and for the query categories of Tables 6–7.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PsCategory {
    /// Single type, literal target.
    SingleTypeLiteral,
    /// Single type, non-literal (IRI) target.
    SingleTypeNonLiteral,
    /// Multiple types, all literal ("MT-Homo (L)").
    MultiTypeHomoLiteral,
    /// Multiple types, all non-literal ("MT-Homo (NL)").
    MultiTypeHomoNonLiteral,
    /// Multiple types mixing literal and non-literal ("MT-Hetero (L+NL)").
    MultiTypeHetero,
}

impl fmt::Display for PsCategory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PsCategory::SingleTypeLiteral => "Single Type (L)",
            PsCategory::SingleTypeNonLiteral => "Single Type (NL)",
            PsCategory::MultiTypeHomoLiteral => "MT-Homo (L)",
            PsCategory::MultiTypeHomoNonLiteral => "MT-Homo (NL)",
            PsCategory::MultiTypeHetero => "MT-Hetero (L+NL)",
        };
        f.write_str(s)
    }
}

/// A property shape `φ: ⟨τ_p, T_p, C_p⟩`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PropertyShape {
    /// The target property IRI `τ_p` (`sh:path`).
    pub path: String,
    /// The alternatives of `T_p`. A single entry models a plain constraint;
    /// several entries model `sh:or`.
    pub alternatives: Vec<TypeConstraint>,
    /// `C_p`.
    pub cardinality: Cardinality,
}

impl PropertyShape {
    /// Build a single-alternative property shape.
    pub fn single(path: impl Into<String>, tc: TypeConstraint, card: Cardinality) -> Self {
        PropertyShape {
            path: path.into(),
            alternatives: vec![tc],
            cardinality: card,
        }
    }

    /// Classify this shape into the Figure 3 taxonomy.
    pub fn category(&self) -> PsCategory {
        let n = self.alternatives.len();
        let literals = self.alternatives.iter().filter(|a| a.is_literal()).count();
        match (n, literals) {
            (0 | 1, 1) => PsCategory::SingleTypeLiteral,
            (0 | 1, _) => PsCategory::SingleTypeNonLiteral,
            (_, l) if l == n => PsCategory::MultiTypeHomoLiteral,
            (_, 0) => PsCategory::MultiTypeHomoNonLiteral,
            _ => PsCategory::MultiTypeHetero,
        }
    }

    /// Whether `T_p` contains more than one alternative.
    pub fn is_multi_type(&self) -> bool {
        self.alternatives.len() > 1
    }

    /// Whether any alternative admits literals.
    pub fn admits_literals(&self) -> bool {
        self.alternatives.iter().any(TypeConstraint::is_literal)
    }

    /// Whether any alternative admits IRIs.
    pub fn admits_iris(&self) -> bool {
        self.alternatives.iter().any(|a| !a.is_literal())
    }

    /// Short local name of the path, for display and PG key generation.
    pub fn local_name(&self) -> &str {
        vocab::local_name(&self.path)
    }
}

/// A node shape `⟨s, τ_s, Φ_s⟩`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeShape {
    /// The shape name `s` (an IRI).
    pub name: String,
    /// The target class `τ_s` when it is a class IRI.
    pub target_class: Option<String>,
    /// Parent node shapes (`sh:node`), modelling inheritance: this shape
    /// "inherits and extends the constraints" of each listed shape.
    pub extends: Vec<String>,
    /// The property shapes `Φ_s`.
    pub properties: Vec<PropertyShape>,
}

impl NodeShape {
    /// Create a node shape targeting `class`.
    pub fn for_class(name: impl Into<String>, class: impl Into<String>) -> Self {
        NodeShape {
            name: name.into(),
            target_class: Some(class.into()),
            extends: Vec::new(),
            properties: Vec::new(),
        }
    }

    /// Short local name of the shape.
    pub fn local_name(&self) -> &str {
        vocab::local_name(&self.name)
    }
}

/// A complete shape schema `S_G`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShapeSchema {
    shapes: Vec<NodeShape>,
    by_name: FxHashMap<String, usize>,
    by_target: FxHashMap<String, usize>,
}

impl ShapeSchema {
    /// Create an empty schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node shape, replacing any shape with the same name.
    pub fn add(&mut self, shape: NodeShape) {
        if let Some(&i) = self.by_name.get(&shape.name) {
            if let Some(tc) = &self.shapes[i].target_class {
                self.by_target.remove(tc);
            }
            if let Some(tc) = &shape.target_class {
                self.by_target.insert(tc.clone(), i);
            }
            self.shapes[i] = shape;
            return;
        }
        let idx = self.shapes.len();
        self.by_name.insert(shape.name.clone(), idx);
        if let Some(tc) = &shape.target_class {
            self.by_target.insert(tc.clone(), idx);
        }
        self.shapes.push(shape);
    }

    /// All node shapes in insertion order.
    pub fn shapes(&self) -> &[NodeShape] {
        &self.shapes
    }

    /// Look up a shape by its name IRI.
    pub fn by_name(&self, name: &str) -> Option<&NodeShape> {
        self.by_name.get(name).map(|&i| &self.shapes[i])
    }

    /// Look up a shape by its target class IRI.
    pub fn by_target_class(&self, class: &str) -> Option<&NodeShape> {
        self.by_target.get(class).map(|&i| &self.shapes[i])
    }

    /// Number of node shapes.
    pub fn len(&self) -> usize {
        self.shapes.len()
    }

    /// Whether the schema has no shapes.
    pub fn is_empty(&self) -> bool {
        self.shapes.is_empty()
    }

    /// The *effective* property shapes of a node shape: its own plus all
    /// inherited ones (`sh:node` ancestors, transitively). Own shapes win on
    /// path conflicts, mirroring how the GS shape of Figure 2b "inherits
    /// `:regNo` from Student".
    pub fn effective_properties(&self, shape: &NodeShape) -> Vec<PropertyShape> {
        let mut out: Vec<PropertyShape> = Vec::new();
        let mut seen_paths: Vec<String> = Vec::new();
        let mut stack: Vec<&NodeShape> = vec![shape];
        let mut visited: Vec<&str> = Vec::new();
        while let Some(s) = stack.pop() {
            if visited.contains(&s.name.as_str()) {
                continue;
            }
            visited.push(&s.name);
            for ps in &s.properties {
                if !seen_paths.contains(&ps.path) {
                    seen_paths.push(ps.path.clone());
                    out.push(ps.clone());
                }
            }
            for parent in &s.extends {
                if let Some(p) = self.by_name(parent) {
                    stack.push(p);
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ps(path: &str, alts: Vec<TypeConstraint>, card: Cardinality) -> PropertyShape {
        PropertyShape {
            path: path.into(),
            alternatives: alts,
            cardinality: card,
        }
    }

    #[test]
    fn cardinality_admits() {
        assert!(Cardinality::ONE.admits(1));
        assert!(!Cardinality::ONE.admits(0));
        assert!(!Cardinality::ONE.admits(2));
        assert!(Cardinality::AT_LEAST_ONE.admits(5));
        assert!(!Cardinality::AT_LEAST_ONE.admits(0));
        assert!(Cardinality::OPTIONAL.admits(0));
        assert!(Cardinality::ANY.admits(100));
    }

    #[test]
    fn cardinality_widen_is_lub() {
        let w = Cardinality::ONE.widen(Cardinality::new(0, Some(3)));
        assert_eq!(w, Cardinality::new(0, Some(3)));
        let w = Cardinality::ONE.widen(Cardinality::AT_LEAST_ONE);
        assert_eq!(w, Cardinality::AT_LEAST_ONE);
    }

    #[test]
    fn cardinality_normalises_max_below_min() {
        let c = Cardinality::new(3, Some(1));
        assert_eq!(c.max, Some(3));
    }

    #[test]
    fn category_classification_matches_figure3() {
        use PsCategory::*;
        use TypeConstraint::*;
        let string = || Datatype(vocab::xsd::STRING.into());
        let date = || Datatype(vocab::xsd::DATE.into());
        let course = || Class("http://ex/Course".into());
        let gc = || Class("http://ex/GradCourse".into());
        assert_eq!(
            ps("p", vec![string()], Cardinality::ONE).category(),
            SingleTypeLiteral
        );
        assert_eq!(
            ps("p", vec![course()], Cardinality::ONE).category(),
            SingleTypeNonLiteral
        );
        assert_eq!(
            ps("p", vec![string(), date()], Cardinality::ONE).category(),
            MultiTypeHomoLiteral
        );
        assert_eq!(
            ps("p", vec![course(), gc()], Cardinality::ONE).category(),
            MultiTypeHomoNonLiteral
        );
        assert_eq!(
            ps("p", vec![string(), course()], Cardinality::ONE).category(),
            MultiTypeHetero
        );
    }

    #[test]
    fn effective_properties_inherit_transitively() {
        let mut schema = ShapeSchema::new();
        let mut person = NodeShape::for_class("http://sh/Person", "http://ex/Person");
        person.properties.push(PropertyShape::single(
            "http://ex/name",
            TypeConstraint::Datatype(vocab::xsd::STRING.into()),
            Cardinality::ONE,
        ));
        let mut student = NodeShape::for_class("http://sh/Student", "http://ex/Student");
        student.extends.push("http://sh/Person".into());
        student.properties.push(PropertyShape::single(
            "http://ex/regNo",
            TypeConstraint::Datatype(vocab::xsd::STRING.into()),
            Cardinality::ONE,
        ));
        let mut gs = NodeShape::for_class("http://sh/GS", "http://ex/GS");
        gs.extends.push("http://sh/Student".into());
        schema.add(person);
        schema.add(student);
        schema.add(gs.clone());

        let eff = schema.effective_properties(&gs);
        let paths: Vec<&str> = eff.iter().map(|p| p.path.as_str()).collect();
        assert!(paths.contains(&"http://ex/regNo"));
        assert!(paths.contains(&"http://ex/name"));
    }

    #[test]
    fn own_property_overrides_inherited() {
        let mut schema = ShapeSchema::new();
        let mut parent = NodeShape::for_class("http://sh/P", "http://ex/P");
        parent.properties.push(PropertyShape::single(
            "http://ex/x",
            TypeConstraint::Datatype(vocab::xsd::STRING.into()),
            Cardinality::ONE,
        ));
        let mut child = NodeShape::for_class("http://sh/C", "http://ex/C");
        child.extends.push("http://sh/P".into());
        child.properties.push(PropertyShape::single(
            "http://ex/x",
            TypeConstraint::Datatype(vocab::xsd::INTEGER.into()),
            Cardinality::OPTIONAL,
        ));
        schema.add(parent);
        schema.add(child.clone());
        let eff = schema.effective_properties(&child);
        assert_eq!(eff.len(), 1);
        assert_eq!(
            eff[0].alternatives[0],
            TypeConstraint::Datatype(vocab::xsd::INTEGER.into())
        );
    }

    #[test]
    fn inheritance_cycles_terminate() {
        let mut schema = ShapeSchema::new();
        let mut a = NodeShape::for_class("http://sh/A", "http://ex/A");
        a.extends.push("http://sh/B".into());
        let mut b = NodeShape::for_class("http://sh/B", "http://ex/B");
        b.extends.push("http://sh/A".into());
        schema.add(a.clone());
        schema.add(b);
        // Must not loop forever.
        let eff = schema.effective_properties(&a);
        assert!(eff.is_empty());
    }

    #[test]
    fn add_replaces_same_name() {
        let mut schema = ShapeSchema::new();
        schema.add(NodeShape::for_class("http://sh/S", "http://ex/A"));
        schema.add(NodeShape::for_class("http://sh/S", "http://ex/B"));
        assert_eq!(schema.len(), 1);
        assert!(schema.by_target_class("http://ex/B").is_some());
        assert!(schema.by_target_class("http://ex/A").is_none());
    }

    #[test]
    fn lookup_by_target_class() {
        let mut schema = ShapeSchema::new();
        schema.add(NodeShape::for_class("http://sh/S", "http://ex/Student"));
        assert_eq!(
            schema.by_target_class("http://ex/Student").unwrap().name,
            "http://sh/S"
        );
        assert!(schema.by_target_class("http://ex/Nope").is_none());
    }
}
