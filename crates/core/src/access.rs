//! Access constraints and access schemas (Section 2 of the paper).
//!
//! An access constraint `R(X → Y, N)` is a combination of a cardinality constraint and an
//! index: for every `X`-value `ā` occurring in an instance `D` of `R`, there are at most
//! `N` distinct `Y`-values among the tuples with `t[X] = ā`, and those `Y`-values can be
//! retrieved through an index on `X` for `Y`.
//!
//! The general form `R(X → Y, s(·))` bounds the number of `Y`-values by a sublinear
//! function `s(|D|)` of the database size instead of a constant ([`Cardinality::Sublinear`]).

use crate::error::{Error, Result};
use crate::schema::Catalog;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A sublinear cardinality function `s(|D|)` for general access constraints.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SublinearFn {
    /// `s(n) = ceil(log2(n + 1))`.
    Log2,
    /// `s(n) = ceil(sqrt(n))`.
    Sqrt,
    /// `s(n) = ceil(n^exponent)` for an exponent strictly below 1.
    Power {
        /// The exponent, in `(0, 1)`.
        exponent: f64,
    },
    /// `s(n) = ceil(factor * log2(n + 1))`.
    ScaledLog {
        /// Multiplicative factor applied to `log2(n + 1)`.
        factor: f64,
    },
}

impl SublinearFn {
    /// Evaluate the function on a database size.
    pub fn bound(&self, db_size: u64) -> u64 {
        let n = db_size as f64;
        let v = match self {
            SublinearFn::Log2 => (n + 1.0).log2(),
            SublinearFn::Sqrt => n.sqrt(),
            SublinearFn::Power { exponent } => n.powf(*exponent),
            SublinearFn::ScaledLog { factor } => factor * (n + 1.0).log2(),
        };
        v.ceil().max(0.0) as u64
    }
}

impl fmt::Display for SublinearFn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SublinearFn::Log2 => write!(f, "log2(|D|)"),
            SublinearFn::Sqrt => write!(f, "sqrt(|D|)"),
            SublinearFn::Power { exponent } => write!(f, "|D|^{exponent}"),
            SublinearFn::ScaledLog { factor } => write!(f, "{factor}*log2(|D|)"),
        }
    }
}

/// The cardinality bound of an access constraint.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Cardinality {
    /// Constant bound `N` (the paper's plain access constraints).
    Const(u64),
    /// Sublinear bound `s(|D|)` (general access constraints).
    Sublinear(SublinearFn),
}

impl Cardinality {
    /// The bound for a database of `db_size` tuples.
    pub fn bound(&self, db_size: u64) -> u64 {
        match self {
            Cardinality::Const(n) => *n,
            Cardinality::Sublinear(s) => s.bound(db_size),
        }
    }

    /// The constant bound, if this is a constant-cardinality constraint.
    pub fn as_const(&self) -> Option<u64> {
        match self {
            Cardinality::Const(n) => Some(*n),
            Cardinality::Sublinear(_) => None,
        }
    }

    /// True when the bound is the constant 1 (a functional dependency with an index).
    pub fn is_unit(&self) -> bool {
        matches!(self, Cardinality::Const(1))
    }
}

impl fmt::Display for Cardinality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Cardinality::Const(n) => write!(f, "{n}"),
            Cardinality::Sublinear(s) => write!(f, "{s}"),
        }
    }
}

impl From<u64> for Cardinality {
    fn from(n: u64) -> Self {
        Cardinality::Const(n)
    }
}

/// An access constraint `R(X → Y, N)` over a relation of the catalog.
///
/// `X` and `Y` are stored as sorted attribute positions of the relation schema.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccessConstraint {
    relation: String,
    x: Vec<usize>,
    y: Vec<usize>,
    cardinality: Cardinality,
}

impl AccessConstraint {
    /// Build a constraint from attribute *names*, resolving them against the catalog.
    ///
    /// `x` may be empty (the paper's `R(∅ → Y, N)` constraints). `y` must not be empty
    /// and must be disjoint from `x`.
    pub fn new(
        catalog: &Catalog,
        relation: &str,
        x: &[&str],
        y: &[&str],
        cardinality: impl Into<Cardinality>,
    ) -> Result<Self> {
        let schema = catalog.relation(relation)?;
        let x_idx = schema.resolve_attrs(x)?;
        let y_idx = schema.resolve_attrs(y)?;
        Self::from_positions(relation, x_idx, y_idx, cardinality)
    }

    /// Build a constraint directly from attribute positions.
    pub fn from_positions(
        relation: impl Into<String>,
        mut x: Vec<usize>,
        mut y: Vec<usize>,
        cardinality: impl Into<Cardinality>,
    ) -> Result<Self> {
        let relation = relation.into();
        x.sort_unstable();
        x.dedup();
        y.sort_unstable();
        y.dedup();
        if y.is_empty() {
            return Err(Error::invalid(format!(
                "access constraint on `{relation}` must have a non-empty Y attribute set"
            )));
        }
        if y.iter().any(|p| x.contains(p)) {
            return Err(Error::invalid(format!(
                "access constraint on `{relation}` has overlapping X and Y attribute sets"
            )));
        }
        Ok(Self {
            relation,
            x,
            y,
            cardinality: cardinality.into(),
        })
    }

    /// The constrained relation name.
    pub fn relation(&self) -> &str {
        &self.relation
    }

    /// Sorted attribute positions of `X` (the index key).
    pub fn x(&self) -> &[usize] {
        &self.x
    }

    /// Sorted attribute positions of `Y` (the retrieved attributes).
    pub fn y(&self) -> &[usize] {
        &self.y
    }

    /// Sorted attribute positions of `X ∪ Y`.
    pub fn xy(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.x.iter().chain(self.y.iter()).copied().collect();
        v.sort_unstable();
        v
    }

    /// The cardinality bound.
    pub fn cardinality(&self) -> Cardinality {
        self.cardinality
    }

    /// Validate the constraint against a catalog (relation exists, positions in range).
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        let schema = catalog.relation(&self.relation)?;
        for &p in self.x.iter().chain(self.y.iter()) {
            if p >= schema.arity() {
                return Err(Error::invalid(format!(
                    "access constraint on `{}` references attribute position {p}, \
                     but the relation has arity {}",
                    self.relation,
                    schema.arity()
                )));
            }
        }
        Ok(())
    }

    /// Render the constraint with attribute names from the catalog, e.g.
    /// `Accident(date -> aid, 610)`.
    pub fn display_with(&self, catalog: &Catalog) -> String {
        let names = |idx: &[usize]| -> String {
            match catalog.relation(&self.relation) {
                Ok(schema) => idx
                    .iter()
                    .map(|&p| schema.attr_name(p).unwrap_or("?").to_owned())
                    .collect::<Vec<_>>()
                    .join(", "),
                Err(_) => idx
                    .iter()
                    .map(usize::to_string)
                    .collect::<Vec<_>>()
                    .join(", "),
            }
        };
        let x = if self.x.is_empty() {
            "∅".to_owned()
        } else {
            names(&self.x)
        };
        format!(
            "{}({} -> {}, {})",
            self.relation,
            x,
            names(&self.y),
            self.cardinality
        )
    }
}

impl fmt::Display for AccessConstraint {
    /// Positional rendering used when no catalog is available; prefer
    /// [`AccessConstraint::display_with`] for attribute names.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let fmt_idx = |idx: &[usize]| {
            idx.iter()
                .map(usize::to_string)
                .collect::<Vec<_>>()
                .join(",")
        };
        write!(
            f,
            "{}([{}] -> [{}], {})",
            self.relation,
            fmt_idx(&self.x),
            fmt_idx(&self.y),
            self.cardinality
        )
    }
}

/// An access schema `A`: a set of access constraints over a catalog.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AccessSchema {
    constraints: Vec<AccessConstraint>,
}

impl AccessSchema {
    /// Create an empty access schema.
    pub fn new() -> Self {
        Self::default()
    }

    /// Build an access schema from constraints.
    pub fn from_constraints(constraints: impl IntoIterator<Item = AccessConstraint>) -> Self {
        Self {
            constraints: constraints.into_iter().collect(),
        }
    }

    /// Add a constraint.
    pub fn add(&mut self, constraint: AccessConstraint) {
        self.constraints.push(constraint);
    }

    /// All constraints, in insertion order.
    pub fn constraints(&self) -> &[AccessConstraint] {
        &self.constraints
    }

    /// The constraint at the given index.
    pub fn constraint(&self, index: usize) -> Option<&AccessConstraint> {
        self.constraints.get(index)
    }

    /// Indices and constraints that apply to a relation.
    pub fn constraints_for<'a>(
        &'a self,
        relation: &'a str,
    ) -> impl Iterator<Item = (usize, &'a AccessConstraint)> + 'a {
        self.constraints
            .iter()
            .enumerate()
            .filter(move |(_, c)| c.relation() == relation)
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.constraints.len()
    }

    /// True when the schema has no constraints.
    pub fn is_empty(&self) -> bool {
        self.constraints.is_empty()
    }

    /// Validate every constraint against the catalog.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        for c in &self.constraints {
            c.validate(catalog)?;
        }
        Ok(())
    }

    /// Does `A` *cover* the relational schema in the sense of Proposition 5.4?
    ///
    /// `A` covers `R` if for every relation schema `R` there is a constraint
    /// `R(X → Y, N)` in `A` such that every attribute of `R` belongs to `X ∪ Y`.
    /// Under such an `A`, every fully parameterized FO query can be boundedly
    /// specialized.
    pub fn covers_catalog(&self, catalog: &Catalog) -> bool {
        catalog.relations().all(|schema| {
            self.constraints_for(schema.name()).any(|(_, c)| {
                let xy = c.xy();
                (0..schema.arity()).all(|p| xy.contains(&p))
            })
        })
    }

    /// Render the whole schema with attribute names resolved through the catalog.
    pub fn display_with(&self, catalog: &Catalog) -> String {
        self.constraints
            .iter()
            .map(|c| c.display_with(catalog))
            .collect::<Vec<_>>()
            .join("\n")
    }
}

impl FromIterator<AccessConstraint> for AccessSchema {
    fn from_iter<T: IntoIterator<Item = AccessConstraint>>(iter: T) -> Self {
        Self::from_constraints(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("Accident", ["aid", "district", "date"]).unwrap();
        c.declare("Casualty", ["cid", "aid", "class", "vid"])
            .unwrap();
        c.declare("Vehicle", ["vid", "driver", "age"]).unwrap();
        c
    }

    /// The access schema ψ1–ψ4 of Example 1.1.
    fn example_1_1(c: &Catalog) -> AccessSchema {
        AccessSchema::from_constraints([
            AccessConstraint::new(c, "Accident", &["date"], &["aid"], 610).unwrap(),
            AccessConstraint::new(c, "Casualty", &["aid"], &["vid"], 192).unwrap(),
            AccessConstraint::new(c, "Accident", &["aid"], &["district", "date"], 1).unwrap(),
            AccessConstraint::new(c, "Vehicle", &["vid"], &["driver", "age"], 1).unwrap(),
        ])
    }

    #[test]
    fn constraint_construction_resolves_names() {
        let c = catalog();
        let psi1 = AccessConstraint::new(&c, "Accident", &["date"], &["aid"], 610).unwrap();
        assert_eq!(psi1.x(), &[2]);
        assert_eq!(psi1.y(), &[0]);
        assert_eq!(psi1.cardinality().as_const(), Some(610));
        assert_eq!(psi1.xy(), vec![0, 2]);
        assert_eq!(
            psi1.display_with(&c),
            "Accident(date -> aid, 610)".to_owned()
        );
    }

    #[test]
    fn empty_x_is_allowed_but_empty_y_is_not() {
        let c = catalog();
        let ok = AccessConstraint::new(&c, "Vehicle", &[], &["age"], 1);
        assert!(ok.is_ok());
        let err = AccessConstraint::new(&c, "Vehicle", &["vid"], &[], 1);
        assert!(err.is_err());
    }

    #[test]
    fn overlapping_x_y_rejected() {
        let c = catalog();
        let err = AccessConstraint::new(&c, "Vehicle", &["vid"], &["vid", "age"], 1);
        assert!(err.is_err());
    }

    #[test]
    fn unknown_names_rejected() {
        let c = catalog();
        assert!(AccessConstraint::new(&c, "Nope", &["a"], &["b"], 1).is_err());
        assert!(AccessConstraint::new(&c, "Vehicle", &["nope"], &["age"], 1).is_err());
    }

    #[test]
    fn validate_positions() {
        let c = catalog();
        let bad = AccessConstraint::from_positions("Vehicle", vec![0], vec![9], 1).unwrap();
        assert!(bad.validate(&c).is_err());
        let good = AccessConstraint::from_positions("Vehicle", vec![0], vec![2], 1).unwrap();
        assert!(good.validate(&c).is_ok());
    }

    #[test]
    fn schema_queries() {
        let c = catalog();
        let a = example_1_1(&c);
        assert_eq!(a.len(), 4);
        assert!(!a.is_empty());
        assert!(a.validate(&c).is_ok());
        assert_eq!(a.constraints_for("Accident").count(), 2);
        assert_eq!(a.constraints_for("Vehicle").count(), 1);
        assert_eq!(a.constraints_for("Nope").count(), 0);
        let largest = a
            .constraints
            .iter()
            .filter_map(|c| c.cardinality().as_const());
        assert_eq!(largest.max(), Some(610));
        assert!(a.display_with(&c).contains("Casualty(aid -> vid, 192)"));
    }

    #[test]
    fn covers_catalog_proposition_5_4() {
        let c = catalog();
        // ψ1–ψ4 do not cover the catalog: no Casualty constraint spans cid and class.
        assert!(!example_1_1(&c).covers_catalog(&c));

        let covering = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "Accident", &["aid"], &["district", "date"], 1).unwrap(),
            AccessConstraint::new(&c, "Casualty", &["cid"], &["aid", "class", "vid"], 1).unwrap(),
            AccessConstraint::new(&c, "Vehicle", &["vid"], &["driver", "age"], 1).unwrap(),
        ]);
        assert!(covering.covers_catalog(&c));
    }

    #[test]
    fn cardinality_bounds() {
        assert_eq!(Cardinality::Const(5).bound(1_000_000), 5);
        assert!(Cardinality::Const(1).is_unit());
        assert!(!Cardinality::Const(2).is_unit());
        assert_eq!(Cardinality::Sublinear(SublinearFn::Log2).bound(1023), 10);
        assert_eq!(Cardinality::Sublinear(SublinearFn::Sqrt).bound(100), 10);
        assert_eq!(
            Cardinality::Sublinear(SublinearFn::Power { exponent: 0.5 }).bound(81),
            9
        );
        assert_eq!(
            Cardinality::Sublinear(SublinearFn::ScaledLog { factor: 2.0 }).bound(1023),
            20
        );
        assert_eq!(Cardinality::Sublinear(SublinearFn::Log2).as_const(), None);
    }

    #[test]
    fn sublinear_bounds_grow_sublinearly() {
        for f in [
            SublinearFn::Log2,
            SublinearFn::Sqrt,
            SublinearFn::Power { exponent: 0.3 },
        ] {
            let small = f.bound(1_000);
            let large = f.bound(1_000_000);
            assert!(large >= small);
            assert!(large < 1_000_000 / 2, "{f} is not sublinear enough");
        }
    }

    #[test]
    fn display_without_catalog() {
        let c = catalog();
        let psi2 = AccessConstraint::new(&c, "Casualty", &["aid"], &["vid"], 192).unwrap();
        assert_eq!(psi2.to_string(), "Casualty([1] -> [3], 192)");
        let empty_x = AccessConstraint::new(&c, "Vehicle", &[], &["age"], 3).unwrap();
        assert_eq!(empty_x.display_with(&c), "Vehicle(∅ -> age, 3)");
    }

    #[test]
    fn max_cardinality_none_with_sublinear() {
        let c = catalog();
        let mut a = example_1_1(&c);
        a.add(
            AccessConstraint::from_positions(
                "Vehicle",
                vec![0],
                vec![1],
                Cardinality::Sublinear(SublinearFn::Log2),
            )
            .unwrap(),
        );
        let bounds: Option<Vec<u64>> = a
            .constraints
            .iter()
            .map(|c| c.cardinality().as_const())
            .collect();
        assert_eq!(bounds, None, "a sublinear bound is not a constant");
    }

    #[test]
    fn from_iterator() {
        let c = catalog();
        let a: AccessSchema = example_1_1(&c).constraints().to_vec().into_iter().collect();
        assert_eq!(a.len(), 4);
    }
}
