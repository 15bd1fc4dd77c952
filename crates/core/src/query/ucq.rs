//! Unions of conjunctive queries (UCQ).

use crate::error::{Error, Result};
use crate::query::cq::ConjunctiveQuery;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// A union of conjunctive queries `Q = Q₁ ∪ … ∪ Qₖ`. All branches share the output arity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnionQuery {
    name: String,
    branches: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    /// Build a union from CQ branches; at least one branch is required and all branches
    /// must have the same arity.
    pub fn from_branches(name: impl Into<String>, branches: Vec<ConjunctiveQuery>) -> Result<Self> {
        let name = name.into();
        let Some(first) = branches.first() else {
            return Err(Error::invalid(format!(
                "union query `{name}` must have at least one branch"
            )));
        };
        let arity = first.arity();
        for b in &branches {
            if b.arity() != arity {
                return Err(Error::UnionArityMismatch {
                    expected: arity,
                    found: b.arity(),
                });
            }
        }
        Ok(Self { name, branches })
    }

    /// The query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The CQ branches (the paper's "CQ sub-queries").
    pub fn branches(&self) -> &[ConjunctiveQuery] {
        &self.branches
    }

    /// Output arity.
    pub fn arity(&self) -> usize {
        self.branches[0].arity()
    }

    /// Number of branches.
    pub fn len(&self) -> usize {
        self.branches.len()
    }

    /// Always false: a union query has at least one branch.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Union of the parameter names declared on the branches.
    pub fn param_names(&self) -> BTreeSet<String> {
        self.branches
            .iter()
            .flat_map(|b| b.params().iter().map(|&v| b.var_name(v).to_owned()))
            .collect()
    }
}

impl fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, b) in self.branches.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{b}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b", "c"]).unwrap();
        c
    }

    fn branch(c: &Catalog, name: &str, constant: i64) -> ConjunctiveQuery {
        ConjunctiveQuery::builder(name)
            .head(["y"])
            .atom("R", ["x", "y", "z"])
            .eq("x", constant)
            .build(c)
            .unwrap()
    }

    #[test]
    fn build_and_access() {
        let c = catalog();
        let u =
            UnionQuery::from_branches("Q", vec![branch(&c, "Q1", 1), branch(&c, "Q2", 2)]).unwrap();
        assert_eq!(u.name(), "Q");
        assert_eq!(u.len(), 2);
        assert_eq!(u.arity(), 1);
        assert!(!u.is_empty());
        assert!(u.to_string().contains("Q1(y)"));
        assert!(u.to_string().contains("Q2(y)"));
    }

    #[test]
    fn empty_union_rejected() {
        assert!(UnionQuery::from_branches("Q", vec![]).is_err());
    }

    #[test]
    fn arity_mismatch_rejected() {
        let c = catalog();
        let b1 = branch(&c, "Q1", 1);
        let b2 = ConjunctiveQuery::builder("Q2")
            .head(["y", "z"])
            .atom("R", ["x", "y", "z"])
            .build(&c)
            .unwrap();
        assert!(matches!(
            UnionQuery::from_branches("Q", vec![b1, b2]),
            Err(Error::UnionArityMismatch { .. })
        ));
    }

    #[test]
    fn param_names_collects_across_branches() {
        let c = catalog();
        let b1 = ConjunctiveQuery::builder("Q1")
            .head(["y"])
            .atom("R", ["x", "y", "z"])
            .param("x")
            .build(&c)
            .unwrap();
        let b2 = ConjunctiveQuery::builder("Q2")
            .head(["y"])
            .atom("R", ["x", "y", "w"])
            .param("w")
            .build(&c)
            .unwrap();
        let u = UnionQuery::from_branches("Q", vec![b1, b2]).unwrap();
        let params = u.param_names();
        assert!(params.contains("x"));
        assert!(params.contains("w"));
        assert_eq!(params.len(), 2);
    }
}
