//! Relation schemas and catalogs.
//!
//! A relational schema `R` (Section 2 of the paper) is a collection of relation schemas,
//! each with a fixed list of named attributes. Queries, access constraints and database
//! instances are all defined over a [`Catalog`].

use crate::error::{Error, Result};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// The schema of a single relation: a name and an ordered list of attribute names.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct RelationSchema {
    name: String,
    attributes: Vec<String>,
}

impl RelationSchema {
    /// Create a relation schema. Attribute names must be pairwise distinct.
    pub fn new(
        name: impl Into<String>,
        attributes: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<Self> {
        let name = name.into();
        let attributes: Vec<String> = attributes.into_iter().map(Into::into).collect();
        for (i, a) in attributes.iter().enumerate() {
            if attributes[..i].contains(a) {
                return Err(Error::invalid(format!(
                    "relation `{name}` declares attribute `{a}` twice"
                )));
            }
        }
        Ok(Self { name, attributes })
    }

    /// The relation name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The ordered attribute names.
    pub fn attributes(&self) -> &[String] {
        &self.attributes
    }

    /// Number of attributes.
    pub fn arity(&self) -> usize {
        self.attributes.len()
    }

    /// Position of an attribute by name.
    pub fn attr_index(&self, attribute: &str) -> Result<usize> {
        self.attributes
            .iter()
            .position(|a| a == attribute)
            .ok_or_else(|| Error::UnknownAttribute {
                relation: self.name.clone(),
                attribute: attribute.to_owned(),
            })
    }

    /// Name of the attribute at a position.
    pub fn attr_name(&self, index: usize) -> Option<&str> {
        self.attributes.get(index).map(String::as_str)
    }

    /// Resolve a list of attribute names to sorted, deduplicated positions.
    pub fn resolve_attrs(&self, attrs: &[impl AsRef<str>]) -> Result<Vec<usize>> {
        let mut out = Vec::with_capacity(attrs.len());
        for a in attrs {
            out.push(self.attr_index(a.as_ref())?);
        }
        out.sort_unstable();
        out.dedup();
        Ok(out)
    }
}

impl fmt::Display for RelationSchema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}({})", self.name, self.attributes.join(", "))
    }
}

/// A catalog: the full relational schema over which queries and constraints are defined.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Catalog {
    relations: BTreeMap<String, RelationSchema>,
}

impl Catalog {
    /// Create an empty catalog.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a relation schema; the name must not already exist.
    pub fn add_relation(&mut self, relation: RelationSchema) -> Result<()> {
        if self.relations.contains_key(relation.name()) {
            return Err(Error::invalid(format!(
                "relation `{}` is already declared",
                relation.name()
            )));
        }
        self.relations.insert(relation.name().to_owned(), relation);
        Ok(())
    }

    /// Convenience: declare a relation from a name and attribute names.
    pub fn declare(
        &mut self,
        name: impl Into<String>,
        attributes: impl IntoIterator<Item = impl Into<String>>,
    ) -> Result<()> {
        self.add_relation(RelationSchema::new(name, attributes)?)
    }

    /// Look up a relation schema by name.
    pub fn relation(&self, name: &str) -> Result<&RelationSchema> {
        self.relations
            .get(name)
            .ok_or_else(|| Error::UnknownRelation {
                relation: name.to_owned(),
            })
    }

    /// True when the catalog declares a relation of the given name.
    pub fn contains(&self, name: &str) -> bool {
        self.relations.contains_key(name)
    }

    /// All relation schemas in name order.
    pub fn relations(&self) -> impl Iterator<Item = &RelationSchema> {
        self.relations.values()
    }

    /// Number of relations declared.
    pub fn len(&self) -> usize {
        self.relations.len()
    }

    /// True when no relations are declared.
    pub fn is_empty(&self) -> bool {
        self.relations.is_empty()
    }

    /// Total size `|R|` of the relational schema: the number of attribute occurrences.
    pub fn size(&self) -> usize {
        self.relations.values().map(RelationSchema::arity).sum()
    }
}

impl fmt::Display for Catalog {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for r in self.relations.values() {
            writeln!(f, "{r}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Catalog {
        let mut c = Catalog::new();
        c.declare("Accident", ["aid", "district", "date"]).unwrap();
        c.declare("Casualty", ["cid", "aid", "class", "vid"])
            .unwrap();
        c.declare("Vehicle", ["vid", "driver", "age"]).unwrap();
        c
    }

    #[test]
    fn relation_lookup_and_arity() {
        let c = sample();
        let acc = c.relation("Accident").unwrap();
        assert_eq!(acc.arity(), 3);
        assert_eq!(acc.attr_index("district").unwrap(), 1);
        assert_eq!(acc.attr_name(2), Some("date"));
        assert!(acc.attr_name(3).is_none());
    }

    #[test]
    fn unknown_relation_and_attribute() {
        let c = sample();
        assert!(c.contains("Accident"));
        assert!(!c.contains("Nope"));
        assert!(matches!(
            c.relation("Nope"),
            Err(Error::UnknownRelation { .. })
        ));
        let acc = c.relation("Accident").unwrap();
        assert!(matches!(
            acc.attr_index("nope"),
            Err(Error::UnknownAttribute { .. })
        ));
    }

    #[test]
    fn duplicate_declarations_rejected() {
        let mut c = sample();
        assert!(c.declare("Accident", ["x"]).is_err());
        assert!(RelationSchema::new("R", ["a", "a"]).is_err());
    }

    #[test]
    fn resolve_attrs_sorts_and_dedups() {
        let c = sample();
        let cas = c.relation("Casualty").unwrap();
        let idx = cas.resolve_attrs(&["vid", "aid", "vid"]).unwrap();
        assert_eq!(idx, vec![1, 3]);
    }

    #[test]
    fn catalog_size_and_iteration() {
        let c = sample();
        assert_eq!(c.len(), 3);
        assert!(!c.is_empty());
        assert_eq!(c.size(), 3 + 4 + 3);
        let names: Vec<&str> = c.relations().map(|r| r.name()).collect();
        assert_eq!(names, vec!["Accident", "Casualty", "Vehicle"]);
    }

    #[test]
    fn display() {
        let c = sample();
        let s = c.to_string();
        assert!(s.contains("Accident(aid, district, date)"));
        assert!(c.relation("Vehicle").unwrap().to_string() == "Vehicle(vid, driver, age)");
    }
}
