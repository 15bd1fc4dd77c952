//! A database instance: one relation instance per relation of a catalog.

use crate::relation::Relation;
use bea_core::error::{Error, Result};
use bea_core::schema::Catalog;
use bea_core::value::Value;

/// A database instance over a catalog.
#[derive(Debug, Clone, PartialEq)]
pub struct Database {
    catalog: Catalog,
    /// One instance per declared relation, in name order — so a relation's position is
    /// stable for the database's lifetime and the indexed stores resolve it once.
    relations: Vec<Relation>,
}

impl Database {
    /// Create an empty instance of a catalog (every declared relation starts empty).
    pub fn new(catalog: Catalog) -> Self {
        let relations = catalog.relations().cloned().map(Relation::new).collect();
        Self { catalog, relations }
    }

    /// The catalog this instance conforms to.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// The position of a relation in [`Database::relations`] (name order).
    pub(crate) fn position(&self, name: &str) -> Result<usize> {
        self.relations
            .binary_search_by(|r| r.name().cmp(name))
            .map_err(|_| Error::UnknownRelation {
                relation: name.to_owned(),
            })
    }

    /// The relation instance at a [`Database::position`].
    pub(crate) fn relation_at(&self, position: usize) -> &Relation {
        &self.relations[position]
    }

    /// The relation instance with the given name.
    pub fn relation(&self, name: &str) -> Result<&Relation> {
        Ok(&self.relations[self.position(name)?])
    }

    /// Mutable access to a relation instance.
    pub fn relation_mut(&mut self, name: &str) -> Result<&mut Relation> {
        let position = self.position(name)?;
        Ok(&mut self.relations[position])
    }

    /// Insert a tuple (any exact-sized sequence of values) into a relation.
    pub fn insert<T>(&mut self, relation: &str, row: T) -> Result<()>
    where
        T: IntoIterator<Item = Value>,
        T::IntoIter: ExactSizeIterator,
    {
        self.relation_mut(relation)?.insert(row)
    }

    /// Insert many tuples into a relation.
    pub fn extend<T>(&mut self, relation: &str, rows: impl IntoIterator<Item = T>) -> Result<()>
    where
        T: IntoIterator<Item = Value>,
        T::IntoIter: ExactSizeIterator,
    {
        self.relation_mut(relation)?.extend(rows)
    }

    /// All relation instances, in name order.
    pub fn relations(&self) -> impl Iterator<Item = &Relation> {
        self.relations.iter()
    }

    /// Total number of tuples `|D|`.
    pub fn size(&self) -> u64 {
        self.relations.iter().map(|r| r.len() as u64).sum()
    }

    /// Bytes the tuples occupy (see [`Relation::tuple_bytes`]; string payloads excluded).
    pub fn tuple_bytes(&self) -> u64 {
        self.relations.iter().map(Relation::tuple_bytes).sum()
    }

    /// True when every relation is empty.
    pub fn is_empty(&self) -> bool {
        self.size() == 0
    }

    /// A short per-relation summary (name and cardinality), useful for logging.
    pub fn summary(&self) -> String {
        let parts: Vec<String> = self
            .relations
            .iter()
            .map(|r| format!("{}: {} tuples", r.name(), r.len()))
            .collect();
        parts.join(", ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_core::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("S", ["x"]).unwrap();
        c
    }

    #[test]
    fn build_insert_and_query() {
        let mut db = Database::new(catalog());
        assert!(db.is_empty());
        db.insert("R", vec![Value::int(1), Value::int(2)]).unwrap();
        db.extend("S", [vec![Value::int(5)], vec![Value::int(6)]])
            .unwrap();
        assert_eq!(db.size(), 3);
        assert_eq!(db.relation("R").unwrap().len(), 1);
        assert_eq!(db.relation("S").unwrap().len(), 2);
        assert_eq!(db.relations().count(), 2);
        assert!(db.summary().contains("R: 1 tuples"));
        assert_eq!(db.catalog().len(), 2);
    }

    #[test]
    fn unknown_relation_errors() {
        let mut db = Database::new(catalog());
        assert!(db.relation("T").is_err());
        assert!(db.insert("T", vec![Value::int(1)]).is_err());
    }

    #[test]
    fn arity_checked_through_database() {
        let mut db = Database::new(catalog());
        assert!(db.insert("S", vec![Value::int(1), Value::int(2)]).is_err());
    }
}
