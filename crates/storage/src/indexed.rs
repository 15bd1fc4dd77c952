//! A database equipped with the indexes mandated by an access schema.

use crate::database::Database;
use crate::index::HashIndex;
use crate::relation::Relation;
use bea_core::access::AccessSchema;
use bea_core::error::{Error, Result};
use bea_core::value::{Row, Value};

/// A violation of an access constraint by a database instance.
#[derive(Debug, Clone, PartialEq)]
pub struct ConstraintViolation {
    /// Index of the violated constraint in the access schema.
    pub constraint_index: usize,
    /// The offending `X`-value.
    pub key: Row,
    /// The number of distinct `Y`-values observed for that key.
    pub observed: u64,
    /// The bound allowed by the constraint (for this database's size).
    pub allowed: u64,
}

/// A database instance together with one hash index per access constraint.
///
/// Building an `IndexedDatabase` is the physical-design step of the paper's strategy:
/// "develop and maintain an access schema `A` for an application" and build the indices
/// it requires. Fetches through [`IndexedDatabase::fetch`] never scan a relation.
#[derive(Debug, Clone)]
pub struct IndexedDatabase {
    database: Database,
    schema: AccessSchema,
    /// Per constraint: its relation's position in `database`, resolved at build time.
    relations: Vec<usize>,
    indexes: Vec<HashIndex>,
}

/// Validate `schema` against the database's catalog and resolve every constraint's
/// relation to its position in the database — once, so no fetch looks a name up.
pub(crate) fn resolve_relations(database: &Database, schema: &AccessSchema) -> Result<Vec<usize>> {
    schema.validate(database.catalog())?;
    let constraints = schema.constraints().iter();
    constraints
        .map(|constraint| database.position(constraint.relation()))
        .collect()
}

impl IndexedDatabase {
    /// Build the indexes required by the access schema over the database.
    ///
    /// Fails if the schema references relations or attribute positions the catalog does
    /// not declare, or if a constrained relation has more tuples than 32-bit posting
    /// offsets can address. Whether the *cardinality* part of each constraint holds is a
    /// separate question — check it with [`IndexedDatabase::validate`].
    pub fn build(database: Database, schema: AccessSchema) -> Result<Self> {
        let relations = resolve_relations(&database, &schema)?;
        let indexes = schema
            .constraints()
            .iter()
            .zip(&relations)
            .map(|(constraint, &at)| HashIndex::build(database.relation_at(at), constraint.x()))
            .collect::<Result<_>>()?;
        Ok(Self {
            database,
            schema,
            relations,
            indexes,
        })
    }

    /// The underlying database.
    pub fn database(&self) -> &Database {
        &self.database
    }

    /// The access schema whose indexes are materialized.
    pub fn schema(&self) -> &AccessSchema {
        &self.schema
    }

    /// Total number of tuples `|D|`.
    pub fn size(&self) -> u64 {
        self.database.size()
    }

    /// Exact `(tuple_bytes, index_bytes)` of the store, from lengths × `size_of`:
    /// the flat tuple values and the indexes' `u32` arrays. String payloads (shared
    /// `Arc<str>` allocations) are not counted.
    pub fn footprint(&self) -> (u64, u64) {
        let index_bytes = self.indexes.iter().map(HashIndex::bytes).sum();
        (self.database.tuple_bytes(), index_bytes)
    }

    /// Retrieve, through the index of constraint `constraint_index`, the tuples of its
    /// relation whose `X`-projection equals `key`. Returns full tuples; callers project
    /// onto `X ∪ Y` as needed (the executor in `bea-engine` does).
    ///
    /// Thin compatibility wrapper over [`IndexedDatabase::fetch_iter`]; hot paths should
    /// prefer the iterator, which walks the index postings without allocating a
    /// `Vec` per key.
    pub fn fetch(&self, constraint_index: usize, key: &[Value]) -> Result<Vec<&[Value]>> {
        Ok(self.fetch_iter(constraint_index, key)?.collect())
    }

    /// Borrowing counterpart of [`IndexedDatabase::fetch`]: iterate over the tuples whose
    /// `X`-projection equals `key`, straight out of the index postings.
    ///
    /// This is the storage half of the streaming executor's fetch path: no intermediate
    /// collection is allocated, and the rows stay borrowed from the relation until the
    /// consumer decides what to project out of them. The iterator is exact-sized, so
    /// callers can account for the number of tuples read before walking them.
    pub fn fetch_iter(&self, constraint_index: usize, key: &[Value]) -> Result<FetchIter<'_>> {
        let (relation, index) = self.indexed(constraint_index)?;
        probe(relation, &index[0], constraint_index, key)
    }

    /// Constraint `constraint_index`'s relation and its index (one: this store is
    /// unsharded).
    pub(crate) fn indexed(&self, constraint_index: usize) -> Result<(&Relation, &[HashIndex])> {
        let index = self
            .indexes
            .get(constraint_index)
            .ok_or_else(|| missing_constraint(constraint_index))?;
        let relation = self.database.relation_at(self.relations[constraint_index]);
        Ok((relation, std::slice::from_ref(index)))
    }

    /// Columnar counterpart of [`IndexedDatabase::fetch_iter`]: append, for every tuple
    /// whose `X`-projection equals `key`, the values at `positions` directly into the
    /// corresponding output columns (`out[i]` receives `tuple[positions[i]]`).
    ///
    /// This is the storage half of the columnar fetch path: the matched tuples go
    /// straight from the relation into the caller's column builders, without an
    /// intermediate `Row` allocation per tuple. Value clones are O(1) (shared string
    /// payloads), so the append is a pointer-sized copy per value. Returns the number
    /// of tuples appended — the same count [`IndexedDatabase::fetch_iter`] would
    /// report, for access accounting.
    ///
    /// `out` must have exactly one column per requested position; positions beyond the
    /// relation's arity are the caller's responsibility (the engine validates plans
    /// before executing them).
    pub fn fetch_into_columns(
        &self,
        constraint_index: usize,
        key: &[Value],
        positions: &[usize],
        out: &mut [Vec<Value>],
    ) -> Result<u64> {
        Ok(self
            .fetch_iter(constraint_index, key)?
            .project_into(positions, out))
    }

    /// Check the cardinality part of every constraint: does `D ⊨ A` hold?
    ///
    /// Returns the list of violations (empty iff the instance satisfies the schema), by
    /// constraint and, within one, in order of the offending keys' first occurrence.
    pub fn validate(&self) -> Vec<ConstraintViolation> {
        let (db_size, mut violations) = (self.size(), Vec::new());
        for (ci, index) in self.indexes.iter().enumerate() {
            let relation = self.database.relation_at(self.relations[ci]);
            check_groups(&self.schema, db_size, ci, relation, index, &mut violations);
        }
        violations
    }

    /// Convenience: `true` iff [`IndexedDatabase::validate`] reports no violation.
    pub fn satisfies_schema(&self) -> bool {
        self.validate().is_empty()
    }

    /// Tear the indexed database apart again (e.g. to add more data and rebuild).
    pub fn into_parts(self) -> (Database, AccessSchema) {
        (self.database, self.schema)
    }
}

/// The error of a fetch naming a constraint the schema does not have.
pub(crate) fn missing_constraint(constraint_index: usize) -> Error {
    Error::MissingConstraint {
        reason: format!("no access constraint with index {constraint_index}"),
    }
}

/// Probe one index of constraint `constraint_index` over its relation — the fetch both
/// stores share once they have picked the index (the only one, or the owning shard's).
pub(crate) fn probe<'a>(
    relation: &'a Relation,
    index: &'a HashIndex,
    constraint_index: usize,
    key: &[Value],
) -> Result<FetchIter<'a>> {
    check_key_arity(index, constraint_index, key.len())?;
    Ok(FetchIter {
        relation,
        offsets: index.lookup(relation, key).iter(),
    })
}

/// Refuse a key of `arity` values for constraint `constraint_index`, served by `index`
/// (every index of a constraint has the constraint's key attributes).
pub(crate) fn check_key_arity(
    index: &HashIndex,
    constraint_index: usize,
    arity: usize,
) -> Result<()> {
    let expected = index.key_attrs().len();
    if arity != expected {
        return Err(Error::invalid(format!(
            "fetch key has {arity} values but constraint {constraint_index} expects {expected}"
        )));
    }
    Ok(())
}

/// Check every key of one index against its constraint's cardinality bound: count the
/// distinct `Y`-projections among the key's tuples and record a [`ConstraintViolation`]
/// if they exceed the bound. Shared by the unsharded and sharded validators — a key's
/// full posting list lives in exactly one index either way, so both see every key once.
pub(crate) fn check_groups(
    schema: &AccessSchema,
    db_size: u64,
    constraint_index: usize,
    relation: &Relation,
    index: &HashIndex,
    violations: &mut Vec<ConstraintViolation>,
) {
    let constraint = &schema.constraints()[constraint_index];
    let allowed = constraint.cardinality().bound(db_size);
    for offsets in index.groups() {
        let mut ys: Vec<Row> = offsets
            .iter()
            .map(|&o| Relation::project(relation.tuple(o as usize), constraint.y()))
            .collect();
        ys.sort();
        ys.dedup();
        if ys.len() as u64 > allowed {
            violations.push(ConstraintViolation {
                constraint_index,
                key: Relation::project(relation.tuple(offsets[0] as usize), constraint.x()),
                observed: ys.len() as u64,
                allowed,
            });
        }
    }
}

/// Borrowing iterator over the tuples an index lookup matched; see
/// [`IndexedDatabase::fetch_iter`].
#[derive(Debug, Clone)]
pub struct FetchIter<'a> {
    pub(crate) relation: &'a Relation,
    pub(crate) offsets: std::slice::Iter<'a, u32>,
}

impl<'a> Iterator for FetchIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        let &offset = self.offsets.next()?;
        Some(self.relation.tuple(offset as usize))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.offsets.size_hint()
    }
}

impl ExactSizeIterator for FetchIter<'_> {}

impl FetchIter<'_> {
    /// Append, for every remaining tuple, the values at `positions` into the
    /// corresponding output columns (`out[i]` receives `tuple[positions[i]]`); returns
    /// how many tuples were appended. The columnar fetch kernel: both stores'
    /// `fetch_into_columns` and the executor's resolved fetches go through it, so they
    /// cannot drift on the append semantics.
    pub fn project_into(self, positions: &[usize], out: &mut [Vec<Value>]) -> u64 {
        debug_assert_eq!(
            positions.len(),
            out.len(),
            "one output column per projected position"
        );
        let mut appended = 0u64;
        for tuple in self {
            for (column, &position) in out.iter_mut().zip(positions) {
                column.push(tuple[position].clone());
            }
            appended += 1;
        }
        appended
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_core::access::AccessConstraint;
    use bea_core::schema::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c
    }

    fn sample_db() -> Database {
        let mut db = Database::new(catalog());
        db.extend(
            "R",
            [
                vec![Value::int(1), Value::int(10)],
                vec![Value::int(1), Value::int(11)],
                vec![Value::int(2), Value::int(20)],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn build_fetch_and_validate() {
        let c = catalog();
        let schema =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 2).unwrap()
            ]);
        let idb = IndexedDatabase::build(sample_db(), schema).unwrap();
        assert_eq!(idb.size(), 3);
        let rows = idb.fetch(0, &[Value::int(1)]).unwrap();
        assert_eq!(rows.len(), 2);
        let rows = idb.fetch(0, &[Value::int(9)]).unwrap();
        assert!(rows.is_empty());
        assert!(idb.satisfies_schema());
        let (db, schema) = idb.into_parts();
        assert_eq!(db.size(), 3);
        assert_eq!(schema.len(), 1);
    }

    #[test]
    fn validation_reports_violations() {
        let c = catalog();
        let tight =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 1).unwrap()
            ]);
        let idb = IndexedDatabase::build(sample_db(), tight).unwrap();
        let violations = idb.validate();
        assert_eq!(violations.len(), 1);
        assert_eq!(violations[0].key, vec![Value::int(1)]);
        assert_eq!(violations[0].observed, 2);
        assert_eq!(violations[0].allowed, 1);
        assert!(!idb.satisfies_schema());
    }

    #[test]
    fn violations_come_in_first_occurrence_order() {
        let c = catalog();
        let mut db = Database::new(c.clone());
        for (a, b) in [
            (3, 0),
            (1, 0),
            (3, 1),
            (2, 0),
            (9, 0),
            (1, 1),
            (2, 1),
            (3, 1),
        ] {
            db.insert("R", [Value::int(a), Value::int(b)]).unwrap();
        }
        let tight =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 1).unwrap()
            ]);
        let idb = IndexedDatabase::build(db, tight).unwrap();
        let keys: Vec<Row> = idb.validate().into_iter().map(|v| v.key).collect();
        // 9 has one b-value and (3, 1) twice is still two distinct b-values.
        assert_eq!(
            keys,
            [
                vec![Value::int(3)],
                vec![Value::int(1)],
                vec![Value::int(2)]
            ]
        );
        assert_eq!(idb.validate(), idb.validate(), "and the order is stable");
        assert!(idb.validate().iter().all(|v| v.observed == 2));
    }

    #[test]
    fn footprint_is_exact_from_lengths() {
        let c = catalog();
        let schema =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 2).unwrap()
            ]);
        let idb = IndexedDatabase::build(sample_db(), schema).unwrap();
        // 3 tuples × 2 values; 3 postings + 3 starts + 4 slots (2 keys) + 1 key position.
        let value = std::mem::size_of::<Value>() as u64;
        let position = std::mem::size_of::<usize>() as u64;
        assert_eq!(idb.footprint(), (6 * value, (3 + 3 + 4) * 4 + position));
    }

    #[test]
    fn fetch_iter_matches_fetch() {
        let c = catalog();
        let schema =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 2).unwrap()
            ]);
        let idb = IndexedDatabase::build(sample_db(), schema).unwrap();
        let iter = idb.fetch_iter(0, &[Value::int(1)]).unwrap();
        assert_eq!(iter.len(), 2);
        let via_iter: Vec<&[Value]> = iter.collect();
        let via_fetch = idb.fetch(0, &[Value::int(1)]).unwrap();
        assert_eq!(via_iter, via_fetch);
        // Missing keys yield an empty, zero-length iterator — not an error.
        let mut empty = idb.fetch_iter(0, &[Value::int(9)]).unwrap();
        assert_eq!(empty.len(), 0);
        assert!(empty.next().is_none());
        // The same argument errors apply as for `fetch`.
        assert!(idb.fetch_iter(7, &[Value::int(1)]).is_err());
        assert!(idb.fetch_iter(0, &[]).is_err());
    }

    #[test]
    fn fetch_into_columns_matches_fetch_iter() {
        let c = catalog();
        let schema =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 2).unwrap()
            ]);
        let idb = IndexedDatabase::build(sample_db(), schema).unwrap();
        // Project (b, a) — positions in a caller-chosen order, including a swap.
        let mut cols: Vec<Vec<Value>> = vec![Vec::new(), Vec::new()];
        let appended = idb
            .fetch_into_columns(0, &[Value::int(1)], &[1, 0], &mut cols)
            .unwrap();
        assert_eq!(appended, 2);
        assert_eq!(cols[0], vec![Value::int(10), Value::int(11)]);
        assert_eq!(cols[1], vec![Value::int(1), Value::int(1)]);
        // Appends accumulate: a second key extends the same columns.
        let appended = idb
            .fetch_into_columns(0, &[Value::int(2)], &[1, 0], &mut cols)
            .unwrap();
        assert_eq!(appended, 1);
        assert_eq!(cols[0].len(), 3);
        assert_eq!(cols[1][2], Value::int(2));
        // Missing keys append nothing; argument errors mirror `fetch_iter`.
        assert_eq!(
            idb.fetch_into_columns(0, &[Value::int(9)], &[0], &mut [Vec::new()])
                .unwrap(),
            0
        );
        assert!(idb
            .fetch_into_columns(7, &[Value::int(1)], &[0], &mut [Vec::new()])
            .is_err());
    }

    #[test]
    fn fetch_errors() {
        let c = catalog();
        let schema =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 2).unwrap()
            ]);
        let idb = IndexedDatabase::build(sample_db(), schema).unwrap();
        assert!(idb.fetch(7, &[Value::int(1)]).is_err());
        assert!(idb.fetch(0, &[]).is_err());
    }

    #[test]
    fn build_rejects_bad_schema() {
        let mut other = Catalog::new();
        other.declare("S", ["x"]).unwrap();
        let bad =
            AccessSchema::from_constraints([AccessConstraint::new(&other, "S", &["x"], &["x"], 1)
                .unwrap_or_else(|_| {
                    AccessConstraint::from_positions("S", vec![0], vec![1], 1).unwrap()
                })]);
        assert!(IndexedDatabase::build(sample_db(), bad).is_err());
    }

    #[test]
    fn empty_key_constraint_fetches_everything() {
        let c = catalog();
        let schema =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &[], &["a"], 5).unwrap()
            ]);
        let idb = IndexedDatabase::build(sample_db(), schema).unwrap();
        let rows = idb.fetch(0, &[]).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(idb.satisfies_schema());
    }
}
