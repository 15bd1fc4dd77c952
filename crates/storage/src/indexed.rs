//! The store: a database plus one index per access constraint.
//!
//! [`IndexedDatabase`] builds, for every constraint `R(X → Y, N)`, one [`HashIndex`]
//! on `X` over `R` — the index the paper's `fetch` reads. A physical plan names only
//! `(constraint, key)` lookups, and the store answers each from that constraint's one
//! index: per key, its tuples in insertion order ([`IndexedDatabase::fetch_iter`]), or
//! per key of a batch ([`IndexedDatabase::resolve`]), which is how the executor reaches
//! it. The store finds a key itself: a caller names the key's values by accessor, never
//! a hash, and gets tuple offsets back, which it may keep in place of the tuples' values
//! ([`Relation::values`]).

use crate::database::Database;
use crate::index::{resolve_each, HashIndex, Offsets};
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

/// A database instance together with one hash index per access constraint; see the
/// module docs.
///
/// Building an `IndexedDatabase` is the physical-design step of the paper's strategy:
/// "develop and maintain an access schema `A` for an application" and build the indices
/// it requires. Fetches through [`IndexedDatabase::fetch_iter`] never scan a relation.
#[derive(Debug, Clone)]
pub struct IndexedDatabase {
    database: Database,
    schema: AccessSchema,
    /// Per constraint: its relation's position in `database`, resolved at build time.
    relations: Vec<usize>,
    /// Per constraint: its index on `X` over its relation.
    indexes: Vec<HashIndex>,
}

/// The executor-facing handle on a store: a shared borrow, `Copy` and one word.
pub type Store<'a> = &'a IndexedDatabase;

impl IndexedDatabase {
    /// Build the indexes required by the access schema over the database.
    ///
    /// Fails if the schema references relations or attribute positions the catalog
    /// does not declare, or if a constrained relation has more tuples than 32-bit
    /// posting offsets can address. Whether the *cardinality* part of each constraint
    /// holds is a separate question — check it with [`IndexedDatabase::validate`].
    pub fn build(database: Database, schema: AccessSchema) -> Result<Self> {
        schema.validate(database.catalog())?;
        let constraints = schema.constraints().iter();
        let relations = constraints
            .clone()
            .map(|constraint| database.position(constraint.relation()))
            .collect::<Result<Vec<_>>>()?;
        let indexes = constraints
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

    /// Always 1: each constraint has one index. Kept only because the end-to-end
    /// benchmark harness (`benchmark/`) still calls it.
    pub fn shard_count(&self) -> u32 {
        1
    }

    /// The index of constraint `constraint_index`, if the schema has one.
    pub fn index(&self, constraint_index: usize) -> Option<&HashIndex> {
        self.indexes.get(constraint_index)
    }

    /// Exact `(tuple_bytes, index_bytes)` of the store, from lengths × `size_of`:
    /// the flat tuple values and every index's `u32` arrays. Only the shared payloads
    /// of strings over [`bea_core::value::Str::INLINE`] bytes are not counted.
    pub fn footprint(&self) -> (u64, u64) {
        let index_bytes = self.indexes.iter().map(HashIndex::bytes).sum();
        (self.database.tuple_bytes(), index_bytes)
    }

    /// Iterate, through the index of constraint `constraint_index`, over the tuples of
    /// its relation whose `X`-projection equals `key`, straight out of the index (see
    /// [`FetchIter`]). Yields full tuples; callers project onto `X ∪ Y` as needed (the
    /// executor in `bea-engine` does). The pair's second field is always 0, kept only
    /// because the end-to-end benchmark harness (`benchmark/`) reads `.0`.
    ///
    /// No intermediate collection is allocated, and the rows stay borrowed from the
    /// relation until the consumer decides what to project out of them. The iterator
    /// is exact-sized, so callers can account for the number of tuples read before
    /// walking them.
    pub fn fetch_iter(
        &self,
        constraint_index: usize,
        key: &[Value],
    ) -> Result<(FetchIter<'_>, u32)> {
        let (relation, index) = self.indexed(constraint_index, key.len())?;
        let offsets = index.lookup(relation, key);
        Ok((FetchIter { relation, offsets }, 0))
    }

    /// Columnar counterpart of [`IndexedDatabase::fetch_iter`]: append, for every tuple
    /// whose `X`-projection equals `key`, the values at `positions` directly into the
    /// corresponding output columns (`out[i]` receives `tuple[positions[i]]`). Returns
    /// the number of tuples appended — the count [`IndexedDatabase::fetch_iter`] would
    /// report, for access accounting — and, like it, a 0 kept only for the benchmark
    /// harness.
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
    ) -> Result<(u64, u32)> {
        let (iter, _) = self.fetch_iter(constraint_index, key)?;
        Ok((iter.project_into(positions.iter(), out), 0))
    }

    /// Batched fetch: for each of `count` probes in order, append to `offsets` the
    /// offsets of the tuples whose `X`-projection equals its key — the tuples
    /// [`IndexedDatabase::fetch_iter`] returns — and push to `ends` where they end.
    /// Probe `i`'s key is `arity` values, value `m` being `key(i, m)`: the caller names
    /// them where it holds them, and nothing is copied. Dense keys are resolved in
    /// groups, their cache misses overlapped (see [`crate::index`]). Refuses, appending
    /// nothing, a constraint the schema lacks and keys not of the constraint's arity, as
    /// `fetch_iter` does. Ends are `u32`: `offsets` must stay under 2³² entries, as it
    /// does where each tuple is listed once. The executor's keyed operators reach the
    /// index only here.
    pub fn resolve<'k>(
        &self,
        constraint_index: usize,
        count: usize,
        arity: usize,
        key: impl Fn(usize, usize) -> &'k Value,
        offsets: &mut Vec<u32>,
        ends: &mut Vec<u32>,
    ) -> Result<()> {
        let (relation, index) = self.indexed(constraint_index, arity)?;
        ends.reserve(count);
        resolve_each(relation, index, count, key, |found| {
            offsets.extend(found);
            ends.push(u32::try_from(offsets.len()).expect("under 2^32 offsets"));
        });
        Ok(())
    }

    /// Whether the tuples of constraint `constraint_index`'s relation are pairwise
    /// distinct on the attribute positions `within` accepts, as the store's own layout
    /// proves it: some index over that relation keeps one tuple per key (a unique
    /// layout) and its key attributes are all accepted. False when no index proves it,
    /// and for a constraint the schema lacks.
    pub fn distinct_within(&self, constraint_index: usize, within: impl Fn(usize) -> bool) -> bool {
        let Some(&relation) = self.relations.get(constraint_index) else {
            return false;
        };
        let mut indexes = self.relations.iter().zip(&self.indexes);
        indexes.any(|(&on, index)| {
            on == relation && index.is_unique() && index.key_attrs().iter().all(|&a| within(a))
        })
    }

    /// Constraint `constraint_index`'s relation and index — refusing a constraint the
    /// schema does not have, and a key of `arity` values that is not of the
    /// constraint's arity.
    fn indexed(&self, constraint_index: usize, arity: usize) -> Result<(&Relation, &HashIndex)> {
        let Some(index) = self.indexes.get(constraint_index) else {
            return Err(Error::MissingConstraint {
                reason: format!("no access constraint with index {constraint_index}"),
            });
        };
        let expected = index.key_attrs().len();
        if arity != expected {
            return Err(Error::invalid(format!(
                "a fetch key has {arity} values, but constraint {constraint_index} \
                 expects {expected}"
            )));
        }
        let relation = self.database.relation_at(self.relations[constraint_index]);
        Ok((relation, index))
    }

    /// Check the cardinality part of every constraint: does `D ⊨ A` hold?
    ///
    /// Returns the list of violations (empty iff the instance satisfies the schema), by
    /// constraint and, within one, in order of the offending keys' first occurrence.
    pub fn validate(&self) -> Vec<ConstraintViolation> {
        let db_size = self.size();
        let mut violations = Vec::new();
        let constraints = self.schema.constraints().iter().enumerate();
        for ((ci, constraint), index) in constraints.zip(&self.indexes) {
            let relation = self.database.relation_at(self.relations[ci]);
            let allowed = constraint.cardinality().bound(db_size);
            for offsets in index.groups() {
                let first = offsets.clone().next().expect("a group is never empty");
                let mut ys: Vec<Row> = offsets
                    .map(|o| Relation::project(relation.tuple(o as usize), constraint.y()))
                    .collect();
                ys.sort();
                ys.dedup();
                if ys.len() as u64 > allowed {
                    violations.push(ConstraintViolation {
                        constraint_index: ci,
                        key: Relation::project(relation.tuple(first as usize), constraint.x()),
                        observed: ys.len() as u64,
                        allowed,
                    });
                }
            }
        }
        violations
    }

    /// Convenience: `true` iff [`IndexedDatabase::validate`] reports no violation.
    pub fn satisfies_schema(&self) -> bool {
        self.validate().is_empty()
    }
}

/// Borrowing iterator over the tuples an index lookup matched, in insertion order; see
/// [`IndexedDatabase::fetch_iter`].
///
/// It walks the key's [`Offsets`] as the index's layout keeps them: a run of
/// consecutive tuples where the relation is unique or clustered on the key (no array is
/// read at all), or a slice of the index's postings otherwise. Either way it yields the
/// same tuples in the same order, and it is exact-sized, cheap to clone and borrows
/// everything it reads.
#[derive(Debug, Clone)]
pub struct FetchIter<'a> {
    relation: &'a Relation,
    offsets: Offsets<'a>,
}

impl<'a> Iterator for FetchIter<'a> {
    type Item = &'a [Value];

    fn next(&mut self) -> Option<&'a [Value]> {
        let offset = self.offsets.next()?;
        Some(self.relation.tuple(offset as usize))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.offsets.size_hint()
    }

    fn fold<B, F: FnMut(B, &'a [Value]) -> B>(self, init: B, mut f: F) -> B {
        let relation = self.relation;
        let tuple = move |acc, offset: u32| f(acc, relation.tuple(offset as usize));
        self.offsets.fold(init, tuple)
    }
}

impl ExactSizeIterator for FetchIter<'_> {}

impl FetchIter<'_> {
    /// Append, for every remaining tuple, the values at `positions` into the
    /// corresponding output columns (`out[i]` receives the tuple's value at the `i`-th
    /// position); returns how many tuples were appended. The columnar fetch kernel:
    /// [`IndexedDatabase::fetch_into_columns`] and the executor's resolved fetches go
    /// through it, so they cannot drift on the append semantics.
    pub fn project_into<'p>(
        self,
        positions: impl Iterator<Item = &'p usize> + Clone,
        out: &mut [Vec<Value>],
    ) -> u64 {
        debug_assert_eq!(
            positions.clone().count(),
            out.len(),
            "one output column per projected position"
        );
        self.fold(0, |appended, tuple| {
            for (column, &position) in out.iter_mut().zip(positions.clone()) {
                column.push(tuple[position].clone());
            }
            appended + 1
        })
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
        // The benchmark harness's fields: one partition, and a 0 beside every fetch.
        assert_eq!(idb.shard_count(), 1);
        let (rows, zero) = idb.fetch_iter(0, &[Value::int(1)]).unwrap();
        assert_eq!((rows.len(), zero), (2, 0));
        let (rows, _) = idb.fetch_iter(0, &[Value::int(9)]).unwrap();
        assert_eq!(rows.len(), 0);
        assert!(idb.satisfies_schema());
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
        let value = std::mem::size_of::<Value>() as u64;
        let position = std::mem::size_of::<usize>() as u64;
        let store = |keys: [i64; 3]| {
            let mut db = Database::new(catalog());
            let rows = keys
                .into_iter()
                .zip([10, 11, 20])
                .map(|(a, b)| vec![Value::int(a), Value::int(b)]);
            db.extend("R", rows).unwrap();
            IndexedDatabase::build(db, schema.clone()).unwrap()
        };
        // 3 tuples × 2 values. Keys 1, 1, 2 are clustered and consecutive: 3 starts + 1
        // key position, and neither postings nor slots.
        assert_eq!(sample_db().size(), 3);
        assert_eq!(store([1, 1, 2]).footprint(), (6 * value, 3 * 4 + position));
        // Keys 1, 1, 3 are clustered but not consecutive: 3 starts + 4 slots (2 keys).
        assert_eq!(
            store([1, 1, 3]).footprint(),
            (6 * value, (3 + 4) * 4 + position)
        );
        // Keys 1, 2, 1 are not clustered: 3 postings + 3 starts, and no slots; keys 1,
        // 3, 1 add 4 slots.
        assert_eq!(
            store([1, 2, 1]).footprint(),
            (6 * value, (3 + 3) * 4 + position)
        );
        assert_eq!(
            store([1, 3, 1]).footprint(),
            (6 * value, (3 + 3 + 4) * 4 + position)
        );
    }

    #[test]
    fn fetch_iter_matches_fetch() {
        let c = catalog();
        let schema =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 2).unwrap()
            ]);
        let idb = IndexedDatabase::build(sample_db(), schema).unwrap();
        let (iter, _) = idb.fetch_iter(0, &[Value::int(1)]).unwrap();
        assert_eq!(iter.len(), 2);
        let via_iter: Vec<&[Value]> = iter.collect();
        // The paper's fetch `D_XY(X = 1)`, by a scan in row order.
        let relation = idb.database().relation("R").unwrap();
        let via_scan: Vec<&[Value]> = relation.rows().filter(|t| t[0] == Value::int(1)).collect();
        assert_eq!(via_iter, via_scan);
        // Missing keys yield an empty, zero-length iterator — not an error.
        let (mut empty, _) = idb.fetch_iter(0, &[Value::int(9)]).unwrap();
        assert_eq!(empty.len(), 0);
        assert!(empty.next().is_none());
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
            .unwrap()
            .0;
        assert_eq!(appended, 2);
        assert_eq!(cols[0], vec![Value::int(10), Value::int(11)]);
        assert_eq!(cols[1], vec![Value::int(1), Value::int(1)]);
        // Appends accumulate: a second key extends the same columns.
        let appended = idb
            .fetch_into_columns(0, &[Value::int(2)], &[1, 0], &mut cols)
            .unwrap()
            .0;
        assert_eq!(appended, 1);
        assert_eq!(cols[0].len(), 3);
        assert_eq!(cols[1][2], Value::int(2));
        // Missing keys append nothing; argument errors mirror `fetch_iter`.
        assert_eq!(
            idb.fetch_into_columns(0, &[Value::int(9)], &[0], &mut [Vec::new()])
                .unwrap()
                .0,
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
        let missing = idb.fetch_iter(7, &[Value::int(1)]).unwrap_err();
        assert!(missing.to_string().contains("index 7"), "{missing}");
        let arity = idb.fetch_iter(0, &[]).unwrap_err();
        assert!(arity.to_string().contains("expects 1"), "{arity}");
    }

    /// The columnar fetch refuses what `fetch_iter` refuses, with the same messages;
    /// a missing key is an empty result from both.
    #[test]
    fn fetch_into_columns_errors_mirror_fetch_iter() {
        let c = catalog();
        let schema =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 2).unwrap()
            ]);
        let idb = IndexedDatabase::build(sample_db(), schema).unwrap();
        let column = &mut [Vec::new()];
        let refused_by_columns = [
            idb.fetch_into_columns(7, &[Value::int(1)], &[0], column),
            idb.fetch_into_columns(0, &[], &[0], column),
        ]
        .map(|result| result.expect_err("refused").to_string());
        let refused_by_iter = [
            idb.fetch_iter(7, &[Value::int(1)]).err(),
            idb.fetch_iter(0, &[]).err(),
        ]
        .map(|error| error.expect("refused").to_string());
        assert_eq!(refused_by_columns, refused_by_iter);
        let (iter, _) = idb.fetch_iter(0, &[Value::int(999)]).unwrap();
        assert_eq!(iter.len(), 0);
        let mut cols: Vec<Vec<Value>> = vec![Vec::new()];
        let (appended, _) = idb
            .fetch_into_columns(0, &[Value::int(999)], &[1], &mut cols)
            .unwrap();
        assert_eq!(appended, 0);
        assert!(cols[0].is_empty());
    }

    /// Seeded differential of the batched fetch against the single-key fetch, probe by
    /// probe, for present, absent and repeated keys, 0 to 2 500 probes per call, on
    /// composite, single and empty keys; the single-key fetch's errors for the whole
    /// call; and keys not of the constraint's arity, refused.
    #[test]
    fn batched_resolve_matches_each_single_key_fetch() {
        use crate::index::tests::{random_relation, reference};
        let mut c = Catalog::new();
        c.declare("R", ["a", "b", "c"]).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a", "c"], &["b"], 2).unwrap(),
            AccessConstraint::new(&c, "R", &["b"], &["a"], 3).unwrap(),
            AccessConstraint::new(&c, "R", &[], &["a"], 3).unwrap(),
        ]);
        let source = random_relation(0x5EED, 900, 15);
        let mut db = Database::new(c);
        db.extend("R", source.rows().map(<[Value]>::to_vec))
            .unwrap();
        let store = IndexedDatabase::build(db, schema.clone()).unwrap();
        let relation = store.database().relation("R").unwrap();
        let (mut offsets, mut ends) = (Vec::new(), Vec::new());
        for (ci, constraint) in schema.constraints().iter().enumerate() {
            let (_, present) = reference(relation, constraint.x());
            let absent: Row = vec![Value::int(-9); constraint.x().len()];
            for total in [0usize, 1, 17, 2_500] {
                let keys: Vec<&Row> = (0..total)
                    .map(|i| match i % 7 {
                        3 => &absent,
                        _ => &present[(i * 31) % present.len()],
                    })
                    .collect();
                let arity = constraint.x().len();
                let key = |i: usize, m: usize| &keys[i][m];
                // Appended after what the vectors already hold.
                let (base, before) = (offsets.len(), ends.len());
                store
                    .resolve(ci, total, arity, key, &mut offsets, &mut ends)
                    .unwrap();
                assert_eq!(ends.len(), before + total);
                let mut start = base;
                for (key, &end) in keys.iter().zip(&ends[before..]) {
                    let (single, _) = store.fetch_iter(ci, key).unwrap();
                    let found = &offsets[start..end as usize];
                    let tuples = found.iter().map(|&o| relation.row(o as usize).unwrap());
                    assert!(tuples.eq(single), "key {key:?}");
                    start = end as usize;
                }
                assert_eq!(start, offsets.len());
            }
        }
        let one = [Value::int(1)];
        let key = |_: usize, m: usize| &one[m];
        let held = (offsets.clone(), ends.clone());
        assert!(store
            .resolve(7, 1, 1, key, &mut offsets, &mut ends)
            .is_err());
        let message = store
            .resolve(0, 1, 1, key, &mut offsets, &mut ends)
            .unwrap_err();
        assert!(message.to_string().contains("expects 2"), "{message}");
        assert_eq!(
            (&offsets, &ends),
            (&held.0, &held.1),
            "a refused call appends nothing"
        );
        // Keys of the wrong arity, even none of them: refused, whole, and no key is read.
        let unread = |_: usize, _: usize| -> &Value { unreachable!("a refused key is read") };
        for (ci, count, arity) in [(0, 2, 1), (1, 2, 3), (2, 1, 1), (1, 0, 2)] {
            store
                .resolve(1, 1, 1, key, &mut offsets, &mut ends)
                .unwrap();
            let held = (offsets.clone(), ends.clone());
            let message = store
                .resolve(ci, count, arity, unread, &mut offsets, &mut ends)
                .unwrap_err();
            let message = message.to_string();
            assert!(
                message.contains(&format!("has {arity} values")),
                "{message}"
            );
            assert_eq!(
                (&offsets, &ends),
                (&held.0, &held.1),
                "a refused call appends nothing"
            );
        }
    }

    /// Seeded differential of validation over random relations with composite and
    /// string keys: exactly the violations a keyed-map oracle finds, in key order.
    #[test]
    fn validation_finds_every_violation_in_key_order() {
        use crate::index::tests::{random_relation, reference};
        let mut c = Catalog::new();
        c.declare("R", ["a", "b", "c"]).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a", "c"], &["b"], 2).unwrap(),
            AccessConstraint::new(&c, "R", &["b"], &["a"], 3).unwrap(),
        ]);
        for seed in [3u64, 17, 92] {
            let source = random_relation(seed, 600, 12);
            let mut db = Database::new(c.clone());
            db.extend("R", source.rows().map(<[Value]>::to_vec))
                .unwrap();
            let mut expected = Vec::new();
            for (ci, constraint) in schema.constraints().iter().enumerate() {
                let (map, order) = reference(&source, constraint.x());
                let allowed = constraint.cardinality().bound(600);
                for key in order {
                    let mut ys: Vec<Row> = map[&key]
                        .iter()
                        .map(|&o| Relation::project(source.tuple(o as usize), constraint.y()))
                        .collect();
                    ys.sort();
                    ys.dedup();
                    if ys.len() as u64 > allowed {
                        expected.push(ConstraintViolation {
                            constraint_index: ci,
                            key,
                            observed: ys.len() as u64,
                            allowed,
                        });
                    }
                }
            }
            assert!(!expected.is_empty(), "the bounds are meant to bite");
            let store = IndexedDatabase::build(db, schema.clone()).unwrap();
            assert_eq!(store.validate(), expected);
            assert!(!store.satisfies_schema());
        }
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
        let (rows, _) = idb.fetch_iter(0, &[]).unwrap();
        assert_eq!(rows.len(), 3);
        assert!(idb.satisfies_schema());
    }
}
