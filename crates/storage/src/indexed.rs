//! The store: a database plus one index per access constraint, each index partitioned
//! into `shard_count ≥ 1` shards by its key.
//!
//! [`IndexedDatabase`] partitions *each constraint's index* — not the relations — by a
//! deterministic hash of the constraint key ([`shard_of`]). Every key, and hence every
//! posting list, lives wholly inside exactly one shard, so:
//!
//! * a fetch for key `ā` probes only the shard that owns `ā` — boundedness survives
//!   partitioning, because the set of `(constraint, key)` lookups a bounded plan
//!   performs is unchanged and each lookup touches one shard;
//! * the per-key result (tuples *and* their order) is the same at every shard count,
//!   because a shard's index is built by the same procedure (the two counting passes of
//!   `HashIndex`) over the tuples routed to it, in row order, and those include the
//!   key's full posting list.
//!
//! The unsharded store is the 1-shard store: [`IndexedDatabase::build`] is
//! [`IndexedDatabase::build_sharded`] at one shard, which indexes each relation
//! directly and routes nothing. A physical plan never names a shard: the store routes
//! every probe to the shard that owns its key ([`IndexedDatabase::resolve`]), so it
//! runs the same plan at every shard count, and every fetch reports the shard that
//! served it — what per-shard access accounting (`AccessStats::rows_fetched_by_shard`
//! in `bea-engine`) counts.

use crate::database::Database;
use crate::index::{offset_bound, resolve_each, HashIndex, Probes};
use crate::relation::Relation;
use crate::sharded::shard_of;
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

/// A database instance together with one hash index per access constraint, each
/// partitioned into [`IndexedDatabase::shard_count`] shards; see the module docs.
///
/// Building an `IndexedDatabase` is the physical-design step of the paper's strategy:
/// "develop and maintain an access schema `A` for an application" and build the indices
/// it requires. Fetches through [`IndexedDatabase::fetch_iter`] never scan a relation.
#[derive(Debug, Clone)]
pub struct IndexedDatabase {
    database: Database,
    schema: AccessSchema,
    shard_count: u32,
    /// Per constraint: its relation's position in `database`, resolved at build time.
    relations: Vec<usize>,
    /// `indexes[constraint][shard]`: the part of constraint `constraint`'s index whose
    /// keys route to `shard`.
    indexes: Vec<Vec<HashIndex>>,
}

/// The executor-facing handle on a store: a shared borrow, `Copy` and one word.
pub type Store<'a> = &'a IndexedDatabase;

impl IndexedDatabase {
    /// Build the indexes required by the access schema over the database, unsharded:
    /// [`IndexedDatabase::build_sharded`] at one shard.
    pub fn build(database: Database, schema: AccessSchema) -> Result<Self> {
        Self::build_sharded(database, schema, 1)
    }

    /// Build the indexes required by the access schema over the database, each
    /// partitioned into `shard_count` shards.
    ///
    /// Fails if `shard_count` is 0, if the schema references relations or attribute
    /// positions the catalog does not declare, or if a constrained relation has more
    /// tuples than 32-bit posting offsets can address. Whether the *cardinality* part
    /// of each constraint holds is a separate question — check it with
    /// [`IndexedDatabase::validate`].
    pub fn build_sharded(
        database: Database,
        schema: AccessSchema,
        shard_count: u32,
    ) -> Result<Self> {
        if shard_count == 0 {
            return Err(Error::invalid("a store needs at least one shard"));
        }
        schema.validate(database.catalog())?;
        let constraints = schema.constraints().iter();
        let relations = constraints
            .clone()
            .map(|constraint| database.position(constraint.relation()))
            .collect::<Result<Vec<_>>>()?;
        let indexes = constraints
            .zip(&relations)
            .map(|(constraint, &at)| {
                partition(database.relation_at(at), constraint.x(), shard_count)
            })
            .collect::<Result<_>>()?;
        Ok(Self {
            database,
            schema,
            shard_count,
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

    /// Number of shards each constraint's index is partitioned into: 1 unsharded.
    /// Informational — plans are the same at every shard count, and each key is
    /// routed to its shard at run time.
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// Exact `(tuple_bytes, index_bytes)` of the store, from lengths × `size_of`:
    /// the flat tuple values and every shard's `u32` arrays. Only the shared payloads of
    /// strings over [`bea_core::value::Str::INLINE`] bytes are not counted.
    pub fn footprint(&self) -> (u64, u64) {
        let index_bytes = self.indexes.iter().flatten().map(HashIndex::bytes).sum();
        (self.database.tuple_bytes(), index_bytes)
    }

    /// Iterate, through the index of constraint `constraint_index`, over the tuples of
    /// its relation whose `X`-projection equals `key`, straight out of the owning
    /// shard's postings; also returns that shard. Yields full tuples; callers project
    /// onto `X ∪ Y` as needed (the executor in `bea-engine` does).
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
        let (relation, shards) = self.indexed(constraint_index, key.len())?;
        let shard = shard_of(key, self.shard_count);
        let offsets = shards[shard as usize].lookup(relation, key).iter();
        Ok((FetchIter { relation, offsets }, shard))
    }

    /// Columnar counterpart of [`IndexedDatabase::fetch_iter`]: append, for every tuple
    /// whose `X`-projection equals `key`, the values at `positions` directly into the
    /// corresponding output columns (`out[i]` receives `tuple[positions[i]]`). Returns
    /// the number of tuples appended — the count [`IndexedDatabase::fetch_iter`] would
    /// report, for access accounting — and the serving shard.
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
        let (iter, shard) = self.fetch_iter(constraint_index, key)?;
        Ok((iter.project_into(positions, out), shard))
    }

    /// Batched fetch: clear `out`, then push, for every probe in order, the tuples whose
    /// `X`-projection equals its key (empty if none) and the shard that owns the key
    /// ([`shard_of`]) and served them — per probe what [`IndexedDatabase::fetch_iter`]
    /// returns. The keys are walked together, their cache misses overlapped (see
    /// [`crate::index`]). The executor's keyed operators reach the index only here.
    pub fn resolve<'a>(
        &'a self,
        constraint_index: usize,
        probes: Probes<'_>,
        out: &mut Vec<(FetchIter<'a>, u32)>,
    ) -> Result<()> {
        out.clear();
        let (relation, shards) = self.indexed(constraint_index, probes.arity)?;
        let count = probes.hashes.len();
        assert_eq!(probes.keys.len(), probes.arity * count, "one key per hash");
        out.reserve(count);
        let route = |key: &[Value]| {
            let shard = shard_of(key, self.shard_count);
            (&shards[shard as usize], shard)
        };
        resolve_each(relation, probes, route, |postings, shard| {
            let offsets = postings.iter();
            out.push((FetchIter { relation, offsets }, shard));
        });
        Ok(())
    }

    /// Constraint `constraint_index`'s relation and its index shards, by shard number —
    /// refusing a constraint the schema does not have and a key of `arity` values that
    /// is not the constraint's.
    pub(crate) fn indexed(
        &self,
        constraint_index: usize,
        arity: usize,
    ) -> Result<(&Relation, &[HashIndex])> {
        let Some(shards) = self.indexes.get(constraint_index) else {
            return Err(Error::MissingConstraint {
                reason: format!("no access constraint with index {constraint_index}"),
            });
        };
        let expected = shards[0].key_attrs().len();
        if arity != expected {
            return Err(Error::invalid(format!(
                "fetch key has {arity} values but constraint {constraint_index} expects {expected}"
            )));
        }
        let relation = self.database.relation_at(self.relations[constraint_index]);
        Ok((relation, shards))
    }

    /// Check the cardinality part of every constraint: does `D ⊨ A` hold?
    ///
    /// Returns the list of violations (empty iff the instance satisfies the schema), by
    /// constraint, then by shard and, within one, in order of the offending keys' first
    /// occurrence. Each key's posting list lives wholly inside one shard, so checking
    /// shard by shard sees every key exactly once.
    pub fn validate(&self) -> Vec<ConstraintViolation> {
        let db_size = self.size();
        let mut violations = Vec::new();
        let constraints = self.schema.constraints().iter().enumerate();
        for ((ci, constraint), shards) in constraints.zip(&self.indexes) {
            let relation = self.database.relation_at(self.relations[ci]);
            let allowed = constraint.cardinality().bound(db_size);
            for offsets in shards.iter().flat_map(HashIndex::groups) {
                let mut ys: Vec<Row> = offsets
                    .iter()
                    .map(|&o| Relation::project(relation.tuple(o as usize), constraint.y()))
                    .collect();
                ys.sort();
                ys.dedup();
                if ys.len() as u64 > allowed {
                    violations.push(ConstraintViolation {
                        constraint_index: ci,
                        key: Relation::project(relation.tuple(offsets[0] as usize), constraint.x()),
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

/// Constraint `x`'s index over `relation`, in `shard_count` shards: every tuple routed
/// once by the [`shard_of`] hash of its key projection, and each shard's index built
/// over the tuples routed to it, in row order — so a key's full posting list lands in
/// one shard, exactly the list one shard would hold. One shard indexes the relation
/// directly and routes nothing.
pub(crate) fn partition(
    relation: &Relation,
    x: &[usize],
    shard_count: u32,
) -> Result<Vec<HashIndex>> {
    if shard_count == 1 {
        return Ok(vec![HashIndex::build(relation, x)?]);
    }
    let mut routed: Vec<Vec<u32>> = vec![Vec::new(); shard_count as usize];
    let offsets = 0..offset_bound(relation.name(), relation.len())?;
    for (offset, row) in offsets.zip(relation.rows()) {
        let shard = shard_of(x.iter().map(|&attr| &row[attr]), shard_count);
        routed[shard as usize].push(offset);
    }
    let over = |offsets: &Vec<u32>| HashIndex::over(relation, x, offsets.iter().copied());
    routed.iter().map(over).collect()
}

/// Borrowing iterator over the tuples an index lookup matched; see
/// [`IndexedDatabase::fetch_iter`].
#[derive(Debug, Clone)]
pub struct FetchIter<'a> {
    relation: &'a Relation,
    offsets: std::slice::Iter<'a, u32>,
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
    /// how many tuples were appended. The columnar fetch kernel:
    /// [`IndexedDatabase::fetch_into_columns`] and the executor's resolved fetches go
    /// through it, so they cannot drift on the append semantics.
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
        assert_eq!(idb.shard_count(), 1);
        let (rows, shard) = idb.fetch_iter(0, &[Value::int(1)]).unwrap();
        assert_eq!((rows.len(), shard), (2, 0));
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
