//! A sharded indexed store: the access-constraint indexes partitioned by key ranges.
//!
//! [`ShardedDatabase`] partitions *each constraint's index* — not the relations — into
//! `shard_count` shards by a deterministic hash of the constraint key ([`shard_of`]).
//! Every key, and hence every posting list, lives wholly inside exactly one shard, so:
//!
//! * a fetch for key `ā` probes only the shard that owns `ā` — boundedness survives
//!   partitioning, because the set of `(constraint, key)` lookups a bounded plan
//!   performs is unchanged and each lookup touches one shard;
//! * the per-key result (tuples *and* their order) is identical to the unsharded
//!   [`IndexedDatabase`], because a shard's index is built by the same procedure (the
//!   two counting passes of `HashIndex`) over the tuples routed to it, in row order,
//!   and those include the key's full posting list;
//! * `shard_count = 1` reproduces today's [`IndexedDatabase`] exactly: one shard owns
//!   every key and its index equals the unsharded one.
//!
//! Routing is a pure function of the key values ([`shard_of`] — FNV-1a over an
//! explicit little-endian value serialization, so it is platform-, process- and
//! run-independent), and it is the store's alone: one plan, keys routed at run time.
//! A physical plan never names a shard; [`Store::resolve`] sends each probe to the
//! shard that owns its key, so a sharded store runs exactly the plan its unsharded
//! twin does.
//!
//! [`Store`] is the executor-facing handle over either store flavor; fetches through it
//! additionally report the shard that served them, which is what makes per-shard access
//! accounting (`AccessStats::rows_fetched_by_shard` in `bea-engine`) possible.

use crate::database::Database;
use crate::index::{offset_bound, resolve_each, HashIndex, Probes};
use crate::indexed::{
    check_groups, check_key_arity, missing_constraint, probe, resolve_relations,
    ConstraintViolation, FetchIter, IndexedDatabase,
};
use crate::relation::Relation;
use bea_core::access::AccessSchema;
use bea_core::error::{Error, Result};
use bea_core::value::Value;

/// Environment variable naming the default shard count test suites build their sharded
/// stores with (the CI matrix runs the suite at `BEA_SHARDS=1` and `BEA_SHARDS=4`).
pub const SHARDS_ENV: &str = "BEA_SHARDS";

/// The shard count named by [`SHARDS_ENV`], defaulting to 1 (unsharded) when the
/// variable is unset or empty. A set-but-invalid value (`BEA_SHARDS=four`,
/// `BEA_SHARDS=0`) panics with the rejection reason instead of silently running
/// unsharded — a CI matrix typo must fail the job, not quietly test the wrong
/// configuration.
pub fn shards_from_env() -> u32 {
    bea_core::env::read_env(SHARDS_ENV, parse_shards).unwrap_or(1)
}

/// Parse a [`SHARDS_ENV`] value: a positive integer, with surrounding whitespace
/// tolerated and the empty string treated as unset (the `BEA_SHARDS= cmd` shell
/// idiom). Built on the shared [`bea_core::env`] contract, and kept a pure function
/// so the rejection rules are testable without mutating the process environment
/// (which would race parallel tests). Unlike the "zero means automatic" knobs,
/// `BEA_SHARDS=0` is rejected: a sharded store needs at least one shard.
pub fn parse_shards(value: &str) -> std::result::Result<u32, String> {
    use bea_core::env::EnvCount;
    match bea_core::env::parse_count(value) {
        Err(_) => Err(format!(
            "expected a positive integer, got {:?}",
            value.trim()
        )),
        Ok(EnvCount::Unset) => Ok(1),
        Ok(EnvCount::Zero) => Err("a sharded store needs at least 1 shard".to_owned()),
        Ok(EnvCount::Count(shards)) => {
            u32::try_from(shards).map_err(|_| format!("shard count {shards} does not fit in u32"))
        }
    }
}

/// FNV-1a, written out so shard routing does not depend on the standard library's
/// hasher (which is explicitly allowed to change between releases). Values are fed in
/// as an explicit little-endian byte serialization ([`Fnv1a::write_value`]) rather
/// than through `Value`'s derived `Hash` impl, whose integer writes are native-endian
/// — routing must give the same answer on every host, since the ROADMAP's distributed
/// follow-on puts the builder and the prober of a shard in different processes.
struct Fnv1a(u64);

impl Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Feed one value: a variant tag byte, then the payload in a fixed-width
    /// little-endian (or raw UTF-8) form, so equal values hash equally on any
    /// platform and unequal values of different variants cannot collide by layout.
    fn write_value(&mut self, value: &Value) {
        match value {
            Value::Int(i) => {
                self.write(&[0]);
                self.write(&i.to_le_bytes());
            }
            Value::Str(s) => {
                self.write(&[1]);
                self.write(s.as_bytes());
                // Length terminator: distinguishes ["ab","c"] from ["a","bc"].
                self.write(&(s.len() as u64).to_le_bytes());
            }
            Value::Bool(b) => self.write(&[2, u8::from(*b)]),
            Value::Labelled(l) => {
                self.write(&[3]);
                self.write(&l.to_le_bytes());
            }
        }
    }
}

/// The shard that owns `key` under `shard_count` shards: a deterministic,
/// platform-independent hash of the key values modulo the shard count.
/// `shard_count <= 1` always routes to shard 0. Shared by index construction
/// ([`ShardedDatabase::build`]) and probe routing, which must agree exactly.
pub fn shard_of<'v>(key: impl IntoIterator<Item = &'v Value>, shard_count: u32) -> u32 {
    if shard_count <= 1 {
        return 0;
    }
    let mut hasher = Fnv1a(0xCBF2_9CE4_8422_2325);
    for value in key {
        hasher.write_value(value);
    }
    (hasher.0 % u64::from(shard_count)) as u32
}

/// A database instance whose access-constraint indexes are partitioned into
/// `shard_count` shards by [`shard_of`] over the constraint key. See the module docs
/// for the layout and the routing rules.
#[derive(Debug, Clone)]
pub struct ShardedDatabase {
    database: Database,
    schema: AccessSchema,
    shard_count: u32,
    /// Per constraint: its relation's position in `database`, resolved at build time.
    relations: Vec<usize>,
    /// `shards[constraint][shard]`: the slice of constraint `constraint`'s index whose
    /// keys route to `shard`.
    shards: Vec<Vec<HashIndex>>,
}

impl ShardedDatabase {
    /// Build the sharded indexes required by the access schema over the database.
    ///
    /// Every tuple of a constrained relation is routed once, by the [`shard_of`] hash of
    /// its key projection, and each shard's index is then built over the tuples routed
    /// to it, in row order — so a key's full posting list lands in one shard, exactly
    /// the list the unsharded [`IndexedDatabase`] would build.
    pub fn build(database: Database, schema: AccessSchema, shard_count: u32) -> Result<Self> {
        if shard_count == 0 {
            return Err(Error::invalid(
                "a sharded database needs at least one shard".to_owned(),
            ));
        }
        let relations = resolve_relations(&database, &schema)?;
        let mut shards = Vec::with_capacity(schema.len());
        for (constraint, &at) in schema.constraints().iter().zip(&relations) {
            let (relation, x) = (database.relation_at(at), constraint.x());
            let mut routed: Vec<Vec<u32>> = vec![Vec::new(); shard_count as usize];
            let offsets = 0..offset_bound(relation.name(), relation.len())?;
            for (offset, row) in offsets.zip(relation.rows()) {
                let shard = shard_of(x.iter().map(|&attr| &row[attr]), shard_count);
                routed[shard as usize].push(offset);
            }
            let over = |offsets: &Vec<u32>| HashIndex::over(relation, x, offsets.iter().copied());
            shards.push(routed.iter().map(over).collect());
        }
        Ok(Self {
            database,
            schema,
            shard_count,
            relations,
            shards,
        })
    }

    /// Convenience: shard an existing [`IndexedDatabase`]'s data into `shard_count`
    /// shards (clones the database and schema; the unsharded indexes are rebuilt as
    /// shards).
    pub fn shard(indexed: &IndexedDatabase, shard_count: u32) -> Result<Self> {
        Self::build(
            indexed.database().clone(),
            indexed.schema().clone(),
            shard_count,
        )
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

    /// Number of shards each constraint's index is partitioned into.
    pub fn shard_count(&self) -> u32 {
        self.shard_count
    }

    /// The shard that owns `key` (for any constraint — routing depends only on the key
    /// values and the shard count).
    pub fn shard_of_key(&self, key: &[Value]) -> u32 {
        shard_of(key.iter(), self.shard_count)
    }

    /// Postings stored per shard for one constraint's index — how evenly the hash
    /// spread the key space, for experiments and balance checks.
    pub fn postings_per_shard(&self, constraint_index: usize) -> Option<Vec<u64>> {
        let shards = self.shards.get(constraint_index)?;
        Some(shards.iter().map(|i| i.num_postings() as u64).collect())
    }

    /// Exact `(tuple_bytes, index_bytes)`; see [`IndexedDatabase::footprint`].
    pub fn footprint(&self) -> (u64, u64) {
        let index_bytes = self.shards.iter().flatten().map(HashIndex::bytes).sum();
        (self.database.tuple_bytes(), index_bytes)
    }

    /// Borrowing fetch through the owning shard's index: iterate over the tuples whose
    /// `X`-projection equals `key`, plus the shard that served them. The iterator is
    /// identical (tuples and order) to [`IndexedDatabase::fetch_iter`] — sharding
    /// changes *where* a posting list lives, never its contents.
    pub fn fetch_iter(
        &self,
        constraint_index: usize,
        key: &[Value],
    ) -> Result<(FetchIter<'_>, u32)> {
        let (relation, shards) = self.indexed(constraint_index)?;
        let shard = shard_of(key.iter(), self.shard_count);
        let iter = probe(relation, &shards[shard as usize], constraint_index, key)?;
        Ok((iter, shard))
    }

    /// Constraint `constraint_index`'s relation and its index shards, by shard number.
    pub(crate) fn indexed(&self, constraint_index: usize) -> Result<(&Relation, &[HashIndex])> {
        let shards = self
            .shards
            .get(constraint_index)
            .ok_or_else(|| missing_constraint(constraint_index))?;
        Ok((
            self.database.relation_at(self.relations[constraint_index]),
            shards,
        ))
    }

    /// Columnar fetch through the owning shard's index: append, for every tuple whose
    /// `X`-projection equals `key`, the values at `positions` into the corresponding
    /// output columns. Returns the number of tuples appended and the serving shard.
    /// Mirrors [`IndexedDatabase::fetch_into_columns`] exactly.
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

    /// Check the cardinality part of every constraint over the sharded indexes: does
    /// `D ⊨ A` hold? Each key's posting list lives wholly inside one shard, so checking
    /// shard by shard sees every key exactly once.
    pub fn validate(&self) -> Vec<ConstraintViolation> {
        let (db_size, mut violations) = (self.size(), Vec::new());
        for (ci, shards) in self.shards.iter().enumerate() {
            let relation = self.database.relation_at(self.relations[ci]);
            for index in shards {
                check_groups(&self.schema, db_size, ci, relation, index, &mut violations);
            }
        }
        violations
    }

    /// Convenience: `true` iff [`ShardedDatabase::validate`] reports no violation.
    pub fn satisfies_schema(&self) -> bool {
        self.validate().is_empty()
    }
}

/// Executor-facing handle over either store flavor. `Copy` on purpose: operators hold
/// one per fetch and a handle is two words.
///
/// Fetches through a `Store` report the shard that served them (always 0 for the
/// unsharded [`IndexedDatabase`]), which feeds the per-shard access accounting in
/// `bea-engine`.
#[derive(Debug, Clone, Copy)]
pub enum Store<'a> {
    /// The unsharded store: one index per constraint.
    Indexed(&'a IndexedDatabase),
    /// The sharded store: `shard_count` index partitions per constraint.
    Sharded(&'a ShardedDatabase),
}

impl<'a> Store<'a> {
    /// The underlying database.
    pub fn database(&self) -> &'a Database {
        match self {
            Store::Indexed(db) => db.database(),
            Store::Sharded(db) => db.database(),
        }
    }

    /// The access schema whose indexes are materialized.
    pub fn schema(&self) -> &'a AccessSchema {
        match self {
            Store::Indexed(db) => db.schema(),
            Store::Sharded(db) => db.schema(),
        }
    }

    /// Total number of tuples `|D|`.
    pub fn size(&self) -> u64 {
        self.database().size()
    }

    /// Number of shards: 1 for the unsharded store. Informational — plans are the same
    /// at every shard count, and each key is routed to its shard at run time.
    pub fn shard_count(&self) -> u32 {
        match self {
            Store::Indexed(_) => 1,
            Store::Sharded(db) => db.shard_count(),
        }
    }

    /// Exact `(tuple_bytes, index_bytes)`; see [`IndexedDatabase::footprint`].
    pub fn footprint(&self) -> (u64, u64) {
        match self {
            Store::Indexed(db) => db.footprint(),
            Store::Sharded(db) => db.footprint(),
        }
    }

    /// Borrowing fetch plus the serving shard; see [`ShardedDatabase::fetch_iter`].
    pub fn fetch_iter(
        &self,
        constraint_index: usize,
        key: &[Value],
    ) -> Result<(FetchIter<'a>, u32)> {
        match self {
            Store::Indexed(db) => Ok((db.fetch_iter(constraint_index, key)?, 0)),
            Store::Sharded(db) => db.fetch_iter(constraint_index, key),
        }
    }

    /// Columnar fetch plus the serving shard; see
    /// [`ShardedDatabase::fetch_into_columns`].
    pub fn fetch_into_columns(
        &self,
        constraint_index: usize,
        key: &[Value],
        positions: &[usize],
        out: &mut [Vec<Value>],
    ) -> Result<(u64, u32)> {
        match self {
            Store::Indexed(db) => Ok((
                db.fetch_into_columns(constraint_index, key, positions, out)?,
                0,
            )),
            Store::Sharded(db) => db.fetch_into_columns(constraint_index, key, positions, out),
        }
    }

    /// Batched fetch: clear `out`, then push, for every probe in order, the tuples whose
    /// `X`-projection equals its key (empty if none) and the shard that owns the key
    /// ([`shard_of`]) and served them — per probe what [`Store::fetch_iter`] returns.
    /// The keys are walked together, their cache misses overlapped (see
    /// [`crate::index`]). The executor's keyed operators reach the index only here.
    pub fn resolve(
        &self,
        constraint_index: usize,
        probes: Probes<'_>,
        out: &mut Vec<(FetchIter<'a>, u32)>,
    ) -> Result<()> {
        out.clear();
        let (relation, indexes) = match self {
            Store::Indexed(db) => db.indexed(constraint_index)?,
            Store::Sharded(db) => db.indexed(constraint_index)?,
        };
        check_key_arity(&indexes[0], constraint_index, probes.arity)?;
        let count = probes.hashes.len();
        assert_eq!(probes.keys.len(), probes.arity * count, "one key per hash");
        out.reserve(count);
        let route = |key: &[Value]| {
            let shard = shard_of(key, indexes.len() as u32);
            (&indexes[shard as usize], shard)
        };
        resolve_each(relation, probes, route, |postings, shard| {
            let offsets = postings.iter();
            out.push((FetchIter { relation, offsets }, shard));
        });
        Ok(())
    }
}

impl<'a> From<&'a IndexedDatabase> for Store<'a> {
    fn from(database: &'a IndexedDatabase) -> Self {
        Store::Indexed(database)
    }
}

impl<'a> From<&'a ShardedDatabase> for Store<'a> {
    fn from(database: &'a ShardedDatabase) -> Self {
        Store::Sharded(database)
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
            (0..64).map(|i| vec![Value::int(i % 16), Value::int(i)]),
        )
        .unwrap();
        db
    }

    fn schema() -> AccessSchema {
        let c = catalog();
        AccessSchema::from_constraints([AccessConstraint::new(&c, "R", &["a"], &["b"], 8).unwrap()])
    }

    #[test]
    fn routing_is_deterministic_and_in_range() {
        for count in [1u32, 2, 3, 8] {
            for i in 0..32i64 {
                let key = [Value::int(i)];
                let s = shard_of(key.iter(), count);
                assert!(s < count);
                assert_eq!(s, shard_of(key.iter(), count), "routing must be stable");
            }
        }
        // shard_count <= 1 always routes to shard 0, including the empty key.
        assert_eq!(shard_of([].iter(), 1), 0);
        assert_eq!(shard_of([Value::str("x")].iter(), 1), 0);
        // With several shards, 16 distinct keys should not all pile onto one shard.
        let spread: std::collections::BTreeSet<u32> = (0..16)
            .map(|i| shard_of([Value::int(i)].iter(), 4))
            .collect();
        assert!(spread.len() >= 2, "hash routing degenerated to one shard");
    }

    #[test]
    fn shard_env_values_are_validated() {
        assert_eq!(parse_shards("1").unwrap(), 1);
        assert_eq!(parse_shards(" 4 ").unwrap(), 4);
        assert_eq!(parse_shards("").unwrap(), 1, "empty means unset");
        assert_eq!(parse_shards("  ").unwrap(), 1, "blank means unset");
        // The silent-fallback bug: `BEA_SHARDS=four` used to run unsharded without
        // a word. Every malformed value must now carry a rejection reason.
        assert!(parse_shards("four")
            .unwrap_err()
            .contains("positive integer"));
        assert!(parse_shards("0").unwrap_err().contains("at least 1"));
        assert!(parse_shards("-2").is_err());
        assert!(parse_shards("4 shards").is_err());
        // Whatever the CI matrix set for this process must itself be valid — the
        // panic path cannot be exercised here without racing parallel tests on the
        // process environment, which is exactly why the parser is a pure function.
        match std::env::var(SHARDS_ENV) {
            Err(_) => assert_eq!(shards_from_env(), 1),
            Ok(value) => assert_eq!(shards_from_env(), parse_shards(&value).unwrap()),
        }
    }

    #[test]
    fn one_shard_reproduces_the_indexed_database_exactly() {
        let idb = IndexedDatabase::build(sample_db(), schema()).unwrap();
        let sdb = ShardedDatabase::shard(&idb, 1).unwrap();
        assert_eq!(sdb.shard_count(), 1);
        for key in 0..20i64 {
            let key = vec![Value::int(key)];
            let unsharded: Vec<&[Value]> = idb.fetch_iter(0, &key).unwrap().collect();
            let (iter, shard) = sdb.fetch_iter(0, &key).unwrap();
            assert_eq!(shard, 0);
            let sharded: Vec<&[Value]> = iter.collect();
            assert_eq!(unsharded, sharded, "tuples and order must match");
        }
    }

    #[test]
    fn sharded_fetches_match_unsharded_per_key() {
        let idb = IndexedDatabase::build(sample_db(), schema()).unwrap();
        for count in [2u32, 3, 8] {
            let sdb = ShardedDatabase::shard(&idb, count).unwrap();
            assert!(sdb.satisfies_schema());
            for key in 0..20i64 {
                let key = vec![Value::int(key)];
                let unsharded: Vec<&[Value]> = idb.fetch_iter(0, &key).unwrap().collect();
                let (iter, shard) = sdb.fetch_iter(0, &key).unwrap();
                assert_eq!(shard, sdb.shard_of_key(&key));
                let sharded: Vec<&[Value]> = iter.collect();
                assert_eq!(unsharded, sharded);

                let mut cols: Vec<Vec<Value>> = vec![Vec::new(), Vec::new()];
                let (appended, shard2) =
                    sdb.fetch_into_columns(0, &key, &[1, 0], &mut cols).unwrap();
                assert_eq!(shard2, shard);
                assert_eq!(appended as usize, unsharded.len());
            }
            // Every posting lands in exactly one shard; together they cover R.
            let per_shard = sdb.postings_per_shard(0).unwrap();
            assert_eq!(per_shard.len(), count as usize);
            assert_eq!(per_shard.iter().sum::<u64>(), 64);
            if count >= 2 {
                assert!(
                    per_shard.iter().filter(|&&n| n > 0).count() >= 2,
                    "16 keys across {count} shards should occupy at least two"
                );
            }
        }
    }

    /// Seeded differential over random relations with composite and string keys: the
    /// shards partition every index, and no key's posting list is split or reordered.
    #[test]
    fn shards_partition_each_index_and_keep_every_posting_list_whole() {
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
            let idb = IndexedDatabase::build(db, schema.clone()).unwrap();
            let relation = idb.database().relation("R").unwrap();
            let mut expected_violations = idb.validate();
            assert!(
                !expected_violations.is_empty(),
                "the bounds are meant to bite"
            );
            for count in [1u32, 2, 3, 8] {
                let sdb = ShardedDatabase::shard(&idb, count).unwrap();
                for (ci, constraint) in schema.constraints().iter().enumerate() {
                    let (map, _) = reference(relation, constraint.x());
                    for (key, postings) in &map {
                        let owners: Vec<u32> = (0..count)
                            .filter(|&s| {
                                !sdb.shards[ci][s as usize].lookup(relation, key).is_empty()
                            })
                            .collect();
                        assert_eq!(owners, [shard_of(key.iter(), count)], "key {key:?}");
                        let (sharded, shard) = sdb.fetch_iter(ci, key).unwrap();
                        assert_eq!(shard, owners[0]);
                        let sharded: Vec<&[Value]> = sharded.collect();
                        let unsharded: Vec<&[Value]> = idb.fetch_iter(ci, key).unwrap().collect();
                        assert_eq!(sharded, unsharded, "tuples and order");
                        let by_offset: Vec<&[Value]> = postings
                            .iter()
                            .map(|&o| relation.row(o as usize).unwrap())
                            .collect();
                        assert_eq!(sharded, by_offset, "the seed layout's list");
                    }
                    let mut offsets: Vec<u32> = sdb.shards[ci]
                        .iter()
                        .flat_map(|index| index.groups().flatten().copied())
                        .collect();
                    offsets.sort_unstable();
                    assert!(offsets.iter().copied().eq(0..relation.len() as u32));
                    let per_shard = sdb.postings_per_shard(ci).unwrap();
                    assert_eq!(per_shard.len(), count as usize);
                    assert_eq!(per_shard.iter().sum::<u64>(), relation.len() as u64);
                }
                // The same violations; one shard reports them in the unsharded order.
                let mut violations = sdb.validate();
                if count == 1 {
                    assert_eq!(violations, idb.validate());
                }
                let by_key = |v: &ConstraintViolation| (v.constraint_index, v.key.clone());
                violations.sort_by_key(by_key);
                expected_violations.sort_by_key(by_key);
                assert_eq!(violations, expected_violations);
                assert_eq!(sdb.footprint().0, idb.footprint().0);
                assert!(sdb.footprint().1 >= idb.footprint().1 / 2);
            }
        }
    }

    /// Seeded differential of the batched fetch: every probe is reported served by the
    /// shard [`shard_of`] names, with exactly that shard's single-key fetch — at every
    /// shard count, for present, absent and repeated keys, 0 to 2 500 probes per call.
    #[test]
    fn batched_resolve_routes_each_probe_and_matches_its_single_key_fetch() {
        use crate::index::tests::{random_relation, reference};
        use bea_core::value::{hash_row, Row};
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
        let idb = IndexedDatabase::build(db, schema.clone()).unwrap();
        let relation = idb.database().relation("R").unwrap();
        for count in [1u32, 2, 3, 8] {
            let sdb = ShardedDatabase::shard(&idb, count).unwrap();
            let mut out = Vec::new();
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
                    let flat: Vec<Value> = keys.iter().copied().flatten().cloned().collect();
                    let hashes: Vec<u64> = keys.iter().map(|key| hash_row(*key)).collect();
                    let probes = Probes {
                        arity: constraint.x().len(),
                        keys: &flat,
                        hashes: &hashes,
                    };
                    for store in [Store::from(&idb), Store::from(&sdb)] {
                        store.resolve(ci, probes, &mut out).unwrap();
                        assert_eq!(out.len(), total);
                        for (key, (tuples, shard)) in keys.iter().zip(out.drain(..)) {
                            assert_eq!(shard, shard_of(key.iter(), store.shard_count()));
                            let (single, single_shard) = store.fetch_iter(ci, key).unwrap();
                            assert_eq!(single_shard, shard);
                            assert!(tuples.eq(single), "key {key:?} at {count} shards");
                        }
                    }
                }
            }
            // The single-key fetch's errors, for the whole call.
            let one = [Value::int(1)];
            let hash = [hash_row(&one)];
            let probes = Probes {
                arity: 1,
                keys: &one,
                hashes: &hash,
            };
            let sharded = Store::from(&sdb);
            assert!(sharded.resolve(7, probes, &mut out).is_err());
            let message = sharded
                .resolve(0, probes, &mut out)
                .unwrap_err()
                .to_string();
            assert!(message.contains("expects 2"), "{message}");
            assert!(out.is_empty(), "a refused call resolves nothing");
        }
    }

    #[test]
    fn validation_sees_violations_through_shards() {
        let c = catalog();
        let tight =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 1).unwrap()
            ]);
        let sdb = ShardedDatabase::build(sample_db(), tight, 4).unwrap();
        // Every key of R has 4 distinct b-values; the bound of 1 is violated 16 times.
        assert_eq!(sdb.validate().len(), 16);
        assert!(!sdb.satisfies_schema());
    }

    #[test]
    fn fetch_errors_mirror_the_indexed_store() {
        let sdb = ShardedDatabase::build(sample_db(), schema(), 4).unwrap();
        assert!(sdb.fetch_iter(7, &[Value::int(1)]).is_err());
        assert!(sdb.fetch_iter(0, &[]).is_err());
        assert!(sdb
            .fetch_into_columns(7, &[Value::int(1)], &[0], &mut [Vec::new()])
            .is_err());
        // Missing keys are empty results, not errors.
        let (iter, _) = sdb.fetch_iter(0, &[Value::int(999)]).unwrap();
        assert_eq!(iter.len(), 0);
        // Zero shards is rejected at build time.
        assert!(ShardedDatabase::build(sample_db(), schema(), 0).is_err());
    }

    #[test]
    fn store_handle_unifies_both_flavors() {
        let idb = IndexedDatabase::build(sample_db(), schema()).unwrap();
        let sdb = ShardedDatabase::shard(&idb, 4).unwrap();
        let stores: [Store<'_>; 2] = [Store::from(&idb), Store::from(&sdb)];
        assert_eq!(stores[0].shard_count(), 1);
        assert_eq!(stores[1].shard_count(), 4);
        let key = vec![Value::int(3)];
        let mut results: Vec<Vec<Vec<Value>>> = Vec::new();
        for store in stores {
            assert_eq!(store.size(), 64);
            assert_eq!(store.schema().len(), 1);
            assert_eq!(store.database().catalog().len(), 1);
            let (iter, shard) = store.fetch_iter(0, &key).unwrap();
            assert!(shard < store.shard_count());
            results.push(iter.map(<[Value]>::to_vec).collect());
            let mut cols: Vec<Vec<Value>> = vec![Vec::new()];
            let (appended, _) = store.fetch_into_columns(0, &key, &[1], &mut cols).unwrap();
            assert_eq!(appended as usize, results.last().unwrap().len());
        }
        assert_eq!(results[0], results[1]);
    }

    #[test]
    fn shards_env_parsing() {
        // Only exercised when the variable is absent (the test runner may set it):
        // malformed values and zero fall back to 1 via the same code path.
        assert!(shards_from_env() >= 1);
    }
}
