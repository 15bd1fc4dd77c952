//! Shard routing: which of a store's `shard_count` index shards owns a key.
//!
//! [`shard_of`] is a pure function of the key values — FNV-1a over an explicit
//! little-endian value serialization, so it is platform-, process- and
//! run-independent — and the store's alone: [`crate::IndexedDatabase`] routes every
//! tuple through it when it builds its shards and every probe key when it fetches, so
//! a physical plan never names a shard. [`SHARDS_ENV`] names the shard count the
//! daemon and the test suites build their stores with.

use bea_core::value::Value;

/// Environment variable naming the shard count the daemon and the test suites build
/// their stores with (the CI matrix runs the suite at `BEA_SHARDS=1` and `BEA_SHARDS=4`).
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
/// ([`crate::IndexedDatabase::build_sharded`]) and probe routing, which must agree
/// exactly.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::HashIndex;
    use crate::{ConstraintViolation, Database, IndexedDatabase, Probes};
    use bea_core::access::{AccessConstraint, AccessSchema};
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

    /// Constraint `ci`'s index shards in `store`.
    fn shards(store: &IndexedDatabase, ci: usize) -> &[HashIndex] {
        let arity = store.schema().constraints()[ci].x().len();
        store.indexed(ci, arity).unwrap().1
    }

    /// The unsharded store is the 1-shard store: `build` and `build_sharded(.., 1)`
    /// give the same tuples in the same order, all served by shard 0, the same
    /// footprint and the same violations.
    #[test]
    fn one_shard_reproduces_the_indexed_database_exactly() {
        let unsharded = IndexedDatabase::build(sample_db(), schema()).unwrap();
        let one = IndexedDatabase::build_sharded(sample_db(), schema(), 1).unwrap();
        assert_eq!(unsharded.shard_count(), 1);
        assert_eq!(one.shard_count(), 1);
        for key in 0..20i64 {
            let key = [Value::int(key)];
            let (expected, expected_shard) = unsharded.fetch_iter(0, &key).unwrap();
            let (iter, shard) = one.fetch_iter(0, &key).unwrap();
            assert_eq!((expected_shard, shard), (0, 0));
            assert_eq!(
                iter.collect::<Vec<_>>(),
                expected.collect::<Vec<_>>(),
                "tuples and order must match"
            );
        }
        assert_eq!(one.footprint(), unsharded.footprint());
        assert_eq!(one.validate(), unsharded.validate());
    }

    /// Per key, at every shard count: the 1-shard store's tuples in its order, through
    /// both fetches and served by the shard [`shard_of`] names; and shards that
    /// partition the index.
    #[test]
    fn sharded_fetches_match_unsharded_per_key() {
        let one = IndexedDatabase::build(sample_db(), schema()).unwrap();
        for count in [1u32, 2, 3, 8] {
            let store = IndexedDatabase::build_sharded(sample_db(), schema(), count).unwrap();
            assert_eq!(store.shard_count(), count);
            assert!(store.satisfies_schema());
            for key in 0..20i64 {
                let key = [Value::int(key)];
                let expected: Vec<&[Value]> = one.fetch_iter(0, &key).unwrap().0.collect();
                let (iter, shard) = store.fetch_iter(0, &key).unwrap();
                assert_eq!(shard, shard_of(&key, count));
                assert_eq!(iter.collect::<Vec<_>>(), expected, "tuples and order");
                let mut cols: Vec<Vec<Value>> = vec![Vec::new(), Vec::new()];
                let (appended, served) = store
                    .fetch_into_columns(0, &key, &[1, 0], &mut cols)
                    .unwrap();
                assert_eq!((appended as usize, served), (expected.len(), shard));
                let column =
                    |at: usize| -> Vec<Value> { expected.iter().map(|t| t[at].clone()).collect() };
                assert_eq!(cols, [column(1), column(0)]);
            }
            // Every posting lands in exactly one shard; together they cover R.
            let per_shard: Vec<usize> = shards(&store, 0)
                .iter()
                .map(HashIndex::num_postings)
                .collect();
            assert_eq!(per_shard.len(), count as usize);
            assert_eq!(per_shard.iter().sum::<usize>(), 64);
            if count >= 2 {
                assert!(
                    per_shard.iter().filter(|&&n| n > 0).count() >= 2,
                    "16 keys across {count} shards should occupy at least two"
                );
            }
        }
    }

    /// At every shard count the fetches refuse what the 1-shard store refuses, with the
    /// same messages; missing keys are empty results; no store is built without a shard.
    #[test]
    fn fetch_errors_mirror_the_indexed_store() {
        assert!(IndexedDatabase::build_sharded(sample_db(), schema(), 0).is_err());
        let refusals = |store: &IndexedDatabase| -> Vec<String> {
            let column = &mut [Vec::new()];
            let refused = [
                store.fetch_iter(7, &[Value::int(1)]).err(),
                store.fetch_iter(0, &[]).err(),
                store
                    .fetch_into_columns(7, &[Value::int(1)], &[0], column)
                    .err(),
                store.fetch_into_columns(0, &[], &[0], column).err(),
            ];
            refused
                .map(|error| error.expect("refused").to_string())
                .to_vec()
        };
        let one = IndexedDatabase::build(sample_db(), schema()).unwrap();
        for count in [1u32, 2, 3, 8] {
            let store = IndexedDatabase::build_sharded(sample_db(), schema(), count).unwrap();
            assert_eq!(refusals(&store), refusals(&one));
            let (iter, _) = store.fetch_iter(0, &[Value::int(999)]).unwrap();
            assert_eq!(iter.len(), 0);
            let mut cols: Vec<Vec<Value>> = vec![Vec::new()];
            let (appended, _) = store
                .fetch_into_columns(0, &[Value::int(999)], &[1], &mut cols)
                .unwrap();
            assert_eq!(appended, 0);
        }
    }

    /// The [`Store`](crate::Store) handle reads every shard count alike: the same
    /// accessors, and per key the same tuples from both fetches.
    #[test]
    fn store_handle_unifies_both_flavors() {
        let stores: Vec<IndexedDatabase> = [1u32, 2, 3, 8]
            .into_iter()
            .map(|count| IndexedDatabase::build_sharded(sample_db(), schema(), count).unwrap())
            .collect();
        let key = vec![Value::int(3)];
        let mut results: Vec<Vec<Vec<Value>>> = Vec::new();
        for (store, count) in stores.iter().zip([1u32, 2, 3, 8]) {
            let store: crate::Store<'_> = store;
            assert_eq!(store.shard_count(), count);
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
        assert!(results.iter().all(|tuples| *tuples == results[0]));
        assert_eq!(results[0].len(), 4);
    }

    /// Seeded differential over random relations with composite and string keys: the
    /// shards partition every index, no key's posting list is split or reordered, and
    /// validation reports the same violations — on one shard in key order.
    #[test]
    fn shards_partition_each_index_and_keep_every_posting_list_whole() {
        use crate::index::tests::{random_relation, reference};
        use crate::Relation;
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
            // The violations the seed layout's lists show, keys in first-occurrence
            // order.
            let mut expected_violations = Vec::new();
            for (ci, constraint) in schema.constraints().iter().enumerate() {
                let (map, order) = reference(&source, constraint.x());
                for key in order {
                    let mut ys: Vec<_> = map[&key]
                        .iter()
                        .map(|&o| {
                            Relation::project(source.row(o as usize).unwrap(), constraint.y())
                        })
                        .collect();
                    ys.sort();
                    ys.dedup();
                    let allowed = constraint.cardinality().bound(600);
                    if ys.len() as u64 > allowed {
                        let observed = ys.len() as u64;
                        let (constraint_index, key) = (ci, key.clone());
                        expected_violations.push(ConstraintViolation {
                            constraint_index,
                            key,
                            observed,
                            allowed,
                        });
                    }
                }
            }
            assert!(
                !expected_violations.is_empty(),
                "the bounds are meant to bite"
            );
            let one = IndexedDatabase::build(db.clone(), schema.clone()).unwrap();
            assert_eq!(
                one.validate(),
                expected_violations,
                "one shard: in key order"
            );
            let relation = one.database().relation("R").unwrap();
            for count in [1u32, 2, 3, 8] {
                let sdb =
                    IndexedDatabase::build_sharded(db.clone(), schema.clone(), count).unwrap();
                for (ci, constraint) in schema.constraints().iter().enumerate() {
                    let (map, _) = reference(relation, constraint.x());
                    for (key, postings) in &map {
                        let owners: Vec<u32> = (0..count)
                            .filter(|&s| {
                                !shards(&sdb, ci)[s as usize]
                                    .lookup(relation, key)
                                    .is_empty()
                            })
                            .collect();
                        assert_eq!(owners, [shard_of(key.iter(), count)], "key {key:?}");
                        let (sharded, shard) = sdb.fetch_iter(ci, key).unwrap();
                        assert_eq!(shard, owners[0]);
                        let sharded: Vec<&[Value]> = sharded.collect();
                        let by_offset: Vec<&[Value]> = postings
                            .iter()
                            .map(|&o| relation.row(o as usize).unwrap())
                            .collect();
                        assert_eq!(sharded, by_offset, "the seed layout's list");
                    }
                    let mut offsets: Vec<u32> = shards(&sdb, ci)
                        .iter()
                        .flat_map(|index| index.groups().flatten().copied())
                        .collect();
                    offsets.sort_unstable();
                    assert!(offsets.iter().copied().eq(0..relation.len() as u32));
                }
                let mut violations = sdb.validate();
                let by_key = |v: &ConstraintViolation| (v.constraint_index, v.key.clone());
                violations.sort_by_key(by_key);
                let mut expected = expected_violations.clone();
                expected.sort_by_key(by_key);
                assert_eq!(violations, expected);
                assert_eq!(sdb.footprint().0, one.footprint().0);
                assert!(sdb.footprint().1 >= one.footprint().1 / 2);
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
        for count in [1u32, 2, 3, 8] {
            let store = IndexedDatabase::build_sharded(db.clone(), schema.clone(), count).unwrap();
            let relation = store.database().relation("R").unwrap();
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
                    store.resolve(ci, probes, &mut out).unwrap();
                    assert_eq!(out.len(), total);
                    for (key, (tuples, shard)) in keys.iter().zip(out.drain(..)) {
                        assert_eq!(shard, shard_of(key.iter(), count));
                        let (single, single_shard) = store.fetch_iter(ci, key).unwrap();
                        assert_eq!(single_shard, shard);
                        assert!(tuples.eq(single), "key {key:?} at {count} shards");
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
            assert!(store.resolve(7, probes, &mut out).is_err());
            let message = store.resolve(0, probes, &mut out).unwrap_err().to_string();
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
        let sdb = IndexedDatabase::build_sharded(sample_db(), tight, 4).unwrap();
        // Every key of R has 4 distinct b-values; the bound of 1 is violated 16 times.
        assert_eq!(sdb.validate().len(), 16);
        assert!(!sdb.satisfies_schema());
    }
}
