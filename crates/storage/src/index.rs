//! Keyless CSR posting indexes on attribute subsets.
//!
//! An access constraint `R(X → Y, N)` requires "an index on `X` for `Y` that, given an
//! `X`-value `ā`, retrieves `D_Y(X = ā)`". [`HashIndex`] is that index over one flat
//! [`Relation`], in three `u32` arrays and nothing else:
//!
//! * `postings` — every indexed tuple offset exactly once, grouped by key; inside a
//!   group the offsets ascend, i.e. they keep the relation's insertion order, and the
//!   groups themselves are numbered by the first occurrence of their key. Both orders
//!   are what a fetch's callers observe (answers, caches and the access counters are
//!   compared across thread, shard and cache configurations), so they are part of the
//!   contract and independent of the hash function.
//! * `starts` — group `g` is `postings[starts[g] .. starts[g + 1]]` (CSR offsets).
//! * `slots` — an open-addressing table (linear probing, power-of-two size, at most
//!   half full) from key hash to group number.
//!
//! **Keys are not stored.** A group's key is the `X`-projection of its first posting's
//! tuple, which the relation already holds, so comparing a probe key reads a tuple the
//! fetch is about to read anyway and nothing is ever cloned at build time.
//!
//! # Cost model
//!
//! 4 B per posting, plus per distinct key 4 B of `starts` and 8–16 B of `slots`
//! (2–4 slots of 4 B): 16–24 B per tuple for a unique key, ≈4 B per tuple for a
//! low-cardinality one — against ≈110 B per key for a `HashMap<Row, Vec<u32>>` that
//! owns a cloned key and a posting `Vec` per entry. A probe is one hash of the key, a
//! slot walk (expected < 1.5 slots at load ≤ ½), one `starts` pair, and one key
//! comparison per visited group; a hit returns a subslice of `postings`.
//!
//! The hash is [`bea_core::value::hash_row`] — the workspace's one row hash, a fixed
//! folded-multiply mixer, not SipHash: the index is built once over data the operator
//! loaded, probe keys cannot insert, and a bad distribution can only lengthen slot
//! walks — never change a result, since every hit is confirmed by comparing values.

use crate::relation::Relation;
use bea_core::error::{Error, Result};
use bea_core::value::{hash_row, Value};

/// Marks an unoccupied slot; never a group number, since groups ≤ tuples ≤ `u32::MAX`.
const EMPTY: u32 = u32::MAX;

/// The tuple count of a relation as the exclusive bound of its 32-bit posting offsets.
/// Indexes store offsets as `u32`; a relation beyond that would alias postings, so
/// building one fails instead.
pub(crate) fn offset_bound(relation: &str, tuples: usize) -> Result<u32> {
    u32::try_from(tuples).map_err(|_| {
        Error::invalid(format!(
            "relation `{relation}` has {tuples} tuples, but posting offsets are 32-bit \
             (at most {} tuples per indexed relation)",
            u32::MAX
        ))
    })
}

/// Walk the slots from `hash`'s home: the first group `is_key` accepts, or else the
/// free slot that ends the walk (there always is one: the table is at most half full).
fn walk(slots: &[u32], hash: u64, is_key: impl Fn(u32) -> bool) -> std::result::Result<u32, usize> {
    let mask = slots.len() - 1;
    let mut slot = hash as usize & mask;
    loop {
        match slots[slot] {
            EMPTY => return Err(slot),
            group if is_key(group) => return Ok(group),
            _ => slot = (slot + 1) & mask,
        }
    }
}

/// A hash index over one relation, keyed on a set of attribute positions. See the
/// module docs for the layout.
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_attrs: Vec<usize>,
    postings: Vec<u32>,
    starts: Vec<u32>,
    slots: Vec<u32>,
}

impl HashIndex {
    /// Build an index on `key_attrs` (sorted attribute positions) over a relation.
    pub fn build(relation: &Relation, key_attrs: &[usize]) -> Result<Self> {
        let bound = offset_bound(relation.name(), relation.len())?;
        Ok(Self::over(relation, key_attrs, 0..bound))
    }

    /// Build an index over the tuples at `offsets` (ascending) only — the whole
    /// relation for the unsharded store, one shard's routed tuples for the sharded one.
    /// Two counting passes: number the keys and size their groups, then drop every
    /// offset into its group's next free posting, so each group keeps `offsets`' order.
    pub(crate) fn over(
        relation: &Relation,
        key_attrs: &[usize],
        offsets: impl Iterator<Item = u32> + Clone,
    ) -> Self {
        let key = |offset: u32| {
            let tuple = relation.tuple(offset as usize);
            key_attrs.iter().map(move |&attr| &tuple[attr])
        };
        let mut slots = vec![EMPTY; 2];
        // Per group: its first tuple (the stand-in for its key); sizes land in `starts`.
        let mut firsts: Vec<u32> = Vec::new();
        let mut starts: Vec<u32> = vec![0];
        let mut groups = 0u32;
        let mut group_of: Vec<u32> = Vec::with_capacity(offsets.size_hint().0);
        for offset in offsets.clone() {
            let hash = hash_row(key(offset));
            let same_key = |group: u32| key(firsts[group as usize]).eq(key(offset));
            let group = walk(&slots, hash, same_key).unwrap_or_else(|free| {
                // A new key: the next group number, standing on this tuple.
                slots[free] = groups;
                firsts.push(offset);
                starts.push(0);
                groups += 1;
                if firsts.len() * 2 > slots.len() {
                    slots = vec![EMPTY; slots.len() * 2];
                    for (group, &first) in (0..).zip(&firsts) {
                        let free = walk(&slots, hash_row(key(first)), |_| false);
                        slots[free.expect_err("no group is accepted")] = group;
                    }
                }
                groups - 1
            });
            starts[group as usize + 1] += 1;
            group_of.push(group);
        }
        // Sizes → CSR offsets; `firsts` has done its job and becomes the fill cursor.
        let mut end = 0;
        for start in &mut starts[1..] {
            end += *start;
            *start = end;
        }
        starts.shrink_to_fit();
        let mut cursor = firsts;
        cursor.copy_from_slice(&starts[..starts.len() - 1]);
        let mut postings = vec![0; group_of.len()];
        for (offset, group) in offsets.zip(group_of) {
            let next = &mut cursor[group as usize];
            postings[*next as usize] = offset;
            *next += 1;
        }
        Self {
            key_attrs: key_attrs.to_vec(),
            postings,
            starts,
            slots,
        }
    }

    /// The attribute positions forming the key.
    pub fn key_attrs(&self) -> &[usize] {
        &self.key_attrs
    }

    /// Offsets of the tuples of `relation` — the relation this index was built over —
    /// whose key equals `key` (empty if none), in insertion order.
    pub fn lookup(&self, relation: &Relation, key: &[Value]) -> &[u32] {
        let is_key = |group: u32| {
            let tuple = relation.tuple(self.group(group as usize)[0] as usize);
            self.key_attrs.iter().map(|&attr| &tuple[attr]).eq(key)
        };
        match walk(&self.slots, hash_row(key), is_key) {
            Ok(group) => self.group(group as usize),
            Err(_) => &[],
        }
    }

    fn group(&self, group: usize) -> &[u32] {
        &self.postings[self.starts[group] as usize..self.starts[group + 1] as usize]
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        self.starts.len() - 1
    }

    /// Number of postings: the indexed tuples.
    pub fn num_postings(&self) -> usize {
        self.postings.len()
    }

    /// The largest group size: the observed cardinality `max_ā |{t : t[X] = ā}|`.
    pub fn max_bucket_len(&self) -> usize {
        self.groups().map(<[u32]>::len).max().unwrap_or(0)
    }

    /// The posting list of every key, in order of the keys' first occurrence. A list is
    /// never empty; its key is the `X`-projection of the tuple at its first offset.
    pub fn groups(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.num_keys()).map(|group| self.group(group))
    }

    /// Bytes the index occupies: the three `u32` arrays plus the key positions.
    pub fn bytes(&self) -> u64 {
        let words = self.postings.len() + self.starts.len() + self.slots.len();
        (words * 4 + std::mem::size_of_val(self.key_attrs.as_slice())) as u64
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use bea_core::schema::RelationSchema;
    use bea_core::value::{Row, Value};
    use std::collections::HashMap;

    /// A seeded xorshift64 stream (the storage crate has no `rand` dependency).
    pub(crate) fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// A random ternary relation over a domain of `domain` integers (plus, on the
    /// first attribute, the four look-alike values `1`, `true`, `"1"` and `⊥1`), small
    /// enough that keys repeat and whole tuples are duplicated.
    pub(crate) fn random_relation(seed: u64, rows: usize, domain: u64) -> Relation {
        let mut next = xorshift(seed);
        let mut r = Relation::new(RelationSchema::new("R", ["a", "b", "c"]).unwrap());
        for _ in 0..rows {
            let a = match next() % (domain + 4) {
                0 => Value::int(1),
                1 => Value::Bool(true),
                2 => Value::str("1"),
                3 => Value::Labelled(1),
                n => Value::int(n as i64),
            };
            let b = Value::str(format!("s{}", next() % domain));
            let c = Value::int((next() % 3) as i64);
            r.insert([a, b, c]).unwrap();
        }
        r
    }

    /// The layout this index replaced, as the oracle: a keyed map of posting `Vec`s,
    /// plus the keys in order of first occurrence.
    pub(crate) fn reference(
        relation: &Relation,
        key_attrs: &[usize],
    ) -> (HashMap<Row, Vec<u32>>, Vec<Row>) {
        let (mut map, mut order) = (HashMap::<Row, Vec<u32>>::new(), Vec::new());
        for (offset, row) in (0u32..).zip(relation.rows()) {
            let key = Relation::project(row, key_attrs);
            if !map.contains_key(&key) {
                order.push(key.clone());
            }
            map.entry(key).or_default().push(offset);
        }
        (map, order)
    }

    /// Same key set, same postings, same order — inside every list and across keys.
    fn assert_equals_reference(relation: &Relation, key_attrs: &[usize]) {
        let index = HashIndex::build(relation, key_attrs).unwrap();
        let (map, order) = reference(relation, key_attrs);
        assert_eq!(index.num_keys(), map.len());
        assert_eq!(index.num_postings(), relation.len());
        for (key, postings) in &map {
            assert_eq!(index.lookup(relation, key), postings, "key {key:?}");
        }
        let groups: Vec<(Row, &[u32])> = index
            .groups()
            .map(|list| {
                let first = relation.row(list[0] as usize).unwrap();
                (Relation::project(first, key_attrs), list)
            })
            .collect();
        assert_eq!(groups.len(), order.len());
        for ((key, list), expected) in groups.iter().zip(&order) {
            assert_eq!(key, expected, "groups come in first-occurrence order");
            assert_eq!(*list, map[key].as_slice());
        }
        let longest = map.values().map(Vec::len).max().unwrap_or(0);
        assert_eq!(index.max_bucket_len(), longest);
        let absent = vec![Value::int(-7); key_attrs.len()];
        if !map.contains_key(&absent) {
            assert!(index.lookup(relation, &absent).is_empty());
        }
    }

    #[test]
    fn differential_against_the_keyed_map_layout() {
        for seed in 1..=6u64 {
            for (rows, domain) in [(0, 3), (1, 1), (40, 2), (300, 5), (2_000, 40)] {
                let relation = random_relation(0x1DE5 * seed, rows, domain);
                for key_attrs in [&[][..], &[0], &[1], &[2], &[0, 2], &[0, 1, 2]] {
                    assert_equals_reference(&relation, key_attrs);
                }
            }
        }
    }

    #[test]
    fn look_alike_values_never_alias() {
        let mut r = Relation::new(RelationSchema::new("R", ["a", "b"]).unwrap());
        let alikes = [
            Value::int(1),
            Value::Bool(true),
            Value::str("1"),
            Value::Labelled(1),
        ];
        for (i, value) in (0..).zip(&alikes) {
            r.insert([value.clone(), Value::int(i)]).unwrap();
            r.insert([value.clone(), Value::int(i + 10)]).unwrap();
        }
        let index = HashIndex::build(&r, &[0]).unwrap();
        assert_eq!(index.num_keys(), 4);
        for (i, value) in (0u32..).zip(&alikes) {
            let key = std::slice::from_ref(value);
            assert_eq!(index.lookup(&r, key), &[2 * i, 2 * i + 1]);
        }
        for absent in [
            Value::int(0),
            Value::Bool(false),
            Value::str(""),
            Value::str("11"),
        ] {
            assert!(index.lookup(&r, &[absent]).is_empty());
        }
        assert_equals_reference(&r, &[0]);
    }

    #[test]
    fn an_absent_key_walks_past_occupied_slots_and_stops() {
        let r = random_relation(0xAB5E, 500, 60);
        let index = HashIndex::build(&r, &[1]).unwrap();
        let mask = index.slots.len() - 1;
        // Absent keys whose walk starts on an occupied slot: the compare, not the hash,
        // must turn them away, and the walk must end at the next free slot.
        let colliding: Vec<Row> = (0..)
            .map(|i| vec![Value::str(format!("absent-{i}"))])
            .filter(|key| index.slots[hash_row(key) as usize & mask] != EMPTY)
            .take(50)
            .collect();
        for key in &colliding {
            assert!(index.lookup(&r, key).is_empty(), "key {key:?}");
        }
    }

    #[test]
    fn sequential_keys_grow_the_table_and_every_walk_terminates() {
        const KEYS: u32 = 120_000;
        let mut r = Relation::new(RelationSchema::new("R", ["a"]).unwrap());
        r.reserve(KEYS as usize);
        for i in 0..KEYS {
            r.insert([Value::int(i64::from(i))]).unwrap();
        }
        let index = HashIndex::build(&r, &[0]).unwrap();
        assert_eq!(index.num_keys(), KEYS as usize);
        // Grown by doubling to at most half full, so a free slot always ends a walk.
        assert!(index.slots.len().is_power_of_two());
        assert!(index.slots.len() >= 2 * KEYS as usize && index.slots.len() < 4 * KEYS as usize);
        assert_eq!(
            index.slots.iter().filter(|&&slot| slot != EMPTY).count(),
            KEYS as usize
        );
        for i in 0..KEYS {
            assert_eq!(index.lookup(&r, &[Value::int(i64::from(i))]), &[i]);
        }
        for i in KEYS..KEYS + 1_000 {
            assert!(index.lookup(&r, &[Value::int(i64::from(i))]).is_empty());
        }
        // 4 B of posting + 4 B of start + 8–16 B of slots per unique key.
        assert!(index.bytes() <= 24 * u64::from(KEYS) + 64);
    }

    #[test]
    fn offsets_beyond_32_bits_are_refused_not_truncated() {
        assert_eq!(offset_bound("R", 0).unwrap(), 0);
        assert_eq!(offset_bound("R", u32::MAX as usize).unwrap(), u32::MAX);
        let too_many = u32::MAX as usize + 1;
        let error = offset_bound("Casualty", too_many).unwrap_err().to_string();
        assert!(error.contains("`Casualty`"), "{error}");
        assert!(error.contains(&too_many.to_string()), "{error}");
    }

    fn relation() -> Relation {
        let mut r = Relation::new(RelationSchema::new("R", ["a", "b", "c"]).unwrap());
        r.extend([
            vec![Value::int(1), Value::str("x"), Value::int(10)],
            vec![Value::int(1), Value::str("y"), Value::int(20)],
            vec![Value::int(2), Value::str("x"), Value::int(30)],
        ])
        .unwrap();
        r
    }

    #[test]
    fn build_and_lookup() {
        let r = relation();
        let idx = HashIndex::build(&r, &[0]).unwrap();
        assert_eq!(idx.key_attrs(), &[0]);
        assert_eq!(idx.num_keys(), 2);
        assert_eq!(idx.lookup(&r, &[Value::int(1)]).len(), 2);
        assert_eq!(idx.lookup(&r, &[Value::int(2)]), &[2]);
        assert!(idx.lookup(&r, &[Value::int(9)]).is_empty());
        assert_eq!(idx.max_bucket_len(), 2);
    }

    #[test]
    fn composite_key() {
        let r = relation();
        let idx = HashIndex::build(&r, &[0, 1]).unwrap();
        assert_eq!(idx.num_keys(), 3);
        assert_eq!(idx.lookup(&r, &[Value::int(1), Value::str("y")]), &[1]);
        assert_eq!(idx.groups().count(), 3);
    }

    #[test]
    fn empty_key_groups_everything() {
        let r = relation();
        let idx = HashIndex::build(&r, &[]).unwrap();
        assert_eq!(idx.num_keys(), 1);
        assert_eq!(idx.lookup(&r, &[]).len(), 3);
        assert_eq!(idx.max_bucket_len(), 3);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::new(RelationSchema::new("R", ["a"]).unwrap());
        let idx = HashIndex::build(&r, &[0]).unwrap();
        assert_eq!(idx.num_keys(), 0);
        assert_eq!(idx.max_bucket_len(), 0);
    }
}
