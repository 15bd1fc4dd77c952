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
//! Each of those reads needs the one before it: slot → CSR start → first posting →
//! first tuple. A *warm* probe, its four lines cached, costs tens of nanoseconds; a
//! *cold* one pays four cache misses in a row, and at 10⁶ tuples nearly every probe of
//! a data-dependent lookup is cold (Q0's ψ3 lookup, ≈300 keys of `Accident` by `aid`,
//! took ≈106 µs cold against ≈57 µs warm on a 2-core Xeon VM).
//!
//! # Batched walks
//!
//! So a batch of probes is walked [`GROUP`] keys at a time, stage by stage: every home
//! slot, then every CSR start, every first posting, every first tuple — each stage
//! prefetching, for every key, the line the next stage reads, so the group's misses
//! overlap instead of queueing. A key whose candidate tuple does not match moves to
//! its next slot and goes round again with the others still walking. The same lookup
//! went from ≈106 to ≈72 µs cold. [`HashIndex::lookup`] is this walk's one-key case:
//! there is one probe walk.
//!
//! # Build
//!
//! The build hashes each tuple's key once, and keeps per group the hash's low 32 bits
//! as a tag beside the group's first tuple. A slot whose group's tag differs is passed
//! over without touching the relation; only a tag match reads the first tuple to
//! compare keys, so a tag filters but never proves. A table past half full doubles and
//! re-slots every group from its tag, in group order: `slots` is exactly the table that
//! inserting the groups in group order, by linear probing, into `max(2,
//! (2·groups).next_power_of_two())` slots gives — a function of the keys and their order
//! alone. ψ1–ψ4 over the 1.2·10⁶-tuple accidents store build in ≈70 ms, against
//! ≈135 ms when the build walked the probe path (2-core Xeon VM).
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

/// Probes one batched walk keeps in flight: about the line-fill buffers of one core
/// (10–16 on current x86), so every stage's prefetches overlap, and few enough that
/// each prefetched line is still in L1 when its stage reads it. 32 measured the same.
pub(crate) const GROUP: usize = 16;

/// Hint the CPU to pull `items[at]` into cache (nothing if `at` is out of range).
/// The crate's one `unsafe` block: `_mm_prefetch` takes a raw pointer. Compiles to
/// nothing off x86_64.
#[allow(unsafe_code)]
#[inline(always)]
fn prefetch<T>(items: &[T], at: usize) {
    #[cfg(target_arch = "x86_64")]
    if let Some(item) = items.get(at) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: a prefetch is a hint — it cannot fault and has no architectural
        // effect — and the pointer is derived from a reference into a live slice.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(std::ptr::from_ref(item).cast()) }
    }
}

/// Double the slot table of the groups tagged `tags` (their key hashes' low 32 bits),
/// in place, and re-slot every group, in group order, by linear probing from its tag:
/// the keys are distinct, so nothing is compared. A table past 2³² slots is refused,
/// as its mask would need hash bits the tags do not keep.
fn regrow(slots: &mut Vec<u32>, tags: &[u32], relation: &str) -> Result<()> {
    let size = 2 * slots.len();
    let mask = u32::try_from(size - 1).map_err(|_| {
        Error::invalid(format!(
            "relation `{relation}` has more than 2^31 distinct keys on one index"
        ))
    })? as usize;
    slots.clear();
    slots.resize(size, EMPTY);
    for (group, &tag) in (0..).zip(tags) {
        let mut slot = tag as usize & mask;
        while slots[slot] != EMPTY {
            slot = (slot + 1) & mask;
        }
        slots[slot] = group;
    }
    Ok(())
}

/// The one probe walk: walk probe `k` — hashed `hashes[k]`, in `indexes[k]` (indexes
/// over `relation` on the same key attributes) — to the first group whose first tuple
/// `is_key(k, tuple)` accepts, or `None` at the free slot that ends its walk (a table
/// is at most half full).
///
/// Up to `N` probes walk at once, in rounds of four stages — slot, CSR start, first
/// posting, first tuple (its first key attribute) — each stage prefetching, for every
/// probe, the line the next one reads. A rejected candidate moves its probe on to the
/// next slot for the next round.
fn walk<const N: usize>(
    relation: &Relation,
    indexes: &[&HashIndex; N],
    hashes: &[u64],
    is_key: impl Fn(usize, &[Value]) -> bool,
) -> [Option<u32>; N] {
    let key_attr = indexes[0].key_attrs.first().copied();
    let (mut found, mut slot) = ([None; N], [0usize; N]);
    let (mut group, mut first) = ([0u32; N], [0u32; N]);
    // The probes still walking, in order.
    let (mut todo, mut live): ([usize; N], usize) = (std::array::from_fn(|k| k), hashes.len());
    for k in 0..live {
        slot[k] = hashes[k] as usize & (indexes[k].slots.len() - 1);
        prefetch(&indexes[k].slots, slot[k]);
    }
    while live > 0 {
        let mut kept = 0;
        for t in 0..live {
            let (k, index) = (todo[t], indexes[todo[t]]);
            group[k] = index.slots[slot[k]];
            if group[k] != EMPTY {
                prefetch(&index.starts, group[k] as usize);
                todo[kept] = k;
                kept += 1;
            }
        }
        live = kept;
        for &k in &todo[..live] {
            first[k] = indexes[k].starts[group[k] as usize];
            prefetch(&indexes[k].postings, first[k] as usize);
        }
        for &k in &todo[..live] {
            first[k] = indexes[k].postings[first[k] as usize];
            key_attr.inspect(|&attr| prefetch(relation.tuple(first[k] as usize), attr));
        }
        kept = 0;
        for t in 0..live {
            let (k, slots) = (todo[t], &indexes[todo[t]].slots);
            if is_key(k, relation.tuple(first[k] as usize)) {
                found[k] = Some(group[k]);
            } else {
                slot[k] = (slot[k] + 1) & (slots.len() - 1);
                prefetch(slots, slot[k]);
                todo[kept] = k;
                kept += 1;
            }
        }
        live = kept;
    }
    found
}

/// Keys to resolve in one batched walk, laid out flat: probe `i`'s key is
/// `keys[i·arity .. (i+1)·arity]` and `hashes[i]` its [`hash_row`], computed when the
/// caller gathered the key, so no walk hashes it again.
#[derive(Debug, Clone, Copy)]
pub struct Probes<'p> {
    /// Values per key.
    pub arity: usize,
    /// The keys, one after another.
    pub keys: &'p [Value],
    /// Each key's [`hash_row`].
    pub hashes: &'p [u64],
}

impl<'p> Probes<'p> {
    fn key(&self, i: usize) -> &'p [Value] {
        &self.keys[i * self.arity..(i + 1) * self.arity]
    }
}

/// Resolve every probe, [`GROUP`] at a time through [`walk`]: `route` names the index
/// that serves a key (every index over `relation`, on the probes' key attributes) and
/// a tag (its shard); `emit` receives each probe's postings, empty if its key is
/// absent, and the tag, in probe order.
pub(crate) fn resolve_each<'a>(
    relation: &Relation,
    probes: Probes<'_>,
    route: impl Fn(&[Value]) -> (&'a HashIndex, u32),
    mut emit: impl FnMut(&'a [u32], u32),
) {
    for base in (0..probes.hashes.len()).step_by(GROUP) {
        let hashes = &probes.hashes[base..probes.hashes.len().min(base + GROUP)];
        let mut served = [route(probes.key(base)); GROUP];
        for (k, served) in served.iter_mut().enumerate().take(hashes.len()).skip(1) {
            *served = route(probes.key(base + k));
        }
        debug_assert!((0..hashes.len()).all(|k| hashes[k] == hash_row(probes.key(base + k))));
        let index = served[0].0;
        let is_key = |k: usize, tuple: &[Value]| {
            let key = index.key_attrs.iter().map(|&attr| &tuple[attr]);
            key.eq(probes.key(base + k))
        };
        let found = walk(relation, &served.map(|(index, _)| index), hashes, is_key);
        for (found, (index, tag)) in found.into_iter().zip(served).take(hashes.len()) {
            emit(found.map_or(&[], |group| index.group(group as usize)), tag);
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
        Self::over(relation, key_attrs, 0..bound)
    }

    /// Build an index over the tuples at `offsets` (ascending) only — the whole
    /// relation for a 1-shard store, one shard's routed tuples for a sharded one.
    ///
    /// Two passes. The first numbers the keys and sizes their groups, hashing each
    /// tuple's key once. A group keeps the low 32 bits of its key's hash as a tag, so a
    /// slot whose tag differs is passed over unread: the relation is read only on a tag
    /// match, to compare the key with the group's first tuple. A table more than half
    /// full doubles, and its groups are re-slotted from their tags in group order — so
    /// the slots end as if every group had gone, in group order, into a table of the
    /// final size. The second pass drops every offset into its group's next free
    /// posting, so each group keeps `offsets`' order.
    ///
    /// Fails past 2³¹ keys, whose table would need more slot bits than a tag keeps.
    pub(crate) fn over(
        relation: &Relation,
        key_attrs: &[usize],
        offsets: impl Iterator<Item = u32> + Clone,
    ) -> Result<Self> {
        let key = |offset: u32| {
            let tuple = relation.tuple(offset as usize);
            key_attrs.iter().map(move |&attr| &tuple[attr])
        };
        // Every array is sized once, from the tuple count (groups ≤ tuples): first the
        // three the index keeps, then the per-group and per-tuple working arrays, which
        // thus end on top of the heap, where freeing them returns them to the system.
        let tuples = offsets.size_hint().0;
        let mut postings = vec![0; tuples];
        let mut slots = Vec::with_capacity((2 * tuples).next_power_of_two().max(2));
        slots.resize(2, EMPTY);
        let mut starts: Vec<u32> = Vec::with_capacity(tuples + 1);
        starts.push(0);
        // Per group: its first tuple (the stand-in for its key) and its tag.
        let (mut firsts, mut tags) = (Vec::with_capacity(tuples), Vec::with_capacity(tuples));
        let mut group_of: Vec<u32> = Vec::with_capacity(tuples);
        for offset in offsets.clone() {
            let hash = hash_row(key(offset));
            let mut slot = hash as usize & (slots.len() - 1);
            let group = loop {
                let group = slots[slot];
                if group == EMPTY {
                    // A new key: the next group number, standing on this tuple.
                    slots[slot] = firsts.len() as u32;
                    firsts.push(offset);
                    tags.push(hash as u32);
                    starts.push(0);
                    if firsts.len() * 2 > slots.len() {
                        regrow(&mut slots, &tags, relation.name())?;
                    }
                    break firsts.len() as u32 - 1;
                }
                if tags[group as usize] == hash as u32
                    && key(firsts[group as usize]).eq(key(offset))
                {
                    break group;
                }
                slot = (slot + 1) & (slots.len() - 1);
            };
            starts[group as usize + 1] += 1;
            group_of.push(group);
        }
        drop(tags);
        slots.shrink_to_fit();
        // Sizes → CSR offsets; `firsts` has done its job and becomes the fill cursor.
        let mut end = 0;
        for start in &mut starts[1..] {
            end += *start;
            *start = end;
        }
        starts.shrink_to_fit();
        let mut cursor = firsts;
        cursor.copy_from_slice(&starts[..starts.len() - 1]);
        postings.resize(group_of.len(), 0);
        for (offset, group) in offsets.zip(group_of) {
            let next = &mut cursor[group as usize];
            postings[*next as usize] = offset;
            *next += 1;
        }
        Ok(Self {
            key_attrs: key_attrs.to_vec(),
            postings,
            starts,
            slots,
        })
    }

    /// The attribute positions forming the key.
    pub fn key_attrs(&self) -> &[usize] {
        &self.key_attrs
    }

    /// Offsets of the tuples of `relation` — the relation this index was built over —
    /// whose key equals `key` (empty if none), in insertion order: the batched walk's
    /// one-key case.
    pub fn lookup(&self, relation: &Relation, key: &[Value]) -> &[u32] {
        let is_key = |_, tuple: &[Value]| self.key_attrs.iter().map(|&a| &tuple[a]).eq(key);
        let [found] = walk(relation, &[self], &[hash_row(key)], is_key);
        found.map_or(&[], |group| self.group(group as usize))
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
        reference_over(relation, key_attrs, 0..relation.len() as u32)
    }

    /// [`reference`] over the tuples at `offsets` only.
    fn reference_over(
        relation: &Relation,
        key_attrs: &[usize],
        offsets: impl IntoIterator<Item = u32>,
    ) -> (HashMap<Row, Vec<u32>>, Vec<Row>) {
        let (mut map, mut order) = (HashMap::<Row, Vec<u32>>::new(), Vec::new());
        for offset in offsets {
            let key = Relation::project(relation.tuple(offset as usize), key_attrs);
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
        assert_matches_reference(&index, relation, key_attrs, 0..relation.len() as u32);
    }

    /// [`assert_equals_reference`] for an index over the tuples at `offsets`, and the
    /// same slot table too: each group's key hash inserted, in group order, by linear
    /// probing into `max(2, (2·groups).next_power_of_two())` slots.
    fn assert_matches_reference(
        index: &HashIndex,
        relation: &Relation,
        key_attrs: &[usize],
        offsets: impl IntoIterator<Item = u32> + Clone,
    ) {
        let (map, order) = reference_over(relation, key_attrs, offsets.clone());
        assert_eq!(index.num_keys(), map.len());
        assert_eq!(index.num_postings(), offsets.into_iter().count());
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
        let mask = (2 * order.len()).next_power_of_two().max(2) - 1;
        let mut slots = vec![EMPTY; mask + 1];
        for (group, key) in (0..).zip(&order) {
            let mut slot = hash_row(key) as usize & mask;
            while slots[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            slots[slot] = group;
        }
        assert_eq!(index.slots, slots, "the slot table's layout");
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
    fn each_shard_of_a_partition_keeps_the_reference_layout() {
        for seed in 1..=3u64 {
            for (rows, domain) in [(40, 2), (300, 5), (2_000, 40)] {
                let relation = random_relation(0x5A2D * seed, rows, domain);
                for key_attrs in [&[][..], &[0], &[1], &[0, 2]] {
                    let shards = crate::indexed::partition(&relation, key_attrs, 3).unwrap();
                    assert_eq!(shards.len(), 3);
                    for (shard, index) in (0..).zip(&shards) {
                        let routed = (0..relation.len() as u32).filter(|&offset| {
                            let tuple = relation.tuple(offset as usize);
                            crate::shard_of(key_attrs.iter().map(|&a| &tuple[a]), 3) == shard
                        });
                        assert_matches_reference(index, &relation, key_attrs, routed);
                    }
                }
            }
        }
    }

    #[test]
    fn a_shared_tag_filters_but_never_proves_a_key() {
        // Two integers whose key hashes agree in their low 32 bits: the same tag, and
        // the same home slot in any table the index grows.
        let mut seen = HashMap::new();
        let (a, b) = (0..300_000i64)
            .find_map(|i| {
                let tag = hash_row(&[Value::int(i)]) as u32;
                seen.insert(tag, i).map(|earlier| (earlier, i))
            })
            .expect("a 32-bit tag collision among 3·10^5 keys (25 968 and 234 784)");
        let mut r = Relation::new(RelationSchema::new("R", ["a", "b"]).unwrap());
        for (i, key) in (0..).zip([a, b, a, b, b]) {
            r.insert([Value::int(key), Value::int(i)]).unwrap();
        }
        let index = HashIndex::build(&r, &[0]).unwrap();
        assert_eq!(index.num_keys(), 2);
        assert_eq!(index.lookup(&r, &[Value::int(a)]), &[0, 2]);
        assert_eq!(index.lookup(&r, &[Value::int(b)]), &[1, 3, 4]);
        assert_equals_reference(&r, &[0]);
    }

    /// Resolve `keys` in one batched call over one index: each key's postings.
    fn resolve_all<'a>(index: &'a HashIndex, relation: &Relation, keys: &[Row]) -> Vec<&'a [u32]> {
        let arity = index.key_attrs().len();
        let flat: Vec<Value> = keys.iter().flatten().cloned().collect();
        let hashes: Vec<u64> = keys.iter().map(hash_row).collect();
        let mut out = Vec::new();
        let probes = Probes {
            arity,
            keys: &flat,
            hashes: &hashes,
        };
        resolve_each(
            relation,
            probes,
            |_| (index, 7),
            |postings, tag| {
                assert_eq!(tag, 7, "the route's tag comes back with every probe");
                out.push(postings);
            },
        );
        out
    }

    /// The batched walk against the one-key walk, probe by probe and in order.
    fn assert_batch_equals_lookups(index: &HashIndex, relation: &Relation, keys: &[Row]) {
        let batched = resolve_all(index, relation, keys);
        assert_eq!(batched.len(), keys.len());
        for (key, postings) in keys.iter().zip(batched) {
            assert_eq!(postings, index.lookup(relation, key), "key {key:?}");
        }
    }

    /// `present` keys and absent look-alikes of the same arity, interleaved in a seeded
    /// order and repeated up to `total` probes.
    fn probe_mix(seed: u64, present: &[Row], arity: usize, total: usize) -> Vec<Row> {
        let mut next = xorshift(seed);
        (0..total)
            .map(|i| match next() % 4 {
                0 => (0..arity)
                    .map(|_| Value::int(-1 - (i % 5) as i64))
                    .collect(),
                _ if present.is_empty() => vec![Value::str("absent"); arity],
                _ => present[next() as usize % present.len()].clone(),
            })
            .collect()
    }

    #[test]
    fn the_batched_walk_agrees_with_per_key_lookup() {
        for seed in 1..=4u64 {
            for (rows, domain) in [(0, 3), (1, 1), (300, 5), (2_000, 40)] {
                let relation = random_relation(0xBA7C * seed, rows, domain);
                for key_attrs in [&[][..], &[0], &[1], &[0, 2], &[0, 1, 2]] {
                    let index = HashIndex::build(&relation, key_attrs).unwrap();
                    let (_, present) = reference(&relation, key_attrs);
                    // 0, 1, one group, a ragged tail, and more than a batch.
                    for total in [0, 1, GROUP, GROUP + 3, 2_500] {
                        let keys = probe_mix(seed ^ total as u64, &present, key_attrs.len(), total);
                        assert_batch_equals_lookups(&index, &relation, &keys);
                    }
                    // Every key once, in first-occurrence order: the groups themselves.
                    let groups: Vec<&[u32]> = index.groups().collect();
                    assert_eq!(resolve_all(&index, &relation, &present), groups);
                }
            }
        }
    }

    #[test]
    fn keys_sharing_one_home_slot_walk_on_past_rejected_candidates() {
        // 64 keys, all homed on one slot of the 128-slot table they grow: every walk
        // but the first key's rejects candidates and goes round again, and an absent
        // key homed there walks the whole run to the free slot that ends it.
        let home = |i: i64| hash_row(&[Value::int(i)]) & 127;
        let mut same_home = (0..).filter(|&i| home(i) == 5);
        let mut r = Relation::new(RelationSchema::new("R", ["a", "b"]).unwrap());
        let keys: Vec<i64> = same_home.by_ref().take(64).collect();
        for (i, &key) in (0..).zip(&keys) {
            r.insert([Value::int(key), Value::int(i)]).unwrap();
            r.insert([Value::int(key), Value::int(-i)]).unwrap();
        }
        let index = HashIndex::build(&r, &[0]).unwrap();
        assert_eq!(
            index.slots.len(),
            128,
            "the homes were computed for this table"
        );
        let absent: Vec<Row> = same_home.take(20).map(|i| vec![Value::int(i)]).collect();
        let mut probes: Vec<Row> = keys.iter().rev().map(|&k| vec![Value::int(k)]).collect();
        probes.extend(absent.iter().cloned());
        probes.extend(keys.iter().map(|&k| vec![Value::int(k)]));
        assert_batch_equals_lookups(&index, &r, &probes);
        let batched = resolve_all(&index, &r, &probes);
        assert!(batched[..64].iter().all(|postings| postings.len() == 2));
        assert!(batched[64..84].iter().all(|postings| postings.is_empty()));
        assert_eq!(batched[84], [0, 1], "the first key of the run");
    }

    #[test]
    fn look_alike_values_never_alias() {
        let mut r = Relation::new(RelationSchema::new("R", ["a", "b"]).unwrap());
        // Strings of 14, 15 and 40 bytes, on both sides of `Str::INLINE`; the two
        // 15-byte ones differ only in their last byte.
        let alikes = [
            Value::int(1),
            Value::Bool(true),
            Value::str("1"),
            Value::Labelled(1),
            Value::str("driver-1000000"),
            Value::str("driver-10000000"),
            Value::str("a district name forty bytes long at most"),
            Value::str("driver-10000001"),
        ];
        for (i, value) in (0..).zip(&alikes) {
            r.insert([value.clone(), Value::int(i)]).unwrap();
            r.insert([value.clone(), Value::int(i + 10)]).unwrap();
        }
        let index = HashIndex::build(&r, &[0]).unwrap();
        assert_eq!(index.num_keys(), alikes.len());
        for (i, value) in (0u32..).zip(&alikes) {
            let key = std::slice::from_ref(value);
            assert_eq!(index.lookup(&r, key), &[2 * i, 2 * i + 1]);
        }
        let absents = [
            Value::int(0),
            Value::Bool(false),
            Value::str(""),
            Value::str("11"),
            Value::str("driver-10000002"),
            Value::str("a district name forty bytes long at mosT"),
        ];
        for absent in &absents {
            assert!(index.lookup(&r, std::slice::from_ref(absent)).is_empty());
        }
        // The batched walk too, on present and absent keys of either string form.
        let probes: Vec<Row> = alikes
            .iter()
            .chain(&absents)
            .map(|v| vec![v.clone()])
            .collect();
        assert_batch_equals_lookups(&index, &r, &probes);
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
