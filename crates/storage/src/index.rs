//! Keyless posting indexes on attribute subsets, storing only what tuple order does not.
//!
//! An access constraint `R(X → Y, N)` requires "an index on `X` for `Y` that, given an
//! `X`-value `ā`, retrieves `D_Y(X = ā)`". [`HashIndex`] is that index over one flat
//! [`Relation`]. It numbers the distinct keys — its *groups* — by their first
//! occurrence, and maps a key to its group's tuple offsets, which ascend, i.e. keep the
//! relation's insertion order. Both orders are what a fetch's callers observe (answers
//! and the access counters are compared across plans and executors), so they are part
//! of the contract, independent of the hash function and of the layout below.
//!
//! An index finds a key's group through its *key map*, and a group's tuples through its
//! *layout*; the build reads both off the keys and their order. The key map:
//!
//! | key map | when | kept | a probe's group is |
//! |---|---|---|---|
//! | dense | the key is one attribute, and group `g`'s key is the integer `base + g` | `base` | its key less `base`, if that is one integer in `0 .. groups` |
//! | hashed | otherwise | `slots` | where its slot walk ends |
//!
//! `slots` is an open-addressing table (linear probing, power-of-two size, at most half
//! full) from key hash to group number. Over keys that are the consecutive integers
//! `base, base + 1, …` in first-occurrence order it would only restate `key − base`,
//! so such an index keeps no table and hashes nothing; any probe that is not one
//! integer in range is absent. The layout:
//!
//! | layout | when | kept besides the key map | group `g` is |
//! |---|---|---|---|
//! | unique | every key has one tuple | nothing | tuple `g` |
//! | clustered | each key's tuples are one contiguous run | `starts` | tuples `starts[g] .. starts[g + 1]` |
//! | general | otherwise | `starts`, `postings` | `postings[starts[g] .. starts[g + 1]]` |
//!
//! `postings` holds every tuple offset once, grouped by key (CSR). In a clustered
//! relation it would be the identity `0, 1, 2, …`, and in a unique one so would
//! `starts`: an array that only restates tuple order is not stored. The accidents
//! instance arrives clustered (accidents by date, casualties by accident) and keyed by
//! ids numbered in insertion order, so none of ψ1–ψ4 keeps `postings` and only ψ1,
//! keyed by date strings, keeps `slots`: ψ2 keeps its `starts`, and ψ3 and ψ4 keep
//! nothing at all. An unclustered relation over arbitrary keys keeps all three arrays.
//!
//! **Keys are not stored.** A group's key is the `X`-projection of its first tuple,
//! which the relation already holds, so comparing a probe key reads a tuple the fetch
//! is about to read anyway and nothing is ever cloned at build time.
//!
//! # Cost model
//!
//! A hashed key map costs 8–16 B per distinct key (2–4 slots of 4 B), a dense one
//! nothing; a clustered or general layout adds 4 B of `starts` per key, a general one 4
//! B of `postings` per tuple. So a hashed unique key costs 8–16 B per tuple, a hashed
//! clustered one 12–20 B per key and nothing per tuple, and a general one 4 B per tuple
//! besides its keys; a dense unique index costs nothing per tuple and a dense clustered
//! one 4 B per key — against ≈110 B per key for a `HashMap<Row, Vec<u32>>` that owns a
//! cloned key and a posting `Vec` per entry. A hashed probe is one hash of the key, a
//! slot walk (expected < 1.5 slots at load ≤ ½), the reads that find each visited
//! group's first tuple, and one key comparison per visited group; a dense probe is a
//! subtraction and a range check. A hit returns the group's [`Offsets`]: a run of
//! tuples, or a slice of `postings`.
//!
//! Each of those reads needs the one before it. The hashed probe chain is slot → tuple
//! (unique), slot → start → tuple (clustered) or slot → start → posting → tuple
//! (general); a dense one starts at the start, or at the tuple. A *warm* probe, its
//! lines cached, costs tens of nanoseconds; a *cold* one pays one cache miss per link
//! in a row, and at 10⁶ tuples nearly every probe of a data-dependent lookup is cold
//! (Q0's ψ3 lookup, ≈300 keys of `Accident` by `aid`, took ≈106 µs cold against ≈57 µs
//! warm on a 2-core Xeon VM through the general chain's four links, and its slot walks
//! over a 2 MB table alone ≈19.5 µs of a 42.7 µs lookup before the key map was dense).
//!
//! # Batched walks
//!
//! So a batch of probes is walked `GROUP` keys at a time, stage by stage: every home
//! slot, then — where the layout has them — every CSR start and every first posting,
//! then every first tuple; each stage prefetches, for every key, the line the next
//! stage reads, so the group's misses overlap instead of queueing. A key whose
//! candidate tuple does not match moves to its next slot and goes round again with the
//! others still walking. The same lookup went from ≈106 to ≈72 µs cold through the
//! general chain. [`HashIndex::lookup`] is this walk's one-key case: there is one probe
//! walk. A dense index resolves a batch in the same groups, and prefetches for every
//! probe the line its caller reads next — its start, or its one tuple.
//!
//! # Build
//!
//! A first pass reads the keys in order and hashes nothing: while each key is one
//! integer `base + g`, `g` being a group opened so far or the next one, it lays the
//! groups out as the hashed build below does. If it reaches the end, the index is
//! dense; the first key that breaks the run (ψ1's first date, a gap, a key below
//! `base`) ends it, and the hashed build starts over. So a dense relation is never
//! hashed, and its build allocates nothing beyond the arrays its layout keeps.
//!
//! The hashed build hashes each tuple's key once, and keeps per group the hash's low 32 bits
//! as a tag. A slot whose group's tag differs is passed over without touching the
//! relation; only a tag match reads the group's first tuple to compare keys, so a tag
//! filters but never proves. A table past half full doubles and re-slots every group
//! from its tag, in group order: `slots` is exactly the table that inserting the groups
//! in group order, by linear probing, into `max(2, (2·groups).next_power_of_two())`
//! slots gives — a function of the keys and their order alone, whatever the layout.
//!
//! The same pass decides the layout, and holds no array a layout does not need. It
//! starts out unique, where group `g`'s first tuple is tuple `g` and the tags are all
//! it keeps. The first tuple that repeats the previous tuple's key makes it clustered:
//! only then is `starts` materialized, as every group's first tuple so far, and it
//! grows by one entry per new key. The first tuple that repeats an earlier key makes it
//! general: only then is each tuple's group number (4 B per tuple) materialized from
//! the runs seen so far; after the pass they are counted into `starts` and dropped into
//! `postings`, so each group keeps the relation's order. A unique or clustered build
//! thus works in its tags (4 B per key) and, when clustered, the `starts` it keeps; the
//! layout depends only on the keys and their order. ψ1–ψ4 over the 1.2·10⁶-tuple
//! accidents store build in ≈70 ms, against ≈135 ms when the build walked the probe
//! path (2-core Xeon VM).
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
fn offset_bound(relation: &str, tuples: usize) -> Result<u32> {
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

/// Replace the slot table of the groups tagged `tags` (their key hashes' low 32 bits)
/// by one twice its size, and re-slot every group, in group order, by linear probing
/// from its tag: the keys are distinct, so nothing is compared. The old table is freed
/// first, so the two are never held at once. A table past 2³² slots is refused, as its
/// mask would need hash bits the tags do not keep.
fn regrow(slots: &mut Vec<u32>, tags: &[u32], relation: &str) -> Result<()> {
    let size = 2 * slots.len();
    let mask = u32::try_from(size - 1).map_err(|_| {
        Error::invalid(format!(
            "relation `{relation}` has more than 2^31 distinct keys on one index"
        ))
    })? as usize;
    *slots = Vec::new();
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

/// The one probe walk: walk probe `k` — hashed `hashes[k]`, in `index` (over
/// `relation`) through its slot table `slots` — to the first group whose first tuple
/// `is_key(k, tuple)` accepts, or `None` at the free slot that ends its walk (a table is
/// at most half full, and never empty).
///
/// Up to `N` probes walk at once, in rounds of up to four stages — slot, CSR start,
/// first posting, first tuple (its first key attribute), skipping the middle two where
/// the layout lacks their array — each stage prefetching, for every probe, the line the
/// next one reads. A rejected candidate moves its probe on to the next slot for the next
/// round.
fn walk<const N: usize>(
    relation: &Relation,
    index: &HashIndex,
    slots: &[u32],
    hashes: &[u64],
    is_key: impl Fn(usize, &[Value]) -> bool,
) -> [Option<u32>; N] {
    let key_attr = index.key_attrs.first().copied();
    let prefetch_tuple = |tuple: u32| {
        if let Some(attr) = key_attr {
            prefetch(relation.tuple(tuple as usize), attr);
        }
    };
    let (starts, postings) = index.groups.arrays();
    let mask = slots.len() - 1;
    let (mut found, mut slot) = ([None; N], [0usize; N]);
    // Per probe, its candidate group and, once the stages have read it, that group's
    // first tuple; unique groups are their own first tuple.
    let (mut group, mut first) = ([0u32; N], [0u32; N]);
    // The probes still walking, in order.
    let (mut todo, mut live): ([usize; N], usize) = (std::array::from_fn(|k| k), hashes.len());
    for k in 0..live {
        slot[k] = hashes[k] as usize & mask;
        prefetch(slots, slot[k]);
    }
    while live > 0 {
        let mut kept = 0;
        for t in 0..live {
            let k = todo[t];
            group[k] = slots[slot[k]];
            first[k] = group[k];
            if group[k] != EMPTY {
                match starts {
                    Some(starts) => prefetch(starts, group[k] as usize),
                    None => prefetch_tuple(first[k]),
                };
                todo[kept] = k;
                kept += 1;
            }
        }
        live = kept;
        if let Some(starts) = starts {
            for &k in &todo[..live] {
                first[k] = starts[first[k] as usize];
                match postings {
                    Some(postings) => prefetch(postings, first[k] as usize),
                    None => prefetch_tuple(first[k]),
                };
            }
        }
        if let Some(postings) = postings {
            for &k in &todo[..live] {
                first[k] = postings[first[k] as usize];
                prefetch_tuple(first[k]);
            }
        }
        kept = 0;
        for t in 0..live {
            let k = todo[t];
            if is_key(k, relation.tuple(first[k] as usize)) {
                found[k] = Some(group[k]);
            } else {
                slot[k] = (slot[k] + 1) & mask;
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

/// Resolve every probe in `index` (over `relation`, on the probes' key attributes),
/// [`GROUP`] at a time: `emit` receives each probe's offsets, empty if its key is
/// absent, in probe order. A hashed index walks each group of probes through [`walk`];
/// a dense one finds every probe's group by arithmetic and prefetches the line that
/// turning it into offsets, or the caller, reads next — the group's CSR start, or its
/// one tuple — so those misses overlap too.
pub(crate) fn resolve_each<'a>(
    relation: &Relation,
    index: &'a HashIndex,
    probes: Probes<'_>,
    mut emit: impl FnMut(Offsets<'a>),
) {
    let count = probes.hashes.len();
    for base in (0..count).step_by(GROUP) {
        let len = GROUP.min(count - base);
        let found: [Option<u32>; GROUP] = match &index.keys {
            KeyMap::Dense { base: key_base } => std::array::from_fn(|k| {
                if k >= len {
                    return None;
                }
                let group = index.dense_group(*key_base, probes.key(base + k))?;
                match index.groups.arrays() {
                    (Some(starts), _) => prefetch(starts, group as usize),
                    (None, _) => prefetch(relation.tuple(group as usize), 0),
                }
                Some(group)
            }),
            KeyMap::Hashed { slots } => {
                let hashes = &probes.hashes[base..base + len];
                debug_assert!((0..len).all(|k| hashes[k] == hash_row(probes.key(base + k))));
                let is_key = |k: usize, tuple: &[Value]| {
                    let key = index.key_attrs.iter().map(|&attr| &tuple[attr]);
                    key.eq(probes.key(base + k))
                };
                walk(relation, index, slots, hashes, is_key)
            }
        };
        for found in found.into_iter().take(len) {
            emit(found.map_or_else(Offsets::default, |group| index.group(group as usize)));
        }
    }
}

/// The tuple offsets of one group, ascending: a run of consecutive tuples (a unique or
/// clustered index), or a slice of a general index's `postings`. Empty by default.
#[derive(Debug, Clone)]
pub enum Offsets<'a> {
    /// Tuples `start .. end`.
    Run(std::ops::Range<u32>),
    /// The offsets listed in a slice of `postings`.
    Listed(std::slice::Iter<'a, u32>),
}

impl Default for Offsets<'_> {
    fn default() -> Self {
        Offsets::Run(0..0)
    }
}

impl Iterator for Offsets<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        match self {
            Offsets::Run(run) => run.next(),
            Offsets::Listed(listed) => listed.next().copied(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            Offsets::Run(run) => run.size_hint(),
            Offsets::Listed(listed) => listed.size_hint(),
        }
    }

    /// One branch on the variant, not one per offset.
    #[inline]
    fn fold<B, F: FnMut(B, u32) -> B>(self, init: B, f: F) -> B {
        match self {
            Offsets::Run(run) => run.fold(init, f),
            Offsets::Listed(listed) => listed.copied().fold(init, f),
        }
    }
}

impl ExactSizeIterator for Offsets<'_> {}

/// What maps a group to its tuples, per layout; see the module docs.
#[derive(Debug, Clone)]
enum Groups {
    /// Every key has one tuple: group `g` is tuple `g`.
    Unique { tuples: u32 },
    /// Each key's tuples are one run: group `g` is tuples `starts[g] .. starts[g + 1]`.
    Clustered { starts: Vec<u32> },
    /// Group `g` is `postings[starts[g] .. starts[g + 1]]`.
    General {
        postings: Vec<u32>,
        starts: Vec<u32>,
    },
}

impl Groups {
    /// `(starts, postings)`, each where the layout keeps it.
    fn arrays(&self) -> (Option<&[u32]>, Option<&[u32]>) {
        match self {
            Groups::Unique { .. } => (None, None),
            Groups::Clustered { starts } => (Some(starts), None),
            Groups::General { postings, starts } => (Some(starts), Some(postings)),
        }
    }
}

/// The layout a build has seen over the tuples hashed so far. It only ever moves down
/// the list, each step at the first tuple that breaks the one before.
enum Seen {
    /// Every tuple so far opened a group of its own: group `g` is tuple `g`.
    Unique,
    /// Each group so far is one run of tuples, the last one still open; `starts[g]` is
    /// group `g`'s first tuple.
    Clustered { starts: Vec<u32> },
    /// Per group its first tuple, per tuple its group.
    General {
        firsts: Vec<u32>,
        group_of: Vec<u32>,
    },
}

impl Seen {
    /// Group `group`'s first tuple: the stand-in for its key.
    fn first(&self, group: u32) -> u32 {
        match self {
            Seen::Unique => group,
            Seen::Clustered { starts } => starts[group as usize],
            Seen::General { firsts, .. } => firsts[group as usize],
        }
    }

    /// Tuple `offset` opens group `group`.
    fn open(&mut self, group: u32, offset: u32) {
        match self {
            Seen::Unique => debug_assert_eq!(group, offset),
            Seen::Clustered { starts } => starts.push(offset),
            Seen::General { firsts, group_of } => {
                firsts.push(offset);
                group_of.push(group);
            }
        }
    }

    /// Tuple `offset` of `tuples` joins group `group`, one of the `groups` opened so
    /// far: the open run's, or an earlier one's, which makes the layout general.
    fn join(&mut self, group: u32, offset: u32, groups: u32, tuples: u32) {
        let open_run = group + 1 == groups;
        match self {
            Seen::Unique if open_run => {
                *self = Seen::Clustered {
                    starts: (0..groups).collect(),
                }
            }
            Seen::Unique => *self = Seen::general((0..groups).collect(), offset, tuples),
            Seen::Clustered { starts } if !open_run => {
                *self = Seen::general(std::mem::take(starts), offset, tuples)
            }
            Seen::Clustered { .. } | Seen::General { .. } => {}
        }
        if let Seen::General { group_of, .. } = self {
            group_of.push(group);
        }
    }

    /// The general form of the runs starting at `firsts`, the last one ending before
    /// tuple `offset` of `tuples`.
    fn general(firsts: Vec<u32>, offset: u32, tuples: u32) -> Seen {
        let mut group_of = Vec::with_capacity(tuples as usize);
        let ends = firsts.iter().skip(1).copied().chain([offset]);
        for ((group, &first), end) in (0..).zip(&firsts).zip(ends) {
            group_of.extend(std::iter::repeat_n(group, (end - first) as usize));
        }
        Seen::General { firsts, group_of }
    }

    /// The arrays the index keeps, once all `tuples` are seen. A general layout counts
    /// its groups' sizes into CSR offsets, its `firsts` become the fill cursor, and
    /// every offset drops into its group's next free posting, so each group keeps the
    /// relation's order.
    fn finish(self, tuples: u32) -> Groups {
        match self {
            Seen::Unique => Groups::Unique { tuples },
            Seen::Clustered { mut starts } => {
                starts.push(tuples);
                starts.shrink_to_fit();
                Groups::Clustered { starts }
            }
            Seen::General { firsts, group_of } => {
                let mut starts = vec![0; firsts.len() + 1];
                for &group in &group_of {
                    starts[group as usize + 1] += 1;
                }
                let mut end = 0;
                for start in &mut starts[1..] {
                    end += *start;
                    *start = end;
                }
                let mut cursor = firsts;
                cursor.copy_from_slice(&starts[..starts.len() - 1]);
                let mut postings = vec![0; tuples as usize];
                for (offset, group) in (0..).zip(group_of) {
                    let next = &mut cursor[group as usize];
                    postings[*next as usize] = offset;
                    *next += 1;
                }
                Groups::General { postings, starts }
            }
        }
    }
}

/// How a probe key finds its group; see the module docs.
#[derive(Debug, Clone)]
enum KeyMap {
    /// The key is one attribute and group `g`'s key is `Value::Int(base + g)`: a
    /// probe's group is its key less `base`.
    Dense { base: i64 },
    /// An open-addressing table from key hash to group number, never empty.
    Hashed { slots: Vec<u32> },
}

/// A hash index over one relation, keyed on a set of attribute positions. See the
/// module docs for the layouts.
#[derive(Debug, Clone)]
pub struct HashIndex {
    key_attrs: Vec<usize>,
    groups: Groups,
    keys: KeyMap,
}

/// The dense pre-pass of [`HashIndex::build`]: when the key is one attribute and every
/// tuple's key is the integer `base + g`, `g` being a group opened so far or the next
/// one, `base` and the layout those groups take; `None` at the first tuple that breaks
/// this. Hashes nothing.
fn dense(relation: &Relation, key_attrs: &[usize], tuples: u32) -> Option<(i64, Seen)> {
    let &[attr] = key_attrs else {
        return None;
    };
    let (mut base, mut groups, mut seen) = (0, 0u32, Seen::Unique);
    for offset in 0..tuples {
        let Value::Int(key) = relation.tuple(offset as usize)[attr] else {
            return None;
        };
        if offset == 0 {
            base = key;
        }
        let group = u32::try_from(key.checked_sub(base)?).ok()?;
        if group == groups {
            seen.open(group, offset);
            groups += 1;
        } else if group < groups {
            seen.join(group, offset, groups, tuples);
        } else {
            return None;
        }
    }
    Some((base, seen))
}

/// The hashed build of [`HashIndex::build`]: the slot table and the layout of the
/// groups, numbered by first occurrence.
fn hashed(relation: &Relation, key_attrs: &[usize], tuples: u32) -> Result<(Vec<u32>, Seen)> {
    let key = |offset: u32| {
        let tuple = relation.tuple(offset as usize);
        key_attrs.iter().map(move |&attr| &tuple[attr])
    };
    let mut slots = vec![EMPTY; 2];
    // Per group, the tag; the group's first tuple, the stand-in for its key, is what
    // `seen` says it is. Freed on return, before `finish` allocates a general layout's
    // `starts` and `postings`.
    let mut tags: Vec<u32> = Vec::new();
    let mut seen = Seen::Unique;
    for offset in 0..tuples {
        let hash = hash_row(key(offset));
        let mut slot = hash as usize & (slots.len() - 1);
        loop {
            let group = slots[slot];
            let groups = tags.len() as u32;
            if group == EMPTY {
                // A new key: the next group number, standing on this tuple.
                slots[slot] = groups;
                tags.push(hash as u32);
                seen.open(groups, offset);
                if tags.len() * 2 > slots.len() {
                    regrow(&mut slots, &tags, relation.name())?;
                }
                break;
            }
            if tags[group as usize] == hash as u32 && key(seen.first(group)).eq(key(offset)) {
                seen.join(group, offset, groups, tuples);
                break;
            }
            slot = (slot + 1) & (slots.len() - 1);
        }
    }
    Ok((slots, seen))
}

impl HashIndex {
    /// Build an index on `key_attrs` (sorted attribute positions) over a relation.
    ///
    /// A first pass reads the keys in order and stops at the first that is not the next
    /// of a run of consecutive integers (see the module docs); if none is, the index
    /// is dense, that pass has laid out its groups, and nothing is hashed. Otherwise one
    /// pass numbers the keys, hashing each tuple's key once. A group keeps the low 32
    /// bits of its key's hash as a tag, so a slot whose tag differs is passed over
    /// unread: the relation is read only on a tag match, to compare the key with the
    /// group's first tuple. A table more than half full doubles, and its groups are
    /// re-slotted from their tags in group order — so the slots end as if every group
    /// had gone, in group order, into a table of the final size. Either pass tells the
    /// layout from the order of the keys and materializes `starts`, and the per-tuple
    /// group numbers that fill `postings`, only at the first tuple whose layout needs
    /// them (see the module docs).
    ///
    /// Fails past 2³¹ hashed keys, whose table would need more slot bits than a tag
    /// keeps, and past [`u32::MAX`] tuples, which 32-bit postings cannot address.
    pub fn build(relation: &Relation, key_attrs: &[usize]) -> Result<Self> {
        let tuples = offset_bound(relation.name(), relation.len())?;
        let (keys, seen) = match dense(relation, key_attrs, tuples) {
            Some((base, seen)) => (KeyMap::Dense { base }, seen),
            None => {
                let (slots, seen) = hashed(relation, key_attrs, tuples)?;
                (KeyMap::Hashed { slots }, seen)
            }
        };
        Ok(Self {
            key_attrs: key_attrs.to_vec(),
            groups: seen.finish(tuples),
            keys,
        })
    }

    /// Whether probes find their group by arithmetic: the key is one attribute whose
    /// values, group by group in first-occurrence order, are consecutive integers.
    ///
    /// A test oracle, public because `bea-workload`'s tests check with it which of the
    /// accidents indexes are dense.
    pub fn is_dense(&self) -> bool {
        matches!(self.keys, KeyMap::Dense { .. })
    }

    /// The attribute positions forming the key.
    pub fn key_attrs(&self) -> &[usize] {
        &self.key_attrs
    }

    /// Offsets of the tuples of `relation` — the relation this index was built over —
    /// whose key equals `key` (empty if none), in insertion order: the batched walk's
    /// one-key case.
    pub fn lookup(&self, relation: &Relation, key: &[Value]) -> Offsets<'_> {
        let found = match &self.keys {
            KeyMap::Dense { base } => self.dense_group(*base, key),
            KeyMap::Hashed { slots } => {
                let is_key = |_, tuple: &[Value]| self.key_attrs.iter().map(|&a| &tuple[a]).eq(key);
                let [found] = walk(relation, self, slots, &[hash_row(key)], is_key);
                found
            }
        };
        found.map_or_else(Offsets::default, |group| self.group(group as usize))
    }

    /// The group of `key` in a dense index whose first key is `base`: `key` less `base`,
    /// if `key` is one integer and that is a group. Overflow-safe: a key whose distance
    /// from `base` does not fit is absent.
    fn dense_group(&self, base: i64, key: &[Value]) -> Option<u32> {
        let &[Value::Int(key)] = key else {
            return None;
        };
        let group = u32::try_from(key.checked_sub(base)?).ok()?;
        ((group as usize) < self.num_keys()).then_some(group)
    }

    fn group(&self, group: usize) -> Offsets<'_> {
        match &self.groups {
            Groups::Unique { .. } => Offsets::Run(group as u32..group as u32 + 1),
            Groups::Clustered { starts } => Offsets::Run(starts[group]..starts[group + 1]),
            Groups::General { postings, starts } => {
                let listed = &postings[starts[group] as usize..starts[group + 1] as usize];
                Offsets::Listed(listed.iter())
            }
        }
    }

    /// Number of distinct keys.
    pub fn num_keys(&self) -> usize {
        match &self.groups {
            Groups::Unique { tuples } => *tuples as usize,
            Groups::Clustered { starts } | Groups::General { starts, .. } => starts.len() - 1,
        }
    }

    /// The offsets of every key, in order of the keys' first occurrence. A group is
    /// never empty; its key is the `X`-projection of the tuple at its first offset.
    pub fn groups(&self) -> impl Iterator<Item = Offsets<'_>> {
        (0..self.num_keys()).map(|group| self.group(group))
    }

    /// Bytes the index occupies: the `u32` arrays its layout and its key map keep, plus
    /// the key positions.
    pub fn bytes(&self) -> u64 {
        let (starts, postings) = self.groups.arrays();
        let slots = match &self.keys {
            KeyMap::Dense { .. } => 0,
            KeyMap::Hashed { slots } => slots.len(),
        };
        let words = slots + starts.map_or(0, <[u32]>::len) + postings.map_or(0, <[u32]>::len);
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
        for offset in 0..relation.len() as u32 {
            let key = Relation::project(relation.tuple(offset as usize), key_attrs);
            if !map.contains_key(&key) {
                order.push(key.clone());
            }
            map.entry(key).or_default().push(offset);
        }
        (map, order)
    }

    /// `key`'s offsets through the one-key walk.
    fn lookup(index: &HashIndex, relation: &Relation, key: &[Value]) -> Vec<u32> {
        index.lookup(relation, key).collect()
    }

    /// The largest group size: the observed cardinality `max_ā |{t : t[X] = ā}|`.
    fn largest_group(index: &HashIndex) -> usize {
        index.groups().map(|group| group.len()).max().unwrap_or(0)
    }

    #[derive(Debug, PartialEq)]
    enum Layout {
        Unique,
        Clustered,
        General,
    }

    fn layout(index: &HashIndex) -> Layout {
        match index.groups {
            Groups::Unique { .. } => Layout::Unique,
            Groups::Clustered { .. } => Layout::Clustered,
            Groups::General { .. } => Layout::General,
        }
    }

    /// The slot table of a hashed index.
    fn slots(index: &HashIndex) -> &[u32] {
        match &index.keys {
            KeyMap::Hashed { slots } => slots,
            KeyMap::Dense { .. } => panic!("a dense index has no slots"),
        }
    }

    /// The index [`HashIndex::build`] gives where the dense pre-pass is skipped: the
    /// hashed layout of any relation, dense or not.
    fn hashed_twin(relation: &Relation, key_attrs: &[usize]) -> HashIndex {
        let tuples = relation.len() as u32;
        let (slots, seen) = hashed(relation, key_attrs, tuples).unwrap();
        HashIndex {
            key_attrs: key_attrs.to_vec(),
            groups: seen.finish(tuples),
            keys: KeyMap::Hashed { slots },
        }
    }

    /// The first key, if the keys `order` lists (first occurrence first) are one integer
    /// each, and consecutive: the index over them must be dense. `Some(0)` for no keys.
    fn dense_base(order: &[Row], key_attrs: &[usize]) -> Option<i64> {
        let ints = order.iter().map(|key| match key[..] {
            [Value::Int(k)] => Some(k),
            _ => None,
        });
        let ints: Vec<i64> = ints.collect::<Option<_>>()?;
        let consecutive = ints.windows(2).all(|w| w[0].checked_add(1) == Some(w[1]));
        (key_attrs.len() == 1 && consecutive).then(|| ints.first().copied().unwrap_or(0))
    }

    /// Same key set, same postings, same order — inside every list and across keys —
    /// and the same key map too: dense from the first key exactly when the keys are
    /// consecutive integers in group order, and otherwise each group's key hash
    /// inserted, in group order, by linear probing into `max(2,
    /// (2·groups).next_power_of_two())` slots. The layout is the one the reference's
    /// lists call for, and it keeps exactly the arrays that layout names: a general
    /// index today's CSR `postings` and `starts`, a clustered one the `starts` of its
    /// runs. Returns the index.
    fn assert_equals_reference(relation: &Relation, key_attrs: &[usize]) -> HashIndex {
        let index = HashIndex::build(relation, key_attrs).unwrap();
        let (map, order) = reference(relation, key_attrs);
        assert_eq!(index.num_keys(), map.len());
        let sizes: Vec<usize> = index.groups().map(|group| group.len()).collect();
        assert_eq!(
            sizes.iter().sum::<usize>(),
            relation.len(),
            "one posting per tuple"
        );
        for (key, postings) in &map {
            assert_eq!(&lookup(&index, relation, key), postings, "key {key:?}");
        }
        let groups: Vec<(Row, Vec<u32>)> = index
            .groups()
            .map(|list| {
                let list: Vec<u32> = list.collect();
                let first = relation.row(list[0] as usize).unwrap();
                (Relation::project(first, key_attrs), list)
            })
            .collect();
        assert_eq!(groups.len(), order.len());
        for ((key, list), expected) in groups.iter().zip(&order) {
            assert_eq!(key, expected, "groups come in first-occurrence order");
            assert_eq!(list, &map[key]);
        }
        let longest = map.values().map(Vec::len).max().unwrap_or(0);
        assert_eq!(sizes.iter().copied().max().unwrap_or(0), longest);
        let absent = vec![Value::int(-7); key_attrs.len()];
        if !map.contains_key(&absent) {
            assert_eq!(index.lookup(relation, &absent).len(), 0);
        }
        let lists: Vec<&Vec<u32>> = order.iter().map(|key| &map[key]).collect();
        let mut starts: Vec<u32> = vec![0];
        starts.extend(lists.iter().scan(0, |end, list| {
            *end += list.len() as u32;
            Some(*end)
        }));
        let expected = if lists.iter().all(|list| list.len() == 1) {
            Layout::Unique
        } else if lists
            .iter()
            .all(|list| list.windows(2).all(|w| w[1] == w[0] + 1))
        {
            Layout::Clustered
        } else {
            Layout::General
        };
        assert_eq!(
            layout(&index),
            expected,
            "the layout the key order calls for"
        );
        match &index.groups {
            Groups::Unique { tuples } => assert_eq!(*tuples as usize, relation.len()),
            Groups::Clustered { starts: kept } => assert_eq!(kept, &starts),
            Groups::General {
                postings,
                starts: kept,
            } => {
                assert_eq!(kept, &starts);
                assert!(postings.iter().eq(lists.iter().copied().flatten()));
            }
        }
        if let KeyMap::Dense { base } = index.keys {
            assert_eq!(
                dense_base(&order, key_attrs),
                Some(base),
                "a dense index's base"
            );
            return index;
        }
        assert_eq!(
            dense_base(&order, key_attrs),
            None,
            "consecutive keys are dense"
        );
        let mask = (2 * order.len()).next_power_of_two().max(2) - 1;
        let mut expected = vec![EMPTY; mask + 1];
        for (group, key) in (0..).zip(&order) {
            let mut slot = hash_row(key) as usize & mask;
            while expected[slot] != EMPTY {
                slot = (slot + 1) & mask;
            }
            expected[slot] = group;
        }
        assert_eq!(slots(&index), expected, "the slot table's layout");
        index
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

    /// A relation `R(a, b)` whose `a` column is `keys`, in order, and whose `b` column
    /// numbers the tuples.
    fn keyed(keys: &[i64]) -> Relation {
        let mut r = Relation::new(RelationSchema::new("R", ["a", "b"]).unwrap());
        for (i, &key) in (0..).zip(keys) {
            r.insert([Value::int(key), Value::int(i)]).unwrap();
        }
        r
    }

    #[test]
    fn the_key_order_picks_the_layout() {
        use Layout::{Clustered, General, Unique};
        /// A name, the keys, the key attributes, the layout and whether it is dense.
        type Case = (&'static str, &'static [i64], &'static [usize], Layout, bool);
        let cases: [Case; 13] = [
            ("unique", &[4, 1, 3, 2, 9], &[0], Unique, false),
            ("clustered", &[7, 7, 2, 5, 5, 5, 1], &[0], Clustered, false),
            (
                "clustered, a run of one first",
                &[3, 5, 5],
                &[0],
                Clustered,
                false,
            ),
            (
                "clustered until its last tuple",
                &[7, 7, 2, 5, 5, 7],
                &[0],
                General,
                false,
            ),
            (
                "unique until one repeat",
                &[4, 1, 3, 2, 1],
                &[0],
                General,
                false,
            ),
            (
                "unique until it repeats its last key",
                &[4, 1, 3, 3],
                &[0],
                Clustered,
                false,
            ),
            (
                "a key recurring after another",
                &[6, 8, 6],
                &[0],
                General,
                false,
            ),
            ("empty", &[], &[0], Unique, true),
            ("empty key", &[6, 8, 6], &[], Clustered, false),
            ("empty key, one tuple", &[6], &[], Unique, false),
            ("dense unique", &[-2, -1, 0, 1, 2], &[0], Unique, true),
            (
                "dense clustered",
                &[3, 4, 4, 5, 5, 5],
                &[0],
                Clustered,
                true,
            ),
            (
                "dense, a key recurring after another",
                &[6, 7, 6],
                &[0],
                General,
                true,
            ),
        ];
        for (case, keys, key_attrs, expected, dense) in cases {
            let r = keyed(keys);
            let index = assert_equals_reference(&r, key_attrs);
            assert_eq!(layout(&index), expected, "{case}");
            assert_eq!(index.is_dense(), dense, "{case}");
            let (_, present) = reference(&r, key_attrs);
            for total in [0, 1, GROUP + 3] {
                let probes = probe_mix(total as u64 + 1, &present, key_attrs.len(), total);
                assert_batch_equals_lookups(&index, &r, &probes);
            }
            assert_batch_equals_lookups(&index, &r, &present);
        }
    }

    /// A relation `R(a, b)` of `rows` tuples whose `a` keys start at `base` (at most
    /// `i64::MAX - rows`, so no key overflows), each key opening the next group or
    /// repeating an earlier one — the last one most often — so the keys are dense, until
    /// the seeded tuple where `deviation` breaks them: 1 skips a key, 2 goes below
    /// `base` (wrapping past `i64::MIN` to `i64::MAX`), 3 is not an integer, and 0 never
    /// breaks them. `b` numbers the tuples.
    fn near_dense(seed: u64, base: i64, rows: usize, deviation: u64) -> Relation {
        let mut next = xorshift(seed);
        let at = next() as usize % rows.max(1);
        let mut r = Relation::new(RelationSchema::new("R", ["a", "b"]).unwrap());
        let mut groups = 0i64;
        for i in 0..rows {
            let a = match (i == at, deviation) {
                (true, 1) => Value::int(base + groups + 1),
                (true, 2) => Value::int(base.wrapping_sub(1)),
                (true, 3) => Value::str(format!("{}", base + groups)),
                _ if groups == 0 || next().is_multiple_of(3) => {
                    groups += 1;
                    Value::int(base + groups - 1)
                }
                _ if next().is_multiple_of(4) => Value::int(base + (next() % groups as u64) as i64),
                _ => Value::int(base + groups - 1),
            };
            r.insert([a, Value::int(i as i64)]).unwrap();
        }
        r
    }

    #[test]
    fn dense_keys_agree_with_the_keyed_map_and_the_hashed_layout() {
        let mut dense = 0;
        for seed in 1..=4u64 {
            for rows in [0, 1, 2, 40, 700] {
                let bases = [0, 1, -5, i64::MIN, i64::MAX - rows as i64];
                for (base, deviation) in bases.into_iter().flat_map(|b| (0..4).map(move |d| (b, d)))
                {
                    let r = near_dense(seed * 0xD0 + deviation, base, rows, deviation);
                    let corner =
                        format!("seed {seed}, {rows} rows from {base}, deviation {deviation}");
                    // Two-attribute and empty keys are never dense.
                    for key_attrs in [&[0][..], &[], &[0, 1]] {
                        let index = assert_equals_reference(&r, key_attrs);
                        dense += usize::from(index.is_dense());
                        let twin = hashed_twin(&r, key_attrs);
                        let (_, present) = reference(&r, key_attrs);
                        let groups = |index: &HashIndex| -> Vec<Vec<u32>> {
                            index.groups().map(Iterator::collect).collect()
                        };
                        assert_eq!(groups(&index), groups(&twin), "{corner}");
                        assert_eq!(index.num_keys(), twin.num_keys(), "{corner}");
                        let mut probes = probe_mix(seed, &present, key_attrs.len(), 2 * GROUP + 5);
                        if let [_] = key_attrs {
                            let groups = present.len() as i64;
                            probes.extend(
                                [
                                    Value::int(base.wrapping_sub(1)),
                                    Value::int(base.wrapping_add(groups)),
                                    Value::int(i64::MIN),
                                    Value::int(i64::MAX),
                                    Value::str(format!("{base}")),
                                    Value::Labelled(0),
                                    Value::Bool(true),
                                ]
                                .map(|value| vec![value]),
                            );
                        }
                        assert_batch_equals_lookups(&index, &r, &probes);
                        assert_eq!(
                            resolve_all(&index, &r, &probes),
                            resolve_all(&twin, &r, &probes),
                            "{corner}"
                        );
                    }
                }
            }
        }
        assert!(dense > 100, "most undisturbed relations are dense: {dense}");
    }

    #[test]
    fn a_dense_index_finds_no_other_value() {
        let r = keyed(&[7, 8, 8, 9]);
        let index = HashIndex::build(&r, &[0]).unwrap();
        assert!(index.is_dense());
        assert_eq!(
            index.bytes(),
            4 * 4 + std::mem::size_of::<usize>() as u64,
            "starts only"
        );
        assert_eq!(lookup(&index, &r, &[Value::int(8)]), [1, 2]);
        let absents = [
            Value::int(6),
            Value::int(10),
            Value::int(i64::MIN),
            Value::int(i64::MAX),
            Value::str("8"),
            Value::Labelled(8),
            Value::Labelled(1),
            Value::Bool(true),
        ];
        for absent in &absents {
            assert_eq!(
                index.lookup(&r, std::slice::from_ref(absent)).len(),
                0,
                "{absent:?}"
            );
        }
        let probes: Vec<Row> = absents.iter().map(|v| vec![v.clone()]).collect();
        assert!(resolve_all(&index, &r, &probes).iter().all(Vec::is_empty));
        // The extremes of `i64` as the base: every distance to a probe is checked.
        for keys in [[i64::MIN, i64::MIN + 1], [i64::MAX - 1, i64::MAX]] {
            let r = keyed(&keys);
            let index = assert_equals_reference(&r, &[0]);
            assert!(index.is_dense());
            for probe in [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX] {
                let expected: &[u32] = match keys.iter().position(|&k| k == probe) {
                    Some(0) => &[0],
                    Some(_) => &[1],
                    None => &[],
                };
                assert_eq!(
                    lookup(&index, &r, &[Value::int(probe)]),
                    expected,
                    "{probe}"
                );
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
        assert_eq!(lookup(&index, &r, &[Value::int(a)]), [0, 2]);
        assert_eq!(lookup(&index, &r, &[Value::int(b)]), [1, 3, 4]);
        assert_equals_reference(&r, &[0]);
    }

    /// Resolve `keys` in one batched call over one index: each key's offsets.
    fn resolve_all(index: &HashIndex, relation: &Relation, keys: &[Row]) -> Vec<Vec<u32>> {
        let arity = index.key_attrs().len();
        let flat: Vec<Value> = keys.iter().flatten().cloned().collect();
        let hashes: Vec<u64> = keys.iter().map(hash_row).collect();
        let mut out = Vec::new();
        let probes = Probes {
            arity,
            keys: &flat,
            hashes: &hashes,
        };
        resolve_each(relation, index, probes, |offsets| {
            out.push(offsets.collect())
        });
        out
    }

    /// The batched walk against the one-key walk, probe by probe and in order.
    fn assert_batch_equals_lookups(index: &HashIndex, relation: &Relation, keys: &[Row]) {
        let batched = resolve_all(index, relation, keys);
        assert_eq!(batched.len(), keys.len());
        for (key, postings) in keys.iter().zip(batched) {
            assert_eq!(postings, lookup(index, relation, key), "key {key:?}");
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
                    let groups: Vec<Vec<u32>> = index.groups().map(Iterator::collect).collect();
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
            slots(&index).len(),
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
            assert_eq!(lookup(&index, &r, key), [2 * i, 2 * i + 1]);
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
            assert_eq!(index.lookup(&r, std::slice::from_ref(absent)).len(), 0);
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
        let mask = slots(&index).len() - 1;
        // Absent keys whose walk starts on an occupied slot: the compare, not the hash,
        // must turn them away, and the walk must end at the next free slot.
        let colliding: Vec<Row> = (0..)
            .map(|i| vec![Value::str(format!("absent-{i}"))])
            .filter(|key| slots(&index)[hash_row(key) as usize & mask] != EMPTY)
            .take(50)
            .collect();
        for key in &colliding {
            assert_eq!(index.lookup(&r, key).len(), 0, "key {key:?}");
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
        // Consecutive integers are dense: no slots at all. Their hashed layout grows.
        let dense = HashIndex::build(&r, &[0]).unwrap();
        assert!(dense.is_dense());
        assert_eq!(dense.bytes(), std::mem::size_of::<usize>() as u64);
        for index in [dense, hashed_twin(&r, &[0])] {
            assert_eq!(index.num_keys(), KEYS as usize);
            for i in 0..KEYS {
                assert_eq!(lookup(&index, &r, &[Value::int(i64::from(i))]), [i]);
            }
            for i in KEYS..KEYS + 1_000 {
                assert_eq!(index.lookup(&r, &[Value::int(i64::from(i))]).len(), 0);
            }
            assert_eq!(layout(&index), Layout::Unique);
        }
        let index = hashed_twin(&r, &[0]);
        let slots = slots(&index);
        // Grown by doubling to at most half full, so a free slot always ends a walk.
        assert!(slots.len().is_power_of_two());
        assert!(slots.len() >= 2 * KEYS as usize && slots.len() < 4 * KEYS as usize);
        assert_eq!(
            slots.iter().filter(|&&slot| slot != EMPTY).count(),
            KEYS as usize
        );
        // Hashed unique keys keep nothing but 8–16 B of slots each.
        assert!(index.bytes() <= 16 * u64::from(KEYS) + 64);
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
        assert_eq!(lookup(&idx, &r, &[Value::int(2)]), [2]);
        assert_eq!(idx.lookup(&r, &[Value::int(9)]).len(), 0);
        assert_eq!(largest_group(&idx), 2);
    }

    #[test]
    fn composite_key() {
        let r = relation();
        let idx = HashIndex::build(&r, &[0, 1]).unwrap();
        assert_eq!(idx.num_keys(), 3);
        assert_eq!(lookup(&idx, &r, &[Value::int(1), Value::str("y")]), [1]);
        assert_eq!(idx.groups().count(), 3);
    }

    #[test]
    fn empty_key_groups_everything() {
        let r = relation();
        let idx = HashIndex::build(&r, &[]).unwrap();
        assert_eq!(idx.num_keys(), 1);
        assert_eq!(idx.lookup(&r, &[]).len(), 3);
        assert_eq!(largest_group(&idx), 3);
    }

    #[test]
    fn empty_relation() {
        let r = Relation::new(RelationSchema::new("R", ["a"]).unwrap());
        let idx = HashIndex::build(&r, &[0]).unwrap();
        assert_eq!(idx.num_keys(), 0);
        assert_eq!(largest_group(&idx), 0);
    }
}
