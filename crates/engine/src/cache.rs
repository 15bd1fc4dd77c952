//! The session-level cross-query fetch cache: one key table and slab of entries per
//! entry shape under one lock, evicted by a CLOCK hand, in front of the store's indexes.
//!
//! [`crate::ops`]'s `KeyedLookupOp` already retains per-key fetch results — but its
//! arena dies with its query, so a service replaying the same anchored probes
//! re-fetches identical postings on every connection. [`SessionFetchCache`] hoists
//! the idea one level up: it is owned by the [`crate::session::Session`], shared by
//! every query the session runs, and looked up *before* the store's index. A warm hit
//! is one key-table walk under the hash its key already carries ([`HashedRow`]), a
//! referenced bit set and a copy of what the entry holds — an offset or a refcount
//! bump: zero value clones, zero allocations, and none of the fetch-side counters
//! (`tuples_fetched`, `index_lookups`) are charged; the hit is visible only in the
//! additive [`crate::stats::AccessStats::cache_hits`] / `rows_served_from_cache`
//! counters. A miss is the ordinary uncached miss, after which the prober inserts an
//! uncharged entry (see `allocs_per_probe`) — so a cold run reproduces the uncached
//! counters exactly. The key table trusts the carried hash instead of hashing keys again:
//! keys are data the operator loaded and constants of admitted queries, and a hit is
//! confirmed by comparing values, so a poor spread costs time under the lock, never a
//! wrong entry.
//!
//! Nobody waits on a fill: two queries that miss the same cold key both fetch it from
//! the store — each was priced for that fetch — and the second
//! [`SessionFetchCache::insert`] keeps the entry the first left.
//!
//! # What a cache entry is
//!
//! Entries are keyed by **shape** and key: a [`CacheShape`] pins the constraint index,
//! the fetched positions, and the fused pre-projection (if any) baked into a stored
//! batch, so two operators share entries exactly when their fills would have produced
//! the same postings. Residual predicates and non-fused output projections are applied
//! *downstream* of the cache and never affect entry content, so they do not
//! participate in the shape.
//!
//! An entry holds only what the store cannot serve in place ([`Cached`]). A key that
//! matched at most one tuple — every probe of a bound-1 constraint — is held as that
//! tuple's offset in the constraint's relation, or as no offset when it matched
//! nothing; the prober reads the tuple where it lies, as its uncached miss does. The
//! store is immutable and outlives every query, and the session owns both, so an
//! offset never dangles. A key with two or more tuples is held as its projected,
//! deduplicated postings in a shared [`Batch`], which an anchor emits without a copy.
//!
//! Each shape's keys live in one [`RowTable`], held once — nothing else owns a copy of
//! a key — and its entries in a slab beside it, at the key's position. Evicting an
//! entry [removes](RowTable::remove) its key, whose position the next insert takes.
//! Once the table, the slab and the ring have grown, an insert that holds an offset
//! allocates nothing.
//!
//! # Bounds and eviction
//!
//! The cache is bounded by resident rows ([`SessionFetchCache::new`]'s budget;
//! `SessionConfig::cache_budget_rows` upstream). Every entry sits
//! on one ring in admission order, as its space and position; a hit sets its entry's
//! referenced bit. An insert that takes the total — or the number of entries — past the
//! budget advances the hand over the ring before it unlocks: a referenced entry loses
//! its bit and goes round again, an unreferenced one is evicted, until both fit. A key
//! that matched nothing is an entry of no rows, so the count of entries is what bounds
//! the key table, the slab and the ring under a stream of absent keys. Each step of the hand
//! either evicts an entry (paid for by its insert) or clears a bit (paid for by the hit
//! that set it), so eviction is amortised O(1) per insert. A posting list longer than
//! the whole budget is never inserted ([`SessionFetchCache::admits`]), so it cannot
//! evict every resident entry and then itself. The cache counts its rows on its
//! **own** resident total: per-query ledgers still drain to zero at query end (a miss
//! charges and releases the probing query exactly as without the cache), and the
//! session drains the cache to zero on teardown. Admission control never looks at
//! cache state: a query is priced at its uncached worst case, so boundedness
//! guarantees hold even if every entry is evicted mid-flight.
//!
//! A keyed lookup reads every key of a source batch before it inserts any (see
//! [`crate::ops`]' `fetch` module), so an entry that an insert later in the same batch
//! evicts can still serve that batch.

use crate::ops::batch::{Batch, HashedRow, RowTable};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Identity of a cache entry's content, beyond its key: which constraint was
/// fetched (and so how many values its keys have), which positions were projected
/// into the stored columns, and the fused pre-projection applied before caching
/// (`None` when entries hold the raw projection). Operators with equal shapes produce
/// interchangeable fill results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CacheShape {
    pub(crate) constraint: usize,
    pub(crate) key_arity: usize,
    pub(crate) positions: Vec<usize>,
    pub(crate) emit: Option<Vec<usize>>,
}

/// A registered [`CacheShape`]: which of the cache's spaces holds its entries.
/// Operators resolve it once (at construction or when the fused projection is
/// settled), so the per-probe path never compares shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheSpace(u32);

/// What a cache entry holds for its key: only what the store cannot serve in place
/// (see the module docs).
#[derive(Debug, Clone)]
pub(crate) enum Cached {
    /// The key matched at most one tuple: its offset in the constraint's relation.
    Tuple(Option<u32>),
    /// The key matched two or more tuples: their projected, deduplicated rows.
    Rows(Arc<Batch>),
}

impl Cached {
    /// Rows the entry serves, and counts on the resident total.
    pub(crate) fn len(&self) -> usize {
        match self {
            Cached::Tuple(offset) => usize::from(offset.is_some()),
            Cached::Rows(batch) => batch.len(),
        }
    }
}

/// Session-global cache counters, surfaced through
/// [`crate::session::Session::cache_stats`] (and from there the `bead` STATS
/// reply). All zeros when the session runs without a cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct CacheStats {
    /// Probes served out of the cache since the session started.
    pub hits: u64,
    /// Rows those hits delivered (the cached analogue of `tuples_fetched`).
    pub rows_served: u64,
    /// Entries evicted to keep the resident total under the row budget.
    pub evictions: u64,
    /// Rows currently held by cache entries.
    pub resident_rows: u64,
    /// Entries currently resident — a key that matched nothing is an entry of no rows.
    pub entries: u64,
    /// The configured row budget the resident total, and the number of entries, are
    /// kept under.
    pub budget_rows: u64,
}

/// One entry of a [`Space`]'s slab, at its key's position in the space's keys.
#[derive(Debug)]
struct Entry {
    cached: Cached,
    /// Set by every hit, cleared when the hand passes: an entry the hand finds clear
    /// has not been hit since the hand last came round.
    referenced: bool,
}

/// The entries of one shape (see the module docs).
#[derive(Debug)]
struct Space {
    shape: CacheShape,
    keys: RowTable,
    slab: Vec<Entry>,
}

impl Space {
    fn new(shape: CacheShape) -> Self {
        let keys = RowTable::new("a session cache space", vec![Vec::new(); shape.key_arity]);
        Self {
            shape,
            keys,
            slab: Vec::new(),
        }
    }

    /// Hold `cached` as `key`'s entry: its position, or `None` when the key is resident
    /// already or the space holds as many keys as positions can name.
    fn insert(&mut self, key: &HashedRow, cached: Cached) -> Option<u32> {
        let values = key.values();
        let (position, fresh) = self.keys.insert(key.hash(), |c| &values[c]).ok()?;
        if !fresh {
            return None;
        }
        let entry = Entry {
            cached,
            referenced: false,
        };
        match self.slab.get_mut(position as usize) {
            Some(freed) => *freed = entry,
            None => self.slab.push(entry),
        }
        Some(position)
    }

    /// Evict the entry at `position`; returns what it held.
    fn remove(&mut self, position: u32) -> Cached {
        self.keys.remove(position);
        let cached = &mut self.slab[position as usize].cached;
        std::mem::replace(cached, Cached::Tuple(None))
    }
}

/// Everything the cache's one lock guards.
#[derive(Debug, Default)]
struct Resident {
    /// One space per registered shape, indexed by [`CacheSpace`].
    spaces: Vec<Space>,
    /// Every resident entry's space and position; the hand is the front.
    ring: VecDeque<(CacheSpace, u32)>,
    /// Always the rows of every entry in `spaces`, and never above the budget once an
    /// insert unlocks — nor is the number of entries.
    rows: u64,
    hits: u64,
    rows_served: u64,
    evictions: u64,
}

/// The session-owned hot tier itself. See the module docs for the contract.
#[derive(Debug)]
pub(crate) struct SessionFetchCache {
    budget_rows: u64,
    resident: Mutex<Resident>,
}

impl SessionFetchCache {
    /// A cache bounded at `budget_rows` resident rows. Callers gate construction on
    /// a nonzero resolved budget — a session without a cache holds no
    /// `SessionFetchCache` at all, which is what keeps the disabled path bit-for-bit
    /// identical to the pre-cache executor.
    pub(crate) fn new(budget_rows: u64) -> Self {
        Self {
            budget_rows,
            resident: Mutex::default(),
        }
    }

    fn lock(&self) -> MutexGuard<'_, Resident> {
        self.resident.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The space for `shape`, registering it on first use. A linear scan: shapes are
    /// as few as the distinct fetch steps of the session's plans, and each operator
    /// resolves its space once, off the per-probe path.
    pub(crate) fn space(&self, shape: CacheShape) -> CacheSpace {
        let mut resident = self.lock();
        let spaces = &mut resident.spaces;
        let found = spaces.iter().position(|known| known.shape == shape);
        let index = found.unwrap_or_else(|| {
            spaces.push(Space::new(shape));
            spaces.len() - 1
        });
        CacheSpace(u32::try_from(index).expect("shapes are as few as fetch steps"))
    }

    /// What `key`'s entry in `space` holds, if resident: a hit sets the entry's
    /// referenced bit and counts the rows it serves.
    pub(crate) fn lookup(&self, space: CacheSpace, key: &HashedRow) -> Option<Cached> {
        let resident = &mut *self.lock();
        let space = &mut resident.spaces[space.0 as usize];
        let position = space.keys.find_key(key)?;
        let entry = &mut space.slab[position as usize];
        entry.referenced = true;
        resident.hits += 1;
        resident.rows_served += entry.cached.len() as u64;
        Some(entry.cached.clone())
    }

    /// Whether a posting list of `rows` rows may be inserted: one longer than the
    /// whole budget never is.
    pub(crate) fn admits(&self, rows: usize) -> bool {
        rows as u64 <= self.budget_rows
    }

    /// Hold `cached` as `key`'s entry in `space`, unless an entry is already there (a
    /// concurrent miss of the same key inserted it first) or its rows are not
    /// [admitted](SessionFetchCache::admits); then advance the hand until the resident
    /// total and the number of entries fit the budget again (see the module docs).
    pub(crate) fn insert(&self, space: CacheSpace, key: &HashedRow, cached: Cached) {
        let rows = cached.len();
        if !self.admits(rows) {
            return;
        }
        let resident = &mut *self.lock();
        let Some(position) = resident.spaces[space.0 as usize].insert(key, cached) else {
            return;
        };
        resident.ring.push_back((space, position));
        resident.rows += rows as u64;
        while resident.rows > self.budget_rows || resident.ring.len() as u64 > self.budget_rows {
            let (space, position) = resident
                .ring
                .pop_front()
                .expect("an over-budget cache has entries on the ring");
            let held = &mut resident.spaces[space.0 as usize];
            if std::mem::take(&mut held.slab[position as usize].referenced) {
                resident.ring.push_back((space, position));
            } else {
                resident.rows -= held.remove(position).len() as u64;
                resident.evictions += 1;
            }
        }
        debug_assert!(
            resident.rows <= self.budget_rows && resident.ring.len() as u64 <= self.budget_rows,
            "an insert leaves the cache within its budget"
        );
    }

    /// Drop every entry, returning the resident total to zero — the session calls
    /// this on teardown.
    pub(crate) fn drain(&self) {
        let resident = &mut *self.lock();
        for (space, position) in resident.ring.drain(..) {
            let cached = &resident.spaces[space.0 as usize].slab[position as usize].cached;
            resident.rows -= cached.len() as u64;
        }
        for space in &mut resident.spaces {
            *space = Space::new(space.shape.clone());
        }
        debug_assert_eq!(
            resident.rows, 0,
            "draining the cache returns its resident total to zero"
        );
    }

    pub(crate) fn stats(&self) -> CacheStats {
        let resident = self.lock();
        CacheStats {
            hits: resident.hits,
            rows_served: resident.rows_served,
            evictions: resident.evictions,
            resident_rows: resident.rows,
            entries: resident.ring.len() as u64,
            budget_rows: self.budget_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_core::value::Value;

    fn shape(constraint: usize) -> CacheShape {
        CacheShape {
            constraint,
            key_arity: 1,
            positions: vec![0, 1],
            emit: None,
        }
    }

    fn batch_of(rows: usize) -> Cached {
        Cached::Rows(Arc::new(Batch::from_rows(
            1,
            (0..rows).map(|i| vec![Value::int(i as i64)]).collect(),
        )))
    }

    fn key_of(k: i64) -> HashedRow {
        HashedRow::new(vec![Value::int(k)])
    }

    #[test]
    fn concurrent_misses_of_one_key_keep_one_entry() {
        let cache = SessionFetchCache::new(1_000);
        let space = cache.space(shape(0));
        let key = key_of(7);
        let all_missed = std::sync::Barrier::new(8);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    assert!(cache.lookup(space, &key).is_none());
                    all_missed.wait();
                    cache.insert(space, &key, batch_of(3));
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.resident_rows, 3, "one entry, its rows counted once");
        assert_eq!(stats.entries, 1);
        assert_eq!((stats.hits, stats.evictions), (0, 0));
        assert_eq!(cache.lookup(space, &key).unwrap().len(), 3);
        cache.drain();
        assert_eq!((cache.stats().resident_rows, cache.stats().entries), (0, 0));
        assert!(cache.lookup(space, &key).is_none());
    }

    #[test]
    fn shapes_do_not_share_entries() {
        let cache = SessionFetchCache::new(1_000);
        let a = cache.space(shape(0));
        let b = cache.space(shape(1));
        let fused = cache.space(CacheShape {
            emit: Some(vec![1]),
            ..shape(0)
        });
        let key = key_of(1);
        cache.insert(a, &key, batch_of(2));
        // Same constraint, different pre-projection — and a different constraint
        // entirely — both miss: entry content would differ.
        assert!(cache.lookup(fused, &key).is_none());
        assert!(cache.lookup(b, &key).is_none());
        assert_eq!(cache.lookup(a, &key).unwrap().len(), 2);
        // Re-resolving an equal shape lands on the same space.
        let a_again = cache.space(shape(0));
        assert_eq!(cache.lookup(a_again, &key).unwrap().len(), 2);
    }

    #[test]
    fn eviction_is_lru_by_resident_rows() {
        let cache = SessionFetchCache::new(6);
        let space = cache.space(shape(0));
        for k in 0..3 {
            cache.insert(space, &key_of(k), batch_of(2));
        }
        assert_eq!(cache.stats().resident_rows, 6);
        // Touch key 0 so key 1 becomes the oldest untouched entry.
        assert!(cache.lookup(space, &key_of(0)).is_some());
        // A fourth entry pushes past the budget: key 1 goes, the rest stay.
        cache.insert(space, &key_of(3), batch_of(2));
        let stats = cache.stats();
        assert_eq!(stats.resident_rows, 6, "evicted back down to the budget");
        assert_eq!(stats.evictions, 1);
        assert!(
            cache.lookup(space, &key_of(1)).is_none(),
            "the oldest untouched entry is evicted"
        );
        for k in [0, 2, 3] {
            assert!(cache.lookup(space, &key_of(k)).is_some(), "key {k} stays");
        }
        // A list longer than the whole budget is not admitted: it evicts nothing, and
        // the residents stay.
        cache.insert(space, &key_of(4), batch_of(7));
        let stats = cache.stats();
        assert_eq!((stats.resident_rows, stats.evictions), (6, 1));
        assert!(cache.lookup(space, &key_of(4)).is_none());
        for k in [0, 2, 3] {
            assert!(cache.lookup(space, &key_of(k)).is_some(), "key {k} stays");
        }
    }

    #[test]
    fn every_insert_leaves_the_cache_within_its_budget() {
        let cache = SessionFetchCache::new(10);
        let spaces = [cache.space(shape(0)), cache.space(shape(1))];
        for k in 0..200 {
            let space = spaces[k as usize % 2];
            if k % 3 == 0 {
                cache.lookup(spaces[(k as usize + 1) % 2], &key_of(k - 3));
            }
            // Offset entries of one row and of none, batches of two rows or more.
            let cached = match k % 5 {
                0 => Cached::Tuple(None),
                1 => Cached::Tuple(Some(k as u32)),
                rows => batch_of(rows as usize),
            };
            cache.insert(space, &key_of(k), cached);
            assert!(
                cache.stats().resident_rows <= 10,
                "over budget after key {k}"
            );
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0);
        let held: Vec<Cached> = (0..200)
            .filter_map(|k| cache.lookup(spaces[k as usize % 2], &key_of(k)))
            .collect();
        let rows: usize = held.iter().map(Cached::len).sum();
        assert_eq!(
            rows as u64, stats.resident_rows,
            "the total is the entries'"
        );
        assert_eq!(held.len() as u64, stats.entries);
    }

    #[test]
    fn absent_keys_are_entries_the_budget_bounds_too() {
        // An absent key is an entry of no rows: 10 000 of them under a two-row budget
        // keep two entries, not a key table, slab and ring of 10 000.
        let cache = SessionFetchCache::new(2);
        let space = cache.space(shape(0));
        for k in 0..10_000 {
            cache.insert(space, &key_of(k), Cached::Tuple(None));
        }
        let stats = cache.stats();
        assert_eq!((stats.entries, stats.resident_rows), (2, 0));
        assert_eq!(stats.evictions, 9_998);
        let resident = cache.lock();
        assert_eq!(
            resident.spaces[0].slab.len(),
            3,
            "evicted positions are reused"
        );
        assert_eq!(resident.spaces[0].keys.len(), 2);
    }

    #[test]
    fn drain_returns_the_ledger_to_zero() {
        let cache = SessionFetchCache::new(100);
        let space = cache.space(shape(0));
        for k in 0..4 {
            cache.insert(space, &key_of(k), batch_of(3));
        }
        assert_eq!(cache.stats().resident_rows, 12);
        cache.drain();
        assert_eq!(cache.stats().resident_rows, 0);
        // Entries are gone: the next lookup misses, and an insert starts afresh.
        assert!(cache.lookup(space, &key_of(0)).is_none());
        cache.insert(space, &key_of(0), batch_of(3));
        assert_eq!(cache.stats().resident_rows, 3);
    }

    /// The first `n` keys `0..` whose carried hash has its home at the last position of
    /// the smallest slot table, so that their probe run wraps round to the first.
    fn sharing_the_last_home(n: usize) -> Vec<i64> {
        let mask = RowTable::MIN_SLOTS as u64 - 1;
        let keys = (0..).filter(|&k| key_of(k).hash() & mask == mask);
        keys.take(n).collect()
    }

    #[test]
    fn keys_sharing_a_home_slot_are_found_inserted_and_evicted_apart() {
        // Three one-row offset entries under a two-row budget, all three keys walking
        // from the last slot of the 16-slot table and wrapping round.
        let [a, b, c] = sharing_the_last_home(3)[..] else {
            unreachable!("three keys are taken")
        };
        let cache = SessionFetchCache::new(2);
        let space = cache.space(shape(0));
        let offset = |k: i64| k as u32 + 100;
        let insert = |k: i64| cache.insert(space, &key_of(k), Cached::Tuple(Some(offset(k))));
        // Which of the keys are resident, read without setting a referenced bit.
        let resident = |want: [bool; 3]| {
            let guard = cache.lock();
            let space = &guard.spaces[0];
            for (k, want) in [a, b, c].into_iter().zip(want) {
                let held = space
                    .keys
                    .find_key(&key_of(k))
                    .map(|position| &space.slab[position as usize]);
                match held.map(|entry| &entry.cached) {
                    Some(Cached::Tuple(Some(at))) => assert!(want && *at == offset(k), "{k}"),
                    None => assert!(!want, "key {k} is not found"),
                    Some(other) => panic!("key {k} holds {other:?}"),
                }
            }
        };
        insert(a);
        insert(b);
        resident([true, true, false]);
        // `c` takes the total past the budget: `a`, the oldest, is evicted from the head
        // of the run, and `b` and `c`, moved back into the gap, are still found.
        insert(c);
        resident([false, true, true]);
        // `a` again, at the position it freed: now `b`, at the head of the run, goes.
        insert(a);
        resident([true, false, true]);
        let stats = cache.stats();
        assert_eq!(
            (stats.evictions, stats.entries, stats.resident_rows),
            (2, 2, 2)
        );
        assert_eq!(
            cache.lock().spaces[0].slab.len(),
            3,
            "an evicted position is reused"
        );
        // A hit serves the offset.
        let hit = cache.lookup(space, &key_of(c));
        assert!(matches!(hit, Some(Cached::Tuple(Some(at))) if at == offset(c)));
    }
}
