//! The session-level cross-query fetch cache: one bounded map per entry shape under
//! one lock, evicted by a CLOCK hand, in front of the store's indexes.
//!
//! [`crate::ops`]'s `KeyedLookupOp` already retains per-key fetch results — but its
//! arena dies with its query, so a service replaying the same anchored probes
//! re-fetches identical postings on every connection. [`SessionFetchCache`] hoists
//! the idea one level up: it is owned by the [`crate::session::Session`], shared by
//! every query the session runs, and looked up *before* the store's index. A warm hit
//! is one map lookup under the hash its key already carries ([`HashedRow`]), a
//! referenced bit set and a refcount bump — zero value clones, zero allocations, and
//! none of the fetch-side counters (`tuples_fetched`, `index_lookups`) are charged;
//! the hit is visible only in the additive
//! [`crate::stats::AccessStats::cache_hits`] / `rows_served_from_cache` counters. A
//! miss is the ordinary uncached miss, after which the prober inserts an uncharged
//! compact copy of the result (see `allocs_per_probe`) — so a cold run reproduces the
//! uncached counters exactly. The maps trust the carried hash instead of SipHash-ing
//! keys again: keys are data the operator loaded and constants of admitted queries,
//! and a hit is confirmed by comparing values, so a poor spread costs time under the
//! lock, never a wrong entry.
//!
//! Nobody waits on a fill: two queries that miss the same cold key both fetch it from
//! the store — each was priced for that fetch — and the second
//! [`SessionFetchCache::insert`] keeps the entry the first left.
//!
//! # What a cache entry is
//!
//! Cached batches are keyed by **shape** and key: a [`CacheShape`] pins the
//! constraint index, the fetched positions, and the fused pre-projection (if any)
//! baked into the stored batch, so two operators share entries exactly when their
//! fills would have produced byte-identical batches. Residual predicates and
//! non-fused output projections are applied *downstream* of the cache and never
//! affect entry content, so they do not participate in the shape.
//!
//! # Bounds and eviction
//!
//! The cache is bounded by resident rows ([`SessionFetchCache::new`]'s budget;
//! `SessionConfig::cache_budget_rows` / `BEA_CACHE_ROWS` upstream). Every entry sits
//! on one ring in admission order; a hit sets its entry's referenced bit. An insert
//! that takes the total past the budget advances the hand over the ring before it
//! unlocks: a referenced entry loses its bit and goes round again, an unreferenced one
//! is evicted, until the total fits. Each step of the hand either evicts an entry
//! (paid for by its insert) or clears a bit (paid for by the hit that set it), so
//! eviction is amortised O(1) per insert. A posting list longer than the whole budget
//! is never inserted ([`SessionFetchCache::admits`]), so it cannot evict every
//! resident entry and then itself. The cache counts its rows on its **own** resident
//! total: per-query ledgers still drain to zero at query end (a miss charges and
//! releases the probing query exactly as without the cache), and the session drains
//! the cache to zero on teardown. Admission control never looks at cache state: a
//! query is priced at its uncached worst case, so boundedness guarantees hold even if
//! every entry is evicted mid-flight.
//!
//! A keyed lookup reads every key of a source batch before it inserts any (see
//! [`crate::ops`]' `fetch` module), so an entry that an insert later in the same batch
//! evicts can still serve that batch.

use crate::ops::batch::{Batch, HashedRow, HashedRowMap};
use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Identity of a cache entry's content, beyond its key: which constraint was
/// fetched, which positions were projected into the stored columns, and the fused
/// pre-projection applied before caching (`None` when entries hold the raw
/// projection). Operators with equal shapes produce interchangeable fill results.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CacheShape {
    pub(crate) constraint: usize,
    pub(crate) positions: Vec<usize>,
    pub(crate) emit: Option<Vec<usize>>,
}

/// A registered [`CacheShape`]: which of the cache's maps holds its entries.
/// Operators resolve it once (at construction or when the fused projection is
/// settled), so the per-probe path never compares shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct CacheSpace(usize);

#[derive(Debug)]
struct Entry {
    batch: Arc<Batch>,
    /// Set by every hit, cleared when the hand passes: an entry the hand finds clear
    /// has not been hit since the hand last came round.
    referenced: bool,
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
    /// The configured row budget the resident total is kept under.
    pub budget_rows: u64,
}

/// Everything the cache's one lock guards.
#[derive(Debug, Default)]
struct Resident {
    /// One map per registered shape, indexed by [`CacheSpace`].
    spaces: Vec<(CacheShape, HashedRowMap<Entry>)>,
    /// Every resident entry's space and key; the hand is the front.
    ring: VecDeque<(CacheSpace, HashedRow)>,
    /// Always the rows of every entry in `spaces`, and never above the budget once an
    /// insert unlocks.
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
        let found = spaces.iter().position(|(known, _)| *known == shape);
        CacheSpace(found.unwrap_or_else(|| {
            spaces.push((shape, HashedRowMap::default()));
            spaces.len() - 1
        }))
    }

    /// The cached batch for `key` in `space`, if resident: a hit sets the entry's
    /// referenced bit and counts the rows it serves.
    pub(crate) fn lookup(&self, space: CacheSpace, key: &HashedRow) -> Option<Arc<Batch>> {
        let resident = &mut *self.lock();
        let entry = resident.spaces[space.0].1.get_mut(key)?;
        entry.referenced = true;
        let batch = Arc::clone(&entry.batch);
        resident.hits += 1;
        resident.rows_served += batch.len() as u64;
        Some(batch)
    }

    /// Whether a posting list of `rows` rows may be inserted: one longer than the
    /// whole budget never is.
    pub(crate) fn admits(&self, rows: usize) -> bool {
        rows as u64 <= self.budget_rows
    }

    /// Cache `batch` as `key`'s postings in `space`, unless an entry is already there
    /// (a concurrent miss of the same key inserted it first) or the batch is not
    /// [admitted](SessionFetchCache::admits); then advance the hand until the resident
    /// total fits the budget again (see the module docs).
    pub(crate) fn insert(&self, space: CacheSpace, key: &HashedRow, batch: Arc<Batch>) {
        if !self.admits(batch.len()) {
            return;
        }
        let resident = &mut *self.lock();
        let map = &mut resident.spaces[space.0].1;
        if map.contains_key(key) {
            return;
        }
        let rows = batch.len() as u64;
        let entry = Entry {
            batch,
            referenced: false,
        };
        map.insert(key.clone(), entry);
        resident.ring.push_back((space, key.clone()));
        resident.rows += rows;
        while resident.rows > self.budget_rows {
            let (space, key) = resident
                .ring
                .pop_front()
                .expect("resident rows belong to entries on the ring");
            let map = &mut resident.spaces[space.0].1;
            let entry = map.get_mut(&key).expect("a ring key is resident");
            if std::mem::take(&mut entry.referenced) {
                resident.ring.push_back((space, key));
            } else {
                resident.rows -= entry.batch.len() as u64;
                resident.evictions += 1;
                map.remove(&key);
            }
        }
        debug_assert!(
            resident.rows <= self.budget_rows,
            "an insert leaves the cache within its budget"
        );
    }

    /// Drop every entry, returning the resident total to zero — the session calls
    /// this on teardown.
    pub(crate) fn drain(&self) {
        let resident = &mut *self.lock();
        for (_, map) in &mut resident.spaces {
            for (_, entry) in map.drain() {
                resident.rows -= entry.batch.len() as u64;
            }
        }
        resident.ring.clear();
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
            positions: vec![0, 1],
            emit: None,
        }
    }

    fn batch_of(rows: usize) -> Arc<Batch> {
        Arc::new(Batch::from_rows(
            1,
            (0..rows).map(|i| vec![Value::int(i as i64)]).collect(),
        ))
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
        assert_eq!((stats.hits, stats.evictions), (0, 0));
        assert_eq!(cache.lookup(space, &key).unwrap().len(), 3);
        cache.drain();
        assert_eq!(cache.stats().resident_rows, 0);
        assert!(cache.lookup(space, &key).is_none());
    }

    #[test]
    fn shapes_do_not_share_entries() {
        let cache = SessionFetchCache::new(1_000);
        let a = cache.space(shape(0));
        let b = cache.space(shape(1));
        let fused = cache.space(CacheShape {
            constraint: 0,
            positions: vec![0, 1],
            emit: Some(vec![1]),
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
            cache.insert(space, &key_of(k), batch_of(k as usize % 5));
            assert!(
                cache.stats().resident_rows <= 10,
                "over budget after key {k}"
            );
        }
        let stats = cache.stats();
        assert!(stats.evictions > 0);
        let held: usize = (0..200)
            .filter_map(|k| cache.lookup(spaces[k as usize % 2], &key_of(k)))
            .map(|batch| batch.len())
            .sum();
        assert_eq!(
            held as u64, stats.resident_rows,
            "the total is the entries'"
        );
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
}
