//! The session-level cross-query fetch cache: a striped, bounded LRU hot tier in
//! front of the index partition.
//!
//! [`crate::ops`]'s `KeyedLookupOp` already retains per-key fetch results — but its
//! arena dies with its query, so a service replaying the same anchored probes
//! re-fetches identical postings on every connection. [`SessionFetchCache`] hoists
//! the idea one level up: it is owned by the [`crate::session::Session`], shared by
//! every query the session runs, and probed *before* the index partition. A warm hit
//! is one map lookup under the hash its key already carries ([`HashedRow`]: the same
//! hash picked the stripe) plus a refcount bump — zero value clones, zero probe
//! allocations, and none of the fetch-side counters (`tuples_fetched`,
//! `index_lookups`) are charged; the hit is visible only in the additive
//! [`crate::stats::AccessStats::cache_hits`] / `rows_served_from_cache` counters. A
//! miss hands the prober a unique fill claim (a condvar fill-exactly-once protocol:
//! a concurrent probe of the same key waits for the fill), which it resolves with
//! the ordinary uncached miss plus an uncharged compact copy as the published entry
//! (see `allocs_per_probe`) — so a cold run reproduces the uncached counters exactly.
//! The maps trust the carried hash instead of SipHash-ing keys again: keys are data
//! the operator loaded and constants of admitted queries, and a hit is confirmed by
//! comparing values, so a poor spread costs time under one stripe lock, never a
//! wrong entry.
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
//! # Bounds and admission
//!
//! The cache is bounded by resident rows ([`SessionFetchCache::new`]'s budget;
//! `SessionConfig::cache_budget_rows` / `BEA_CACHE_ROWS` upstream). Filling past the
//! budget evicts least-recently-used entries — recency is a relaxed global clock
//! stamped on every hit — until the resident total fits again. A posting list longer
//! than the whole budget is never published ([`SessionFetchCache::admits`]): its claim
//! is withdrawn as after a failed fill, so it cannot evict every resident entry and
//! then itself. The cache holds its rows on its **own** residency ledger: per-query
//! ledgers still drain to zero at query end (fills charge and release the filling
//! query exactly as without the cache), and the session drains the cache ledger to
//! zero on teardown. Admission control never looks at cache state: a query is priced
//! at its uncached worst case, so boundedness guarantees hold even if every entry is
//! evicted mid-flight.
//!
//! Hits for one source batch are taken before that batch's fills: a keyed lookup first
//! reads every key of the batch without claiming ([`SessionFetchCache::lookup`]), then
//! probes and fills the rest row by row. So an entry that a fill later in the same
//! batch evicts can still serve that batch — the victims differ from what a strict
//! row-by-row order would evict. Eviction order is approximate in any case (recency is
//! a relaxed clock), and no test asserts it: the property suites assert budgets,
//! answers and counters.

use crate::ops::batch::{Batch, HashedRow, HashedRowMap};
use crate::ops::ResidencyLedger;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

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

/// Outcome of [`SessionFetchCache::probe`].
#[derive(Debug)]
pub(crate) enum SessionProbe {
    Hit(Arc<Batch>),
    /// The caller is now the key's unique filler across the whole session and must
    /// resolve the claim with [`SessionFetchCache::complete`] or
    /// [`SessionFetchCache::abort`].
    Fill,
}

#[derive(Debug)]
enum SpaceEntry {
    /// A fill is in flight somewhere in the session; probes of this key wait.
    Filling,
    Ready {
        batch: Arc<Batch>,
        last_used: u64,
    },
}

#[derive(Debug, Default)]
struct SpaceMap {
    entries: HashedRowMap<SpaceEntry>,
    /// Probes blocked on this stripe's condvar; completions skip the wakeup when
    /// nobody waits (the common case).
    waiters: usize,
}

/// One independently locked partition of a shape's key space.
#[derive(Debug)]
struct SpaceStripe {
    entries: Mutex<SpaceMap>,
    filled: Condvar,
}

/// Enough stripes that a handful of concurrently probing workers rarely meet on a
/// lock (at 64 stripes, four concurrent probers collide under ten percent of the
/// time), few enough that an idle space stays in the low kilobytes.
const SPACE_STRIPES: usize = 64;

/// All cached entries of one [`CacheShape`]. Operators resolve their space once
/// (at construction or when the fused projection is settled) and probe it directly,
/// so the per-probe path never touches the shape registry.
#[derive(Debug)]
pub(crate) struct CacheSpace {
    shape: CacheShape,
    stripes: Vec<SpaceStripe>,
}

impl CacheSpace {
    fn new(shape: CacheShape) -> Self {
        Self {
            shape,
            stripes: (0..SPACE_STRIPES)
                .map(|_| SpaceStripe {
                    entries: Mutex::new(SpaceMap::default()),
                    filled: Condvar::new(),
                })
                .collect(),
        }
    }

    /// The stripe owning `key`, chosen by the hash the key carries — the same hash
    /// the stripe's map then looks it up with, so a probe hashes its key once.
    fn stripe(&self, key: &HashedRow) -> &SpaceStripe {
        &self.stripes[key.stripe(SPACE_STRIPES)]
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
    /// The configured row budget the resident total is kept under.
    pub budget_rows: u64,
}

/// The session-owned hot tier itself. See the module docs for the contract.
#[derive(Debug)]
pub(crate) struct SessionFetchCache {
    budget_rows: u64,
    /// Global recency clock: every hit stamps its entry with the next tick. Relaxed
    /// is enough — eviction only needs a total order that roughly tracks use, not a
    /// synchronization edge.
    clock: AtomicU64,
    /// The cache's own residency accounting: acquired at fill completion, released
    /// at eviction, drained to zero on session teardown. Per-query ledgers never
    /// carry cache-held rows past query end.
    ledger: ResidencyLedger,
    hits: AtomicU64,
    rows_served: AtomicU64,
    evictions: AtomicU64,
    spaces: Mutex<Vec<Arc<CacheSpace>>>,
}

impl SessionFetchCache {
    /// A cache bounded at `budget_rows` resident rows. Callers gate construction on
    /// a nonzero resolved budget — a session without a cache holds no
    /// `SessionFetchCache` at all, which is what keeps the disabled path bit-for-bit
    /// identical to the pre-cache executor.
    pub(crate) fn new(budget_rows: u64) -> Self {
        Self {
            budget_rows,
            clock: AtomicU64::new(0),
            ledger: ResidencyLedger::default(),
            hits: AtomicU64::new(0),
            rows_served: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            spaces: Mutex::new(Vec::new()),
        }
    }

    /// The space for `shape`, registering it on first use. A linear scan under one
    /// lock: shapes are as few as the distinct fetch steps of the session's plans,
    /// and each operator resolves its space once, off the per-probe path.
    pub(crate) fn space(&self, shape: CacheShape) -> Arc<CacheSpace> {
        let mut spaces = self.spaces.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(existing) = spaces.iter().find(|space| space.shape == shape) {
            return Arc::clone(existing);
        }
        let space = Arc::new(CacheSpace::new(shape));
        spaces.push(Arc::clone(&space));
        space
    }

    /// Probe `space` for `key`: a warm hit returns the cached batch (stamping its
    /// recency and counting the hit); a miss installs a session-wide fill claim; a
    /// probe racing an in-flight fill — possibly from another query — blocks until
    /// that fill resolves. An aborted fill hands the claim to a waiting prober.
    pub(crate) fn probe(&self, space: &CacheSpace, key: &HashedRow) -> SessionProbe {
        let stripe = space.stripe(key);
        let mut map = stripe
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            match map.entries.get_mut(key) {
                Some(SpaceEntry::Ready { batch, last_used }) => {
                    *last_used = self.clock.fetch_add(1, Ordering::Relaxed);
                    let batch = Arc::clone(batch);
                    drop(map);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.rows_served
                        .fetch_add(batch.len() as u64, Ordering::Relaxed);
                    return SessionProbe::Hit(batch);
                }
                Some(SpaceEntry::Filling) => {
                    map.waiters += 1;
                    map = stripe
                        .filled
                        .wait(map)
                        .unwrap_or_else(PoisonError::into_inner);
                    map.waiters -= 1;
                }
                None => {
                    map.entries.insert(key.clone(), SpaceEntry::Filling);
                    return SessionProbe::Fill;
                }
            }
        }
    }

    /// Non-claiming read: a warm hit like [`SessionFetchCache::probe`]'s, but a miss
    /// or an in-flight fill returns `None` immediately instead of claiming or
    /// waiting. A keyed lookup's first pass reads with it; every key it misses is
    /// then probed — and, if need be, claimed and filled — in the second (see the
    /// module docs).
    pub(crate) fn lookup(&self, space: &CacheSpace, key: &HashedRow) -> Option<Arc<Batch>> {
        let stripe = space.stripe(key);
        let mut map = stripe
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if let Some(SpaceEntry::Ready { batch, last_used }) = map.entries.get_mut(key) {
            *last_used = self.clock.fetch_add(1, Ordering::Relaxed);
            let batch = Arc::clone(batch);
            drop(map);
            self.hits.fetch_add(1, Ordering::Relaxed);
            self.rows_served
                .fetch_add(batch.len() as u64, Ordering::Relaxed);
            return Some(batch);
        }
        None
    }

    /// Whether a posting list of `rows` rows may be published: one longer than the
    /// whole budget never is.
    pub(crate) fn admits(&self, rows: usize) -> bool {
        rows as u64 <= self.budget_rows
    }

    /// Resolve a fill claim with its batch, wake the probes waiting on it, and
    /// evict down to the row budget if the new entry pushed the cache past it. A batch
    /// the cache does not [admit](SessionFetchCache::admits) withdraws the claim
    /// instead, as [`SessionFetchCache::abort`] does.
    pub(crate) fn complete(&self, space: &CacheSpace, key: &HashedRow, batch: Arc<Batch>) {
        if !self.admits(batch.len()) {
            return self.abort(space, key);
        }
        let rows = batch.len() as u64;
        let stripe = space.stripe(key);
        let mut map = stripe
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let entry = SpaceEntry::Ready {
            batch,
            last_used: self.clock.fetch_add(1, Ordering::Relaxed),
        };
        match map.entries.get_mut(key) {
            Some(slot) => *slot = entry,
            None => unreachable!("a fill claim stays installed until its filler resolves it"),
        }
        let wake = map.waiters > 0;
        drop(map);
        if wake {
            stripe.filled.notify_all();
        }
        self.ledger.acquire(rows);
        self.evict_to_budget();
    }

    /// Withdraw a fill claim after a failed fetch so waiting probes — from this
    /// query or any other — can retry or re-claim.
    pub(crate) fn abort(&self, space: &CacheSpace, key: &HashedRow) {
        let stripe = space.stripe(key);
        let mut map = stripe
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        map.entries.remove(key);
        let wake = map.waiters > 0;
        drop(map);
        if wake {
            stripe.filled.notify_all();
        }
    }

    /// Evict least-recently-used entries until the resident total fits the budget.
    /// Runs on the miss path only (after a completing fill), one stripe lock at a
    /// time; in-flight `Filling` claims are never evicted. An entry touched after
    /// the recency snapshot is skipped — its stamp no longer matches.
    fn evict_to_budget(&self) {
        if self.ledger.resident() <= self.budget_rows {
            return;
        }
        let spaces: Vec<Arc<CacheSpace>> = self
            .spaces
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        let mut candidates: Vec<(u64, usize, HashedRow, u64)> = Vec::new();
        for (si, space) in spaces.iter().enumerate() {
            for stripe in &space.stripes {
                let map = stripe
                    .entries
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                for (key, entry) in &map.entries {
                    if let SpaceEntry::Ready { batch, last_used } = entry {
                        candidates.push((*last_used, si, key.clone(), batch.len() as u64));
                    }
                }
            }
        }
        candidates.sort_unstable_by_key(|&(stamp, _, _, _)| stamp);
        for (stamp, si, key, rows) in candidates {
            if self.ledger.resident() <= self.budget_rows {
                break;
            }
            let stripe = spaces[si].stripe(&key);
            let mut map = stripe
                .entries
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            match map.entries.get(&key) {
                Some(SpaceEntry::Ready { last_used, .. }) if *last_used == stamp => {
                    map.entries.remove(&key);
                    drop(map);
                    self.ledger.release(rows);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
        }
    }

    /// Drop every entry and drain the cache's residency ledger to zero — the
    /// session calls this on teardown so the zero-residency assertion covers the
    /// cache tier too.
    pub(crate) fn drain(&self) {
        let spaces: Vec<Arc<CacheSpace>> = self
            .spaces
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone();
        for space in &spaces {
            for stripe in &space.stripes {
                let mut map = stripe
                    .entries
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                for (_, entry) in map.entries.drain() {
                    if let SpaceEntry::Ready { batch, .. } = entry {
                        self.ledger.release(batch.len() as u64);
                    }
                }
            }
        }
        debug_assert_eq!(
            self.ledger.resident(),
            0,
            "draining the cache returns its residency ledger to zero"
        );
    }

    pub(crate) fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            rows_served: self.rows_served.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_rows: self.ledger.resident(),
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
    fn fills_each_key_exactly_once_across_threads() {
        let cache = Arc::new(SessionFetchCache::new(1_000));
        let space = cache.space(shape(0));
        let fills = Arc::new(AtomicU64::new(0));
        let key = key_of(7);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let space = Arc::clone(&space);
                let fills = Arc::clone(&fills);
                let key = key.clone();
                scope.spawn(move || match cache.probe(&space, &key) {
                    SessionProbe::Hit(batch) => assert_eq!(batch.len(), 3),
                    SessionProbe::Fill => {
                        fills.fetch_add(1, Ordering::Relaxed);
                        cache.complete(&space, &key, batch_of(3));
                    }
                });
            }
        });
        assert_eq!(fills.load(Ordering::Relaxed), 1, "exactly one fill per key");
        let stats = cache.stats();
        assert_eq!(stats.resident_rows, 3);
        assert_eq!(stats.hits, 7, "every non-filling probe is a hit");
        assert_eq!(stats.rows_served, 21);
        assert_eq!(stats.evictions, 0);
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
        assert!(matches!(cache.probe(&a, &key), SessionProbe::Fill));
        cache.complete(&a, &key, batch_of(2));
        // Same constraint, different pre-projection — and a different constraint
        // entirely — both miss: entry content would differ.
        assert!(cache.lookup(&fused, &key).is_none());
        assert!(cache.lookup(&b, &key).is_none());
        assert_eq!(cache.lookup(&a, &key).unwrap().len(), 2);
        // Re-resolving an equal shape lands on the same space.
        let a_again = cache.space(shape(0));
        assert_eq!(cache.lookup(&a_again, &key).unwrap().len(), 2);
    }

    #[test]
    fn lookup_never_claims_or_waits() {
        let cache = SessionFetchCache::new(1_000);
        let space = cache.space(shape(0));
        let key = key_of(5);
        // Cold: no entry, no claim installed.
        assert!(cache.lookup(&space, &key).is_none());
        // A probe still gets the fill claim afterwards.
        assert!(matches!(cache.probe(&space, &key), SessionProbe::Fill));
        // In-flight fill: lookup returns None instead of blocking.
        assert!(cache.lookup(&space, &key).is_none());
        cache.complete(&space, &key, batch_of(1));
        assert_eq!(cache.lookup(&space, &key).unwrap().len(), 1);
    }

    #[test]
    fn eviction_is_lru_by_resident_rows() {
        let cache = SessionFetchCache::new(6);
        let space = cache.space(shape(0));
        for k in 0..3 {
            assert!(matches!(
                cache.probe(&space, &key_of(k)),
                SessionProbe::Fill
            ));
            cache.complete(&space, &key_of(k), batch_of(2));
        }
        assert_eq!(cache.stats().resident_rows, 6);
        // Touch key 0 so key 1 becomes the least recently used.
        assert!(cache.lookup(&space, &key_of(0)).is_some());
        // A fourth entry pushes past the budget: key 1 goes, the rest stay.
        assert!(matches!(
            cache.probe(&space, &key_of(3)),
            SessionProbe::Fill
        ));
        cache.complete(&space, &key_of(3), batch_of(2));
        let stats = cache.stats();
        assert_eq!(stats.resident_rows, 6, "evicted back down to the budget");
        assert_eq!(stats.evictions, 1);
        assert!(
            cache.lookup(&space, &key_of(1)).is_none(),
            "LRU entry evicted"
        );
        assert!(cache.lookup(&space, &key_of(0)).is_some());
        assert!(cache.lookup(&space, &key_of(2)).is_some());
        assert!(cache.lookup(&space, &key_of(3)).is_some());
        // A fill longer than the whole budget is not admitted: it evicts nothing, its
        // claim is withdrawn, and the residents stay.
        assert!(matches!(
            cache.probe(&space, &key_of(4)),
            SessionProbe::Fill
        ));
        cache.complete(&space, &key_of(4), batch_of(7));
        let stats = cache.stats();
        assert_eq!((stats.resident_rows, stats.evictions), (6, 1));
        for k in [0, 2, 3] {
            assert!(cache.lookup(&space, &key_of(k)).is_some(), "key {k} stays");
        }
        assert!(matches!(
            cache.probe(&space, &key_of(4)),
            SessionProbe::Fill
        ));
        cache.abort(&space, &key_of(4));
    }

    #[test]
    fn aborted_fills_hand_the_claim_to_the_next_prober() {
        let cache = SessionFetchCache::new(100);
        let space = cache.space(shape(0));
        let key = key_of(9);
        assert!(matches!(cache.probe(&space, &key), SessionProbe::Fill));
        cache.abort(&space, &key);
        assert!(matches!(cache.probe(&space, &key), SessionProbe::Fill));
        cache.complete(&space, &key, batch_of(1));
        assert!(matches!(cache.probe(&space, &key), SessionProbe::Hit(_)));
    }

    #[test]
    fn drain_returns_the_ledger_to_zero() {
        let cache = SessionFetchCache::new(100);
        let space = cache.space(shape(0));
        for k in 0..4 {
            assert!(matches!(
                cache.probe(&space, &key_of(k)),
                SessionProbe::Fill
            ));
            cache.complete(&space, &key_of(k), batch_of(3));
        }
        assert_eq!(cache.stats().resident_rows, 12);
        cache.drain();
        assert_eq!(cache.stats().resident_rows, 0);
        // Entries are gone: the next probe is a fresh fill claim.
        assert!(matches!(
            cache.probe(&space, &key_of(0)),
            SessionProbe::Fill
        ));
        cache.abort(&space, &key_of(0));
    }
}
