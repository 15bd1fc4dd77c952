//! Morsel-driven parallelism *inside* a pipeline: the pieces that let one
//! morsel-splittable pipeline run as several concurrent operator-chain instances.
//!
//! A splittable pipeline (see `bea_core::plan::Pipeline::morsel_source`) is a linear
//! chain of per-batch pure maps — keyed lookups, filters, projections — over exactly
//! one materialized source. The scheduler cuts the source's batch list into **morsels**:
//! groups of consecutive *whole* batches totalling at least the configured morsel size
//! ([`morsel_ranges`]). Batches are never cut, so every per-batch charge the chain makes
//! (including the keyed lookup's single-row anchor fast path) is identical under any
//! grouping, and concatenating the per-morsel outputs in morsel order reproduces the
//! unsplit pipeline's output batch for batch — rows, order, and every deterministic
//! counter included.
//!
//! Each morsel runs the chain with its thread's `ExecState` (stats and buffer pool
//! stay per-worker), replaying its batch range through a [`MorselScanOp`]. The only state
//! shared between morsels is the per-lookup-step [`SharedLookupCache`]: a key filled by
//! one morsel is a warm hit for every other, so the split fetches each distinct key
//! exactly once — the same data access as the unsplit pipeline, just spread over
//! workers. Cached rows stay resident until the split's last morsel lands; the
//! scheduler releases them at finalize.

use super::batch::{Batch, HashedRow, HashedRowMap};
use super::Operator;
use bea_core::error::Result;
use bea_core::plan::{PhysOp, PhysicalPlan};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

/// A keyed lookup's per-key result cache shared by every morsel of one split.
///
/// The fill protocol guarantees **exactly one fill per distinct key** without
/// serializing distinct keys: a probe that misses installs a `Filling` placeholder
/// under the map lock and fetches *outside* it; a concurrent probe of the same key
/// blocks on the condvar until the fill resolves, while probes of other keys proceed.
/// A fill is the filling operator's ordinary arena miss plus an uncharged compact
/// copy as the published entry, so the split's totals match the unsplit pipeline's.
///
/// The cache is **striped** by the hash its keys carry ([`HashedRow`]: one pass over
/// the key per probe serves the stripe choice and the map lookup). Every probe takes
/// a lock, so a single map mutex would put one contended cache line on the hot path of
/// every worker — the contention, not the critical section, is what would serialize
/// the morsels. With
/// independent stripes (own map, own condvar, own waiter count) concurrent probes of
/// different keys almost never collide, and a fill's completion wakes a stripe only
/// when someone is actually waiting on it.
///
/// The map key is a second handle to already-gathered (and already-charged) key
/// values — cloning a key bumps interned-payload refcounts, like the batch handles
/// cloned at exchange edges — so installing it copies no values and charges nothing.
pub(crate) struct SharedLookupCache {
    stripes: Vec<CacheStripe>,
    rows: AtomicU64,
}

/// One independently locked partition of the shared cache.
struct CacheStripe {
    entries: Mutex<StripeMap>,
    filled: Condvar,
}

#[derive(Default)]
struct StripeMap {
    entries: HashedRowMap<CacheEntry>,
    /// Probes currently blocked on this stripe's condvar; completions skip the wakeup
    /// when nobody is waiting (the common case — fills of distinct keys).
    waiters: usize,
}

enum CacheEntry {
    /// A fill is in flight; probes of this key wait on the condvar.
    Filling,
    Ready(Arc<Batch>),
}

/// Outcome of [`SharedLookupCache::probe`].
pub(crate) enum CacheProbe {
    Hit(Arc<Batch>),
    /// The caller is now the key's unique filler and must resolve the entry with
    /// [`SharedLookupCache::complete`] or [`SharedLookupCache::abort`].
    Fill,
}

/// Stripe count: enough that 4–16 workers probing distinct keys rarely collide on a
/// lock (at 64 stripes, four concurrent probers collide under ten percent of the
/// time), small enough that an idle cache stays in the low kilobytes.
const CACHE_STRIPES: usize = 64;

impl SharedLookupCache {
    pub(crate) fn new() -> Self {
        Self {
            stripes: (0..CACHE_STRIPES)
                .map(|_| CacheStripe {
                    entries: Mutex::new(StripeMap::default()),
                    filled: Condvar::new(),
                })
                .collect(),
            rows: AtomicU64::new(0),
        }
    }

    fn stripe(&self, key: &HashedRow) -> &CacheStripe {
        &self.stripes[key.stripe(CACHE_STRIPES)]
    }

    /// Probe for `key`: a warm hit returns the cached batch; a miss installs a fill
    /// claim and returns [`CacheProbe::Fill`]; a probe racing an in-flight fill of the
    /// same key blocks until that fill resolves.
    pub(crate) fn probe(&self, key: &HashedRow) -> CacheProbe {
        let stripe = self.stripe(key);
        let mut map = stripe
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        loop {
            match map.entries.get(key) {
                Some(CacheEntry::Ready(batch)) => return CacheProbe::Hit(Arc::clone(batch)),
                Some(CacheEntry::Filling) => {
                    map.waiters += 1;
                    map = stripe
                        .filled
                        .wait(map)
                        .unwrap_or_else(PoisonError::into_inner);
                    map.waiters -= 1;
                }
                None => {
                    map.entries.insert(key.clone(), CacheEntry::Filling);
                    return CacheProbe::Fill;
                }
            }
        }
    }

    /// Non-claiming read: a warm hit like [`SharedLookupCache::probe`]'s, but a miss or
    /// an in-flight fill returns `None` at once instead of claiming or waiting — the
    /// split's counterpart of `SessionFetchCache::lookup`, for a keyed lookup's first
    /// pass.
    pub(crate) fn lookup(&self, key: &HashedRow) -> Option<Arc<Batch>> {
        let stripe = self.stripe(key);
        let map = stripe
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match map.entries.get(key) {
            Some(CacheEntry::Ready(batch)) => Some(Arc::clone(batch)),
            Some(CacheEntry::Filling) | None => None,
        }
    }

    /// Resolve a fill claim with its batch and wake the probes waiting on it.
    pub(crate) fn complete(&self, key: &HashedRow, batch: Arc<Batch>) {
        self.rows.fetch_add(batch.len() as u64, Ordering::Relaxed);
        let stripe = self.stripe(key);
        let mut map = stripe
            .entries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        match map.entries.get_mut(key) {
            Some(entry) => *entry = CacheEntry::Ready(batch),
            None => unreachable!("a fill claim stays installed until its filler resolves it"),
        }
        let wake = map.waiters > 0;
        drop(map);
        if wake {
            stripe.filled.notify_all();
        }
    }

    /// Withdraw a fill claim whose filler failed or unwound, so waiting probes can
    /// retry (the run is failing anyway — the retry only keeps the protocol
    /// deadlock-free).
    pub(crate) fn abort(&self, key: &HashedRow) {
        let stripe = self.stripe(key);
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

    /// Total rows cached, released against the residency ledger when the split's last
    /// morsel finalizes (the fills acquired them).
    pub(crate) fn rows(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }
}

/// Everything `build_op` needs to instantiate a pipeline's operator chain for one
/// morsel instead of the whole pipeline.
pub(crate) struct MorselCtx {
    /// The materialized source step whose batches the morsel replays.
    pub(crate) source: usize,
    /// Snapshot of the source's batches, shared by all morsels of the split.
    pub(crate) batches: Arc<Vec<Batch>>,
    /// This morsel's `[start, end)` range into `batches`.
    pub(crate) range: (usize, usize),
    /// The split's shared per-lookup-step caches, keyed by lookup step id.
    pub(crate) caches: Arc<BTreeMap<usize, Arc<SharedLookupCache>>>,
    /// Whether this morsel reports the once-per-run counters (`fetch_ops`). Only the
    /// split's first morsel does — the split is one logical fetch operation.
    pub(crate) report: bool,
}

/// The morsel's source: replays one range of the split's shared batch snapshot.
/// Emits the *same* batches the unsplit pipeline's `ScanOp` would (an `Arc` bump per
/// column — no values copied, nothing charged), but leaves the source
/// materialization's consumer accounting to the scheduler, which retires the split's
/// claim exactly once when the last morsel lands.
pub(crate) struct MorselScanOp {
    batches: Arc<Vec<Batch>>,
    next: usize,
    end: usize,
}

impl MorselScanOp {
    pub(crate) fn new(batches: Arc<Vec<Batch>>, (start, end): (usize, usize)) -> Self {
        Self {
            batches,
            next: start,
            end,
        }
    }
}

impl Operator for MorselScanOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.next >= self.end {
            return Ok(None);
        }
        let batch = self.batches[self.next].clone();
        self.next += 1;
        Ok(Some(batch))
    }
}

/// Cut `batches` into morsels: disjoint ranges of consecutive **whole** batches, each
/// totalling at least `morsel_rows` logical rows (the tail range may be smaller).
/// Never cutting a batch is what keeps every per-batch counter charge — and the keyed
/// lookup's single-row anchor fast path — identical under any morsel size.
pub(crate) fn morsel_ranges(batches: &[Batch], morsel_rows: usize) -> Vec<(usize, usize)> {
    let mut ranges = Vec::new();
    let mut start = 0;
    let mut rows = 0usize;
    for (i, batch) in batches.iter().enumerate() {
        rows = rows.saturating_add(batch.len());
        if rows >= morsel_rows {
            ranges.push((start, i + 1));
            start = i + 1;
            rows = 0;
        }
    }
    if start < batches.len() {
        ranges.push((start, batches.len()));
    }
    ranges
}

/// The keyed-lookup steps of the streaming region rooted at `sink` (stopping at
/// materialized inputs — those are the region's sources). Each gets a
/// [`SharedLookupCache`] when the region is split into morsels.
pub(crate) fn lookup_steps_in_region(plan: &PhysicalPlan, sink: usize) -> Vec<usize> {
    let mut lookups = Vec::new();
    let mut stack = vec![sink];
    while let Some(j) = stack.pop() {
        let step = &plan.steps()[j];
        if j != sink && step.materialize {
            continue;
        }
        match &step.op {
            PhysOp::KeyedLookup { source, .. } => {
                lookups.push(j);
                stack.push(*source);
            }
            PhysOp::Filter { source, .. }
            | PhysOp::Project { source, .. }
            | PhysOp::Dedup { source } => stack.push(*source),
            PhysOp::HashJoin { left, right, .. }
            | PhysOp::Product { left, right }
            | PhysOp::Union { left, right }
            | PhysOp::Difference { left, right } => {
                stack.push(*left);
                stack.push(*right);
            }
            PhysOp::Const { .. } | PhysOp::Unit | PhysOp::Empty { .. } => {}
        }
    }
    lookups.sort_unstable();
    lookups
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_core::value::Value;

    impl SharedLookupCache {
        /// Probes blocked on the stripe of `key`, waiting for a fill to resolve.
        pub(crate) fn waiters(&self, key: &HashedRow) -> usize {
            let map = self.stripe(key).entries.lock();
            map.unwrap_or_else(PoisonError::into_inner).waiters
        }
    }

    fn batch_of(rows: usize) -> Batch {
        Batch::from_rows(1, (0..rows).map(|i| vec![Value::int(i as i64)]).collect())
    }

    #[test]
    fn morsel_ranges_group_whole_batches_to_the_target() {
        let batches: Vec<Batch> = [3, 3, 3, 3].into_iter().map(batch_of).collect();
        // Target below one batch: one morsel per batch — batches are never cut.
        assert_eq!(
            morsel_ranges(&batches, 1),
            vec![(0, 1), (1, 2), (2, 3), (3, 4)]
        );
        // Target spanning two batches, with a short tail morsel.
        assert_eq!(morsel_ranges(&batches, 5), vec![(0, 2), (2, 4)]);
        assert_eq!(morsel_ranges(&batches, 7), vec![(0, 3), (3, 4)]);
        // Target at or above the total: one morsel — the split is declined upstream.
        assert_eq!(morsel_ranges(&batches, 12), vec![(0, 4)]);
        assert_eq!(morsel_ranges(&batches, usize::MAX), vec![(0, 4)]);
        assert_eq!(morsel_ranges(&[], 1), Vec::<(usize, usize)>::new());
    }

    #[test]
    fn shared_cache_fills_each_key_exactly_once_across_threads() {
        let cache = Arc::new(SharedLookupCache::new());
        let fills = Arc::new(AtomicU64::new(0));
        let key = HashedRow::new(vec![Value::int(7)]);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                let fills = Arc::clone(&fills);
                let key = key.clone();
                scope.spawn(move || match cache.probe(&key) {
                    CacheProbe::Hit(batch) => assert_eq!(batch.len(), 2),
                    CacheProbe::Fill => {
                        fills.fetch_add(1, Ordering::Relaxed);
                        cache.complete(&key, Arc::new(batch_of(2)));
                    }
                });
            }
        });
        assert_eq!(fills.load(Ordering::Relaxed), 1, "exactly one fill per key");
        assert_eq!(cache.rows(), 2);
        assert!(matches!(cache.probe(&key), CacheProbe::Hit(_)));
    }

    #[test]
    fn lookup_never_claims_or_waits() {
        let cache = SharedLookupCache::new();
        let key = HashedRow::new(vec![Value::int(4)]);
        // Cold: nothing, and no claim installed — a probe still gets the fill claim.
        assert!(cache.lookup(&key).is_none());
        assert!(matches!(cache.probe(&key), CacheProbe::Fill));
        // In flight: `None` at once instead of blocking on the filler.
        assert!(cache.lookup(&key).is_none());
        cache.complete(&key, Arc::new(batch_of(2)));
        assert_eq!(cache.lookup(&key).unwrap().len(), 2);
    }

    #[test]
    fn aborted_fills_hand_the_claim_to_the_next_prober() {
        let cache = SharedLookupCache::new();
        let key = HashedRow::new(vec![Value::int(1)]);
        assert!(matches!(cache.probe(&key), CacheProbe::Fill));
        cache.abort(&key);
        // The claim is free again: a later probe may retry the fill.
        assert!(matches!(cache.probe(&key), CacheProbe::Fill));
        cache.complete(&key, Arc::new(batch_of(1)));
        assert_eq!(cache.rows(), 1);
    }
}
