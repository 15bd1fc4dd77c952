//! Index-backed operators: the streaming fetch and the fused keyed-lookup join.
//!
//! Both operators reach the index through one call, the store's batched
//! [`Store::resolve`], which walks many keys at once with their cache misses
//! overlapped. Each key's tuples are then projected straight from the relation into
//! the columns under construction — a fetch's output batch, a keyed lookup's arena —
//! without an intermediate row allocation per tuple. Per-key duplicate elimination
//! runs *hash-then-compare* over the freshly appended column range (see
//! [`super::batch::hash_row_at`]) and compacts duplicates away in place — no value is
//! cloned to decide freshness, and a key that matched at most one tuple is not hashed
//! at all.
//!
//! # Two passes per source batch
//!
//! 1. **Stage.** [`KeyedLookupOp`] gathers and hashes each owned row's key once and
//!    looks it up, without claiming or waiting, in every tier that may hold it, in
//!    protocol order: the session cache (a hit is stamped and counted like a probe's),
//!    then the split's shared cache on a morsel, else the arena's memo. It keeps every
//!    hit and sends the keys nothing holds to one `resolve`.
//! 2. **Settle.** In row order, a pass-1 hit is emitted from what it returned; any
//!    other row runs the per-row protocol — session probe or claim, split probe or
//!    claim, memo, miss — and a miss appends the postings pass 1 resolved.
//!
//! Hits come first so that a key an outer tier serves never costs a walk. Claims wait
//! for pass 2 because a claim obliges its holder to fill: holding one while probing,
//! let alone waiting on, another key could leave two queries (or morsels) each waiting
//! for the other's fill, so each claim is taken and resolved within its own row. Rows,
//! their order, the arena's layout and every counter are a per-row loop's, except under
//! eviction pressure: a pass-1 hit serves its row even if a fill earlier in the batch
//! evicted the entry since (see [`crate::cache`]). A missed key is hashed once, when
//! gathered. [`FetchOp`] resolves its key set the same way, [`BATCH_SIZE`] keys at a
//! time: session-cache hits first, one `resolve` for the rest.
//!
//! # The probe path's allocation budget
//!
//! What the probe path demands per key is counted in
//! [`crate::stats::AccessStats::allocs_per_probe`], whose doc is the charging rule:
//! one owned key row per source row a [`FetchOp`] gathers into its key set — and
//! nothing for a keyed lookup, hit or miss. Every probe gathers its key into one
//! reusable scratch and hashes it once; a **miss** moves the scratch's values into the
//! arena's flat key columns and appends the postings to its value columns (both drawn
//! from the worker's [`super::BufferPool`] once per operator instance, like the flat
//! buffer pass 1 moves missed keys into), so no buffer is demanded per key. A repeat
//! of a fetched key is a slot walk plus emission from the arena range; a hit in an outer tier (session cache, split cache) is a refcount
//! bump. Resolving an outer tier's *fill claim* is the same miss, then an uncharged
//! compact copy of the key's range published as the tier's entry (with an owned copy
//! of the key — cache maintenance, like the tier's own map key).
//! `tests/alloc_budget.rs` holds the model to the allocator: a cold Q0 stays under a
//! fixed number of heap allocations, whatever it fetches.
//!
//! # Access accounting
//!
//! Neither operator touches the shared [`crate::stats::AccessStats`] per key: the
//! relation is fixed per operator, so lookups, fetched tuples (per shard), clones and
//! cache hits accumulate in an operator-local [`ProbeTally`], flushed once per pull
//! and on drop — an error or a short-circuiting consumer loses nothing.
//!
//! # Shard routing
//!
//! A per-shard branch of a sharded lowering carries a
//! [`bea_core::plan::ShardRoute`]: the operator then processes exactly the probe keys
//! the routing hash ([`bea_storage::shard_of`]) assigns to its shard, and skips the
//! rest. Ownership is decided by hashing the key columns *in place* — a skipped row
//! clones nothing — so across all branches every key is gathered exactly once and the
//! copy traffic (`values_cloned`) is invariant under the shard count. The `K` branches
//! of one sharded fetch are one logical fetch operation: only the shard-0 branch
//! reports `fetch_ops`, keeping every counter of
//! [`crate::stats::AccessStats::same_data_access`] shard-count-invariant. Batches a
//! branch emits are tagged with their origin shard ([`Batch::origin_shard`]).

use super::batch::{hash_row_at, passes_with, rows_equal_at, Batch, HashedRow, RowTable};
use super::morsel::{CacheProbe, SharedLookupCache};
use super::{BoxOp, Operator, SharedState, BATCH_SIZE};
use crate::cache::{CacheShape, CacheSpace, SessionFetchCache, SessionProbe};
use crate::stats::AccessStats;
use bea_core::error::Result;
use bea_core::plan::{Predicate, ShardRoute};
use bea_core::value::{Row, Value};
use bea_storage::{shard_of, FetchIter, Probes, Store};
use std::collections::{BTreeSet, VecDeque};
use std::sync::Arc;

/// A handle to the session's cross-query fetch cache, resolved to the operator's
/// [`CacheShape`] space once, off the per-probe path. `None` outside sessions (and
/// in cache-disabled sessions), where only the per-query tiers run.
type SessionCache = Option<(Arc<SessionFetchCache>, Arc<CacheSpace>)>;

/// RAII resolution of a fill claim, the session's or the split's: `resolve` publishes
/// the batch when one was produced and withdraws the claim otherwise — on error *or*
/// unwind — so probes waiting elsewhere are never stranded by this one's failure.
struct Claim<F: FnMut(Option<Arc<Batch>>)> {
    resolve: F,
    publish: Option<Arc<Batch>>,
}

impl<F: FnMut(Option<Arc<Batch>>)> Drop for Claim<F> {
    fn drop(&mut self) {
        (self.resolve)(self.publish.take());
    }
}

/// What pass 1 found for one key (see the module docs): `Held` by a tier — an outer
/// tier's batch, or for a keyed lookup its arena's range — or `Missed`, its postings
/// being probe `p` of the pass's `resolve`.
enum Found<H> {
    Held(H),
    Missed(usize),
}

/// The flat probe buffers of pass 1: the keys nothing held (moved in, `arity` values
/// each), their carried hashes, and what `resolve` returned for each.
struct Pass<'db> {
    arity: usize,
    keys: Vec<Value>,
    hashes: Vec<u64>,
    resolved: Vec<(FetchIter<'db>, u32)>,
}

impl<'db> Pass<'db> {
    /// Buffers for keys of `arity` values, the flat one drawn from `state`'s pool.
    fn new(arity: usize, state: &SharedState) -> Self {
        let keys = state.borrow_mut().pool.get_values();
        let (hashes, resolved) = (Vec::new(), Vec::new());
        Self {
            arity,
            keys,
            hashes,
            resolved,
        }
    }

    /// Start a pass of up to `keys` probes: forget the last one, and grow once instead
    /// of per key.
    fn begin(&mut self, keys: usize) {
        self.keys.clear();
        self.keys.reserve(keys * self.arity);
        self.hashes.clear();
        self.hashes.reserve(keys);
    }

    /// Queue `key` (moved out) for the resolve; its probe number.
    fn miss(&mut self, key: &mut HashedRow) -> usize {
        self.hashes.push(key.move_into(&mut self.keys));
        self.hashes.len() - 1
    }

    /// Move probe `p`'s key back into `key`, for the per-row protocol of pass 2.
    fn take_key(&mut self, p: usize, key: &mut HashedRow) {
        let values = self.keys[p * self.arity..(p + 1) * self.arity].iter_mut();
        let taken = values.map(|value| std::mem::replace(value, Value::Bool(false)));
        key.refill(self.hashes[p], taken);
    }

    /// Resolve every queued key of `constraint` in one batched walk (nothing to do when
    /// every key was held — and then no fetch error either, as in a per-key loop).
    fn resolve(&mut self, store: Store<'db>, constraint: usize) -> Result<()> {
        if self.hashes.is_empty() {
            return Ok(());
        }
        let (arity, keys, hashes) = (self.arity, &self.keys, &self.hashes);
        store.resolve(
            constraint,
            Probes {
                arity,
                keys,
                hashes,
            },
            &mut self.resolved,
        )
    }
}

/// Append a session-cached posting batch to a fetch's shared gather — the cache-hit
/// analogue of [`fetch_key_into`]. The cached batch is already per-key deduplicated,
/// so every logical row is appended, in the exact order the store fetch would have
/// produced it. (A zero-column batch holds at most the one empty row.)
fn append_cached_postings(batch: &Batch, cols: &mut [Vec<Value>], rows: &mut usize) {
    for j in 0..batch.len() {
        batch.append_row_to(j, cols);
    }
    *rows += batch.len();
}

/// What an operator's probes have cost since its last flush; see the module docs.
#[derive(Debug, Default)]
struct ProbeTally {
    index_lookups: u64,
    values_cloned: u64,
    cache_hits: u64,
    rows_served_from_cache: u64,
    /// Tuples fetched from each index-partition shard a probe reached — `Some(0)`
    /// when its keys matched nothing, since a probed shard is reported either way.
    fetched_by_shard: Vec<Option<u64>>,
}

impl ProbeTally {
    /// A store fetch returned `tuples` tuples of `shard`, projected onto `positions`
    /// columns each.
    fn fetched(&mut self, shard: u32, tuples: u64, positions: usize) {
        self.values_cloned += tuples * positions as u64;
        let shard = shard as usize;
        if self.fetched_by_shard.len() <= shard {
            self.fetched_by_shard.resize(shard + 1, None);
        }
        *self.fetched_by_shard[shard].get_or_insert(0) += tuples;
    }

    /// The session cache served `rows` rows for one key.
    fn served(&mut self, rows: usize) {
        self.cache_hits += 1;
        self.rows_served_from_cache += rows as u64;
    }

    /// Move everything tallied into `stats`, attributing the fetches to `relation`.
    fn flush(&mut self, relation: &str, stats: &mut AccessStats) {
        stats.index_lookups += std::mem::take(&mut self.index_lookups);
        stats.values_cloned += std::mem::take(&mut self.values_cloned);
        stats.cache_hits += std::mem::take(&mut self.cache_hits);
        stats.rows_served_from_cache += std::mem::take(&mut self.rows_served_from_cache);
        for (shard, fetched) in (0..).zip(&mut self.fetched_by_shard) {
            if let Some(tuples) = fetched.take() {
                stats.record_fetched_sharded(relation, shard, tuples);
            }
        }
    }
}

/// Does this operator's shard branch own `batch`'s row `i`? Routing hashes the key
/// columns in place — deciding ownership never clones a value. Route-free operators
/// own every row.
fn owns_row(batch: &Batch, i: usize, key_cols: &[usize], route: Option<ShardRoute>) -> bool {
    match route {
        None => true,
        Some(r) => shard_of(key_cols.iter().map(|&c| batch.value(i, c)), r.of) == r.shard,
    }
}

/// Reusable open-addressing set of physical row positions — the per-key dedup table
/// of [`fetch_key_into`]. One slot vector, re-sized and blanked per key, so deciding
/// freshness never allocates once the table has grown to the largest posting list.
#[derive(Debug, Default)]
struct RowSet {
    slots: Vec<u32>,
}

impl RowSet {
    const EMPTY: u32 = u32::MAX;

    /// Blank the table for a key that appended `rows` tuples (load factor ≤ ½).
    fn reset(&mut self, rows: usize) {
        self.slots.clear();
        self.slots
            .resize((rows * 2).next_power_of_two(), Self::EMPTY);
    }

    /// Is row `idx` of `cols` new to the set? A fresh row is recorded at position
    /// `at` — where the caller is about to compact it to.
    fn insert(&mut self, cols: &[Vec<Value>], idx: usize, at: usize) -> bool {
        let mask = self.slots.len() - 1;
        let mut slot = hash_row_at(cols, idx) as usize & mask;
        loop {
            match self.slots[slot] {
                Self::EMPTY => {
                    self.slots[slot] = at as u32;
                    return true;
                }
                kept if rows_equal_at(cols, kept as usize, idx) => return false,
                _ => slot = (slot + 1) & mask,
            }
        }
    }
}

/// Append the distinct `positions`-projections of one key's resolved `tuples` to
/// `cols`, in posting order — the shared fetch kernel of [`FetchOp`] and
/// [`KeyedLookupOp`]. `rows` is the dense length of `cols` (tracked by the caller so
/// zero-column gathers keep a row count) and advances by the fresh rows; duplicates
/// are compacted away in place. Returns the number of tuples read (for access
/// accounting). Distinct keys cannot produce equal projections as long as the key
/// attributes survive in `positions` (lowering adds a global dedup when a pushed-down
/// projection dropped them), so per-key dedup suffices.
fn fetch_key_into(
    tuples: FetchIter<'_>,
    positions: &[usize],
    cols: &mut [Vec<Value>],
    rows: &mut usize,
    dedup: &mut RowSet,
) -> u64 {
    let appended = tuples.project_into(positions, cols);
    let appended_rows = appended as usize;
    if cols.is_empty() || appended_rows <= 1 {
        // Nothing to deduplicate, nothing hashed: at most one tuple (every probe of
        // a bound-1 constraint) — or a zero-column projection, where every matched
        // tuple projects to the empty row and a nonempty posting list contributes one.
        *rows += appended_rows.min(1);
        return appended;
    }
    dedup.reset(appended_rows);
    let base = *rows;
    for idx in base..base + appended_rows {
        if dedup.insert(cols, idx, *rows) {
            if *rows != idx {
                cols.iter_mut().for_each(|col| col.swap(*rows, idx));
            }
            *rows += 1;
        }
    }
    cols.iter_mut().for_each(|col| col.truncate(*rows));
    appended
}

/// Streaming `fetch(X ∈ source, R, …)`: drain the source, deduplicate the key
/// projections, then emit the `positions`-projection of every tuple each key matches,
/// key by key, straight off the index postings into output columns. Keys are
/// resolved [`BATCH_SIZE`] at a time (see the module docs).
///
/// Only the key set is durable state (released on exhaustion, or on drop if a consumer
/// short-circuits); fetched tuples flow through without ever being collected per fetch.
pub(crate) struct FetchOp<'db> {
    input: Option<BoxOp<'db>>,
    key_cols: Vec<usize>,
    relation: String,
    positions: Vec<usize>,
    constraint_index: usize,
    route: Option<ShardRoute>,
    store: Store<'db>,
    state: SharedState,
    /// The session's cross-query cache, probed per key before the index partition.
    /// The streaming fetch is a *consumer only* — it gathers many keys into one
    /// shared buffer and cannot produce the standalone per-key batch a fill claim
    /// would owe, so misses fetch from the store exactly as without a cache.
    session: SessionCache,
    keys: std::collections::btree_set::IntoIter<Row>,
    num_keys: u64,
    /// The chunk of up to [`BATCH_SIZE`] keys being emitted: what its pass 1 found per
    /// key, in key order, and how many of them are emitted already.
    chunk: Vec<Found<Arc<Batch>>>,
    emitted: usize,
    pass: Pass<'db>,
    /// Per-key dedup scratch, reused across batches (blanked per key by the kernel).
    dedup: RowSet,
    tally: ProbeTally,
    /// Chunks of an oversized gather round not yet emitted. A single key can match far
    /// more than `BATCH_SIZE` tuples; the round is then emitted as several batches
    /// sharing the one dense gather (selection ranges only — zero value copies), so
    /// downstream consumers that reason in batches (morsel splitting above all) see
    /// cuttable boundaries instead of one monolithic batch.
    pending: VecDeque<Batch>,
    done: bool,
}

impl<'db> FetchOp<'db> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        input: BoxOp<'db>,
        key_cols: Vec<usize>,
        relation: String,
        positions: Vec<usize>,
        constraint_index: usize,
        route: Option<ShardRoute>,
        store: Store<'db>,
        state: SharedState,
    ) -> Self {
        let session = state.borrow().cache.clone().map(|cache| {
            let space = cache.space(CacheShape {
                constraint: constraint_index,
                positions: positions.clone(),
                emit: None,
            });
            (cache, space)
        });
        let pass = Pass::new(key_cols.len(), &state);
        Self {
            input: Some(input),
            key_cols,
            relation,
            positions,
            constraint_index,
            route,
            store,
            state,
            session,
            keys: BTreeSet::new().into_iter(),
            num_keys: 0,
            chunk: Vec::new(),
            emitted: 0,
            pass,
            dedup: RowSet::default(),
            tally: ProbeTally::default(),
            pending: VecDeque::new(),
            done: false,
        }
    }

    /// Pass 1 over the next chunk of keys: take session-cache hits, resolve the rest.
    /// Leaves the chunk empty once the key set is.
    fn stage(&mut self) -> Result<()> {
        self.chunk.clear();
        self.emitted = 0;
        self.pass.begin(BATCH_SIZE.min(self.keys.len()));
        for key in self.keys.by_ref().take(BATCH_SIZE) {
            let mut key = HashedRow::new(key);
            let hit = (self.session.as_ref()).and_then(|(cache, space)| cache.lookup(space, &key));
            self.chunk.push(match hit {
                Some(batch) => Found::Held(batch),
                None => Found::Missed(self.pass.miss(&mut key)),
            });
        }
        self.pass.resolve(self.store, self.constraint_index)
    }
}

impl Operator for FetchOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        #[cfg(test)]
        if self.relation == super::PANIC_RELATION {
            panic!("injected operator panic");
        }
        if let Some(mut input) = self.input.take() {
            // Distinct keys only: fetching the same key twice reads the same data.
            let mut keys: BTreeSet<Row> = BTreeSet::new();
            let mut key_values = 0u64;
            let mut key_allocs = 0u64;
            while let Some(batch) = input.next_batch()? {
                // Every candidate key projection this branch owns is physically
                // gathered (the set discards duplicates after the fact), so every one
                // counts — as a clone per key column and as one key-row allocation.
                // Rows routed to other shards are skipped by an in-place hash
                // — no clone — so the branches together gather each row exactly once.
                for i in 0..batch.len() {
                    if !owns_row(&batch, i, &self.key_cols, self.route) {
                        continue;
                    }
                    key_values += self.key_cols.len() as u64;
                    key_allocs += 1;
                    keys.insert(batch.gather(i, &self.key_cols));
                }
            }
            self.num_keys = keys.len() as u64;
            let mut state = self.state.borrow_mut();
            state.stats.values_cloned += key_values;
            state.stats.allocs_per_probe += key_allocs;
            state.acquire(self.num_keys);
            self.keys = keys.into_iter();
        }
        if let Some(chunk) = self.pending.pop_front() {
            return Ok(Some(chunk));
        }
        if self.done {
            return Ok(None);
        }
        let mut cols: Vec<Vec<Value>> = {
            let mut state = self.state.borrow_mut();
            (0..self.positions.len())
                .map(|_| state.pool.get_values())
                .collect()
        };
        let mut rows = 0usize;
        while rows < BATCH_SIZE {
            if self.emitted == self.chunk.len() {
                self.stage()?;
            }
            let Some(found) = self.chunk.get(self.emitted) else {
                self.done = true;
                let mut state = self.state.borrow_mut();
                // The K branches of one sharded fetch are one logical fetch
                // operation; the shard-0 branch reports it for all of them.
                if self.route.is_none_or(|r| r.shard == 0) {
                    state.stats.fetch_ops += 1;
                }
                state.release(self.num_keys);
                self.num_keys = 0;
                state.pool.put_values(std::mem::take(&mut self.pass.keys));
                break;
            };
            self.emitted += 1;
            match found {
                Found::Held(batch) => {
                    // Hot-tier hit: the postings are served by appending the cached
                    // batch — physical clones (counted) but no index lookup and no
                    // store fetch, so none of the fetch-side counters move.
                    append_cached_postings(batch, &mut cols, &mut rows);
                    self.tally.served(batch.len());
                    self.tally.values_cloned += (batch.len() * self.positions.len()) as u64;
                }
                &Found::Missed(p) => {
                    self.tally.index_lookups += 1;
                    let (tuples, shard) = self.pass.resolved[p].clone();
                    let fetched = fetch_key_into(
                        tuples,
                        &self.positions,
                        &mut cols,
                        &mut rows,
                        &mut self.dedup,
                    );
                    self.tally.fetched(shard, fetched, self.positions.len());
                }
            }
        }
        self.tally
            .flush(&self.relation, &mut self.state.borrow_mut().stats);
        if rows == 0 && self.done {
            // Nothing was emitted: the pooled buffers go straight back.
            let mut state = self.state.borrow_mut();
            for col in cols {
                state.pool.put_values(col);
            }
            return Ok(None);
        }
        let batch = Batch::from_dense(cols, rows).with_origin_shard(self.route.map(|r| r.shard));
        if rows <= BATCH_SIZE {
            return Ok(Some(batch));
        }
        // Oversized round (one key matched more than a batch's worth): emit it as
        // `BATCH_SIZE`-row slices of the shared gather, in order. Identical rows,
        // identical counters — only the batch boundaries move.
        self.pending
            .extend((0..rows).step_by(BATCH_SIZE).map(|start| {
                let end = rows.min(start + BATCH_SIZE) as u32;
                batch.clone().keep_physical((start as u32..end).collect())
            }));
        Ok(self.pending.pop_front())
    }
}

impl Drop for FetchOp<'_> {
    fn drop(&mut self) {
        // Dropped mid-stream (short-circuiting consumer or error): the key set is
        // still durable — release it so residency returns to zero.
        let mut state = self.state.borrow_mut();
        state.release(std::mem::take(&mut self.num_keys));
        // What a failed pull had tallied before its error.
        self.tally.flush(&self.relation, &mut state.stats);
    }
}

/// Rows `start..start + len` of one segment of a [`PostingArena`]: where a key's
/// projected, deduplicated postings live.
#[derive(Debug, Clone, Copy)]
struct ArenaRange {
    segment: usize,
    start: usize,
    len: usize,
}

/// The keyed lookup's per-query tier: every key the operator fetched, appended by the
/// shared kernel into one set of growing value columns, plus the memo that serves
/// repeats — the fetched keys in a [`RowTable`], and each key's range at its position.
///
/// The columns are normally one *open* segment. An anchor emission (see
/// [`KeyedLookupOp`]) needs its postings as a shareable [`Batch`], so it *seals* the
/// open segment — moves the columns into a batch, zero value copies — and later
/// misses start a fresh one. Segment `k` is sealed iff `k < sealed.len()`; the open
/// segment is the next index, so sealing never rewrites a range.
#[derive(Debug)]
struct PostingArena {
    sealed: Vec<Batch>,
    cols: Vec<Vec<Value>>,
    /// Dense length of the open segment — a zero-column arena has no column to ask.
    rows: usize,
    keys: RowTable,
    /// `ranges[p]` is where the postings of the key at position `p` of `keys` live.
    ranges: Vec<ArenaRange>,
    dedup: RowSet,
}

impl PostingArena {
    /// The range memoized for `key`, if this operator fetched it before.
    fn range_of(&self, key: &HashedRow) -> Option<ArenaRange> {
        let position = self.keys.find_key(key)?;
        Some(self.ranges[position as usize])
    }

    /// Memoize `range` for `key`, which [`PostingArena::range_of`] just missed; the
    /// key's values move into the key columns.
    fn remember(&mut self, key: &mut HashedRow, range: ArenaRange) -> Result<()> {
        self.keys.push_key(key)?;
        self.ranges.push(range);
        Ok(())
    }

    /// The value at row `j`, fetched position `c` of `range`.
    fn value(&self, range: ArenaRange, j: usize, c: usize) -> &Value {
        match self.sealed.get(range.segment) {
            Some(batch) => batch.value(range.start + j, c),
            None => &self.cols[c][range.start + j],
        }
    }

    /// A compact standalone copy of `range`, projected onto `emit` when the operator
    /// stores outer-tier entries pre-projected — what a fill claim publishes. Cache
    /// maintenance, off the cache-off path, so its clones are not `values_cloned`.
    fn copy_out(&self, range: ArenaRange, emit: Option<&[usize]>) -> Batch {
        let column = |c: usize| -> Vec<Value> {
            (0..range.len)
                .map(|j| self.value(range, j, c).clone())
                .collect()
        };
        let columns = match emit {
            Some(mapped) => mapped.iter().map(|&c| column(c)).collect(),
            None => (0..self.cols.len()).map(column).collect(),
        };
        Batch::from_dense(columns, range.len)
    }

    /// Drop the open segment's rows from `rows` on.
    fn truncate(&mut self, rows: usize) {
        self.cols.iter_mut().for_each(|col| col.truncate(rows));
        self.rows = rows;
    }

    /// `range` as a shareable batch over the arena's own storage, zero value copies:
    /// seals the open segment if the range lives there, then restricts it to `range`.
    fn seal(&mut self, range: ArenaRange) -> Batch {
        if range.segment == self.sealed.len() {
            let cols = self.cols.iter_mut().map(std::mem::take).collect();
            self.sealed.push(Batch::from_dense(cols, self.rows));
            self.rows = 0;
        }
        let segment = &self.sealed[range.segment];
        if range.len == segment.len() {
            return segment.clone();
        }
        let rows = range.start..range.start + range.len;
        segment.retain(|i| rows.contains(&i))
    }
}

/// One probe's postings, wherever they live.
enum Postings {
    /// Fetched by this operator: a range of its arena.
    Arena(ArenaRange),
    /// Served — or just published — by an outer tier, in that tier's entry shape
    /// (pre-projected when [`KeyedLookupOp::fused_emit`] is set).
    Cached(Arc<Batch>),
}

/// The fused `σ[key equalities](source × fetch(X ∈ source, R, …))`: an index
/// nested-loop join. Streams the source; for each row, probes the index with the row's
/// key (once per distinct key — results are retained so the data access is identical
/// to a standalone fetch over the deduplicated key set), gathers the concatenation
/// with every match into output columns, and applies the residual predicates. A
/// source batch's keys are staged and resolved together, then settled row by row
/// (the two passes of the module docs).
///
/// Durable state is the [`PostingArena`], bounded by the fetch's access-schema bound
/// times the number of distinct keys; its columns come from the worker's pool and go
/// back on exhaustion, its rows are released then (or on drop if a consumer
/// short-circuits). Neither the cross product nor the fetched table is ever
/// materialized.
///
/// Two outer tiers may sit in front, both trading in `Arc<Batch>`: the session's
/// cross-query cache, probed first, and — on a morsel of a split pipeline
/// ([`KeyedLookupOp::for_morsel`]) — the split's [`SharedLookupCache`], which
/// replaces the arena's memo so that the split fetches each distinct key exactly once.
/// A hit there is emitted from the cached batch; a fill claim is resolved by the
/// same arena miss ([`KeyedLookupOp::fetch`]) followed by publishing a compact copy
/// of the key's range. In morsel mode the arena only stages that copy, and the
/// published rows are released by the scheduler when the split's last morsel
/// finalizes instead of at operator exhaustion.
pub(crate) struct KeyedLookupOp<'db> {
    input: BoxOp<'db>,
    key_cols: Vec<usize>,
    relation: String,
    positions: Vec<usize>,
    constraint_index: usize,
    residual: Vec<Predicate>,
    /// Which columns of the *combined* row (source columns, then fetched positions) to
    /// emit. `None` emits all of them; `Some` is a projection fused in — either by the
    /// operator-tree builder from a directly consuming `Project` step, or by the
    /// sharded lowering's fan-out (`PhysOp::KeyedLookup::emit`) — so values a
    /// downstream projection would discard are never gathered in the first place.
    out_cols: Option<Vec<usize>>,
    /// `Some` on a per-shard branch: only source rows whose key routes to this shard
    /// are probed; the rest are skipped without cloning anything.
    route: Option<ShardRoute>,
    store: Store<'db>,
    state: SharedState,
    arena: PostingArena,
    /// Arena rows this operator holds on the residency ledger (none in morsel mode,
    /// where the split's shared cache owns the published rows).
    cached_rows: u64,
    /// The split's shared cache when this instance serves one morsel of a split
    /// pipeline; `None` runs the arena's own memo.
    shared: Option<Arc<SharedLookupCache>>,
    /// The session's cross-query cache, probed before both per-query tiers. Resolved
    /// together with [`KeyedLookupOp::fused_emit`] — the fused pre-projection is part
    /// of the entry shape — by [`KeyedLookupOp::ensure_fused_emit`].
    session: SessionCache,
    /// Whether this instance reports the once-per-pipeline `fetch_ops` on
    /// exhaustion. Only a split's first morsel does — the split is one logical fetch
    /// operation, composing with the shard-0 convention for sharded branches.
    report_fetch_ops: bool,
    /// Reusable probe-key buffer: pass 1 gathers every key into it and hashes it once,
    /// moving a key nothing held on into `pass`; pass 2 moves it back, and a miss
    /// *moves* its values into the arena's key columns, keeping the buffer.
    key_scratch: HashedRow,
    /// Pass 1's verdict on each owned row of the current source batch, with the row.
    found: Vec<(usize, Found<Postings>)>,
    pass: Pass<'db>,
    tally: ProbeTally,
    /// `Some(mapped)` when the emission is exactly a projection of the fetched
    /// columns: no residual predicates and a fused projection keeping only fetched
    /// columns, `mapped` being those columns rebased to the fetch result. Outer-tier
    /// entries are then stored pre-projected. Decided once — input arity is fixed by
    /// the plan — by [`KeyedLookupOp::ensure_fused_emit`].
    fused_emit: Option<Vec<usize>>,
    fused_checked: bool,
    done: bool,
}

impl<'db> KeyedLookupOp<'db> {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        input: BoxOp<'db>,
        key_cols: Vec<usize>,
        relation: String,
        positions: Vec<usize>,
        constraint_index: usize,
        residual: Vec<Predicate>,
        out_cols: Option<Vec<usize>>,
        route: Option<ShardRoute>,
        store: Store<'db>,
        state: SharedState,
    ) -> Self {
        let (cols, keys) = {
            let mut state = state.borrow_mut();
            let cols = (0..positions.len()).map(|_| state.pool.get_values());
            let cols: Vec<_> = cols.collect();
            let keys = (0..key_cols.len()).map(|_| state.pool.get_values());
            (cols, RowTable::new("a keyed lookup", keys.collect()))
        };
        let pass = Pass::new(key_cols.len(), &state);
        Self {
            input,
            key_cols,
            relation,
            positions,
            constraint_index,
            residual,
            out_cols,
            route,
            store,
            state,
            arena: PostingArena {
                sealed: Vec::new(),
                cols,
                rows: 0,
                keys,
                ranges: Vec::new(),
                dedup: RowSet::default(),
            },
            cached_rows: 0,
            shared: None,
            session: None,
            report_fetch_ops: true,
            key_scratch: HashedRow::default(),
            found: Vec::new(),
            pass,
            tally: ProbeTally::default(),
            fused_emit: None,
            fused_checked: false,
            done: false,
        }
    }

    /// Configure this instance to serve one morsel of a split pipeline: probe the
    /// split's shared cache (when the builder registered one for this step), and
    /// report once-per-pipeline counters only on the first morsel.
    pub(crate) fn for_morsel(
        mut self,
        shared: Option<Arc<SharedLookupCache>>,
        report_fetch_ops: bool,
    ) -> Self {
        self.shared = shared;
        self.report_fetch_ops = report_fetch_ops;
        self
    }
}

impl KeyedLookupOp<'_> {
    /// Decide once whether the emission is a pure projection of the fetched columns;
    /// see [`KeyedLookupOp::fused_emit`]. Input arity is plan-fixed, so the first
    /// batch settles it for the operator's lifetime.
    fn ensure_fused_emit(&mut self, left_arity: usize) {
        if self.fused_checked {
            return;
        }
        self.fused_checked = true;
        if self.residual.is_empty() {
            if let Some(cols) = &self.out_cols {
                if cols.iter().all(|&c| c >= left_arity) {
                    self.fused_emit = Some(cols.iter().map(|&c| c - left_arity).collect());
                }
            }
        }
        // The fused pre-projection is baked into cached batches, so it is part of
        // the session-cache entry shape — resolve the operator's space only now
        // that it is settled.
        let cache = self.state.borrow().cache.clone();
        if let Some(cache) = cache {
            let space = cache.space(CacheShape {
                constraint: self.constraint_index,
                positions: self.positions.clone(),
                emit: self.fused_emit.clone(),
            });
            self.session = Some((cache, space));
        }
    }

    /// Pass 1 over `batch` (see the module docs): gather and hash every owned row's key
    /// once, keep what a tier already holds, and resolve the rest in one batched walk.
    /// `found` gets one entry per owned row, in row order. Takes no claim, never waits.
    fn stage(&mut self, batch: &Batch) -> Result<()> {
        self.found.clear();
        self.found.reserve(batch.len());
        self.pass.begin(batch.len());
        for i in 0..batch.len() {
            // Rows routed to other shards are skipped by an in-place hash — nothing
            // cloned — so each source row is probe-gathered on exactly one branch.
            if !owns_row(batch, i, &self.key_cols, self.route) {
                continue;
            }
            self.key_scratch.gather(batch, i, &self.key_cols);
            let found = match self.held() {
                Some(postings) => Found::Held(postings),
                None => Found::Missed(self.pass.miss(&mut self.key_scratch)),
            };
            self.found.push((i, found));
        }
        self.pass.resolve(self.store, self.constraint_index)?;
        // One probe-key gather per owned source row, hit or miss.
        self.tally.values_cloned += (self.found.len() * self.key_cols.len()) as u64;
        Ok(())
    }

    /// What a tier already holds for the key in `key_scratch`, asked in protocol order
    /// without claiming or waiting: the session cache (a hit is stamped and counted
    /// exactly like a probe's), then the split's shared cache on a morsel, else the
    /// arena's memo.
    fn held(&mut self) -> Option<Postings> {
        if let Some((cache, space)) = &self.session {
            if let Some(batch) = cache.lookup(space, &self.key_scratch) {
                self.tally.served(batch.len());
                return Some(Postings::Cached(batch));
            }
        }
        match &self.shared {
            Some(shared) => shared.lookup(&self.key_scratch).map(Postings::Cached),
            None => self.arena.range_of(&self.key_scratch).map(Postings::Arena),
        }
    }

    /// Pass 2 for one row: a pass-1 hit as it was found; otherwise the row's key,
    /// moved back into `key_scratch`, through the per-row protocol.
    fn settle(&mut self, found: Found<Postings>) -> Result<Postings> {
        match found {
            Found::Held(postings) => Ok(postings),
            Found::Missed(p) => {
                self.pass.take_key(p, &mut self.key_scratch);
                self.lookup(p)
            }
        }
    }

    /// The (projected, per-key deduplicated) fetch result for the key in
    /// `key_scratch`, which pass 1 resolved as probe `p`. The session tier is probed
    /// before the per-query tiers: a hit charges only the cache counters; a miss claims
    /// the key session-wide, resolves it through the per-query tiers — charging exactly
    /// the uncached costs — and publishes the result for every later probe.
    fn lookup(&mut self, p: usize) -> Result<Postings> {
        let Some((cache, space)) = self.session.clone() else {
            return self.lookup_in_query(p);
        };
        match cache.probe(&space, &self.key_scratch) {
            SessionProbe::Hit(batch) => {
                self.tally.served(batch.len());
                Ok(Postings::Cached(batch))
            }
            SessionProbe::Fill => {
                // An arena miss moves the scratch's values into the key columns;
                // snapshot the key (refcount bumps, uncounted like the claim's own map
                // key) so the claim can be resolved afterwards.
                let key = self.key_scratch.clone();
                let mut claim = Claim {
                    resolve: |batch: Option<Arc<Batch>>| match batch {
                        Some(batch) => cache.complete(&space, &key, batch),
                        None => cache.abort(&space, &key),
                    },
                    publish: None,
                };
                let known = self.arena.ranges.len();
                let batch = match self.lookup_in_query(p)? {
                    Postings::Cached(batch) => batch,
                    Postings::Arena(range) if self.arena.ranges.len() > known => {
                        Arc::new(self.arena.copy_out(range, self.fused_emit.as_deref()))
                    }
                    // A repeat of a key this query already fetched, whose copy the
                    // cache declined or has evicted since: withdraw the claim and
                    // read the range in place rather than copy it again.
                    repeat => return Ok(repeat),
                };
                claim.publish = Some(Arc::clone(&batch));
                Ok(Postings::Cached(batch))
            }
        }
    }

    /// The per-query tiers: the arena's memo, or — in morsel mode, where the arena
    /// only stages fills — the split's shared cache. Both resolve a miss through
    /// [`KeyedLookupOp::fetch`].
    fn lookup_in_query(&mut self, p: usize) -> Result<Postings> {
        let Some(shared) = self.shared.clone() else {
            if let Some(range) = self.arena.range_of(&self.key_scratch) {
                return Ok(Postings::Arena(range));
            }
            let range = self.fetch(p);
            self.cached_rows += range.len as u64;
            self.arena.remember(&mut self.key_scratch, range)?;
            return Ok(Postings::Arena(range));
        };
        match shared.probe(&self.key_scratch) {
            CacheProbe::Hit(batch) => Ok(Postings::Cached(batch)),
            CacheProbe::Fill => {
                // The claim holds the key while the fill runs; the scratch gets its
                // buffer back once the claim is resolved.
                let key = std::mem::take(&mut self.key_scratch);
                let mut claim = Claim {
                    resolve: |batch: Option<Arc<Batch>>| match batch {
                        Some(batch) => shared.complete(&key, batch),
                        None => shared.abort(&key),
                    },
                    publish: None,
                };
                let range = self.fetch(p);
                let batch = Arc::new(self.arena.copy_out(range, self.fused_emit.as_deref()));
                // The split's cache owns the copy; the staged rows are done with.
                self.arena.truncate(range.start);
                claim.publish = Some(Arc::clone(&batch));
                drop(claim);
                self.key_scratch = key;
                Ok(Postings::Cached(batch))
            }
        }
    }

    /// The one miss path: project and per-key-dedup probe `p`'s resolved postings onto
    /// the arena's open segment, tallying the miss costs — an index lookup and the
    /// fetch accounting — and acquiring residency for the rows now held.
    fn fetch(&mut self, p: usize) -> ArenaRange {
        self.tally.index_lookups += 1;
        let (tuples, shard) = self.pass.resolved[p].clone();
        let arena = &mut self.arena;
        let start = arena.rows;
        let fetched = fetch_key_into(
            tuples,
            &self.positions,
            &mut arena.cols,
            &mut arena.rows,
            &mut arena.dedup,
        );
        let range = ArenaRange {
            segment: arena.sealed.len(),
            start,
            len: arena.rows - start,
        };
        self.tally.fetched(shard, fetched, self.positions.len());
        self.state.borrow_mut().acquire(range.len as u64);
        range
    }

    /// Move the probes' tally into the shared statistics.
    fn flush_tally(&mut self) {
        self.tally
            .flush(&self.relation, &mut self.state.borrow_mut().stats);
    }

    /// Gather source row `i` of `batch` joined with each of the `len` posting rows
    /// `fetched(j, c)` yields — `c` indexing the posting columns as stored, i.e. the
    /// pre-projected ones under [`KeyedLookupOp::fused_emit`] — into `out`, applying
    /// the residual predicates. Returns the number of rows emitted.
    fn emit<'a>(
        &self,
        batch: &Batch,
        i: usize,
        len: usize,
        fetched: impl Fn(usize, usize) -> &'a Value,
        out: &mut [Vec<Value>],
    ) -> usize {
        if self.fused_emit.is_some() {
            // No residual, fetched columns only: a straight per-row append.
            for j in 0..len {
                for (c, sink) in out.iter_mut().enumerate() {
                    sink.push(fetched(j, c).clone());
                }
            }
            return len;
        }
        let left_arity = batch.arity();
        let mut emitted = 0;
        for j in 0..len {
            let combined = |c: usize| {
                if c < left_arity {
                    batch.value(i, c)
                } else {
                    fetched(j, c - left_arity)
                }
            };
            if !passes_with(&self.residual, combined) {
                continue;
            }
            for (k, sink) in out.iter_mut().enumerate() {
                let c = self.out_cols.as_ref().map_or(k, |cols| cols[k]);
                sink.push(combined(c).clone());
            }
            emitted += 1;
        }
        emitted
    }
}

impl Operator for KeyedLookupOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        let Some(batch) = self.input.next_batch()? else {
            self.done = true;
            self.flush_tally();
            let mut state = self.state.borrow_mut();
            // As for `FetchOp`: a sharded lookup's branches are one logical fetch
            // operation, reported once by the shard-0 branch — and a split
            // pipeline's morsels likewise, reported once by the first morsel.
            if self.report_fetch_ops && self.route.is_none_or(|r| r.shard == 0) {
                state.stats.fetch_ops += 1;
            }
            state.release(self.cached_rows);
            self.cached_rows = 0;
            // The arena's open columns, its key columns, the key scratch and pass 1's
            // key buffer go back to the pool, cleared, for the worker's next probe loop; sealed segments
            // stay with the consumers that share them.
            let scratch = std::mem::take(&mut self.key_scratch).into_values();
            let probes = std::mem::take(&mut self.pass.keys);
            let arena = &mut self.arena;
            let buffers = arena.cols.drain(..).chain(arena.keys.release());
            for col in buffers.chain([scratch, probes]) {
                state.pool.put_values(col);
            }
            return Ok(None);
        };
        let left_arity = batch.arity();
        let origin = self.route.map(|r| r.shard);
        self.ensure_fused_emit(left_arity);
        self.stage(&batch)?;
        let mut found = std::mem::take(&mut self.found);
        // Anchor fast path: a single source row (owned by this branch), no residual,
        // and a fused projection that keeps only fetched columns — the output *is*
        // the key's projected postings, emitted as a batch over the storage that
        // already holds them (an outer tier's entry, or the arena segment, sealed):
        // zero value clones and, on a warm session cache, zero allocations. This is
        // the first lookup of every anchored plan, where the fan-out (and hence the
        // row-pipeline's copy bill) is largest — and the whole body of the
        // steady-state serving loop.
        if batch.len() == 1 && self.fused_emit.is_some() {
            if let Some((_, only)) = found.pop() {
                self.found = found;
                let emitted = match self.settle(only)? {
                    Postings::Cached(cached) => (*cached).clone(),
                    Postings::Arena(range) => {
                        let mapped = self.fused_emit.as_deref().expect("checked above");
                        self.arena.seal(range).project(mapped)
                    }
                };
                self.flush_tally();
                return Ok(Some(emitted.with_origin_shard(origin)));
            }
        }
        let out_arity = self
            .out_cols
            .as_ref()
            .map_or(left_arity + self.positions.len(), Vec::len);
        let mut out: Vec<Vec<Value>> = {
            let mut state = self.state.borrow_mut();
            (0..out_arity).map(|_| state.pool.get_values()).collect()
        };
        let mut out_rows = 0usize;
        for (i, row) in found.drain(..) {
            out_rows += match self.settle(row)? {
                Postings::Cached(cached) => {
                    self.emit(&batch, i, cached.len(), |j, c| cached.value(j, c), &mut out)
                }
                Postings::Arena(range) => {
                    // The arena holds the raw fetched positions; a fused emission
                    // reads them through its projection.
                    let arena = &self.arena;
                    let mapped = self.fused_emit.as_deref();
                    let fetched = |j, c: usize| arena.value(range, j, mapped.map_or(c, |m| m[c]));
                    self.emit(&batch, i, range.len, fetched, &mut out)
                }
            };
        }
        self.found = found;
        self.tally.values_cloned += (out_rows * out_arity) as u64;
        self.flush_tally();
        Ok(Some(
            Batch::from_dense(out, out_rows).with_origin_shard(origin),
        ))
    }
}

impl Drop for KeyedLookupOp<'_> {
    fn drop(&mut self) {
        // What a failed pull had tallied before its error.
        self.flush_tally();
        self.state
            .borrow_mut()
            .release(std::mem::take(&mut self.cached_rows));
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::super::{ExecState, ResidencyLedger};
    use super::*;
    use bea_core::access::{AccessConstraint, AccessSchema};
    use bea_core::error::Error;
    use bea_storage::{Database, IndexedDatabase};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The access-schema bound of the one constraint: at most this many tuples per key.
    const BOUND: u64 = 4;

    /// `R(k, v, w)` under `k → (v, w)`: key 1 matches three tuples, two of which agree
    /// on `v`; key 2 matches one; key 3 matches none.
    fn store() -> IndexedDatabase {
        let mut catalog = bea_core::schema::Catalog::new();
        catalog.declare("R", ["k", "v", "w"]).unwrap();
        let schema = AccessSchema::from_constraints([AccessConstraint::new(
            &catalog,
            "R",
            &["k"],
            &["v", "w"],
            BOUND,
        )
        .unwrap()]);
        let mut db = Database::new(catalog);
        db.extend(
            "R",
            [[1, 10, 100], [1, 10, 101], [1, 11, 100], [2, 20, 200]]
                .map(|row| row.map(Value::int).to_vec()),
        )
        .unwrap();
        IndexedDatabase::build(db, schema).unwrap()
    }

    /// A source replaying scripted pulls — batches, or an error.
    pub(crate) struct Script(pub(crate) VecDeque<Result<Batch>>);

    impl Operator for Script {
        fn next_batch(&mut self) -> Result<Option<Batch>> {
            self.0.pop_front().transpose()
        }
    }

    pub(crate) fn ints(rows: &[&[i64]]) -> Batch {
        let arity = rows.first().map_or(0, |row| row.len());
        let rows = rows
            .iter()
            .map(|row| row.iter().copied().map(Value::int).collect())
            .collect();
        Batch::from_rows(arity, rows)
    }

    pub(crate) struct Harness {
        pub(crate) ledger: Arc<ResidencyLedger>,
        pub(crate) state: SharedState,
    }

    impl Harness {
        pub(crate) fn new() -> Self {
            let ledger = Arc::new(ResidencyLedger::default());
            let state = Rc::new(RefCell::new(ExecState::new(ledger.clone())));
            Self { ledger, state }
        }

        /// A lookup on `R` keyed by source column 0, fetching `positions`.
        fn lookup<'db>(
            &self,
            idb: &'db IndexedDatabase,
            pulls: Vec<Result<Batch>>,
            positions: &[usize],
            residual: Vec<Predicate>,
            out_cols: Option<Vec<usize>>,
        ) -> KeyedLookupOp<'db> {
            KeyedLookupOp::new(
                Box::new(Script(pulls.into())),
                vec![0],
                "R".into(),
                positions.to_vec(),
                0,
                residual,
                out_cols,
                None,
                Store::Indexed(idb),
                self.state.clone(),
            )
        }

        pub(crate) fn stats(&self) -> crate::stats::AccessStats {
            self.state.borrow().stats.clone()
        }
    }

    /// Pull `op` dry; the emitted rows as plain integers, batch by batch.
    pub(crate) fn drain(op: &mut dyn Operator) -> Vec<Vec<Vec<i64>>> {
        let mut batches = Vec::new();
        while let Some(batch) = op.next_batch().unwrap() {
            let rows = (0..batch.len()).map(|i| {
                let row = batch.row(i).into_iter();
                row.map(|v| match v {
                    Value::Int(i) => i,
                    other => panic!("unexpected {other}"),
                })
                .collect()
            });
            batches.push(rows.collect());
        }
        batches
    }

    #[test]
    fn a_key_repeated_across_batches_is_fetched_once() {
        let idb = store();
        let h = Harness::new();
        let pulls = vec![Ok(ints(&[&[1], &[2], &[1]])), Ok(ints(&[&[2], &[1], &[3]]))];
        let mut op = h.lookup(&idb, pulls, &[0, 1, 2], Vec::new(), None);
        let out = drain(&mut op);
        let key1 = [[1, 1, 10, 100], [1, 1, 10, 101], [1, 1, 11, 100]].map(Vec::from);
        let key2 = [vec![2, 2, 20, 200]];
        assert_eq!(out[0], [&key1[..], &key2, &key1].concat(), "first batch");
        assert_eq!(out[1], [&key2[..], &key1].concat(), "second batch");

        let stats = h.stats();
        assert_eq!(stats.index_lookups, 3, "one lookup per distinct key");
        assert_eq!(
            stats.allocs_per_probe, 0,
            "a miss moves its key into the arena's columns: no buffer per key, hit or miss"
        );
        assert_eq!(stats.tuples_fetched, 4);
        // What a ticket prices this lookup at: the bound, once per distinct key.
        assert!(stats.tuples_fetched <= stats.index_lookups * BOUND);
        assert_eq!(stats.fetch_ops, 1);
        // 6 probe keys + 4 fetched tuples × 3 positions + 11 emitted rows × 4 columns.
        assert_eq!(stats.values_cloned, 6 + 12 + 44);
        assert_eq!(
            h.ledger.peak(),
            4,
            "the arena held exactly the fetched rows"
        );
        assert_eq!(h.ledger.resident(), 0, "exhaustion releases the arena");
    }

    #[test]
    fn dropping_the_distinguishing_column_still_dedups_per_key() {
        let idb = store();
        let h = Harness::new();
        // Without `w`, key 1's first two tuples project equal: the kernel compacts
        // the duplicate away, and key 2's range starts right behind the survivors.
        let pulls = vec![Ok(ints(&[&[1], &[2], &[1]]))];
        let mut op = h.lookup(&idb, pulls, &[0, 1], Vec::new(), Some(vec![1, 2]));
        assert_eq!(
            drain(&mut op),
            [[[1, 10], [1, 11], [2, 20], [1, 10], [1, 11]].map(Vec::from)]
        );
        let stats = h.stats();
        assert_eq!(stats.tuples_fetched, 4, "duplicates are read, then dropped");
        assert_eq!(
            h.ledger.peak(),
            3,
            "only distinct projections stay resident"
        );
        assert_eq!(h.ledger.resident(), 0);
    }

    #[test]
    fn residuals_and_mixed_output_columns_read_the_arena_in_place() {
        let idb = store();
        let h = Harness::new();
        // Combined row: source (k, x) then fetched (k, v, w). Keep rows with x = v,
        // emit (x, w, k) — source and fetched columns interleaved.
        let pulls = vec![Ok(ints(&[&[1, 10], &[1, 11], &[2, 99]]))];
        let mut op = h.lookup(
            &idb,
            pulls,
            &[0, 1, 2],
            vec![Predicate::ColEqCol(1, 3)],
            Some(vec![1, 4, 0]),
        );
        assert_eq!(
            drain(&mut op),
            [[[10, 100, 1], [10, 101, 1], [11, 100, 1]].map(Vec::from)]
        );
        assert_eq!(h.stats().index_lookups, 2);
        assert_eq!(h.ledger.resident(), 0);
    }

    #[test]
    fn zero_column_projections_keep_one_row_per_matching_key() {
        let idb = store();
        let h = Harness::new();
        let pulls = vec![Ok(ints(&[&[1], &[3], &[1]]))];
        let mut op = h.lookup(&idb, pulls, &[], Vec::new(), None);
        assert_eq!(drain(&mut op), [[[1], [1]].map(Vec::from)]);
        let stats = h.stats();
        assert_eq!(stats.index_lookups, 2);
        assert_eq!(stats.tuples_fetched, 3, "key 1's tuples are read once");
        assert_eq!(h.ledger.peak(), 1);
        assert_eq!(h.ledger.resident(), 0);
    }

    #[test]
    fn anchor_emissions_share_the_arena_and_later_probes_still_find_them() {
        let idb = store();
        let h = Harness::new();
        // Fused projection onto `w`: single-row batches take the anchor path, which
        // seals the arena segment into the emitted batch instead of copying it.
        let pulls = vec![
            Ok(ints(&[&[1]])),
            Ok(ints(&[&[1]])),
            Ok(ints(&[&[2], &[1]])),
        ];
        let mut op = h.lookup(&idb, pulls, &[0, 2], Vec::new(), Some(vec![2]));
        assert_eq!(
            drain(&mut op),
            [
                vec![vec![100], vec![101]],
                vec![vec![100], vec![101]],
                vec![vec![200], vec![100], vec![101]],
            ]
        );
        let stats = h.stats();
        assert_eq!(stats.index_lookups, 2, "the sealed key is never re-fetched");
        assert_eq!(stats.tuples_fetched, 4);
        // 4 probe keys + 4 tuples × 2 positions + the gathered batch's 3 rows × 1
        // column; the two anchor emissions clone nothing.
        assert_eq!(stats.values_cloned, 4 + 8 + 3);
        assert_eq!(h.ledger.resident(), 0);
    }

    #[test]
    fn a_morsel_fill_leaves_nothing_staged_in_the_arena() {
        let idb = store();
        let h = Harness::new();
        let shared = Arc::new(SharedLookupCache::new());
        let pulls = vec![Ok(ints(&[&[1], &[2], &[1]]))];
        let mut op = h
            .lookup(&idb, pulls, &[0, 1, 2], Vec::new(), None)
            .for_morsel(Some(shared.clone()), true);
        assert_eq!(op.next_batch().unwrap().unwrap().len(), 7);
        // The split's cache holds the only copy of the rows the ledger was charged.
        assert_eq!(op.arena.rows, 0);
        assert!(op.arena.cols.iter().all(Vec::is_empty));
        assert_eq!((shared.rows(), h.ledger.resident()), (4, 4));
        assert_eq!(h.stats().index_lookups, 2);
    }

    #[test]
    fn a_repeat_the_session_cache_declined_is_read_from_the_arena() {
        let idb = store();
        let h = Harness::new();
        // Key 1's three rows exceed the whole budget: the published copy is declined,
        // so every probe of the key comes back as a fill claim.
        let cache = Arc::new(SessionFetchCache::new(2));
        h.state.borrow_mut().cache = Some(cache.clone());
        let mut op = h.lookup(&idb, Vec::new(), &[0, 1, 2], Vec::new(), None);
        op.ensure_fused_emit(1);
        // Nothing holds key 1 yet, so both rows miss in pass 1 and settle in pass 2.
        op.stage(&ints(&[&[1], &[1]])).unwrap();
        let mut found = std::mem::take(&mut op.found)
            .into_iter()
            .map(|(_, found)| found);
        let first = op.settle(found.next().unwrap()).unwrap();
        assert!(matches!(first, Postings::Cached(batch) if batch.len() == 3));
        let repeat = op.settle(found.next().unwrap()).unwrap();
        assert!(matches!(repeat, Postings::Arena(range) if range.len == 3));
        op.flush_tally();
        let key = HashedRow::new(vec![Value::int(1)]);
        assert_eq!(h.stats().index_lookups, 1);
        // The withdrawn claim strands nobody: the next probe claims the key afresh.
        let (_, space) = op.session.clone().unwrap();
        assert!(matches!(cache.probe(&space, &key), SessionProbe::Fill));
        cache.abort(&space, &key);
    }

    #[test]
    fn drops_and_errors_mid_stream_return_the_ledger_to_zero() {
        let idb = store();

        // Dropped after one batch: the arena's rows are released by `Drop`.
        let h = Harness::new();
        let pulls = vec![Ok(ints(&[&[1], &[2]])), Ok(ints(&[&[1]]))];
        let mut op = h.lookup(&idb, pulls, &[0, 1, 2], Vec::new(), None);
        assert_eq!(op.next_batch().unwrap().unwrap().len(), 4);
        assert_eq!(h.ledger.resident(), 4);
        drop(op);
        assert_eq!(h.ledger.resident(), 0);

        // The source fails while the arena holds rows.
        let h = Harness::new();
        let pulls = vec![
            Ok(ints(&[&[1], &[2]])),
            Err(Error::invalid("source failed")),
        ];
        let mut op = h.lookup(&idb, pulls, &[0, 1, 2], Vec::new(), None);
        assert!(op.next_batch().unwrap().is_some());
        assert!(op.next_batch().is_err());
        drop(op);
        assert_eq!(h.ledger.resident(), 0);

        // A probe fails inside a batch (the key arity does not fit the constraint):
        // nothing was acquired for it, and nothing leaks.
        let h = Harness::new();
        let mut op = h.lookup(&idb, vec![Ok(ints(&[&[1], &[2]]))], &[0], Vec::new(), None);
        (op.key_cols, op.pass.arity) = (vec![0, 0], 2);
        assert!(op.next_batch().is_err());
        assert_eq!(h.stats().tuples_fetched, 0);
        drop(op);
        assert_eq!(h.ledger.resident(), 0);
    }

    /// The same source rows as one batch, as two, and one row per batch.
    fn feeds(rows: &[&[i64]]) -> [Vec<Result<Batch>>; 3] {
        let (front, back) = rows.split_at(rows.len() / 2);
        [
            vec![Ok(ints(rows))],
            vec![Ok(ints(front)), Ok(ints(back))],
            rows.iter().map(|&row| Ok(ints(&[row]))).collect(),
        ]
    }

    /// A lookup fetching every position of `R` for each feed of `rows`, set up by
    /// `prepare`; what it emitted (flattened, in order), its counters and its peak
    /// residency must not depend on how the rows were batched. Returns them.
    fn assert_batching_is_invisible(
        idb: &IndexedDatabase,
        rows: &[&[i64]],
        prepare: impl Fn(&Harness),
        run: impl Fn(&mut KeyedLookupOp<'_>) -> Vec<Vec<Vec<i64>>>,
    ) -> (Vec<Vec<i64>>, crate::stats::AccessStats) {
        let runs = feeds(rows).map(|pulls| {
            let h = Harness::new();
            prepare(&h);
            let mut op = h.lookup(idb, pulls, &[0, 1, 2], Vec::new(), None);
            let out = run(&mut op).concat();
            drop(op);
            (out, h.stats(), h.ledger.peak())
        });
        assert_eq!(runs[0], runs[1], "one batch against two");
        assert_eq!(runs[0], runs[2], "one batch against one row per batch");
        let [(out, stats, _), ..] = runs;
        (out, stats)
    }

    #[test]
    fn keys_repeated_within_and_across_batches_settle_as_a_row_loop_would() {
        let idb = store();
        let rows: &[&[i64]] = &[&[1], &[2], &[1], &[3], &[2], &[1], &[1]];
        let (out, stats) = assert_batching_is_invisible(&idb, rows, |_| {}, |op| drain(op));
        assert_eq!(out.len(), 4 * 3 + 2);
        assert_eq!(
            stats.index_lookups, 3,
            "one per distinct key, absent included"
        );
        assert_eq!(stats.tuples_fetched, 4);
    }

    #[test]
    fn pass_one_hits_and_pass_two_fills_share_a_batch() {
        let idb = store();
        // Key 2 is served warm; key 1 is filled by its first row and hit by its
        // second; absent key 3 is filled with the empty batch.
        let rows: &[&[i64]] = &[&[2], &[1], &[3], &[2], &[1]];
        let warm = |h: &Harness| {
            let cache = Arc::new(SessionFetchCache::new(1_000));
            let warmer = Harness::new();
            warmer.state.borrow_mut().cache = Some(cache.clone());
            let pulls = vec![Ok(ints(&[&[2]]))];
            drain(&mut warmer.lookup(&idb, pulls, &[0, 1, 2], Vec::new(), None));
            h.state.borrow_mut().cache = Some(cache);
        };
        let (out, stats) = assert_batching_is_invisible(&idb, rows, warm, |op| drain(op));
        assert_eq!(out.len(), 1 + 3 + 1 + 3);
        assert_eq!(stats.index_lookups, 2, "keys 1 and 3, once each");
        assert_eq!(
            (stats.cache_hits, stats.rows_served_from_cache),
            (3, 1 + 1 + 3)
        );
    }

    #[test]
    fn a_key_another_morsel_is_filling_is_waited_for_in_pass_two_only() {
        let idb = store();
        let rows: &[&[i64]] = &[&[2], &[1], &[2]];
        let key = HashedRow::new(vec![Value::int(1)]);
        let unsplit = assert_batching_is_invisible(&idb, rows, |_| {}, |op| drain(op));
        let split = assert_batching_is_invisible(
            &idb,
            rows,
            |_| {},
            |op| {
                // Another morsel holds key 1's fill claim before this one starts, so
                // pass 1 passes the key by; the claim is resolved only once this
                // morsel waits on it, in pass 2.
                let shared = Arc::new(SharedLookupCache::new());
                assert!(matches!(shared.probe(&key), CacheProbe::Fill));
                op.shared = Some(shared.clone());
                std::thread::scope(|scope| {
                    scope.spawn(|| {
                        while shared.waiters(&key) == 0 {
                            std::thread::yield_now();
                        }
                        let postings = [&[1, 10, 100][..], &[1, 10, 101], &[1, 11, 100]];
                        shared.complete(&key, Arc::new(ints(&postings)));
                    });
                    drain(op)
                })
            },
        );
        assert_eq!(split.0, unsplit.0, "the other morsel's entry serves key 1");
        assert_eq!(unsplit.1.index_lookups, 2);
        assert_eq!(split.1.index_lookups, 1, "only key 2 is fetched here");
    }

    #[test]
    fn a_failed_resolve_mid_batch_leaves_no_claim_and_no_residency() {
        let idb = store();
        // Constraint 7 does not exist: every key nothing holds fails to resolve, after
        // pass 1 has already taken key 2's warm hits from the session cache.
        let cache = Arc::new(SessionFetchCache::new(1_000));
        let space = cache.space(CacheShape {
            constraint: 7,
            positions: vec![0, 1, 2],
            emit: None,
        });
        let warm = HashedRow::new(vec![Value::int(2)]);
        assert!(matches!(cache.probe(&space, &warm), SessionProbe::Fill));
        cache.complete(&space, &warm, Arc::new(ints(&[&[2, 20, 200]])));
        for pulls in feeds(&[&[2], &[1], &[2], &[3]]) {
            let h = Harness::new();
            h.state.borrow_mut().cache = Some(cache.clone());
            let mut op = h.lookup(&idb, pulls, &[0, 1, 2], Vec::new(), None);
            op.constraint_index = 7;
            let failure = std::iter::from_fn(|| op.next_batch().transpose()).find(Result::is_err);
            assert!(failure.is_some(), "key 1 cannot be resolved");
            drop(op);
            assert_eq!(h.ledger.resident(), 0);
            assert_eq!(h.stats().tuples_fetched, 0);
            // No key was left claimed: the next prober of each gets the claim at once.
            for k in [1, 3] {
                let key = HashedRow::new(vec![Value::int(k)]);
                assert!(matches!(cache.probe(&space, &key), SessionProbe::Fill));
                cache.abort(&space, &key);
            }
        }
        assert_eq!(cache.stats().resident_rows, 1);
    }
}
