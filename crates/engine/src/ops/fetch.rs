//! The index operator: [`KeyedLookupOp`], through which every fetch of a physical plan
//! reads the store.
//!
//! Lowering leaves a plan one index operator. Plan synthesis wraps each fetch as
//! `σ[key equalities](T × fetch(X ∈ T, R, Y))`, which is a keyed lookup over `T`; any
//! other fetch becomes a keyed lookup over its distinct keys `δπ[keys](T)` whose
//! emission keeps only the fetched columns (see `bea_core::plan::physical`). The
//! operator reaches the index through one call, the store's batched
//! [`bea_storage::IndexedDatabase::resolve`], which walks many keys at once with
//! their cache misses overlapped.
//!
//! A keyed lookup copies only what needs a copy. Its arena holds the keys that matched
//! two or more tuples, projected straight from the relation into its columns without
//! an intermediate row per tuple; per-key duplicate elimination runs
//! *hash-then-compare* over the freshly appended range (see
//! [`super::batch::hash_row_at`]) and compacts duplicates away in place, so no value is
//! cloned to decide freshness. A key that matched at most one tuple (every probe of a
//! bound-1 constraint) is neither hashed nor copied: it is read where the tuple lies in
//! the store — residual predicates and the emission read it there, and only emitted
//! values are cloned. Its memo, which serves a repeated key from the arena or the
//! store, exists only where keys can repeat: when the plan proves that the source never
//! repeats a key ([`PhysicalPlan::keys_distinct`]), every probe is a first probe and
//! nothing is remembered.
//!
//! [`PhysicalPlan::keys_distinct`]: bea_core::plan::PhysicalPlan::keys_distinct
//!
//! # Two passes per source batch
//!
//! 1. **Stage.** [`KeyedLookupOp`] gathers and hashes each row's key once and
//!    looks it up, without claiming or waiting, in every tier that may hold it, in
//!    protocol order: the session cache (a hit is stamped and counted like a probe's),
//!    then the arena's memo. It keeps every hit and sends the keys nothing holds to
//!    one `resolve`.
//! 2. **Settle.** In row order, a pass-1 hit is emitted from what it returned; any
//!    other row runs the per-row protocol — session probe or claim, memo, miss — and a
//!    miss serves the postings pass 1 resolved. A row whose key no tier would probe or
//!    remember goes straight to them.
//!
//! Hits come first so that a key the session cache serves never costs a walk. Claims
//! wait for pass 2 because a claim obliges its holder to fill: holding one while
//! probing, let alone waiting on, another key could leave two queries each waiting for
//! the other's fill, so each claim is taken and resolved within its own row. Rows,
//! their order, the arena's layout and every counter are a per-row loop's, except under
//! eviction pressure: a pass-1 hit serves its row even if a fill earlier in the batch
//! evicted the entry since (see [`crate::cache`]). A missed key is hashed once, when
//! gathered.
//!
//! # The probe path's allocation budget
//!
//! The probe path demands no buffer per key, hit or miss — which is why nothing
//! charges [`crate::stats::AccessStats::allocs_per_probe`]. Every probe gathers its
//! key into one reusable scratch and hashes it once; a **miss** moves the scratch's
//! values into the memo's flat key columns, where keys can repeat, and appends
//! multi-tuple postings to the arena's value columns (both drawn from the thread's
//! [`super::BufferPool`] once per operator instance, like the flat buffer pass 1 moves
//! missed keys into). A repeat of a fetched key is a slot walk plus emission
//! from where its postings lie; a hit in the session cache is a refcount bump.
//! Resolving the session cache's *fill claim* is the same miss, then an uncharged
//! compact copy of the key's postings — taken from the arena range, or straight from
//! the one tuple — published as the cache's entry (with an owned copy of the key —
//! cache maintenance, like the cache's own map key); the row itself is served as the
//! miss serves it, so a cold cache charges what a cache-off run charges.
//!
//! Per operator instance, what remains is its box, its column lists and its staging
//! vectors: the step's key columns, positions, relation and predicates are borrowed
//! from the plan ([`FetchStep`]; only a residual that compares with a request's
//! constant is a copy, with the constant in), the key scratch and every pooled column
//! come from the thread's pool, which outlives the query, and the fused emission is an
//! offset, not a column list. `tests/alloc_budget.rs` holds the model to the
//! allocator: a cold Q0 stays under a fixed number of heap allocations, whatever it
//! fetches; `crates/bead/tests/alloc_request.rs` bounds a whole served request.
//!
//! # Access accounting
//!
//! The operator does not touch the shared [`crate::stats::AccessStats`] per key:
//! lookups, clones and cache hits accumulate in an operator-local [`ProbeTally`],
//! flushed once per pull and on drop — an error or a short-circuiting consumer loses
//! nothing. A miss's fetched tuples go straight to the query's flat per-step tally
//! ([`crate::stats::FetchTally`]), which names no relation and allocates nothing once
//! the thread's state has grown to its plans; it is written into the query's
//! per-relation map when the query finishes.

use super::batch::{hash_row_at, passes_with, rows_equal_at, Batch, HashedRow, RowTable};
use super::{BoxOp, Operator, SharedState, BATCH_SIZE};
use crate::cache::{CacheShape, CacheSpace, SessionFetchCache, SessionProbe};
use crate::stats::AccessStats;
use bea_core::error::Result;
use bea_core::plan::{PhysOp, PhysicalPlan, Predicate};
use bea_core::value::Value;
use bea_storage::{FetchIter, Probes, Store};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

/// A handle to the session's cross-query fetch cache, resolved to the operator's
/// [`CacheShape`] space once, off the per-probe path. `None` outside sessions (and
/// in cache-disabled sessions), where only the arena's memo runs.
type SessionCache = Option<(Arc<SessionFetchCache>, Arc<CacheSpace>)>;

/// RAII resolution of a session-cache fill claim: `resolve` publishes the batch when
/// one was produced and withdraws the claim otherwise — on error *or* unwind — so
/// probes waiting elsewhere are never stranded by this one's failure.
struct Claim<F: FnMut(Option<Arc<Batch>>)> {
    resolve: F,
    publish: Option<Arc<Batch>>,
}

impl<F: FnMut(Option<Arc<Batch>>)> Drop for Claim<F> {
    fn drop(&mut self) {
        (self.resolve)(self.publish.take());
    }
}

/// What pass 1 found for one key (see the module docs): `Held` by a tier — the
/// session cache's batch, or the arena's memo — or `Missed`, its postings being probe
/// `p` of the pass's `resolve`.
enum Found<'db> {
    Held(Postings<'db>),
    Missed(usize),
}

/// The flat probe buffers of pass 1: the keys nothing held (moved in, `arity` values
/// each), their carried hashes, and what `resolve` returned for each.
struct Pass<'db> {
    arity: usize,
    keys: Vec<Value>,
    hashes: Vec<u64>,
    resolved: Vec<FetchIter<'db>>,
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

/// What an operator's probes have cost since its last flush; see the module docs.
#[derive(Debug, Default)]
struct ProbeTally {
    index_lookups: u64,
    values_cloned: u64,
    cache_hits: u64,
    rows_served_from_cache: u64,
}

impl ProbeTally {
    /// The session cache served `rows` rows for one key.
    fn served(&mut self, rows: usize) {
        self.cache_hits += 1;
        self.rows_served_from_cache += rows as u64;
    }

    /// Move everything tallied into the query's counters.
    fn flush(&mut self, stats: &mut AccessStats) {
        stats.index_lookups += std::mem::take(&mut self.index_lookups);
        stats.values_cloned += std::mem::take(&mut self.values_cloned);
        stats.cache_hits += std::mem::take(&mut self.cache_hits);
        stats.rows_served_from_cache += std::mem::take(&mut self.rows_served_from_cache);
    }
}

/// Reusable open-addressing set of physical row positions — the per-key dedup table
/// of [`PostingArena::append`]. One slot vector, re-sized and blanked per key, so
/// deciding freshness never allocates once the table has grown to the largest posting
/// list.
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

/// The fields of a [`PhysOp::KeyedLookup`] step that validation and the index operator
/// read, borrowed from the plan.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FetchStep<'a> {
    /// The step's index in the plan, under which its fetches are counted.
    pub(crate) step: usize,
    /// The relation fetched from.
    pub(crate) relation: &'a str,
    /// Columns of the source holding the key.
    pub(crate) key_cols: &'a [usize],
    /// Attribute positions of the relation forming the index key.
    pub(crate) x_attrs: &'a [usize],
    /// Attribute positions of the relation fetched, in output-column order.
    pub(crate) positions: &'a [usize],
    /// Index of the backing access constraint in the access schema.
    pub(crate) constraint_index: usize,
}

impl<'a> FetchStep<'a> {
    /// The fields of `plan`'s step `step`, if it fetches.
    pub(crate) fn of(plan: &'a PhysicalPlan, step: usize) -> Option<Self> {
        match &plan.steps()[step].op {
            PhysOp::KeyedLookup {
                relation,
                key_cols,
                x_attrs,
                positions,
                constraint_index,
                ..
            } => Some(FetchStep {
                step,
                relation,
                key_cols,
                x_attrs,
                positions,
                constraint_index: *constraint_index,
            }),
            _ => None,
        }
    }

    /// Count `tuples` this step fetched on the query's state, at once — a probed step
    /// is reported even when its keys matched nothing.
    fn fetched(self, state: &SharedState, tuples: u64) {
        state.borrow_mut().fetched.add(self.step, tuples);
    }

    /// The session cache's space for this step's entries, with the pre-projection
    /// `emit` gives baked in; `None` when the query has no session cache.
    fn session(
        self,
        state: &SharedState,
        emit: impl FnOnce() -> Option<Vec<usize>>,
    ) -> SessionCache {
        let cache = state.borrow().cache.clone()?;
        let space = cache.space(CacheShape {
            constraint: self.constraint_index,
            positions: self.positions.to_vec(),
            emit: emit(),
        });
        Some((cache, space))
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

/// The keyed lookup's per-query tier: the postings of every multi-tuple key the
/// operator fetched, appended by the fetch kernel into one set of growing value
/// columns, plus — where keys can repeat — the memo that serves repeats: the fetched
/// keys in a [`RowTable`], and at each key's position where its postings lie.
///
/// The columns are normally one *open* segment. An anchor emission (see
/// [`KeyedLookupOp`]) needs its postings as a shareable [`Batch`], so it *seals* the
/// open segment — moves the columns into a batch, zero value copies — and later
/// misses start a fresh one. Segment `k` is sealed iff `k < sealed.len()`; the open
/// segment is the next index, so sealing never rewrites a range.
#[derive(Debug)]
struct PostingArena<'db> {
    sealed: Vec<Batch>,
    cols: Vec<Vec<Value>>,
    /// Dense length of the open segment — a zero-column arena has no column to ask.
    rows: usize,
    keys: RowTable,
    /// `held[p]` is where the postings of the key at position `p` of `keys` lie: in
    /// the store or in the arena, never in the session cache.
    held: Vec<Postings<'db>>,
    dedup: RowSet,
}

impl<'db> PostingArena<'db> {
    /// Where the postings of `key` lie, if this operator remembered fetching it.
    fn find(&self, key: &HashedRow) -> Option<Postings<'db>> {
        let position = self.keys.find_key(key)?;
        Some(self.held[position as usize].clone())
    }

    /// Remember `postings` for `key`, which [`PostingArena::find`] just missed; the
    /// key's values move into the key columns.
    fn remember(&mut self, key: &mut HashedRow, postings: Postings<'db>) -> Result<()> {
        self.keys.push_key(key)?;
        self.held.push(postings);
        Ok(())
    }

    /// Append the distinct `positions`-projections of a key's `tuples` — two or more —
    /// to the open segment, in posting order, hash-then-compare deduplicated and
    /// compacted in place; the tuples read, and where the key's postings now lie.
    /// Distinct keys cannot produce equal projections as long as the key attributes
    /// survive in `positions` (lowering adds a global dedup when a pushed-down
    /// projection dropped them), so per-key dedup suffices.
    fn append(&mut self, tuples: FetchIter<'_>, positions: &[usize]) -> (u64, ArenaRange) {
        let start = self.rows;
        let fetched = tuples.project_into(positions, &mut self.cols);
        if self.cols.is_empty() {
            // Every tuple projects to the empty row: the key holds that one row.
            self.rows += 1;
        } else {
            self.dedup.reset(fetched as usize);
            for idx in start..start + fetched as usize {
                if self.dedup.insert(&self.cols, idx, self.rows) {
                    let at = self.rows;
                    self.cols.iter_mut().for_each(|col| col.swap(at, idx));
                    self.rows += 1;
                }
            }
            self.cols.iter_mut().for_each(|col| col.truncate(self.rows));
        }
        let range = ArenaRange {
            segment: self.sealed.len(),
            start,
            len: self.rows - start,
        };
        (fetched, range)
    }

    /// The value at row `j`, fetched position `c` of `range`.
    fn value(&self, range: ArenaRange, j: usize, c: usize) -> &Value {
        match self.sealed.get(range.segment) {
            Some(batch) => batch.value(range.start + j, c),
            None => &self.cols[c][range.start + j],
        }
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
        segment.slice(range.start..range.start + range.len)
    }
}

/// One probe's postings, wherever they live.
#[derive(Debug, Clone)]
enum Postings<'db> {
    /// Fetched by this operator, at most one tuple: read where it lies in the store.
    Tuple(Option<&'db [Value]>),
    /// Fetched by this operator, two or more tuples: a range of its arena.
    Arena(ArenaRange),
    /// Served — or just published — by the session cache, in its entry shape
    /// (pre-projected when [`KeyedLookupOp::fused_emit`] is set).
    Cached(Arc<Batch>),
}

impl Postings<'_> {
    /// Rows held.
    fn len(&self) -> usize {
        match self {
            Postings::Tuple(tuple) => usize::from(tuple.is_some()),
            Postings::Arena(range) => range.len,
            Postings::Cached(batch) => batch.len(),
        }
    }
}

/// The fused `σ[key equalities](source × fetch(X ∈ source, R, …))`: an index
/// nested-loop join. Streams the source; for each row, probes the index with the row's
/// key (once per distinct key — results are retained so the data access is identical
/// to a fetch over the deduplicated key set), gathers the concatenation with every
/// match into output columns, and applies the residual predicates. A source batch's
/// keys are staged and resolved together, then settled row by row (the two passes of
/// the module docs).
///
/// Durable state is the [`PostingArena`], bounded by the fetch's access-schema bound
/// times the number of distinct multi-tuple keys; its columns come from the thread's
/// pool and go back on exhaustion, its rows are released then (or on drop if a
/// consumer short-circuits). A single-tuple key holds nothing: its tuple stays in the
/// store, which outlives the operator. Neither the cross product nor the fetched table
/// is ever materialized.
///
/// In a session with a cache, the session's cross-query cache sits in front of the
/// memo, trading in `Arc<Batch>`. A hit there is emitted from the cached batch; a fill
/// claim is resolved by the same miss ([`KeyedLookupOp::fetch`]) followed by
/// publishing a compact copy of the key's postings.
pub(crate) struct KeyedLookupOp<'db> {
    input: BoxOp<'db>,
    fetch: FetchStep<'db>,
    /// The step's residual predicates, with the run's constants read in.
    residual: Cow<'db, [Predicate]>,
    /// Which columns of the *combined* row (source columns, then fetched positions) to
    /// emit. `None` emits all of them; `Some` is a projection the operator-tree builder
    /// fused in from a directly consuming `Project` step, so values the projection
    /// would discard are never gathered in the first place.
    out_cols: Option<&'db [usize]>,
    store: Store<'db>,
    state: SharedState,
    arena: PostingArena<'db>,
    /// Whether the arena's memo is kept: false when the plan proves the source never
    /// repeats a key ([`KeyedLookupOp::distinct_keys`]).
    memo: bool,
    /// Arena rows this operator holds on the residency ledger.
    cached_rows: u64,
    /// The session's cross-query cache, probed before the memo. Resolved together
    /// with [`KeyedLookupOp::fused_emit`] — the fused pre-projection is part of the
    /// entry shape — by [`KeyedLookupOp::ensure_fused_emit`].
    session: SessionCache,
    /// Reusable probe-key buffer: pass 1 gathers every key into it and hashes it once,
    /// moving a key nothing held on into `pass`; pass 2 moves it back when a tier needs
    /// it, and a miss *moves* its values into the memo's key columns, keeping the
    /// buffer.
    key_scratch: HashedRow,
    /// Pass 1's verdict on each row of the current source batch, in row order.
    found: Vec<Found<'db>>,
    pass: Pass<'db>,
    tally: ProbeTally,
    /// `Some(left_arity)` when the emission is exactly a projection of the fetched
    /// columns: no residual predicates and a fused projection keeping only fetched
    /// columns — column `k` is fetched column `out_cols[k] - left_arity`
    /// ([`KeyedLookupOp::stored_col`]). Session-cache entries are then stored
    /// pre-projected. Decided once — input arity is fixed by the plan — by
    /// [`KeyedLookupOp::ensure_fused_emit`].
    fused_emit: Option<usize>,
    fused_checked: bool,
    /// Slices of an anchor emission past [`BATCH_SIZE`] rows not yet emitted
    /// ([`KeyedLookupOp::sliced`]).
    pending: VecDeque<Batch>,
    done: bool,
}

impl<'db> KeyedLookupOp<'db> {
    pub(crate) fn new(
        input: BoxOp<'db>,
        fetch: FetchStep<'db>,
        residual: Cow<'db, [Predicate]>,
        out_cols: Option<&'db [usize]>,
        store: Store<'db>,
        state: SharedState,
    ) -> Self {
        let (cols, keys, key_scratch) = {
            let mut state = state.borrow_mut();
            let cols = (0..fetch.positions.len()).map(|_| state.pool.get_values());
            let cols: Vec<_> = cols.collect();
            let keys = (0..fetch.key_cols.len()).map(|_| state.pool.get_values());
            let keys = RowTable::new("a keyed lookup", keys.collect());
            (cols, keys, HashedRow::new(state.pool.get_values()))
        };
        let pass = Pass::new(fetch.key_cols.len(), &state);
        Self {
            input,
            fetch,
            residual,
            out_cols,
            store,
            state,
            arena: PostingArena {
                sealed: Vec::new(),
                cols,
                rows: 0,
                keys,
                held: Vec::new(),
                dedup: RowSet::default(),
            },
            memo: true,
            cached_rows: 0,
            session: None,
            key_scratch,
            found: Vec::new(),
            pass,
            tally: ProbeTally::default(),
            fused_emit: None,
            fused_checked: false,
            pending: VecDeque::new(),
            done: false,
        }
    }

    /// Drop the arena's memo when `distinct`: the plan proves the source never repeats
    /// a key (`PhysicalPlan::keys_distinct`), so every probe is a first probe and a
    /// memo would only cost a slot walk and a key insert per miss.
    pub(crate) fn distinct_keys(mut self, distinct: bool) -> Self {
        self.memo = !distinct;
        self
    }

    /// Where the postings of the key in `key_scratch` lie, if the memo remembers them.
    fn remembered(&self) -> Option<Postings<'db>> {
        if !self.memo {
            return None;
        }
        self.arena.find(&self.key_scratch)
    }

    /// The value at row `j`, fetched position `c`, of postings this operator fetched.
    fn local_value(&self, postings: &Postings<'db>, j: usize, c: usize) -> &Value {
        match postings {
            Postings::Tuple(Some(tuple)) => &tuple[self.fetch.positions[c]],
            Postings::Arena(range) => self.arena.value(*range, j, c),
            Postings::Tuple(None) | Postings::Cached(_) => {
                unreachable!("no row {j} of the fetched postings here")
            }
        }
    }

    /// The fetched column behind column `k` of a key's postings as the session cache
    /// stores them: `k` itself, or under a fused emission
    /// ([`KeyedLookupOp::fused_emit`]) the fetched column that the emission's `k`-th
    /// column reads.
    fn stored_col(&self, k: usize) -> usize {
        match (self.fused_emit, self.out_cols) {
            (Some(left_arity), Some(cols)) => cols[k] - left_arity,
            _ => k,
        }
    }

    /// How many columns a key's postings have as the session cache stores them.
    fn stored_width(&self) -> usize {
        match (self.fused_emit, self.out_cols) {
            (Some(_), Some(cols)) => cols.len(),
            _ => self.fetch.positions.len(),
        }
    }

    /// A compact standalone copy of postings this operator fetched, projected onto
    /// the fused emission when there is one — what a fill claim publishes. Cache
    /// maintenance, off the cache-off path, so its clones are not `values_cloned`.
    fn copy_out(&self, postings: &Postings<'db>) -> Batch {
        let column = |k: usize| -> Vec<Value> {
            let c = self.stored_col(k);
            let rows = 0..postings.len();
            rows.map(|j| self.local_value(postings, j, c).clone())
                .collect()
        };
        let columns = (0..self.stored_width()).map(column).collect();
        Batch::from_dense(columns, postings.len())
    }

    /// Decide once whether the emission is a pure projection of the fetched columns;
    /// see [`KeyedLookupOp::fused_emit`]. Input arity is plan-fixed, so the first
    /// batch settles it for the operator's lifetime.
    fn ensure_fused_emit(&mut self, left_arity: usize) {
        if self.fused_checked {
            return;
        }
        self.fused_checked = true;
        if self.residual.is_empty() {
            if let Some(cols) = self.out_cols {
                if cols.iter().all(|&c| c >= left_arity) {
                    self.fused_emit = Some(left_arity);
                }
            }
        }
        // The fused pre-projection is baked into cached batches, so it is part of
        // the session-cache entry shape — resolve the operator's space only now
        // that it is settled.
        let emit = || {
            let fused = self.fused_emit.is_some();
            fused.then(|| {
                (0..self.stored_width())
                    .map(|k| self.stored_col(k))
                    .collect()
            })
        };
        self.session = self.fetch.session(&self.state, emit);
    }

    /// Pass 1 over `batch` (see the module docs): gather and hash every row's key once,
    /// keep what a tier already holds, and resolve the rest in one batched walk.
    /// `found` gets one entry per row, in row order. Takes no claim, never waits.
    fn stage(&mut self, batch: &Batch) -> Result<()> {
        self.found.clear();
        self.found.reserve(batch.len());
        self.pass.begin(batch.len());
        for i in 0..batch.len() {
            self.key_scratch.gather(batch, i, self.fetch.key_cols);
            let found = match self.held() {
                Some(postings) => Found::Held(postings),
                None => Found::Missed(self.pass.miss(&mut self.key_scratch)),
            };
            self.found.push(found);
        }
        self.pass.resolve(self.store, self.fetch.constraint_index)?;
        // One probe-key gather per source row, hit or miss.
        self.tally.values_cloned += (self.found.len() * self.fetch.key_cols.len()) as u64;
        Ok(())
    }

    /// What a tier already holds for the key in `key_scratch`, asked in protocol order
    /// without claiming or waiting: the session cache (a hit is stamped and counted
    /// exactly like a probe's), then the arena's memo.
    fn held(&mut self) -> Option<Postings<'db>> {
        if let Some((cache, space)) = &self.session {
            if let Some(batch) = cache.lookup(space, &self.key_scratch) {
                self.tally.served(batch.len());
                return Some(Postings::Cached(batch));
            }
        }
        self.remembered()
    }

    /// Pass 2 for one row: a pass-1 hit as it was found; otherwise the row's key,
    /// moved back into `key_scratch`, through the per-row protocol — or, when no tier
    /// would probe or remember the key, straight to the store's answer.
    fn settle(&mut self, found: Found<'db>) -> Result<Postings<'db>> {
        match found {
            Found::Held(postings) => Ok(postings),
            Found::Missed(p) if self.session.is_none() && !self.memo => Ok(self.fetch(p)),
            Found::Missed(p) => {
                self.pass.take_key(p, &mut self.key_scratch);
                self.lookup(p)
            }
        }
    }

    /// The (projected, per-key deduplicated) fetch result for the key in
    /// `key_scratch`, which pass 1 resolved as probe `p`. The session tier is probed
    /// before the memo: a hit charges only the cache counters; a miss claims the key
    /// session-wide, resolves it through the memo — charging exactly the uncached
    /// costs — and publishes a copy of the result for every later probe.
    fn lookup(&mut self, p: usize) -> Result<Postings<'db>> {
        let Some((cache, space)) = self.session.clone() else {
            return self.lookup_in_query(p);
        };
        match cache.probe(&space, &self.key_scratch) {
            SessionProbe::Hit(batch) => {
                self.tally.served(batch.len());
                Ok(Postings::Cached(batch))
            }
            SessionProbe::Fill => {
                // A repeat of a key this query already fetched, whose copy the cache
                // declined or has evicted since: withdraw the claim and read the
                // postings where they lie rather than copy them again.
                if let Some(repeat) = self.remembered() {
                    cache.abort(&space, &self.key_scratch);
                    return Ok(repeat);
                }
                // A miss moves the scratch's values into the memo's key columns;
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
                let postings = self.lookup_in_query(p)?;
                // A list the cache would not admit is not copied out: the claim is
                // withdrawn when it drops.
                if cache.admits(postings.len()) {
                    claim.publish = Some(match &postings {
                        Postings::Cached(batch) => Arc::clone(batch),
                        fetched => Arc::new(self.copy_out(fetched)),
                    });
                }
                Ok(postings)
            }
        }
    }

    /// The arena's memo, resolving a miss through [`KeyedLookupOp::fetch`].
    fn lookup_in_query(&mut self, p: usize) -> Result<Postings<'db>> {
        if let Some(repeat) = self.remembered() {
            return Ok(repeat);
        }
        let postings = self.fetch(p);
        if self.memo {
            self.arena
                .remember(&mut self.key_scratch, postings.clone())?;
        }
        Ok(postings)
    }

    /// The one miss path, tallying its costs — an index lookup and the fetch
    /// accounting. At most one tuple is read where it lies: nothing to deduplicate,
    /// nothing copied, nothing held. More are projected and per-key deduplicated onto
    /// the arena's open segment, acquiring residency for the rows now held.
    fn fetch(&mut self, p: usize) -> Postings<'db> {
        self.tally.index_lookups += 1;
        let mut tuples = self.pass.resolved[p].clone();
        if tuples.len() <= 1 {
            self.fetch.fetched(&self.state, tuples.len() as u64);
            return Postings::Tuple(tuples.next());
        }
        let (fetched, range) = self.arena.append(tuples, self.fetch.positions);
        self.tally.values_cloned += fetched * self.fetch.positions.len() as u64;
        self.fetch.fetched(&self.state, fetched);
        self.state.borrow_mut().acquire(range.len as u64);
        self.cached_rows += range.len as u64;
        Postings::Arena(range)
    }

    /// Move the probes' tally into the shared statistics.
    fn flush_tally(&mut self) {
        self.tally.flush(&mut self.state.borrow_mut().stats);
    }

    /// An anchor emission of more than [`BATCH_SIZE`] rows cut into slices of that
    /// size, zero value copies: the first is returned, the rest queued. A key that fans
    /// out past a batch's worth (a fetch's anchor above all) thus reaches the operators
    /// downstream batch by batch, in the batch size every operator is built for.
    fn sliced(&mut self, batch: Batch) -> Batch {
        let len = batch.len();
        if len <= BATCH_SIZE {
            return batch;
        }
        let slice = |start: usize| batch.slice(start..len.min(start + BATCH_SIZE));
        self.pending
            .extend((BATCH_SIZE..len).step_by(BATCH_SIZE).map(slice));
        slice(0)
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
                let c = self.out_cols.map_or(k, |cols| cols[k]);
                sink.push(combined(c).clone());
            }
            emitted += 1;
        }
        emitted
    }
}

impl Operator for KeyedLookupOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        #[cfg(test)]
        if self.fetch.relation == super::PANIC_RELATION {
            panic!("injected operator panic");
        }
        if let Some(slice) = self.pending.pop_front() {
            return Ok(Some(slice));
        }
        if self.done {
            return Ok(None);
        }
        let Some(batch) = self.input.next_batch()? else {
            self.done = true;
            self.flush_tally();
            let mut state = self.state.borrow_mut();
            state.stats.fetch_ops += 1;
            state.release(self.cached_rows);
            self.cached_rows = 0;
            // The arena's open columns, its key columns, the key scratch and pass 1's
            // key buffer go back to the pool, cleared, for the thread's next probe loop; sealed segments
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
        self.ensure_fused_emit(left_arity);
        self.stage(&batch)?;
        let mut found = std::mem::take(&mut self.found);
        // Anchor fast path: a single source row, no residual, and a fused projection
        // that keeps only fetched columns — the output *is* the key's projected
        // postings, emitted as a batch over the storage that already holds them (an
        // session-cache entry, or the arena segment, sealed): zero value clones and, on
        // a warm session cache, zero allocations. This is the first lookup of every
        // anchored plan, where the fan-out (and hence the row-pipeline's copy bill) is
        // largest — and the whole body of the steady-state serving loop. A tuple read
        // in place has no such storage: it is gathered below like any row.
        if batch.len() == 1 && self.fused_emit.is_some() {
            if let Some(only) = found.pop() {
                let emitted = match self.settle(only)? {
                    Postings::Cached(cached) => Some((*cached).clone()),
                    Postings::Arena(range) => {
                        let sealed = self.arena.seal(range);
                        Some(sealed.project_map(self.stored_width(), |k| self.stored_col(k)))
                    }
                    tuple => {
                        found.push(Found::Held(tuple));
                        None
                    }
                };
                if let Some(emitted) = emitted {
                    self.found = found;
                    self.flush_tally();
                    return Ok(Some(self.sliced(emitted)));
                }
            }
        }
        let out_arity = self
            .out_cols
            .map_or(left_arity + self.fetch.positions.len(), <[usize]>::len);
        let mut out: Vec<Vec<Value>> = {
            let mut state = self.state.borrow_mut();
            (0..out_arity).map(|_| state.pool.get_values()).collect()
        };
        let mut out_rows = 0usize;
        for (i, row) in found.drain(..).enumerate() {
            out_rows += match self.settle(row)? {
                Postings::Cached(cached) => {
                    self.emit(&batch, i, cached.len(), |j, c| cached.value(j, c), &mut out)
                }
                // What this operator fetched holds the raw fetched positions; a fused
                // emission reads them through its projection.
                fetched => {
                    let value = |j, c: usize| self.local_value(&fetched, j, self.stored_col(c));
                    self.emit(&batch, i, fetched.len(), value, &mut out)
                }
            };
        }
        self.found = found;
        self.tally.values_cloned += (out_rows * out_arity) as u64;
        self.flush_tally();
        Ok(Some(Batch::from_dense(out, out_rows)))
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
            positions: &'db [usize],
            residual: Vec<Predicate>,
            out_cols: Option<&'db [usize]>,
        ) -> KeyedLookupOp<'db> {
            let fetch = FetchStep {
                step: 0,
                relation: "R",
                key_cols: &[0],
                x_attrs: &[0],
                positions,
                constraint_index: 0,
            };
            KeyedLookupOp::new(
                Box::new(Script(pulls.into())),
                fetch,
                Cow::Owned(residual),
                out_cols,
                idb,
                self.state.clone(),
            )
        }

        /// The counters so far, fetches attributed to `R`.
        pub(crate) fn stats(&self) -> crate::stats::AccessStats {
            let state = &mut *self.state.borrow_mut();
            state.fetched.drain_into(&mut state.stats, |_| "R");
            state.stats.clone()
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
        // 6 probe keys + key 1's 3 tuples × 3 positions (key 2's one tuple is read in
        // place) + 11 emitted rows × 4 columns.
        assert_eq!(stats.values_cloned, 6 + 9 + 44);
        assert_eq!(
            h.ledger.peak(),
            3,
            "the arena held key 1's rows; key 2's tuple stayed in the store"
        );
        assert_eq!(h.ledger.resident(), 0, "exhaustion releases the arena");
    }

    #[test]
    fn dropping_the_distinguishing_column_still_dedups_per_key() {
        let idb = store();
        let h = Harness::new();
        // Without `w`, key 1's first two tuples project equal: the kernel compacts
        // the duplicate away. Key 2's one tuple is read in place.
        let pulls = vec![Ok(ints(&[&[1], &[2], &[1]]))];
        let mut op = h.lookup(&idb, pulls, &[0, 1], Vec::new(), Some(&[1, 2]));
        assert_eq!(
            drain(&mut op),
            [[[1, 10], [1, 11], [2, 20], [1, 10], [1, 11]].map(Vec::from)]
        );
        let stats = h.stats();
        assert_eq!(stats.tuples_fetched, 4, "duplicates are read, then dropped");
        assert_eq!(
            h.ledger.peak(),
            2,
            "only key 1's distinct projections stay resident"
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
            Some(&[1, 4, 0]),
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
        let mut op = h.lookup(&idb, pulls, &[0, 2], Vec::new(), Some(&[2]));
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
        // 4 probe keys + key 1's 3 tuples × 2 positions + the gathered batch's 3 rows ×
        // 1 column; the two anchor emissions clone nothing.
        assert_eq!(stats.values_cloned, 4 + 6 + 3);
        assert_eq!(h.ledger.resident(), 0);
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
        let mut found = std::mem::take(&mut op.found).into_iter();
        let first = op.settle(found.next().unwrap()).unwrap();
        assert!(matches!(first, Postings::Arena(range) if range.len == 3));
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
        // With the memo kept and dropped alike.
        for distinct in [false, true] {
            let lookup = |h: &Harness, pulls| {
                h.lookup(&idb, pulls, &[0, 1, 2], Vec::new(), None)
                    .distinct_keys(distinct)
            };

            // Dropped after one batch: the arena's rows are released by `Drop`; key
            // 2's one tuple was never held.
            let h = Harness::new();
            let mut op = lookup(&h, vec![Ok(ints(&[&[1], &[2]])), Ok(ints(&[&[3]]))]);
            assert_eq!(op.next_batch().unwrap().unwrap().len(), 4);
            assert_eq!(h.ledger.resident(), 3);
            drop(op);
            assert_eq!(h.ledger.resident(), 0);

            // The source fails while the arena holds rows.
            let h = Harness::new();
            let pulls = vec![
                Ok(ints(&[&[1], &[2]])),
                Err(Error::invalid("source failed")),
            ];
            let mut op = lookup(&h, pulls);
            assert!(op.next_batch().unwrap().is_some());
            assert!(op.next_batch().is_err());
            drop(op);
            assert_eq!(h.ledger.resident(), 0);

            // A probe fails inside a batch (the key arity does not fit the
            // constraint): nothing was acquired for it, and nothing leaks.
            let h = Harness::new();
            let mut op = lookup(&h, vec![Ok(ints(&[&[1], &[2]]))]);
            (op.fetch.key_cols, op.pass.arity) = (&[0, 0], 2);
            assert!(op.next_batch().is_err());
            assert_eq!(h.stats().tuples_fetched, 0);
            drop(op);
            assert_eq!(h.ledger.resident(), 0);
        }
    }

    /// One lookup fetching every position of `R` over `pulls` and emitting `out_cols`,
    /// its memo dropped when `distinct`, its session cache off or `cold`: what it
    /// emitted (flattened, in order), its counters and its peak residency. The ledger
    /// is back at zero afterwards.
    fn run_lookup(
        idb: &IndexedDatabase,
        pulls: Vec<Result<Batch>>,
        out_cols: Option<&[usize]>,
        distinct: bool,
        cold: bool,
    ) -> (Vec<Vec<i64>>, crate::stats::AccessStats, u64) {
        let h = Harness::new();
        if cold {
            h.state.borrow_mut().cache = Some(Arc::new(SessionFetchCache::new(1_000)));
        }
        let mut op = h
            .lookup(idb, pulls, &[0, 1, 2], Vec::new(), out_cols)
            .distinct_keys(distinct);
        let out = drain(&mut op).concat();
        drop(op);
        assert_eq!(h.ledger.resident(), 0);
        (out, h.stats(), h.ledger.peak())
    }

    #[test]
    fn single_tuple_keys_and_memo_free_lookups_change_only_copies() {
        let idb = store();
        // Key 1 matches three tuples, key 2 one, key 3 none.
        let postings = |key: i64| match key {
            1 => vec![[1, 10, 100], [1, 10, 101], [1, 11, 100]],
            2 => vec![[2, 20, 200]],
            _ => Vec::new(),
        };
        let repeated: &[&[i64]] = &[&[1], &[2], &[3], &[2], &[1], &[3], &[2], &[1]];
        let distinct: &[&[i64]] = &[&[2], &[1], &[3]];
        // The full combined row, and a fused projection onto `(v, w)`, whose one-row
        // batches take the anchor path.
        for out_cols in [None, Some(&[2, 3][..])] {
            let expected = |rows: &[&[i64]]| -> Vec<Vec<i64>> {
                let joined = rows.iter().flat_map(|row| {
                    let tuples = postings(row[0]).into_iter();
                    tuples.map(|tuple| [row[0]].into_iter().chain(tuple).collect::<Vec<_>>())
                });
                let project = |row: Vec<i64>| match &out_cols {
                    Some(cols) => cols.iter().map(|&c| row[c]).collect(),
                    None => row,
                };
                joined.map(project).collect()
            };
            let mut per_feed = Vec::new();
            for feed in 0..3 {
                let pulls = |rows| feeds(rows).into_iter().nth(feed).unwrap();
                let corner = format!("feed {feed}, columns {out_cols:?}");

                // Repeated keys keep the memo. A cold session serves a key's repeats
                // from the cache, but fetches, holds and demands what the cache-off
                // run does.
                let off = run_lookup(&idb, pulls(repeated), out_cols, false, false);
                let cold = run_lookup(&idb, pulls(repeated), out_cols, false, true);
                assert_eq!(off.0, expected(repeated), "{corner}");
                assert_eq!(cold.0, off.0, "{corner}");
                let (stats, cold_stats) = (&off.1, &cold.1);
                assert_eq!((stats.index_lookups, stats.tuples_fetched), (3, 4));
                assert!(cold_stats.same_data_access(stats), "{corner}");
                assert_eq!(cold_stats.allocs_per_probe, stats.allocs_per_probe);
                assert_eq!((cold_stats.cache_hits, stats.cache_hits), (5, 0));
                // Only key 1's three rows are ever held.
                assert_eq!((off.2, cold.2), (3, 3), "{corner}");
                if out_cols.is_none() {
                    // 8 probe keys + key 1's 3 tuples × 3 positions + 12 rows × 4.
                    assert_eq!(stats.values_cloned, 8 + 9 + 48, "{corner}");
                    assert_eq!(cold_stats.values_cloned, stats.values_cloned);
                    per_feed.push(off);
                }

                // Distinct keys: dropping the memo, or a cold session, changes nothing
                // at all.
                let kept = run_lookup(&idb, pulls(distinct), out_cols, false, false);
                let dropped = run_lookup(&idb, pulls(distinct), out_cols, true, false);
                let cold = run_lookup(&idb, pulls(distinct), out_cols, true, true);
                assert_eq!(kept.0, expected(distinct), "{corner}");
                assert_eq!(dropped, kept, "{corner}");
                assert_eq!(cold, kept, "{corner}");
            }
            // Batching is invisible where no one-row batch takes the anchor path.
            assert!(per_feed.windows(2).all(|pair| pair[0] == pair[1]));
        }
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
        // With the memo kept and dropped alike.
        let runs = [false, true]
            .map(|distinct| feeds(&[&[2], &[1], &[2], &[3]]).map(|pulls| (distinct, pulls)));
        for (distinct, pulls) in runs.into_iter().flatten() {
            let h = Harness::new();
            h.state.borrow_mut().cache = Some(cache.clone());
            let op = h.lookup(&idb, pulls, &[0, 1, 2], Vec::new(), None);
            let mut op = op.distinct_keys(distinct);
            op.fetch.constraint_index = 7;
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
