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
//! cloned to decide freshness. The arena holds no fetched column whose attribute is in
//! the constraint's `X`: every such value equals the probe key, so the arena neither
//! copies nor compares it, and a residual or an emission that reads it reads the source
//! row's key column instead (Q0's anchor copies `aid` but not `date`). Only an `X`
//! column a fused emission keeps is held, since an anchor shares the arena's columns as
//! they are. A key that matched at most one tuple (every probe of a bound-1 constraint)
//! is neither hashed nor copied: it is read where the tuple lies in the store —
//! residual predicates and the emission read it there, and only emitted values are
//! cloned. Its memo, which serves a repeated key from the arena or the store, exists
//! only where keys can repeat: when the plan proves that the source never repeats a key
//! ([`PhysicalPlan::keys_distinct`]), every probe is a first probe and nothing is
//! remembered.
//!
//! [`PhysicalPlan::keys_distinct`]: bea_core::plan::PhysicalPlan::keys_distinct
//!
//! # One pass per source batch
//!
//! [`KeyedLookupOp`] stages a source batch in one pass over its rows. It gathers and
//! hashes each row's key once and finds or inserts it in the memo's [`RowTable`]: one
//! probe, which gives the key's *position* (where the memo is dropped, a row's number is
//! its position). The keys new to the operator go to one `resolve`, and the rows are
//! then emitted in order, each from its position's postings.
//!
//! The memo is the engine's one lookup cache, and it lives as long as its query: the
//! tiers are the memo, then the store. As the paper's `fetch(X ∈ T, R, Y)` reads the
//! index once per distinct `X`-value of `T`, the operator looks each distinct key up
//! once, and serves every repeat from what it found the first time it looked. Nothing
//! is kept across queries: a ticket prices the uncached worst case anyway, and on the
//! immutable in-memory store a probe of a dense integer key is a subtraction.
//!
//! # The probe path's allocation budget
//!
//! The probe path demands no buffer per key, hit or miss — which is why nothing
//! charges [`crate::stats::AccessStats::allocs_per_probe`]. Every row's key is gathered
//! into one reusable scratch and hashed once; a key new to the memo is cloned into its
//! flat key columns (O(1) per value, as δ's seen set does), a missed key is moved into
//! the batch's flat probe buffer, and multi-tuple postings are appended to the arena's
//! value columns, all drawn from the thread's [`super::BufferPool`] once per operator
//! instance. A repeat is a slot walk plus emission from where its postings lie.
//!
//! Per operator instance, what remains is its box, its column lists and its staging
//! vectors: the step's key columns, positions, relation and predicates are borrowed
//! from the plan ([`FetchStep`]; only a residual that compares with a request's
//! constant is a copy, with the constant in), the key scratch and every pooled column
//! come from the thread's pool, which outlives the query, and the fused emission is a
//! flag, not a column list. `tests/alloc_budget.rs` holds the model to the
//! allocator: a cold Q0 stays under a fixed number of heap allocations, whatever it
//! fetches; `crates/bead/tests/alloc_request.rs` bounds a whole served request.
//!
//! # Access accounting
//!
//! The operator does not touch the shared [`crate::stats::AccessStats`] per key:
//! lookups and clones accumulate in an operator-local tally of the same
//! type, flushed once per pull and on drop — an error or a short-circuiting consumer
//! loses nothing. So do a miss's fetched tuples, which the flush adds to the query's
//! flat per-step tally ([`crate::stats::FetchTally`]) — a step that probed is reported
//! even if it fetched nothing. That tally names no relation and allocates nothing once the
//! thread's state has grown to its plans; it is written into the query's per-relation
//! map when the query finishes.

use super::batch::{hash_row_at, passes_with, rows_equal_at, Batch, HashedRow, RowTable};
use super::{BoxOp, Operator, SharedState, BATCH_SIZE};
use crate::stats::AccessStats;
use bea_core::error::Result;
use bea_core::plan::{PhysOp, PhysicalPlan, Predicate};
use bea_core::value::Value;
use bea_storage::{FetchIter, Probes, Store};
use std::borrow::Cow;
use std::collections::VecDeque;

/// The keys of the current source batch new to the operator, queued for one `resolve`:
/// moved in flat, `arity` values each, with their carried hashes, and what `resolve`
/// returned for each. The flat buffer is drawn from the thread's pool.
#[derive(Default)]
struct Misses<'db> {
    arity: usize,
    keys: Vec<Value>,
    hashes: Vec<u64>,
    resolved: Vec<FetchIter<'db>>,
}

impl<'db> Misses<'db> {
    /// Start a batch of up to `keys` misses: forget the last one, and grow once instead
    /// of per key.
    fn begin(&mut self, keys: usize) {
        self.keys.clear();
        self.keys.reserve(keys * self.arity);
        self.hashes.clear();
        self.hashes.reserve(keys);
    }

    /// Resolve every queued key of `constraint` in one batched walk (nothing to do when
    /// the memo held every key — and then no fetch error either, as in a per-key loop).
    fn resolve(&mut self, store: Store<'db>, constraint: usize) -> Result<()> {
        if self.hashes.is_empty() {
            return Ok(());
        }
        let (arity, keys, hashes) = (self.arity, &self.keys, &self.hashes);
        let probes = Probes {
            arity,
            keys,
            hashes,
        };
        store.resolve(constraint, probes, &mut self.resolved)
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
    /// How many columns the source has.
    pub(crate) source_arity: usize,
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
                source,
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
                source_arity: plan.steps()[*source].columns.len(),
                x_attrs,
                positions,
                constraint_index: *constraint_index,
            }),
            _ => None,
        }
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

/// The fetched columns a [`PostingArena`] does not hold, as bits by column: those whose
/// attribute is in the constraint's `X`. A fetched tuple's `X` attributes equal the
/// probe key (the fused key equality), so whoever reads such a column reads the key —
/// the source row's key column — instead, and the arena neither copies nor hashes it.
/// Columns past the 64th are always held.
#[derive(Debug, Clone, Copy, Default)]
struct Elided(u64);

impl Elided {
    /// The columns of `fetch`'s positions that are in its `X`, except those `kept`.
    fn of(fetch: &FetchStep<'_>, kept: impl Fn(usize) -> bool) -> Self {
        let columns = fetch.positions.iter().enumerate().take(64);
        let in_x = columns.filter(|&(c, p)| fetch.x_attrs.contains(p) && !kept(c));
        Elided(in_x.fold(0, |bits, (c, _)| bits | 1 << c))
    }

    fn contains(self, c: usize) -> bool {
        c < 64 && self.0 >> c & 1 == 1
    }

    /// Where fetched column `c` of `fetch` lies in the arena: its column there, or the
    /// index in the key of the value it equals.
    fn locate(self, fetch: &FetchStep<'_>, c: usize) -> Located {
        if !self.contains(c) {
            let below = if c < 64 {
                self.0 & ((1 << c) - 1)
            } else {
                self.0
            };
            return Located::Arena(c - below.count_ones() as usize);
        }
        let position = fetch.positions[c];
        let key = fetch.x_attrs.iter().position(|&x| x == position);
        Located::Key(key.expect("an elided column is a key attribute"))
    }
}

/// Where a fetched column lies for postings in a [`PostingArena`] ([`Elided::locate`]).
#[derive(Debug, Clone, Copy)]
enum Located {
    /// Column `c` of the arena.
    Arena(usize),
    /// Value `m` of the probe key.
    Key(usize),
}

/// The keyed lookup's per-query tier: the postings of every multi-tuple key the
/// operator fetched, appended by the fetch kernel into one set of growing value
/// columns, one per fetched column but the [`Elided`] ones; plus, where keys can
/// repeat, the memo that serves repeats: the keys the operator has seen in a
/// [`RowTable`], and at each key's position the postings it found for it.
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
    /// The memo's keys; unused where the memo is dropped.
    keys: RowTable,
    /// `held[p]` is where the postings at position `p` lie: in the store or the arena.
    /// Where the memo is dropped, it holds the current batch's rows.
    held: Vec<Postings<'db>>,
    dedup: RowSet,
}

impl<'db> PostingArena<'db> {
    /// Append the distinct `positions`-projections of a key's `tuples` — two or more —
    /// less the `elided` columns, to the open segment, in posting order,
    /// hash-then-compare deduplicated and compacted in place; the tuples read, and where
    /// the key's postings now lie. Distinct keys cannot produce equal projections as
    /// long as the key attributes survive in `positions` (lowering adds a global dedup
    /// when a pushed-down projection dropped them), so per-key dedup suffices; and the
    /// elided columns are equal across one key's tuples, so leaving them out of the
    /// comparison keeps the same rows.
    fn append(
        &mut self,
        tuples: FetchIter<'_>,
        positions: &[usize],
        elided: Elided,
    ) -> (u64, ArenaRange) {
        let start = self.rows;
        let held = positions.iter().enumerate();
        let held = held.filter(|&(c, _)| !elided.contains(c)).map(|(_, p)| p);
        let fetched = tuples.project_into(held, &mut self.cols);
        if self.cols.is_empty() {
            // Every tuple projects to the key's row: the key holds that one row.
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

    /// The value at row `j`, arena column `c`, of `range`.
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

/// One key's postings, wherever they live.
#[derive(Debug, Clone)]
enum Postings<'db> {
    /// At most one tuple: read where it lies in the store.
    Tuple(Option<&'db [Value]>),
    /// Two or more tuples: a range of the arena.
    Arena(ArenaRange),
}

impl Postings<'_> {
    /// Rows held.
    fn len(&self) -> usize {
        match self {
            Postings::Tuple(tuple) => usize::from(tuple.is_some()),
            Postings::Arena(range) => range.len,
        }
    }
}

/// The fused `σ[key equalities](source × fetch(X ∈ source, R, …))`: an index
/// nested-loop join. Streams the source; for each row, probes the index with the row's
/// key (once per distinct key — results are retained so the data access is identical
/// to a fetch over the deduplicated key set), gathers the concatenation with every
/// match into output columns, and applies the residual predicates. A source batch is
/// staged in one pass, its misses resolved together, then emitted row by row (see the
/// module docs).
///
/// Durable state is the [`PostingArena`], bounded by the fetch's access-schema bound
/// times the number of distinct multi-tuple keys; its columns come from the thread's
/// pool and go back on exhaustion, its rows are released then (or on drop if a
/// consumer short-circuits). A single-tuple key holds nothing: its tuple stays in the
/// store, which outlives the operator. Neither the cross product nor the fetched table
/// is ever materialized.
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
    /// The fetched columns the arena leaves out: every `X` attribute but one a fused
    /// emission reads, whose anchor shares the arena's columns as they are. Settled
    /// with [`KeyedLookupOp::fused_emit`].
    elided: Elided,
    /// Arena rows this operator holds on the residency ledger.
    cached_rows: u64,
    /// Reusable probe-key buffer: every row's key is gathered into it and hashed once;
    /// a missed key's values *move* on into `misses`, keeping the buffer.
    key_scratch: HashedRow,
    /// Each row's memo position in [`PostingArena::held`], for the current source batch;
    /// empty where the memo is dropped, and a row's number is its position.
    rows: Vec<u32>,
    misses: Misses<'db>,
    /// What the probes have cost since the last flush ([`KeyedLookupOp::flush_tally`]).
    tally: AccessStats,
    /// Whether the emission is exactly a projection of the fetched columns: no residual
    /// predicates and a fused projection keeping only fetched columns — column `k` is
    /// fetched column `out_cols[k] - source_arity`. Decided when the operator is built,
    /// from the plan.
    fused_emit: bool,
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
        let (keys, key_scratch, misses) = {
            let mut state = state.borrow_mut();
            let keys = (0..fetch.key_cols.len()).map(|_| state.pool.get_values());
            let keys = RowTable::new("a keyed lookup", keys.collect());
            let misses = Misses {
                arity: fetch.key_cols.len(),
                keys: state.pool.get_values(),
                ..Misses::default()
            };
            (keys, HashedRow::new(state.pool.get_values()), misses)
        };
        let mut op = Self {
            input,
            fetch,
            residual,
            out_cols,
            store,
            state,
            arena: PostingArena {
                sealed: Vec::new(),
                cols: Vec::new(),
                rows: 0,
                keys,
                held: Vec::new(),
                dedup: RowSet::default(),
            },
            memo: true,
            elided: Elided::default(),
            cached_rows: 0,
            key_scratch,
            rows: Vec::new(),
            misses,
            tally: AccessStats::default(),
            fused_emit: false,
            pending: VecDeque::new(),
            done: false,
        };
        op.settle_emission();
        op
    }

    /// Drop the arena's memo when `distinct`: the plan proves the source never repeats
    /// a key (`PhysicalPlan::keys_distinct`), so every probe is a first probe and a
    /// memo would only cost a slot walk per row and a key clone per key.
    pub(crate) fn distinct_keys(mut self, distinct: bool) -> Self {
        self.memo = !distinct;
        self
    }

    /// The value at row `j`, fetched position `c`, of `postings`; `key(m)` is value `m`
    /// of their probe key, which an [`Elided`] column reads.
    fn local_value<'v>(
        &'v self,
        postings: &'v Postings<'db>,
        j: usize,
        c: usize,
        key: impl Fn(usize) -> &'v Value,
    ) -> &'v Value {
        match postings {
            Postings::Tuple(Some(tuple)) => &tuple[self.fetch.positions[c]],
            Postings::Arena(range) => match self.elided.locate(&self.fetch, c) {
                Located::Arena(column) => self.arena.value(*range, j, column),
                Located::Key(m) => key(m),
            },
            Postings::Tuple(None) => unreachable!("no row {j} of the fetched postings here"),
        }
    }

    /// Decide whether the emission is a pure projection of the fetched columns (see
    /// [`KeyedLookupOp::fused_emit`]), and which columns the arena holds.
    fn settle_emission(&mut self) {
        let left_arity = self.fetch.source_arity;
        let fetched_only = |cols: &[usize]| cols.iter().all(|&c| c >= left_arity);
        self.fused_emit = self.residual.is_empty() && self.out_cols.is_some_and(fetched_only);
        // An anchor shares the arena's columns, so those its emission reads are held.
        let fused = self
            .out_cols
            .filter(|_| self.fused_emit)
            .unwrap_or_default();
        let emitted = |c| fused.iter().any(|&col| col == left_arity + c);
        self.elided = Elided::of(&self.fetch, emitted);
        let held = (0..self.fetch.positions.len()).filter(|&c| !self.elided.contains(c));
        let mut state = self.state.borrow_mut();
        self.arena.cols = held.map(|_| state.pool.get_values()).collect();
    }

    /// Stage `batch` (see the module docs): give every row its key's position in
    /// [`PostingArena::held`], and fetch the keys new to the operator in one batched
    /// walk.
    fn stage(&mut self, batch: &Batch) -> Result<()> {
        self.rows.clear();
        self.misses.begin(batch.len());
        if self.memo {
            self.rows.reserve(batch.len());
        } else {
            self.arena.held.clear();
            self.arena.held.reserve(batch.len());
        }
        let first = self.arena.held.len();
        for i in 0..batch.len() {
            let key = &mut self.key_scratch;
            key.gather(batch, i, self.fetch.key_cols);
            if self.memo {
                let (seen, new) = self.arena.keys.insert(key.hash(), |c| &key.values()[c])?;
                self.rows.push(seen);
                if !new {
                    continue;
                }
                let rank = first + self.misses.hashes.len();
                debug_assert_eq!(seen as usize, rank, "an insertion rank");
            }
            // The key's values move on into the probe buffer.
            let misses = &mut self.misses;
            misses.hashes.push(key.move_into(&mut misses.keys));
        }
        // One probe-key gather per source row, hit or miss.
        self.tally.values_cloned += (batch.len() * self.fetch.key_cols.len()) as u64;
        self.misses
            .resolve(self.store, self.fetch.constraint_index)?;
        for p in 0..self.misses.hashes.len() {
            let postings = self.fetch(p);
            self.arena.held.push(postings);
        }
        Ok(())
    }

    /// The one miss path, for miss `p` of the batch, tallying its costs — an index
    /// lookup and the fetch accounting. At most one tuple is read where it lies:
    /// nothing to deduplicate, nothing copied, nothing held. More are projected and
    /// per-key deduplicated onto the arena's open segment, acquiring residency for the
    /// rows now held.
    fn fetch(&mut self, p: usize) -> Postings<'db> {
        self.tally.index_lookups += 1;
        let mut tuples = self.misses.resolved[p].clone();
        if tuples.len() <= 1 {
            self.tally.tuples_fetched += tuples.len() as u64;
            return Postings::Tuple(tuples.next());
        }
        let (fetched, range) = self.arena.append(tuples, self.fetch.positions, self.elided);
        self.tally.values_cloned += fetched * self.arena.cols.len() as u64;
        self.tally.tuples_fetched += fetched;
        self.state.borrow_mut().acquire(range.len as u64);
        self.cached_rows += range.len as u64;
        Postings::Arena(range)
    }

    /// Move the probes' tally into the query's counters, its fetched tuples under the
    /// step: reported once the step has probed the store, even if it matched nothing.
    fn flush_tally(&mut self) {
        let state = &mut *self.state.borrow_mut();
        let tuples = std::mem::take(&mut self.tally.tuples_fetched);
        if self.tally.index_lookups > 0 {
            state.fetched.add(self.fetch.step, tuples);
        }
        state.stats += std::mem::take(&mut self.tally);
    }

    /// Flush the tally and release the arena rows this operator holds.
    fn release(&mut self) {
        self.flush_tally();
        let rows = std::mem::take(&mut self.cached_rows);
        self.state.borrow_mut().release(rows);
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
    /// `fetched(j, c)` yields, `c` a fetched position, into `out`, applying the residual
    /// predicates. Returns the number of rows emitted.
    fn emit<'a>(
        &self,
        batch: &Batch,
        i: usize,
        len: usize,
        fetched: impl Fn(usize, usize) -> &'a Value,
        out: &mut [Vec<Value>],
    ) -> usize {
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
            self.release();
            let mut state = self.state.borrow_mut();
            state.stats.fetch_ops += 1;
            // The arena's open columns, its key columns, the key scratch and the probe
            // buffer go back to the pool, cleared, for the thread's next probe loop;
            // sealed segments stay with the consumers that share them.
            let scratch = std::mem::take(&mut self.key_scratch).into_values();
            let probes = std::mem::take(&mut self.misses.keys);
            let arena = &mut self.arena;
            let buffers = arena.cols.drain(..).chain(arena.keys.release());
            for col in buffers.chain([scratch, probes]) {
                state.pool.put_values(col);
            }
            return Ok(None);
        };
        let left_arity = batch.arity();
        debug_assert_eq!(left_arity, self.fetch.source_arity);
        self.stage(&batch)?;
        // Anchor fast path: a single source row, no residual, and a fused projection
        // that keeps only fetched columns — the output *is* the key's projected
        // postings, emitted as a batch over the arena segment that already holds them,
        // sealed: zero value clones. This is the first lookup of every anchored plan,
        // where the fan-out (and hence the row-pipeline's copy bill) is largest — and the
        // whole body of the steady-state serving loop. A tuple read in place has no such
        // storage: it is gathered below like any row.
        if batch.len() == 1 && self.fused_emit {
            let at = self.rows.first().map_or(0, |&at| at as usize);
            if let Postings::Arena(range) = self.arena.held[at] {
                let sealed = self.arena.seal(range);
                let cols = self.out_cols.unwrap_or_default();
                let column = |k: usize| match self.elided.locate(&self.fetch, cols[k] - left_arity)
                {
                    Located::Arena(column) => column,
                    Located::Key(_) => unreachable!("an anchor's columns are held"),
                };
                let emitted = sealed.project_map(cols.len(), column);
                self.flush_tally();
                return Ok(Some(self.sliced(emitted)));
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
        for i in 0..batch.len() {
            let at = self.rows.get(i).map_or(i, |&at| at as usize);
            let fetched = &self.arena.held[at];
            // An elided column of the fetched postings is the source row's key.
            let key = |m: usize| batch.value(i, self.fetch.key_cols[m]);
            let value = |j, c| self.local_value(fetched, j, c, key);
            out_rows += self.emit(&batch, i, fetched.len(), value, &mut out);
        }
        self.tally.values_cloned += (out_rows * out_arity) as u64;
        self.flush_tally();
        Ok(Some(Batch::from_dense(out, out_rows)))
    }
}

impl Drop for KeyedLookupOp<'_> {
    fn drop(&mut self) {
        // What a failed pull had tallied before its error.
        self.release();
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
        pub(crate) ledger: Rc<ResidencyLedger>,
        pub(crate) state: SharedState,
    }

    impl Harness {
        pub(crate) fn new() -> Self {
            let ledger = Rc::new(ResidencyLedger::default());
            let state = Rc::new(RefCell::new(ExecState::new(ledger.clone())));
            Self { ledger, state }
        }

        /// A lookup on `R` keyed by source column 0, fetching `positions`; its source has
        /// the arity of the first batch pulled, or one column.
        fn lookup<'db>(
            &self,
            idb: &'db IndexedDatabase,
            pulls: Vec<Result<Batch>>,
            positions: &'db [usize],
            residual: Vec<Predicate>,
            out_cols: Option<&'db [usize]>,
        ) -> KeyedLookupOp<'db> {
            let first = pulls.iter().find_map(|pull| pull.as_ref().ok());
            let fetch = FetchStep {
                step: 0,
                relation: "R",
                key_cols: &[0],
                source_arity: first.map_or(1, Batch::arity),
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
        // 6 probe keys + key 1's 3 tuples × 2 positions besides the key `k` (key 2's one
        // tuple is read in place) + 11 emitted rows × 4 columns.
        assert_eq!(stats.values_cloned, 6 + 6 + 44);
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
        // 4 probe keys + key 1's 3 tuples × 1 position besides the key `k` + the
        // gathered batch's 3 rows × 1 column; the two anchor emissions clone nothing.
        assert_eq!(stats.values_cloned, 4 + 3 + 3);
        assert_eq!(h.ledger.resident(), 0);
    }

    #[test]
    fn a_multi_tuple_anchor_copies_only_the_positions_besides_the_key() {
        let idb = store();
        // Key 1's three tuples through an anchor: a fused projection onto `(v, w)`
        // leaves the key `k` out of the arena, one onto `(k, w)` keeps it there, since
        // the emission shares the arena's columns.
        for (out_cols, held) in [(&[2, 3][..], 2), (&[1, 3][..], 3)] {
            let h = Harness::new();
            let pulls = vec![Ok(ints(&[&[1]]))];
            let mut op = h.lookup(&idb, pulls, &[0, 1, 2], Vec::new(), Some(out_cols));
            let rows = drain(&mut op).concat();
            let expected = [[1, 10, 100], [1, 10, 101], [1, 11, 100]]
                .map(|tuple| out_cols.iter().map(|&c| tuple[c - 1]).collect::<Vec<_>>());
            assert_eq!(rows, expected, "columns {out_cols:?}");
            let stats = h.stats();
            assert_eq!(stats.tuples_fetched, 3);
            // One probe key + 3 fetched tuples × the positions held; the anchor
            // emission clones nothing.
            assert_eq!(stats.values_cloned, 1 + 3 * held, "columns {out_cols:?}");
        }
    }

    #[test]
    fn a_residual_and_the_emission_read_an_elided_key_from_the_source_row() {
        let idb = store();
        // Combined row: source (k, x), fetched (k, v, w). The residual compares the
        // fetched `k` with a constant and `x` with the fetched `v`, and the emission
        // keeps the fetched `k` beside `w`: the arena holds `(v, w)` only.
        let residual = vec![
            Predicate::ColEqConst(2, Value::int(1)),
            Predicate::ColEqCol(1, 3),
        ];
        let h = Harness::new();
        let pulls = vec![Ok(ints(&[&[1, 10], &[2, 20], &[1, 11]]))];
        let mut op = h.lookup(&idb, pulls, &[0, 1, 2], residual, Some(&[2, 4]));
        assert_eq!(
            drain(&mut op),
            [[[1, 100], [1, 101], [1, 100]].map(Vec::from)]
        );
        // 3 probe keys + key 1's 3 tuples × (v, w) + 3 emitted rows × 2 columns.
        assert_eq!(h.stats().values_cloned, 3 + 3 * 2 + 3 * 2);
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
            (op.fetch.key_cols, op.misses.arity) = (&[0, 0], 2);
            assert!(op.next_batch().is_err());
            assert_eq!(h.stats().tuples_fetched, 0);
            drop(op);
            assert_eq!(h.ledger.resident(), 0);
        }
    }

    /// One lookup fetching every position of `R` over `pulls` and emitting `out_cols`,
    /// its memo dropped when `distinct`: what it emitted (flattened, in order), its
    /// counters and its peak residency. The ledger is back at zero afterwards.
    fn run_lookup(
        idb: &IndexedDatabase,
        pulls: Vec<Result<Batch>>,
        out_cols: Option<&[usize]>,
        distinct: bool,
    ) -> (Vec<Vec<i64>>, crate::stats::AccessStats, u64) {
        let h = Harness::new();
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

                // Repeated keys keep the memo, which serves every repeat.
                let off = run_lookup(&idb, pulls(repeated), out_cols, false);
                assert_eq!(off.0, expected(repeated), "{corner}");
                let stats = &off.1;
                assert_eq!((stats.index_lookups, stats.tuples_fetched), (3, 4));
                // Only key 1's three rows are ever held.
                assert_eq!(off.2, 3, "{corner}");
                if out_cols.is_none() {
                    // 8 probe keys + key 1's 3 tuples × 2 positions besides the key
                    // + 12 rows × 4.
                    assert_eq!(stats.values_cloned, 8 + 6 + 48, "{corner}");
                    per_feed.push(off);
                }

                // Distinct keys: dropping the memo changes nothing at all.
                let kept = run_lookup(&idb, pulls(distinct), out_cols, false);
                let dropped = run_lookup(&idb, pulls(distinct), out_cols, true);
                assert_eq!(kept.0, expected(distinct), "{corner}");
                assert_eq!(dropped, kept, "{corner}");
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

    /// A lookup fetching every position of `R` for each feed of `rows`; what it emitted
    /// (flattened, in order), its counters and its peak residency must not depend on
    /// how the rows were batched. Returns them.
    fn assert_batching_is_invisible(
        idb: &IndexedDatabase,
        rows: &[&[i64]],
    ) -> (Vec<Vec<i64>>, crate::stats::AccessStats) {
        let runs = feeds(rows).map(|pulls| {
            let h = Harness::new();
            let mut op = h.lookup(idb, pulls, &[0, 1, 2], Vec::new(), None);
            let out = drain(&mut op).concat();
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
        let (out, stats) = assert_batching_is_invisible(&idb, rows);
        assert_eq!(out.len(), 4 * 3 + 2);
        assert_eq!(
            stats.index_lookups, 3,
            "one per distinct key, absent included"
        );
        assert_eq!(stats.tuples_fetched, 4);
    }

    #[test]
    fn each_key_is_looked_up_once_per_tier() {
        let idb = store();
        let rows: &[&[i64]] = &[&[1], &[2], &[1], &[3], &[1]];
        let [one_batch, two_batches, _] = feeds(rows);
        // Per corner: the keys of each `resolve`, in order. With the memo kept, a key
        // new to the operator is resolved once, and the memo serves every repeat; with
        // it dropped, each row is a new position — the plan drops the memo only where
        // keys cannot repeat.
        type Corner = (bool, bool, &'static [&'static [i64]]);
        let corners: [Corner; 4] = [
            (true, false, &[&[1, 2, 3]]),
            (true, true, &[&[1, 2], &[3]]),
            (false, false, &[&[1, 2, 1, 3, 1]]),
            (false, true, &[&[1, 2], &[1, 3, 1]]),
        ];
        let ints_of = |keys: &[Value]| -> Vec<i64> {
            keys.iter()
                .map(|key| match key {
                    Value::Int(k) => *k,
                    other => panic!("unexpected {other}"),
                })
                .collect()
        };
        for (memo, split, sent) in corners {
            let corner = format!("memo {memo}, two batches {split}");
            let pulls = if split { &two_batches } else { &one_batch };
            let pulls = pulls.iter().map(|pull| Ok(pull.as_ref().unwrap().clone()));
            let h = Harness::new();
            let op = h.lookup(&idb, pulls.collect(), &[0, 1, 2], Vec::new(), None);
            let mut op = op.distinct_keys(!memo);
            // After a pull, the probe buffer holds what its batch sent to `resolve`.
            let (mut rows, mut resolved) = (0, Vec::new());
            while let Some(batch) = op.next_batch().unwrap() {
                rows += batch.len();
                resolved.push(ints_of(&op.misses.keys));
            }
            assert_eq!(rows, 3 + 1 + 3 + 3, "{corner}");
            resolved.retain(|keys| !keys.is_empty());
            assert_eq!(resolved, sent, "{corner}");
            let probes = sent.iter().map(|keys| keys.len() as u64).sum::<u64>();
            assert_eq!(h.stats().index_lookups, probes, "{corner}");
        }
    }

    #[test]
    fn a_failed_resolve_mid_batch_leaves_no_residency() {
        let idb = store();
        // The first batch fetches key 1's three tuples into the arena; then the step is
        // pointed at constraint 7, which does not exist, and the second batch fails to
        // resolve key 3 (its key 1 the memo holds, where there is one).
        for distinct in [false, true] {
            let h = Harness::new();
            let pulls = vec![Ok(ints(&[&[1], &[2]])), Ok(ints(&[&[1], &[3]]))];
            let op = h.lookup(&idb, pulls, &[0, 1, 2], Vec::new(), None);
            let mut op = op.distinct_keys(distinct);
            assert_eq!(op.next_batch().unwrap().unwrap().len(), 4);
            assert_eq!(h.ledger.resident(), 3);
            op.fetch.constraint_index = 7;
            assert!(op.next_batch().is_err(), "key 3 cannot be resolved");
            drop(op);
            assert_eq!(h.ledger.resident(), 0);
            assert_eq!(h.stats().tuples_fetched, 4, "only the first batch fetched");
        }
    }
}
