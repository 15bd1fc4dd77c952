//! The index operator: [`KeyedLookupOp`], through which every fetch of a physical plan
//! reads the store.
//!
//! Lowering leaves a plan one index operator. Plan synthesis wraps each fetch as
//! `σ[key equalities](T × fetch(X ∈ T, R, Y))`, which is a keyed lookup over `T`; any
//! other fetch becomes a keyed lookup over its distinct keys `δπ[keys](T)` whose
//! emission keeps only the fetched columns (see `bea_core::plan::physical`). The
//! operator reaches the index through one call, the store's batched
//! [`bea_storage::IndexedDatabase::resolve`]: it names the keys' values where it holds
//! them, and the store finds them and appends their tuple offsets to one flat list.
//!
//! # Late materialization
//!
//! A keyed lookup copies no fetched value. Its *arena* is the flat list of tuple offsets
//! `resolve` appends to, each key's settled offsets a range of it: as the store lists
//! them where they need no deduplication — at most one tuple, or tuples the store's own
//! layout proves distinct on the fetched positions and `X` (a unique index on the same
//! relation whose key they cover, as ψ3 proves for Q0's ψ1 anchor) — and otherwise
//! deduplicated per key, *hash-then-compare* on the tuples where they lie, and
//! compacted in place. A key whose fetched positions are all in `X` keeps its first
//! tuple: every tuple projects to the key's row. Distinct keys cannot produce equal
//! projections as long as the key attributes survive in the positions (lowering adds a
//! global dedup when a pushed-down projection dropped them), so per-key dedup suffices.
//!
//! A key read at `X` of one of the relation's own tuples names that tuple alone where
//! the store proves the tuples distinct on `X` (a unique index whose key `X` covers;
//! Q0's ψ3 looks up the accidents ψ1 fetched): a memo-free lookup keyed by such a stored
//! column takes its offsets as the fetched tuples, resolves nothing, and tallies a
//! lookup and a tuple per key, as `resolve` would.
//!
//! The emission pairs source rows with fetched tuples in two position lists, then keeps
//! the pairs the residual passes, one pass per predicate (MonetDB/X100's selection
//! vectors; Boncz, Zukowski, Nes, CIDR 2005). Every output column is built over what is
//! left: a fetched column points into the store at the fetched tuples
//! ([`Column::Stored`]), a stored source column at its own tuples taken at the source
//! rows, and only a value source column (a constant, a δ's input of constants) is
//! cloned. So what a lookup still clones is its memo's keys, and a value column its
//! emission takes; δ's seen set, a constant append and the output table clone what
//! they own downstream.
//!
//! The memo, which serves a repeated key from its settled offsets, exists only where
//! keys can repeat: when the plan proves that the source never repeats a key
//! ([`PhysicalPlan::keys_distinct`]), every probe is a first probe and nothing is
//! remembered.
//!
//! [`PhysicalPlan::keys_distinct`]: bea_core::plan::PhysicalPlan::keys_distinct
//!
//! # One pass per source batch
//!
//! [`KeyedLookupOp`] stages a source batch in one pass over its rows. Where the memo is
//! kept, it hashes each row's key where the row holds it and finds or inserts it in the
//! memo's [`RowTable`]: one probe, which gives the key's *position*, and a new key's
//! values are cloned in; the store then reads the new keys from the memo. Where the
//! memo is dropped, a row's number is its position, and the store reads each key from
//! the source row itself, the key one `resolve` group ahead hinted into cache. The keys
//! new to the operator go to one `resolve`, and one walk over the ends it pushed to
//! `held` settles them; the rows are then paired in order, each with its position's.
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
//! charges [`crate::stats::AccessStats::allocs_per_probe`]. No key is gathered: the
//! memo hashes and compares a row's key in place and clones only a new one into its
//! flat key columns. These and every staging buffer (`Vec<u32>`s) are drawn from the
//! thread's [`super::BufferPool`] when the operator is built and handed back when it
//! is exhausted or dropped, so a query reuses what the thread's last one grew. Each
//! emission allocates its fetched-tuple list, shared by every fetched column, and a
//! list per stored source column.
//!
//! Per operator instance, what remains is its box: the step's key columns, positions,
//! relation and predicates are borrowed from the plan ([`FetchStep`]; only a residual
//! that compares with a request's constant is a copy, with the constant in).
//! `tests/alloc_budget.rs` holds the model to the allocator: a cold Q0 stays under a
//! fixed number of heap allocations, whatever it fetches;
//! `crates/bead/tests/alloc_request.rs` bounds a whole served request.
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
//! map when the query finishes. Residency counts the settled tuples of a key of two or
//! more, from its fetch until the operator is exhausted or dropped.

use super::batch::{retain_pairs, Batch, Column, RowTable, Tuples};
use super::{BoxOp, Operator, SharedState, BATCH_SIZE};
use crate::stats::AccessStats;
use bea_core::error::Result;
use bea_core::plan::{PhysOp, PhysicalPlan, Predicate};
use bea_core::value::hash_row;
use bea_storage::index::GROUP;
use bea_storage::Store;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

/// Reusable open-addressing set of arena rows — the per-key dedup table of
/// [`Arena::dedup`]. One slot vector, re-sized and blanked per key, so deciding
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

    /// Is the tuple at `offsets[idx]` new to the set, compared on `attrs` where it lies
    /// in `tuples`? A fresh one is recorded at position `at` — where the caller is
    /// about to compact it to.
    fn insert(
        &mut self,
        tuples: Tuples<'_>,
        offsets: &[u32],
        attrs: &[usize],
        idx: usize,
        at: usize,
    ) -> bool {
        let row = |i: usize| attrs.iter().map(move |&a| tuples.value(offsets[i], a));
        let mask = self.slots.len() - 1;
        let mut slot = hash_row(row(idx)) as usize & mask;
        loop {
            match self.slots[slot] {
                Self::EMPTY => {
                    self.slots[slot] = at as u32;
                    return true;
                }
                kept if row(kept as usize).eq(row(idx)) => return false,
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

/// How a key's tuples become its rows, decided once per operator.
#[derive(Debug, Clone, Copy, PartialEq)]
enum PerKey {
    /// No two project equal on the fetched positions: the store proves it
    /// ([`bea_storage::IndexedDatabase::distinct_within`]). Kept as the store lists them.
    Distinct,
    /// Every fetched position is in `X`, so every tuple projects to the key's row: the
    /// first tuple stands for it.
    First,
    /// Deduplicated hash-then-compare, in place.
    Dedup,
}

/// The keyed lookup's per-query tier: every settled key's tuple offsets, key after key,
/// and, where keys can repeat, the memo that serves repeats — the keys the operator has
/// seen in a [`RowTable`], a key's *position* being its rank there.
#[derive(Debug)]
struct Arena {
    /// The settled offsets of every position, in position order.
    offsets: Vec<u32>,
    /// `held[p]` is where position `p`'s offsets end in `offsets`; they start where
    /// position `p − 1`'s end, or at 0. Where the memo is dropped, the positions are
    /// the current batch's rows.
    held: Vec<u32>,
    /// The memo's keys; unused where the memo is dropped.
    keys: RowTable,
    dedup: RowSet,
}

impl Arena {
    /// Position `p`'s offsets.
    fn at(&self, p: usize) -> &[u32] {
        let start = p.checked_sub(1).map_or(0, |q| self.held[q]);
        &self.offsets[start as usize..self.held[p] as usize]
    }

    /// Deduplicate the key's tuples at `offsets[range]` — two or more — on `positions`
    /// where they lie in `tuples`, hash-then-compare, and compact the fresh ones, in
    /// posting order, down to `offsets[to..]`: no value is read twice or cloned. How
    /// many are kept.
    fn dedup(
        &mut self,
        range: std::ops::Range<usize>,
        to: usize,
        tuples: Tuples<'_>,
        positions: &[usize],
    ) -> usize {
        self.dedup.reset(range.len());
        let mut kept = to;
        for idx in range {
            if self
                .dedup
                .insert(tuples, &self.offsets, positions, idx, kept)
            {
                self.offsets[kept] = self.offsets[idx];
                kept += 1;
            }
        }
        kept - to
    }
}

/// The keyed join `σ[key ties ∧ residual](source × fetch(X ∈ source, R, …))`: an index
/// nested-loop join. Streams the source; for each row, probes the index with the row's
/// key (once per distinct key — results are retained so the data access is identical
/// to a fetch over the deduplicated key set), joins it with every match as a pair of
/// positions, and applies the residual predicates. A source batch is staged in one
/// pass, its misses resolved together, then emitted as columns over those positions
/// (see the module docs).
///
/// Durable state is the [`Arena`], bounded by the fetch's access-schema bound times the
/// number of distinct keys: offsets, not values, released on exhaustion (or on drop if
/// a consumer short-circuits). The tuples stay in the store, which outlives the
/// operator. Neither the cross product nor the fetched table is ever materialized.
pub(crate) struct KeyedLookupOp<'db> {
    input: BoxOp<'db>,
    fetch: FetchStep<'db>,
    /// The relation fetched from.
    tuples: Tuples<'db>,
    /// The step's residual predicates, with the run's constants read in.
    residual: Cow<'db, [Predicate]>,
    /// Which columns of the *combined* row (source columns, then fetched positions) to
    /// emit. `None` emits all of them; `Some` is a projection the operator-tree builder
    /// fused in from a directly consuming `Project` step, so columns the projection
    /// would discard are never built in the first place.
    out_cols: Option<&'db [usize]>,
    store: Store<'db>,
    state: SharedState,
    arena: Arena,
    per_key: PerKey,
    /// Whether the arena's memo is kept: false when the plan proves the source never
    /// repeats a key ([`KeyedLookupOp::distinct_keys`]).
    memo: bool,
    /// Rows this operator holds on the residency ledger.
    cached_rows: u64,
    /// Each row's memo position in the arena, for the current source batch; empty
    /// where the memo is dropped, and a row's number is its position.
    rows: Vec<u32>,
    /// The source row of each pair of the current emission.
    sources: Vec<u32>,
    /// What the probes have cost since the last flush ([`KeyedLookupOp::flush_tally`]).
    tally: AccessStats,
    /// Slices of an emission past [`BATCH_SIZE`] rows not yet emitted
    /// ([`KeyedLookupOp::sliced`]).
    pending: VecDeque<Batch<'db>>,
    done: bool,
}

impl<'db> KeyedLookupOp<'db> {
    /// Fails if the store has no relation `fetch.relation`.
    pub(crate) fn new(
        input: BoxOp<'db>,
        fetch: FetchStep<'db>,
        residual: Cow<'db, [Predicate]>,
        out_cols: Option<&'db [usize]>,
        store: Store<'db>,
        state: SharedState,
    ) -> Result<Self> {
        let relation = store.database().relation(fetch.relation)?;
        let tuples = Tuples {
            values: relation.values(),
            arity: relation.schema().arity(),
        };
        let in_x = |attr| fetch.x_attrs.contains(&attr);
        let per_key = if fetch.positions.iter().all(|&p| in_x(p)) {
            PerKey::First
        } else if store.distinct_within(fetch.constraint_index, |a| {
            in_x(a) || fetch.positions.contains(&a)
        }) {
            PerKey::Distinct
        } else {
            PerKey::Dedup
        };
        let mut exec = state.borrow_mut();
        let keys = (0..fetch.key_cols.len()).map(|_| exec.pool.values.get());
        let keys = RowTable::new("a keyed lookup", keys.collect());
        let [offsets, held, slots, rows, sources] = [(); 5].map(|_| exec.pool.offsets.get());
        drop(exec);
        Ok(Self {
            input,
            fetch,
            tuples,
            residual,
            out_cols,
            store,
            state,
            arena: Arena {
                offsets,
                held,
                keys,
                dedup: RowSet { slots },
            },
            per_key,
            memo: true,
            cached_rows: 0,
            rows,
            sources,
            tally: AccessStats::default(),
            pending: VecDeque::new(),
            done: false,
        })
    }

    /// Drop the arena's memo when `distinct`: the plan proves the source never repeats
    /// a key (`PhysicalPlan::keys_distinct`), so every probe is a first probe and a
    /// memo would only cost a slot walk per row and a key clone per key.
    pub(crate) fn distinct_keys(mut self, distinct: bool) -> Self {
        self.memo = !distinct;
        self
    }

    /// Stage `batch` (see the module docs): give every row its key's position in the
    /// arena, and fetch the keys new to the operator in one `resolve`.
    fn stage(&mut self, batch: &Batch<'db>) -> Result<()> {
        let key_cols = self.fetch.key_cols;
        let arity = key_cols.len();
        self.rows.clear();
        let (first, count) = if self.memo {
            let keys = &mut self.arena.keys;
            let first = keys.len();
            self.rows.reserve(batch.len());
            for i in 0..batch.len() {
                let key = |m: usize| batch.value(i, key_cols[m]);
                let (seen, _) = keys.insert(hash_row((0..arity).map(key)), key)?;
                self.rows.push(seen);
            }
            debug_assert_eq!(
                first,
                self.arena.held.len(),
                "positions are insertion ranks"
            );
            // A new key's values are cloned into the memo; the store reads keys in place.
            self.tally.values_cloned += ((keys.len() - first) * arity) as u64;
            (first, keys.len() - first)
        } else {
            self.arena.offsets.clear();
            self.arena.held.clear();
            (0, batch.len())
        };
        if count == 0 {
            // The memo held every key: nothing to resolve, and no fetch error either,
            // as in a per-key loop.
            return Ok(());
        }
        let (store, constraint) = (self.store, self.fetch.constraint_index);
        let (offsets, held) = (&mut self.arena.offsets, &mut self.arena.held);
        offsets.reserve(count);
        if self.memo {
            let keys = &self.arena.keys;
            let key = |i: usize, m: usize| keys.value((first + i) as u32, m);
            store.resolve(constraint, count, arity, key, offsets, held)?;
        } else {
            let key = |i: usize, m: usize| {
                if m == 0 {
                    batch.hint(i + GROUP, key_cols[0]);
                }
                batch.value(i, key_cols[m])
            };
            store.resolve(constraint, count, arity, key, offsets, held)?;
        }
        self.settle(first);
        Ok(())
    }

    /// Settle positions `first..`, the keys `resolve` just appended, tallying a lookup
    /// each and their tuples: keep each key's tuples as [`PerKey`] says, compacted onto
    /// the end of the position before it, and record in `held` where they end now. A
    /// key of two or more tuples acquires residency for the rows it keeps.
    fn settle(&mut self, first: usize) {
        let arena = &mut self.arena;
        let mut start = first.checked_sub(1).map_or(0, |p| arena.held[p] as usize);
        self.tally.index_lookups += (arena.held.len() - first) as u64;
        self.tally.tuples_fetched += (arena.offsets.len() - start) as u64;
        let (mut to, mut acquired) = (start, 0);
        for p in first..arena.held.len() {
            let range = start..arena.held[p] as usize;
            start = range.end;
            let kept = match self.per_key {
                _ if range.len() <= 1 => range.len(),
                PerKey::Distinct => range.len(),
                PerKey::First => 1,
                PerKey::Dedup => arena.dedup(range.clone(), to, self.tuples, self.fetch.positions),
            };
            acquired += if range.len() > 1 { kept as u64 } else { 0 };
            let from = range.start;
            if to < from && (self.per_key != PerKey::Dedup || range.len() <= 1) {
                arena.offsets.copy_within(from..from + kept, to);
            }
            to += kept;
            arena.held[p] = to as u32;
        }
        arena.offsets.truncate(to);
        if acquired > 0 {
            self.state.borrow_mut().acquire(acquired);
            self.cached_rows += acquired;
        }
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

    /// Flush the tally, release the rows this operator holds, and hand its buffers —
    /// the memo's key columns and the staging offsets, cleared — back to the thread's
    /// pool for its next lookup.
    fn release(&mut self) {
        self.flush_tally();
        let rows = std::mem::take(&mut self.cached_rows);
        let state = &mut *self.state.borrow_mut();
        state.release(rows);
        for col in self.arena.keys.release() {
            state.pool.values.put(col);
        }
        let arena = &mut self.arena;
        let buffers = [&mut arena.offsets, &mut arena.held, &mut arena.dedup.slots];
        for buffer in buffers
            .into_iter()
            .chain([&mut self.rows, &mut self.sources])
        {
            state.pool.offsets.put(std::mem::take(buffer));
        }
    }

    /// An emission of more than [`BATCH_SIZE`] rows cut into slices of that size, zero
    /// value copies: the first is returned, the rest queued. A key that fans out past a
    /// batch's worth (a fetch's anchor above all) thus reaches the operators downstream
    /// batch by batch, in the batch size every operator is built for.
    fn sliced(&mut self, batch: Batch<'db>) -> Batch<'db> {
        let len = batch.len();
        if len <= BATCH_SIZE {
            return batch;
        }
        let slice = |start: usize| batch.slice(start..len.min(start + BATCH_SIZE));
        self.pending
            .extend((BATCH_SIZE..len).step_by(BATCH_SIZE).map(slice));
        slice(0)
    }

    /// The pairs of `batch`'s rows and the fetched tuples they join: each pair's source
    /// row in [`KeyedLookupOp::sources`], its tuple in the list returned. A key column of
    /// the relation's own tuples pairs each row with its own tuple (see the module
    /// docs); any other batch is staged, and pairs each row with its position's tuples.
    fn pairs(&mut self, batch: &Batch<'db>) -> Result<Vec<u32>> {
        self.sources.clear();
        let mut fetched = Vec::new();
        let (store, step) = (self.store, self.fetch);
        let (key_cols, x) = (step.key_cols, step.x_attrs);
        if !self.memo
            && key_cols.len() == 1
            && store.distinct_within(step.constraint_index, |a| a == x[0])
            && batch.offsets_of(key_cols[0], self.tuples, x[0], &mut fetched)
        {
            let keys = fetched.len() as u64;
            self.tally.index_lookups += keys;
            self.tally.tuples_fetched += keys;
            self.sources.extend(0..keys as u32);
            return Ok(fetched);
        }
        self.stage(batch)?;
        let at = |i: usize| self.rows.get(i).map_or(i, |&at| at as usize);
        let pairs = (0..batch.len()).map(|i| self.arena.at(at(i)).len()).sum();
        fetched.reserve(pairs);
        self.sources.reserve(pairs);
        for i in 0..batch.len() {
            for &t in self.arena.at(at(i)) {
                fetched.push(t);
                self.sources.push(i as u32);
            }
        }
        Ok(fetched)
    }

    /// The rows of `batch` joined with their keys' tuples, as columns: pair each source
    /// row with every fetched tuple, keep the pairs the residual passes, then build each
    /// output column over those pairs (see the module docs).
    fn emission(&mut self, batch: &Batch<'db>) -> Result<Batch<'db>> {
        let (left_arity, positions, tuples) = (batch.arity(), self.fetch.positions, self.tuples);
        let mut fetched = self.pairs(batch)?;
        let sources = &mut self.sources;
        retain_pairs(
            &self.residual,
            batch,
            tuples,
            positions,
            sources,
            &mut fetched,
        );
        let rows = fetched.len();
        let fetched = Arc::new(fetched);
        let out_arity = self
            .out_cols
            .map_or(left_arity + positions.len(), <[usize]>::len);
        let mut state = self.state.borrow_mut();
        let columns = (0..out_arity).map(|k| {
            let c = self.out_cols.map_or(k, |cols| cols[k]);
            match c.checked_sub(left_arity) {
                Some(c) => Column::Stored {
                    tuples,
                    attr: positions[c],
                    offsets: Arc::clone(&fetched),
                },
                None => {
                    let (column, cloned) = batch.take(c, &self.sources, || state.pool.values.get());
                    self.tally.values_cloned += cloned;
                    column
                }
            }
        });
        Ok(Batch::new(columns, rows))
    }
}

impl<'db> Operator<'db> for KeyedLookupOp<'db> {
    fn next_batch(&mut self) -> Result<Option<Batch<'db>>> {
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
            self.state.borrow_mut().stats.fetch_ops += 1;
            return Ok(None);
        };
        debug_assert_eq!(batch.arity(), self.fetch.source_arity);
        let emitted = self.emission(&batch)?;
        self.flush_tally();
        Ok(Some(self.sliced(emitted)))
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
    use bea_core::value::Value;
    use bea_storage::{Database, IndexedDatabase};
    use std::cell::RefCell;
    use std::rc::Rc;

    /// The access-schema bound of the one constraint: at most this many tuples per key.
    const BOUND: u64 = 4;

    /// `R(k, v, w)` under `k → (v, w)`: key 1 matches three tuples, two of which agree
    /// on `v`; key 2 matches one; key 3 matches none. Its index is dense.
    fn store() -> IndexedDatabase {
        store_at(1)
    }

    /// [`store`] with every key times `scale`; and its twin at scale 10, whose index is
    /// hashed: key 10 matches three tuples, key 20 one, key 30 none.
    fn stores() -> [(i64, IndexedDatabase); 2] {
        [1, 10].map(|scale| {
            let idb = store_at(scale);
            let dense = idb.index(0).unwrap().is_dense();
            assert_eq!(dense, scale == 1, "scale {scale}: the key map under test");
            (scale, idb)
        })
    }

    /// `rows` of one key each, the key times `scale`.
    fn scaled(rows: &[i64], scale: i64) -> Vec<[i64; 1]> {
        rows.iter().map(|&key| [key * scale]).collect()
    }

    fn store_at(scale: i64) -> IndexedDatabase {
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
                .map(|[k, v, w]| [k * scale, v, w].map(Value::int).to_vec()),
        )
        .unwrap();
        IndexedDatabase::build(db, schema).unwrap()
    }

    /// A source replaying scripted pulls — batches, or an error.
    pub(crate) struct Script<'db>(pub(crate) VecDeque<Result<Batch<'db>>>);

    impl<'db> Operator<'db> for Script<'db> {
        fn next_batch(&mut self) -> Result<Option<Batch<'db>>> {
            self.0.pop_front().transpose()
        }
    }

    pub(crate) fn ints(rows: &[&[i64]]) -> Batch<'static> {
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

        /// A lookup on `R` keyed by source column 0 through constraint 0 on `R`'s `k`,
        /// fetching `positions`; its source has the arity of the first batch pulled, or
        /// one column.
        fn lookup<'db>(
            &self,
            idb: &'db IndexedDatabase,
            pulls: Vec<Result<Batch<'db>>>,
            positions: &'db [usize],
            residual: Vec<Predicate>,
            out_cols: Option<&'db [usize]>,
        ) -> KeyedLookupOp<'db> {
            self.lookup_via(idb, (0, &[0]), pulls, positions, residual, out_cols)
        }

        /// [`Harness::lookup`] through constraint `via.0`, on `R`'s attributes `via.1`.
        fn lookup_via<'db>(
            &self,
            idb: &'db IndexedDatabase,
            via: (usize, &'db [usize]),
            pulls: Vec<Result<Batch<'db>>>,
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
                x_attrs: via.1,
                positions,
                constraint_index: via.0,
            };
            KeyedLookupOp::new(
                Box::new(Script(pulls.into())),
                fetch,
                Cow::Owned(residual),
                out_cols,
                idb,
                self.state.clone(),
            )
            .unwrap()
        }

        /// The counters so far, fetches attributed to `R`.
        pub(crate) fn stats(&self) -> crate::stats::AccessStats {
            let state = &mut *self.state.borrow_mut();
            state.fetched.drain_into(&mut state.stats, |_| "R");
            state.stats.clone()
        }
    }

    /// Pull `op` dry; the emitted rows as plain integers, batch by batch.
    pub(crate) fn drain(op: &mut dyn Operator<'_>) -> Vec<Vec<Vec<i64>>> {
        let mut batches = Vec::new();
        while let Some(batch) = op.next_batch().unwrap() {
            batches.push(int_rows(&batch));
        }
        batches
    }

    /// The rows of `batch` as plain integers.
    fn int_rows(batch: &Batch<'_>) -> Vec<Vec<i64>> {
        let rows = (0..batch.len()).map(|i| {
            let row = batch.row(i).into_iter();
            row.map(|v| match v {
                Value::Int(i) => i,
                other => panic!("unexpected {other}"),
            })
            .collect()
        });
        rows.collect()
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
        // The 3 distinct keys cloned into the memo + the source's value column `k` taken
        // for the 11 emitted rows; the fetched columns point into the store.
        assert_eq!(stats.values_cloned, 3 + 11);
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
        // Fused projection onto `w`: each emission is a column over the tuples the
        // arena lists, read where they lie in the store.
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
        assert_eq!(stats.index_lookups, 2, "the memo serves key 1 again");
        assert_eq!(stats.tuples_fetched, 4);
        // The 2 distinct keys cloned into the memo; every emission points into the store.
        assert_eq!(stats.values_cloned, 2);
        assert_eq!(h.ledger.resident(), 0);
    }

    #[test]
    fn a_multi_tuple_anchor_copies_no_fetched_value() {
        let idb = store();
        // Key 1's three tuples through an anchor, fused projections onto `(v, w)` and
        // onto `(k, w)`: the emission points into the store either way.
        for out_cols in [&[2, 3][..], &[1, 3][..]] {
            let h = Harness::new();
            let pulls = vec![Ok(ints(&[&[1]]))];
            let mut op = h.lookup(&idb, pulls, &[0, 1, 2], Vec::new(), Some(out_cols));
            let rows = drain(&mut op).concat();
            let expected = [[1, 10, 100], [1, 10, 101], [1, 11, 100]]
                .map(|tuple| out_cols.iter().map(|&c| tuple[c - 1]).collect::<Vec<_>>());
            assert_eq!(rows, expected, "columns {out_cols:?}");
            let stats = h.stats();
            assert_eq!(stats.tuples_fetched, 3);
            // The one key cloned into the memo, and nothing else.
            assert_eq!(stats.values_cloned, 1, "columns {out_cols:?}");
            assert_eq!(h.ledger.peak(), 3, "key 1's three rows are held as offsets");
        }
    }

    #[test]
    fn a_residual_and_the_emission_read_fetched_columns_where_they_lie() {
        let idb = store();
        // Combined row: source (k, x), fetched (k, v, w). The residual compares the
        // fetched `k` with a constant and `x` with the fetched `v`, and the emission
        // keeps the fetched `k` beside `w`: both read the store's tuples in place.
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
        // The 2 distinct keys cloned into the memo; the emission is fetched columns only.
        assert_eq!(h.stats().values_cloned, 2);
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
            op.fetch.key_cols = &[0, 0];
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
        pulls: Vec<Result<Batch<'static>>>,
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
        // The full combined row, and a fused projection onto the fetched `(v, w)`.
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
                // The 3 distinct keys cloned into the memo, and the source's value
                // column `k` for each of the 12 rows where the emission keeps it.
                let taken = if out_cols.is_none() { 12 } else { 0 };
                assert_eq!(stats.values_cloned, 3 + taken, "{corner}");
                per_feed.push(off);

                // Distinct keys: dropping the memo changes nothing but the memo's
                // clones, one per key.
                let kept = run_lookup(&idb, pulls(distinct), out_cols, false);
                let dropped = run_lookup(&idb, pulls(distinct), out_cols, true);
                assert_eq!(kept.0, expected(distinct), "{corner}");
                assert_eq!((&dropped.0, dropped.2), (&kept.0, kept.2), "{corner}");
                assert!(dropped.1.same_data_access(&kept.1), "{corner}");
                let clones = dropped.1.values_cloned + distinct.len() as u64;
                assert_eq!(clones, kept.1.values_cloned, "{corner}");
            }
            // Batching is invisible.
            assert!(per_feed.windows(2).all(|pair| pair[0] == pair[1]));
        }
    }

    /// The same source rows as one batch, as two, and one row per batch.
    fn feeds(rows: &[&[i64]]) -> [Vec<Result<Batch<'static>>>; 3] {
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
        for (scale, idb) in stores() {
            let rows = scaled(&[1, 2, 1, 3, 2, 1, 1], scale);
            let rows: Vec<&[i64]> = rows.iter().map(|row| &row[..]).collect();
            let (out, stats) = assert_batching_is_invisible(&idb, &rows);
            assert_eq!(out.len(), 4 * 3 + 2, "scale {scale}");
            assert_eq!(
                stats.index_lookups, 3,
                "one per distinct key, absent included"
            );
            assert_eq!(stats.tuples_fetched, 4, "scale {scale}");
        }
    }

    #[test]
    fn each_key_is_looked_up_once_per_tier() {
        for (scale, idb) in stores() {
            let rows = scaled(&[1, 2, 1, 3, 1], scale);
            let rows: Vec<&[i64]> = rows.iter().map(|row| &row[..]).collect();
            assert_each_key_is_looked_up_once_per_tier(&idb, &rows, scale);
        }
    }

    fn assert_each_key_is_looked_up_once_per_tier(
        idb: &IndexedDatabase,
        rows: &[&[i64]],
        scale: i64,
    ) {
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
        // The key at arena position `p`, read back from the first tuple it settled:
        // key 3 has none.
        let key_of = |op: &KeyedLookupOp<'_>, p: usize| -> i64 {
            let first = op.arena.at(p).first();
            first.map_or(3, |&t| match op.tuples.value(t, 0) {
                Value::Int(k) => *k / scale,
                other => panic!("unexpected {other}"),
            })
        };
        for (memo, split, sent) in corners {
            let corner = format!("memo {memo}, two batches {split}, scale {scale}");
            let pulls = if split { &two_batches } else { &one_batch };
            let pulls = pulls.iter().map(|pull| Ok(pull.as_ref().unwrap().clone()));
            let h = Harness::new();
            let op = h.lookup(idb, pulls.collect(), &[0, 1, 2], Vec::new(), None);
            let mut op = op.distinct_keys(!memo);
            // After a pull, the arena's `held` ends each position's flat offsets: the
            // keys its batch resolved are the positions it added — every one where the
            // memo is dropped, as each batch starts the arena afresh.
            let (mut rows, mut resolved, mut held) = (0, Vec::new(), 0);
            while let Some(batch) = op.next_batch().unwrap() {
                rows += batch.len();
                let from = if memo { held } else { 0 };
                held = op.arena.held.len();
                resolved.push((from..held).map(|p| key_of(&op, p)).collect::<Vec<_>>());
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
        // The first batch fetches key 1's three tuples into the arena; then the step is
        // pointed at constraint 7, which does not exist, and the second batch fails to
        // resolve key 3 (its key 1 the memo holds, where there is one).
        for (scale, idb) in stores() {
            let [one, two, three] = [1, 2, 3].map(|key| [key * scale]);
            for distinct in [false, true] {
                let h = Harness::new();
                let pulls = vec![Ok(ints(&[&one, &two])), Ok(ints(&[&one, &three]))];
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

    /// `R(k, v, w)` under `k → (v, w)`, `w` unique: key 1 matches three tuples, two of
    /// which agree on `v`, key 2 one. With `w_index`, the constraint `w → (k, v)` too,
    /// whose index has one tuple per key: a unique index on `R`.
    fn unique_store(w_index: bool) -> IndexedDatabase {
        let mut catalog = bea_core::schema::Catalog::new();
        catalog.declare("R", ["k", "v", "w"]).unwrap();
        let by_k = AccessConstraint::new(&catalog, "R", &["k"], &["v", "w"], BOUND).unwrap();
        let by_w = AccessConstraint::new(&catalog, "R", &["w"], &["k", "v"], 1).unwrap();
        let constraints = if w_index {
            vec![by_k, by_w]
        } else {
            vec![by_k]
        };
        let mut db = Database::new(catalog);
        let tuples = [[1, 10, 100], [1, 10, 101], [1, 11, 102], [2, 20, 200]];
        db.extend("R", tuples.map(|tuple| tuple.map(Value::int).to_vec()))
            .unwrap();
        IndexedDatabase::build(db, AccessSchema::from_constraints(constraints)).unwrap()
    }

    /// A lookup of keys 1, 2, 1 through `k → (v, w)` fetching `positions`: how it
    /// settled each key's tuples, what it emitted, its counters, its peak residency and
    /// whether it used its dedup table.
    fn unique_run(
        idb: &IndexedDatabase,
        positions: &[usize],
    ) -> (PerKey, Vec<Vec<i64>>, crate::stats::AccessStats, u64, bool) {
        let h = Harness::new();
        let pulls = vec![Ok(ints(&[&[1], &[2], &[1]]))];
        let mut op = h.lookup(idb, pulls, positions, Vec::new(), None);
        // The one source batch settles every key: a key that went through the dedup
        // table left it sized, until exhaustion hands it back to the pool.
        let mut out = int_rows(&op.next_batch().unwrap().unwrap());
        let (per_key, deduped) = (op.per_key, !op.arena.dedup.slots.is_empty());
        out.extend(drain(&mut op).concat());
        drop(op);
        assert_eq!(h.ledger.resident(), 0);
        (per_key, out, h.stats(), h.ledger.peak(), deduped)
    }

    #[test]
    fn a_fetch_that_keeps_a_unique_key_skips_dedup_with_the_same_rows() {
        let (proved, unproved) = (unique_store(true), unique_store(false));
        // Every position, and `w` alone: with `X`, both cover `w`, the key of the
        // unique index on `R` — when the store has that index.
        for positions in [&[0, 1, 2][..], &[2]] {
            let skipped = unique_run(&proved, positions);
            let deduped = unique_run(&unproved, positions);
            assert_eq!(skipped.0, PerKey::Distinct, "{positions:?}");
            assert_eq!(deduped.0, PerKey::Dedup, "{positions:?}");
            assert!(!skipped.4, "the dedup table is never used");
            assert!(deduped.4, "the dedup path uses its table");
            assert_eq!(skipped.1, deduped.1, "{positions:?}");
            assert_eq!(skipped.2, deduped.2, "{positions:?}");
            assert_eq!(skipped.3, deduped.3, "{positions:?}");
            assert_eq!(skipped.1.len(), 2 * 3 + 1, "{positions:?}");
            assert_eq!(skipped.3, 3, "key 1's three rows are held");
        }
    }

    #[test]
    fn a_projection_that_drops_the_unique_key_still_dedups() {
        // `(k, v)` does not cover `w`: key 1's first two tuples project equal, and must
        // be deduplicated although the store has a unique index on `R`.
        let (per_key, out, stats, peak, deduped) = unique_run(&unique_store(true), &[0, 1]);
        let key1 = [[1, 1, 10], [1, 1, 11]].map(Vec::from);
        let expected = [&key1[..], &[vec![2, 2, 20]], &key1].concat();
        assert_eq!(out, expected);
        assert_eq!((stats.tuples_fetched, peak), (4, 2));
        assert_eq!(per_key, PerKey::Dedup);
        assert!(deduped);
        // Fetched positions all in `X` keep one row per key, unique index or not.
        let (per_key, out, ..) = unique_run(&unique_store(true), &[0]);
        assert_eq!(per_key, PerKey::First);
        assert_eq!(out, [[1, 1], [2, 2], [1, 1]].map(Vec::from));
    }

    /// A batch of one stored column: `R`'s attribute `attr` at `tuples`.
    fn stored<'db>(idb: &'db IndexedDatabase, attr: usize, tuples: &[u32]) -> Batch<'db> {
        stored_in(idb, "R", attr, tuples)
    }

    /// A batch of one stored column: `relation`'s attribute `attr` at `tuples`.
    fn stored_in<'db>(
        idb: &'db IndexedDatabase,
        relation: &str,
        attr: usize,
        tuples: &[u32],
    ) -> Batch<'db> {
        let relation = idb.database().relation(relation).unwrap();
        let column = Column::Stored {
            tuples: Tuples {
                values: relation.values(),
                arity: relation.schema().arity(),
            },
            attr,
            offsets: Arc::new(tuples.to_vec()),
        };
        Batch::new([column], tuples.len())
    }

    #[test]
    fn stored_keys_probe_like_value_keys_and_leave_no_residency_on_a_drop_or_an_error() {
        let idb = store();
        // Tuples 0, 3, 1: keys 1, 2, 1 where `R` stores them.
        let (keys, values) = (stored(&idb, 0, &[0, 3, 1]), ints(&[&[1], &[2], &[1]]));
        for distinct in [false, true] {
            let run = |pulls: Vec<Result<Batch<'_>>>| {
                let h = Harness::new();
                let op = h.lookup(&idb, pulls, &[0, 1, 2], Vec::new(), None);
                let mut op = op.distinct_keys(distinct);
                let out = drain(&mut op);
                drop(op);
                (out, h.stats(), h.ledger.peak())
            };
            let (out, stats, peak) = run(vec![Ok(keys.clone())]);
            let (from_values, value_stats, value_peak) = run(vec![Ok(values.clone())]);
            assert_eq!(out, from_values);
            assert!(stats.same_data_access(&value_stats));
            assert_eq!(peak, value_peak);
            // A stored source column is taken as offsets: only the memo clones.
            let memo = if distinct { 0 } else { 2 };
            assert_eq!(stats.values_cloned, memo, "memo kept: {}", !distinct);
            assert_eq!(value_stats.values_cloned, memo + 7);

            // Keys 1 and 2, dropped after one batch, and failed on the second: nothing
            // stays resident.
            let distinct_keys = stored(&idb, 0, &[0, 3]);
            let pulls = || {
                vec![
                    Ok(distinct_keys.clone()),
                    Err(Error::invalid("source failed")),
                ]
            };
            let lookup = |h: &Harness| {
                let op = h.lookup(&idb, pulls(), &[0, 1, 2], Vec::new(), None);
                op.distinct_keys(distinct)
            };
            let h = Harness::new();
            let mut op = lookup(&h);
            assert_eq!(op.next_batch().unwrap().unwrap().len(), 4);
            assert_eq!(h.ledger.resident(), 3);
            drop(op);
            assert_eq!(h.ledger.resident(), 0);
            let h = Harness::new();
            let mut op = lookup(&h);
            assert!(op.next_batch().unwrap().is_some());
            assert!(op.next_batch().is_err());
            drop(op);
            assert_eq!(h.ledger.resident(), 0);
        }
    }

    /// `R(a, b, g)` with `a` and `b` each unique — their indexes `a → (b, g)` (constraint
    /// 0) and `b → a` (1) keep one tuple per key — and `g → a` (2) two tuples for key 1;
    /// and `S(c)`, holding `R`'s `a`-values in another order. `b` takes the `a`-values
    /// too, rotated, so a key read from `S` or from `b` names another tuple of `R` than
    /// the one it was read from.
    fn own_tuples_store() -> IndexedDatabase {
        let mut catalog = bea_core::schema::Catalog::new();
        catalog.declare("R", ["a", "b", "g"]).unwrap();
        catalog.declare("S", ["c"]).unwrap();
        let constraints = [
            AccessConstraint::new(&catalog, "R", &["a"], &["b", "g"], 1).unwrap(),
            AccessConstraint::new(&catalog, "R", &["b"], &["a"], 1).unwrap(),
            AccessConstraint::new(&catalog, "R", &["g"], &["a"], 2).unwrap(),
        ];
        let mut db = Database::new(catalog);
        let r = [[10, 30, 1], [20, 10, 1], [30, 20, 2]];
        db.extend("R", r.map(|tuple| tuple.map(Value::int).to_vec()))
            .unwrap();
        db.extend(
            "S",
            [[30], [10], [20]].map(|row| row.map(Value::int).to_vec()),
        )
        .unwrap();
        IndexedDatabase::build(db, AccessSchema::from_constraints(constraints)).unwrap()
    }

    /// A memo-free lookup of `R` through constraint `via.0` on `R`'s attributes `via.1`
    /// over the one batch `keys`, emitting the fetched `(a, b, g)`: its rows, its
    /// counters, and whether it resolved any key through the store.
    fn own_tuples_run<'db>(
        idb: &'db IndexedDatabase,
        via: (usize, &'db [usize]),
        keys: Batch<'db>,
    ) -> (Vec<Vec<i64>>, crate::stats::AccessStats, bool) {
        let h = Harness::new();
        let pulls = vec![Ok(keys)];
        let op = h.lookup_via(idb, via, pulls, &[0, 1, 2], Vec::new(), Some(&[1, 2, 3]));
        let mut op = op.distinct_keys(true);
        let out = int_rows(&op.next_batch().unwrap().unwrap());
        let resolved = !op.arena.held.is_empty();
        assert!(op.next_batch().unwrap().is_none());
        drop(op);
        (out, h.stats(), resolved)
    }

    #[test]
    fn a_key_read_from_its_own_tuple_under_a_unique_index_is_that_tuple() {
        let idb = own_tuples_store();
        // Tuples 2, 0, 1 of `R` read at the key `a` of `a → (b, g)`: each names itself,
        // so nothing is resolved — and the rows and the tally are those of the same
        // keys as values, which are resolved.
        let (own, own_stats, resolved) =
            own_tuples_run(&idb, (0, &[0]), stored(&idb, 0, &[2, 0, 1]));
        let values = own_tuples_run(&idb, (0, &[0]), ints(&[&[30], &[10], &[20]]));
        assert!(!resolved, "the tuples are their own keys' tuples");
        assert!(values.2, "value keys are resolved");
        assert_eq!(own, [[30, 20, 2], [10, 30, 1], [20, 10, 1]].map(Vec::from));
        assert_eq!(own, values.0);
        assert_eq!(own_stats, values.1);
        assert_eq!((own_stats.index_lookups, own_stats.tuples_fetched), (3, 3));

        // A selection picks logical rows out of the stored ones: tuples 1 and 2.
        let selected = stored(&idb, 0, &[2, 0, 1]).retain(|i| i != 0);
        let (own, own_stats, resolved) = own_tuples_run(&idb, (0, &[0]), selected);
        let values = own_tuples_run(&idb, (0, &[0]), ints(&[&[10], &[20]]));
        assert!(!resolved);
        assert_eq!(own, [[10, 30, 1], [20, 10, 1]].map(Vec::from));
        assert_eq!((own, own_stats), (values.0, values.1));
    }

    #[test]
    fn a_key_read_anywhere_else_is_resolved() {
        let idb = own_tuples_store();
        // The same three values — 30, 10, 20 — read where they name other tuples of `R`
        // than the ones they lie in, or several: taken as their own tuples, each would
        // emit the wrong rows.
        // Each case: the constraint and its key attributes, and the keys stored and as
        // values.
        type Via = (usize, &'static [usize]);
        let cases: [(&str, Via, Batch<'_>, Batch<'_>); 4] = [
            (
                "another relation",
                (0, &[0]),
                stored_in(&idb, "S", 0, &[0, 1, 2]),
                ints(&[&[30], &[10], &[20]]),
            ),
            (
                "another attribute",
                (0, &[0]),
                stored(&idb, 1, &[0, 1, 2]),
                ints(&[&[30], &[10], &[20]]),
            ),
            (
                "another unique index",
                (1, &[1]),
                stored(&idb, 0, &[0, 1, 2]),
                ints(&[&[10], &[20], &[30]]),
            ),
            (
                "an index that is not unique",
                (2, &[2]),
                stored(&idb, 2, &[2, 0]),
                ints(&[&[2], &[1]]),
            ),
        ];
        for (case, via, stored_keys, value_keys) in cases {
            let (out, stats, resolved) = own_tuples_run(&idb, via, stored_keys);
            let values = own_tuples_run(&idb, via, value_keys);
            assert!(resolved, "{case}: the keys go to the store");
            assert_eq!(out, values.0, "{case}");
            assert_eq!(stats, values.1, "{case}");
        }
        // Spelled out for the first: `S`'s tuples 0, 1, 2 hold the keys of `R`'s 2, 0, 1.
        let (out, ..) = own_tuples_run(&idb, (0, &[0]), stored_in(&idb, "S", 0, &[0, 1, 2]));
        assert_eq!(out, [[30, 20, 2], [10, 30, 1], [20, 10, 1]].map(Vec::from));
        // And for the last: key 2 names tuple 2, key 1 tuples 0 and 1.
        let (out, stats, _) = own_tuples_run(&idb, (2, &[2]), stored(&idb, 2, &[2, 0]));
        assert_eq!(out, [[30, 20, 2], [10, 30, 1], [20, 10, 1]].map(Vec::from));
        assert_eq!((stats.index_lookups, stats.tuples_fetched), (2, 3));
    }

    #[test]
    fn a_lookup_that_keeps_its_memo_resolves_its_own_tuples_keys() {
        let idb = own_tuples_store();
        // Tuples 2, 0, 2 at the key `a` of `a → (b, g)`, where keys may repeat: the memo
        // serves tuple 2's second row, and it clones each new key, whatever the column.
        let keys = stored(&idb, 0, &[2, 0, 2]);
        let h = Harness::new();
        let op = h.lookup_via(
            &idb,
            (0, &[0]),
            vec![Ok(keys)],
            &[0],
            Vec::new(),
            Some(&[1]),
        );
        let mut op = op.distinct_keys(false);
        assert_eq!(drain(&mut op).concat(), [[30], [10], [30]].map(Vec::from));
        drop(op);
        let stats = h.stats();
        assert_eq!((stats.index_lookups, stats.values_cloned), (2, 2));
    }
}
