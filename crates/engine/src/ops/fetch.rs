//! The index operator: [`KeyedLookupOp`], through which every fetch of a physical plan
//! reads the store.
//!
//! Lowering leaves a plan one index operator. Plan synthesis wraps each fetch as
//! `σ[key equalities](T × fetch(X ∈ T, R, Y))`, which is a keyed lookup over `T`; any
//! other fetch becomes a keyed lookup over its distinct keys `δπ[keys](T)` whose
//! emission keeps only the fetched columns (see `bea_core::plan::physical`). The
//! operator reaches the index through one call, the store's batched
//! [`bea_storage::IndexedDatabase::resolve`]: it names the keys' values where it holds
//! them, and the store finds them and hands back tuple offsets.
//!
//! # Late materialization
//!
//! A keyed lookup copies no fetched value. A key's postings are tuple offsets: as the
//! store hands them out where they need no deduplication — at most one tuple, or tuples
//! the store's own layout proves distinct on the fetched positions and `X` (a unique
//! index on the same relation whose key they cover, as ψ3 proves for Q0's ψ1 anchor) —
//! and otherwise deduplicated per key onto the operator's *arena*, a list of offsets,
//! *hash-then-compare* on the tuples where they lie. A key whose fetched positions are
//! all in `X` keeps its first tuple: every tuple projects to the key's row. Distinct
//! keys cannot produce equal projections as long as the key attributes survive in the
//! positions (lowering adds a global dedup when a pushed-down projection dropped them),
//! so per-key dedup suffices.
//!
//! The emission is two position lists — the source rows and the fetched tuples that
//! passed the residual — from which every output column is built: a fetched column
//! points into the store at the fetched tuples ([`Column::Stored`]), a stored source
//! column at its own tuples taken at the source rows, and only a value source column
//! (a constant, a δ's input of constants) is cloned. Residual predicates read source
//! rows and fetched tuples in place. So what a lookup still clones is its memo's keys,
//! and a value column its emission takes; δ's seen set, a constant append and the
//! output table clone what they own downstream.
//!
//! The memo, which serves a repeated key from its postings, exists only where keys can
//! repeat: when the plan proves that the source never repeats a key
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
//! new to the operator go to one `resolve`, and the rows are then emitted in order,
//! each from its position's postings.
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
//! flat key columns, drawn from the thread's [`super::BufferPool`] once per operator
//! instance. The arena's offsets and the staging vectors grow with the operator's
//! largest batch (they are not pooled across queries); each emission allocates its
//! fetched-tuple list, shared by every fetched column, and a list per stored column.
//!
//! Per operator instance, what remains is its box and its staging vectors: the step's
//! key columns, positions, relation and predicates are borrowed from the plan
//! ([`FetchStep`]; only a residual that compares with a request's constant is a copy,
//! with the constant in). `tests/alloc_budget.rs` holds the model to the allocator: a
//! cold Q0 stays under a fixed number of heap allocations, whatever it fetches;
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
//! map when the query finishes. Residency counts the rows a key of two or more tuples
//! holds — its deduplicated tuples, whether the arena lists them or the store does —
//! from its fetch until the operator is exhausted or dropped.

use super::batch::{passes_with, Batch, Column, RowTable, Tuples};
use super::{BoxOp, Operator, SharedState, BATCH_SIZE};
use crate::stats::AccessStats;
use bea_core::error::Result;
use bea_core::plan::{PhysOp, PhysicalPlan, Predicate};
use bea_core::value::hash_row;
use bea_storage::index::{Offsets, GROUP};
use bea_storage::Store;
use std::borrow::Cow;
use std::collections::VecDeque;
use std::sync::Arc;

/// Reusable open-addressing set of arena rows — the per-key dedup table of
/// [`Arena::append`]. One slot vector, re-sized and blanked per key, so deciding
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
    /// Deduplicated hash-then-compare onto the [`Arena`].
    Dedup,
}

/// One key's postings: tuple offsets, as the store hands them out or as the arena
/// keeps them once deduplicated.
#[derive(Debug, Clone)]
enum Postings<'db> {
    /// Straight from the store's index.
    Store(Offsets<'db>),
    /// Rows `start .. end` of [`Arena::offsets`].
    Arena(std::ops::Range<usize>),
}

/// The keyed lookup's per-query tier: the deduplicated offsets of every key that needed
/// per-key dedup, and, where keys can repeat, the memo that serves repeats — the keys
/// the operator has seen in a [`RowTable`] — with, at each key's position, its
/// [`Postings`].
#[derive(Debug)]
struct Arena<'db> {
    offsets: Vec<u32>,
    /// The memo's keys; unused where the memo is dropped.
    keys: RowTable,
    /// `held[p]` is where the postings at position `p` lie. Where the memo is dropped,
    /// it holds the current batch's rows.
    held: Vec<Postings<'db>>,
    dedup: RowSet,
}

impl Arena<'_> {
    /// Append the offsets of a key's tuples — two or more — distinct on `positions`
    /// where they lie in `tuples`, in posting order: hash-then-compare deduplicated and
    /// compacted in place, so no value is read twice or cloned. The rows they occupy.
    fn append(
        &mut self,
        fetched: Offsets<'_>,
        tuples: Tuples<'_>,
        positions: &[usize],
    ) -> std::ops::Range<usize> {
        let start = self.offsets.len();
        self.offsets.extend(fetched);
        let end = self.offsets.len();
        self.dedup.reset(end - start);
        let mut kept = start;
        for idx in start..end {
            if self
                .dedup
                .insert(tuples, &self.offsets, positions, idx, kept)
            {
                self.offsets[kept] = self.offsets[idx];
                kept += 1;
            }
        }
        self.offsets.truncate(kept);
        start..kept
    }

    /// The offsets `postings` name.
    fn offsets<'a>(&'a self, postings: &Postings<'a>) -> Offsets<'a> {
        match postings {
            Postings::Store(offsets) => offsets.clone(),
            Postings::Arena(rows) => Offsets::Listed(self.offsets[rows.clone()].iter()),
        }
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
/// number of distinct multi-tuple keys: offsets, not values, released on exhaustion (or
/// on drop if a consumer short-circuits). The tuples stay in the store, which outlives
/// the operator. Neither the cross product nor the fetched table is ever materialized.
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
    arena: Arena<'db>,
    per_key: PerKey,
    /// Whether the arena's memo is kept: false when the plan proves the source never
    /// repeats a key ([`KeyedLookupOp::distinct_keys`]).
    memo: bool,
    /// Rows this operator holds on the residency ledger.
    cached_rows: u64,
    /// Each row's memo position in [`Arena::held`], for the current source batch;
    /// empty where the memo is dropped, and a row's number is its position.
    rows: Vec<u32>,
    /// What `resolve` returned for each key of the current batch new to the operator.
    resolved: Vec<Offsets<'db>>,
    /// The source row of each emitted row of the current batch.
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
        let keys = {
            let mut state = state.borrow_mut();
            let keys = (0..fetch.key_cols.len()).map(|_| state.pool.get_values());
            RowTable::new("a keyed lookup", keys.collect())
        };
        Ok(Self {
            input,
            fetch,
            tuples,
            residual,
            out_cols,
            store,
            state,
            arena: Arena {
                offsets: Vec::new(),
                keys,
                held: Vec::new(),
                dedup: RowSet::default(),
            },
            per_key,
            memo: true,
            cached_rows: 0,
            rows: Vec::new(),
            resolved: Vec::new(),
            sources: Vec::new(),
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

    /// Stage `batch` (see the module docs): give every row its key's position in
    /// [`Arena::held`], and fetch the keys new to the operator in one `resolve`.
    fn stage(&mut self, batch: &Batch<'db>) -> Result<()> {
        let key_cols = self.fetch.key_cols;
        let arity = key_cols.len();
        self.rows.clear();
        self.resolved.clear();
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
            (first, keys.len() - first)
        } else {
            self.arena.held.clear();
            (0, batch.len())
        };
        // A new key's values are cloned into the memo; the store reads keys in place.
        if self.memo {
            self.tally.values_cloned += (count * arity) as u64;
        }
        if count == 0 {
            // The memo held every key: nothing to resolve, and no fetch error either,
            // as in a per-key loop.
            return Ok(());
        }
        let (store, constraint) = (self.store, self.fetch.constraint_index);
        if self.memo {
            let keys = &self.arena.keys;
            let key = |i: usize, m: usize| keys.value((first + i) as u32, m);
            store.resolve(constraint, count, arity, key, &mut self.resolved)?;
        } else {
            let key = |i: usize, m: usize| {
                if m == 0 {
                    batch.hint(i + GROUP, key_cols[0]);
                }
                batch.value(i, key_cols[m])
            };
            store.resolve(constraint, count, arity, key, &mut self.resolved)?;
        }
        self.arena.held.reserve(count);
        for p in 0..count {
            let postings = self.fetch(p);
            self.arena.held.push(postings);
        }
        Ok(())
    }

    /// The one miss path, for miss `p` of the batch, tallying its costs — an index
    /// lookup and the fetch accounting. A key of two or more tuples acquires residency
    /// for the rows it holds, deduplicated as [`PerKey`] says.
    fn fetch(&mut self, p: usize) -> Postings<'db> {
        self.tally.index_lookups += 1;
        let offsets = self.resolved[p].clone();
        let fetched = offsets.len();
        self.tally.tuples_fetched += fetched as u64;
        if fetched <= 1 {
            return Postings::Store(offsets);
        }
        let (postings, rows) = match self.per_key {
            PerKey::Distinct => (Postings::Store(offsets), fetched),
            PerKey::First => {
                let first = offsets.clone().next().expect("two or more tuples");
                (Postings::Store(Offsets::Run(first..first + 1)), 1)
            }
            PerKey::Dedup => {
                let rows = self
                    .arena
                    .append(offsets, self.tuples, self.fetch.positions);
                (Postings::Arena(rows.clone()), rows.len())
            }
        };
        self.state.borrow_mut().acquire(rows as u64);
        self.cached_rows += rows as u64;
        postings
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

    /// Flush the tally and release the rows this operator holds.
    fn release(&mut self) {
        self.flush_tally();
        let rows = std::mem::take(&mut self.cached_rows);
        self.state.borrow_mut().release(rows);
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

    /// The rows of `batch` joined with their keys' postings, as columns: pair each
    /// source row with every fetched tuple that passes the residual predicates, then
    /// build each output column over those pairs (see the module docs).
    fn emission(&mut self, batch: &Batch<'db>) -> Batch<'db> {
        let (left_arity, positions, tuples) = (batch.arity(), self.fetch.positions, self.tuples);
        let at = |i: usize| self.rows.get(i).map_or(i, |&at| at as usize);
        let held = |i: usize| self.arena.offsets(&self.arena.held[at(i)]);
        let pairs: usize = (0..batch.len()).map(|i| held(i).len()).sum();
        let mut fetched = Vec::with_capacity(pairs);
        self.sources.clear();
        self.sources.reserve(pairs);
        for i in 0..batch.len() {
            for t in held(i) {
                let combined = |c: usize| match c.checked_sub(left_arity) {
                    None => batch.value(i, c),
                    Some(c) => tuples.value(t, positions[c]),
                };
                if passes_with(&self.residual, combined) {
                    self.sources.push(i as u32);
                    fetched.push(t);
                }
            }
        }
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
                    let (column, cloned) = batch.take(c, &self.sources, || state.pool.get_values());
                    self.tally.values_cloned += cloned;
                    column
                }
            }
        });
        Batch::new(columns, rows)
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
            let mut state = self.state.borrow_mut();
            state.stats.fetch_ops += 1;
            // The memo's key columns go back to the pool, cleared, for the thread's
            // next probe loop.
            for col in self.arena.keys.release() {
                state.pool.put_values(col);
            }
            return Ok(None);
        };
        debug_assert_eq!(batch.arity(), self.fetch.source_arity);
        self.stage(&batch)?;
        let emitted = self.emission(&batch);
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

        /// A lookup on `R` keyed by source column 0, fetching `positions`; its source has
        /// the arity of the first batch pulled, or one column.
        fn lookup<'db>(
            &self,
            idb: &'db IndexedDatabase,
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
        // A resolved key, read back from the first tuple it found: key 3 has none.
        let key_of = |op: &KeyedLookupOp<'_>, offsets: &Offsets<'_>| -> i64 {
            offsets
                .clone()
                .next()
                .map_or(3, |t| match op.tuples.value(t, 0) {
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
            // After a pull, `resolved` holds what its batch's keys found.
            let (mut rows, mut resolved) = (0, Vec::new());
            while let Some(batch) = op.next_batch().unwrap() {
                rows += batch.len();
                let keys = op.resolved.iter().map(|offsets| key_of(&op, offsets));
                resolved.push(keys.collect::<Vec<_>>());
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
    /// whether its arena listed any offset.
    fn unique_run(
        idb: &IndexedDatabase,
        positions: &[usize],
    ) -> (PerKey, Vec<Vec<i64>>, crate::stats::AccessStats, u64, bool) {
        let h = Harness::new();
        let pulls = vec![Ok(ints(&[&[1], &[2], &[1]]))];
        let mut op = h.lookup(idb, pulls, positions, Vec::new(), None);
        let out = drain(&mut op).concat();
        let (per_key, arena) = (op.per_key, !op.arena.offsets.is_empty());
        drop(op);
        assert_eq!(h.ledger.resident(), 0);
        (per_key, out, h.stats(), h.ledger.peak(), arena)
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
            assert!(
                !skipped.4,
                "the tuples are listed where the store lists them"
            );
            assert!(deduped.4, "the dedup path lists them in the arena");
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
        let (per_key, out, stats, peak, arena) = unique_run(&unique_store(true), &[0, 1]);
        let key1 = [[1, 1, 10], [1, 1, 11]].map(Vec::from);
        let expected = [&key1[..], &[vec![2, 2, 20]], &key1].concat();
        assert_eq!(out, expected);
        assert_eq!((stats.tuples_fetched, peak), (4, 2));
        assert_eq!(per_key, PerKey::Dedup);
        assert!(arena);
        // Fetched positions all in `X` keep one row per key, unique index or not.
        let (per_key, out, ..) = unique_run(&unique_store(true), &[0]);
        assert_eq!(per_key, PerKey::First);
        assert_eq!(out, [[1, 1], [2, 2], [1, 1]].map(Vec::from));
    }

    /// A batch of one stored column: `R`'s attribute `attr` at `tuples`.
    fn stored<'db>(idb: &'db IndexedDatabase, attr: usize, tuples: &[u32]) -> Batch<'db> {
        let relation = idb.database().relation("R").unwrap();
        let column = Column::Stored {
            tuples: Tuples {
                values: relation.values(),
                arity: 3,
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
}
