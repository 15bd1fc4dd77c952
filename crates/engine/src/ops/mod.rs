//! The streaming batch pipeline executing physical plans.
//!
//! [`crate::exec::execute_physical_on`] runs a [`PhysicalPlan`] (lowered by
//! `bea_core::plan::physical::lower_plan`) against a [`Store`] — an unsharded
//! `IndexedDatabase`, or a `ShardedDatabase` that routes each probe key to the shard
//! owning it — as a tree of pull-based operators, each implementing
//! [`Operator::next_batch`]. Rows move through
//! the pipeline in bounded **columnar** [`batch::Batch`]es — filter and project are
//! selection-vector and column-permutation metadata, only gathers (joins, products,
//! fetch output) write values, and every value write is an O(1) clone (interned string
//! payloads; see the [`batch`] docs). Only genuine pipeline breakers hold rows for
//! longer than a batch:
//!
//! * steps marked [`bea_core::plan::PhysStep::materialize`] (shared by several
//!   consumers, the plan output, or exchange points inserted for parallelism) are
//!   materialized once and *freed as soon as their last consumer has drained them*;
//! * join build sides, per-key fetch caches, dedup sets and the key set of a fetch are
//!   operator-internal state, released when the operator is exhausted — or when it is
//!   dropped undrained (every operator holding durable state implements `Drop`), so a
//!   short-circuiting or failing consumer can never leak residency.
//!
//! # Threading model
//!
//! The plan's [`bea_core::plan::PipelineDag`] cuts it into pipelines at the
//! materialization points; the materialized results are the exchange edges, and
//! [`Operator::next_batch`] over a completed materialization ([`source::ScanOp`]) is
//! the exchange protocol. One driver walks every DAG — [`sched::Pool`], whose
//! `run_claimed` is the only code that runs a pipeline (see the [`sched`] docs):
//!
//! * [`execute`], under [`crate::exec::execute_plan_on`] and
//!   [`crate::exec::execute_physical_on`], builds a pool on the caller's stack for its
//!   one query and the calling thread runs the query's ready pipelines itself, lowest
//!   first. With `threads == 1` (or a single-pipeline DAG) that is all there is:
//!   pipelines run whole, in step order, on the calling thread — no thread is spawned
//!   and nothing waits. With `threads > 1` the caller is joined by scoped helpers
//!   (`threads`, or as many as there are pipelines when none can split, less the
//!   caller) that take any ready job;
//! * a [`crate::session::Session`] keeps one pool and its workers alive across
//!   queries, and the thread asking for an answer helps the same way.
//!
//! Each job runs with its *own* [`ExecState`] (operators stay single-threaded and
//! `Rc`-based), and the per-job counters are combined with
//! [`AccessStats::merge_concurrent`]. A **morsel-splittable** pipeline
//! (`bea_core::plan::Pipeline::morsel_source`) is additionally cut *within* when more
//! than one thread runs the query: its source batches are grouped into morsels of
//! whole batches ([`morsel`]) and each morsel runs the chain as its own job, sharing
//! only the per-lookup [`morsel::SharedLookupCache`]s; the per-morsel outputs are
//! concatenated in morsel order, so rows, row order and every deterministic counter
//! are identical at any morsel size.
//!
//! Residency is accounted in a [`ResidencyLedger`] *shared by all threads running one
//! query*: every durable row acquisition and release goes through one pair of atomics,
//! so [`crate::stats::AccessStats::peak_rows_resident`] reflects true simultaneous
//! residency across threads — never the per-job maxima that a sequential merge
//! would report. Data access (index lookups, tuples fetched, per-relation counters)
//! is accounted identically at every thread count: scheduling changes *when* operators
//! run, never *what* they fetch, so a bounded plan stays bounded and
//! [`AccessStats::same_data_access`] holds across `threads` settings.
//!
//! Operator catalogue: [`source`] (constants, unit, empty, scans of materialized
//! steps), [`fetch`] (streaming index fetch and the fused keyed-lookup join),
//! [`relational`] (filter, project, dedup, union, difference, product) and [`join`]
//! (the generic hash join used when a fetch result stays shared).

pub(crate) mod batch;
pub(crate) mod fetch;
pub(crate) mod join;
pub(crate) mod morsel;
pub(crate) mod relational;
pub(crate) mod sched;
pub(crate) mod source;

use crate::stats::AccessStats;
use crate::table::Table;
use batch::Batch;
use bea_core::error::{Error, Result};
use bea_core::plan::{step_surface, PhysOp, PhysicalPlan};
use bea_core::value::Value;
use bea_storage::Store;
use std::borrow::Cow;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Rows per pulled batch. Large enough to amortize dispatch, small enough that batch
/// buffers stay negligible next to any real intermediate result.
pub(crate) const BATCH_SIZE: usize = 1024;

/// Relation name that makes a streaming fetch panic on its first pull — the
/// panic injection hook for the driver's panic-safety tests (test builds
/// only; release builds carry no such check).
#[cfg(test)]
pub(crate) const PANIC_RELATION: &str = "__panic__";

/// The residency ledger shared by every worker of one execution: a resident-row counter
/// plus its high-water mark, both atomic so that concurrent pipelines account their
/// durable rows against *one* total. The peak therefore measures true simultaneous
/// residency — merging per-worker peaks after the fact (with either `max` or `+`) could
/// only under- or over-state it.
#[derive(Debug, Default)]
pub(crate) struct ResidencyLedger {
    resident: AtomicU64,
    peak: AtomicU64,
}

impl ResidencyLedger {
    /// Record `rows` newly held by a durable structure and update the high-water mark.
    ///
    /// Relaxed ordering suffices: read-modify-write operations on a single atomic are
    /// totally ordered by coherence, so the arithmetic is exact; no other memory is
    /// synchronized through the ledger.
    pub(crate) fn acquire(&self, rows: u64) {
        let now = self.resident.fetch_add(rows, Ordering::Relaxed) + rows;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    /// Record `rows` released by a durable structure.
    pub(crate) fn release(&self, rows: u64) {
        self.resident.fetch_sub(rows, Ordering::Relaxed);
    }

    /// The high-water mark of concurrently resident rows.
    pub(crate) fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }

    /// Rows currently resident (zero after a fully drained execution).
    pub(crate) fn resident(&self) -> u64 {
        self.resident.load(Ordering::Relaxed)
    }
}

/// Freelists of cleared executor buffers, recycled across probes so the steady-state
/// anchored serving loop stops asking the allocator for anything.
///
/// The contract: a buffer in the pool is always *empty* (cleared before
/// `put_values`), so the pool holds capacity, never rows — the [`ResidencyLedger`]'s
/// drained-to-zero assertion is unaffected by pooling. Operators draw per-batch
/// gather columns and the keyed lookup's arena columns from here and hand
/// uniquely-owned buffers back on teardown (exhausted arenas and scratch); buffers
/// shared downstream simply stay with their owners. The pool lives on [`ExecState`]
/// and is dropped with it, so everything pooled is freed at executor teardown.
#[derive(Debug)]
pub(crate) struct BufferPool {
    values: Vec<Vec<Value>>,
    cap: usize,
}

impl Default for BufferPool {
    fn default() -> Self {
        Self::with_cap(Self::DEFAULT_CAP)
    }
}

impl BufferPool {
    /// Freelist cap when no plan is in sight (bare `ExecState`s in tests);
    /// executions size the cap from the plan via [`pool_cap_for`].
    pub(crate) const DEFAULT_CAP: usize = 64;
    /// Floor for the plan-derived cap: even a single-fetch plan keeps a few buffers
    /// warm across operator teardowns.
    pub(crate) const MIN_CAP: usize = 8;
    /// Ceiling for the plan-derived cap, so one very wide plan cannot pin unbounded
    /// capacity.
    pub(crate) const MAX_CAP: usize = 256;

    /// An empty pool that retains at most `cap` buffers.
    pub(crate) fn with_cap(cap: usize) -> Self {
        Self {
            values: Vec::new(),
            cap,
        }
    }

    /// The freelist cap.
    #[cfg(test)]
    pub(crate) fn cap(&self) -> usize {
        self.cap
    }

    /// Buffers currently pooled, for sizing tests.
    #[cfg(test)]
    pub(crate) fn pooled(&self) -> usize {
        self.values.len()
    }

    /// A cleared value buffer — recycled capacity when available, fresh otherwise.
    pub(crate) fn get_values(&mut self) -> Vec<Value> {
        self.values.pop().unwrap_or_default()
    }

    /// Return a value buffer to the freelist (cleared; dropped if the list is full
    /// or the buffer never grew any capacity worth keeping).
    pub(crate) fn put_values(&mut self, mut buffer: Vec<Value>) {
        buffer.clear();
        if buffer.capacity() > 0 && self.values.len() < self.cap {
            self.values.push(buffer);
        }
    }
}

/// The buffer-pool freelist cap for executions of `plan`: the probe path's worst-case
/// simultaneous buffer demand — the sum of every step's [`step_surface`], the formula
/// a cost ticket prices allocation surfaces with — clamped to
/// [`BufferPool::MIN_CAP`]`..=`[`BufferPool::MAX_CAP`]. Tiny plans pool a handful of
/// buffers instead of pinning 64; wide plans get enough headroom that operator
/// teardowns don't thrash the freelist.
pub(crate) fn pool_cap_for(plan: &PhysicalPlan) -> usize {
    let demand: u64 = plan.steps().iter().map(|step| step_surface(&step.op)).sum();
    (demand as usize).clamp(BufferPool::MIN_CAP, BufferPool::MAX_CAP)
}

/// Mutable state owned by one job: its share of the access statistics, a handle to
/// the query-wide [`ResidencyLedger`], and the job's [`BufferPool`]. The driver
/// combines the counter parts with [`AccessStats::merge_concurrent`], while residency
/// peaks always come from the shared ledger. The pool is per-state on purpose:
/// buffers never cross threads.
#[derive(Debug)]
pub(crate) struct ExecState {
    /// Access statistics accumulated by this worker's operators.
    pub stats: AccessStats,
    /// Recycled gather/selection/key buffers; see [`BufferPool`].
    pub(crate) pool: BufferPool,
    /// The session's cross-query fetch cache, when this worker executes a session
    /// job and the session has one configured ([`crate::cache::SessionFetchCache`]).
    /// `None` everywhere else — solo executions and cache-disabled sessions probe the
    /// store directly.
    pub(crate) cache: Option<Arc<crate::cache::SessionFetchCache>>,
    ledger: Arc<ResidencyLedger>,
}

impl ExecState {
    /// A state with the default pool cap, for tests that have no plan in hand.
    #[cfg(test)]
    pub(crate) fn new(ledger: Arc<ResidencyLedger>) -> Self {
        Self::with_pool_cap(ledger, BufferPool::DEFAULT_CAP)
    }

    /// A state whose buffer pool retains at most `pool_cap` buffers —
    /// executions derive the cap from the plan with [`pool_cap_for`].
    pub(crate) fn with_pool_cap(ledger: Arc<ResidencyLedger>, pool_cap: usize) -> Self {
        Self {
            stats: AccessStats::default(),
            pool: BufferPool::with_cap(pool_cap),
            cache: None,
            ledger,
        }
    }

    /// Record `rows` newly held by a durable structure (materialized step, build side,
    /// cache, dedup set) against the shared ledger.
    pub fn acquire(&mut self, rows: u64) {
        self.ledger.acquire(rows);
    }

    /// Record `rows` released by a durable structure.
    pub fn release(&mut self, rows: u64) {
        self.ledger.release(rows);
    }
}

/// Per-worker handle to the execution state. `Rc` on purpose: an operator tree is
/// built, run and dropped on a single worker thread; only the [`ResidencyLedger`] and
/// the materialized steps cross threads.
pub(crate) type SharedState = Rc<RefCell<ExecState>>;

/// A pull-based streaming operator over columnar [`Batch`]es.
///
/// Contract: `next_batch` returns `Ok(Some(batch))` (possibly empty) while rows may
/// remain and `Ok(None)` once exhausted, forever after. Operators release their durable
/// state when they report exhaustion. Consumers are *not* required to drain their
/// inputs: an operator may be dropped mid-stream (short-circuits, errors), so every
/// operator holding durable state also releases it on `Drop` — residency accounting
/// must return to zero however an execution ends.
pub(crate) trait Operator {
    /// Pull the next batch of rows.
    fn next_batch(&mut self) -> Result<Option<Batch>>;
}

/// Boxed operator borrowing the database for `'db`.
pub(crate) type BoxOp<'db> = Box<dyn Operator + 'db>;

/// A materialized step: its batches plus the number of consumers still to drain them.
/// The batches are dropped — and their residency released — when the last consumer
/// finishes (or is dropped; see [`source::ScanOp`]). Consumers receive the *same*
/// batches by cheap clone (an `Arc` bump per column), so crossing a materialization
/// point between pipelines copies no values.
#[derive(Debug)]
pub(crate) struct MatNode {
    pub(crate) batches: Option<Vec<Batch>>,
    /// Total logical rows across `batches`, acquired against the residency ledger by
    /// the producing pipeline and released here when the last consumer is done.
    pub(crate) rows: u64,
    pub(crate) remaining: usize,
}

/// Shared handle to a materialized step. `Arc<Mutex<…>>` because materialized results
/// are the exchange edges between pipelines, which may drain them from different worker
/// threads.
pub(crate) type SharedMat = Arc<Mutex<MatNode>>;

/// One-shot slot for each step's materialization, written by the pipeline that produces
/// it and read by the pipelines that scan it.
pub(crate) type MatSlots = [OnceLock<SharedMat>];

/// Validate one fetch-shaped step (`step` names it, e.g. "physical step 3", and is
/// formatted only into an error message) against the database it is about to probe:
/// the backing constraint must exist in the access schema, agree with the key arity,
/// and `attrs` may only name attribute positions the relation has. Shared by the streaming executor (physical
/// fetch/keyed-lookup steps) and the materialized reference (logical fetch steps) so the
/// two can never drift on what counts as a malformed plan.
pub(crate) fn validate_fetch_shape<'a>(
    store: Store<'_>,
    step: impl std::fmt::Display,
    relation: &str,
    key_cols: &[usize],
    attrs: impl Iterator<Item = &'a usize>,
    constraint_index: usize,
) -> Result<()> {
    let constraint =
        store
            .schema()
            .constraint(constraint_index)
            .ok_or_else(|| Error::MissingConstraint {
                reason: format!(
                    "{step} fetches via constraint {constraint_index}, which the access schema \
                     does not contain"
                ),
            })?;
    if key_cols.len() != constraint.x().len() {
        return Err(Error::InvalidPlan {
            reason: format!(
                "{step} probes constraint {constraint_index} with {} key columns; the \
                 constraint's key has {}",
                key_cols.len(),
                constraint.x().len()
            ),
        });
    }
    let arity = store.database().catalog().relation(relation)?.arity();
    for &position in attrs {
        if position >= arity {
            return Err(Error::InvalidPlan {
                reason: format!(
                    "{step} projects attribute positions out of range for {relation} \
                     (arity {arity})"
                ),
            });
        }
    }
    Ok(())
}

/// Validate a physical plan against the store it is about to run on, so malformed
/// plans fail *before* execution starts instead of panicking mid-pipeline:
/// [`PhysicalPlan::validate`] checks step wiring, arities and predicate column bounds;
/// [`validate_fetch_shape`] checks every fetch against the schema and catalog.
pub(crate) fn validate_for(plan: &PhysicalPlan, store: Store<'_>) -> Result<()> {
    plan.validate()?;
    for (i, step) in plan.steps().iter().enumerate() {
        let (relation, key_cols, x_attrs, positions, constraint_index) = match &step.op {
            PhysOp::Fetch {
                relation,
                key_cols,
                x_attrs,
                positions,
                constraint_index,
                ..
            }
            | PhysOp::KeyedLookup {
                relation,
                key_cols,
                x_attrs,
                positions,
                constraint_index,
                ..
            } => (relation, key_cols, x_attrs, positions, constraint_index),
            _ => continue,
        };
        validate_fetch_shape(
            store,
            format_args!("physical step {i}"),
            relation,
            key_cols,
            x_attrs.iter().chain(positions.iter()),
            *constraint_index,
        )?;
    }
    Ok(())
}

/// Execute a physical plan on the calling thread and up to `threads - 1` scoped
/// helpers, with `morsel_rows` as the intra-pipeline morsel size, returning the output
/// table and the access/residency statistics.
pub(crate) fn execute(
    plan: &PhysicalPlan,
    store: Store<'_>,
    threads: usize,
    morsel_rows: usize,
) -> Result<(Table, AccessStats)> {
    let (table, stats, _ledger) = execute_inner(plan, store, threads, morsel_rows)?;
    Ok((table, stats))
}

/// [`execute`], additionally returning the residency ledger so tests can assert that
/// accounting drained back to zero.
pub(crate) fn execute_inner(
    plan: &PhysicalPlan,
    store: Store<'_>,
    threads: usize,
    morsel_rows: usize,
) -> Result<(Table, AccessStats, Arc<ResidencyLedger>)> {
    validate_for(plan, store)?;
    let query = sched::QueryShared::new(Cow::Borrowed(plan), 0);
    let ledger = Arc::clone(&query.ledger);
    // A single thread runs every pipeline whole.
    let morsel_rows = if threads <= 1 {
        usize::MAX
    } else {
        morsel_rows
    };
    // One thread per pipeline is enough when nothing can split, but a splittable
    // pipeline fans out into more jobs than the DAG has nodes — give it the full
    // thread budget so its morsels actually run side by side. The caller is one of
    // the threads.
    let dag = query.dag();
    let splittable =
        morsel_rows != usize::MAX && dag.pipelines().iter().any(|p| p.morsel_source.is_some());
    let helpers = if splittable {
        threads
    } else {
        threads.min(dag.len())
    }
    .saturating_sub(1);

    let pool = sched::Pool::new(morsel_rows, None, None);
    let submitted = pool.submit(query, true)?;
    // The pool's only query is in: helpers leave when it retires.
    pool.shut_down();
    let join = || pool.join(store, submitted.id, &submitted.outcome);
    let (table, stats) = if helpers == 0 {
        join()
    } else {
        std::thread::scope(|scope| {
            for _ in 0..helpers {
                scope.spawn(|| pool.worker_loop(store));
            }
            join()
        })
    }?;
    Ok((table, stats, ledger))
}

/// Execute one pipeline: pull the operator tree rooted at `sink` to exhaustion and
/// publish the materialized result for the pipelines that scan it.
pub(crate) fn run_pipeline(
    plan: &PhysicalPlan,
    sink: usize,
    store: Store<'_>,
    state: &SharedState,
    mats: &MatSlots,
) -> Result<()> {
    let mut op = build_op(plan, sink, store, state, mats, None)?;
    let mut batches: Vec<Batch> = Vec::new();
    let mut rows: u64 = 0;
    while let Some(batch) = op.next_batch()? {
        state.borrow_mut().acquire(batch.len() as u64);
        rows += batch.len() as u64;
        if !batch.is_empty() {
            batches.push(batch);
        }
    }
    drop(op);
    let node = Arc::new(Mutex::new(MatNode {
        batches: Some(batches),
        rows,
        remaining: plan.steps()[sink].consumers,
    }));
    if mats[sink].set(node).is_err() {
        unreachable!("each pipeline is executed exactly once");
    }
    Ok(())
}

/// Execute one morsel of a split pipeline: the operator chain rooted at `sink`,
/// instantiated over this morsel's range of the source batches, pulled to
/// exhaustion. The emitted batches are acquired against the ledger exactly as
/// [`run_pipeline`] acquires them; the driver concatenates the per-morsel results
/// in morsel order and publishes the materialization when the split's last morsel
/// lands, so the published batch list is identical to the unsplit pipeline's.
pub(crate) fn run_morsel(
    plan: &PhysicalPlan,
    sink: usize,
    store: Store<'_>,
    state: &SharedState,
    mats: &MatSlots,
    ctx: &morsel::MorselCtx,
) -> Result<(Vec<Batch>, u64)> {
    let mut op = build_op(plan, sink, store, state, mats, Some(ctx))?;
    let mut batches: Vec<Batch> = Vec::new();
    let mut rows: u64 = 0;
    while let Some(batch) = op.next_batch()? {
        state.borrow_mut().acquire(batch.len() as u64);
        rows += batch.len() as u64;
        if !batch.is_empty() {
            batches.push(batch);
        }
    }
    Ok((batches, rows))
}

/// Build the operator for step `node`, recursing into non-materialized inputs and
/// scanning materialized ones. With a [`morsel::MorselCtx`] the chain is instantiated
/// for one morsel: the morsel source replays its batch range instead of a full scan,
/// and keyed lookups attach the split's shared caches.
fn build_op<'db>(
    plan: &PhysicalPlan,
    node: usize,
    store: Store<'db>,
    state: &SharedState,
    mats: &MatSlots,
    morsel: Option<&morsel::MorselCtx>,
) -> Result<BoxOp<'db>> {
    let input = |j: usize| -> Result<BoxOp<'db>> {
        if let Some(ctx) = morsel {
            if j == ctx.source {
                return Ok(Box::new(morsel::MorselScanOp::new(
                    ctx.batches.clone(),
                    ctx.range,
                )));
            }
        }
        if plan.steps()[j].materialize {
            let mat = mats[j]
                .get()
                .expect("the scheduler completes a pipeline's sources before starting it");
            Ok(Box::new(source::ScanOp::new(mat.clone(), state.clone())))
        } else {
            build_op(plan, j, store, state, mats, morsel)
        }
    };
    // A keyed lookup keeps a memo only where its source can repeat a key. Built inside
    // a morsel, it shares the split's cache for its step and reports once-per-run
    // counters only on the split's first morsel.
    let configure = |op: fetch::KeyedLookupOp<'db>, step: usize| -> fetch::KeyedLookupOp<'db> {
        let PhysOp::KeyedLookup {
            source, key_cols, ..
        } = &plan.steps()[step].op
        else {
            unreachable!("configured steps are keyed lookups");
        };
        let op = op.distinct_keys(plan.keys_distinct(*source, key_cols));
        match morsel {
            Some(ctx) => op.for_morsel(ctx.caches.get(&step).cloned(), ctx.report),
            None => op,
        }
    };
    let op: BoxOp<'db> = match &plan.steps()[node].op {
        PhysOp::Const { value } => Box::new(source::SingletonOp::new(vec![value.clone()])),
        PhysOp::Unit => Box::new(source::SingletonOp::new(Vec::new())),
        PhysOp::Empty { .. } => Box::new(source::EmptyOp),
        PhysOp::Fetch {
            source,
            key_cols,
            relation,
            positions,
            constraint_index,
            ..
        } => Box::new(fetch::FetchOp::new(
            input(*source)?,
            key_cols.clone(),
            relation.clone(),
            positions.clone(),
            *constraint_index,
            store,
            state.clone(),
        )),
        PhysOp::KeyedLookup {
            source,
            key_cols,
            relation,
            positions,
            constraint_index,
            residual,
            ..
        } => Box::new(configure(
            fetch::KeyedLookupOp::new(
                input(*source)?,
                key_cols.clone(),
                relation.clone(),
                positions.clone(),
                *constraint_index,
                residual.clone(),
                None,
                store,
                state.clone(),
            ),
            node,
        )),
        PhysOp::HashJoin {
            left,
            right,
            left_keys,
            right_keys,
            residual,
        } => Box::new(join::HashJoinOp::new(
            input(*left)?,
            input(*right)?,
            left_keys.clone(),
            right_keys.clone(),
            residual.clone(),
            plan.steps()[*right].columns.len(),
            state.clone(),
        )),
        PhysOp::Filter { source, predicates } => Box::new(relational::FilterOp::new(
            input(*source)?,
            predicates.clone(),
        )),
        PhysOp::Project { source, cols } => {
            // Fusion: a projection whose direct (sole, non-materialized) input is a
            // keyed lookup becomes the lookup's emission column set, so values the
            // projection would drop are never gathered at all. Materialized sources
            // are exchange points and must stay full-width for their other consumers.
            //
            // Deliberately an operator-tree concern, not a lowering rule: which
            // columns get *physically gathered* is a property of this executor's
            // columnar batches (the materialized reference and plan
            // validation/costing/pipeline_dag all reason about the unfused steps,
            // and must keep doing so). If the fused pattern is broken by a future
            // lowering change, execution falls back to the explicit ProjectOp —
            // slower, never wrong.
            if !plan.steps()[*source].materialize {
                if let PhysOp::KeyedLookup {
                    source: klu_source,
                    key_cols,
                    relation,
                    positions,
                    constraint_index,
                    residual,
                    ..
                } = &plan.steps()[*source].op
                {
                    return Ok(Box::new(configure(
                        fetch::KeyedLookupOp::new(
                            input(*klu_source)?,
                            key_cols.clone(),
                            relation.clone(),
                            positions.clone(),
                            *constraint_index,
                            residual.clone(),
                            Some(cols.clone()),
                            store,
                            state.clone(),
                        ),
                        *source,
                    )));
                }
            }
            Box::new(relational::ProjectOp::new(input(*source)?, cols.clone()))
        }
        PhysOp::Dedup { source } => Box::new(relational::DedupOp::new(
            input(*source)?,
            plan.steps()[node].columns.len(),
            state.clone(),
        )),
        PhysOp::Product { left, right } => Box::new(relational::ProductOp::new(
            input(*left)?,
            input(*right)?,
            state.clone(),
        )),
        PhysOp::Union { left, right } => {
            Box::new(relational::UnionOp::new(input(*left)?, input(*right)?))
        }
        PhysOp::Difference { left, right } => Box::new(relational::DifferenceOp::new(
            input(*left)?,
            input(*right)?,
            plan.steps()[node].columns.len(),
            state.clone(),
        )),
    };
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_plan_materialized, execute_plan_on, ExecOptions};
    use bea_core::access::{AccessConstraint, AccessSchema};
    use bea_core::plan::{lower_plan_with, LowerOptions, PlanBuilder, Predicate};
    use bea_core::value::Row;
    use bea_storage::{Database, IndexedDatabase};

    fn setup() -> IndexedDatabase {
        let mut c = bea_core::schema::Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let schema =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 10).unwrap()
            ]);
        let mut db = Database::new(c);
        db.extend(
            "R",
            [
                vec![Value::int(1), Value::int(10)],
                vec![Value::int(1), Value::int(11)],
                vec![Value::int(2), Value::int(20)],
                vec![Value::int(3), Value::int(30)],
            ],
        )
        .unwrap();
        IndexedDatabase::build(db, schema).unwrap()
    }

    /// A union of two independent keyed-lookup branches anchored at `keys` — lowered
    /// with exchange points this decomposes into one pipeline per branch plus the
    /// output pipeline.
    fn union_of_lookups(keys: &[i64]) -> bea_core::plan::QueryPlan {
        let mut b = PlanBuilder::new();
        let branch = |b: &mut PlanBuilder, key: i64| {
            let k = b.constant(Value::int(key), "k");
            let fetched = b.fetch(
                k,
                vec![0],
                "R",
                vec![0],
                vec![1],
                0,
                vec!["a".into(), "b".into()],
            );
            let prod = b.product(k, fetched);
            b.select(prod, vec![Predicate::ColEqCol(0, 1)])
        };
        let mut acc = branch(&mut b, keys[0]);
        for &key in &keys[1..] {
            let next = branch(&mut b, key);
            acc = b.union(acc, next);
        }
        b.finish("Q", acc).unwrap()
    }

    #[test]
    fn parallel_execution_matches_sequential_and_drains_the_ledger() {
        let idb = setup();
        let plan = union_of_lookups(&[1, 2, 3]);
        let phys =
            lower_plan_with(&plan, &LowerOptions::new().with_exchange_parallelism(true)).unwrap();
        let dag = phys.pipeline_dag();
        assert!(dag.len() >= 4, "expected one pipeline per branch + output");
        assert!(dag.parallel_width() >= 3);

        let (seq_table, seq_stats, seq_ledger) = execute_inner(
            &phys,
            Store::Indexed(&idb),
            1,
            crate::exec::DEFAULT_MORSEL_ROWS,
        )
        .unwrap();
        let (par_table, par_stats, par_ledger) = execute_inner(
            &phys,
            Store::Indexed(&idb),
            4,
            crate::exec::DEFAULT_MORSEL_ROWS,
        )
        .unwrap();

        // Identical output — rows *and* their order are schedule-independent.
        assert_eq!(seq_table.columns(), par_table.columns());
        assert_eq!(seq_table.rows(), par_table.rows());
        assert!(!par_table.is_empty());
        // Identical data access at any thread count.
        assert!(seq_stats.same_data_access(&par_stats));
        // Concurrent residency is an upper bound on the sequential peak — deterministic
        // for this plan shape (not for arbitrary plans): the sequential peak occurs
        // while the output pipeline drains the branch materializations, and that
        // pipeline runs last, alone, with the identical resident trajectory under
        // every schedule.
        assert!(
            par_stats.peak_rows_resident >= seq_stats.peak_rows_resident,
            "parallel peak {} below sequential peak {}",
            par_stats.peak_rows_resident,
            seq_stats.peak_rows_resident
        );
        // However an execution is scheduled, every durable row is released by the end.
        assert_eq!(seq_ledger.resident(), 0);
        assert_eq!(par_ledger.resident(), 0);
    }

    #[test]
    fn parallel_execution_handles_dependent_pipelines() {
        // A shared fetch forces a chain: const pipeline → fetch pipeline → output.
        let idb = setup();
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "k");
        let fetched = b.fetch(
            k,
            vec![0],
            "R",
            vec![0],
            vec![1],
            0,
            vec!["a".into(), "b".into()],
        );
        let prod = b.product(k, fetched);
        let sel = b.select(prod, vec![Predicate::ColEqCol(0, 1)]);
        let other = b.project(fetched, vec![1]);
        let out = b.product(sel, other);
        let plan = b.finish("Q", out).unwrap();
        let phys = bea_core::plan::lower_plan(&plan).unwrap();
        assert!(phys.pipeline_dag().len() >= 3);

        let (seq_table, seq_stats, _) = execute_inner(
            &phys,
            Store::Indexed(&idb),
            1,
            crate::exec::DEFAULT_MORSEL_ROWS,
        )
        .unwrap();
        let (par_table, par_stats, par_ledger) = execute_inner(
            &phys,
            Store::Indexed(&idb),
            4,
            crate::exec::DEFAULT_MORSEL_ROWS,
        )
        .unwrap();
        assert_eq!(seq_table.rows(), par_table.rows());
        assert!(seq_stats.same_data_access(&par_stats));
        assert_eq!(par_ledger.resident(), 0);
    }

    #[test]
    fn empty_build_side_still_releases_all_residency() {
        // Anchor the shared fetch at a key with no matching rows: the hash join's
        // build side is empty at runtime. Residency must still drain to zero.
        let idb = setup();
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(99), "k");
        let fetched = b.fetch(
            k,
            vec![0],
            "R",
            vec![0],
            vec![1],
            0,
            vec!["a".into(), "b".into()],
        );
        let prod = b.product(k, fetched);
        let sel = b.select(prod, vec![Predicate::ColEqCol(0, 1)]);
        let other = b.project(fetched, vec![1]);
        let out = b.product(sel, other);
        let plan = b.finish("Q", out).unwrap();
        let phys = bea_core::plan::lower_plan(&plan).unwrap();
        assert!(phys
            .steps()
            .iter()
            .any(|s| matches!(s.op, PhysOp::HashJoin { .. })));

        for threads in [1, 4] {
            let (table, _, ledger) = execute_inner(
                &phys,
                Store::Indexed(&idb),
                threads,
                crate::exec::DEFAULT_MORSEL_ROWS,
            )
            .unwrap();
            assert!(table.is_empty());
            assert_eq!(
                ledger.resident(),
                0,
                "short-circuit shape leaked residency at {threads} threads"
            );
        }
    }

    #[test]
    fn empty_build_side_keeps_batch_arity_for_downstream_projections() {
        // Regression: a runtime-empty hash-join build side must still emit batches of
        // the plan's combined arity — a downstream projection of a right-side column
        // used to index out of bounds on the narrower placeholder batch.
        let idb = setup();
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(99), "k"); // no matching rows in R
        let fetched = b.fetch(
            k,
            vec![0],
            "R",
            vec![0],
            vec![1],
            0,
            vec!["a".into(), "b".into()],
        );
        let prod = b.product(k, fetched);
        let sel = b.select(prod, vec![Predicate::ColEqCol(0, 1)]);
        let projected = b.project(sel, vec![2]); // a fetched (right-side) column
        let other = b.project(fetched, vec![1]);
        let out = b.product(projected, other);
        let plan = b.finish("Q", out).unwrap();
        let phys = bea_core::plan::lower_plan(&plan).unwrap();
        assert!(phys
            .steps()
            .iter()
            .any(|s| matches!(s.op, PhysOp::HashJoin { .. })));
        for threads in [1, 4] {
            let (table, _, ledger) = execute_inner(
                &phys,
                Store::Indexed(&idb),
                threads,
                crate::exec::DEFAULT_MORSEL_ROWS,
            )
            .unwrap();
            assert!(table.is_empty());
            assert_eq!(ledger.resident(), 0);
        }
    }

    #[test]
    fn dropping_a_scan_mid_stream_releases_the_materialization() {
        // Regression for the "consumers always drain their inputs fully" assumption: a
        // consumer dropped mid-stream must still count as done, so the materialized
        // rows and their residency are released.
        let ledger = Arc::new(ResidencyLedger::default());
        let state: SharedState = Rc::new(RefCell::new(ExecState::new(ledger.clone())));
        let rows: Vec<Row> = (0..3).map(|i| vec![Value::int(i)]).collect();
        state.borrow_mut().acquire(rows.len() as u64);
        let node: SharedMat = Arc::new(Mutex::new(MatNode {
            batches: Some(vec![Batch::from_rows(1, rows)]),
            rows: 3,
            remaining: 2,
        }));

        let mut first = source::ScanOp::new(node.clone(), state.clone());
        assert_eq!(first.next_batch().unwrap().unwrap().len(), 3);
        drop(first); // dropped before observing exhaustion
        assert_eq!(node.lock().unwrap().remaining, 1);
        assert_eq!(ledger.resident(), 3, "rows live while a consumer remains");

        let second = source::ScanOp::new(node.clone(), state.clone());
        drop(second); // never pulled at all
        assert_eq!(node.lock().unwrap().remaining, 0);
        assert!(node.lock().unwrap().batches.is_none());
        assert_eq!(ledger.resident(), 0, "last drop must free the rows");
    }

    #[test]
    fn malformed_fetch_positions_fail_at_plan_time_not_mid_execution() {
        // y-attribute 5 does not exist in R(a, b): both executors must return a plan
        // error before touching any data instead of panicking on `tuple[5]`.
        let idb = setup();
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "k");
        let f = b.fetch(
            k,
            vec![0],
            "R",
            vec![0],
            vec![5],
            0,
            vec!["a".into(), "oob".into()],
        );
        let plan = b.finish("Q", f).unwrap();
        assert!(execute_plan_on(&plan, &idb, &ExecOptions::new()).is_err());
        assert!(execute_plan_materialized(&plan, &idb).is_err());
    }

    #[test]
    fn unknown_constraint_and_key_arity_fail_at_plan_time() {
        let idb = setup();
        // Constraint index 7 does not exist.
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "k");
        let f = b.fetch(
            k,
            vec![0],
            "R",
            vec![0],
            vec![1],
            7,
            vec!["a".into(), "b".into()],
        );
        let plan = b.finish("Q", f).unwrap();
        assert!(execute_plan_on(&plan, &idb, &ExecOptions::new()).is_err());
        assert!(execute_plan_materialized(&plan, &idb).is_err());

        // Two key columns probe a one-column constraint key.
        let mut b = PlanBuilder::new();
        let x = b.constant(Value::int(1), "x");
        let y = b.constant(Value::int(2), "y");
        let p = b.product(x, y);
        let f = b.fetch(
            p,
            vec![0, 1],
            "R",
            vec![0, 1],
            vec![],
            0,
            vec!["a".into(), "b".into()],
        );
        let plan = b.finish("Q", f).unwrap();
        assert!(execute_plan_on(&plan, &idb, &ExecOptions::new()).is_err());
        assert!(execute_plan_materialized(&plan, &idb).is_err());
    }

    /// One keyed lookup over the union of `keys` — the same probes as
    /// [`union_of_lookups`], but read off a data-dependent source: one lookup probes
    /// keys that several shards own.
    fn lookup_over_key_union(keys: &[i64]) -> bea_core::plan::QueryPlan {
        let mut b = PlanBuilder::new();
        let mut source = b.constant(Value::int(keys[0]), "k");
        for &key in &keys[1..] {
            let next = b.constant(Value::int(key), "k");
            source = b.union(source, next);
        }
        let fetched = b.fetch(
            source,
            vec![0],
            "R",
            vec![0],
            vec![1],
            0,
            vec!["a".into(), "b".into()],
        );
        let prod = b.product(source, fetched);
        let sel = b.select(prod, vec![Predicate::ColEqCol(0, 1)]);
        b.finish("Q", sel).unwrap()
    }

    #[test]
    fn sharded_execution_is_invariant_and_accounts_per_shard() {
        use bea_storage::ShardedDatabase;

        let idb = setup();
        // The same three probes twice: as constants in the plan, one lookup each, and
        // as data, one lookup probing keys of several shards. Either way the plan is
        // the unsharded one and the store routes every key at run time.
        let constant_keys = union_of_lookups(&[1, 2, 3]);
        let data_keys = lookup_over_key_union(&[1, 2, 3]);

        for shards in [1u32, 2, 4] {
            let sdb = ShardedDatabase::shard(&idb, shards).unwrap();
            let mut fetched_by_shard = Vec::new();
            for plan in [&constant_keys, &data_keys] {
                let phys = bea_core::plan::lower_plan(plan).unwrap();
                let (base_table, base_stats, _) = execute_inner(
                    &phys,
                    Store::Indexed(&idb),
                    1,
                    crate::exec::DEFAULT_MORSEL_ROWS,
                )
                .unwrap();
                for threads in [1usize, 4] {
                    let (table, stats, ledger) = execute_inner(
                        &phys,
                        Store::Sharded(&sdb),
                        threads,
                        crate::exec::DEFAULT_MORSEL_ROWS,
                    )
                    .unwrap();
                    assert_eq!(
                        table.rows(),
                        base_table.rows(),
                        "rows or row order changed at {shards} shards / {threads} threads"
                    );
                    assert!(
                        stats.same_data_access(&base_stats),
                        "data access changed at {shards} shards: {stats} vs {base_stats}"
                    );
                    assert_eq!(
                        stats.values_cloned, base_stats.values_cloned,
                        "copy traffic changed at {shards} shards / {threads} threads"
                    );
                    // Boundedness per shard: the partitions serve exactly the total.
                    assert_eq!(
                        stats.rows_fetched_by_shard.values().sum::<u64>(),
                        stats.tuples_fetched
                    );
                    assert!(stats
                        .rows_fetched_by_shard
                        .keys()
                        .all(|&shard| shard < shards));
                    if threads == 1 {
                        assert_eq!(stats.peak_rows_resident, base_stats.peak_rows_resident);
                    }
                    assert_eq!(ledger.resident(), 0);
                    fetched_by_shard.push(stats.rows_fetched_by_shard);
                }
            }
            // A key is served by the shard that owns it, whichever plan probes it.
            assert!(
                fetched_by_shard.windows(2).all(|pair| pair[0] == pair[1]),
                "per-shard fetched counts differ at {shards} shards: {fetched_by_shard:?}"
            );
        }
    }

    #[test]
    fn pool_cap_follows_the_plan_fetch_bound() {
        // Tiny plan: one branch, one fetched position — demand 3, clamped up to the
        // floor so a single-fetch plan still keeps a few buffers warm.
        let tiny = bea_core::plan::lower_plan(&union_of_lookups(&[1])).unwrap();
        assert_eq!(pool_cap_for(&tiny), BufferPool::MIN_CAP);

        // Huge plan: 100 branches — demand 300, clamped down to the ceiling so one
        // wide plan cannot pin unbounded capacity.
        let keys: Vec<i64> = (1..=100).collect();
        let huge = bea_core::plan::lower_plan(&union_of_lookups(&keys)).unwrap();
        assert_eq!(pool_cap_for(&huge), BufferPool::MAX_CAP);

        // In between, the cap is the demand itself: 3 branches × (2 positions + 2) —
        // each branch lowers to one keyed lookup carrying both fetched columns.
        let mid = bea_core::plan::lower_plan(&union_of_lookups(&[1, 2, 3])).unwrap();
        assert_eq!(pool_cap_for(&mid), 12);
    }

    #[test]
    fn buffer_pool_respects_its_cap() {
        let mut pool = BufferPool::with_cap(2);
        assert_eq!(pool.cap(), 2);
        for _ in 0..5 {
            pool.put_values(Vec::with_capacity(4));
        }
        // At most `cap` buffers are retained; the rest are dropped.
        assert_eq!(pool.pooled(), 2);
    }

    /// A two-hop lookup chain whose first hop fans out wide enough that its
    /// materialization spans several batches — the shape whose second hop the
    /// scheduler splits into morsels. `R` maps two anchor keys to `per_key` rows
    /// each; `S` maps every `b` value back to one row.
    fn morsel_chain_setup(per_key: i64) -> (IndexedDatabase, bea_core::plan::QueryPlan) {
        let mut c = bea_core::schema::Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("S", ["b", "c"]).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], per_key as u64).unwrap(),
            AccessConstraint::new(&c, "S", &["b"], &["c"], 1).unwrap(),
        ]);
        let mut db = Database::new(c);
        let mut r_rows = Vec::new();
        let mut s_rows = Vec::new();
        for key in [1i64, 2] {
            for i in 0..per_key {
                let b = key * 10_000 + i;
                r_rows.push(vec![Value::int(key), Value::int(b)]);
                s_rows.push(vec![Value::int(b), Value::int(b + 1)]);
            }
        }
        db.extend("R", r_rows).unwrap();
        db.extend("S", s_rows).unwrap();
        let idb = IndexedDatabase::build(db, schema).unwrap();

        let mut b = PlanBuilder::new();
        let k1 = b.constant(Value::int(1), "k");
        let k2 = b.constant(Value::int(2), "k");
        let keys = b.union(k1, k2);
        let f1 = b.fetch(
            keys,
            vec![0],
            "R",
            vec![0],
            vec![1],
            0,
            vec!["a".into(), "b".into()],
        );
        let p1 = b.product(keys, f1);
        let s1 = b.select(p1, vec![Predicate::ColEqCol(0, 1)]); // [k, a, b]
        let f2 = b.fetch(
            s1,
            vec![2],
            "S",
            vec![0],
            vec![1],
            1,
            vec!["b".into(), "c".into()],
        );
        let p2 = b.product(s1, f2);
        let s2 = b.select(p2, vec![Predicate::ColEqCol(2, 3)]);
        let out = b.project(s2, vec![4]);
        (idb, b.finish("Q", out).unwrap())
    }

    #[test]
    fn morsel_split_matches_unsplit_execution_exactly() {
        // 700 rows per anchor key → the first hop materializes 1400 rows in two
        // batches, so `morsel_rows = 1` splits the second hop into two morsels.
        let (idb, plan) = morsel_chain_setup(700);
        let phys = bea_core::plan::lower_plan_with(
            &plan,
            &LowerOptions::new().with_exchange_parallelism(true),
        )
        .unwrap();
        assert!(
            phys.pipeline_dag()
                .pipelines()
                .iter()
                .any(|p| p.morsel_source.is_some()),
            "the chain must lower to a morsel-splittable pipeline"
        );

        let (base_table, base_stats, base_ledger) =
            execute_inner(&phys, Store::Indexed(&idb), 1, 1).unwrap();
        assert_eq!(base_table.rows().len(), 1400);
        assert_eq!(base_ledger.resident(), 0);

        for morsel_rows in [1usize, crate::exec::DEFAULT_MORSEL_ROWS, usize::MAX] {
            let (table, stats, ledger) =
                execute_inner(&phys, Store::Indexed(&idb), 4, morsel_rows).unwrap();
            // Identical rows *and row order* — per-morsel outputs are concatenated
            // in morsel order, reproducing the unsplit batch sequence exactly.
            assert_eq!(
                table.rows(),
                base_table.rows(),
                "output changed at morsel size {morsel_rows}"
            );
            assert!(
                stats.same_data_access(&base_stats),
                "data access changed at morsel size {morsel_rows}: {stats} vs {base_stats}"
            );
            assert_eq!(
                stats.values_cloned, base_stats.values_cloned,
                "copy traffic changed at morsel size {morsel_rows}"
            );
            assert_eq!(
                stats.allocs_per_probe, base_stats.allocs_per_probe,
                "allocation demand changed at morsel size {morsel_rows}"
            );
            assert_eq!(
                ledger.resident(),
                0,
                "residency leaked at morsel size {morsel_rows}"
            );
        }
    }

    #[test]
    fn morsel_splits_of_mixed_postings_match_the_unsplit_run() {
        // `R` maps two anchors to 700 `b`s each; `S` maps `b` to 0, 1 or 3 tuples (by
        // `b mod 3`). The second hop probes `S` over `[k, a, b]`, whose `b`s the plan
        // cannot prove distinct (the memo is kept), or over `δπ[b]` (it is dropped).
        let mut c = bea_core::schema::Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("S", ["b", "c"]).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 700).unwrap(),
            AccessConstraint::new(&c, "S", &["b"], &["c"], 3).unwrap(),
        ]);
        let mut db = Database::new(c);
        let bs: Vec<i64> = [1, 2]
            .iter()
            .flat_map(|k| (0..700).map(move |i| k * 10_000 + i))
            .collect();
        db.extend(
            "R",
            bs.iter()
                .map(|&b| vec![Value::int(b / 10_000), Value::int(b)]),
        )
        .unwrap();
        let s_rows = bs.iter().flat_map(|&b| {
            let tuples = [0, 1, 3][(b % 3) as usize];
            (0..tuples).map(move |j| vec![Value::int(b), Value::int(b * 10 + j)])
        });
        db.extend("S", s_rows).unwrap();
        let idb = IndexedDatabase::build(db, schema).unwrap();

        for distinct in [false, true] {
            let mut b = PlanBuilder::new();
            let k1 = b.constant(Value::int(1), "k");
            let k2 = b.constant(Value::int(2), "k");
            let keys = b.union(k1, k2);
            let f1 = b.fetch(
                keys,
                vec![0],
                "R",
                vec![0],
                vec![1],
                0,
                vec!["a".into(), "b".into()],
            );
            let p1 = b.product(keys, f1);
            let mut source = b.select(p1, vec![Predicate::ColEqCol(0, 1)]); // [k, a, b]
            let mut key = 2;
            if distinct {
                (source, key) = (b.project(source, vec![2]), 0);
            }
            let f2 = b.fetch(
                source,
                vec![key],
                "S",
                vec![0],
                vec![1],
                1,
                vec!["b".into(), "c".into()],
            );
            let p2 = b.product(source, f2);
            let arity = b.columns(source).len();
            let s2 = b.select(p2, vec![Predicate::ColEqCol(key, arity)]);
            let out = b.project(s2, vec![arity + 1]);
            let plan = b.finish("Q", out).unwrap();
            let options = LowerOptions::new().with_exchange_parallelism(true);
            let phys = lower_plan_with(&plan, &options).unwrap();
            let second = phys.steps().iter().rev().find_map(|step| match &step.op {
                PhysOp::KeyedLookup {
                    source, key_cols, ..
                } => Some(phys.keys_distinct(*source, key_cols)),
                _ => None,
            });
            assert_eq!(second, Some(distinct));

            let store = Store::Indexed(&idb);
            let (base_table, base_stats, _) = execute_inner(&phys, store, 1, 1).unwrap();
            let matched: usize = bs.iter().map(|b| [0, 1, 3][(b % 3) as usize]).sum();
            assert_eq!(base_table.len(), matched);
            for morsel_rows in [1usize, crate::exec::DEFAULT_MORSEL_ROWS, usize::MAX] {
                let (table, stats, ledger) = execute_inner(&phys, store, 4, morsel_rows).unwrap();
                let corner = format!("morsel size {morsel_rows}, distinct keys {distinct}");
                assert_eq!(table.rows(), base_table.rows(), "{corner}");
                assert!(stats.same_data_access(&base_stats), "{corner}");
                assert_eq!(stats.values_cloned, base_stats.values_cloned, "{corner}");
                assert_eq!(
                    stats.allocs_per_probe, base_stats.allocs_per_probe,
                    "{corner}"
                );
                assert_eq!(ledger.resident(), 0, "{corner}");
            }
        }
    }

    #[test]
    fn a_solo_run_with_helpers_splits_the_chain_and_matches_one_thread() {
        // 2 600 rows per anchor key → six source batches, so a morsel size of one row
        // cuts the second hop into six morsels: the caller registers the split, wakes
        // helpers for the other five and runs the first itself. Repeated, with fewer
        // and more helpers than morsels — a wake-up lost on the split path would hang
        // this test rather than fail it.
        let (idb, plan) = morsel_chain_setup(2_600);
        let phys = bea_core::plan::lower_plan_with(
            &plan,
            &LowerOptions::new().with_exchange_parallelism(true),
        )
        .unwrap();
        let store = Store::Indexed(&idb);
        let (base_table, base_stats, base_ledger) = execute_inner(&phys, store, 1, 1).unwrap();
        assert_eq!(base_table.rows().len(), 5_200);
        assert_eq!(base_ledger.resident(), 0);

        for threads in [2usize, 4, 8] {
            for round in 0..5 {
                let (table, stats, ledger) = execute_inner(&phys, store, threads, 1).unwrap();
                let run = format!("{threads} threads, round {round}");
                assert_eq!(table.rows(), base_table.rows(), "rows or row order, {run}");
                assert!(
                    stats.same_data_access(&base_stats),
                    "data access, {run}: {stats} vs {base_stats}"
                );
                assert_eq!(stats.values_cloned, base_stats.values_cloned, "{run}");
                assert_eq!(ledger.resident(), 0, "residency leaked, {run}");
            }
        }
    }

    #[test]
    fn residency_ledger_tracks_concurrent_peaks() {
        let ledger = ResidencyLedger::default();
        ledger.acquire(5);
        ledger.acquire(7); // overlapping with the first window
        ledger.release(5);
        ledger.acquire(2);
        ledger.release(7);
        ledger.release(2);
        assert_eq!(ledger.peak(), 12, "peak is simultaneous residency, not max");
        assert_eq!(ledger.resident(), 0);
    }
}
