//! The pipeline-DAG driver: one job queue, one job-running loop, whoever owns the
//! threads.
//!
//! The unit of work is a [`Job`]: either one [`bea_core::plan::Pipeline`] (a
//! materialization point plus the streaming region feeding it) or one morsel of a
//! split pipeline. A pipeline is *ready* when every pipeline it scans (its exchange
//! edges) has completed. A [`Pool`] holds the ready jobs of every admitted query in
//! one queue behind one mutex, and [`Pool::run_claimed`] is the only code that runs a
//! job: split, execute with the running thread's [`ExecState`] (operator trees never
//! cross threads) against the query's [`ResidencyLedger`], fold the counters in with
//! [`AccessStats::merge_concurrent`], unlock dependents, retire the query and put its
//! outcome where its owner waits. A query runs a [`Prepared`] plan in place — the
//! plan, its DAG and its pool cap shared by every run of a template, the run's own
//! constants beside them. The pool owns no thread and no store; both are lent by its
//! user:
//!
//! * a solo execution ([`super::execute`]) builds a pool on its caller's stack,
//!   submits its one query, and the calling thread runs [`Pool::join`] — the helping
//!   wait — beside scoped helpers running [`Pool::worker_loop`]; with one thread (or
//!   one pipeline) there are no helpers, no scope and no wait;
//! * a [`crate::session::Session`] keeps one pool for its lifetime, persistent
//!   threads in [`Pool::worker_loop`], and every thread waiting for a query's answer
//!   in [`Pool::join`]. The admission limits and the fetch cache are the session's;
//!   the pool only carries them to where queries retire and jobs run.
//!
//! A thread in [`Pool::join`] takes ready jobs of **its own query only**, lowest
//! pipeline first — pipelines are numbered topologically, so a lone caller walks the
//! DAG in step order, the lowest-residency order the plan was lowered for — and blocks
//! for the outcome when none is ready (they are running elsewhere, or the query is
//! still queued for headroom).
//!
//! # Morsel splitting
//!
//! When a thread claims a pipeline whose region is morsel-splittable
//! ([`bea_core::plan::Pipeline::morsel_source`]), it first tries to cut the source
//! materialization into morsels — groups of consecutive whole batches totalling at
//! least the configured morsel size (see [`super::morsel`]). If more than one morsel
//! results, it registers the split, enqueues the other morsels (waking one worker per
//! extra job), and runs the first morsel itself. Each morsel re-instantiates the
//! pipeline's operator chain over its batch range; the split's keyed lookups share
//! per-step [`SharedLookupCache`]s so every distinct key is fetched exactly once. The
//! thread whose morsel completes the split *finalizes* it: the per-morsel outputs are
//! concatenated in morsel order (making the published materialization batch-for-batch
//! identical to the unsplit pipeline's), the shared caches' rows are released, and the
//! split's single consumer claim on the source materialization is retired — mirroring
//! [`super::source::ScanOp`]'s last-consumer protocol.
//!
//! # Affinity and wake-ups
//!
//! [`pick_ready`] gives a worker first a morsel of the query and pipeline it just
//! worked on (its warmed split), then the queue front. Affinity only reorders the
//! ready queue — which jobs run, and what they compute, is unchanged. Pipelines know
//! nothing of shards: the store routes every key at run time.
//!
//! One wake-up rule: *a thread that is about to look at the queue itself is not sent a
//! wake-up*. A submission whose caller goes on to join withholds one for that caller,
//! a finished job withholds one for the thread that finished it (except a caller whose
//! query just retired: the newly admitted jobs are other queries', and it is leaving),
//! every other new job wakes exactly one worker with `notify_one`, and only shutdown
//! broadcasts. Wake-ups are sent after the mutex is released.
//!
//! Scheduling affects only timing: every pipeline computes a function of its completed
//! sources, so the output table, and every data-access counter, are identical at any
//! thread count, morsel size and interleaving.

use super::batch::Batch;
use super::fetch::FetchStep;
use super::morsel::{lookup_steps_in_region, morsel_ranges, MorselCtx, SharedLookupCache};
use super::{
    pool_cap_for, run_morsel, run_pipeline, BufferPool, ExecState, JobCtx, MatNode,
    ResidencyLedger, SharedMat, SharedState,
};
use crate::cache::SessionFetchCache;
use crate::stats::AccessStats;
use crate::table::Table;
use bea_core::error::{Error, Result};
use bea_core::plan::{PhysicalPlan, PipelineDag};
use bea_core::value::{Row, Value};
use bea_storage::Store;
use std::any::Any;
use std::borrow::Cow;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// The immutable description of one split pipeline, shared by its morsel jobs.
pub(crate) struct MorselWork {
    /// The pipeline's index in the DAG.
    pub(crate) pipeline: usize,
    /// The materialized source step whose batches the morsels replay.
    pub(crate) source: usize,
    /// Snapshot of the source's batches. Morsels are ranges of *whole* batches, so
    /// every per-batch charge the chain makes is identical under any grouping.
    pub(crate) batches: Arc<Vec<Batch>>,
    /// Disjoint `[start, end)` ranges over `batches`, one per morsel.
    pub(crate) ranges: Vec<(usize, usize)>,
    /// Per-lookup-step caches shared by all morsels of this split.
    pub(crate) caches: Arc<BTreeMap<usize, Arc<SharedLookupCache>>>,
}

/// Completion state of one split, guarded by the pool mutex.
struct SplitState {
    /// Per-morsel output batches, filled in as morsels land and concatenated in
    /// morsel order at finalize.
    results: Vec<Option<Vec<Batch>>>,
    /// Total output rows across the landed morsels.
    rows: u64,
    /// Morsels still in flight.
    remaining: usize,
}

impl SplitState {
    /// A fresh state expecting `morsels` results.
    fn new(morsels: usize) -> Self {
        SplitState {
            results: (0..morsels).map(|_| None).collect(),
            rows: 0,
            remaining: morsels,
        }
    }
}

/// One unit of work.
pub(crate) enum Job {
    /// A whole pipeline, run unsplit.
    Pipeline(usize),
    /// One morsel of a split pipeline; `split` indexes its query's split table.
    Morsel {
        work: Arc<MorselWork>,
        split: usize,
        index: usize,
    },
}

/// The pipeline a job belongs to — the unit affinity reasons about.
pub(crate) fn job_pipeline(job: &Job) -> usize {
    match job {
        Job::Pipeline(pipeline) => *pipeline,
        Job::Morsel { work, .. } => work.pipeline,
    }
}

/// A lowered plan and what every run derives from it alone, worked out once: a
/// session keeps one per prepared template, a solo run borrows its caller's plan.
#[derive(Debug)]
pub(crate) struct Prepared<'p> {
    pub(crate) plan: Cow<'p, PhysicalPlan>,
    pub(crate) dag: PipelineDag,
    pool_cap: usize,
    /// [`PhysicalPlan::placeholders`].
    pub(crate) placeholders: usize,
    /// The output step's column labels, shared by every result table.
    labels: Arc<[String]>,
}

impl<'p> Prepared<'p> {
    /// `plan` (validated by the caller) with what its runs share.
    pub(crate) fn new(plan: Cow<'p, PhysicalPlan>) -> Self {
        Prepared {
            dag: plan.pipeline_dag(),
            pool_cap: pool_cap_for(&plan),
            placeholders: plan.placeholders(),
            labels: plan.steps()[plan.output()].columns.as_slice().into(),
            plan,
        }
    }
}

/// The execution context of one query, shared between the threads running its jobs:
/// the prepared plan, the constants this run reads into it, and this run's own state.
pub(crate) struct QueryShared<'p> {
    prepared: Arc<Prepared<'p>>,
    /// The values of the plan's placeholders, by class.
    constants: Vec<Value>,
    /// This query's private materialization slots.
    mats: Vec<OnceLock<SharedMat>>,
    /// This query's private residency ledger.
    pub(crate) ledger: Arc<ResidencyLedger>,
    /// What the query is charged against the pool's fetch budget while admitted.
    fetch_bound: u64,
    /// How the query ended, once it has: put here by the thread that retires it,
    /// taken by its owner in [`Pool::join`].
    outcome: Mutex<Option<QueryOutcome>>,
    settled: Condvar,
}

impl<'p> QueryShared<'p> {
    /// The context for one run of `prepared` with `constants`.
    pub(crate) fn new(
        prepared: Arc<Prepared<'p>>,
        constants: Vec<Value>,
        fetch_bound: u64,
    ) -> Self {
        QueryShared {
            mats: (0..prepared.plan.len()).map(|_| OnceLock::new()).collect(),
            ledger: Arc::new(ResidencyLedger::default()),
            prepared,
            constants,
            fetch_bound,
            outcome: Mutex::new(None),
            settled: Condvar::new(),
        }
    }

    /// Hand the query's outcome to its owner.
    fn settle(&self, outcome: QueryOutcome) {
        *self.outcome.lock().unwrap_or_else(PoisonError::into_inner) = Some(outcome);
        self.settled.notify_all();
    }

    /// The outcome, if the query has ended; with `wait`, block until it has.
    fn outcome(&self, wait: bool) -> Option<QueryOutcome> {
        let mut slot = self.outcome.lock().unwrap_or_else(PoisonError::into_inner);
        while wait && slot.is_none() {
            slot = self
                .settled
                .wait(slot)
                .unwrap_or_else(PoisonError::into_inner);
        }
        slot.take()
    }
}

/// Cut pipeline `p`'s source materialization into morsels, when it is splittable and
/// worth it. Returns `None` — run the pipeline unsplit — when the pipeline has no
/// morsel source, splitting is disabled (`morsel_rows == usize::MAX`), or the source
/// holds at most one morsel's worth of batches.
fn try_split(shared: &QueryShared<'_>, p: usize, morsel_rows: usize) -> Option<MorselWork> {
    let pipeline = &shared.prepared.dag.pipelines()[p];
    let source = pipeline.morsel_source?;
    if morsel_rows == usize::MAX {
        return None;
    }
    let (batches, ranges) = {
        let node = shared.mats[source]
            .get()
            .expect("a pipeline's sources complete before it is ready")
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let batches =
            (node.batches.as_ref()).expect("a source stays materialized while consumers remain");
        // One batch is one morsel: nothing to cut, and nothing to copy.
        if batches.len() <= 1 {
            return None;
        }
        let ranges = morsel_ranges(batches, morsel_rows);
        if ranges.len() <= 1 {
            return None;
        }
        (batches.clone(), ranges)
    };
    let caches: BTreeMap<usize, Arc<SharedLookupCache>> =
        lookup_steps_in_region(&shared.prepared.plan, pipeline.sink)
            .into_iter()
            .map(|step| (step, Arc::new(SharedLookupCache::new())))
            .collect();
    Some(MorselWork {
        pipeline: p,
        source,
        batches: Arc::new(batches),
        ranges,
        caches: Arc::new(caches),
    })
}

/// The split's last morsel landed: publish the concatenated result as the pipeline's
/// materialization, release the shared caches' rows, and retire the split's single
/// consumer claim on the source materialization — exactly once for the whole split,
/// mirroring [`super::source::ScanOp`]'s last-consumer protocol.
fn finalize_split(shared: &QueryShared<'_>, state: SplitState, work: &MorselWork) {
    let sink = shared.prepared.dag.pipelines()[work.pipeline].sink;
    let batches: Vec<Batch> = state
        .results
        .into_iter()
        .flat_map(|result| {
            result.expect("every morsel stores its result before the split finalizes")
        })
        .collect();
    let node = Arc::new(Mutex::new(MatNode {
        batches: Some(batches),
        rows: state.rows,
        remaining: shared.prepared.plan.steps()[sink].consumers,
    }));
    if shared.mats[sink].set(node).is_err() {
        unreachable!("each pipeline is executed exactly once");
    }
    // The shared caches die with the split: their fills acquired these rows.
    for cache in work.caches.values() {
        shared.ledger.release(cache.rows());
    }
    let mut source = shared.mats[work.source]
        .get()
        .expect("the split's source completed before the split started")
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    source.remaining -= 1;
    if source.remaining == 0 {
        source.batches = None;
        shared.ledger.release(source.rows);
    }
}

/// What one job produced: `None` for a whole pipeline (its result is published into
/// the query's slots by the run), `Some((batches, rows))` for a morsel (buffered until
/// its split finalizes) — paired with the job's private access counters. The outer
/// [`std::thread::Result`] carries a caught panic.
type JobOutcome = std::thread::Result<(Result<Option<(Vec<Batch>, u64)>>, AccessStats)>;

/// Execute one [`Job`] with the running thread's [`ExecState`] — counters stay private
/// to the job, residency goes through the query's ledger — catching panics on the
/// running thread. An uncaught panic would kill a worker without a wakeup, stranding
/// the others on the condvar, and poison any `MatNode` lock it held — turning one bad
/// operator into an opaque secondary panic elsewhere. The unwind still runs the
/// operator drops inside the catch, so residency is released before the payload is
/// returned. The job's fetch counts stay on `state` for the scheduler to fold in.
fn execute_job(
    shared: &QueryShared<'_>,
    store: Store<'_>,
    state: &SharedState,
    job: &Job,
) -> JobOutcome {
    catch_unwind(AssertUnwindSafe(|| {
        let run = JobCtx {
            plan: &shared.prepared.plan,
            constants: &shared.constants,
            store,
            state,
            mats: &shared.mats,
        };
        let sink = shared.prepared.dag.pipelines()[job_pipeline(job)].sink;
        let result = match job {
            Job::Pipeline(_) => run_pipeline(run, sink).map(|()| None),
            Job::Morsel { work, index, .. } => {
                let ctx = MorselCtx {
                    source: work.source,
                    batches: Arc::clone(&work.batches),
                    range: work.ranges[*index],
                    caches: Arc::clone(&work.caches),
                    report: *index == 0,
                };
                run_morsel(run, sink, &ctx).map(Some)
            }
        };
        (result, std::mem::take(&mut state.borrow_mut().stats))
    }))
}

/// How one query ended, delivered to its owner.
pub(crate) enum QueryOutcome {
    Finished(Table, AccessStats),
    Failed(Error),
    Panicked(Box<dyn Any + Send>),
}

/// Mutable pool-side state of one admitted query.
struct ActiveQuery<'p> {
    id: u64,
    shared: Arc<QueryShared<'p>>,
    /// Remaining incomplete dependencies per pipeline.
    deps_left: Vec<usize>,
    /// Completion state per registered split.
    splits: Vec<Option<SplitState>>,
    /// Completed pipelines.
    completed: usize,
    /// This query's jobs currently executing.
    running: usize,
    /// What ended the query early — [`QueryOutcome::Failed`] or
    /// [`QueryOutcome::Panicked`]. First failure wins, per query.
    failure: Option<QueryOutcome>,
    /// Concurrent merge of this query's per-job counters.
    stats: AccessStats,
}

/// Admitted query `id`, found in the pool's list of them.
fn active<'a, 'p>(active: &'a mut [ActiveQuery<'p>], id: u64) -> &'a mut ActiveQuery<'p> {
    let mut queries = active.iter_mut();
    queries
        .find(|query| query.id == id)
        .expect("a running query stays active")
}

/// A submission waiting for budget headroom.
struct PendingQuery<'p> {
    id: u64,
    shared: Arc<QueryShared<'p>>,
}

/// The pool's shared state, guarded by one mutex.
pub(crate) struct PoolState<'p> {
    /// Ready jobs, across all admitted queries, tagged with their query's id.
    ready: VecDeque<(u64, Job)>,
    /// Admitted queries: a short list (the budget and the asking threads keep it so)
    /// whose capacity outlives them.
    active: Vec<ActiveQuery<'p>>,
    /// Admissible queries waiting for headroom, in submission order (FIFO — a big
    /// query at the front is never starved by small ones behind it).
    pending: VecDeque<PendingQuery<'p>>,
    /// Sum of admitted queries' fetch bounds.
    pub(crate) admitted_bound: u64,
    /// High-water mark of `admitted_bound`.
    pub(crate) peak_admitted_bound: u64,
    next_id: u64,
    pub(crate) counters: Counters,
    shutdown: bool,
}

/// What the pool has seen, for [`crate::session::AdmissionStats`].
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Counters {
    pub(crate) submitted: u64,
    pub(crate) admitted: u64,
    pub(crate) queued: u64,
    pub(crate) rejected: u64,
    pub(crate) completed: u64,
    pub(crate) failed: u64,
    pub(crate) jobs_run_by_callers: u64,
    pub(crate) jobs_run_by_workers: u64,
}

/// The job queue and bookkeeping of the queries sharing one set of threads. See the
/// module docs; `'p` is how long the plans of its queries are borrowed for.
pub(crate) struct Pool<'p> {
    state: Mutex<PoolState<'p>>,
    work: Condvar,
    /// Target rows per morsel; `usize::MAX` never splits.
    morsel_rows: usize,
    /// The ceiling on the sum of admitted queries' fetch bounds (`None` = unlimited).
    pub(crate) budget: Option<u64>,
    /// The fetch cache every job's operators probe, when there is one.
    pub(crate) cache: Option<Arc<SessionFetchCache>>,
}

/// A submission the pool took in: admitted, or queued for headroom.
pub(crate) struct Submitted<'p> {
    /// Pool-unique id, in submission order.
    pub(crate) id: u64,
    /// Whether the query had to queue for headroom.
    pub(crate) queued: bool,
    /// The query, where its outcome arrives; [`Pool::join`] reads it.
    query: Arc<QueryShared<'p>>,
}

/// Admit one query: charge its fetch bound against the budget, register its
/// bookkeeping, and enqueue its dependency-free pipelines. Returns how many jobs
/// were added. Caller holds the pool lock and emits the wakeups.
fn admit<'p>(state: &mut PoolState<'p>, id: u64, shared: Arc<QueryShared<'p>>) -> usize {
    state.counters.admitted += 1;
    state.admitted_bound += shared.fetch_bound;
    state.peak_admitted_bound = state.peak_admitted_bound.max(state.admitted_bound);
    let dag = &shared.prepared.dag;
    let deps_left: Vec<usize> = (0..dag.len()).map(|i| dag.dependencies(i).len()).collect();
    let mut added = 0;
    for (pipeline, &deps) in deps_left.iter().enumerate() {
        if deps == 0 {
            state.ready.push_back((id, Job::Pipeline(pipeline)));
            added += 1;
        }
    }
    state.active.push(ActiveQuery {
        id,
        shared,
        deps_left,
        splits: Vec::new(),
        completed: 0,
        running: 0,
        failure: None,
        stats: AccessStats::default(),
    });
    added
}

/// Admit queued queries, in order, while the budget has headroom. Stops at the first
/// queued query that does not fit (FIFO — nothing overtakes it). Returns how many
/// jobs were added.
pub(crate) fn drain_pending(state: &mut PoolState<'_>, budget: Option<u64>) -> usize {
    let mut added = 0;
    loop {
        let fits = state.pending.front().is_some_and(|next| {
            budget.is_none_or(|budget| state.admitted_bound + next.shared.fetch_bound <= budget)
        });
        if !fits {
            return added;
        }
        let next = state.pending.pop_front().expect("front() was Some");
        added += admit(state, next.id, next.shared);
    }
}

/// Pop the next job for a worker whose previous job belonged to `last` =
/// `(query, pipeline)`: first a morsel of the same query's same pipeline (the split
/// whose cache and batches this worker has warm), then the queue front. Pure queue
/// reordering — every ready job still runs exactly once.
fn pick_ready(ready: &mut VecDeque<(u64, Job)>, last: Option<(u64, usize)>) -> Option<(u64, Job)> {
    let position = last
        .and_then(|last| {
            ready
                .iter()
                .position(|(id, job)| (*id, job_pipeline(job)) == last)
        })
        .unwrap_or(0);
    ready.remove(position)
}

/// Pop the next job for the thread waiting on query `id`: that query's ready job of
/// the lowest-numbered pipeline (the first queued among a split's morsels). Pipelines
/// are numbered topologically, so a caller running alone executes them in step order.
fn pick_own(ready: &mut VecDeque<(u64, Job)>, id: u64) -> Option<(u64, Job)> {
    let position = ready
        .iter()
        .enumerate()
        .filter(|(_, (owner, _))| *owner == id)
        .min_by_key(|(_, (_, job))| job_pipeline(job))
        .map(|(position, _)| position)?;
    ready.remove(position)
}

/// Decrement the dependency counts of `pipeline`'s dependents within one query,
/// enqueueing the ones that became ready. Returns how many jobs were added.
fn unlock_dependents(
    query: &mut ActiveQuery<'_>,
    id: u64,
    pipeline: usize,
    ready: &mut VecDeque<(u64, Job)>,
) -> usize {
    let mut added = 0;
    for &dependent in query.shared.prepared.dag.dependents(pipeline) {
        query.deps_left[dependent] -= 1;
        if query.deps_left[dependent] == 0 {
            ready.push_back((id, Job::Pipeline(dependent)));
            added += 1;
        }
    }
    added
}

/// Extract a finished query's output: take the output materialization, settle the
/// residency ledger, count the transpose's clones, and build the table. The emptied
/// column buffers go to `pool`, the finishing thread's. Runs *outside* the pool lock.
fn finish_query(
    shared: &QueryShared<'_>,
    mut stats: AccessStats,
    pool: &mut BufferPool,
) -> QueryOutcome {
    let output = shared.prepared.plan.output();
    let (batches, output_rows) = {
        let mut node = shared.mats[output]
            .get()
            .expect("lowering marks the output step as a materialization point")
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let batches = node
            .batches
            .take()
            .expect("the output's virtual consumer is the caller");
        (batches, node.rows)
    };
    // The caller owns the output now; the executor's residency accounting is over.
    shared.ledger.release(output_rows);
    stats.peak_rows_resident = shared.ledger.peak();
    debug_assert_eq!(
        shared.ledger.resident(),
        0,
        "a query's residency ledger must drain back to zero when it completes"
    );
    // Hand the result over as rows. Output batches are usually uniquely owned dense
    // columns, so the transpose moves the values; any clones it does perform count.
    let mut rows: Vec<Row> = Vec::new();
    for batch in batches {
        let (batch_rows, clones) = batch.into_rows(|buffer| pool.put_values(buffer));
        stats.values_cloned += clones;
        if rows.is_empty() {
            rows = batch_rows;
        } else {
            rows.extend(batch_rows);
        }
    }
    let table = Table::with_labels(Arc::clone(&shared.prepared.labels), rows);
    QueryOutcome::Finished(table, stats)
}

/// Which kind of thread is running a claimed job.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Runner {
    /// A thread in [`Pool::worker_loop`]: after the job it looks at the whole queue
    /// again.
    Worker,
    /// The thread waiting for the job's query in [`Pool::join`]: after the job it
    /// looks at the queue again for that query only, and not at all once the query has
    /// retired.
    Caller,
}

/// Count a job popped off the ready queue as running on its query, and hand back the
/// query's execution context. Caller holds the pool lock.
fn claim<'p>(queries: &mut [ActiveQuery<'p>], id: u64) -> Arc<QueryShared<'p>> {
    let query = active(queries, id);
    query.running += 1;
    Arc::clone(&query.shared)
}

impl<'p> Pool<'p> {
    /// An idle pool: no query, no thread. `morsel_rows == usize::MAX` never splits.
    pub(crate) fn new(
        morsel_rows: usize,
        budget: Option<u64>,
        cache: Option<Arc<SessionFetchCache>>,
    ) -> Self {
        Pool {
            state: Mutex::new(PoolState {
                ready: VecDeque::new(),
                active: Vec::new(),
                pending: VecDeque::new(),
                admitted_bound: 0,
                peak_admitted_bound: 0,
                next_id: 0,
                counters: Counters::default(),
                shutdown: false,
            }),
            work: Condvar::new(),
            morsel_rows,
            budget,
            cache,
        }
    }

    /// Take the pool mutex. Panics of operators are caught inside [`execute_job`], so
    /// the bookkeeping this mutex guards is never left half-done; a poisoned guard is
    /// taken anyway.
    pub(crate) fn lock_state(&self) -> MutexGuard<'_, PoolState<'p>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Wake one idle worker per job in `jobs`. Called after the pool lock is released.
    pub(crate) fn wake_workers(&self, jobs: usize) {
        for _ in 0..jobs {
            self.work.notify_one();
        }
    }

    /// Take one query in: admit it when nothing is queued ahead of it and its fetch
    /// bound fits the budget's headroom, else queue it FIFO. With `caller_runs` the
    /// submitting thread goes straight on to [`Pool::join`], so one wake-up fewer than
    /// jobs is sent. Refused once the pool is shut down.
    pub(crate) fn submit(
        &self,
        shared: QueryShared<'p>,
        caller_runs: bool,
    ) -> Result<Submitted<'p>> {
        let shared = Arc::new(shared);
        let query = Arc::clone(&shared);
        let mut guard = self.lock_state();
        if guard.shutdown {
            return Err(Error::Invalid {
                reason: "the session is shut down".into(),
            });
        }
        guard.counters.submitted += 1;
        let id = guard.next_id;
        guard.next_id += 1;
        // Strict FIFO fairness: nothing overtakes an already-queued query, even if
        // it would fit the current headroom.
        let fits = guard.pending.is_empty()
            && self
                .budget
                .is_none_or(|budget| guard.admitted_bound + shared.fetch_bound <= budget);
        if fits {
            let added = admit(&mut guard, id, shared);
            drop(guard);
            self.wake_workers(added.saturating_sub(usize::from(caller_runs)));
        } else {
            guard.counters.queued += 1;
            guard.pending.push_back(PendingQuery { id, shared });
        }
        Ok(Submitted {
            id,
            queued: !fits,
            query,
        })
    }

    /// Refuse further submissions and let every thread in [`Pool::worker_loop`] leave
    /// once the queries already taken in have retired.
    pub(crate) fn shut_down(&self) {
        self.lock_state().shutdown = true;
        self.work.notify_all();
    }

    /// Claim any query's next job (with affinity) and run it against `store`, until
    /// the pool is shut down and fully drained.
    pub(crate) fn worker_loop(&self, store: Store<'_>) {
        // The (query, pipeline) of this worker's previous job — its affinity.
        let mut last: Option<(u64, usize)> = None;
        loop {
            let (id, job, shared) = {
                let mut guard = self.lock_state();
                loop {
                    let state = &mut *guard;
                    if let Some((id, job)) = pick_ready(&mut state.ready, last) {
                        break (id, job, claim(&mut state.active, id));
                    }
                    if state.shutdown && state.active.is_empty() && state.pending.is_empty() {
                        return;
                    }
                    guard = self
                        .work
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
            };
            last = Some((id, job_pipeline(&job)));
            self.run_claimed(store, id, job, &shared, Runner::Worker);
        }
    }

    /// Wait for query `id`'s outcome, helping: while it is not in, run the query's own
    /// ready jobs on this thread, and block only when none is ready (they are running
    /// elsewhere, or the query is still queued for headroom — threads in
    /// [`Pool::worker_loop`] finish it). A panic inside the query's operators is
    /// re-raised here.
    pub(crate) fn join(
        &self,
        store: Store<'_>,
        submitted: &Submitted<'p>,
    ) -> Result<(Table, AccessStats)> {
        let (id, query) = (submitted.id, &submitted.query);
        let outcome = loop {
            if let Some(outcome) = query.outcome(false) {
                break outcome;
            }
            let claimed = {
                let mut guard = self.lock_state();
                let state = &mut *guard;
                pick_own(&mut state.ready, id).map(|(id, job)| (job, claim(&mut state.active, id)))
            };
            match claimed {
                Some((job, shared)) => self.run_claimed(store, id, job, &shared, Runner::Caller),
                None => break query.outcome(true).expect("waited for"),
            }
        };
        match outcome {
            QueryOutcome::Finished(table, stats) => Ok((table, stats)),
            QueryOutcome::Failed(error) => Err(error),
            QueryOutcome::Panicked(payload) => resume_unwind(payload),
        }
    }

    /// Run one claimed job of query `id` to the end on the current thread: split a
    /// freshly claimed splittable pipeline into morsels, execute with a per-job private
    /// state, fold the outcome into the query's bookkeeping, unlock its dependents, and
    /// — when that was its last job — retire the query, admit whatever the freed
    /// headroom lets in, and deliver the outcome. The one place a job runs; `runner`
    /// only decides which counter the job lands in and whether a wake-up is withheld
    /// for the running thread.
    fn run_claimed(
        &self,
        store: Store<'_>,
        id: u64,
        job: Job,
        shared: &QueryShared<'p>,
        runner: Runner,
    ) {
        // Cut a splittable pipeline, enqueue the other morsels (waking one worker per
        // extra job), and run the first morsel in this claim's place.
        let job = match job {
            Job::Pipeline(pipeline) => match try_split(shared, pipeline, self.morsel_rows) {
                Some(work) => {
                    let work = Arc::new(work);
                    let morsels = work.ranges.len();
                    let split = {
                        let mut guard = self.lock_state();
                        let state = &mut *guard;
                        let query = active(&mut state.active, id);
                        let split = query.splits.len();
                        query.splits.push(Some(SplitState::new(morsels)));
                        for index in 1..morsels {
                            let work = Arc::clone(&work);
                            state
                                .ready
                                .push_back((id, Job::Morsel { work, split, index }));
                        }
                        split
                    };
                    self.wake_workers(morsels - 1);
                    Job::Morsel {
                        work,
                        split,
                        index: 0,
                    }
                }
                None => Job::Pipeline(pipeline),
            },
            morsel => morsel,
        };
        let pool_cap = shared.prepared.pool_cap;
        let job_state = ExecState::claim(&shared.ledger, pool_cap, self.cache.as_ref());
        let outcome = execute_job(shared, store, &job_state, &job);

        let mut guard = self.lock_state();
        let state = &mut *guard;
        match runner {
            Runner::Worker => state.counters.jobs_run_by_workers += 1,
            Runner::Caller => state.counters.jobs_run_by_callers += 1,
        }
        let mut added = 0usize;
        let query = active(&mut state.active, id);
        query.running -= 1;
        match outcome {
            // Successful job of a healthy query: fold its counters in and advance the
            // query's DAG.
            Ok((Ok(output), stats)) if query.failure.is_none() => {
                query.stats.merge_concurrent(stats);
                let fetch =
                    |step| FetchStep::of(&shared.prepared.plan, step).expect("only fetches fetch");
                let relation = |step| fetch(step).relation;
                (job_state.borrow_mut().fetched).drain_into(&mut query.stats, relation);
                match (&job, output) {
                    (Job::Pipeline(pipeline), _) => {
                        query.completed += 1;
                        added += unlock_dependents(query, id, *pipeline, &mut state.ready);
                    }
                    (Job::Morsel { work, split, index }, Some((batches, rows))) => {
                        let landed = query.splits[*split]
                            .as_mut()
                            .expect("a split stays registered until its last morsel lands");
                        landed.results[*index] = Some(batches);
                        landed.rows += rows;
                        landed.remaining -= 1;
                        if landed.remaining == 0 {
                            let landed = query.splits[*split].take().expect("checked above");
                            finalize_split(shared, landed, work);
                            query.completed += 1;
                            added += unlock_dependents(query, id, work.pipeline, &mut state.ready);
                        }
                    }
                    _ => unreachable!("job kinds and outputs always pair up"),
                }
            }
            // A job landing on an already-failed query: its work is discarded; only
            // the running count mattered.
            Ok((Ok(_), _)) => {}
            // First failure wins for *this* query; its queued jobs are discarded,
            // every other query is untouched.
            Ok((Err(error), _)) => {
                query.failure.get_or_insert(QueryOutcome::Failed(error));
            }
            Err(payload) => {
                query.failure.get_or_insert(QueryOutcome::Panicked(payload));
            }
        }
        // Terminal transitions: all pipelines done, or failed and fully drained of
        // in-flight jobs.
        let done = query.completed == shared.prepared.dag.len();
        let failed = query.failure.is_some();
        if failed {
            // Also drops morsels a split registered after the failure re-enqueued.
            state.ready.retain(|(owner, _)| *owner != id);
        }
        let mut retired: Option<ActiveQuery<'p>> = None;
        if done || (failed && query.running == 0) {
            let at = state.active.iter().position(|query| query.id == id);
            retired = at.map(|at| state.active.swap_remove(at));
            state.admitted_bound -= shared.fetch_bound;
            if failed {
                state.counters.failed += 1;
            } else {
                state.counters.completed += 1;
            }
            // The retired query left nothing behind, so every job added from here on
            // belongs to a query the freed headroom just admitted.
            added = drain_pending(state, self.budget);
        }
        let shutdown = state.shutdown;
        drop(guard);
        // The running thread looks at the queue next and takes one of the new jobs
        // itself — except a caller whose query just retired: the new jobs are other
        // queries', and it is leaving.
        let leaving = runner == Runner::Caller && retired.is_some();
        self.wake_workers(added.saturating_sub(usize::from(!leaving)));
        if shutdown && retired.is_some() {
            // Idle workers leave once the last query is gone; all of them must re-check.
            self.work.notify_all();
        }
        // The output transpose (potentially large) runs outside the lock.
        if let Some(query) = retired {
            let outcome = query.failure.unwrap_or_else(|| {
                finish_query(shared, query.stats, &mut job_state.borrow_mut().pool)
            });
            shared.settle(outcome);
        }
        ExecState::park(job_state);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worker_panic_propagates_cleanly_instead_of_deadlocking() {
        use crate::ops::{execute_inner, PANIC_RELATION};
        use bea_core::access::{AccessConstraint, AccessSchema};
        use bea_core::plan::{lower_plan_with, LowerOptions, PlanBuilder};
        use bea_core::value::Value;
        use bea_storage::{Database, IndexedDatabase};

        let mut c = bea_core::schema::Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare(PANIC_RELATION, ["a", "b"]).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 10).unwrap(),
            AccessConstraint::new(&c, PANIC_RELATION, &["a"], &["b"], 10).unwrap(),
        ]);
        let mut db = Database::new(c);
        db.extend("R", [vec![Value::int(1), Value::int(10)]])
            .unwrap();
        db.extend(PANIC_RELATION, [vec![Value::int(1), Value::int(10)]])
            .unwrap();
        let idb = IndexedDatabase::build(db, schema).unwrap();

        // Two independent branches, so several workers are live at once: a healthy
        // fetch of R, and a fetch of the injection relation whose operator panics on
        // its first pull.
        let mut b = PlanBuilder::new();
        let k1 = b.constant(Value::int(1), "k");
        let healthy = b.fetch(
            k1,
            vec![0],
            "R",
            vec![0],
            vec![1],
            0,
            vec!["a".into(), "b".into()],
        );
        let k2 = b.constant(Value::int(1), "k");
        let panicking = b.fetch(
            k2,
            vec![0],
            PANIC_RELATION,
            vec![0],
            vec![1],
            1,
            vec!["a".into(), "b".into()],
        );
        let out = b.union(healthy, panicking);
        let plan = b.finish("Q", out).unwrap();
        let phys =
            lower_plan_with(&plan, &LowerOptions::new().with_exchange_parallelism(true)).unwrap();
        assert!(phys.pipeline_dag().len() >= 3);

        // Before the fix this deadlocked: the panicking worker died without a
        // wakeup, stranding the other workers in the condvar wait, and any
        // `MatNode` lock it poisoned resurfaced as an unrelated "materialization
        // lock" panic on whichever worker touched it next. Now the original payload
        // must reach the caller.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_inner(
                &phys,
                bea_storage::Store::Indexed(&idb),
                4,
                crate::exec::DEFAULT_MORSEL_ROWS,
            )
        }));
        let payload = outcome.expect_err("the injected panic must propagate to the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("injected operator panic"),
            "expected the original panic payload, got: {message:?}"
        );
    }

    /// A morsel job of query `query`'s pipeline `pipeline` with trivial (empty) work,
    /// for queue tests that only exercise [`pick_ready`]'s ordering.
    fn morsel_job(query: u64, pipeline: usize, index: usize) -> (u64, Job) {
        let work = Arc::new(MorselWork {
            pipeline,
            source: 0,
            batches: Arc::new(Vec::new()),
            ranges: vec![(0, 1), (1, 2)],
            caches: Arc::new(BTreeMap::new()),
        });
        let split = 0;
        (query, Job::Morsel { work, split, index })
    }

    #[test]
    fn morsel_stealing_finishes_the_warm_split_before_the_queue_front() {
        // Query 0's pipelines 0 and 1 are both split into morsels, and its pipeline 2
        // is whole; query 1's pipeline 1 carries the same pipeline number.
        let mut ready: VecDeque<(u64, Job)> = VecDeque::new();
        ready.push_back(morsel_job(1, 1, 0));
        ready.push_back(morsel_job(0, 0, 0));
        ready.push_back(morsel_job(0, 1, 0));
        ready.push_back(morsel_job(0, 1, 1));
        ready.push_back((0, Job::Pipeline(2)));

        // A worker fresh off query 0's pipeline 1 keeps eating its own split's morsels
        // first, even though other morsels — one of them another query's pipeline 1 —
        // sit at the queue front.
        let own = Some((0, 1));
        let (query, job) = pick_ready(&mut ready, own).unwrap();
        assert!(matches!(&job, Job::Morsel { work, index: 0, .. } if work.pipeline == 1));
        assert_eq!(query, 0);
        let (query, job) = pick_ready(&mut ready, own).unwrap();
        assert!(matches!(&job, Job::Morsel { work, index: 1, .. } if work.pipeline == 1));
        assert_eq!(query, 0);
        // Its split exhausted: only now does it take the front — another query's.
        let (query, job) = pick_ready(&mut ready, own).unwrap();
        assert!(matches!(&job, Job::Morsel { work, .. } if work.pipeline == 1));
        assert_eq!(query, 1);
        // A worker with no warm split takes the queue in FIFO order.
        let (_, job) = pick_ready(&mut ready, None).unwrap();
        assert!(matches!(&job, Job::Morsel { work, .. } if work.pipeline == 0));
        let (_, job) = pick_ready(&mut ready, None).unwrap();
        assert_eq!(job_pipeline(&job), 2);
        assert!(pick_ready(&mut ready, None).is_none());
    }

    #[test]
    fn no_worker_is_stranded_by_counted_wakeups() {
        // A fan-out of independent branches plus a dependent output pipeline, run
        // with more workers than initially-ready jobs, over and over: if a
        // completion ever under-notified, a worker would sleep forever with ready
        // jobs in the queue and this test would hang rather than fail.
        use crate::ops::execute_inner;
        use bea_core::access::{AccessConstraint, AccessSchema};
        use bea_core::plan::{lower_plan_with, LowerOptions, PlanBuilder, Predicate};
        use bea_core::value::Value;
        use bea_storage::{Database, IndexedDatabase};

        let mut c = bea_core::schema::Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let schema =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 10).unwrap()
            ]);
        let mut db = Database::new(c);
        db.extend(
            "R",
            (1..=4).map(|k| vec![Value::int(k), Value::int(10 * k)]),
        )
        .unwrap();
        let idb = IndexedDatabase::build(db, schema).unwrap();

        let mut b = PlanBuilder::new();
        let mut acc = None;
        for key in 1..=4 {
            let k = b.constant(Value::int(key), "k");
            let f = b.fetch(
                k,
                vec![0],
                "R",
                vec![0],
                vec![1],
                0,
                vec!["a".into(), "b".into()],
            );
            let p = b.product(k, f);
            let s = b.select(p, vec![Predicate::ColEqCol(0, 1)]);
            acc = Some(match acc {
                None => s,
                Some(prev) => b.union(prev, s),
            });
        }
        let plan = b.finish("Q", acc.unwrap()).unwrap();
        let phys =
            lower_plan_with(&plan, &LowerOptions::new().with_exchange_parallelism(true)).unwrap();
        assert!(phys.pipeline_dag().len() >= 5);

        let mut baseline = None;
        for _ in 0..25 {
            let (table, stats, ledger) = execute_inner(
                &phys,
                bea_storage::Store::Indexed(&idb),
                8,
                crate::exec::DEFAULT_MORSEL_ROWS,
            )
            .unwrap();
            assert_eq!(ledger.resident(), 0);
            let fingerprint = (table.rows().to_vec(), stats.tuples_fetched);
            match &baseline {
                None => baseline = Some(fingerprint),
                Some(expected) => assert_eq!(&fingerprint, expected),
            }
        }
    }

    #[test]
    fn a_lone_caller_runs_its_pipelines_in_step_order() {
        // At one thread this plan's DAG is 0, 1←0, 2, 3←{1, 2}: pipelines 0 and 2 are
        // ready at once and 1 becomes ready behind 2. Running them in step order —
        // 0, 1, 2, 3, the order the plan was lowered for — is observable as the peak.
        use crate::ops::execute_inner;
        use bea_core::access::{AccessConstraint, AccessSchema};
        use bea_core::plan::{lower_plan, PlanBuilder};
        use bea_core::value::Value;
        use bea_storage::{Database, IndexedDatabase};

        let mut c = bea_core::schema::Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let schema =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 10).unwrap()
            ]);
        let mut db = Database::new(c);
        db.extend("R", (10..14).map(|b| vec![Value::int(1), Value::int(b)]))
            .unwrap();
        let idb = IndexedDatabase::build(db, schema).unwrap();

        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "k");
        let columns = vec!["a".into(), "b".into()];
        // Pipeline 0: the four tuples of key 1, shared by both sides of `gone`.
        let four = b.fetch(k, vec![0], "R", vec![0], vec![1], 0, columns);
        // Pipeline 1: empty, but while it runs it holds the four tuples twice — the
        // materialization and the difference's right-hand set.
        let gone = b.difference(four, four);
        // Pipeline 2: one row, independent of the others.
        let one_a = b.constant(Value::int(1), "a");
        let one_b = b.constant(Value::int(10), "b");
        let one = b.product(one_a, one_b);
        // Pipeline 3 reads `gone` and `one` twice each (so both are materialized).
        let left = b.difference(gone, one);
        let right = b.difference(one, gone);
        let out = b.difference(left, right);
        let phys = lower_plan(&b.finish("Q", out).unwrap()).unwrap();
        let dag = phys.pipeline_dag();
        let deps: Vec<&[usize]> = (0..dag.len()).map(|i| dag.dependencies(i)).collect();
        assert_eq!(deps, [&[][..], &[0], &[], &[1, 2]], "\n{phys}");

        let (table, stats, ledger) = execute_inner(
            &phys,
            bea_storage::Store::Indexed(&idb),
            1,
            crate::exec::DEFAULT_MORSEL_ROWS,
        )
        .unwrap();
        assert!(table.is_empty());
        assert_eq!(ledger.resident(), 0);
        // Step order peaks inside pipeline 1 at 2 · 4 rows, with nothing else resident
        // (pipeline 0 never holds more than its key and its four output rows, pipeline
        // 3 a handful of single rows). The order the jobs were queued in — 0, 2, 1, 3 —
        // would run pipeline 1 with pipeline 2's row resident: 9.
        assert_eq!(stats.peak_rows_resident, 8);
    }
}
