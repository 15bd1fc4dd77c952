//! The pipeline-DAG driver: one job queue, one job-running loop, whoever owns the
//! threads.
//!
//! The unit of work is a job: one whole [`bea_core::plan::Pipeline`] (a
//! materialization point plus the streaming region feeding it), named by its index in
//! the query's DAG. Nothing splits a pipeline. A pipeline is *ready* when every
//! pipeline it scans (its exchange edges) has completed. A [`Pool`] holds the ready
//! jobs of every admitted query in one queue behind one mutex, and
//! [`Pool::run_claimed`] is the only code that runs a job: execute with the running
//! thread's [`ExecState`] (operator trees never cross threads) against the query's
//! [`ResidencyLedger`], fold the counters in with
//! [`AccessStats::merge_concurrent`], unlock dependents, retire the query and put its
//! outcome where its owner waits. A query runs a [`Prepared`] plan in place — the
//! plan, its DAG and its pool cap shared by every run of a template, the run's own
//! constants beside them. The pool owns no thread and no store; both are lent by its
//! user:
//!
//! * a solo execution ([`super::execute`]) builds a pool on its caller's stack,
//!   submits its one query, and the calling thread runs [`Pool::join`] — the helping
//!   wait — beside scoped helpers running [`Pool::worker_loop`]; with one thread (or
//!   a DAG one pipeline wide) there are no helpers, no scope and no wait;
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
//! # Wake-ups
//!
//! A worker takes the queue front, whichever query it belongs to. Pipelines know
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
//! thread count and interleaving.

use super::fetch::FetchStep;
use super::{
    pool_cap_for, run_pipeline, BufferPool, ExecState, JobCtx, ResidencyLedger, SharedMat,
    SharedState,
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
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

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

/// What one job produced — its result is published into the query's slots by the
/// run — paired with the job's private access counters. The outer
/// [`std::thread::Result`] carries a caught panic.
type JobOutcome = std::thread::Result<(Result<()>, AccessStats)>;

/// Execute pipeline `pipeline` with the running thread's [`ExecState`] — counters stay
/// private to the job, residency goes through the query's ledger — catching panics on
/// the running thread. An uncaught panic would kill a worker without a wakeup, stranding
/// the others on the condvar, and poison any `MatNode` lock it held — turning one bad
/// operator into an opaque secondary panic elsewhere. The unwind still runs the
/// operator drops inside the catch, so residency is released before the payload is
/// returned. The job's fetch counts stay on `state` for the scheduler to fold in.
fn execute_job(
    shared: &QueryShared<'_>,
    store: Store<'_>,
    state: &SharedState,
    pipeline: usize,
) -> JobOutcome {
    catch_unwind(AssertUnwindSafe(|| {
        let run = JobCtx {
            plan: &shared.prepared.plan,
            constants: &shared.constants,
            store,
            state,
            mats: &shared.mats,
        };
        let sink = shared.prepared.dag.pipelines()[pipeline].sink;
        let result = run_pipeline(run, sink);
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
    /// Ready jobs, across all admitted queries: (query id, pipeline).
    ready: VecDeque<(u64, usize)>,
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
            state.ready.push_back((id, pipeline));
            added += 1;
        }
    }
    state.active.push(ActiveQuery {
        id,
        shared,
        deps_left,
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

/// Pop the next job for the thread waiting on query `id`: that query's ready job of
/// the lowest-numbered pipeline. Pipelines are numbered topologically, so a caller
/// running alone executes them in step order.
fn pick_own(ready: &mut VecDeque<(u64, usize)>, id: u64) -> Option<usize> {
    let position = ready
        .iter()
        .enumerate()
        .filter(|(_, (owner, _))| *owner == id)
        .min_by_key(|(_, (_, pipeline))| *pipeline)
        .map(|(position, _)| position)?;
    ready.remove(position).map(|(_, pipeline)| pipeline)
}

/// Decrement the dependency counts of `pipeline`'s dependents within one query,
/// enqueueing the ones that became ready. Returns how many jobs were added.
fn unlock_dependents(
    query: &mut ActiveQuery<'_>,
    id: u64,
    pipeline: usize,
    ready: &mut VecDeque<(u64, usize)>,
) -> usize {
    let mut added = 0;
    for &dependent in query.shared.prepared.dag.dependents(pipeline) {
        query.deps_left[dependent] -= 1;
        if query.deps_left[dependent] == 0 {
            ready.push_back((id, dependent));
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
    /// An idle pool: no query, no thread.
    pub(crate) fn new(budget: Option<u64>, cache: Option<Arc<SessionFetchCache>>) -> Self {
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

    /// Claim the queue front's job, whichever query it belongs to, and run it against
    /// `store`, until the pool is shut down and fully drained.
    pub(crate) fn worker_loop(&self, store: Store<'_>) {
        loop {
            let (id, pipeline, shared) = {
                let mut guard = self.lock_state();
                loop {
                    let state = &mut *guard;
                    if let Some((id, pipeline)) = state.ready.pop_front() {
                        break (id, pipeline, claim(&mut state.active, id));
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
            self.run_claimed(store, id, pipeline, &shared, Runner::Worker);
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
                pick_own(&mut state.ready, id)
                    .map(|pipeline| (pipeline, claim(&mut state.active, id)))
            };
            match claimed {
                Some((pipeline, shared)) => {
                    self.run_claimed(store, id, pipeline, &shared, Runner::Caller)
                }
                None => break query.outcome(true).expect("waited for"),
            }
        };
        match outcome {
            QueryOutcome::Finished(table, stats) => Ok((table, stats)),
            QueryOutcome::Failed(error) => Err(error),
            QueryOutcome::Panicked(payload) => resume_unwind(payload),
        }
    }

    /// Run one claimed pipeline of query `id` to the end on the current thread: execute
    /// with a per-job private state, fold the outcome into the query's bookkeeping,
    /// unlock its dependents, and
    /// — when that was its last job — retire the query, admit whatever the freed
    /// headroom lets in, and deliver the outcome. The one place a job runs; `runner`
    /// only decides which counter the job lands in and whether a wake-up is withheld
    /// for the running thread.
    fn run_claimed(
        &self,
        store: Store<'_>,
        id: u64,
        pipeline: usize,
        shared: &QueryShared<'p>,
        runner: Runner,
    ) {
        let pool_cap = shared.prepared.pool_cap;
        let job_state = ExecState::claim(&shared.ledger, pool_cap, self.cache.as_ref());
        let outcome = execute_job(shared, store, &job_state, pipeline);

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
            Ok((Ok(()), stats)) if query.failure.is_none() => {
                query.stats.merge_concurrent(stats);
                let fetch =
                    |step| FetchStep::of(&shared.prepared.plan, step).expect("only fetches fetch");
                let relation = |step| fetch(step).relation;
                (job_state.borrow_mut().fetched).drain_into(&mut query.stats, relation);
                query.completed += 1;
                added += unlock_dependents(query, id, pipeline, &mut state.ready);
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
    #[test]
    fn worker_panic_propagates_cleanly_instead_of_deadlocking() {
        use crate::ops::tests::shared_fetches;
        use crate::ops::{execute_inner, PANIC_RELATION};
        use bea_core::access::{AccessConstraint, AccessSchema};
        use bea_core::plan::lower_plan;
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

        // Two independent pipelines, so several workers are live at once: a healthy
        // fetch of R, and a fetch of the injection relation whose operator panics on
        // its first pull.
        let plan = shared_fetches(&[("R", 0, 1), (PANIC_RELATION, 1, 1)]);
        let phys = lower_plan(&plan).unwrap();
        assert_eq!(phys.pipeline_dag().parallel_width(), 2);

        // Before the fix this deadlocked: the panicking worker died without a
        // wakeup, stranding the other workers in the condvar wait, and any
        // `MatNode` lock it poisoned resurfaced as an unrelated "materialization
        // lock" panic on whichever worker touched it next. Now the original payload
        // must reach the caller.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_inner(&phys, bea_storage::Store::Indexed(&idb), 4)
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

    #[test]
    fn no_worker_is_stranded_by_counted_wakeups() {
        // A fan-out of independent branches plus a dependent output pipeline, run
        // with more workers than initially-ready jobs, over and over: if a
        // completion ever under-notified, a worker would sleep forever with ready
        // jobs in the queue and this test would hang rather than fail.
        use crate::ops::execute_inner;
        use crate::ops::tests::shared_fetches;
        use bea_core::access::{AccessConstraint, AccessSchema};
        use bea_core::plan::lower_plan;
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

        let phys = lower_plan(&shared_fetches(&[("R", 0, 1), ("R", 0, 2), ("R", 0, 3)])).unwrap();
        let dag = phys.pipeline_dag();
        assert_eq!((dag.len(), dag.parallel_width()), (4, 3));

        let mut baseline = None;
        for _ in 0..25 {
            let (table, stats, ledger) =
                execute_inner(&phys, bea_storage::Store::Indexed(&idb), 8).unwrap();
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

        let (table, stats, ledger) =
            execute_inner(&phys, bea_storage::Store::Indexed(&idb), 1).unwrap();
        assert!(table.is_empty());
        assert_eq!(ledger.resident(), 0);
        // Step order peaks inside pipeline 1 at 2 · 4 rows, with nothing else resident
        // (pipeline 0 never holds more than its key and its four output rows, pipeline
        // 3 a handful of single rows). The order the jobs were queued in — 0, 2, 1, 3 —
        // would run pipeline 1 with pipeline 2's row resident: 9.
        assert_eq!(stats.peak_rows_resident, 8);
    }
}
