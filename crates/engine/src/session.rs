//! Multi-query execution sessions: one worker pool, many concurrently admitted
//! queries, fetch-bound admission control.
//!
//! [`crate::exec::execute_plan_on`] builds a job pool ([`crate::ops`]' `sched::Pool`)
//! for one query and tears it down with the call. A [`Session`] is that same pool kept
//! alive: it owns the store (behind an `Arc`), a set of persistent worker threads, the
//! admission limits and the fetch cache, and [`Session::submit`] hands the pool
//! queries whose pipelines *interleave* in its one job queue. The contract:
//!
//! * **Isolation** — every query executes against its own materialization slots,
//!   residency ledger and [`AccessStats`]; the only state queries share
//!   is the store (immutable) and the workers' time. A query's rows, row order and
//!   every deterministic access counter are *identical* to a solo
//!   [`crate::exec::execute_plan_on`] run of the same plan — it is the same code
//!   running the same jobs; concurrency moves wall clock, never data. Errors are
//!   per-query: the first failing job of a query wins,
//!   its queued jobs are discarded, and every other query proceeds untouched. A
//!   panicking operator fails only its own query; the payload is re-raised from
//!   [`QueryHandle::wait`] / [`Session::run`], on that query's caller only.
//! * **One way in** — a submission is two halves. [`Session::prepare`] is the
//!   value-free one: lower the logical plan (one plan at any thread and shard count,
//!   keys routed at run time), validate it against the store, derive its
//!   [`CostTicket`]. None of that
//!   reads a constant's value and the store is immutable, so a [`PreparedPlan`] made
//!   from a template — [`bea_core::value::Value::placeholder`]s where the constants go
//!   — is good for every request of that shape: validation, pricing, the pipeline DAG
//!   and the buffer-pool cap are paid per template, not per query.
//!   [`Session::run_prepared`] is the other half: the constant count checked,
//!   rejection checks on the stored ticket, then the pool, which runs the shared plan
//!   in place — a request carries only its constants, and each operator reads its
//!   placeholders' values when it is built. [`Session::run`] and [`Session::submit`]
//!   are `prepare` followed by the same admission with the plan they just prepared
//!   and no constants, so there is no second path in.
//! * **Admission control** — every submission is priced by a
//!   [`CostTicket`] *before* it runs (the paper's bounded-evaluability guarantee:
//!   worst-case fetch volume is a static quantity). Against a configured aggregate
//!   fetch budget ([`SessionConfig::with_fetch_budget`] / the [`FETCH_BUDGET_ENV`]
//!   variable), a query whose own `fetch_bound` exceeds the budget is **rejected**
//!   deterministically — the same verdict at any load, any thread count. A query
//!   that fits the budget but not the *remaining* headroom is **queued** and admitted
//!   FIFO as running queries retire; at every instant the sum of admitted queries'
//!   fetch bounds is at most the budget (observable as
//!   [`AdmissionStats::peak_admitted_bound`]).
//! * **Scheduling** — a query's jobs (its whole pipelines; nothing splits one) sit in
//!   one ready queue, and two kinds of thread may run them. A *pool worker* takes the
//!   queue front, whichever query it belongs to. A *caller* — the thread inside
//!   [`Session::run`] or [`QueryHandle::wait`] — takes ready jobs of **its own query
//!   only**, and blocks for the outcome when none is ready (they are on workers, or the
//!   query is still queued for headroom; workers then run it). Both go through the
//!   pool's one `run_claimed`: execute, fold the outcome, unlock dependents, retire. A
//!   width-1 query (every single-pipeline plan, a chain of pipelines) therefore runs
//!   start to finish on the thread that asked for it; the independent pipelines of a
//!   wider query still fan out, because every job beyond the one the running thread
//!   will take itself is announced to the pool. That is the one wake-up rule: *a
//!   thread that is about to look at the queue itself is not sent a wake-up* — `run`
//!   withholds one for its caller, a finished job withholds one for the thread that
//!   finished it, every other new job wakes exactly one worker, and only shutdown
//!   broadcasts. [`SessionConfig::threads`] counts pool workers; callers execute in
//!   addition to them, so the number of threads inside operators is bounded by
//!   workers plus connections — the fetch budget remains the only bound on concurrent
//!   data volume. Parallelism is across queries and across independent pipelines, so a
//!   single query never runs on more threads than its DAG is wide, and who runs a job
//!   never changes what it computes.
//!
//! [`Session::shutdown`] (or drop) drains every admitted and queued query before the
//! workers exit, so no accepted query is ever abandoned.

use crate::cache::{CacheStats, SessionFetchCache};
use crate::ops::sched::{Pool, Prepared, QueryShared, Submitted};
use crate::ops::validate_for;
use crate::stats::AccessStats;
use crate::table::Table;
use bea_core::error::{Error, Result};
use bea_core::plan::{lower_plan, CostTicket, PhysicalPlan, QueryPlan};
use bea_core::value::Value;
use bea_storage::{IndexedDatabase, Store};
use std::borrow::Cow;
use std::panic::resume_unwind;
use std::sync::Arc;
use std::thread::JoinHandle;

/// Environment variable configuring the session's aggregate fetch budget — the
/// ceiling on the sum of admitted queries' fetch bounds — when
/// [`SessionConfig::fetch_budget`] is 0 (automatic). `0` and the empty string mean
/// "unlimited"; an explicit [`SessionConfig::with_fetch_budget`] beats the
/// environment. Parsed through the shared [`bea_core::env`] loud-failure contract: a
/// set-but-invalid value panics with the rejection reason instead of silently
/// admitting everything.
pub const FETCH_BUDGET_ENV: &str = "BEA_FETCH_BUDGET";

/// Environment variable configuring the session's cross-query fetch-cache budget —
/// the ceiling on cached posting rows resident across all queries — when
/// [`SessionConfig::cache_budget_rows`] is 0 (automatic). `0` and the empty string
/// mean "cache disabled", which reproduces the uncached executor bit-for-bit; an
/// explicit [`SessionConfig::with_cache_budget_rows`] beats the environment. Parsed
/// through the shared [`bea_core::env`] loud-failure contract: a set-but-invalid
/// value panics with the rejection reason instead of silently running uncached.
pub const CACHE_ROWS_ENV: &str = "BEA_CACHE_ROWS";

/// Parse a [`FETCH_BUDGET_ENV`] value. `Ok(Some(n))` is an aggregate budget of `n`
/// tuples; `Ok(None)` means "unlimited" (`0`, or the empty string); anything
/// unparsable is an error naming the reason. Pure, like
/// [`crate::exec::parse_threads`], so it is testable without mutating the process
/// environment.
pub fn parse_fetch_budget(value: &str) -> std::result::Result<Option<u64>, String> {
    Ok(bea_core::env::parse_count(value)?.auto_when_zero())
}

/// Parse a [`CACHE_ROWS_ENV`] value. `Ok(Some(n))` is a cache budget of `n` resident
/// posting rows; `Ok(None)` means "cache disabled" (`0`, or the empty string);
/// anything unparsable is an error naming the reason. Pure, like
/// [`parse_fetch_budget`], so it is testable without mutating the process
/// environment.
pub fn parse_cache_rows(value: &str) -> std::result::Result<Option<u64>, String> {
    Ok(bea_core::env::parse_count(value)?.auto_when_zero())
}

/// A store a [`Session`] can own: an `Arc`-shared [`IndexedDatabase`], since the
/// session's workers outlive any caller borrow. Cloning shares the store.
#[derive(Clone)]
pub struct SharedStore(Arc<IndexedDatabase>);

impl SharedStore {
    /// The borrowed [`Store`] the executor runs against.
    pub fn store(&self) -> Store<'_> {
        &self.0
    }
}

impl From<IndexedDatabase> for SharedStore {
    fn from(db: IndexedDatabase) -> Self {
        SharedStore(Arc::new(db))
    }
}

/// Options controlling a [`Session`]: pool size and the admission
/// controller's limits. `#[non_exhaustive]`, same pattern as
/// [`crate::exec::ExecOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct SessionConfig {
    /// Worker threads in the pool. `0` (the default) resolves like
    /// [`crate::exec::ExecOptions::threads`]: `BEA_THREADS`, else available
    /// parallelism.
    pub threads: usize,
    /// Aggregate fetch budget: the ceiling on the sum of admitted queries' fetch
    /// bounds. `0` (the default) resolves automatically: [`FETCH_BUDGET_ENV`] if
    /// set, otherwise unlimited.
    pub fetch_budget: u64,
    /// Cross-query fetch-cache budget, in resident posting rows. `0` (the default)
    /// resolves automatically: [`CACHE_ROWS_ENV`] if set, otherwise the cache is
    /// disabled and the session executes exactly as the uncached engine does.
    pub cache_budget_rows: u64,
}

impl SessionConfig {
    /// The default config: automatic pool size, no admission limits (unless the
    /// environment sets a budget).
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the worker-thread count (0 = automatic).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Set the aggregate fetch budget (0 = resolve from [`FETCH_BUDGET_ENV`], else
    /// unlimited).
    pub fn with_fetch_budget(mut self, budget: u64) -> Self {
        self.fetch_budget = budget;
        self
    }

    /// Set the cross-query fetch-cache budget in resident posting rows (0 = resolve
    /// from [`CACHE_ROWS_ENV`], else disabled).
    pub fn with_cache_budget_rows(mut self, rows: u64) -> Self {
        self.cache_budget_rows = rows;
        self
    }

    /// The effective aggregate fetch budget: the explicit
    /// [`SessionConfig::fetch_budget`] if nonzero, else [`FETCH_BUDGET_ENV`], else
    /// unlimited (`None`).
    pub fn resolved_fetch_budget(&self) -> Option<u64> {
        if self.fetch_budget > 0 {
            return Some(self.fetch_budget);
        }
        bea_core::env::read_env(FETCH_BUDGET_ENV, parse_fetch_budget).flatten()
    }

    /// The effective cross-query fetch-cache budget: the explicit
    /// [`SessionConfig::cache_budget_rows`] if nonzero, else [`CACHE_ROWS_ENV`],
    /// else disabled (`None`).
    pub fn resolved_cache_budget_rows(&self) -> Option<u64> {
        if self.cache_budget_rows > 0 {
            return Some(self.cache_budget_rows);
        }
        bea_core::env::read_env(CACHE_ROWS_ENV, parse_cache_rows).flatten()
    }
}

/// Why the admission controller refused a submission outright.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The query's own worst-case fetch volume exceeds the aggregate budget — it
    /// could never run, at any load.
    FetchBound {
        /// The query's fetch bound.
        bound: u64,
        /// The session's aggregate budget.
        budget: u64,
    },
    /// The query's per-probe allocation surface exceeds a cap. Never constructed:
    /// a session has no such cap. Kept only while the benchmark harness still
    /// matches on it.
    AllocSurface {
        /// The query's allocation surface.
        surface: u64,
        /// The configured cap.
        limit: u64,
    },
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejection::FetchBound { bound, budget } => write!(
                f,
                "fetch bound {bound} exceeds the aggregate fetch budget {budget}"
            ),
            Rejection::AllocSurface { surface, limit } => write!(
                f,
                "allocation surface {surface} exceeds the configured cap {limit}"
            ),
        }
    }
}

/// Why [`Session::submit`] returned no handle.
#[derive(Debug)]
pub enum SubmitError {
    /// The admission controller refused the query; the ticket says what it would
    /// have cost. Deterministic: the same plan gets the same verdict at any load.
    Rejected {
        /// The priced ticket of the refused query.
        ticket: Box<CostTicket>,
        /// The specific limit it broke.
        rejection: Rejection,
    },
    /// The plan failed lowering or validation, or the session is shut down.
    Invalid(Error),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Rejected { ticket, rejection } => {
                write!(f, "query {} rejected: {rejection}", ticket.query_name)
            }
            SubmitError::Invalid(error) => write!(f, "{error}"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A snapshot of the session's admission counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Queries that reached admission through [`Session::submit`], [`Session::run`]
    /// or [`Session::run_prepared`] — a plan that fails validation, or a run given the
    /// wrong number of constants, is refused before it and not counted.
    pub submitted: u64,
    /// Queries admitted to the pool (immediately or after queueing).
    pub admitted: u64,
    /// Queries that had to wait for budget headroom before admission.
    pub queued: u64,
    /// Queries refused outright (over-budget fetch bound).
    pub rejected: u64,
    /// Admitted queries that finished successfully.
    pub completed: u64,
    /// Admitted queries that ended in an error or a panic.
    pub failed: u64,
    /// Sum of currently admitted queries' fetch bounds.
    pub inflight_bound: u64,
    /// High-water mark of `inflight_bound` — never exceeds the budget.
    pub peak_admitted_bound: u64,
    /// The effective aggregate fetch budget (`None` = unlimited).
    pub budget: Option<u64>,
    /// Jobs (pipelines) executed by the thread waiting for their query —
    /// inside [`Session::run`] or [`QueryHandle::wait`].
    pub jobs_run_by_callers: u64,
    /// Jobs executed by the pool's worker threads.
    pub jobs_run_by_workers: u64,
}

/// The caller's handle to one admitted (or queued) query.
pub struct QueryHandle {
    ticket: CostTicket,
    /// The pool's receipt: id, whether it queued, and where the outcome arrives.
    submitted: Submitted<'static>,
    /// The pool the query runs in, so the waiting thread can run its jobs.
    inner: Arc<SessionInner>,
}

impl std::fmt::Debug for QueryHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QueryHandle")
            .field("id", &self.submitted.id)
            .field("ticket", &self.ticket)
            .field("queued", &self.submitted.queued)
            .finish_non_exhaustive()
    }
}

impl QueryHandle {
    /// The session-unique id of this submission (submission order).
    pub fn id(&self) -> u64 {
        self.submitted.id
    }

    /// The priced ticket the admission controller accepted.
    pub fn ticket(&self) -> &CostTicket {
        &self.ticket
    }

    /// Whether the query had to queue for budget headroom (it still runs; this is
    /// informational).
    pub fn was_queued(&self) -> bool {
        self.submitted.queued
    }

    /// Wait until the query finishes, returning its table and access statistics —
    /// exactly what [`crate::exec::execute_plan_on`] would have returned for the
    /// same plan. The waiting thread helps: while the outcome is not in it runs the
    /// query's own ready jobs, and blocks only when none is ready. A panic inside the
    /// query's own operators is re-raised here, on the owner; other queries are
    /// unaffected.
    pub fn wait(self) -> Result<(Table, AccessStats)> {
        self.inner.join(&self.submitted)
    }
}

struct SessionInner {
    store: SharedStore,
    threads: usize,
    /// The job queue the workers and the waiting callers run; it carries the fetch
    /// budget and the cross-query fetch cache.
    pool: Pool<'static>,
}

impl SessionInner {
    /// The helping wait for one submitted query (see [`QueryHandle::wait`]).
    fn join(&self, submitted: &Submitted<'static>) -> Result<(Table, AccessStats)> {
        self.pool.join(self.store.store(), submitted)
    }
}

/// A logical plan lowered, validated and priced for one [`Session`] — everything a
/// submission computes before it looks at the load, and what every run of it shares:
/// the lowered plan, its pipeline DAG and its buffer-pool cap, behind one `Arc` that
/// each run holds beside its own constants. See [`Session::prepare`].
#[derive(Debug)]
pub struct PreparedPlan {
    prepared: Arc<Prepared<'static>>,
    ticket: CostTicket,
}

impl PreparedPlan {
    /// The lowered plan, placeholders and all.
    pub fn physical(&self) -> &PhysicalPlan {
        &self.prepared.plan
    }

    /// What every run of this plan costs: the ticket admission judges it by.
    pub fn ticket(&self) -> &CostTicket {
        &self.ticket
    }

    /// How many constants a run takes ([`PhysicalPlan::placeholders`]) — exactly what
    /// [`Session::run_prepared`] must be given.
    pub fn placeholders(&self) -> usize {
        self.prepared.placeholders
    }
}

/// A multi-query execution session. See the module docs for the contract.
pub struct Session {
    inner: Arc<SessionInner>,
    workers: Vec<JoinHandle<()>>,
}

impl Session {
    /// Start a session over `store` with `config`'s pool and admission settings.
    /// Spawns the worker threads immediately; they idle until a query is admitted.
    pub fn new(store: impl Into<SharedStore>, config: SessionConfig) -> Self {
        let exec = crate::exec::ExecOptions::new().with_threads(config.threads);
        let inner = Arc::new(SessionInner {
            store: store.into(),
            threads: exec.resolved_threads(),
            pool: Pool::new(
                config.resolved_fetch_budget(),
                config
                    .resolved_cache_budget_rows()
                    .map(|rows| Arc::new(SessionFetchCache::new(rows))),
            ),
        });
        let workers = (0..inner.threads.max(1))
            .map(|worker| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("bea-session-{worker}"))
                    .spawn(move || inner.pool.worker_loop(inner.store.store()))
                    .expect("spawning a session worker thread")
            })
            .collect();
        Session { inner, workers }
    }

    /// The session's effective aggregate fetch budget (`None` = unlimited).
    pub fn fetch_budget(&self) -> Option<u64> {
        self.inner.pool.budget
    }

    /// The session's worker-thread count.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// A snapshot of the cross-query fetch cache's counters. All-zero (including
    /// `budget_rows`) when the cache is disabled.
    pub fn cache_stats(&self) -> CacheStats {
        let cache = self.inner.pool.cache.as_ref();
        cache.map(|cache| cache.stats()).unwrap_or_default()
    }

    /// The value-free half of a submission: lower `plan` exactly as
    /// [`crate::exec::execute_plan_on`] does (so a session run is job-for-job the same
    /// physical plan as a solo run at any thread count — and, keys being routed at run
    /// time, the same plan at every shard count), validate the
    /// result against the store, and price it. None of the three looks
    /// at a constant's value, and the store is immutable, so one [`PreparedPlan`]
    /// serves every query that differs from `plan` only in its constants — prepare a
    /// template once ([`bea_core::value::Value::placeholder`] where the constants go)
    /// and hand each request's values to [`Session::run_prepared`].
    pub fn prepare(&self, plan: &QueryPlan) -> Result<PreparedPlan> {
        let store = self.inner.store.store();
        let physical = lower_plan(plan)?;
        validate_for(&physical, store)?;
        let ticket = CostTicket::derive(plan, store.schema(), store.size(), &physical);
        let prepared = Arc::new(Prepared::new(Cow::Owned(physical)));
        Ok(PreparedPlan { prepared, ticket })
    }

    /// [`Session::prepare`] `plan`, run it through admission control, and — if
    /// admitted or queued — hand its jobs to the pool. Returns a [`QueryHandle`] to
    /// wait on, or a [`SubmitError`] when the plan is invalid or deterministically
    /// over budget. The asynchronous entry: every ready job wakes a worker, so the
    /// query makes progress whether or not anyone waits on the handle.
    pub fn submit(&self, plan: &QueryPlan) -> std::result::Result<QueryHandle, SubmitError> {
        let prepared = self.prepare(plan).map_err(SubmitError::Invalid)?;
        let submitted = self.admit(&prepared, Vec::new(), false)?;
        Ok(QueryHandle {
            ticket: prepared.ticket,
            submitted,
            inner: Arc::clone(&self.inner),
        })
    }

    /// [`Session::submit`] and a helping wait in one call, for synchronous callers:
    /// admission, pricing, queueing and rejection are `submit`'s, then the calling
    /// thread runs the query's ready jobs itself (see the module docs), so a query
    /// that never goes wider than one job completes without waking a worker. Returns
    /// the accepted ticket beside the execution result; a panic inside the query's
    /// operators is re-raised here.
    pub fn run(
        &self,
        plan: &QueryPlan,
    ) -> std::result::Result<(CostTicket, Result<(Table, AccessStats)>), SubmitError> {
        let prepared = self.prepare(plan).map_err(SubmitError::Invalid)?;
        let submitted = self.admit(&prepared, Vec::new(), true)?;
        Ok((prepared.ticket, self.inner.join(&submitted)))
    }

    /// [`Session::run`] for a plan prepared earlier: a request carries its constants,
    /// not a plan. The run shares the prepared plan, and its operators read each
    /// placeholder's value from `values` when they are built. Any count of values but
    /// [`PreparedPlan::placeholders`] is a [`SubmitError::Invalid`] naming both, before
    /// admission counts the request; the rejection checks read the stored ticket.
    pub fn run_prepared(
        &self,
        prepared: &PreparedPlan,
        values: impl Into<Vec<Value>>,
    ) -> std::result::Result<Result<(Table, AccessStats)>, SubmitError> {
        let values = values.into();
        let expected = prepared.placeholders();
        if values.len() != expected {
            return Err(SubmitError::Invalid(Error::invalid(format!(
                "the plan for {} takes {expected} constants, {} were given",
                prepared.ticket.query_name,
                values.len()
            ))));
        }
        let submitted = self.admit(prepared, values, true)?;
        Ok(self.inner.join(&submitted))
    }

    /// The one way into the pool: the deterministic rejections — verdicts that depend
    /// only on the ticket and the configuration, never on current load — and then a
    /// run of `prepared` with `constants` to [`Pool::submit`]. With `caller_runs` the
    /// submitting thread goes straight on to look at the queue for this query, so one
    /// wake-up fewer than jobs is sent.
    fn admit(
        &self,
        prepared: &PreparedPlan,
        constants: Vec<Value>,
        caller_runs: bool,
    ) -> std::result::Result<Submitted<'static>, SubmitError> {
        let (inner, ticket) = (&self.inner, &prepared.ticket);
        if let Some(budget) = inner
            .pool
            .budget
            .filter(|&budget| ticket.fetch_bound > budget)
        {
            let mut guard = inner.pool.lock_state();
            guard.counters.submitted += 1;
            guard.counters.rejected += 1;
            drop(guard);
            return Err(SubmitError::Rejected {
                ticket: Box::new(ticket.clone()),
                rejection: Rejection::FetchBound {
                    bound: ticket.fetch_bound,
                    budget,
                },
            });
        }
        let query = QueryShared::new(prepared.prepared.clone(), constants, ticket.fetch_bound);
        inner
            .pool
            .submit(query, caller_runs)
            .map_err(SubmitError::Invalid)
    }

    /// A snapshot of the admission counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        let guard = self.inner.pool.lock_state();
        AdmissionStats {
            submitted: guard.counters.submitted,
            admitted: guard.counters.admitted,
            queued: guard.counters.queued,
            rejected: guard.counters.rejected,
            completed: guard.counters.completed,
            failed: guard.counters.failed,
            inflight_bound: guard.admitted_bound,
            peak_admitted_bound: guard.peak_admitted_bound,
            budget: self.inner.pool.budget,
            jobs_run_by_callers: guard.counters.jobs_run_by_callers,
            jobs_run_by_workers: guard.counters.jobs_run_by_workers,
        }
    }

    /// Drain every admitted and queued query, stop the workers, and tear the pool
    /// down. Equivalent to dropping the session, but explicit at call sites.
    pub fn shutdown(self) {}
}

impl Drop for Session {
    fn drop(&mut self) {
        self.inner.pool.shut_down();
        for worker in self.workers.drain(..) {
            // A worker that panicked outside a job is a bug; surface it rather
            // than shutting down half-torn.
            if let Err(payload) = worker.join() {
                resume_unwind(payload);
            }
        }
        // With the workers gone nothing probes the cache; release its resident
        // rows so its ledger's teardown zero-assertion holds.
        if let Some(cache) = &self.inner.pool.cache {
            cache.drain();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_plan_on, ExecOptions};
    use crate::ops::sched::drain_pending;
    use crate::ops::tests::shared_fetches;
    use bea_core::access::{AccessConstraint, AccessSchema};
    use bea_core::plan::{PlanBuilder, Predicate};
    use bea_core::schema::Catalog;
    use bea_storage::Database;
    use std::sync::mpsc::{channel, RecvTimeoutError};

    /// A tiny R(a → b) store with keys 1..=n, two b-values per key.
    fn fixture(n: i64) -> IndexedDatabase {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let schema =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 10).unwrap()
            ]);
        let mut db = Database::new(c);
        db.extend(
            "R",
            (1..=n).flat_map(|k| {
                [
                    vec![Value::int(k), Value::int(10 * k)],
                    vec![Value::int(k), Value::int(10 * k + 1)],
                ]
            }),
        )
        .unwrap();
        IndexedDatabase::build(db, schema).unwrap()
    }

    /// A union of `keys.len()` keyed-lookup branches — fetch bound 10 per branch.
    fn lookup_union(name: &str, keys: &[i64]) -> QueryPlan {
        let keys: Vec<Value> = keys.iter().copied().map(Value::int).collect();
        lookup_union_of(name, &keys)
    }

    /// [`lookup_union`] over any constants, placeholders included.
    fn lookup_union_of(name: &str, keys: &[Value]) -> QueryPlan {
        let mut b = PlanBuilder::new();
        let branch = |b: &mut PlanBuilder, key: &Value| {
            let k = b.constant(key.clone(), "k");
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
        let mut acc = branch(&mut b, &keys[0]);
        for key in &keys[1..] {
            let next = branch(&mut b, key);
            acc = b.union(acc, next);
        }
        b.finish(name, acc).unwrap()
    }

    #[test]
    fn a_prepared_template_is_bound_per_run_and_judged_by_its_one_ticket() {
        let session = Session::new(
            fixture(6),
            SessionConfig::new().with_threads(2).with_fetch_budget(25),
        );
        let template = lookup_union_of("Q", &[Value::placeholder(0), Value::placeholder(1)]);
        let prepared = session.prepare(&template).unwrap();
        for keys in [[1, 2], [5, 3], [4, 4]] {
            let (ticket, expected) = session.run(&lookup_union("Q", &keys)).unwrap();
            let (expected_table, expected_stats) = expected.unwrap();
            assert_eq!(prepared.ticket(), &ticket, "pricing never reads a constant");
            let (table, stats) = session
                .run_prepared(&prepared, keys.map(Value::int))
                .unwrap()
                .unwrap();
            assert_eq!(table.rows(), expected_table.rows(), "rows and row order");
            assert!(stats.same_data_access(&expected_stats));
            assert_eq!(stats.values_cloned, expected_stats.values_cloned);
        }

        // Three branches price at 30 > 25: rejected off the stored ticket, with the
        // ticket, before any constant is read into the plan.
        let placeholders: Vec<Value> = (0..3).map(Value::placeholder).collect();
        let big = session
            .prepare(&lookup_union_of("big", &placeholders))
            .unwrap();
        let before = session.admission_stats();
        match session.run_prepared(&big, [1, 2, 3].map(Value::int)) {
            Err(SubmitError::Rejected { ticket, rejection }) => {
                assert_eq!(*ticket, *big.ticket());
                assert_eq!(
                    rejection,
                    Rejection::FetchBound {
                        bound: 30,
                        budget: 25
                    }
                );
            }
            other => panic!("expected a fetch-bound rejection, got {other:?}"),
        }
        assert_eq!(session.admission_stats().rejected, before.rejected + 1);
        session.shutdown();
    }

    /// `run_prepared` of a two-placeholder template with `values`: refused as invalid
    /// with a message naming both counts, and no admission counter moved.
    fn assert_refused_with(values: &[Value]) {
        let session = Session::new(fixture(6), SessionConfig::new().with_threads(2));
        let template = lookup_union_of("Q", &[Value::placeholder(0), Value::placeholder(1)]);
        let prepared = session.prepare(&template).unwrap();
        assert_eq!(prepared.placeholders(), 2);
        let before = session.admission_stats();
        match session.run_prepared(&prepared, values) {
            Err(SubmitError::Invalid(error)) => {
                let expected = format!("takes 2 constants, {} were given", values.len());
                assert!(error.to_string().contains(&expected), "{error}");
            }
            other => panic!("{} values must be refused, got {other:?}", values.len()),
        }
        assert_eq!(
            session.admission_stats(),
            before,
            "admission saw the request"
        );
        // The same session serves the right count.
        let two = [Value::int(1), Value::int(2)];
        assert_eq!(
            session
                .run_prepared(&prepared, &two)
                .unwrap()
                .unwrap()
                .0
                .len(),
            4
        );
        session.shutdown();
    }

    #[test]
    fn too_few_constants_are_refused_before_admission() {
        assert_refused_with(&[]);
        assert_refused_with(&[Value::int(1)]);
    }

    #[test]
    fn surplus_constants_are_refused_before_admission() {
        assert_refused_with(&[1, 2, 3].map(Value::int));
    }

    #[test]
    fn concurrent_queries_match_solo_runs() {
        let idb = fixture(6);
        // Three independent pipelines each, so workers and callers share a query.
        let plans: Vec<QueryPlan> = (0..5)
            .map(|i| shared_fetches(&[("R", 0, 1 + i), ("R", 0, 2 + i), ("R", 0, 3 + i)]))
            .collect();
        assert!(plans
            .iter()
            .all(|plan| lower_plan(plan).unwrap().pipeline_dag().parallel_width() == 3));
        let session = Session::new(
            SharedStore::from(fixture(6)),
            SessionConfig::new().with_threads(4),
        );
        let handles: Vec<QueryHandle> = plans
            .iter()
            .map(|plan| session.submit(plan).unwrap())
            .collect();
        let solo_options = ExecOptions::new().with_threads(4);
        for (plan, handle) in plans.iter().zip(handles) {
            let (expected_table, expected_stats) =
                execute_plan_on(plan, &idb, &solo_options).unwrap();
            let (table, stats) = handle.wait().unwrap();
            assert_eq!(table.rows(), expected_table.rows(), "rows and row order");
            assert!(stats.same_data_access(&expected_stats));
            assert_eq!(stats.values_cloned, expected_stats.values_cloned);
            assert_eq!(stats.allocs_per_probe, expected_stats.allocs_per_probe);
        }
        let admission = session.admission_stats();
        assert_eq!(admission.submitted, 5);
        assert_eq!(admission.admitted, 5);
        assert_eq!(admission.completed, 5);
        assert_eq!(admission.rejected, 0);
        assert_eq!(admission.inflight_bound, 0);
        session.shutdown();
    }

    #[test]
    fn over_budget_queries_are_rejected_deterministically() {
        let session = Session::new(
            fixture(4),
            SessionConfig::new().with_threads(2).with_fetch_budget(25),
        );
        // Two branches: bound 20 ≤ 25 — admitted.
        let small = lookup_union("small", &[1, 2]);
        // Three branches: bound 30 > 25 — rejected, regardless of load.
        let big = lookup_union("big", &[1, 2, 3]);
        let handle = session.submit(&small).unwrap();
        let error = session.submit(&big).unwrap_err();
        match &error {
            SubmitError::Rejected { ticket, rejection } => {
                assert_eq!(ticket.fetch_bound, 30);
                assert_eq!(
                    rejection,
                    &Rejection::FetchBound {
                        bound: 30,
                        budget: 25
                    }
                );
            }
            other => panic!("expected a fetch-bound rejection, got {other}"),
        }
        assert!(error.to_string().contains("fetch bound 30"));
        handle.wait().unwrap();
        let admission = session.admission_stats();
        assert_eq!(admission.rejected, 1);
        assert_eq!(admission.admitted, 1);
        assert!(admission.peak_admitted_bound <= 25);
    }

    #[test]
    fn queued_queries_run_fifo_within_the_budget() {
        let session = Session::new(
            fixture(8),
            SessionConfig::new().with_threads(2).with_fetch_budget(30),
        );
        // Each query's bound is 20: only one fits at a time under budget 30. Hold 20
        // units the way an admitted query would, so none fits while they are submitted
        // and queueing does not depend on how fast a worker retires the first one.
        session.inner.pool.lock_state().admitted_bound = 20;
        let plans: Vec<QueryPlan> = (0..4)
            .map(|i| lookup_union(&format!("Q{i}"), &[1 + i, 2 + i]))
            .collect();
        let handles: Vec<QueryHandle> = plans
            .iter()
            .map(|plan| session.submit(plan).unwrap())
            .collect();
        assert!(
            handles.iter().all(QueryHandle::was_queued),
            "with 20 of 30 units held and bounds of 20, every submission must queue"
        );
        assert_eq!(session.admission_stats().queued, 4);
        assert_eq!(session.admission_stats().admitted, 0);
        // Release the hold exactly as a retiring query does: headroom, drain, wake.
        let admitted_jobs = {
            let mut state = session.inner.pool.lock_state();
            state.admitted_bound -= 20;
            drain_pending(&mut state, session.inner.pool.budget)
        };
        assert!(admitted_jobs > 0);
        session.inner.pool.wake_workers(admitted_jobs);
        for handle in handles {
            handle.wait().unwrap();
        }
        let admission = session.admission_stats();
        assert_eq!(admission.admitted, 4);
        assert_eq!(admission.completed, 4);
        assert!(
            admission.peak_admitted_bound <= 30,
            "the admitted aggregate bound {} must never exceed the budget",
            admission.peak_admitted_bound
        );
        session.shutdown();
    }

    #[test]
    fn a_failing_query_does_not_poison_its_neighbors() {
        let idb = fixture(4);
        let session = Session::new(fixture(4), SessionConfig::new().with_threads(2));
        // An invalid plan fails at submit (validation), not at wait.
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "x");
        let f = b.fetch(
            k,
            vec![0],
            "R",
            vec![0],
            vec![1],
            99,
            vec!["a".into(), "b".into()],
        );
        let bad = b.finish("bad", f).unwrap();
        assert!(matches!(session.submit(&bad), Err(SubmitError::Invalid(_))));
        // A healthy neighbor still runs to completion.
        let good = lookup_union("good", &[1, 2]);
        let (table, _) = session.submit(&good).unwrap().wait().unwrap();
        let (expected, _) =
            execute_plan_on(&good, &idb, &ExecOptions::new().with_threads(2)).unwrap();
        assert_eq!(table.rows(), expected.rows());
    }

    /// [`fixture`] plus a `PANIC_RELATION(a → b)` (constraint 1) whose fetches panic
    /// inside the operator.
    fn panicking_fixture(n: i64) -> IndexedDatabase {
        use crate::ops::PANIC_RELATION;
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare(PANIC_RELATION, ["a", "b"]).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 10).unwrap(),
            AccessConstraint::new(&c, PANIC_RELATION, &["a"], &["b"], 10).unwrap(),
        ]);
        let mut db = Database::new(c);
        db.extend(
            "R",
            (1..=n).flat_map(|k| {
                [
                    vec![Value::int(k), Value::int(10 * k)],
                    vec![Value::int(k), Value::int(10 * k + 1)],
                ]
            }),
        )
        .unwrap();
        db.extend(PANIC_RELATION, [vec![Value::int(1), Value::int(10)]])
            .unwrap();
        IndexedDatabase::build(db, schema).unwrap()
    }

    /// One keyed fetch over `PANIC_RELATION` (fetch bound 10): a single job, which
    /// panics.
    fn doomed_plan() -> QueryPlan {
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "k");
        let f = b.fetch(
            k,
            vec![0],
            crate::ops::PANIC_RELATION,
            vec![0],
            vec![1],
            1,
            vec!["a".into(), "b".into()],
        );
        b.finish("doomed", f).unwrap()
    }

    /// Run `body`, which must re-raise the injected operator panic.
    fn assert_reraises_the_injected_panic<T>(body: impl FnOnce() -> T) {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(body))
            .err()
            .expect("the injected panic must re-raise on the query's owner");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .map(str::to_owned)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            message.contains("injected operator panic"),
            "expected the injected payload, got {message:?}"
        );
    }

    /// Fail the test if `body` has not returned after a minute — a lost wake-up shows
    /// as a hang, which must not hang the suite.
    fn within_a_minute(body: impl FnOnce() + Send + 'static) {
        let (done, finished) = channel();
        let runner = std::thread::spawn(move || {
            body();
            let _ = done.send(());
        });
        match finished.recv_timeout(std::time::Duration::from_secs(60)) {
            Ok(()) => runner.join().unwrap(),
            // The body panicked before signalling: surface its assertion.
            Err(RecvTimeoutError::Disconnected) => resume_unwind(runner.join().unwrap_err()),
            Err(RecvTimeoutError::Timeout) => panic!("the session hung: a wake-up was lost"),
        }
    }

    #[test]
    fn a_panicking_query_fails_alone_and_reraises_on_wait() {
        let session = Session::new(panicking_fixture(1), SessionConfig::new().with_threads(2));
        let handle = session.submit(&doomed_plan()).unwrap();
        assert_reraises_the_injected_panic(|| handle.wait());
        // The pool survives: a healthy query still completes afterwards.
        let good = lookup_union("good", &[1]);
        session.submit(&good).unwrap().wait().unwrap();
        let admission = session.admission_stats();
        assert_eq!(admission.failed, 1);
        assert_eq!(admission.completed, 1);
    }

    #[test]
    fn a_query_panicking_on_its_callers_thread_reraises_there_only() {
        let session = Session::new(panicking_fixture(2), SessionConfig::new().with_threads(2));
        let doomed = doomed_plan();
        // `run` sends no wake-up for a one-job query, so its caller runs the job —
        // unless a worker that has not parked yet finds it first. Repeat until the
        // panic was raised on this thread; every attempt must isolate the failure.
        let mut attempts = 0;
        loop {
            attempts += 1;
            let before = session.admission_stats().jobs_run_by_callers;
            assert_reraises_the_injected_panic(|| session.run(&doomed));
            let admission = session.admission_stats();
            assert_eq!(admission.failed, attempts);
            assert_eq!(
                admission.inflight_bound, 0,
                "a failed query frees its bound"
            );
            if admission.jobs_run_by_callers > before {
                break;
            }
            assert!(attempts < 100, "the caller never ran its own job");
        }
        // The session keeps serving, on both entries.
        let good = lookup_union("good", &[1, 2]);
        let (_, ran) = session.run(&good).unwrap();
        let (waited, _) = session.submit(&good).unwrap().wait().unwrap();
        assert_eq!(ran.unwrap().0.rows(), waited.rows());
        let admission = session.admission_stats();
        assert_eq!((admission.failed, admission.completed), (attempts, 2));
        assert_eq!(admission.inflight_bound, 0);
        session.shutdown();
    }

    /// How many jobs `plan` is, read off a completed run's ticket.
    fn plan_jobs(session: &Session, plan: &QueryPlan) -> u64 {
        let (ticket, result) = session.run(plan).unwrap();
        result.unwrap();
        ticket.pipelines as u64
    }

    #[test]
    fn a_single_job_query_runs_on_its_callers_thread() {
        // A point lookup is a chain of width one: once the workers are parked, `run`
        // completes it without waking any of them.
        let session = Session::new(fixture(2), SessionConfig::new().with_threads(2));
        let plan = lookup_union("point", &[1]);
        let jobs = plan_jobs(&session, &plan);
        let mut attempts = 0;
        loop {
            attempts += 1;
            let before = session.admission_stats();
            session.run(&plan).unwrap().1.unwrap();
            let after = session.admission_stats();
            assert_eq!(
                (after.jobs_run_by_callers + after.jobs_run_by_workers)
                    - (before.jobs_run_by_callers + before.jobs_run_by_workers),
                jobs,
                "every job is counted once, by whoever ran it"
            );
            if after.jobs_run_by_callers - before.jobs_run_by_callers == jobs {
                break;
            }
            assert!(attempts < 100, "the caller never ran its whole query");
        }
        session.shutdown();
    }

    #[test]
    fn a_queued_query_is_finished_by_workers_while_its_caller_blocks_in_run() {
        within_a_minute(|| {
            let session = Session::new(
                fixture(4),
                SessionConfig::new().with_threads(2).with_fetch_budget(30),
            );
            let plan = lookup_union("queued", &[1, 2]);
            let (expected, _) = session.submit(&plan).unwrap().wait().unwrap();
            let jobs = plan_jobs(&session, &plan);
            assert_eq!(session.admission_stats().queued, 0);
            // The caller may still catch its query being admitted before it blocks,
            // and run it itself; repeat until workers did all of it.
            let mut attempts = 0;
            loop {
                attempts += 1;
                // Hold 20 of 30 units the way an admitted query would: a bound of 20
                // must queue.
                session.inner.pool.lock_state().admitted_bound += 20;
                let before = session.admission_stats();
                std::thread::scope(|scope| {
                    let caller = scope.spawn(|| session.run(&plan).unwrap().1.unwrap());
                    while session.admission_stats().queued == before.queued {
                        std::thread::yield_now();
                    }
                    // Release the hold exactly as a retiring query does.
                    let admitted_jobs = {
                        let mut state = session.inner.pool.lock_state();
                        state.admitted_bound -= 20;
                        drain_pending(&mut state, session.inner.pool.budget)
                    };
                    session.inner.pool.wake_workers(admitted_jobs);
                    let (table, _) = caller.join().unwrap();
                    assert_eq!(table.rows(), expected.rows());
                });
                let after = session.admission_stats();
                assert_eq!(after.inflight_bound, 0);
                if after.jobs_run_by_workers - before.jobs_run_by_workers == jobs {
                    break;
                }
                assert!(attempts < 100, "workers never ran the queued query");
            }
            session.shutdown();
        });
    }

    #[test]
    fn handles_waited_on_in_reverse_all_complete() {
        within_a_minute(|| {
            let session = Session::new(
                fixture(8),
                SessionConfig::new().with_threads(2).with_fetch_budget(45),
            );
            let plans: Vec<QueryPlan> = (0..6)
                .map(|i| lookup_union(&format!("Q{i}"), &[1 + i, 2 + i]))
                .collect();
            let handles: Vec<QueryHandle> = plans
                .iter()
                .map(|plan| session.submit(plan).unwrap())
                .collect();
            // Last submitted, first waited on: the waiter helps its own query only,
            // and the queued tail still gets in as the head retires.
            for handle in handles.into_iter().rev() {
                handle.wait().unwrap();
            }
            let admission = session.admission_stats();
            assert_eq!((admission.admitted, admission.completed), (6, 6));
            assert_eq!(admission.inflight_bound, 0);
            assert!(admission.peak_admitted_bound <= 45);
            session.shutdown();
        });
    }

    #[test]
    fn callers_and_workers_lose_no_wake_up_under_a_tight_budget() {
        within_a_minute(|| {
            // Bounds of 20 under a budget of 45: two queries run at a time, the rest
            // queue behind them, so callers keep blocking on workers and on each other.
            let session = Session::new(
                panicking_fixture(8),
                SessionConfig::new().with_threads(2).with_fetch_budget(45),
            );
            // One pipeline, or two independent ones (two shared fetches).
            let healthy: Vec<QueryPlan> = (0..4)
                .map(|i| match i % 2 {
                    0 => lookup_union(&format!("Q{i}"), &[1 + i, 2 + i]),
                    _ => shared_fetches(&[("R", 0, 1 + i), ("R", 0, 2 + i)]),
                })
                .collect();
            let over_budget = lookup_union("big", &[1, 2, 3, 4, 5]);
            let doomed = doomed_plan();
            std::thread::scope(|scope| {
                for caller in 0..8usize {
                    let (session, healthy, over_budget, doomed) =
                        (&session, &healthy, &over_budget, &doomed);
                    scope.spawn(move || {
                        let mut in_flight: Vec<QueryHandle> = Vec::new();
                        for i in 0..200usize {
                            let plan = &healthy[(caller + i) % healthy.len()];
                            match i % 10 {
                                // An asynchronous submission, collected two rounds on.
                                3 | 7 => in_flight.push(session.submit(plan).unwrap()),
                                5 if !in_flight.is_empty() => {
                                    in_flight.pop().unwrap().wait().unwrap();
                                }
                                8 => assert!(matches!(
                                    session.run(over_budget),
                                    Err(SubmitError::Rejected { .. })
                                )),
                                9 => assert_reraises_the_injected_panic(|| session.run(doomed)),
                                _ => {
                                    let (_, result) = session.run(plan).unwrap();
                                    assert_eq!(result.unwrap().0.len(), 4);
                                }
                            }
                        }
                        for handle in in_flight.into_iter().rev() {
                            handle.wait().unwrap();
                        }
                    });
                }
            });
            let admission = session.admission_stats();
            assert_eq!(admission.submitted, 8 * 200 - 8 * 20);
            assert_eq!(admission.submitted, admission.admitted + admission.rejected);
            assert_eq!(admission.completed + admission.failed, admission.admitted);
            assert_eq!((admission.rejected, admission.failed), (8 * 20, 8 * 20));
            assert_eq!(admission.inflight_bound, 0);
            assert!(admission.peak_admitted_bound <= 45);
            assert!(admission.jobs_run_by_callers > 0 && admission.jobs_run_by_workers > 0);

            // Dropping the session with queries in flight drains them and returns: the
            // shutdown broadcast reaches every parked worker.
            let in_flight: Vec<QueryHandle> = healthy
                .iter()
                .cycle()
                .take(12)
                .map(|plan| session.submit(plan).unwrap())
                .collect();
            drop(session);
            for handle in in_flight {
                assert_eq!(handle.wait().unwrap().0.len(), 4);
            }
        });
    }

    #[test]
    fn fetch_budget_env_values_are_validated() {
        assert_eq!(parse_fetch_budget("10000").unwrap(), Some(10_000));
        assert_eq!(parse_fetch_budget(" 5 ").unwrap(), Some(5));
        assert_eq!(parse_fetch_budget("0").unwrap(), None, "0 means unlimited");
        assert_eq!(parse_fetch_budget("").unwrap(), None, "empty means unset");
        assert!(parse_fetch_budget("lots").unwrap_err().contains("integer"));
        assert!(parse_fetch_budget("-3").is_err());
        // An explicit budget beats the environment.
        assert_eq!(
            SessionConfig::new()
                .with_fetch_budget(7)
                .resolved_fetch_budget(),
            Some(7)
        );
    }

    #[test]
    fn cache_rows_env_values_are_validated() {
        assert_eq!(parse_cache_rows("4096").unwrap(), Some(4096));
        assert_eq!(parse_cache_rows(" 12 ").unwrap(), Some(12));
        assert_eq!(parse_cache_rows("0").unwrap(), None, "0 means disabled");
        assert_eq!(parse_cache_rows("").unwrap(), None, "empty means unset");
        assert!(parse_cache_rows("plenty").unwrap_err().contains("integer"));
        assert!(parse_cache_rows("-1").is_err());
        // An explicit budget beats the environment.
        assert_eq!(
            SessionConfig::new()
                .with_cache_budget_rows(64)
                .resolved_cache_budget_rows(),
            Some(64)
        );
    }

    #[test]
    fn repeated_submissions_are_served_from_the_session_cache() {
        let idb = fixture(6);
        let session = Session::new(
            fixture(6),
            SessionConfig::new()
                .with_threads(2)
                .with_cache_budget_rows(4096),
        );
        let plan = lookup_union("repeat", &[1, 2, 3]);
        let (expected_table, expected_stats) =
            execute_plan_on(&plan, &idb, &ExecOptions::new().with_threads(2)).unwrap();

        // Cold run: fills the cache; every deterministic data-access counter is
        // identical to the uncached solo run.
        let (cold_table, cold_stats) = session.submit(&plan).unwrap().wait().unwrap();
        assert_eq!(cold_table.rows(), expected_table.rows());
        assert!(cold_stats.same_data_access(&expected_stats));
        assert_eq!(cold_stats.values_cloned, expected_stats.values_cloned);
        assert_eq!(cold_stats.allocs_per_probe, expected_stats.allocs_per_probe);

        // Warm runs: same rows and order, zero store fetches, zero probe-path
        // buffer demand — every posting comes off the session cache.
        for _ in 0..3 {
            let (warm_table, warm_stats) = session.submit(&plan).unwrap().wait().unwrap();
            assert_eq!(warm_table.rows(), expected_table.rows(), "rows and order");
            assert_eq!(warm_stats.tuples_fetched, 0, "no store fetches when warm");
            assert_eq!(warm_stats.index_lookups, 0);
            assert_eq!(
                warm_stats.allocs_per_probe, 0,
                "warm probes allocate nothing"
            );
            assert!(warm_stats.cache_hits > 0);
            assert_eq!(
                warm_stats.rows_served_from_cache, expected_stats.tuples_fetched,
                "every fetched posting row is served from the cache when warm"
            );
        }

        let cache = session.cache_stats();
        assert_eq!(cache.budget_rows, 4096);
        assert!(cache.hits >= 9, "3 warm runs x 3 keys, got {}", cache.hits);
        assert_eq!(cache.resident_rows, expected_stats.tuples_fetched);
        assert_eq!(cache.evictions, 0);
        session.shutdown();
    }

    #[test]
    fn a_disabled_cache_reports_zero_stats() {
        let session = Session::new(fixture(2), SessionConfig::new().with_threads(1));
        if std::env::var_os(CACHE_ROWS_ENV).is_none() {
            assert_eq!(session.cache_stats(), CacheStats::default());
        }
        let plan = lookup_union("solo", &[1, 2]);
        session.submit(&plan).unwrap().wait().unwrap();
    }
}
