//! Multi-query execution sessions: many callers, one store, fetch-bound admission
//! control.
//!
//! A [`Session`] owns the store (behind an `Arc`) and the admission limits, and no
//! thread: every query runs start to finish on the thread that calls [`Session::run`],
//! [`Session::run_prepared`] or [`Session::submit`]. Concurrency is across queries —
//! one per calling thread, a `bead` connection say. The contract:
//!
//! * **Isolation** — every query executes against its own operator tree, residency
//!   ledger and [`AccessStats`]; what queries share is the store
//!   (immutable) and the fetch budget. A query's rows, row order and
//!   every deterministic access counter are *identical* to a solo
//!   [`crate::exec::execute_plan`] run of the same plan — it is the same code. Errors
//!   are per query, and a panicking operator unwinds through its own caller only
//!   ([`Session::submit`] keeps the payload for [`QueryHandle::wait`] to re-raise).
//! * **One way in** — a submission is two halves. [`Session::prepare`] is the
//!   value-free one: lower the plan, validate the lowered plan against the store, derive
//!   its [`CostTicket`]. None of that reads a constant's value and the store is
//!   immutable, so a [`PreparedPlan`] made from a template —
//!   [`bea_core::value::Value::placeholder`]s where the constants go — is good for
//!   every request of that shape: validation and pricing are paid per template, not
//!   per query.
//!   [`Session::run_prepared`] is the other half: the constant count checked,
//!   rejection checks on the stored ticket, admission, then the shared plan run in
//!   place — a request carries only its constants, and each operator reads its
//!   placeholders' values when it is built. [`Session::run`] and [`Session::submit`]
//!   are `prepare` followed by the same admission and run with the plan they just
//!   prepared and no constants, so there is no second path in.
//! * **Admission control** — every submission is priced by a [`CostTicket`] *before*
//!   it runs (the paper's bounded-evaluability guarantee: worst-case fetch volume is a
//!   static quantity). Against a configured aggregate fetch budget
//!   ([`SessionConfig::with_fetch_budget`]), a query whose own `fetch_bound` exceeds
//!   the budget is **rejected** deterministically — the same verdict at any load. A
//!   query that fits the budget but not the *remaining* headroom is **queued**: its
//!   caller blocks until the queries ahead of it have been admitted and enough headroom
//!   is free, in strict arrival order (FIFO — a big query at the front is never starved
//!   by small ones behind it). At every instant the sum of admitted queries' fetch
//!   bounds is at most the budget (observable as
//!   [`AdmissionStats::peak_admitted_bound`]), and a query's hold on it is released
//!   however the query ends: completed, failed or unwound.

use crate::ops::sched::{self, Prepared};
use crate::ops::validate_for;
use crate::stats::AccessStats;
use crate::table::Table;
use bea_core::error::{Error, Result};
use bea_core::plan::{lower_plan, CostTicket, QueryPlan};
use bea_core::value::Value;
use bea_storage::{IndexedDatabase, Store};
use std::borrow::Cow;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// A store a [`Session`] can own: an `Arc`-shared [`IndexedDatabase`]. Cloning shares
/// the store.
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

/// Options controlling a [`Session`]: the admission controller's limits.
/// `#[non_exhaustive]`, same pattern as [`crate::exec::ExecOptions`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct SessionConfig {
    /// Aggregate fetch budget: the ceiling on the sum of admitted queries' fetch
    /// bounds. `0` (the default) means unlimited.
    pub fetch_budget: u64,
}

impl SessionConfig {
    /// The default config: no admission limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Does nothing: a session owns no thread. Kept only for the benchmark harness.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Set the aggregate fetch budget (0 = unlimited).
    pub fn with_fetch_budget(mut self, budget: u64) -> Self {
        self.fetch_budget = budget;
        self
    }

    /// Does nothing: a session keeps no cache across queries. Kept only because the
    /// benchmark harness under `benchmark/` still passes its workloads' cache budget;
    /// ROADMAP direction 17 deletes it.
    pub fn with_cache_budget_rows(self, _rows: u64) -> Self {
        self
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
    /// The plan failed validation (a step read twice, a column out of range, a fetch the
    /// store cannot serve), or a run was given the wrong number of constants.
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
    /// Queries admitted (immediately or after queueing).
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
}

/// What [`Session::submit`] hands back: the accepted ticket and the outcome of the
/// run it made.
#[derive(Debug)]
pub struct QueryHandle {
    ticket: CostTicket,
    /// The run's result, or the payload of the panic that ended it.
    outcome: std::thread::Result<Result<(Table, AccessStats)>>,
}

impl QueryHandle {
    /// The priced ticket the admission controller accepted.
    pub fn ticket(&self) -> &CostTicket {
        &self.ticket
    }

    /// The query's table and access statistics — exactly what
    /// [`crate::exec::execute_plan`] returns for the same plan. A panic inside the
    /// query's operators is re-raised here.
    pub fn wait(self) -> Result<(Table, AccessStats)> {
        self.outcome
            .unwrap_or_else(|payload| resume_unwind(payload))
    }
}

/// A plan lowered, validated and priced for one [`Session`] — everything a
/// submission computes before it looks at the load, and what every run of it shares:
/// the lowered plan and its output labels. See [`Session::prepare`].
#[derive(Debug)]
pub struct PreparedPlan {
    prepared: Prepared<'static>,
    ticket: CostTicket,
}

impl PreparedPlan {
    /// The lowered plan, placeholders and all.
    pub fn plan(&self) -> &QueryPlan {
        &self.prepared.plan
    }

    /// What every run of this plan costs: the ticket admission judges it by.
    pub fn ticket(&self) -> &CostTicket {
        &self.ticket
    }

    /// How many constants a run takes ([`QueryPlan::placeholders`]) — exactly what
    /// [`Session::run_prepared`] must be given.
    pub fn placeholders(&self) -> usize {
        self.prepared.placeholders
    }
}

/// The fetch-budget gate every admitted query passes: one mutex, one condition
/// variable, strict FIFO.
struct Gate {
    /// The ceiling on the sum of admitted queries' fetch bounds (`None` = unlimited).
    budget: Option<u64>,
    state: Mutex<GateState>,
    /// Notified whenever headroom frees or the front of the queue moves.
    turn: Condvar,
}

#[derive(Default)]
struct GateState {
    /// The counters, `inflight_bound` (the admitted bounds' sum) among them.
    stats: AdmissionStats,
    /// The arrival numbers of the callers waiting for headroom, in arrival order.
    waiting: VecDeque<u64>,
    /// Arrival numbers handed out.
    arrivals: u64,
}

impl Gate {
    /// Take the gate's mutex. No code panics holding it; a poisoned guard is taken
    /// anyway.
    fn lock(&self) -> MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count a submission refused outright.
    fn reject(&self) {
        let mut state = self.lock();
        state.stats.submitted += 1;
        state.stats.rejected += 1;
    }

    /// Charge `bound` against the budget: at once when nobody is waiting and it fits
    /// the headroom, else after every caller that arrived earlier, once it fits.
    fn admit(&self, bound: u64) -> Admission<'_> {
        let fits = |stats: &AdmissionStats| {
            (self.budget).is_none_or(|budget| stats.inflight_bound + bound <= budget)
        };
        let mut state = self.lock();
        state.stats.submitted += 1;
        // Nothing overtakes a waiting caller, even where it would fit.
        let queued = !(state.waiting.is_empty() && fits(&state.stats));
        if queued {
            state.stats.queued += 1;
            let arrival = state.arrivals;
            state.arrivals += 1;
            state.waiting.push_back(arrival);
            while state.waiting.front() != Some(&arrival) || !fits(&state.stats) {
                state = self
                    .turn
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
            state.waiting.pop_front();
        }
        let stats = &mut state.stats;
        stats.admitted += 1;
        stats.inflight_bound += bound;
        stats.peak_admitted_bound = stats.peak_admitted_bound.max(stats.inflight_bound);
        // The caller now at the front may fit the headroom left.
        let next = !state.waiting.is_empty();
        drop(state);
        if next {
            self.turn.notify_all();
        }
        Admission {
            gate: self,
            bound,
            completed: false,
        }
    }
}

/// A query's hold on the fetch budget. Dropping it releases the hold and counts the
/// query completed if it was marked so, failed otherwise — so an error or an unwinding
/// panic releases it too.
struct Admission<'s> {
    gate: &'s Gate,
    bound: u64,
    completed: bool,
}

impl Drop for Admission<'_> {
    fn drop(&mut self) {
        let mut state = self.gate.lock();
        state.stats.inflight_bound -= self.bound;
        if self.completed {
            state.stats.completed += 1;
        } else {
            state.stats.failed += 1;
        }
        let waiting = !state.waiting.is_empty();
        drop(state);
        if waiting {
            self.gate.turn.notify_all();
        }
    }
}

/// A multi-query execution session. See the module docs for the contract.
pub struct Session {
    store: SharedStore,
    gate: Gate,
}

impl Session {
    /// Start a session over `store` with `config`'s admission settings.
    pub fn new(store: impl Into<SharedStore>, config: SessionConfig) -> Self {
        Session {
            store: store.into(),
            gate: Gate {
                budget: (config.fetch_budget > 0).then_some(config.fetch_budget),
                state: Mutex::default(),
                turn: Condvar::new(),
            },
        }
    }

    /// The session's effective aggregate fetch budget (`None` = unlimited).
    pub fn fetch_budget(&self) -> Option<u64> {
        self.gate.budget
    }

    /// The value-free half of a submission: lower `plan` exactly as
    /// [`crate::exec::execute_plan`] does (so a session run is the same lowered plan as
    /// a solo run; lowering fails only where [`QueryPlan::validate`] does), validate
    /// the result against the store (an unknown constraint, a relation other than its
    /// constraint's, a position out of range), and price it. None of
    /// the three looks at a constant's value, and the store is immutable, so one
    /// [`PreparedPlan`] serves every query that differs from `plan` only in its
    /// constants — prepare a template once ([`bea_core::value::Value::placeholder`]
    /// where the constants go) and hand each request's values to
    /// [`Session::run_prepared`].
    pub fn prepare(&self, plan: &QueryPlan) -> Result<PreparedPlan> {
        let store = self.store.store();
        let lowered = lower_plan(plan)?;
        validate_for(&lowered, store)?;
        let ticket = CostTicket::derive(plan, store.schema(), store.size(), &lowered);
        let prepared = Prepared::new(Cow::Owned(lowered));
        Ok(PreparedPlan { prepared, ticket })
    }

    /// [`Session::run`], its outcome — a panic's payload included — kept in a
    /// [`QueryHandle`]. Kept only for the benchmark harness.
    pub fn submit(&self, plan: &QueryPlan) -> std::result::Result<QueryHandle, SubmitError> {
        let prepared = self.prepare(plan).map_err(SubmitError::Invalid)?;
        let admission = self.admit(&prepared.ticket)?;
        let run = || self.execute(&prepared, &[], admission);
        let outcome = catch_unwind(AssertUnwindSafe(run));
        Ok(QueryHandle {
            ticket: prepared.ticket,
            outcome,
        })
    }

    /// [`Session::prepare`] `plan`, run it through admission control — a
    /// [`SubmitError`] when the plan is invalid or deterministically over budget; a
    /// wait, when the budget has no headroom for it yet — and run it on the calling
    /// thread. Returns the accepted ticket beside the execution result; a panic inside
    /// the query's operators unwinds from here.
    pub fn run(
        &self,
        plan: &QueryPlan,
    ) -> std::result::Result<(CostTicket, Result<(Table, AccessStats)>), SubmitError> {
        let prepared = self.prepare(plan).map_err(SubmitError::Invalid)?;
        let admission = self.admit(&prepared.ticket)?;
        let outcome = self.execute(&prepared, &[], admission);
        Ok((prepared.ticket, outcome))
    }

    /// [`Session::run`] for a plan prepared earlier: a request carries its constants,
    /// not a plan. The run shares the prepared plan, and its operators read each
    /// placeholder's value from `values` when they are built. Any count of values but
    /// [`PreparedPlan::placeholders`] is a [`SubmitError::Invalid`] naming both, before
    /// admission counts the request; the rejection checks read the stored ticket.
    pub fn run_prepared(
        &self,
        prepared: &PreparedPlan,
        values: &[Value],
    ) -> std::result::Result<Result<(Table, AccessStats)>, SubmitError> {
        let expected = prepared.placeholders();
        if values.len() != expected {
            return Err(SubmitError::Invalid(Error::invalid(format!(
                "the plan for {} takes {expected} constants, {} were given",
                prepared.ticket.query_name,
                values.len()
            ))));
        }
        let admission = self.admit(&prepared.ticket)?;
        Ok(self.execute(prepared, values, admission))
    }

    /// The one way in: the deterministic rejections — verdicts that depend only on the
    /// ticket and the configuration, never on current load — then the budget gate.
    fn admit(&self, ticket: &CostTicket) -> std::result::Result<Admission<'_>, SubmitError> {
        let over = self
            .gate
            .budget
            .filter(|&budget| ticket.fetch_bound > budget);
        if let Some(budget) = over {
            self.gate.reject();
            return Err(SubmitError::Rejected {
                ticket: Box::new(ticket.clone()),
                rejection: Rejection::FetchBound {
                    bound: ticket.fetch_bound,
                    budget,
                },
            });
        }
        Ok(self.gate.admit(ticket.fetch_bound))
    }

    /// Run `prepared` with `constants` on this thread, holding `admission` until the
    /// run has ended.
    fn execute(
        &self,
        prepared: &PreparedPlan,
        constants: &[Value],
        mut admission: Admission<'_>,
    ) -> Result<(Table, AccessStats)> {
        let ran = sched::run(&prepared.prepared, constants, self.store.store());
        admission.completed = ran.is_ok();
        ran.map(|(table, stats, _)| (table, stats))
    }

    /// A snapshot of the admission counters.
    pub fn admission_stats(&self) -> AdmissionStats {
        AdmissionStats {
            budget: self.gate.budget,
            ..self.gate.lock().stats
        }
    }

    /// Drop the session. Equivalent to dropping it, but explicit at call sites.
    pub fn shutdown(self) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{execute_plan, execute_plan_materialized};
    use crate::ops::tests::union_of_lookups_in;
    use bea_core::access::{AccessConstraint, AccessSchema};
    use bea_core::plan::PlanBuilder;
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
        let mut acc = lookup(&mut b, &keys[0]);
        for key in &keys[1..] {
            let next = lookup(&mut b, key);
            acc = b.union(acc, next);
        }
        b.finish(name, acc).unwrap()
    }

    /// The keyed join of `R`'s tuples under `key`: two steps.
    fn lookup(b: &mut PlanBuilder, key: &Value) -> usize {
        lookup_via(b, key, "R", 0)
    }

    /// The keyed join of `relation`'s tuples under `key` through constraint `constraint`.
    fn lookup_via(b: &mut PlanBuilder, key: &Value, relation: &str, constraint: usize) -> usize {
        let k = b.constant(key.clone(), "k");
        let labels = vec!["a".into(), "b".into()];
        b.keyed_join(
            k,
            vec![0],
            relation,
            vec![0],
            vec![1],
            constraint,
            labels,
            vec![],
        )
    }

    #[test]
    fn a_prepared_template_is_bound_per_run_and_judged_by_its_one_ticket() {
        let session = Session::new(fixture(6), SessionConfig::new().with_fetch_budget(25));
        let template = lookup_union_of("Q", &[Value::placeholder(0), Value::placeholder(1)]);
        let prepared = session.prepare(&template).unwrap();
        for keys in [[1, 2], [5, 3], [4, 4]] {
            let (ticket, expected) = session.run(&lookup_union("Q", &keys)).unwrap();
            let (expected_table, expected_stats) = expected.unwrap();
            assert_eq!(prepared.ticket(), &ticket, "pricing never reads a constant");
            let (table, stats) = session
                .run_prepared(&prepared, &keys.map(Value::int))
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
        match session.run_prepared(&big, &[1, 2, 3].map(Value::int)) {
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
        let session = Session::new(fixture(6), SessionConfig::new());
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
        // Three lookups each, every query on a thread of its own.
        let plans: Vec<QueryPlan> = (0..5)
            .map(|i| union_of_lookups_in(&[("R", 0, 1 + i), ("R", 0, 2 + i), ("R", 0, 3 + i)]))
            .collect();
        let session = Session::new(SharedStore::from(fixture(6)), SessionConfig::new());
        let served: Vec<(Table, AccessStats)> = std::thread::scope(|scope| {
            let callers: Vec<_> = (plans.iter())
                .map(|plan| scope.spawn(|| session.run(plan).unwrap().1.unwrap()))
                .collect();
            callers.into_iter().map(|c| c.join().unwrap()).collect()
        });
        for (plan, (table, stats)) in plans.iter().zip(served) {
            let (expected_table, expected_stats) = execute_plan(plan, &idb).unwrap();
            assert_eq!(table.rows(), expected_table.rows(), "rows and row order");
            assert!(stats.same_data_access(&expected_stats));
            assert_eq!(stats.values_cloned, expected_stats.values_cloned);
            assert_eq!(stats.allocs_per_probe, expected_stats.allocs_per_probe);
            assert_eq!(stats.peak_rows_resident, expected_stats.peak_rows_resident);
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
        let session = Session::new(fixture(4), SessionConfig::new().with_fetch_budget(25));
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
        within_a_minute(|| {
            let session = Session::new(fixture(8), SessionConfig::new().with_fetch_budget(30));
            // Each query's bound is 20: only one fits at a time under budget 30. Hold 20
            // units the way an admitted query does, so every caller queues.
            let hold = session.gate.admit(20);
            let plans: Vec<QueryPlan> = (0..4)
                .map(|i| lookup_union(&format!("Q{i}"), &[1 + i, 2 + i]))
                .collect();
            std::thread::scope(|scope| {
                let callers: Vec<_> = (plans.iter())
                    .map(|plan| scope.spawn(|| session.run(plan).unwrap().1.unwrap()))
                    .collect();
                while session.admission_stats().queued < 4 {
                    std::thread::yield_now();
                }
                assert_eq!(session.admission_stats().admitted, 1, "only the hold is in");
                drop(hold);
                for caller in callers {
                    assert_eq!(caller.join().unwrap().0.len(), 4);
                }
            });
            let admission = session.admission_stats();
            assert_eq!((admission.admitted, admission.queued), (5, 4));
            assert_eq!(
                (admission.completed, admission.failed),
                (4, 1),
                "the hold failed"
            );
            assert_eq!(admission.inflight_bound, 0);
            assert!(
                admission.peak_admitted_bound <= 30,
                "the admitted aggregate bound {} must never exceed the budget",
                admission.peak_admitted_bound
            );
        });
    }

    #[test]
    fn queued_callers_are_admitted_in_arrival_order() {
        within_a_minute(|| {
            // A budget of one caller's bound, held while four callers queue one by one.
            let session = Session::new(fixture(1), SessionConfig::new().with_fetch_budget(20));
            let hold = session.gate.admit(20);
            let order = Mutex::new(Vec::new());
            std::thread::scope(|scope| {
                for caller in 0..4 {
                    let (session, order) = (&session, &order);
                    scope.spawn(move || {
                        let admission = session.gate.admit(20);
                        order.lock().unwrap().push(caller);
                        drop(admission);
                    });
                    while session.admission_stats().queued <= caller {
                        std::thread::yield_now();
                    }
                }
                drop(hold);
            });
            assert_eq!(order.into_inner().unwrap(), [0, 1, 2, 3]);
            assert_eq!(session.admission_stats().inflight_bound, 0);
        });
    }

    #[test]
    fn invalid_fetches_are_refused_and_the_session_serves_on() {
        let idb = fixture(4);
        let session = Session::new(fixture(4), SessionConfig::new());
        // Through a constraint the schema lacks, and from `S` through constraint 0 on `R`.
        let invalid = |relation: &str, constraint: usize| {
            let mut b = PlanBuilder::new();
            let joined = lookup_via(&mut b, &Value::int(1), relation, constraint);
            b.finish("invalid", joined).unwrap()
        };
        let cases = [
            (
                invalid("R", 99),
                "via constraint 99, which the access schema does not contain",
            ),
            (
                invalid("S", 0),
                "fetches from S via constraint 0, which is on R",
            ),
        ];
        let good = lookup_union("good", &[1, 2]);
        let (expected, _) = execute_plan(&good, &idb).unwrap();
        for (plan, why) in &cases {
            let named = |error: Error| {
                let reason = error.to_string();
                assert!(reason.contains(why), "{reason}");
            };
            named(execute_plan(plan, &idb).unwrap_err());
            named(execute_plan_materialized(plan, &idb).unwrap_err());
            named(session.prepare(plan).unwrap_err());
            match session.run(plan) {
                Err(SubmitError::Invalid(error)) => named(error),
                other => panic!("{why}: run gave {other:?}"),
            }
            // The session serves on, its budget drained.
            let (table, _) = session.run(&good).unwrap().1.unwrap();
            assert_eq!(table.rows(), expected.rows());
            assert_eq!(session.admission_stats().inflight_bound, 0);
        }
        let admission = session.admission_stats();
        assert_eq!((admission.submitted, admission.completed), (2, 2));
    }

    #[test]
    fn a_failing_query_does_not_poison_its_neighbors() {
        let idb = fixture(4);
        let session = Session::new(fixture(4), SessionConfig::new());
        // An invalid plan fails at submit (validation), not at wait.
        let mut b = PlanBuilder::new();
        let f = lookup_via(&mut b, &Value::int(1), "R", 99);
        let bad = b.finish("bad", f).unwrap();
        assert!(matches!(session.submit(&bad), Err(SubmitError::Invalid(_))));
        // A healthy neighbor still runs to completion.
        let good = lookup_union("good", &[1, 2]);
        let (table, _) = session.submit(&good).unwrap().wait().unwrap();
        let (expected, _) = execute_plan(&good, &idb).unwrap();
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

    /// One keyed fetch over `PANIC_RELATION` (fetch bound 10), which panics.
    fn doomed_plan() -> QueryPlan {
        let mut b = PlanBuilder::new();
        let f = lookup_via(&mut b, &Value::int(1), crate::ops::PANIC_RELATION, 1);
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

    /// Fail the test if `body` has not returned after a minute — a lost wake-up or a
    /// hold never released shows as a hang, which must not hang the suite.
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
            Err(RecvTimeoutError::Timeout) => panic!("the session hung: a caller never got in"),
        }
    }

    #[test]
    fn a_panicking_query_fails_alone_and_reraises_on_wait() {
        let session = Session::new(panicking_fixture(1), SessionConfig::new());
        let handle = session.submit(&doomed_plan()).unwrap();
        assert_reraises_the_injected_panic(|| handle.wait());
        // The session survives: a healthy query still completes afterwards.
        let good = lookup_union("good", &[1]);
        session.submit(&good).unwrap().wait().unwrap();
        let admission = session.admission_stats();
        assert_eq!(admission.failed, 1);
        assert_eq!(admission.completed, 1);
    }

    #[test]
    fn a_query_panicking_on_its_callers_thread_reraises_there_only() {
        let session = Session::new(panicking_fixture(2), SessionConfig::new());
        let doomed = doomed_plan();
        std::thread::scope(|scope| {
            let healthy = scope.spawn(|| {
                let good = lookup_union("good", &[1, 2]);
                (0..20).all(|_| session.run(&good).unwrap().1.unwrap().0.len() == 4)
            });
            for _ in 0..20 {
                assert_reraises_the_injected_panic(|| session.run(&doomed));
            }
            assert!(healthy.join().unwrap(), "the neighbour's answers changed");
        });
        let admission = session.admission_stats();
        assert_eq!((admission.failed, admission.completed), (20, 20));
        assert_eq!(
            admission.inflight_bound, 0,
            "a failed query frees its bound"
        );
        session.shutdown();
    }

    #[test]
    fn a_panicking_query_releases_its_budget_however_it_was_entered() {
        within_a_minute(|| {
            // The budget is exactly one query's bound: a hold a panic left behind would
            // keep the next query queued for good.
            let session = Session::new(
                panicking_fixture(1),
                SessionConfig::new().with_fetch_budget(10),
            );
            let doomed = doomed_plan();
            let prepared = session.prepare(&doomed).unwrap();
            let good = lookup_union("good", &[1]);
            let entries: [&dyn Fn(); 3] = [
                &|| drop(session.run(&doomed)),
                &|| drop(session.run_prepared(&prepared, &[])),
                &|| drop(session.submit(&doomed).map(QueryHandle::wait)),
            ];
            for (failed, entry) in (1..).zip(entries) {
                assert_reraises_the_injected_panic(entry);
                let admission = session.admission_stats();
                assert_eq!(admission.inflight_bound, 0);
                assert_eq!(admission.failed, failed);
                let next = session.submit(&good).unwrap();
                let queued = session.admission_stats().queued;
                assert_eq!(queued, 0, "the next query waited for headroom");
                assert_eq!(next.wait().unwrap().0.len(), 2);
            }
        });
    }

    #[test]
    fn handles_waited_on_in_reverse_all_complete() {
        within_a_minute(|| {
            let session = Session::new(fixture(8), SessionConfig::new().with_fetch_budget(45));
            let plans: Vec<QueryPlan> = (0..6)
                .map(|i| lookup_union(&format!("Q{i}"), &[1 + i, 2 + i]))
                .collect();
            let handles: Vec<QueryHandle> = plans
                .iter()
                .map(|plan| session.submit(plan).unwrap())
                .collect();
            // Last submitted, first waited on: each handle holds its own outcome.
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
            // queue behind them, so callers keep blocking on each other.
            let session = Session::new(
                panicking_fixture(8),
                SessionConfig::new().with_fetch_budget(45),
            );
            let healthy: Vec<QueryPlan> = (0..4)
                .map(|i| lookup_union(&format!("Q{i}"), &[1 + i, 2 + i]))
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
                                // A submission, its handle collected two rounds on.
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

            // Handles outlive their session: each holds its own outcome.
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
    fn repeated_submissions_fetch_what_a_solo_run_fetches() {
        let idb = fixture(6);
        let plan = lookup_union("repeat", &[1, 2, 3]);
        let (expected_table, expected) = execute_plan(&plan, &idb).unwrap();
        // A cache budget is accepted and changes nothing: no query is served from an
        // earlier one's fetches.
        for config in [
            SessionConfig::new(),
            SessionConfig::new().with_cache_budget_rows(4096),
        ] {
            let session = Session::new(fixture(6), config);
            assert_eq!(session.fetch_budget(), None, "a zero budget is unlimited");
            for _ in 0..4 {
                let (table, stats) = session.submit(&plan).unwrap().wait().unwrap();
                assert_eq!(table.rows(), expected_table.rows(), "rows and order");
                assert!(stats.same_data_access(&expected), "{stats} vs {expected}");
                assert_eq!(stats.values_cloned, expected.values_cloned);
                assert_eq!(stats.allocs_per_probe, expected.allocs_per_probe);
                assert_eq!((stats.cache_hits, stats.rows_served_from_cache), (0, 0));
            }
        }
    }

    #[test]
    fn a_fetch_from_another_relation_than_its_constraints_is_refused() {
        // `R` by name, through constraint 0 on `S`: the store would fetch `S`'s tuples.
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("S", ["a", "b"]).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "S", &["a"], &["b"], 1).unwrap(),
            AccessConstraint::new(&c, "R", &["a"], &["b"], 1).unwrap(),
        ]);
        let mut db = Database::new(c);
        let row = |a, b| vec![Value::int(a), Value::int(b)];
        db.extend("R", [row(1, 10)]).unwrap();
        db.extend("S", [row(2, 20), row(1, 21)]).unwrap();
        let idb = IndexedDatabase::build(db, schema).unwrap();
        let mut b = PlanBuilder::new();
        let fetched = lookup_via(&mut b, &Value::int(1), "R", 0);
        let plan = b.finish("Q", fetched).unwrap();
        let refusal = execute_plan(&plan, &idb).unwrap_err().to_string();
        assert!(
            refusal.contains("from R via constraint 0, which is on S"),
            "{refusal}"
        );
        let session = Session::new(idb, SessionConfig::new());
        for _ in 0..2 {
            let refused = session.run(&plan).err();
            assert!(matches!(refused, Some(SubmitError::Invalid(_))));
        }
    }
}
