//! One query's run: its pipelines in step order, on the thread that asks.
//!
//! A lowered plan marks its pipeline breakers ([`bea_core::plan::PhysStep::materialize`]):
//! each one, with the streaming region feeding it, is a pipeline, and the
//! materialized results are what later pipelines scan. A step reads only earlier
//! steps, so running the materialization points in step order finds every scanned
//! result complete — and it is the lowest-residency order the plan was lowered for.
//! [`run`] is the only code that runs a query: one [`ExecState`] (this thread's,
//! warm from its last query) for all of its pipelines, the query's own
//! [`ResidencyLedger`] and materialization slots, then the output handed over as
//! rows. Nothing here waits or spawns: a bounded query touches a small slice of the
//! data (Q0 fetches about 640 tuples), so there is nothing inside one worth splitting
//! across threads, and concurrency is across queries — the callers of a
//! [`crate::session::Session`], each on its own thread.
//!
//! A query runs a [`Prepared`] plan in place: the plan and its pool cap are shared by
//! every run of a template, the run's own constants beside them. An error ends the
//! run at the failing pipeline; a panic unwinds through it, and every operator
//! holding residency releases it as it drops.

use super::fetch::FetchStep;
use super::{pool_cap_for, run_pipeline, ExecState, MatSlots, ResidencyLedger, RunCtx, SharedMat};
use crate::cache::SessionFetchCache;
use crate::stats::AccessStats;
use crate::table::Table;
use bea_core::error::Result;
use bea_core::plan::PhysicalPlan;
use bea_core::value::{Row, Value};
use bea_storage::Store;
use std::borrow::Cow;
use std::cell::OnceCell;
use std::rc::Rc;
use std::sync::Arc;

/// A lowered plan and what every run derives from it alone, worked out once: a
/// session keeps one per prepared template, a solo run borrows its caller's plan.
#[derive(Debug)]
pub(crate) struct Prepared<'p> {
    pub(crate) plan: Cow<'p, PhysicalPlan>,
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
            pool_cap: pool_cap_for(&plan),
            placeholders: plan.placeholders(),
            labels: plan.steps()[plan.output()].columns.as_slice().into(),
            plan,
        }
    }
}

/// Run `prepared` with `constants` (the values of its placeholders, by class) against
/// `store` on the calling thread, probing `cache` when there is one: every
/// materialization point in step order, then the output handed over. Returns the
/// table, the run's counters and its residency ledger (drained to zero by a completed
/// run).
pub(crate) fn run(
    prepared: &Prepared<'_>,
    constants: &[Value],
    store: Store<'_>,
    cache: Option<&Arc<SessionFetchCache>>,
) -> Result<(Table, AccessStats, Rc<ResidencyLedger>)> {
    let plan = &*prepared.plan;
    let ledger = Rc::new(ResidencyLedger::default());
    let state = ExecState::claim(&ledger, prepared.pool_cap, cache);
    let mats: Vec<OnceCell<SharedMat>> = (0..plan.len()).map(|_| OnceCell::new()).collect();
    let ctx = RunCtx {
        plan,
        constants,
        store,
        state: &state,
        mats: &mats,
    };
    let outcome = (0..plan.len())
        .filter(|&step| plan.steps()[step].materialize)
        .try_for_each(|sink| run_pipeline(ctx, sink))
        .map(|()| finish(prepared, &mats, &ledger, &mut state.borrow_mut()));
    drop(mats);
    ExecState::park(state);
    outcome.map(|(table, stats)| (table, stats, ledger))
}

/// A completed run's output and counters: take the output materialization, settle
/// the residency ledger, record the fetch tally, and transpose the batches to rows,
/// counting the transpose's clones. The emptied column buffers go to `exec`'s pool.
fn finish(
    prepared: &Prepared<'_>,
    mats: &MatSlots,
    ledger: &ResidencyLedger,
    exec: &mut ExecState,
) -> (Table, AccessStats) {
    let plan = &*prepared.plan;
    let mut stats = std::mem::take(&mut exec.stats);
    let fetch = |step| FetchStep::of(plan, step).expect("only fetches fetch");
    exec.fetched
        .drain_into(&mut stats, |step| fetch(step).relation);
    let output = mats[plan.output()]
        .get()
        .expect("lowering marks the output step as a materialization point");
    let mut output = output.borrow_mut();
    let batches = (output.batches.take()).expect("the output's virtual consumer is the caller");
    // The caller owns the output now; the executor's residency accounting is over.
    ledger.release(output.rows);
    stats.peak_rows_resident = ledger.peak();
    debug_assert_eq!(
        ledger.resident(),
        0,
        "a query's residency ledger must drain back to zero when it completes"
    );
    // Hand the result over as rows. Output batches are usually uniquely owned dense
    // columns, so the transpose moves the values; any clones it does perform count.
    let mut rows: Vec<Row> = Vec::new();
    for batch in batches {
        let (batch_rows, clones) = batch.into_rows(|buffer| exec.pool.put_values(buffer));
        stats.values_cloned += clones;
        if rows.is_empty() {
            rows = batch_rows;
        } else {
            rows.extend(batch_rows);
        }
    }
    (
        Table::with_labels(Arc::clone(&prepared.labels), rows),
        stats,
    )
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

        // Two independent pipelines ahead of the output: a healthy fetch of R, whose
        // materialization is resident when the second one — a fetch of the injection
        // relation whose operator panics on its first pull — runs.
        let plan = shared_fetches(&[("R", 0, 1), (PANIC_RELATION, 1, 1)]);
        let phys = lower_plan(&plan).unwrap();
        assert_eq!(phys.materialization_points(), 3, "\n{phys}");

        // The original payload must reach the caller, with nothing in its way: no
        // secondary panic from a materialization the unwind drops, no thread left
        // waiting for a pipeline that never completes.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| execute_inner(&phys, &idb)));
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
        // The thread goes on serving.
        let healthy = lower_plan(&shared_fetches(&[("R", 0, 1)])).unwrap();
        assert_eq!(execute_inner(&healthy, &idb).unwrap().0.len(), 1);
    }

    #[test]
    fn a_lone_caller_runs_its_pipelines_in_step_order() {
        // This plan's pipelines are 0, 1←0, 2, 3←{1, 2}: pipeline 2 could run before 1,
        // but running them in step order — 0, 1, 2, 3, the order the plan was lowered
        // for — is observable as the peak.
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
        assert_eq!(phys.materialization_points(), 4, "\n{phys}");

        let (table, stats, ledger) = execute_inner(&phys, &idb).unwrap();
        assert!(table.is_empty());
        assert_eq!(ledger.resident(), 0);
        // Step order peaks inside pipeline 1 at 2 · 4 rows, with nothing else resident
        // (pipeline 0 never holds more than its key and its four output rows, pipeline
        // 3 a handful of single rows). Running pipeline 2 before 1 would run pipeline 1
        // with pipeline 2's row resident: 9.
        assert_eq!(stats.peak_rows_resident, 8);
    }
}
