//! One query's run: its operator tree, on the thread that asks.
//!
//! A lowered plan reads every step with one operator, so it is one tree of streaming
//! operators rooted at the output step. [`run`] is the only code that runs a query:
//! one [`ExecState`] (this thread's, warm from its last query), the query's own
//! [`ResidencyLedger`], the output's tree drained into the result, then the rows handed
//! over. Nothing here waits or spawns: a bounded query touches a small slice of the
//! data (Q0 fetches about 640 tuples), so there is nothing inside one worth splitting
//! across threads, and concurrency is across queries — the callers of a
//! [`crate::session::Session`], each on its own thread.
//!
//! A query runs a [`Prepared`] plan in place: the plan and its output labels are shared
//! by every run of a template, the run's own constants beside them. An error ends the
//! run; a panic unwinds through it, and every operator holding residency releases it
//! as it drops.

use super::batch::Batch;
use super::fetch::FetchStep;
use super::{build_op, BoxOp, ExecState, ResidencyLedger, RunCtx, SharedState};
use crate::stats::AccessStats;
use crate::table::Table;
use bea_core::error::Result;
use bea_core::plan::PhysicalPlan;
use bea_core::value::{Row, Value};
use bea_storage::Store;
use std::borrow::Cow;
use std::rc::Rc;
use std::sync::Arc;

/// A lowered plan and what every run derives from it alone, worked out once: a
/// session keeps one per prepared template, a solo run borrows its caller's plan.
#[derive(Debug)]
pub(crate) struct Prepared<'p> {
    pub(crate) plan: Cow<'p, PhysicalPlan>,
    /// [`PhysicalPlan::placeholders`].
    pub(crate) placeholders: usize,
    /// The output step's column labels, shared by every result table.
    labels: Arc<[String]>,
}

impl<'p> Prepared<'p> {
    /// `plan` (validated by the caller) with what its runs share.
    pub(crate) fn new(plan: Cow<'p, PhysicalPlan>) -> Self {
        Prepared {
            placeholders: plan.placeholders(),
            labels: plan.steps()[plan.output()].columns.as_slice().into(),
            plan,
        }
    }
}

/// Run `prepared` with `constants` (the values of its placeholders, by class) against
/// `store` on the calling thread: the output's operator tree drained, then the output
/// handed over. Returns the table, the run's counters and its residency ledger (drained
/// to zero by a completed run).
pub(crate) fn run(
    prepared: &Prepared<'_>,
    constants: &[Value],
    store: Store<'_>,
) -> Result<(Table, AccessStats, Rc<ResidencyLedger>)> {
    let plan = &*prepared.plan;
    let ledger = Rc::new(ResidencyLedger::default());
    let state = ExecState::claim(&ledger);
    let ctx = RunCtx {
        plan,
        constants,
        store,
        state: &state,
    };
    let outcome = build_op(ctx, plan.output())
        .and_then(|op| drain(op, &state))
        .map(|output| finish(prepared, output, &ledger, &mut state.borrow_mut()));
    ExecState::park(state);
    outcome.map(|(table, stats)| (table, stats, ledger))
}

/// Pull `op` to exhaustion, acquiring every emitted row against the ledger; the
/// nonempty batches and the row count. The operator tree is dropped before returning.
fn drain<'db>(mut op: BoxOp<'db>, state: &SharedState) -> Result<(Vec<Batch<'db>>, u64)> {
    let mut batches: Vec<Batch<'db>> = Vec::new();
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

/// A completed run's output and counters: settle the residency ledger for the drained
/// output, record the fetch tally, and transpose the batches to rows, counting the
/// transpose's clones. The emptied column buffers go to `exec`'s pool.
fn finish(
    prepared: &Prepared<'_>,
    (batches, output_rows): (Vec<Batch<'_>>, u64),
    ledger: &ResidencyLedger,
    exec: &mut ExecState,
) -> (Table, AccessStats) {
    let plan = &*prepared.plan;
    let mut stats = std::mem::take(&mut exec.stats);
    let fetch = |step| FetchStep::of(plan, step).expect("only fetches fetch");
    exec.fetched
        .drain_into(&mut stats, |step| fetch(step).relation);
    // The caller owns the output now; the executor's residency accounting is over.
    ledger.release(output_rows);
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
        let (batch_rows, clones) = batch.into_rows(|buffer| exec.pool.values.put(buffer));
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
        use crate::ops::tests::union_of_lookups_in;
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

        // A union of two lookups: a healthy one of R, whose rows are drained and
        // resident when the second one — a lookup of the injection relation whose
        // operator panics on its first pull — runs.
        let plan = union_of_lookups_in(&[("R", 0, 1), (PANIC_RELATION, 1, 1)]);
        let phys = lower_plan(&plan).unwrap();

        // The original payload must reach the caller, with nothing in its way: no
        // secondary panic from an operator or a drained batch the unwind drops.
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
        let healthy = lower_plan(&union_of_lookups_in(&[("R", 0, 1)])).unwrap();
        assert_eq!(execute_inner(&healthy, &idb).unwrap().0.len(), 1);
    }
}
