//! The streaming batch pipeline executing lowered plans.
//!
//! [`crate::exec::execute_physical_on`] runs a [`QueryPlan`] lowered by
//! [`bea_core::plan::lower_plan`] against a [`Store`] as one tree of pull-based
//! operators, each implementing `Operator::next_batch`. Rows move through the tree in
//! bounded **columnar** batches (`batch::Batch`), whose columns hold values or point
//! into the store (tuple offsets): project is column-permutation metadata, a keyed
//! lookup emits what it fetched as offsets, and a value is cloned only into state that
//! must own it — a lookup's memo keys, δ's seen set, a value column a lookup takes, a
//! constant append and the output table; every such write is an O(1) clone (interned
//! string payloads; see the `batch` module). Lowering
//! reads every step with one operator, so the tree has one node per step, and only the
//! output is materialized: `sched::run` drains it into the result table. Per-key fetch
//! arenas (tuple offsets) and dedup sets are operator-internal state, released when the operator is
//! exhausted — or when it is dropped undrained (every operator holding durable state
//! implements `Drop`), so a short-circuiting or failing consumer can never leak
//! residency. A constant append holds nothing: it writes each batch it pulls.
//!
//! # One query, one thread
//!
//! A query runs start to finish on the thread that asks for it. Operators are
//! single-threaded and `Rc`-based: nothing of a query crosses threads. A bounded query
//! is small (Q0 fetches about 640 tuples), so splitting one would cost more
//! coordination than it saves; threads pay across queries, which a
//! [`crate::session::Session`] admits side by side from its callers' threads.
//!
//! Residency is accounted in the query's `ResidencyLedger`: every durable row
//! acquisition and release goes through it, so
//! [`crate::stats::AccessStats::peak_rows_resident`] is the number of rows the query
//! held at once. Data access (index lookups, tuples fetched, per-relation counters) is
//! a function of the plan and the store alone, so a bounded plan stays bounded
//! whoever runs it.
//!
//! Operator catalogue: `source` (constants, unit, empty), `fetch` (the keyed lookup,
//! the one operator that reads the index) and `relational` (project, dedup, union,
//! constant append).

pub(crate) mod batch;
pub(crate) mod fetch;
pub(crate) mod relational;
pub(crate) mod sched;
pub(crate) mod source;

use crate::stats::{AccessStats, FetchTally};
use crate::table::Table;
use batch::Batch;
use bea_core::error::{Error, Result};
use bea_core::plan::{PlanOp, Predicate, QueryPlan};
use bea_core::value::Value;
use bea_storage::Store;
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::rc::Rc;

/// Rows per pulled batch. Large enough to amortize dispatch, small enough that batch
/// buffers stay negligible next to any real intermediate result.
pub(crate) const BATCH_SIZE: usize = 1024;

/// Relation name that makes a keyed lookup panic on its first pull — the
/// panic injection hook for the panic-safety tests (test builds only; release
/// builds carry no such check).
#[cfg(test)]
pub(crate) const PANIC_RELATION: &str = "__panic__";

/// A residency ledger: a resident-row counter plus its high-water mark, one per
/// query, on the thread that runs it.
#[derive(Debug, Default)]
pub(crate) struct ResidencyLedger {
    resident: Cell<u64>,
    peak: Cell<u64>,
}

impl ResidencyLedger {
    /// Record `rows` newly held by a durable structure and update the high-water mark.
    pub(crate) fn acquire(&self, rows: u64) {
        let now = self.resident.get() + rows;
        self.resident.set(now);
        self.peak.set(self.peak.get().max(now));
    }

    /// Record `rows` released by a durable structure.
    pub(crate) fn release(&self, rows: u64) {
        self.resident.set(self.resident.get() - rows);
    }

    /// The high-water mark of concurrently resident rows.
    pub(crate) fn peak(&self) -> u64 {
        self.peak.get()
    }

    /// Rows currently resident (zero after a fully drained execution).
    pub(crate) fn resident(&self) -> u64 {
        self.resident.get()
    }
}

/// Freelists of cleared executor buffers, recycled across probes — and across the
/// queries one thread runs — so the steady-state anchored serving loop stops asking the
/// allocator for anything.
///
/// The contract: a pooled buffer is always *empty* (cleared as it is put back), so the
/// pool holds capacity, never rows — the [`ResidencyLedger`]'s drained-to-zero assertion
/// is unaffected by pooling. Operators draw per-batch value columns (a lookup's taken
/// source column, a constant), their row tables' columns and a keyed lookup's staging
/// offsets from here, and hand uniquely-owned buffers back on teardown (exhausted or
/// dropped lookups, exhausted δ sets, and the output columns a finished query was
/// transposed out of); buffers shared downstream simply stay with their owners. The
/// pool lives on [`ExecState`], which a thread keeps between its queries
/// ([`ExecState::park`]). Each freelist holds at most [`BufferPool::RETAINED`] buffers,
/// while a query runs and between queries, and between queries none longer than
/// [`BufferPool::RETAINED_LEN`], so one large query cannot pin memory on a connection
/// thread.
#[derive(Debug, Default)]
pub(crate) struct BufferPool {
    pub(crate) values: Freelist<Value>,
    pub(crate) offsets: Freelist<u32>,
}

impl BufferPool {
    /// The cap of each freelist, while a query runs and between queries.
    pub(crate) const RETAINED: usize = 64;
    /// The longest buffer a thread keeps between queries: a batch's worth.
    pub(crate) const RETAINED_LEN: usize = BATCH_SIZE;
}

/// One of [`BufferPool`]'s freelists.
#[derive(Debug)]
pub(crate) struct Freelist<T>(Vec<Vec<T>>);

impl<T> Default for Freelist<T> {
    fn default() -> Self {
        Self(Vec::new())
    }
}

impl<T> Freelist<T> {
    /// A cleared buffer — recycled capacity when available, fresh otherwise.
    pub(crate) fn get(&mut self) -> Vec<T> {
        self.0.pop().unwrap_or_default()
    }

    /// Return a buffer (cleared; dropped if the list is full or the buffer never grew
    /// any capacity worth keeping).
    pub(crate) fn put(&mut self, mut buffer: Vec<T>) {
        buffer.clear();
        if buffer.capacity() > 0 && self.0.len() < BufferPool::RETAINED {
            self.0.push(buffer);
        }
    }
}

/// Mutable state of the query a thread is running: its access statistics and fetch
/// counts, a handle to the query's [`ResidencyLedger`], and the thread's
/// [`BufferPool`]. Residency peaks come from the ledger. The state is per thread on
/// purpose — buffers never cross threads — and outlives the query: the thread's next
/// query reuses it ([`ExecState::claim`], [`ExecState::park`]).
#[derive(Debug)]
pub(crate) struct ExecState {
    /// Access statistics accumulated by the query's operators.
    pub stats: AccessStats,
    /// Tuples fetched per step by the query's operators.
    pub(crate) fetched: FetchTally,
    /// Recycled buffers; see [`BufferPool`].
    pub(crate) pool: BufferPool,
    ledger: Rc<ResidencyLedger>,
}

thread_local! {
    /// The state this thread's last query left behind, its pool warm for the next.
    static PARKED: Cell<Option<SharedState>> = const { Cell::new(None) };
}

impl ExecState {
    /// A state with an empty pool.
    pub(crate) fn new(ledger: Rc<ResidencyLedger>) -> Self {
        Self {
            stats: AccessStats::default(),
            fetched: FetchTally::default(),
            pool: BufferPool::default(),
            ledger,
        }
    }

    /// The state for a query on this thread — the one its last query parked, else a
    /// fresh one — accounting against `ledger`.
    pub(crate) fn claim(ledger: &Rc<ResidencyLedger>) -> SharedState {
        let state = PARKED
            .take()
            .unwrap_or_else(|| Rc::new(RefCell::new(Self::new(Rc::clone(ledger)))));
        state.borrow_mut().ledger = Rc::clone(ledger);
        state
    }

    /// Keep `state` for this thread's next query once the query's operators are gone:
    /// its leftover counters (a failed query's) are dropped, and its
    /// pool keeps what a thread may hold between queries.
    pub(crate) fn park(state: SharedState) {
        if Rc::strong_count(&state) > 1 {
            return;
        }
        let mut exec = state.borrow_mut();
        exec.stats = AccessStats::default();
        exec.fetched.clear();
        let (pool, fits) = (&mut exec.pool, |len| len <= BufferPool::RETAINED_LEN);
        pool.values.0.retain(|buffer| fits(buffer.capacity()));
        pool.offsets.0.retain(|buffer| fits(buffer.capacity()));
        drop(exec);
        PARKED.set(Some(state));
    }

    /// Record `rows` newly held by a durable structure (the output, a lookup's arena, a
    /// dedup set) against the query's ledger.
    pub fn acquire(&mut self, rows: u64) {
        self.ledger.acquire(rows);
    }

    /// Record `rows` released by a durable structure.
    pub fn release(&mut self, rows: u64) {
        self.ledger.release(rows);
    }
}

/// Handle to the execution state. `Rc` on purpose: a query is built, run and dropped
/// on one thread.
pub(crate) type SharedState = Rc<RefCell<ExecState>>;

/// A pull-based streaming operator over columnar [`Batch`]es.
///
/// Contract: `next_batch` returns `Ok(Some(batch))` (possibly empty) while rows may
/// remain and `Ok(None)` once exhausted, forever after. Operators release their durable
/// state when they report exhaustion. Consumers are *not* required to drain their
/// inputs: an operator may be dropped mid-stream (short-circuits, errors), so every
/// operator holding durable state also releases it on `Drop` — residency accounting
/// must return to zero however an execution ends.
///
/// A batch borrows the store for `'db`: its columns may point into the store's
/// relations rather than hold values (see the `batch` module).
pub(crate) trait Operator<'db> {
    /// Pull the next batch of rows.
    fn next_batch(&mut self) -> Result<Option<Batch<'db>>>;
}

/// Boxed operator borrowing the database for `'db`.
pub(crate) type BoxOp<'db> = Box<dyn Operator<'db> + 'db>;

/// Validate a plan against the store it is about to run on, so a malformed plan fails
/// *before* execution starts instead of panicking mid-run: [`QueryPlan::validate`]
/// checks step wiring, arities and predicate column bounds, and every keyed join's
/// backing constraint must exist in the access schema, be on the step's relation (the
/// store fetches through the constraint's index, so from the constraint's relation) and
/// agree with the key arity, and its positions may only name attributes the relation
/// has. The one check of both executors, the streaming one and the materialized
/// reference, so the two can never drift on what counts as a malformed plan.
pub(crate) fn validate_for(plan: &QueryPlan, store: Store<'_>) -> Result<()> {
    plan.validate()?;
    for fetch in (0..plan.len()).filter_map(|step| fetch::FetchStep::of(plan, step)) {
        let (step, relation, constraint_index) =
            (fetch.step, fetch.relation, fetch.constraint_index);
        let constraint = store.schema().constraint(constraint_index).ok_or_else(|| {
            Error::MissingConstraint {
                reason: format!(
                    "step T{step} fetches via constraint {constraint_index}, which the \
                     access schema does not contain"
                ),
            }
        })?;
        let invalid = |reason: String| Err(Error::InvalidPlan { reason });
        if constraint.relation() != relation {
            return invalid(format!(
                "step T{step} fetches from {relation} via constraint {constraint_index}, \
                 which is on {}",
                constraint.relation()
            ));
        }
        if fetch.key_cols.len() != constraint.x().len() {
            return invalid(format!(
                "step T{step} probes constraint {constraint_index} with {} key columns; \
                 the constraint's key has {}",
                fetch.key_cols.len(),
                constraint.x().len()
            ));
        }
        let arity = store.database().catalog().relation(relation)?.arity();
        if fetch.positions.iter().any(|&position| position >= arity) {
            return invalid(format!(
                "step T{step} projects attribute positions out of range for {relation} \
                 (arity {arity})"
            ));
        }
    }
    Ok(())
}

/// Execute a lowered plan on the calling thread, returning the output table and the
/// access/residency statistics.
pub(crate) fn execute(plan: &QueryPlan, store: Store<'_>) -> Result<(Table, AccessStats)> {
    let (table, stats, _ledger) = execute_inner(plan, store)?;
    Ok((table, stats))
}

/// [`execute`], additionally returning the residency ledger so tests can assert that
/// accounting drained back to zero.
pub(crate) fn execute_inner(
    plan: &QueryPlan,
    store: Store<'_>,
) -> Result<(Table, AccessStats, Rc<ResidencyLedger>)> {
    validate_for(plan, store)?;
    sched::run(&sched::Prepared::new(Cow::Borrowed(plan)), &[], store)
}

/// What the operators of one query are built from, all of it outliving the operator
/// tree: the plan, the constants of the run, the store and the query's state.
/// Operators borrow their step's fields from the plan rather than copying them, and
/// read a placeholder's value from the constants when they are built
/// ([`bea_core::value::Value::bound`]), so one plan serves every run of its template
/// without being copied.
#[derive(Clone, Copy)]
pub(crate) struct RunCtx<'a> {
    pub(crate) plan: &'a QueryPlan,
    pub(crate) constants: &'a [Value],
    pub(crate) store: Store<'a>,
    pub(crate) state: &'a SharedState,
}

/// `predicates` as a run given `constants` reads them: borrowed from the plan, unless
/// one compares with a placeholder the run supplies — then a copy with the value in.
fn bound_predicates<'a>(predicates: &'a [Predicate], constants: &[Value]) -> Cow<'a, [Predicate]> {
    let bound = |predicate: &Predicate| match predicate {
        Predicate::ColEqConst(c, value) => {
            Predicate::ColEqConst(*c, value.bound(constants).clone())
        }
        other => other.clone(),
    };
    let open = |predicate: &Predicate| matches!(predicate, Predicate::ColEqConst(_, value) if value.bound(constants) != value);
    if predicates.iter().any(open) {
        Cow::Owned(predicates.iter().map(bound).collect())
    } else {
        Cow::Borrowed(predicates)
    }
}

/// Build the operator tree of step `node`, its inputs' trees included.
pub(crate) fn build_op<'a>(ctx: RunCtx<'a>, node: usize) -> Result<BoxOp<'a>> {
    let RunCtx {
        plan,
        constants,
        store,
        state,
    } = ctx;
    let input = |j: usize| build_op(ctx, j);
    // A keyed lookup keeps a memo only where its source can repeat a key.
    let lookup = |step: usize, out_cols: Option<&'a [usize]>| -> Result<BoxOp<'a>> {
        let PlanOp::KeyedJoin {
            source,
            key_cols,
            residual,
            ..
        } = &plan.steps()[step].op
        else {
            unreachable!("a lookup is built from a keyed-join step");
        };
        let op = fetch::KeyedLookupOp::new(
            input(*source)?,
            fetch::FetchStep::of(plan, step).expect("a keyed lookup fetches"),
            bound_predicates(residual, constants),
            out_cols,
            store,
            state.clone(),
        )?
        .distinct_keys(plan.keys_distinct(*source, key_cols));
        Ok(Box::new(op))
    };
    let op: BoxOp<'a> = match &plan.steps()[node].op {
        PlanOp::Const { value } => Box::new(source::SingletonOp::new(vec![value
            .bound(constants)
            .clone()])),
        PlanOp::Unit => Box::new(source::SingletonOp::new(Vec::new())),
        PlanOp::Empty { .. } => Box::new(source::EmptyOp),
        PlanOp::KeyedJoin { .. } => lookup(node, None)?,
        PlanOp::Project { source, cols } => {
            // Fusion: a projection whose input is a keyed lookup (its one reader)
            // becomes the lookup's emission column set, so columns the projection would
            // drop are never built at all.
            //
            // Deliberately an operator-tree concern, not a lowering rule: which
            // columns get *physically built* is a property of this executor's
            // columnar batches (the materialized reference, plan validation and
            // costing all reason about the unfused steps, and must keep doing
            // so). If the fused pattern is broken by a future
            // lowering change, execution falls back to the explicit ProjectOp —
            // slower, never wrong.
            if matches!(plan.steps()[*source].op, PlanOp::KeyedJoin { .. }) {
                return lookup(*source, Some(cols));
            }
            Box::new(relational::ProjectOp::new(input(*source)?, cols))
        }
        PlanOp::Dedup { source } => Box::new(relational::DedupOp::new(
            input(*source)?,
            plan.steps()[node].columns.len(),
            state.clone(),
        )),
        PlanOp::AppendConst { source, value } => Box::new(relational::AppendConstOp::new(
            input(*source)?,
            value.bound(constants).clone(),
            state.clone(),
        )),
        PlanOp::Union { left, right } => {
            Box::new(relational::UnionOp::new(input(*left)?, input(*right)?))
        }
    };
    Ok(op)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::exec::{execute_plan, execute_plan_materialized};
    use bea_core::access::{AccessConstraint, AccessSchema};
    use bea_core::plan::{lower_plan, NodeId, PlanBuilder, QueryPlan};
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

    /// A union of independent keyed-lookup branches of `R` anchored at `keys`.
    fn union_of_lookups(keys: &[i64]) -> QueryPlan {
        let fetches: Vec<_> = keys.iter().map(|&key| ("R", 0, key)).collect();
        union_of_lookups_in(&fetches)
    }

    /// `f₁ ∪ … ∪ fₙ`, where `fᵢ` is the keyed join `σ[k = a]({key} × fetch(a ∈ {key},
    /// relation, b))` through constraint `constraint`, for each `(relation, constraint,
    /// key)` of `fetches`.
    pub(crate) fn union_of_lookups_in(fetches: &[(&str, usize, i64)]) -> QueryPlan {
        let mut b = PlanBuilder::new();
        let branches: Vec<NodeId> = fetches
            .iter()
            .map(|&(relation, constraint, key)| {
                let k = b.constant(Value::int(key), "k");
                let columns = vec!["a".into(), "b".into()];
                b.keyed_join(
                    k,
                    vec![0],
                    relation,
                    vec![0],
                    vec![1],
                    constraint,
                    columns,
                    vec![],
                )
            })
            .collect();
        let out = (branches[1..].iter()).fold(branches[0], |acc, &branch| b.union(acc, branch));
        b.finish("Q", out).unwrap()
    }

    /// `π[cols](lookup(key) × {5})`, where `lookup(key)` is the keyed join of `R`'s
    /// tuples under `key`, columns `[k, a, b]`.
    fn lookup_with_a_constant(key: i64, cols: Vec<usize>) -> QueryPlan {
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(key), "k");
        let columns = vec!["a".into(), "b".into()];
        let lookup = b.keyed_join(k, vec![0], "R", vec![0], vec![1], 0, columns, vec![]);
        let appended = b.append_const(lookup, Value::int(5), "c");
        let out = b.project(appended, cols);
        b.finish("Q", out).unwrap()
    }

    #[test]
    fn empty_build_side_still_releases_all_residency() {
        // Under the append, the lookup finds no tuple for key 99, and two for key 1,
        // which it holds in its arena while they stream: residency drains either way.
        let idb = setup();
        let five = Value::int(5);
        let row = |b: i64| vec![Value::int(1), Value::int(1), Value::int(b), five.clone()];
        for (key, rows) in [(99, Vec::new()), (1, vec![row(10), row(11)])] {
            let phys = lower_plan(&lookup_with_a_constant(key, vec![0, 1, 2, 3])).unwrap();
            assert!(phys
                .steps()
                .iter()
                .any(|s| matches!(s.op, PlanOp::AppendConst { .. })));
            let (table, stats, ledger) = execute_inner(&phys, &idb).unwrap();
            assert_eq!(table.rows(), rows);
            assert_eq!(stats.tuples_fetched, rows.len() as u64);
            assert_eq!(stats.product_rows_materialized, 0, "no product runs");
            assert_eq!(ledger.resident(), 0, "key {key} leaked residency");
        }
    }

    #[test]
    fn empty_build_side_keeps_batch_arity_for_downstream_projections() {
        // A projection of the appended column over a lookup of a key with no tuple: no
        // batch narrower than the append's arity may reach it.
        let idb = setup();
        let plan = lookup_with_a_constant(99, vec![3, 0]);
        let phys = lower_plan(&plan).unwrap();
        let (table, _, ledger) = execute_inner(&phys, &idb).unwrap();
        let (reference, _) = execute_plan_materialized(&plan, &idb).unwrap();
        assert!(table.is_empty() && reference.is_empty());
        assert_eq!(table.arity(), 2);
        assert_eq!(ledger.resident(), 0);
    }

    #[test]
    fn malformed_fetch_positions_fail_at_plan_time_not_mid_execution() {
        // y-attribute 5 does not exist in R(a, b): both executors must return a plan
        // error before touching any data instead of panicking on `tuple[5]`.
        let idb = setup();
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "k");
        let labels = vec!["a".into(), "oob".into()];
        let f = b.keyed_join(k, vec![0], "R", vec![0], vec![5], 0, labels, vec![]);
        let plan = b.finish("Q", f).unwrap();
        assert!(execute_plan(&plan, &idb).is_err());
        assert!(execute_plan_materialized(&plan, &idb).is_err());
    }

    #[test]
    fn unknown_constraint_and_key_arity_fail_at_plan_time() {
        let idb = setup();
        // Constraint index 7 does not exist.
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "k");
        let labels = vec!["a".into(), "b".into()];
        let f = b.keyed_join(k, vec![0], "R", vec![0], vec![1], 7, labels, vec![]);
        let plan = b.finish("Q", f).unwrap();
        assert!(execute_plan(&plan, &idb).is_err());
        assert!(execute_plan_materialized(&plan, &idb).is_err());

        // Two key columns probe a one-column constraint key.
        let mut b = PlanBuilder::new();
        let x = b.constant(Value::int(1), "x");
        let p = b.append_const(x, Value::int(2), "y");
        let labels = vec!["a".into(), "b".into()];
        let f = b.keyed_join(p, vec![0, 1], "R", vec![0, 1], vec![], 0, labels, vec![]);
        let plan = b.finish("Q", f).unwrap();
        assert!(execute_plan(&plan, &idb).is_err());
        assert!(execute_plan_materialized(&plan, &idb).is_err());
    }

    /// Tuples of `A(a, b, c)` under the anchor `a = 1` (`b` = `i mod JOIN_KEYS`, so
    /// every `b` repeats within and across source batches), and `R(k, v, w)`'s
    /// postings for key `k`: `k mod 4` tuples, the first two equal on `v`.
    const FAN_OUT: i64 = 3_000;
    const JOIN_KEYS: i64 = 50;

    /// `A(a → b, c)`, `R(k → v, w)` and `E(∅ → e)` (an empty key): see [`FAN_OUT`].
    fn repeating_keys_setup() -> IndexedDatabase {
        let mut c = bea_core::schema::Catalog::new();
        c.declare("A", ["a", "b", "c"]).unwrap();
        c.declare("R", ["k", "v", "w"]).unwrap();
        c.declare("E", ["e"]).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "A", &["a"], &["b", "c"], FAN_OUT as u64).unwrap(),
            AccessConstraint::new(&c, "R", &["k"], &["v", "w"], 3).unwrap(),
            AccessConstraint::new(&c, "E", &[], &["e"], 2).unwrap(),
        ]);
        let mut db = Database::new(c);
        let a = (0..FAN_OUT).map(|i| [1, i % JOIN_KEYS, i]);
        let r = (0..JOIN_KEYS).flat_map(|k| (0..k % 4).map(move |j| [k, k + j / 2, j]));
        let ints = |row: [i64; 3]| row.map(Value::int).to_vec();
        db.extend("A", a.map(ints)).unwrap();
        db.extend("R", r.map(ints)).unwrap();
        db.extend("E", [[7], [8]].map(|row| row.map(Value::int).to_vec()))
            .unwrap();
        IndexedDatabase::build(db, schema).unwrap()
    }

    #[test]
    fn keyed_joins_over_repeating_keys_match_the_materialized_reference() {
        let idb = repeating_keys_setup();
        // Each plan starts from the anchor's A-rows `[a, b, c]` (one lookup, projected
        // onto the fetched columns); `add` builds the rest and names how many distinct
        // keys it probes.
        let plan = |add: &dyn Fn(&mut PlanBuilder, NodeId) -> NodeId| {
            let mut b = PlanBuilder::new();
            let anchor = b.constant(Value::int(1), "x");
            let labels = vec!["a".into(), "b".into(), "c".into()];
            let joined = b.keyed_join(anchor, vec![0], "A", vec![0], vec![1, 2], 0, labels, vec![]);
            let rows = b.project(joined, vec![1, 2, 3]);
            let out = add(&mut b, rows);
            b.finish("Q", out).unwrap()
        };
        let join_r = |b: &mut PlanBuilder, rows: NodeId| {
            let labels = vec!["k".into(), "v".into(), "w".into()];
            b.keyed_join(rows, vec![1], "R", vec![0], vec![1, 2], 1, labels, vec![])
        };
        let join_e = |b: &mut PlanBuilder, rows: NodeId| {
            b.keyed_join(
                rows,
                vec![],
                "E",
                vec![],
                vec![0],
                2,
                vec!["e".into()],
                vec![],
            )
        };
        let keys = 1 + JOIN_KEYS as u64;
        let cases: [(&str, QueryPlan, u64); 5] = [
            (
                "keys repeated within and across batches",
                plan(&join_r),
                keys,
            ),
            (
                "a projection that drops the key",
                plan(&|b, rows| {
                    let joined = join_r(b, rows);
                    b.project(joined, vec![4])
                }),
                keys,
            ),
            (
                "a zero-column projection",
                plan(&|b, rows| {
                    let joined = join_r(b, rows);
                    b.project(joined, Vec::new())
                }),
                keys,
            ),
            ("an empty key", plan(&join_e), 2),
            (
                "an empty key, projected onto its fetched column",
                plan(&|b, rows| {
                    let joined = join_e(b, rows);
                    b.project(joined, vec![3])
                }),
                2,
            ),
        ];
        for (case, plan, distinct_keys) in &cases {
            let (reference, reference_stats) = execute_plan_materialized(plan, &idb).unwrap();
            assert!(!reference.is_empty(), "{case}: vacuous");
            assert_eq!(reference_stats.index_lookups, *distinct_keys, "{case}");
            let (table, stats) = execute_plan(plan, &idb).unwrap();
            assert!(table.is_set(), "{case}: a row repeats");
            assert!(table.same_rows(&reference), "{case}: rows differ");
            assert!(
                stats.same_data_access(&reference_stats),
                "{case}: {stats} vs {reference_stats}"
            );
            assert_eq!(stats.index_lookups, *distinct_keys, "{case}");
            assert_eq!(stats.allocs_per_probe, 0, "{case}");
        }
    }

    #[test]
    fn a_thread_keeps_buffers_between_jobs_but_none_past_the_retention_cap() {
        // `δ π[] δ π[v] σ[k = k'](({1} ∪ {2}) × fetch(k' ∈ …, R, v))` over 16 384 tuples
        // `(1, i)`: the lookup and the δ over `v` grow buffers to many batches' worth.
        const ROWS: i64 = 16_384;
        let mut c = bea_core::schema::Catalog::new();
        c.declare("R", ["k", "v"]).unwrap();
        let schema = AccessSchema::from_constraints([AccessConstraint::new(
            &c,
            "R",
            &["k"],
            &["v"],
            ROWS as u64,
        )
        .unwrap()]);
        let mut db = Database::new(c);
        db.extend("R", (0..ROWS).map(|i| vec![Value::int(1), Value::int(i)]))
            .unwrap();
        let wide = IndexedDatabase::build(db, schema).unwrap();
        let mut b = PlanBuilder::new();
        let (one, two) = (
            b.constant(Value::int(1), "k"),
            b.constant(Value::int(2), "k"),
        );
        let keys = b.union(one, two);
        let columns = vec!["k'".into(), "v".into()];
        let fetched = b.keyed_join(keys, vec![0], "R", vec![0], vec![1], 0, columns, vec![]);
        let values = b.project(fetched, vec![2]);
        let out = b.project(values, Vec::new());
        let dedup = bea_core::plan::lower_plan(&b.finish("Q", out).unwrap()).unwrap();
        assert!(dedup
            .steps()
            .iter()
            .any(|step| matches!(step.op, PlanOp::Dedup { .. })));

        // On this thread, one query each: the large δ, then a point lookup.
        let run = |plan: &QueryPlan, store| {
            let (table, _, ledger) = execute_inner(plan, store).unwrap();
            assert_eq!(ledger.resident(), 0, "the ledger drains whatever is pooled");
            let state = PARKED
                .take()
                .expect("the query's state stays with its thread");
            let (pooled, largest) = {
                let buffers = &state.borrow().pool.values.0;
                (buffers.len(), buffers.iter().map(Vec::capacity).max())
            };
            PARKED.set(Some(state));
            let largest = largest.unwrap_or(0);
            assert!(pooled <= BufferPool::RETAINED);
            assert!(
                largest <= BufferPool::RETAINED_LEN,
                "a buffer of {largest} values outlived its query"
            );
            (table, pooled)
        };
        let (table, _) = run(&dedup, &wide);
        assert_eq!(table.rows(), [Vec::<Value>::new()]);
        let idb = setup();
        let point = bea_core::plan::lower_plan(&union_of_lookups(&[1])).unwrap();
        let (table, pooled) = run(&point, &idb);
        assert_eq!(table.len(), 2);
        assert!(
            pooled > 0,
            "the point lookup's buffers are kept for the next query"
        );
    }

    #[test]
    fn buffer_pool_respects_its_cap() {
        let mut pool = BufferPool::default();
        for _ in 0..BufferPool::RETAINED + 5 {
            pool.values.put(Vec::with_capacity(4));
            pool.offsets.put(Vec::with_capacity(4));
        }
        // At most `RETAINED` buffers of each kind are retained; the rest are dropped.
        assert_eq!(pool.values.0.len(), BufferPool::RETAINED);
        assert_eq!(pool.offsets.0.len(), BufferPool::RETAINED);
    }

    #[test]
    fn lookups_hand_their_offset_buffers_back_but_a_thread_keeps_none_past_the_caps() {
        // `R(k, v)`: key 1 fans out to 16 384 tuples, as the heavy chain's anchor does,
        // and keys 2 ..= 24 hold one tuple each. One query unions a lookup of each key,
        // key 1's first: 24 lookups hand back more grown offset buffers than the pool
        // keeps, key 1's longer than a thread keeps between queries.
        const FAN: i64 = 16_384;
        let mut c = bea_core::schema::Catalog::new();
        c.declare("R", ["k", "v"]).unwrap();
        let schema = AccessSchema::from_constraints([AccessConstraint::new(
            &c,
            "R",
            &["k"],
            &["v"],
            FAN as u64,
        )
        .unwrap()]);
        let mut db = Database::new(c);
        let fan = (0..FAN).map(|i| [1, i]);
        let singles = (2..=24).map(|k| [k, 0]);
        db.extend(
            "R",
            fan.chain(singles).map(|row| row.map(Value::int).to_vec()),
        )
        .unwrap();
        let store = IndexedDatabase::build(db, schema).unwrap();
        let fetches: Vec<_> = (1..=24).map(|key| ("R", 0, key)).collect();
        let plan = bea_core::plan::lower_plan(&union_of_lookups_in(&fetches)).unwrap();
        let (table, stats, ledger) = execute_inner(&plan, &store).unwrap();
        assert_eq!(table.len() as i64, FAN + 23);
        assert_eq!(stats.tuples_fetched as i64, FAN + 23);
        assert_eq!(ledger.resident(), 0);
        let state = PARKED
            .take()
            .expect("the query's state stays with its thread");
        let buffers = &state.borrow().pool.offsets.0;
        let largest = buffers.iter().map(Vec::capacity).max().unwrap_or(0);
        assert!(!buffers.is_empty(), "the lookups' buffers are kept");
        assert!(
            buffers.len() <= BufferPool::RETAINED,
            "{} kept",
            buffers.len()
        );
        assert!(
            largest <= BufferPool::RETAINED_LEN,
            "a buffer of {largest} offsets outlived its query"
        );
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
