//! The streaming batch pipeline executing physical plans.
//!
//! [`crate::exec::execute_physical_on`] runs a [`PhysicalPlan`] (lowered by
//! `bea_core::plan::physical::lower_plan`) against a [`Store`] as one tree of pull-based
//! operators, each implementing `Operator::next_batch`. Rows move through the tree in
//! bounded **columnar** batches (`batch::Batch`) — project is column-permutation
//! metadata, only gathers (constant appends, fetch output) write values, and every value
//! write is an O(1) clone (interned string payloads; see the `batch` module). Lowering
//! reads every step with one operator, so the tree has one node per step, and only the
//! output is materialized: `sched::run` drains it into the result table. Per-key fetch
//! arenas and dedup sets are operator-internal state, released when the operator is
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
use bea_core::plan::{step_surface, PhysOp, PhysicalPlan, Predicate};
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
/// The contract: a buffer in the pool is always *empty* (cleared before
/// `put_values`), so the pool holds capacity, never rows — the [`ResidencyLedger`]'s
/// drained-to-zero assertion is unaffected by pooling. Operators draw per-batch
/// gather columns and the keyed lookup's arena columns from here and hand
/// uniquely-owned buffers back on teardown (exhausted arenas and scratch, and the
/// output columns a finished query was transposed out of); buffers shared downstream
/// simply stay with their owners. The pool lives on [`ExecState`], which a thread
/// keeps between its queries ([`ExecState::park`]): between queries it holds at most
/// [`BufferPool::RETAINED`] buffers of at most [`BufferPool::RETAINED_VALUES`] values,
/// so one large query cannot pin memory on a connection thread.
#[derive(Debug)]
pub(crate) struct BufferPool {
    values: Vec<Vec<Value>>,
    cap: usize,
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
    /// Buffers a thread keeps between queries.
    pub(crate) const RETAINED: usize = Self::DEFAULT_CAP;
    /// The largest buffer, in values, a thread keeps between queries: a batch's worth.
    pub(crate) const RETAINED_VALUES: usize = BATCH_SIZE;

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
    /// Recycled gather/selection/key buffers; see [`BufferPool`].
    pub(crate) pool: BufferPool,
    ledger: Rc<ResidencyLedger>,
}

thread_local! {
    /// The state this thread's last query left behind, its pool warm for the next.
    static PARKED: Cell<Option<SharedState>> = const { Cell::new(None) };
}

impl ExecState {
    /// A state with the default pool cap.
    pub(crate) fn new(ledger: Rc<ResidencyLedger>) -> Self {
        Self {
            stats: AccessStats::default(),
            fetched: FetchTally::default(),
            pool: BufferPool::with_cap(BufferPool::DEFAULT_CAP),
            ledger,
        }
    }

    /// The state for a query on this thread — the one its last query parked, else a
    /// fresh one — accounting against `ledger` and pooling up to `pool_cap` buffers (the
    /// plan's [`pool_cap_for`]).
    pub(crate) fn claim(ledger: &Rc<ResidencyLedger>, pool_cap: usize) -> SharedState {
        let state = PARKED
            .take()
            .unwrap_or_else(|| Rc::new(RefCell::new(Self::new(Rc::clone(ledger)))));
        let mut exec = state.borrow_mut();
        (exec.ledger, exec.pool.cap) = (Rc::clone(ledger), pool_cap);
        drop(exec);
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
        let pool = &mut exec.pool.values;
        pool.retain(|buffer| buffer.capacity() <= BufferPool::RETAINED_VALUES);
        pool.truncate(BufferPool::RETAINED);
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
pub(crate) trait Operator {
    /// Pull the next batch of rows.
    fn next_batch(&mut self) -> Result<Option<Batch>>;
}

/// Boxed operator borrowing the database for `'db`.
pub(crate) type BoxOp<'db> = Box<dyn Operator + 'db>;

/// Validate one fetch-shaped step (`step` names it, e.g. "physical step 3", and is
/// formatted only into an error message) against the database it is about to probe:
/// the backing constraint must exist in the access schema, be on the step's relation
/// (the store fetches through the constraint's index, so from the constraint's
/// relation) and agree with the key arity, and `attrs` may only name attribute
/// positions the relation has. Shared by the
/// streaming executor (keyed-lookup steps) and the materialized reference (logical
/// fetch steps) so the two can never drift on what counts as a malformed plan.
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
    if constraint.relation() != relation {
        return Err(Error::InvalidPlan {
            reason: format!(
                "{step} fetches from {relation} via constraint {constraint_index}, which is \
                 on {}",
                constraint.relation()
            ),
        });
    }
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
    for fetch in (0..plan.len()).filter_map(|step| fetch::FetchStep::of(plan, step)) {
        validate_fetch_shape(
            store,
            format_args!("physical step {}", fetch.step),
            fetch.relation,
            fetch.key_cols,
            fetch.x_attrs.iter().chain(fetch.positions),
            fetch.constraint_index,
        )?;
    }
    Ok(())
}

/// Execute a physical plan on the calling thread, returning the output table and the
/// access/residency statistics.
pub(crate) fn execute(plan: &PhysicalPlan, store: Store<'_>) -> Result<(Table, AccessStats)> {
    let (table, stats, _ledger) = execute_inner(plan, store)?;
    Ok((table, stats))
}

/// [`execute`], additionally returning the residency ledger so tests can assert that
/// accounting drained back to zero.
pub(crate) fn execute_inner(
    plan: &PhysicalPlan,
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
    pub(crate) plan: &'a PhysicalPlan,
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
        let PhysOp::KeyedLookup {
            source,
            key_cols,
            residual,
            ..
        } = &plan.steps()[step].op
        else {
            unreachable!("a lookup is built from a keyed-lookup step");
        };
        let op = fetch::KeyedLookupOp::new(
            input(*source)?,
            fetch::FetchStep::of(plan, step).expect("a keyed lookup fetches"),
            bound_predicates(residual, constants),
            out_cols,
            store,
            state.clone(),
        )
        .distinct_keys(plan.keys_distinct(*source, key_cols));
        Ok(Box::new(op))
    };
    let op: BoxOp<'a> = match &plan.steps()[node].op {
        PhysOp::Const { value } => Box::new(source::SingletonOp::new(vec![value
            .bound(constants)
            .clone()])),
        PhysOp::Unit => Box::new(source::SingletonOp::new(Vec::new())),
        PhysOp::Empty { .. } => Box::new(source::EmptyOp),
        PhysOp::KeyedLookup { .. } => lookup(node, None)?,
        PhysOp::Project { source, cols } => {
            // Fusion: a projection whose input is a keyed lookup (its one reader)
            // becomes the lookup's emission column set, so values the projection would
            // drop are never gathered at all.
            //
            // Deliberately an operator-tree concern, not a lowering rule: which
            // columns get *physically gathered* is a property of this executor's
            // columnar batches (the materialized reference, plan validation and
            // costing all reason about the unfused steps, and must keep doing
            // so). If the fused pattern is broken by a future
            // lowering change, execution falls back to the explicit ProjectOp —
            // slower, never wrong.
            if matches!(plan.steps()[*source].op, PhysOp::KeyedLookup { .. }) {
                return lookup(*source, Some(cols));
            }
            Box::new(relational::ProjectOp::new(input(*source)?, cols))
        }
        PhysOp::Dedup { source } => Box::new(relational::DedupOp::new(
            input(*source)?,
            plan.steps()[node].columns.len(),
            state.clone(),
        )),
        PhysOp::AppendConst { source, value } => Box::new(relational::AppendConstOp::new(
            input(*source)?,
            value.bound(constants).clone(),
            state.clone(),
        )),
        PhysOp::Union { left, right } => {
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
    use bea_core::plan::{lower_plan, NodeId, PlanBuilder, Predicate, QueryPlan};
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

    /// `f₁ ∪ … ∪ fₙ`, where `fᵢ` is the fused lookup `σ[k = a]({key} × fetch(a ∈ {key},
    /// relation, b))` through constraint `constraint`, for each `(relation, constraint,
    /// key)` of `fetches`.
    pub(crate) fn union_of_lookups_in(fetches: &[(&str, usize, i64)]) -> QueryPlan {
        let mut b = PlanBuilder::new();
        let branches: Vec<NodeId> = fetches
            .iter()
            .map(|&(relation, constraint, key)| {
                let k = b.constant(Value::int(key), "k");
                let columns = vec!["a".into(), "b".into()];
                let f = b.fetch(k, vec![0], relation, vec![0], vec![1], constraint, columns);
                let prod = b.product(k, f);
                b.select(prod, vec![Predicate::ColEqCol(0, 1)])
            })
            .collect();
        let out = (branches[1..].iter()).fold(branches[0], |acc, &branch| b.union(acc, branch));
        b.finish("Q", out).unwrap()
    }

    /// `π[cols](lookup(key) × {5})`, where `lookup(key)` is the fused lookup of `R`'s
    /// tuples under `key`, columns `[k, a, b]`.
    fn lookup_with_a_constant(key: i64, cols: Vec<usize>) -> QueryPlan {
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(key), "k");
        let columns = vec!["a".into(), "b".into()];
        let f = b.fetch(k, vec![0], "R", vec![0], vec![1], 0, columns);
        let prod = b.product(k, f);
        let lookup = b.select(prod, vec![Predicate::ColEqCol(0, 1)]);
        let five = b.constant(Value::int(5), "c");
        let appended = b.product(lookup, five);
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
                .any(|s| matches!(s.op, PhysOp::AppendConst { .. })));
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
        assert!(execute_plan(&plan, &idb).is_err());
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
        assert!(execute_plan(&plan, &idb).is_err());
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
        assert!(execute_plan(&plan, &idb).is_err());
        assert!(execute_plan_materialized(&plan, &idb).is_err());
    }

    /// Tuples of `A(a, b, c)` under the anchor `a = 1` (`b` = `i mod JOIN_KEYS`, so
    /// every `b` repeats within and across source batches), and `R(k, v, w)`'s
    /// postings for key `k`: `k mod 4` tuples, the first two equal on `v`.
    const FAN_OUT: i64 = 3_000;
    const JOIN_KEYS: i64 = 50;

    /// `A(a → b, c)`, `R(k → v, w)` and `E(∅ → e)` (an empty key): see [`FAN_OUT`].
    fn unfused_fetch_setup() -> IndexedDatabase {
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
    fn unfused_fetches_match_the_materialized_reference() {
        let idb = unfused_fetch_setup();
        // Each plan starts from the anchor's A-rows `[a, b, c]` (one lookup), fetched
        // unfused; `add` builds the rest and names how many distinct keys it probes.
        let plan = |add: &dyn Fn(&mut PlanBuilder, NodeId) -> NodeId| {
            let mut b = PlanBuilder::new();
            let anchor = b.constant(Value::int(1), "x");
            let labels = vec!["a".into(), "b".into(), "c".into()];
            let rows = b.fetch(anchor, vec![0], "A", vec![0], vec![1, 2], 0, labels);
            let out = add(&mut b, rows);
            b.finish("Q", out).unwrap()
        };
        let fetch_r = |b: &mut PlanBuilder, rows: NodeId| {
            let labels = vec!["k".into(), "v".into(), "w".into()];
            b.fetch(rows, vec![1], "R", vec![0], vec![1, 2], 1, labels)
        };
        let keys = 1 + JOIN_KEYS as u64;
        let cases: [(&str, QueryPlan, u64); 5] = [
            (
                "keys repeated within and across batches",
                plan(&fetch_r),
                keys,
            ),
            (
                "a pushed-down projection that drops the key",
                plan(&|b, rows| {
                    let fetched = fetch_r(b, rows);
                    b.project(fetched, vec![1])
                }),
                keys,
            ),
            (
                "a zero-column projection",
                plan(&|b, rows| {
                    let fetched = fetch_r(b, rows);
                    b.project(fetched, Vec::new())
                }),
                keys,
            ),
            (
                "an empty key",
                plan(&|b, rows| b.fetch(rows, vec![], "E", vec![], vec![0], 2, vec!["e".into()])),
                2,
            ),
            (
                "an empty key under its bare product",
                plan(&|b, rows| {
                    let fetched = b.fetch(rows, vec![], "E", vec![], vec![0], 2, vec!["e".into()]);
                    b.product(rows, fetched)
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
    fn a_thread_keeps_buffers_between_jobs_but_none_past_the_retention_cap() {
        // `δ π[] δ π[v] fetch(k = 1, R)` over 16 384 tuples `(1, i)`: the fetch and the
        // first δ grow buffers to many batches' worth.
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
        let key = b.constant(Value::int(1), "k");
        let columns = vec!["k".into(), "v".into()];
        let fetched = b.fetch(key, vec![0], "R", vec![0], vec![1], 0, columns);
        let values = b.project(fetched, vec![1]);
        let out = b.project(values, Vec::new());
        let dedup = bea_core::plan::lower_plan(&b.finish("Q", out).unwrap()).unwrap();
        assert!(dedup
            .steps()
            .iter()
            .any(|step| matches!(step.op, PhysOp::Dedup { .. })));

        // On this thread, one query each: the large δ, then a point lookup.
        let run = |plan: &PhysicalPlan, store| {
            let (table, _, ledger) = execute_inner(plan, store).unwrap();
            assert_eq!(ledger.resident(), 0, "the ledger drains whatever is pooled");
            let state = PARKED
                .take()
                .expect("the query's state stays with its thread");
            let (pooled, largest) = {
                let buffers = &state.borrow().pool.values;
                (buffers.len(), buffers.iter().map(Vec::capacity).max())
            };
            PARKED.set(Some(state));
            let largest = largest.unwrap_or(0);
            assert!(pooled <= BufferPool::RETAINED);
            assert!(
                largest <= BufferPool::RETAINED_VALUES,
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
        let mut pool = BufferPool::with_cap(2);
        assert_eq!(pool.cap(), 2);
        for _ in 0..5 {
            pool.put_values(Vec::with_capacity(4));
        }
        // At most `cap` buffers are retained; the rest are dropped.
        assert_eq!(pool.pooled(), 2);
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
