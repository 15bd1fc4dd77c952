//! The bounded plan executor.
//!
//! Executes a [`QueryPlan`] against a [`Store`]. Every `fetch` goes through the hash
//! index of its backing access constraint; nothing in this executor ever scans a
//! relation, so the amount of data read is exactly what the plan's cost model bounds.
//!
//! [`execute_plan_on`] lowers the plan to a [`bea_core::plan::PhysicalPlan`] and
//! [`execute_physical_on`] runs it through the batch pipeline in [`crate::ops`]:
//! intermediate results flow through operators in bounded batches, and only genuine
//! pipeline breakers hold rows, so peak memory residency tracks the access-schema
//! bounds. The plan is lowered the same way at every thread count; with
//! [`ExecOptions::threads`] > 1 scoped helper threads join the caller in running its
//! independent pipelines, if it has any (see the [`crate::ops`] docs for the threading
//! model); data access is identical at every thread count. [`execute_plan`] is the same
//! with default options.
//!
//! [`execute_plan_materialized`] is the **reference**: the literal step loop, one
//! [`Table`] per plan step, all of them alive until the end. It takes no options and
//! serves no query; the property suites, `bea-bench`'s scenario tests and `exp_table1`'s
//! residency table compare the pipeline against it — both perform the same index lookups
//! and fetch the same tuples; see [`AccessStats::same_data_access`].

use crate::ops;
use crate::stats::AccessStats;
use crate::table::Table;
use bea_core::error::{Error, Result};
use bea_core::plan::{
    keys_all_tied, lower_plan, residual_predicates, PhysicalPlan, PlanOp, Predicate, QueryPlan,
};
use bea_core::value::Row;
use bea_storage::Store;
use std::collections::BTreeSet;

/// Environment variable overriding the automatic worker-thread count (used by the CI
/// matrix to run the whole test suite at a fixed parallelism). An explicit
/// [`ExecOptions::with_threads`] beats the environment.
pub const THREADS_ENV: &str = "BEA_THREADS";

/// Options controlling plan execution.
///
/// The struct is `#[non_exhaustive]`: construct it with [`ExecOptions::new`] (or
/// [`Default`]) and adjust knobs through the `with_*` methods.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ExecOptions {
    /// Threads running the query, the calling thread included. `0` (the default)
    /// resolves automatically: the [`THREADS_ENV`] environment variable if set,
    /// otherwise the machine's available parallelism. `1` runs every pipeline in step
    /// order on the calling thread; `> 1` spawns scoped helpers for the plan's
    /// independent pipelines, as many as can run beside the caller (see the `ops`
    /// module docs). A pipeline always runs whole, on one thread.
    pub threads: usize,
}

impl ExecOptions {
    /// The default options: automatic thread count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set the thread count (0 = automatic).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// The effective thread count: the explicit [`ExecOptions::threads`] if
    /// nonzero, else the [`THREADS_ENV`] environment variable, else the machine's
    /// available parallelism (1 if unknown). A set-but-invalid variable
    /// (`BEA_THREADS=four`) panics with the rejection reason instead of silently
    /// falling back to automatic — a CI matrix typo must fail the job, not quietly
    /// test the wrong thread count. `BEA_THREADS=0` and the empty string mean
    /// "automatic", mirroring [`ExecOptions::threads`].
    pub fn resolved_threads(&self) -> usize {
        if self.threads > 0 {
            return self.threads;
        }
        if let Some(threads) = bea_core::env::read_env(THREADS_ENV, parse_threads).flatten() {
            return threads;
        }
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }
}

/// Parse a [`THREADS_ENV`] value. `Ok(Some(n))` is an explicit worker count;
/// `Ok(None)` means "automatic" (`0`, or the empty string — the `BEA_THREADS= cmd`
/// shell idiom); anything unparsable is an error naming the reason. The rejection
/// rules are the shared [`bea_core::env`] contract, and the parser stays a pure
/// function so they are testable without mutating the process environment (which
/// would race parallel tests).
pub fn parse_threads(value: &str) -> std::result::Result<Option<usize>, String> {
    Ok(bea_core::env::parse_count(value)?
        .auto_when_zero()
        .map(|threads| threads as usize))
}

/// Execute an already-lowered physical plan under explicit [`ExecOptions`] against a
/// store at any shard count. One plan, keys routed at run time: the store sends each
/// probe to the shard that owns its key.
pub fn execute_physical_on(
    plan: &PhysicalPlan,
    store: Store<'_>,
    options: &ExecOptions,
) -> Result<(Table, AccessStats)> {
    ops::execute(plan, store, options.resolved_threads())
}

/// Execute a plan with the default options.
pub fn execute_plan(plan: &QueryPlan, store: Store<'_>) -> Result<(Table, AccessStats)> {
    execute_plan_on(plan, store, &ExecOptions::default())
}

/// Execute a plan under explicit [`ExecOptions`] against a store at any shard count.
///
/// One plan, keys routed at run time: lowering never looks at the store, so a store
/// runs the same plan at every shard count, and the store sends each probe to the
/// shard that owns its key. Rows, their order and every counter are the 1-shard
/// run's, except the per-shard fetch distribution
/// (`AccessStats::rows_fetched_by_shard`).
pub fn execute_plan_on(
    plan: &QueryPlan,
    store: Store<'_>,
    options: &ExecOptions,
) -> Result<(Table, AccessStats)> {
    let physical = lower_plan(plan)?;
    ops::execute(&physical, store, options.resolved_threads())
}

/// The reference executor — the materialized step loop: every plan step produces a
/// full [`Table`], all of which stay resident until the end (reflected in
/// `peak_rows_resident`). The store routes each fetch to the owning shard.
pub fn execute_plan_materialized(
    plan: &QueryPlan,
    store: Store<'_>,
) -> Result<(Table, AccessStats)> {
    plan.validate()?;
    validate_fetches_for(plan, store)?;
    let mut stats = AccessStats::default();
    let mut resident: u64 = 0;
    let mut results: Vec<Table> = Vec::with_capacity(plan.len());

    // Peephole: plan synthesis joins a fetch back against its source with
    // `σ[key equalities](source × fetch)`. Materializing the cross product first is
    // wasteful (it is |source| · |fetch| rows even though each source row matches at most
    // N fetched rows), so products that are consumed *only* by such a selection are
    // deferred and the selection is executed as a hash join.
    let deferred_products = find_deferred_products(plan);

    for (node, step) in plan.steps().iter().enumerate() {
        if deferred_products.contains(&node) {
            // Placeholder; the consuming selection reads the operands directly.
            results.push(Table::new(step.columns.clone()));
            continue;
        }
        let table = match &step.op {
            PlanOp::Const { value } => {
                Table::with_rows(step.columns.clone(), vec![vec![value.clone()]])
            }
            PlanOp::Unit => Table::with_rows(step.columns.clone(), vec![Vec::new()]),
            PlanOp::Empty { .. } => Table::new(step.columns.clone()),
            PlanOp::Fetch {
                source,
                key_cols,
                relation,
                x_attrs,
                y_attrs,
                constraint_index,
            } => {
                let src = &results[*source];
                // Distinct keys only: fetching the same key twice reads the same data.
                let keys: BTreeSet<Row> = src
                    .rows()
                    .iter()
                    .map(|row| key_cols.iter().map(|&c| row[c].clone()).collect())
                    .collect();
                // Every candidate key projection is cloned before the set dedups.
                stats.values_cloned += (src.len() * key_cols.len()) as u64;
                let mut out = Table::new(step.columns.clone());
                let positions: Vec<usize> = x_attrs.iter().chain(y_attrs.iter()).copied().collect();
                for key in keys {
                    stats.index_lookups += 1;
                    let (fetched, shard) = store.fetch_iter(*constraint_index, &key)?;
                    stats.record_fetched_sharded(relation, shard, fetched.len() as u64);
                    stats.values_cloned += (fetched.len() * positions.len()) as u64;
                    for tuple in fetched {
                        out.push(positions.iter().map(|&p| tuple[p].clone()).collect());
                    }
                }
                stats.fetch_ops += 1;
                dedup_counted(&mut out, &mut stats);
                out
            }
            PlanOp::Project { source, cols } => {
                let src = &results[*source];
                let mut out = Table::new(step.columns.clone());
                stats.values_cloned += (src.len() * cols.len()) as u64;
                for row in src.rows() {
                    out.push(cols.iter().map(|&c| row[c].clone()).collect());
                }
                dedup_counted(&mut out, &mut stats);
                out
            }
            PlanOp::Select { source, predicates } => {
                if deferred_products.contains(source) {
                    execute_keyed_join(
                        plan,
                        &results,
                        *source,
                        predicates,
                        &step.columns,
                        &mut stats,
                    )?
                } else {
                    let src = &results[*source];
                    let mut out = Table::new(step.columns.clone());
                    for row in src.rows() {
                        let keep = predicates.iter().all(|p| match p {
                            Predicate::ColEqCol(a, b) => row[*a] == row[*b],
                            Predicate::ColEqConst(a, c) => &row[*a] == c,
                        });
                        if keep {
                            out.push(row.clone());
                        }
                    }
                    stats.values_cloned += (out.len() * out.arity()) as u64;
                    out
                }
            }
            PlanOp::Product { left, right } => {
                let (l, r) = (&results[*left], &results[*right]);
                let mut out = Table::new(step.columns.clone());
                for lrow in l.rows() {
                    for rrow in r.rows() {
                        let mut row = lrow.clone();
                        row.extend(rrow.iter().cloned());
                        out.push(row);
                    }
                }
                stats.product_rows_materialized += (l.len() * r.len()) as u64;
                stats.values_cloned += (l.len() * r.len() * (l.arity() + r.arity())) as u64;
                out
            }
            PlanOp::Union { left, right } => {
                let (l, r) = (&results[*left], &results[*right]);
                let mut out = Table::new(step.columns.clone());
                for row in l.rows().iter().chain(r.rows().iter()) {
                    out.push(row.clone());
                }
                stats.values_cloned += (out.len() * out.arity()) as u64;
                dedup_counted(&mut out, &mut stats);
                out
            }
            PlanOp::Difference { left, right } => {
                let (l, r) = (&results[*left], &results[*right]);
                let remove = r.row_set();
                stats.values_cloned += (r.len() * r.arity()) as u64;
                let mut out = Table::new(step.columns.clone());
                for row in l.rows() {
                    if !remove.contains(row) {
                        out.push(row.clone());
                    }
                }
                stats.values_cloned += (out.len() * out.arity()) as u64;
                out
            }
            PlanOp::Rename { source } => {
                let src = &results[*source];
                stats.values_cloned += (src.len() * src.arity()) as u64;
                Table::with_rows(step.columns.clone(), src.rows().to_vec())
            }
        };
        // Every step's table stays alive until the end of the loop, so residency only
        // ever grows: the high-water mark is the sum of all intermediate sizes.
        resident += table.len() as u64;
        stats.peak_rows_resident = stats.peak_rows_resident.max(resident);
        results.push(table);
    }

    let mut output = results
        .into_iter()
        .nth(plan.output())
        .ok_or_else(|| Error::InvalidPlan {
            reason: "plan output node is missing".into(),
        })?;
    dedup_counted(&mut output, &mut stats);
    Ok((output, stats))
}

/// Deduplicate a step table, accounting the row clones the membership set performs
/// (one clone of every candidate row) in `values_cloned`.
fn dedup_counted(table: &mut Table, stats: &mut AccessStats) {
    stats.values_cloned += (table.len() * table.arity()) as u64;
    table.dedup();
}

/// Validate every fetch of a logical plan against the store it is about to run on,
/// through the same [`ops::validate_fetch_shape`] check the physical executor applies
/// at its entry. [`QueryPlan::validate`] covers step wiring and predicate column
/// bounds; together they make malformed plans fail *before* execution instead of
/// panicking mid-loop on an out-of-range index.
fn validate_fetches_for(plan: &QueryPlan, store: Store<'_>) -> Result<()> {
    for (i, step) in plan.steps().iter().enumerate() {
        let PlanOp::Fetch {
            relation,
            key_cols,
            x_attrs,
            y_attrs,
            constraint_index,
            ..
        } = &step.op
        else {
            continue;
        };
        ops::validate_fetch_shape(
            store,
            format_args!("plan step {i}"),
            relation,
            key_cols,
            x_attrs.iter().chain(y_attrs.iter()),
            *constraint_index,
        )?;
    }
    Ok(())
}

/// Product nodes of the shape `source × fetch(X ∈ source, …)` whose only consumer is a
/// selection that equates every key column: these can be executed as hash joins by the
/// consuming selection instead of being materialized.
fn find_deferred_products(plan: &QueryPlan) -> BTreeSet<usize> {
    let steps = plan.steps();

    // Count consumers of every node (including the output marker).
    let mut consumers: Vec<Vec<usize>> = vec![Vec::new(); steps.len()];
    for (i, step) in steps.iter().enumerate() {
        let mut add = |j: usize| consumers[j].push(i);
        match &step.op {
            PlanOp::Fetch { source, .. }
            | PlanOp::Project { source, .. }
            | PlanOp::Select { source, .. }
            | PlanOp::Rename { source } => add(*source),
            PlanOp::Product { left, right }
            | PlanOp::Union { left, right }
            | PlanOp::Difference { left, right } => {
                add(*left);
                add(*right);
            }
            PlanOp::Const { .. } | PlanOp::Unit | PlanOp::Empty { .. } => {}
        }
    }

    let mut deferred = BTreeSet::new();
    for step in steps {
        let PlanOp::Select { source, predicates } = &step.op else {
            continue;
        };
        if plan.output() == *source {
            continue;
        }
        let PlanOp::Product { left, right } = &steps[*source].op else {
            continue;
        };
        let PlanOp::Fetch {
            source: fetch_source,
            key_cols,
            ..
        } = &steps[*right].op
        else {
            continue;
        };
        if fetch_source != left || consumers[*source].len() != 1 {
            continue;
        }
        let left_arity = steps[*left].columns.len();
        // Same pattern test as physical lowering's keyed-lookup fusion, shared so the
        // two can never drift apart.
        if keys_all_tied(predicates, key_cols, left_arity) {
            deferred.insert(*source);
        }
    }
    deferred
}

/// Execute `σ[predicates](left × fetch)` as a hash join of `left` and the fetched table
/// on the fetch's key columns, then apply the remaining predicates.
fn execute_keyed_join(
    plan: &QueryPlan,
    results: &[Table],
    product_node: usize,
    predicates: &[Predicate],
    columns: &[String],
    stats: &mut AccessStats,
) -> Result<Table> {
    let PlanOp::Product { left, right } = &plan.steps()[product_node].op else {
        return Err(Error::InvalidPlan {
            reason: "deferred node is not a product".into(),
        });
    };
    let PlanOp::Fetch { key_cols, .. } = &plan.steps()[*right].op else {
        return Err(Error::InvalidPlan {
            reason: "deferred product's right operand is not a fetch".into(),
        });
    };
    let left_table = &results[*left];
    let right_table = &results[*right];
    let left_arity = left_table.arity();

    // Hash the fetched rows on their key columns (the first |X| output columns),
    // pre-sizing the table from the build side's row count.
    let mut buckets: std::collections::HashMap<Vec<_>, Vec<&bea_core::value::Row>> =
        std::collections::HashMap::with_capacity(right_table.len());
    stats.values_cloned += (right_table.len() * key_cols.len()) as u64;
    for row in right_table.rows() {
        let key: Vec<_> = (0..key_cols.len()).map(|k| row[k].clone()).collect();
        buckets.entry(key).or_default().push(row);
    }

    // Predicates other than the key equalities still need checking.
    let residual = residual_predicates(predicates, key_cols, left_arity);

    let mut out = Table::new(columns.to_vec());
    // One probe-key gather per probe row.
    stats.values_cloned += (left_table.len() * key_cols.len()) as u64;
    for lrow in left_table.rows() {
        let key: Vec<_> = key_cols.iter().map(|&c| lrow[c].clone()).collect();
        let Some(matches) = buckets.get(&key) else {
            continue;
        };
        for rrow in matches {
            let mut row = lrow.clone();
            row.extend(rrow.iter().cloned());
            let keep = residual.iter().all(|p| match p {
                Predicate::ColEqCol(a, b) => row[*a] == row[*b],
                Predicate::ColEqConst(a, c) => &row[*a] == c,
            });
            if keep {
                out.push(row);
            }
        }
    }
    stats.values_cloned += (out.len() * out.arity()) as u64;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_core::access::{AccessConstraint, AccessSchema};
    use bea_core::plan::bounded_plan;
    use bea_core::query::cq::ConjunctiveQuery;
    use bea_core::query::term::Arg;
    use bea_core::schema::Catalog;
    use bea_core::value::Value;
    use bea_storage::{Database, IndexedDatabase};

    fn setup() -> (Catalog, AccessSchema, IndexedDatabase) {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 10).unwrap(),
            AccessConstraint::new(&c, "R", &["b"], &["a"], 10).unwrap(),
        ]);
        let mut db = Database::new(c.clone());
        db.extend(
            "R",
            [
                vec![Value::int(1), Value::int(10)],
                vec![Value::int(1), Value::int(11)],
                vec![Value::int(2), Value::int(10)],
                vec![Value::int(3), Value::int(30)],
            ],
        )
        .unwrap();
        let idb = IndexedDatabase::build(db, schema.clone()).unwrap();
        (c, schema, idb)
    }

    #[test]
    fn thread_env_values_are_validated() {
        assert_eq!(parse_threads("4").unwrap(), Some(4));
        assert_eq!(parse_threads(" 2 ").unwrap(), Some(2));
        assert_eq!(parse_threads("0").unwrap(), None, "0 means automatic");
        assert_eq!(parse_threads("").unwrap(), None, "empty means unset");
        // The silent-fallback bug: `BEA_THREADS=four` used to mean "automatic"
        // without a word. Every malformed value must now carry a rejection reason.
        assert!(parse_threads("four").unwrap_err().contains("integer"));
        assert!(parse_threads("-1").is_err());
        assert!(parse_threads("2 threads").is_err());
        // The resolved count honors whatever the CI matrix set for this process (the
        // panic path cannot be exercised here without racing parallel tests on the
        // process environment — hence the pure parser above).
        let resolved = ExecOptions::new().resolved_threads();
        match std::env::var(THREADS_ENV) {
            Ok(value) => match parse_threads(&value).unwrap() {
                Some(threads) => assert_eq!(resolved, threads),
                None => assert!(resolved >= 1),
            },
            Err(_) => assert!(resolved >= 1),
        }
        // An explicit thread count always beats the environment.
        assert_eq!(ExecOptions::new().with_threads(3).resolved_threads(), 3);
    }

    #[test]
    fn execute_bounded_plan_for_simple_query() {
        let (c, schema, idb) = setup();
        // Q(y) :- R(x, y), x = 1.
        let q = ConjunctiveQuery::builder("Q")
            .head(["y"])
            .atom("R", ["x", "y"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let plan = bounded_plan(&q, &schema).unwrap();
        let (result, stats) = execute_plan(&plan, &idb).unwrap();
        assert_eq!(
            result.row_set(),
            [vec![Value::int(10)], vec![Value::int(11)]]
                .into_iter()
                .collect()
        );
        assert_eq!(stats.tuples_fetched, 2);
        assert_eq!(stats.tuples_scanned, 0);
        assert!(stats.index_lookups >= 1);
    }

    #[test]
    fn execute_join_query() {
        let (c, schema, idb) = setup();
        // Q(z) :- R(x, y), R(z, y), x = 3: accidents sharing the b-value of key 3.
        let q = ConjunctiveQuery::builder("Q")
            .head(["z"])
            .atom("R", ["x", "y"])
            .atom("R", ["z", "y"])
            .eq("x", 3i64)
            .build(&c)
            .unwrap();
        let plan = bounded_plan(&q, &schema).unwrap();
        let (result, stats) = execute_plan(&plan, &idb).unwrap();
        assert_eq!(
            result.row_set(),
            [vec![Value::int(3)]].into_iter().collect()
        );
        assert!(stats.tuples_fetched >= 2);

        // Same query anchored at key 1: b-values 10 and 11, and 10 is shared with key 2.
        let q = ConjunctiveQuery::builder("Q")
            .head(["z"])
            .atom("R", ["x", "y"])
            .atom("R", ["z", "y"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let plan = bounded_plan(&q, &schema).unwrap();
        let (result, _) = execute_plan(&plan, &idb).unwrap();
        assert_eq!(
            result.row_set(),
            [vec![Value::int(1)], vec![Value::int(2)]]
                .into_iter()
                .collect()
        );
    }

    #[test]
    fn empty_plan_yields_empty_result() {
        let (_, _, idb) = setup();
        let mut b = bea_core::plan::PlanBuilder::new();
        let e = b.empty(2);
        let plan = b.finish("Q", e).unwrap();
        let (result, stats) = execute_plan(&plan, &idb).unwrap();
        assert!(result.is_empty());
        assert_eq!(result.arity(), 2);
        assert_eq!(stats.tuples_fetched, 0);
    }

    #[test]
    fn difference_and_rename_ops() {
        let (_, _, idb) = setup();
        let mut b = bea_core::plan::PlanBuilder::new();
        let one = b.constant(Value::int(1), "x");
        let two = b.constant(Value::int(2), "x");
        let union = b.union(one, two);
        let diff = b.difference(union, two);
        let renamed = b.rename(diff, vec!["y".into()]);
        let plan = b.finish("Q", renamed).unwrap();
        let (result, _) = execute_plan(&plan, &idb).unwrap();
        assert_eq!(
            result.row_set(),
            [vec![Value::int(1)]].into_iter().collect()
        );
        assert_eq!(result.columns(), &["y".to_owned()]);
    }

    #[test]
    fn fetch_with_unknown_constraint_fails() {
        let (_, _, idb) = setup();
        let mut b = bea_core::plan::PlanBuilder::new();
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
        let plan = b.finish("Q", f).unwrap();
        assert!(execute_plan(&plan, &idb).is_err());
    }

    /// Hand-build the exact shape the peephole targets: `σ[k = a](keys × fetch)` where
    /// the fetch reads `R(a → b)` keyed by the `keys` column.
    fn keyed_join_plan() -> bea_core::plan::QueryPlan {
        let mut b = bea_core::plan::PlanBuilder::new();
        let k1 = b.constant(Value::int(1), "k");
        let k2 = b.constant(Value::int(2), "k");
        let keys = b.union(k1, k2);
        let fetched = b.fetch(
            keys,
            vec![0],
            "R",
            vec![0],
            vec![1],
            0,
            vec!["a".into(), "b".into()],
        );
        let prod = b.product(keys, fetched);
        // Tie the fetch's key column (position 1 = left arity 1 + first X attr) back to
        // the source key — the pattern the synthesis emits for every fetch.
        let sel = b.select(prod, vec![Predicate::ColEqCol(0, 1)]);
        b.finish("Q", sel).unwrap()
    }

    #[test]
    fn deferred_product_peephole_is_transparent() {
        let (_, _, idb) = setup();
        let plan = keyed_join_plan();

        let (reference, reference_stats) = execute_plan_materialized(&plan, &idb).unwrap();
        let (streamed, streamed_stats) = execute_plan_on(&plan, &idb, &ExecOptions::new()).unwrap();

        // The keyed join yields the literal `σ[k = a](keys × fetch)`, as does the
        // pipeline…
        assert_eq!(reference.columns(), streamed.columns());
        assert_eq!(reference.row_set(), streamed.row_set());
        assert_eq!(
            reference.row_set(),
            [
                vec![Value::int(1), Value::int(1), Value::int(10)],
                vec![Value::int(1), Value::int(1), Value::int(11)],
                vec![Value::int(2), Value::int(2), Value::int(10)],
            ]
            .into_iter()
            .collect()
        );
        // …with identical data access: the peephole changes join strategy, not fetches.
        assert_eq!(reference_stats.tuples_fetched, 3);
        assert!(reference_stats.same_data_access(&streamed_stats));

        // The peephole never materializes the cross product (|keys| · |fetched| =
        // 2 · 3 rows under the literal semantics).
        assert_eq!(reference_stats.product_rows_materialized, 0);
    }

    #[test]
    fn deferred_product_peephole_is_transparent_on_synthesized_plans() {
        // Same property on a plan produced by the synthesizer (not hand-built): the
        // join query from `execute_join_query` exercises σ[key eq](source × fetch).
        let (c, schema, idb) = setup();
        let q = ConjunctiveQuery::builder("Q")
            .head(["z"])
            .atom("R", ["x", "y"])
            .atom("R", ["z", "y"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let plan = bounded_plan(&q, &schema).unwrap();

        let (reference, reference_stats) = execute_plan_materialized(&plan, &idb).unwrap();
        let (streamed, streamed_stats) = execute_plan_on(&plan, &idb, &ExecOptions::new()).unwrap();

        assert_eq!(
            reference.row_set(),
            [vec![Value::int(1)], vec![Value::int(2)]]
                .into_iter()
                .collect()
        );
        assert_eq!(reference.row_set(), streamed.row_set());
        assert!(reference_stats.same_data_access(&streamed_stats));
        // The synthesized plan contains deferrable keyed-join products, and the
        // peephole eliminates them. (Constant-sized seed products — unit × const — are
        // not part of the pattern and may still materialize a row each.)
        assert!(!find_deferred_products(&plan).is_empty());
        let products = plan
            .steps()
            .iter()
            .filter(|s| matches!(s.op, PlanOp::Product { .. }))
            .count() as u64;
        // Whatever remains materialized under the peephole is at most one row per
        // product node — never a data-dependent cross product.
        assert!(reference_stats.product_rows_materialized <= products);
    }

    #[test]
    fn streaming_matches_materialized_and_uses_less_memory() {
        let (c, schema, idb) = setup();
        let q = ConjunctiveQuery::builder("Q")
            .head(["z"])
            .atom("R", ["x", "y"])
            .atom("R", ["z", "y"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let plan = bounded_plan(&q, &schema).unwrap();

        let (streamed, streamed_stats) = execute_plan_on(&plan, &idb, &ExecOptions::new()).unwrap();
        let (materialized, materialized_stats) = execute_plan_materialized(&plan, &idb).unwrap();

        assert_eq!(streamed.row_set(), materialized.row_set());
        // Boundedness preserved: the pipeline reads exactly the same data…
        assert!(streamed_stats.same_data_access(&materialized_stats));
        assert!(!streamed_stats.rows_fetched_by_relation.is_empty());
        // …while holding strictly fewer rows at its peak.
        assert!(
            streamed_stats.peak_rows_resident <= materialized_stats.peak_rows_resident,
            "streaming peak {} exceeds materialized peak {}",
            streamed_stats.peak_rows_resident,
            materialized_stats.peak_rows_resident
        );
    }

    #[test]
    fn streaming_handles_every_operator() {
        // Exercise union, difference, rename, product, filter and dedup through the
        // pipeline on a hand-built plan.
        let (_, _, idb) = setup();
        let mut b = bea_core::plan::PlanBuilder::new();
        let one = b.constant(Value::int(1), "x");
        let two = b.constant(Value::int(2), "x");
        let three = b.constant(Value::int(3), "x");
        let union = b.union(one, two);
        let union = b.union(union, three);
        let diff = b.difference(union, two);
        let pair = b.product(diff, one);
        let sel = b.select(pair, vec![Predicate::ColEqConst(1, Value::int(1))]);
        let proj = b.project(sel, vec![0]);
        let renamed = b.rename(proj, vec!["y".into()]);
        let plan = b.finish("Q", renamed).unwrap();

        let (streamed, _) = execute_plan_on(&plan, &idb, &ExecOptions::new()).unwrap();
        let (materialized, _) = execute_plan_materialized(&plan, &idb).unwrap();
        assert_eq!(streamed.row_set(), materialized.row_set());
        assert_eq!(
            streamed.row_set(),
            [vec![Value::int(1)], vec![Value::int(3)]]
                .into_iter()
                .collect()
        );
        assert_eq!(streamed.columns(), &["y".to_owned()]);
    }

    #[test]
    fn exec_options_builder_round_trips() {
        let default = ExecOptions::new();
        assert_eq!(default.threads, 0, "0 = resolve automatically");
        assert_eq!(default, ExecOptions::default());
        let pinned = ExecOptions::new().with_threads(4);
        assert_eq!(pinned.threads, 4);
        assert_eq!(
            pinned.resolved_threads(),
            4,
            "an explicit thread count beats the environment"
        );
        assert!(ExecOptions::new().resolved_threads() >= 1);
    }

    #[test]
    fn q0_example_1_1_end_to_end() {
        // The full Example 1.1 pipeline on a miniature accidents database.
        let mut c = Catalog::new();
        c.declare("Accident", ["aid", "district", "date"]).unwrap();
        c.declare("Casualty", ["cid", "aid", "class", "vid"])
            .unwrap();
        c.declare("Vehicle", ["vid", "driver", "age"]).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "Accident", &["date"], &["aid"], 610).unwrap(),
            AccessConstraint::new(&c, "Casualty", &["aid"], &["vid"], 192).unwrap(),
            AccessConstraint::new(&c, "Accident", &["aid"], &["district", "date"], 1).unwrap(),
            AccessConstraint::new(&c, "Vehicle", &["vid"], &["driver", "age"], 1).unwrap(),
        ]);
        let mut db = Database::new(c.clone());
        let day = Value::str("1/5/2005");
        let other_day = Value::str("2/5/2005");
        let qp = Value::str("Queen's Park");
        let elsewhere = Value::str("Leith");
        db.extend(
            "Accident",
            [
                vec![Value::int(1), qp.clone(), day.clone()],
                vec![Value::int(2), elsewhere.clone(), day.clone()],
                vec![Value::int(3), qp.clone(), other_day.clone()],
            ],
        )
        .unwrap();
        db.extend(
            "Casualty",
            [
                vec![
                    Value::int(10),
                    Value::int(1),
                    Value::int(0),
                    Value::int(100),
                ],
                vec![
                    Value::int(11),
                    Value::int(1),
                    Value::int(1),
                    Value::int(101),
                ],
                vec![
                    Value::int(12),
                    Value::int(2),
                    Value::int(0),
                    Value::int(102),
                ],
                vec![
                    Value::int(13),
                    Value::int(3),
                    Value::int(0),
                    Value::int(103),
                ],
            ],
        )
        .unwrap();
        db.extend(
            "Vehicle",
            [
                vec![Value::int(100), Value::str("d1"), Value::int(34)],
                vec![Value::int(101), Value::str("d2"), Value::int(52)],
                vec![Value::int(102), Value::str("d3"), Value::int(19)],
                vec![Value::int(103), Value::str("d4"), Value::int(77)],
            ],
        )
        .unwrap();
        let idb = IndexedDatabase::build(db, schema.clone()).unwrap();
        assert!(idb.satisfies_schema());

        let q0 = ConjunctiveQuery::builder("Q0")
            .head(["xa"])
            .atom(
                "Accident",
                [Arg::var("aid"), Arg::Const(qp), Arg::Const(day)],
            )
            .atom("Casualty", ["cid", "aid", "class", "vid"])
            .atom("Vehicle", ["vid", "dri", "xa"])
            .build(&c)
            .unwrap();
        let plan = bounded_plan(&q0, &schema).unwrap();
        let (result, stats) = execute_plan(&plan, &idb).unwrap();
        // Only accident 1 matches (Queen's Park on 1/5/2005), with drivers aged 34, 52.
        assert_eq!(
            result.row_set(),
            [vec![Value::int(34)], vec![Value::int(52)]]
                .into_iter()
                .collect()
        );
        // Far fewer tuples fetched than the 11 tuples of the database? The plan fetches
        // only what the indices return for the relevant keys.
        assert!(stats.tuples_fetched <= 8);
        assert_eq!(stats.tuples_scanned, 0);
    }
}
