//! The bounded plan executor.
//!
//! Executes a [`QueryPlan`] against a [`Store`]. Every `fetch` goes through the hash
//! index of its backing access constraint; nothing in this executor ever scans a
//! relation, so the amount of data read is exactly what the plan's cost model bounds.
//!
//! [`execute_plan`] lowers the plan to a [`bea_core::plan::PhysicalPlan`] and
//! [`execute_physical_on`] runs it through the batch pipeline in [`crate::ops`]:
//! intermediate results flow through one tree of operators in bounded batches, and
//! only the output is materialized, so peak memory residency tracks the access-schema
//! bounds. Both run the query on the calling thread. Lowering refuses a plan outside
//! what synthesis emits (a shared step, a σ that does not fuse into a keyed lookup, a
//! difference; see `bea_core::plan::physical`).
//!
//! [`execute_plan_materialized`] is the **reference**: the literal step loop, one
//! [`Table`] per plan step, all of them alive until the end. Every × materializes its
//! full product and every σ filters the table it is given; nothing is fused, and no
//! code is shared with lowering, so it runs every logical plan — those lowering refuses
//! included. It takes no options and serves no query; the property
//! suites and `bea-bench`'s scenario tests compare the pipeline against it — both
//! perform the same index lookups and fetch the same tuples; see
//! [`AccessStats::same_data_access`].

use crate::ops;
use crate::stats::AccessStats;
use crate::table::Table;
use bea_core::error::{Error, Result};
use bea_core::plan::{lower_plan, PhysicalPlan, PlanOp, Predicate, QueryPlan};
use bea_core::value::Row;
use bea_storage::Store;
use std::collections::BTreeSet;

/// Options controlling plan execution: there are none left. The struct stays, empty and
/// `#[non_exhaustive]`, only because the benchmark harness still passes one to
/// [`execute_physical_on`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[non_exhaustive]
pub struct ExecOptions {}

impl ExecOptions {
    /// The options.
    pub fn new() -> Self {
        Self::default()
    }

    /// Does nothing: a query runs on the thread that asks for it. Kept only for the
    /// benchmark harness.
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }
}

/// Execute an already-lowered physical plan against a store (the options change
/// nothing).
pub fn execute_physical_on(
    plan: &PhysicalPlan,
    store: Store<'_>,
    _options: &ExecOptions,
) -> Result<(Table, AccessStats)> {
    ops::execute(plan, store)
}

/// Execute a plan against a store: lower it ([`lower_plan`], which never looks at the
/// store) and run the physical plan.
pub fn execute_plan(plan: &QueryPlan, store: Store<'_>) -> Result<(Table, AccessStats)> {
    ops::execute(&lower_plan(plan)?, store)
}

/// The reference executor — the literal step loop: every plan step produces a full
/// [`Table`], all of which stay resident until the end (reflected in
/// `peak_rows_resident`), and every × materializes `|left| · |right|` rows (reflected
/// in `product_rows_materialized`).
pub fn execute_plan_materialized(
    plan: &QueryPlan,
    store: Store<'_>,
) -> Result<(Table, AccessStats)> {
    plan.validate()?;
    validate_fetches_for(plan, store)?;
    let mut stats = AccessStats::default();
    let mut resident: u64 = 0;
    let mut results: Vec<Table> = Vec::with_capacity(plan.len());

    for step in plan.steps() {
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
                    let (fetched, _) = store.fetch_iter(*constraint_index, &key)?;
                    stats.record_fetched(relation, fetched.len() as u64);
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
        // The reference runs a difference; the streaming engine refuses it, naming T3.
        let (_, _, idb) = setup();
        let mut b = bea_core::plan::PlanBuilder::new();
        let one = b.constant(Value::int(1), "x");
        let two = b.constant(Value::int(2), "x");
        let union = b.union(one, two);
        let diff = b.difference(union, two);
        let renamed = b.rename(diff, vec!["y".into()]);
        let plan = b.finish("Q", renamed).unwrap();
        match execute_plan(&plan, &idb) {
            Err(Error::InvalidPlan { reason }) => {
                assert!(reason.starts_with("step T3 is a difference"), "{reason}")
            }
            other => panic!("a difference must be refused, got {other:?}"),
        }
        let (result, _) = execute_plan_materialized(&plan, &idb).unwrap();
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

    /// Hand-build the shape plan synthesis emits for every fetch, `σ[k = a](keys ×
    /// fetch)`, where the fetch reads `R(a → b)` keyed by the `keys` column.
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
        // the source key.
        let sel = b.select(prod, vec![Predicate::ColEqCol(0, 1)]);
        b.finish("Q", sel).unwrap()
    }

    #[test]
    fn deferred_product_peephole_is_transparent() {
        let (_, _, idb) = setup();
        let plan = keyed_join_plan();

        let (reference, reference_stats) = execute_plan_materialized(&plan, &idb).unwrap();
        let (streamed, streamed_stats) = execute_plan(&plan, &idb).unwrap();

        // The reference computes the literal `σ[k = a](keys × fetch)`, and the pipeline's
        // fused keyed lookup yields the same rows…
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
        // …with identical data access: fusion changes join strategy, not fetches.
        assert_eq!(reference_stats.tuples_fetched, 3);
        assert!(reference_stats.same_data_access(&streamed_stats));

        // The reference materializes the literal cross product, |keys| · |fetched| =
        // 2 · 3 rows; the pipeline never materializes it.
        assert_eq!(reference_stats.product_rows_materialized, 6);
        assert_eq!(streamed_stats.product_rows_materialized, 0);
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
        let (streamed, streamed_stats) = execute_plan(&plan, &idb).unwrap();

        assert_eq!(
            reference.row_set(),
            [vec![Value::int(1)], vec![Value::int(2)]]
                .into_iter()
                .collect()
        );
        assert_eq!(reference.row_set(), streamed.row_set());
        assert!(reference_stats.same_data_access(&streamed_stats));
        // The reference materializes every product of the plan literally, the
        // data-dependent `source × fetch` ones included, so it holds more product rows
        // than the plan has product nodes. The pipeline materializes none: lowering
        // fuses `source × fetch` into keyed lookups and runs `T × {c}` as an append.
        let products = plan
            .steps()
            .iter()
            .filter(|s| matches!(s.op, PlanOp::Product { .. }))
            .count() as u64;
        assert!(reference_stats.product_rows_materialized > products);
        assert_eq!(streamed_stats.product_rows_materialized, 0);
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

        let (streamed, streamed_stats) = execute_plan(&plan, &idb).unwrap();
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
        // Exercise union (with an ∅ branch), product, the keyed lookup with a residual,
        // projection, dedup and rename through the pipeline on a hand-built plan.
        let (_, _, idb) = setup();
        let mut b = bea_core::plan::PlanBuilder::new();
        let one = b.constant(Value::int(1), "x");
        let two = b.constant(Value::int(2), "x");
        let three = b.constant(Value::int(3), "x");
        let none = b.empty(1);
        let union = b.union(one, two);
        let union = b.union(union, three);
        let union = b.union(union, none);
        let tag = b.constant(Value::int(1), "t");
        let pair = b.product(union, tag);
        let fetched = b.fetch(
            pair,
            vec![0],
            "R",
            vec![0],
            vec![1],
            0,
            vec!["a".into(), "b".into()],
        );
        let joined = b.product(pair, fetched);
        let tied = vec![
            Predicate::ColEqCol(0, 2),
            Predicate::ColEqConst(3, Value::int(10)),
        ];
        let sel = b.select(joined, tied);
        let proj = b.project(sel, vec![0]);
        let renamed = b.rename(proj, vec!["y".into()]);
        let plan = b.finish("Q", renamed).unwrap();

        let (streamed, _) = execute_plan(&plan, &idb).unwrap();
        let (materialized, _) = execute_plan_materialized(&plan, &idb).unwrap();
        assert_eq!(streamed.row_set(), materialized.row_set());
        assert_eq!(
            streamed.row_set(),
            [vec![Value::int(1)], vec![Value::int(2)]]
                .into_iter()
                .collect()
        );
        assert_eq!(streamed.columns(), &["y".to_owned()]);
    }

    #[test]
    fn exec_options_builder_round_trips() {
        assert_eq!(ExecOptions::new(), ExecOptions::default());
        let pinned = ExecOptions::new().with_threads(4);
        assert_eq!(pinned, ExecOptions::new(), "a thread count changes nothing");
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
