//! The bounded plan executor.
//!
//! Executes a [`QueryPlan`] against a [`Store`]. Every `fetch` goes through the hash
//! index of its backing access constraint; nothing in this executor ever scans a
//! relation, so the amount of data read is exactly what the plan's cost model bounds.
//!
//! [`execute_plan`] lowers the plan ([`lower_plan`], which adds the δs set semantics
//! needs) and [`execute_physical_on`] runs a lowered plan through the batch pipeline in
//! [`crate::ops`]: intermediate results flow through one tree of operators in bounded
//! batches, and only the output is materialized, so peak memory residency tracks the
//! access-schema bounds. Both run the query on the calling thread. Lowering refuses only
//! a plan [`QueryPlan::validate`] refuses (a step read twice, a column out of range); a
//! fetch the store cannot serve (an unknown constraint, another relation than its
//! constraint's) is refused before the run, by the one check both executors share.
//!
//! [`execute_plan_materialized`] is the **reference**: the literal step loop, one
//! [`Table`] per plan step, all of them alive until the end, every one a set. A keyed
//! join runs as the paper writes it — the fetch of the source's distinct keys, the full
//! product of the source and the fetched table, then σ — and `T × {c}` as a product
//! too; a δ, which only a lowered plan holds, dedups its source again. No code is shared
//! with lowering. It takes no options and serves no query; the property suites and
//! `bea-bench`'s scenario tests compare the pipeline against it — both perform the same
//! index lookups and fetch the same tuples; see [`AccessStats::same_data_access`] — and
//! hold a plan and its lowering to the same answer under it.

use crate::ops;
use crate::stats::AccessStats;
use crate::table::Table;
use bea_core::error::{Error, Result};
use bea_core::plan::{lower_plan, PlanOp, Predicate, QueryPlan};
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

/// Execute a plan [`lower_plan`] returned against a store (the options change
/// nothing).
pub fn execute_physical_on(
    plan: &QueryPlan,
    store: Store<'_>,
    _options: &ExecOptions,
) -> Result<(Table, AccessStats)> {
    ops::execute(plan, store)
}

/// Execute a plan against a store: lower it ([`lower_plan`], which never looks at the
/// store) and run the lowered plan.
pub fn execute_plan(plan: &QueryPlan, store: Store<'_>) -> Result<(Table, AccessStats)> {
    ops::execute(&lower_plan(plan)?, store)
}

/// The reference executor — the literal step loop: every plan step produces a full
/// [`Table`], all of which stay resident until the end (reflected in
/// `peak_rows_resident`), and every × materializes `|left| · |right|` rows (reflected
/// in `product_rows_materialized`).
///
/// A test oracle, public because `tests/properties.rs` holds the streaming executor's
/// answers and data access to it.
pub fn execute_plan_materialized(
    plan: &QueryPlan,
    store: Store<'_>,
) -> Result<(Table, AccessStats)> {
    ops::validate_for(plan, store)?;
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
            PlanOp::KeyedJoin {
                source,
                key_cols,
                relation,
                positions,
                constraint_index,
                residual,
            } => {
                let src = &results[*source];
                // fetch(X ∈ T, R, X ∪ Y), over distinct keys only: fetching the same key
                // twice reads the same data.
                let keys: BTreeSet<Row> = src
                    .rows()
                    .iter()
                    .map(|row| key_cols.iter().map(|&c| row[c].clone()).collect())
                    .collect();
                // Every candidate key projection is cloned before the set dedups.
                stats.values_cloned += (src.len() * key_cols.len()) as u64;
                let mut fetched = Table::new(step.columns[src.arity()..].to_vec());
                for key in keys {
                    stats.index_lookups += 1;
                    let (tuples, _) = store.fetch_iter(*constraint_index, &key)?;
                    stats.record_fetched(relation, tuples.len() as u64);
                    stats.values_cloned += (tuples.len() * positions.len()) as u64;
                    for tuple in tuples {
                        fetched.push(positions.iter().map(|&p| tuple[p].clone()).collect());
                    }
                }
                stats.fetch_ops += 1;
                dedup_counted(&mut fetched, &mut stats);
                // T × fetch, in full.
                let mut product = Table::new(step.columns.clone());
                for lrow in src.rows() {
                    for rrow in fetched.rows() {
                        let mut row = lrow.clone();
                        row.extend(rrow.iter().cloned());
                        product.push(row);
                    }
                }
                stats.product_rows_materialized += (src.len() * fetched.len()) as u64;
                stats.values_cloned += (product.len() * product.arity()) as u64;
                // σ[key ties ∧ residual].
                let ties = (key_cols.iter().enumerate())
                    .map(|(k, &c)| Predicate::ColEqCol(c, src.arity() + k));
                let predicates: Vec<Predicate> = ties.chain(residual.iter().cloned()).collect();
                let mut out = Table::new(step.columns.clone());
                for row in product.rows() {
                    let keep = predicates.iter().all(|p| match p {
                        Predicate::ColEqCol(a, b) => row[*a] == row[*b],
                        Predicate::ColEqConst(a, c) => &row[*a] == c,
                    });
                    if keep {
                        out.push(row.clone());
                    }
                }
                stats.values_cloned += (out.len() * out.arity()) as u64;
                // The fetched table and the product are steps of the literal plan too.
                resident += (fetched.len() + product.len()) as u64;
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
            PlanOp::AppendConst { source, value } => {
                let src = &results[*source];
                let mut out = Table::new(step.columns.clone());
                for row in src.rows() {
                    let mut row = row.clone();
                    row.push(value.clone());
                    out.push(row);
                }
                stats.product_rows_materialized += src.len() as u64;
                stats.values_cloned += (out.len() * out.arity()) as u64;
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
            PlanOp::Dedup { source } => {
                let src = &results[*source];
                let mut out = Table::with_rows(step.columns.clone(), src.rows().to_vec());
                stats.values_cloned += (out.len() * out.arity()) as u64;
                dedup_counted(&mut out, &mut stats);
                out
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

#[cfg(test)]
pub(crate) mod tests {
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
    fn fetch_with_unknown_constraint_fails() {
        let (_, _, idb) = setup();
        let mut b = bea_core::plan::PlanBuilder::new();
        let k = b.constant(Value::int(1), "x");
        let labels = vec!["a".into(), "b".into()];
        let f = b.keyed_join(k, vec![0], "R", vec![0], vec![1], 99, labels, vec![]);
        let plan = b.finish("Q", f).unwrap();
        assert!(execute_plan(&plan, &idb).is_err());
    }

    /// The keyed join `σ[k = a](keys × fetch(a ∈ keys, R, b))` over the keys `{1, 2}`.
    fn keyed_join_plan() -> bea_core::plan::QueryPlan {
        let mut b = bea_core::plan::PlanBuilder::new();
        let k1 = b.constant(Value::int(1), "k");
        let k2 = b.constant(Value::int(2), "k");
        let keys = b.union(k1, k2);
        let labels = vec!["a".into(), "b".into()];
        let joined = b.keyed_join(keys, vec![0], "R", vec![0], vec![1], 0, labels, vec![]);
        b.finish("Q", joined).unwrap()
    }

    #[test]
    fn deferred_product_peephole_is_transparent() {
        let (_, _, idb) = setup();
        let plan = keyed_join_plan();

        let (reference, reference_stats) = execute_plan_materialized(&plan, &idb).unwrap();
        let (streamed, streamed_stats) = execute_plan(&plan, &idb).unwrap();

        // The reference computes the literal `σ[k = a](keys × fetch)`, and the pipeline's
        // keyed lookup yields the same rows…
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
        // …with identical data access: the lookup changes join strategy, not fetches.
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
        // than the plan has products. The pipeline materializes none: a keyed join runs
        // as a keyed lookup and `T × {c}` as an append.
        let products = plan
            .steps()
            .iter()
            .filter(|s| matches!(s.op, PlanOp::KeyedJoin { .. } | PlanOp::AppendConst { .. }))
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
        // projection and dedup through the pipeline on a hand-built plan.
        let (_, _, idb) = setup();
        let mut b = bea_core::plan::PlanBuilder::new();
        let one = b.constant(Value::int(1), "x");
        let two = b.constant(Value::int(2), "x");
        let three = b.constant(Value::int(3), "x");
        let none = b.empty(1);
        let union = b.union(one, two);
        let union = b.union(union, three);
        let union = b.union(union, none);
        let pair = b.append_const(union, Value::int(1), "t");
        let labels = vec!["a".into(), "b".into()];
        let residual = vec![Predicate::ColEqConst(3, Value::int(10))];
        let sel = b.keyed_join(pair, vec![0], "R", vec![0], vec![1], 0, labels, residual);
        let proj = b.project(sel, vec![0]);
        let plan = b.finish("Q", proj).unwrap();

        let (streamed, _) = execute_plan(&plan, &idb).unwrap();
        let (materialized, _) = execute_plan_materialized(&plan, &idb).unwrap();
        assert_eq!(streamed.row_set(), materialized.row_set());
        assert_eq!(
            streamed.row_set(),
            [vec![Value::int(1)], vec![Value::int(2)]]
                .into_iter()
                .collect()
        );
        assert_eq!(streamed.columns(), &["x".to_owned()]);
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
