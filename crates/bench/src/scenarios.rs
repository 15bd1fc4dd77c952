//! Shared experiment scenarios: generated database + access schema + queries, packaged
//! so `exp_table1`, the perf record, the claims and the tests measure exactly the same
//! thing.

use crate::report::{BenchEntry, PipelineBenchReport};
use bea_core::access::AccessSchema;
use bea_core::error::Result;
use bea_core::plan::{bounded_plan, bounded_plan_ucq, lower_plan, QueryPlan};
use bea_core::query::cq::ConjunctiveQuery;
use bea_core::query::ucq::UnionQuery;
use bea_core::reason::ReasonConfig;
use bea_core::schema::Catalog;
use bea_engine::{execute_physical_on, execute_plan, AccessStats, ExecOptions, SharedStore};
use bea_storage::IndexedDatabase;
use bea_workload::{accidents, ecommerce, graph};

/// The Example 1.1 scenario at a given scale: an indexed accidents database, the query
/// Q0 and its boundedly evaluable plan.
pub struct AccidentsScenario {
    /// The relational schema.
    pub catalog: Catalog,
    /// ψ1–ψ4.
    pub schema: AccessSchema,
    /// The indexed database (satisfies ψ1–ψ4 by construction).
    pub indexed: IndexedDatabase,
    /// Q0 anchored at a district/day present in the data.
    pub q0: ConjunctiveQuery,
    /// The boundedly evaluable plan for Q0.
    pub plan: QueryPlan,
}

impl AccidentsScenario {
    /// Build the scenario with roughly `total_tuples` tuples.
    pub fn with_total_tuples(total_tuples: u64, seed: u64) -> Result<Self> {
        let catalog = accidents::catalog();
        let schema = accidents::access_schema(&catalog);
        let config = accidents::AccidentsConfig::with_total_tuples(total_tuples, seed);
        let db = accidents::generate(&config)?;
        let q0 = accidents::q0(
            &catalog,
            &accidents::district_value(0),
            &accidents::date_value(1),
        )?;
        let plan = bounded_plan(&q0, &schema)?;
        let indexed = IndexedDatabase::build(db, schema.clone())?;
        Ok(Self {
            catalog,
            schema,
            indexed,
            q0,
            plan,
        })
    }
}

/// The graph-search scenario: an indexed social graph plus a personalized pattern query
/// (anchored at person 1) and the equivalent global pattern for contrast.
pub struct GraphScenario {
    /// The relational schema of the graph encoding.
    pub catalog: Catalog,
    /// Degree-bound access schema.
    pub schema: AccessSchema,
    /// The indexed graph.
    pub indexed: IndexedDatabase,
    /// The personalized pattern (friends of person 1 in NYC who like cycling).
    pub personalized: ConjunctiveQuery,
    /// Its boundedly evaluable plan.
    pub plan: QueryPlan,
    /// The global (unanchored) pattern — not boundedly evaluable.
    pub global: ConjunctiveQuery,
}

impl GraphScenario {
    /// Build the scenario for a graph with the given number of persons.
    pub fn with_persons(num_persons: u32, seed: u64) -> Result<Self> {
        let catalog = graph::catalog();
        let config = graph::GraphConfig {
            num_persons,
            max_degree: 64,
            avg_degree: 16,
            num_cities: 5,
            num_tags: 10,
            max_likes: 5,
            seed,
        };
        let schema = graph::access_schema(&catalog, &config);
        let db = graph::generate(&config)?;
        let personalized =
            graph::personalized_query(&catalog, 1, &graph::city_value(0), &graph::tag_value(0))?;
        let plan = bounded_plan(&personalized, &schema)?;
        let global = graph::global_pattern(&catalog, &graph::tag_value(0))?;
        let indexed = IndexedDatabase::build(db, schema.clone())?;
        Ok(Self {
            catalog,
            schema,
            indexed,
            personalized,
            plan,
            global,
        })
    }
}

/// The e-commerce scenario: an indexed product/order/customer database plus the
/// "orders of one customer, with product prices" query anchored at a known customer —
/// the shape bounded specialization produces (Section 5) once the user is fixed.
pub struct EcommerceScenario {
    /// The relational schema.
    pub catalog: Catalog,
    /// Key + per-category + per-user constraints.
    pub schema: AccessSchema,
    /// The indexed database (satisfies the schema by construction).
    pub indexed: IndexedDatabase,
    /// The anchored orders-of-customer query.
    pub query: ConjunctiveQuery,
    /// Its boundedly evaluable plan.
    pub plan: QueryPlan,
}

impl EcommerceScenario {
    /// Build the scenario for the given number of customers.
    pub fn with_customers(num_customers: u32, seed: u64) -> Result<Self> {
        let catalog = ecommerce::catalog();
        let schema = ecommerce::access_schema(&catalog);
        let config = ecommerce::EcommerceConfig {
            num_customers,
            seed,
            ..ecommerce::EcommerceConfig::default()
        };
        let db = ecommerce::generate(&config)?;
        // "Prices of everything customer 3 ordered" — covered once uid is a constant.
        let query = ConjunctiveQuery::builder("OrdersOf3")
            .head(["price"])
            .atom("Orders", ["oid", "uid", "pid", "day"])
            .atom("Product", ["pid", "category", "brand", "price"])
            .eq("uid", 3i64)
            .build(&catalog)?;
        let plan = bounded_plan(&query, &schema)?;
        let indexed = IndexedDatabase::build(db, schema.clone())?;
        Ok(Self {
            catalog,
            schema,
            indexed,
            query,
            plan,
        })
    }
}

/// The batch scenario: a union of `branches` independently anchored Q0 queries over
/// one accidents database — the "batch of personalized queries" shape, submitted as
/// one query. The union streams, so the batch is one pipeline.
pub struct ParallelScenario {
    /// The relational schema.
    pub catalog: Catalog,
    /// ψ1–ψ4.
    pub schema: AccessSchema,
    /// The indexed database.
    pub indexed: IndexedDatabase,
    /// The union of anchored Q0 branches.
    pub query: UnionQuery,
    /// Its boundedly evaluable (union) plan.
    pub plan: QueryPlan,
    /// The lowered plan: one pipeline.
    pub lowered: QueryPlan,
}

impl ParallelScenario {
    /// Build the scenario with `branches` anchored branches over roughly
    /// `total_tuples` tuples.
    pub fn with_branches(branches: u32, total_tuples: u64, seed: u64) -> Result<Self> {
        let catalog = accidents::catalog();
        let schema = accidents::access_schema(&catalog);
        let config = accidents::AccidentsConfig::with_total_tuples(total_tuples, seed);
        let db = accidents::generate(&config)?;
        let queries: Vec<ConjunctiveQuery> = (0..branches)
            .map(|day| {
                accidents::q0(
                    &catalog,
                    &accidents::district_value(day % config.num_districts),
                    &accidents::date_value(day % config.num_days),
                )
            })
            .collect::<Result<_>>()?;
        let query = UnionQuery::from_branches("Q0batch", queries)?;
        let plan = bounded_plan_ucq(&query, &schema, &ReasonConfig::default())?;
        let lowered = lower_plan(&plan)?;
        let indexed = IndexedDatabase::build(db, schema.clone())?;
        Ok(Self {
            catalog,
            schema,
            indexed,
            query,
            plan,
            lowered,
        })
    }
}

/// The heavy-chain scenario: one *heavy* query instead of many small ones. A single
/// anchor key fans out to `fan_out` rows with distinct join keys, which a second keyed
/// join probes, so one pipeline probes `fan_out` keys over `fan_out / 1024` batches.
pub struct HeavyChainScenario {
    /// The relational schema (R(a, b) fan-out, S(k, v) lookups).
    pub catalog: Catalog,
    /// a → b with bound `fan_out`; k → v with bound 1.
    pub schema: AccessSchema,
    /// The indexed database.
    pub indexed: IndexedDatabase,
    /// The two-hop anchored lookup chain.
    pub plan: QueryPlan,
    /// The lowered plan: one pipeline.
    pub lowered: QueryPlan,
    /// Rows the anchor fans out to (= distinct keys the second hop fills).
    pub fan_out: u32,
}

impl HeavyChainScenario {
    /// Build the scenario with the given fan-out.
    pub fn with_fan_out(fan_out: u32, seed: u64) -> Result<Self> {
        use bea_core::access::AccessConstraint;
        use bea_core::plan::PlanBuilder;
        use bea_core::value::Value;

        let catalog = {
            let mut c = Catalog::new();
            c.declare("R", ["a", "b"])?;
            c.declare("S", ["k", "v"])?;
            c
        };
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new(&catalog, "R", &["a"], &["b"], u64::from(fan_out))?,
            AccessConstraint::new(&catalog, "S", &["k"], &["v"], 1u64)?,
        ]);
        let offset = 100_000 + (seed as i64 % 1_000);
        let mut db = bea_storage::Database::new(catalog.clone());
        db.extend(
            "R",
            (0..i64::from(fan_out)).map(|i| vec![Value::int(1), Value::int(offset + i)]),
        )?;
        db.extend(
            "S",
            (0..i64::from(fan_out)).map(|i| vec![Value::int(offset + i), Value::int(i)]),
        )?;
        let indexed = IndexedDatabase::build(db, schema.clone())?;

        let plan = {
            let mut b = PlanBuilder::new();
            let labels = |x: &str, y: &str| vec![x.into(), y.into()];
            let anchor = b.constant(Value::int(1), "x");
            let ab = labels("a", "b");
            let r = b.keyed_join(anchor, vec![0], "R", vec![0], vec![1], 0, ab, vec![]);
            let r = b.project(r, vec![1, 2]);
            let kv = labels("k", "v");
            let joined = b.keyed_join(r, vec![1], "S", vec![0], vec![1], 1, kv, vec![]);
            let out = b.project(joined, vec![1, 3]);
            b.finish("HeavyChain", out)?
        };
        let lowered = lower_plan(&plan)?;
        Ok(Self {
            catalog,
            schema,
            indexed,
            plan,
            lowered,
            fan_out,
        })
    }
}

/// The multi-query service scenario: one shared accidents store plus a mixed batch of
/// priced queries — an *admitted* set of independently anchored Q0 plans and a
/// *rejected* set of Q0-storm unions whose static fetch bound exceeds the budget. The
/// budget is derived from the cost model itself (the largest admitted bound), so the
/// accept/reject split is a property of the plans, not a tuned constant: the session's
/// admission controller must admit every `admitted` plan and refuse every `rejected`
/// one, at any load and under any submission interleaving. This is the workload shape
/// the `bead` daemon serves: concurrent clients sharing one store and one fetch budget.
pub struct ConcurrentTrafficScenario {
    /// The relational schema.
    pub catalog: Catalog,
    /// ψ1–ψ4.
    pub schema: AccessSchema,
    /// The shared store the session's workers run against.
    pub store: SharedStore,
    /// Plans priced within the budget — every one must be admitted.
    pub admitted: Vec<QueryPlan>,
    /// Plans priced above the budget — every one must be rejected.
    pub rejected: Vec<QueryPlan>,
    /// The aggregate fetch budget: the largest admitted bound.
    pub budget: u64,
}

impl ConcurrentTrafficScenario {
    /// Build the scenario: `admitted` anchored Q0 plans and `rejected` three-branch
    /// Q0 unions over roughly `total_tuples` tuples.
    pub fn with_traffic(
        admitted: u32,
        rejected: u32,
        total_tuples: u64,
        seed: u64,
    ) -> Result<Self> {
        let catalog = accidents::catalog();
        let schema = accidents::access_schema(&catalog);
        let config = accidents::AccidentsConfig::with_total_tuples(total_tuples, seed);
        let db = accidents::generate(&config)?;
        let indexed = IndexedDatabase::build(db, schema.clone())?;
        let db_size = indexed.size();

        let admitted: Vec<QueryPlan> = (0..admitted)
            .map(|day| {
                let q0 = accidents::q0(
                    &catalog,
                    &accidents::district_value(day % config.num_districts),
                    &accidents::date_value(day % config.num_days),
                )?;
                bounded_plan(&q0, &schema)
            })
            .collect::<Result<_>>()?;
        let rejected: Vec<QueryPlan> = (0..rejected)
            .map(|i| {
                let branches: Vec<ConjunctiveQuery> = (0..3u32)
                    .map(|j| {
                        accidents::q0(
                            &catalog,
                            &accidents::district_value((i + j) % config.num_districts),
                            &accidents::date_value((i * 3 + j) % config.num_days),
                        )
                    })
                    .collect::<Result<_>>()?;
                let union = UnionQuery::from_branches(format!("Q0storm{i}"), branches)?;
                bounded_plan_ucq(&union, &schema, &ReasonConfig::default())
            })
            .collect::<Result<_>>()?;

        // The budget is the cost model's own split point: every single-branch plan
        // fits, every three-branch storm prices ~3× above it.
        let budget = admitted
            .iter()
            .map(|plan| plan.cost(&schema, db_size).max_fetched_tuples)
            .max()
            .unwrap_or(1)
            .max(1);
        for plan in &rejected {
            let bound = plan.cost(&schema, db_size).max_fetched_tuples;
            assert!(
                bound > budget,
                "storm plan {} prices at {bound}, within the budget {budget} — \
                 the scenario's accept/reject split collapsed",
                plan.query_name()
            );
        }
        Ok(Self {
            catalog,
            schema,
            store: SharedStore::from(indexed),
            admitted,
            rejected,
            budget,
        })
    }
}

/// The seed every scenario of the perf record is built with. The scales are kept
/// moderate so building the record stays well under a second in release mode.
pub const BENCH_REPORT_SEED: u64 = 42;

/// Build the `BENCH_pipeline.json` record: the [`scenario_record`] and the paper's
/// [`claims`](crate::claims::claims).
pub fn pipeline_bench_report() -> Result<PipelineBenchReport> {
    let mut report = scenario_record()?;
    report.claims = crate::claims::claims()?;
    Ok(report)
}

/// The record's `scenarios` section, its `claims` left empty: run the streaming
/// pipeline once per scenario and keep its deterministic counters (access, residency,
/// copy traffic, probe-path buffer demand). Every run is alone on its
/// thread, so the section does not depend on the machine.
pub fn scenario_record() -> Result<PipelineBenchReport> {
    let accidents = AccidentsScenario::with_total_tuples(20_000, BENCH_REPORT_SEED)?;
    let graph = GraphScenario::with_persons(500, BENCH_REPORT_SEED)?;
    let ecommerce = EcommerceScenario::with_customers(300, BENCH_REPORT_SEED)?;
    let batch = ParallelScenario::with_branches(6, 20_000, BENCH_REPORT_SEED)?;
    let chain = HeavyChainScenario::with_fan_out(16_384, BENCH_REPORT_SEED)?;

    let mut report = PipelineBenchReport::default();
    let cases: [(&str, &QueryPlan, &IndexedDatabase); 3] = [
        ("accidents_q0", &accidents.plan, &accidents.indexed),
        ("graph_personalized", &graph.plan, &graph.indexed),
        ("ecommerce_orders", &ecommerce.plan, &ecommerce.indexed),
    ];
    for (name, plan, indexed) in cases {
        let (_, stats) = execute_plan(plan, indexed)?;
        report.insert(name, BenchEntry::from(&stats));
    }
    // The batch and the heavy chain, from their lowered plans.
    let lowered_cases: [(&str, &QueryPlan, &IndexedDatabase); 2] = [
        ("parallel_q0_batch_6", &batch.lowered, &batch.indexed),
        ("heavy_chain_fan_16384", &chain.lowered, &chain.indexed),
    ];
    for (name, lowered, store) in lowered_cases {
        let (_, stats) = execute_physical_on(lowered, store, &ExecOptions::new())?;
        report.insert(name, BenchEntry::from(&stats));
    }
    // The multi-query service scenario, recorded from serial runs of the *admitted*
    // set (the session is asserted elsewhere to reproduce them exactly, so the record
    // stays schedule-independent): totals summed across the admitted queries, the
    // residency peak the largest single-query peak.
    let traffic = ConcurrentTrafficScenario::with_traffic(4, 2, 20_000, BENCH_REPORT_SEED)?;
    let mut total = AccessStats::default();
    for plan in &traffic.admitted {
        total += execute_plan(plan, traffic.store.store())?.1;
    }
    report.insert("service_mixed_traffic", BenchEntry::from(&total));
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_engine::{
        eval_cq, eval_ucq, execute_plan_materialized, Session, SessionConfig, SubmitError,
    };

    impl ConcurrentTrafficScenario {
        /// Run the full mixed batch through a fresh budgeted `Session`, every query
        /// submitted from its own thread. Returns how many were admitted and how many
        /// rejected; errors from admitted queries propagate.
        fn drive_session(&self) -> Result<(usize, usize)> {
            let session = Session::new(
                self.store.clone(),
                SessionConfig::new().with_fetch_budget(self.budget),
            );
            let outcomes: Vec<bool> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .admitted
                    .iter()
                    .chain(&self.rejected)
                    .map(|plan| {
                        let session = &session;
                        scope.spawn(move || match session.submit(plan) {
                            Ok(handle) => handle.wait().map(|_| true),
                            Err(SubmitError::Rejected { .. }) => Ok(false),
                            Err(SubmitError::Invalid(error)) => Err(error),
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("submitter thread"))
                    .collect::<Result<_>>()
            })?;
            let peak = session.admission_stats().peak_admitted_bound;
            assert!(
                peak <= self.budget,
                "admitted bounds peaked at {peak} over the budget {}",
                self.budget
            );
            session.shutdown();
            let admitted = outcomes.iter().filter(|&&ok| ok).count();
            Ok((admitted, outcomes.len() - admitted))
        }
    }

    /// The perf record is complete, deterministic (same counters on a second build) and
    /// equal, byte for byte, to the committed `BENCH_pipeline.json`: a counter or a
    /// claim that moves by one in either direction fails here until `exp_table1`
    /// rewrites the record and the new numbers are committed with the change that
    /// moved them. Only the counters are built twice: the claims hold no allocation
    /// count that a warm thread could move, and they take seconds in a debug build.
    #[test]
    fn pipeline_bench_report_is_deterministic_and_complete() {
        let report = pipeline_bench_report().unwrap();
        for scenario in [
            "accidents_q0",
            "graph_personalized",
            "ecommerce_orders",
            "parallel_q0_batch_6",
            "heavy_chain_fan_16384",
            "service_mixed_traffic",
        ] {
            let entry = report
                .scenarios
                .get(scenario)
                .unwrap_or_else(|| panic!("missing scenario {scenario}"));
            assert!(entry.rows_fetched > 0, "{scenario} fetched nothing");
            // The personalized graph query answers nothing and reads its two one-tuple
            // keys where they lie in the store, so it holds no row, and its memo-free
            // lookups hand the store their keys in place, so it clones no value.
            let holds_rows = scenario != "graph_personalized";
            assert_eq!(entry.peak_rows_resident > 0, holds_rows, "{scenario}");
            assert_eq!(entry.values_cloned > 0, holds_rows, "{scenario}");
        }
        let again = scenario_record().unwrap();
        assert_eq!(
            report.scenarios, again.scenarios,
            "the deterministic counters must reproduce"
        );
        assert_eq!(
            report.to_json(),
            include_str!("../../../BENCH_pipeline.json"),
            "BENCH_pipeline.json is stale: run `cargo run --release -p bea-bench --bin \
             exp_table1` and commit the rewritten record"
        );
    }

    #[test]
    fn accidents_scenario_is_consistent() {
        let scenario = AccidentsScenario::with_total_tuples(5_000, 3).unwrap();
        assert!(scenario.indexed.satisfies_schema());
        assert!(scenario.plan.is_bounded_under(&scenario.schema));
        let (bounded, stats) = execute_plan(&scenario.plan, &scenario.indexed).unwrap();
        let (naive, _) = eval_cq(&scenario.q0, scenario.indexed.database()).unwrap();
        assert!(bounded.same_rows(&naive));
        assert!(stats.tuples_fetched < scenario.indexed.size());
        assert_eq!(scenario.catalog.len(), 3);
    }

    #[test]
    fn graph_scenario_is_consistent() {
        let scenario = GraphScenario::with_persons(300, 5).unwrap();
        assert!(scenario.indexed.satisfies_schema());
        let (bounded, _) = execute_plan(&scenario.plan, &scenario.indexed).unwrap();
        let (naive, _) = eval_cq(&scenario.personalized, scenario.indexed.database()).unwrap();
        assert!(bounded.same_rows(&naive));
        assert!(!bea_core::cover::is_bounded(
            &scenario.global,
            &scenario.schema
        ));
    }

    #[test]
    fn ecommerce_scenario_is_consistent() {
        let scenario = EcommerceScenario::with_customers(120, 7).unwrap();
        assert!(scenario.indexed.satisfies_schema());
        assert!(scenario.plan.is_bounded_under(&scenario.schema));
        let (bounded, stats) = execute_plan(&scenario.plan, &scenario.indexed).unwrap();
        let (naive, _) = eval_cq(&scenario.query, scenario.indexed.database()).unwrap();
        assert!(bounded.same_rows(&naive));
        assert!(!bounded.is_empty(), "customer 3 should have orders");
        assert!(stats.tuples_fetched < scenario.indexed.size());
        assert_eq!(scenario.catalog.len(), 3);
    }

    /// The acceptance property of the streaming rewrite, checked on every scenario
    /// family: same answers, same data access, strictly lower peak residency.
    fn assert_streaming_beats_materialized(
        plan: &bea_core::plan::QueryPlan,
        indexed: &IndexedDatabase,
    ) {
        let (streamed, streamed_stats) = execute_plan(plan, indexed).unwrap();
        let (materialized, materialized_stats) = execute_plan_materialized(plan, indexed).unwrap();
        assert!(streamed.same_rows(&materialized));
        assert!(streamed_stats.same_data_access(&materialized_stats));
        assert!(
            streamed_stats.peak_rows_resident < materialized_stats.peak_rows_resident,
            "streaming peak {} not below materialized peak {}",
            streamed_stats.peak_rows_resident,
            materialized_stats.peak_rows_resident
        );
    }

    #[test]
    fn streaming_residency_win_on_accidents() {
        let scenario = AccidentsScenario::with_total_tuples(5_000, 3).unwrap();
        assert_streaming_beats_materialized(&scenario.plan, &scenario.indexed);
    }

    #[test]
    fn streaming_residency_win_on_graph() {
        let scenario = GraphScenario::with_persons(300, 5).unwrap();
        assert_streaming_beats_materialized(&scenario.plan, &scenario.indexed);
    }

    #[test]
    fn streaming_residency_win_on_ecommerce() {
        let scenario = EcommerceScenario::with_customers(120, 7).unwrap();
        assert_streaming_beats_materialized(&scenario.plan, &scenario.indexed);
    }

    /// At the perf record's scale, on every scenario family, the pipeline answers
    /// exactly what the literal reference answers, through the same data access, and
    /// moves strictly fewer values than it does. Not on near-empty answers: the
    /// 300-person graph at seed 5 answers two tuples, and both executors clone 3 values
    /// for them.
    #[test]
    fn streaming_clones_fewer_values_at_the_record_scale() {
        let accidents = AccidentsScenario::with_total_tuples(20_000, BENCH_REPORT_SEED).unwrap();
        let graph = GraphScenario::with_persons(500, BENCH_REPORT_SEED).unwrap();
        let ecommerce = EcommerceScenario::with_customers(300, BENCH_REPORT_SEED).unwrap();
        for (name, plan, indexed) in [
            ("accidents_q0", &accidents.plan, &accidents.indexed),
            ("graph_personalized", &graph.plan, &graph.indexed),
            ("ecommerce_orders", &ecommerce.plan, &ecommerce.indexed),
        ] {
            let (rows, streamed) = execute_plan(plan, indexed).unwrap();
            let (reference, materialized) = execute_plan_materialized(plan, indexed).unwrap();
            assert!(rows.same_rows(&reference), "{name}: answers differ");
            assert!(
                streamed.same_data_access(&materialized),
                "{name}: data access differs"
            );
            assert!(
                streamed.values_cloned < materialized.values_cloned,
                "{name}: streaming cloned {} values, not below the materialized {}",
                streamed.values_cloned,
                materialized.values_cloned
            );
        }
    }

    /// The heavy chain, at the perf record's fan-out, lowers — so it is one operator
    /// tree, as every lowered plan is — and agrees with the naive evaluator.
    #[test]
    fn heavy_chain_scenario_is_one_pipeline_at_every_thread_count() {
        let scenario = HeavyChainScenario::with_fan_out(16_384, BENCH_REPORT_SEED).unwrap();
        assert!(scenario.indexed.satisfies_schema());
        assert_eq!(scenario.catalog.len(), 2);

        let (table, _) =
            execute_physical_on(&scenario.lowered, &scenario.indexed, &ExecOptions::new()).unwrap();
        assert_eq!(table.len(), scenario.fan_out as usize);
        let (naive, _) =
            eval_cq(&chain_query(&scenario.catalog), scenario.indexed.database()).unwrap();
        assert!(table.same_rows(&naive), "chain disagrees with naive");
    }

    /// The acceptance property of the multi-query service scenario: the cost model
    /// really splits the batch (every admitted plan prices within the budget, every
    /// storm above it), a concurrent budgeted session admits and rejects exactly
    /// those sets, the admitted queries reproduce their serial rows, and the
    /// admitted bounds' high-water mark stays within the budget (asserted inside
    /// `drive_session`).
    #[test]
    fn concurrent_traffic_scenario_splits_exactly_on_the_budget() {
        let traffic = ConcurrentTrafficScenario::with_traffic(4, 2, 10_000, 7).unwrap();
        assert_eq!(traffic.admitted.len(), 4);
        assert_eq!(traffic.rejected.len(), 2);
        let db_size = traffic.store.store().size();
        for plan in &traffic.admitted {
            assert!(
                plan.cost(&traffic.schema, db_size).max_fetched_tuples <= traffic.budget,
                "admitted plan {} prices above the budget",
                plan.query_name()
            );
        }

        let (admitted, rejected) = traffic.drive_session().unwrap();
        assert_eq!(
            (admitted, rejected),
            (4, 2),
            "the session's accept/reject split drifted from the cost model's"
        );

        // The session reproduces the serial rows for every admitted plan.
        let session = Session::new(
            traffic.store.clone(),
            SessionConfig::new().with_fetch_budget(traffic.budget),
        );
        for plan in &traffic.admitted {
            let (serial, serial_stats) = execute_plan(plan, traffic.store.store()).unwrap();
            let (table, stats) = session.submit(plan).unwrap().wait().unwrap();
            assert_eq!(
                table.rows(),
                serial.rows(),
                "rows drifted for {}",
                plan.query_name()
            );
            assert!(
                stats.same_data_access(&serial_stats),
                "data access drifted for {}",
                plan.query_name()
            );
        }
        session.shutdown();
    }

    /// The scenario's chain as a conjunctive query, for the naive differential.
    fn chain_query(catalog: &Catalog) -> bea_core::query::cq::ConjunctiveQuery {
        bea_core::query::cq::ConjunctiveQuery::builder("HeavyChainNaive")
            .head(["b", "v"])
            .atom("R", ["a", "b"])
            .atom("S", ["b", "v"])
            .eq("a", 1i64)
            .build(catalog)
            .unwrap()
    }

    /// The batch, at the perf record's scale, run solo and served by a session it produces the identical table with identical data access, copy
    /// traffic and residency peak, and agrees with the naive evaluator.
    #[test]
    fn parallel_scenario_is_consistent_across_thread_counts() {
        let scenario = ParallelScenario::with_branches(6, 20_000, BENCH_REPORT_SEED).unwrap();
        assert!(scenario.indexed.satisfies_schema());

        let (single, single_stats) = execute_plan(&scenario.plan, &scenario.indexed).unwrap();
        let session = Session::new(scenario.indexed.clone(), SessionConfig::new());
        let (_, served) = session.run(&scenario.plan).unwrap();
        let (served, served_stats) = served.unwrap();
        assert_eq!(single.rows(), served.rows());
        assert!(single_stats.same_data_access(&served_stats));
        assert_eq!(
            served_stats.peak_rows_resident,
            single_stats.peak_rows_resident
        );
        assert_eq!(served_stats.values_cloned, single_stats.values_cloned);
        assert_eq!(served_stats.allocs_per_probe, single_stats.allocs_per_probe);

        let (naive, _) = eval_ucq(&scenario.query, scenario.indexed.database()).unwrap();
        assert!(single.same_rows(&naive));
        assert!(!single.is_empty(), "anchored branches should have answers");
        assert!(single_stats.tuples_fetched < scenario.indexed.size());
    }
}
