//! Property-based tests over randomly generated workloads and databases.
//!
//! Seeded and dependency-free: each property runs a fixed number of cases, and case `i`
//! derives every shape parameter from an `StdRng` seeded by a per-property constant
//! mixed with `i`. Every run therefore explores the same reproducible family of random
//! workloads, and a failure report names the property and case (hence the exact seeds)
//! that produced it.

use bea::core::bounded::{analyze_cq, BoundedConfig, BoundedVerdict};
use bea::core::cover;
use bea::core::envelope::{lower_envelope_cq, upper_envelope_cq, EnvelopeConfig};
use bea::core::plan::{bounded_plan, bounded_plan_for_report, lower_plan};
use bea::core::reason::{instance::eval_cq as eval_cq_small, instance::SmallInstance};
use bea::core::specialize::{generic_template, instantiate, specialize_cq, SpecializeConfig};
use bea::engine::{eval_cq, execute_plan, execute_plan_materialized};
use bea::storage::{discover_constraints, DiscoveryOptions, IndexedDatabase};
use bea::workload::{accidents, ecommerce, graph, querygen};
use bea_core::access::AccessSchema;
use bea_core::query::cq::ConjunctiveQuery;
use bea_core::schema::Catalog;
use bea_core::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Number of randomized cases per property (mirrors the proptest config this suite
/// replaced).
const CASES: u64 = 12;

/// Run `body` for `CASES` deterministic cases, attributing any panic to its case.
fn run_cases(property: &str, tag: u64, mut body: impl FnMut(&mut StdRng)) {
    for case in 0..CASES {
        let seed = tag ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(panic) = outcome {
            eprintln!("property `{property}` failed at case {case} (rng seed {seed:#x})");
            std::panic::resume_unwind(panic);
        }
    }
}

/// Like [`run_cases`], but `body` reports how many interesting instances it exercised;
/// the property must not be vacuous across the whole run (the seeds are fixed, so this
/// is deterministic).
fn run_cases_counting(property: &str, tag: u64, mut body: impl FnMut(&mut StdRng) -> usize) {
    let mut exercised = 0;
    run_cases(property, tag, |rng| {
        exercised += body(rng);
    });
    assert!(
        exercised > 0,
        "property `{property}` never exercised a covered query — generator or coverage broke"
    );
}

/// A small accidents database plus its access schema, parameterized by seed and size.
fn accidents_fixture(seed: u64, days: u32) -> (bea::storage::Database, AccessSchema) {
    let catalog = accidents::catalog();
    let schema = accidents::access_schema(&catalog);
    let db = accidents::generate(&accidents::AccidentsConfig {
        num_days: days,
        avg_accidents_per_day: 15,
        avg_casualties_per_accident: 2,
        num_districts: 5,
        seed,
    })
    .expect("generation succeeds");
    (db, schema)
}

/// A small e-commerce database, its catalog and its access schema.
fn ecommerce_fixture(seed: u64) -> (bea::storage::Database, Catalog, AccessSchema) {
    let catalog = ecommerce::catalog();
    let schema = ecommerce::access_schema(&catalog);
    let db = ecommerce::generate(&ecommerce::EcommerceConfig {
        num_customers: 60,
        num_categories: 5,
        products_per_category: 12,
        avg_orders_per_customer: 6,
        num_cities: 4,
        seed,
    })
    .unwrap();
    (db, catalog, schema)
}

/// A small social graph, its catalog and its access schema.
fn graph_fixture(seed: u64) -> (bea::storage::Database, Catalog, AccessSchema) {
    let catalog = graph::catalog();
    let config = graph::GraphConfig {
        num_persons: 120,
        max_degree: 10,
        avg_degree: 4,
        num_cities: 3,
        num_tags: 5,
        max_likes: 3,
        seed,
    };
    let schema = graph::access_schema(&catalog, &config);
    let db = graph::generate(&config).unwrap();
    (db, catalog, schema)
}

/// `count` random queries over `db`, anchored on values it holds.
fn random_workload(
    catalog: &Catalog,
    schema: &AccessSchema,
    db: &bea::storage::Database,
    count: usize,
    seed: u64,
) -> Vec<ConjunctiveQuery> {
    querygen::random_workload_from_db(
        catalog,
        Some(schema),
        db,
        count,
        &querygen::QueryGenConfig {
            seed,
            ..querygen::QueryGenConfig::default()
        },
    )
    .unwrap()
}

/// The core differential property shared by the three scenario families: for every
/// covered query of a random workload over `db`, the **streaming** bounded executor,
/// the **materialized** bounded executor and the **naive** baseline compute exactly the
/// same answer; the bounded strategies read exactly the same data (boundedness is a
/// property of the plan, not of the execution strategy); nothing fetches
/// more than the statically derived bound (Theorem 3.11, constructive direction); and
/// the streaming pipeline's peak row residency never exceeds the materialized
/// executor's.
fn assert_bounded_plans_agree_with_naive(
    schema: &AccessSchema,
    db: bea::storage::Database,
    workload: &[ConjunctiveQuery],
) -> usize {
    let indexed = IndexedDatabase::build(db, schema.clone()).unwrap();
    assert!(indexed.satisfies_schema());

    let mut exercised = 0;
    for query in workload {
        let report = cover::coverage(query, schema);
        if !report.is_covered() {
            continue;
        }
        exercised += 1;
        let plan = bounded_plan_for_report(query, schema, &report).unwrap();
        assert!(plan.is_bounded_under(schema));
        let (bounded, stats) = execute_plan(&plan, &indexed).unwrap();
        let (materialized, materialized_stats) =
            execute_plan_materialized(&plan, &indexed).unwrap();
        let (naive, _) = eval_cq(query, indexed.database()).unwrap();
        // `same_rows` compares sets, so a leg that emits a row twice would pass it.
        let legs = [("streaming", &bounded), ("materialized", &materialized)];
        for (leg, table) in legs {
            assert!(table.is_set(), "the {leg} leg repeats a row of {query}");
        }
        assert!(bounded.same_rows(&naive), "mismatch for {query}");
        assert!(
            materialized.same_rows(&naive),
            "materialized mismatch for {query}"
        );
        assert!(
            stats.same_data_access(&materialized_stats),
            "streaming and materialized executions read different data for {query}: \
             {stats} vs {materialized_stats}"
        );
        assert!(
            stats.peak_rows_resident <= materialized_stats.peak_rows_resident,
            "streaming held more rows ({}) than the materialized executor ({}) for {query}",
            stats.peak_rows_resident,
            materialized_stats.peak_rows_resident
        );
        // Copy traffic: whenever the plan moves a nontrivial amount of data, the
        // columnar pipeline moves no more values than the row-at-a-time executor (on
        // near-empty results the columnar path's fixed costs — key gathers, memo
        // bookkeeping — can exceed the row path's handful of clones by single digits,
        // which is noise, not traffic; the ≥2× drop on real fan-out is asserted by
        // `columnar_pipeline_halves_copy_traffic_on_target_scenarios`). The traffic is
        // a function of the plan, not of the schedule.
        if materialized_stats.values_cloned >= 100 {
            assert!(
                stats.values_cloned <= materialized_stats.values_cloned,
                "columnar pipeline cloned more values ({}) than the row path ({}) for {query}",
                stats.values_cloned,
                materialized_stats.values_cloned
            );
        }
        let cost = plan.cost(schema, indexed.size());
        assert!(
            stats.tuples_fetched <= cost.max_fetched_tuples,
            "plan for {query} fetched {} tuples, above its a-priori bound {}",
            stats.tuples_fetched,
            cost.max_fetched_tuples
        );
        assert!(bounded.len() as u64 <= report.output_bound(schema, indexed.size()).unwrap());
    }
    exercised
}

#[test]
fn covered_plans_agree_with_naive_evaluation() {
    run_cases_counting("covered_plans_agree_with_naive_evaluation", 0xACC1, |rng| {
        let seed = rng.gen_range(0u64..1_000);
        let qseed = rng.gen_range(0u64..1_000);
        let (db, schema) = accidents_fixture(seed, 3);
        let catalog = accidents::catalog();
        let workload = random_workload(&catalog, &schema, &db, 12, qseed);
        assert_bounded_plans_agree_with_naive(&schema, db, &workload)
    });
}

#[test]
fn covered_plans_agree_with_naive_evaluation_on_ecommerce() {
    run_cases_counting(
        "covered_plans_agree_with_naive_evaluation_on_ecommerce",
        0xECC0,
        |rng| {
            let seed = rng.gen_range(0u64..1_000);
            let qseed = rng.gen_range(0u64..1_000);
            let (db, catalog, schema) = ecommerce_fixture(seed);
            let workload = random_workload(&catalog, &schema, &db, 12, qseed);
            assert_bounded_plans_agree_with_naive(&schema, db, &workload)
        },
    );
}

#[test]
fn covered_plans_agree_with_naive_evaluation_on_graph() {
    run_cases_counting(
        "covered_plans_agree_with_naive_evaluation_on_graph",
        0x64AF,
        |rng| {
            let seed = rng.gen_range(0u64..1_000);
            let qseed = rng.gen_range(0u64..1_000);
            let (db, catalog, schema) = graph_fixture(seed);
            let workload = random_workload(&catalog, &schema, &db, 12, qseed);
            assert_bounded_plans_agree_with_naive(&schema, db, &workload)
        },
    );
}

/// The columnar pipeline's acceptance property (PR 4): on the scenarios with real
/// fan-out — the accidents Q0 plan and the multi-pipeline batch of anchored Q0
/// branches — the copy traffic (`values_cloned`) drops at least 2× against the
/// row-at-a-time executor, while the answers, the data
/// access and the residency guarantees are untouched.
#[test]
fn columnar_pipeline_halves_copy_traffic_on_target_scenarios() {
    use bea::bench::scenarios::{AccidentsScenario, ParallelScenario};

    let accidents = AccidentsScenario::with_total_tuples(20_000, 42).unwrap();
    let batch = ParallelScenario::with_branches(6, 20_000, 42).unwrap();

    // (plan, database, scenario name) for both row-vs-columnar comparisons.
    let cases: [(&bea::core::plan::QueryPlan, &IndexedDatabase, &str); 2] = [
        (&accidents.plan, &accidents.indexed, "accidents q0"),
        (&batch.plan, &batch.indexed, "parallel q0 batch"),
    ];
    for (plan, indexed, name) in cases {
        let (row_table, row_stats) = execute_plan_materialized(plan, indexed).unwrap();
        assert!(row_table.is_set(), "{name}: the row path repeats a row");
        let (columnar_table, columnar_stats) = execute_plan(plan, indexed).unwrap();
        assert!(columnar_table.is_set(), "{name}: repeated row");
        assert!(
            columnar_table.same_rows(&row_table),
            "{name}: executors disagree"
        );
        assert!(
            columnar_stats.same_data_access(&row_stats),
            "{name}: executors read different data"
        );
        assert!(
            columnar_stats.peak_rows_resident <= row_stats.peak_rows_resident,
            "{name}: columnar residency regressed"
        );
        assert!(
            columnar_stats.values_cloned * 2 <= row_stats.values_cloned,
            "{name}: columnar cloned {} values, row path {} — less than the required 2× \
             drop",
            columnar_stats.values_cloned,
            row_stats.values_cloned
        );
    }
}

/// The zero-allocation anchored fast path (PR 6): a probe loop that keeps hitting one
/// cached `KeyedLookupOp` key must allocate nothing per probe after warm-up. The plan
/// fetches the `m` R-rows of one anchor (all sharing join key 7), then joins each
/// against S through the fused keyed-lookup pattern — so the lookup cache warms on the
/// first probe and every subsequent probe must be served without demanding a single
/// buffer. `allocs_per_probe` counts buffer-demand events deterministically, hence the
/// assertable form: the *total* at `m = 512` equals the total at `m = 1` (zero
/// marginal allocations per warmed probe) — and since the fetch of R runs as a keyed
/// lookup as well, both totals are zero; and
/// the pooling machinery changes neither the rows nor any data-access counter.
#[test]
fn warmed_anchored_probes_allocate_nothing() {
    use bea::core::plan::PlanBuilder;
    use bea_core::access::AccessConstraint;
    use bea_core::schema::Catalog;

    // R(a, b, c) with constraint a → (b, c); S(k, v) with constraint k → v.
    let catalog = {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b", "c"]).unwrap();
        c.declare("S", ["k", "v"]).unwrap();
        c
    };
    let schema = AccessSchema::from_constraints([
        AccessConstraint::new(&catalog, "R", &["a"], &["b", "c"], 4096).unwrap(),
        AccessConstraint::new(&catalog, "S", &["k"], &["v"], 10).unwrap(),
    ]);

    // Join the anchor's R-rows, then join S by key R.b and project: one KeyedLookup on
    // S with a fused projection — the anchored probe.
    let plan = {
        let mut b = PlanBuilder::new();
        let anchor = b.constant(Value::int(1), "x");
        let labels = vec!["a".into(), "b".into(), "c".into()];
        let r = b.keyed_join(anchor, vec![0], "R", vec![0], vec![1, 2], 0, labels, vec![]);
        let r = b.project(r, vec![1, 2, 3]);
        let labels = vec!["k".into(), "v".into()];
        let selected = b.keyed_join(r, vec![1], "S", vec![0], vec![1], 1, labels, vec![]);
        // Keep the distinct c column: the m output rows must survive set semantics.
        let out = b.project(selected, vec![2, 4]);
        b.finish("AnchoredProbeLoop", out).unwrap()
    };

    let database_with_rows = |m: i64| {
        let mut db = bea::storage::Database::new(catalog.clone());
        db.extend(
            "R",
            (0..m).map(|i| vec![Value::int(1), Value::int(7), Value::int(i)]),
        )
        .unwrap();
        db.extend("S", [vec![Value::int(7), Value::int(100)]])
            .unwrap();
        db
    };

    let mut per_size = Vec::new();
    for m in [1i64, 512] {
        let indexed = IndexedDatabase::build(database_with_rows(m), schema.clone()).unwrap();
        let (table, stats) = execute_plan(&plan, &indexed).unwrap();
        // Pooling must be invisible to everything but the allocation counter: the
        // answers and the data-access counters match the unpooled materialized
        // executor exactly.
        let (reference, reference_stats) = execute_plan_materialized(&plan, &indexed).unwrap();
        assert!(
            table.is_set() && reference.is_set(),
            "repeated row at m = {m}"
        );
        assert!(
            table.same_rows(&reference),
            "pooled probe loop changed the answers at m = {m}"
        );
        assert_eq!(table.len() as i64, m, "one output row per R-row");
        assert!(
            stats.same_data_access(&reference_stats),
            "pooled probe loop changed the data access at m = {m}: \
             {stats} vs {reference_stats}"
        );
        assert_eq!(
            stats.allocs_per_probe, 0,
            "the fetch of R runs as a keyed lookup too: no buffer per key"
        );
        per_size.push(stats.allocs_per_probe);
    }
    let (allocs_warm_start, allocs_after_512_probes) = (per_size[0], per_size[1]);
    assert_eq!(
        allocs_warm_start, allocs_after_512_probes,
        "warmed anchored probes demanded buffers: 512-probe total {allocs_after_512_probes} \
         exceeds the warm-up-only total {allocs_warm_start} — the fast path allocated per \
         probe"
    );
}

/// Preparing does not see the session's configuration: a session with a fetch budget
/// prepares every covered query of the three querygen families to
/// the physical plan and the [`bea_core::plan::CostTicket`] a default session
/// prepares, field for field — and that plan is the library's [`lower_plan`] of it.
#[test]
fn sessions_prepare_one_plan_and_ticket_at_every_thread_and_shard_count() {
    use bea::engine::{Session, SessionConfig, SharedStore};

    run_cases_counting(
        "sessions_prepare_one_plan_and_ticket_at_every_thread_and_shard_count",
        0x71C4,
        |rng| {
            let seed = rng.gen_range(0u64..1_000);
            let qseed = rng.gen_range(0u64..1_000);
            let (accidents_db, accidents_schema) = accidents_fixture(seed, 2);
            let (ecommerce_db, ecommerce_catalog, ecommerce_schema) = ecommerce_fixture(seed);
            let (graph_db, graph_catalog, graph_schema) = graph_fixture(seed);
            let families = [
                (accidents::catalog(), accidents_schema, accidents_db),
                (ecommerce_catalog, ecommerce_schema, ecommerce_db),
                (graph_catalog, graph_schema, graph_db),
            ];
            let mut exercised = 0;
            for (catalog, schema, db) in families {
                let workload = random_workload(&catalog, &schema, &db, 8, qseed);
                let plans: Vec<_> = workload
                    .iter()
                    .filter(|query| cover::is_covered(query, &schema))
                    .map(|query| bounded_plan(query, &schema).unwrap())
                    .collect();
                exercised += plans.len();
                let store = SharedStore::from(IndexedDatabase::build(db, schema).unwrap());
                let plain = Session::new(store.clone(), SessionConfig::new());
                let configured = Session::new(store, SessionConfig::new().with_fetch_budget(1_000));
                for plan in &plans {
                    let expected = plain.prepare(plan).unwrap();
                    assert_eq!(expected.physical(), &lower_plan(plan).unwrap());
                    let prepared = configured.prepare(plan).unwrap();
                    let name = plan.query_name();
                    assert_eq!(prepared.physical(), expected.physical(), "{name}");
                    assert_eq!(prepared.ticket(), expected.ticket(), "{name}");
                }
            }

            exercised
        },
    );
}

/// The multi-query session (PR 8) is a scheduling change, not a semantic one: N
/// covered queries submitted *concurrently* from N client threads against one shared
/// store return exactly the rows — and exactly the per-query data access,
/// copy traffic and probe-path buffer demand — of serial [`execute_plan`] runs,
/// so the per-query stats stay additive across the batch. With an aggregate fetch
/// budget set, admission is deterministic: the rejected set is exactly the queries
/// whose static fetch bound exceeds the budget (a property of the plan, not of the
/// load or the submission interleaving), every accepted query still matches its
/// serial run, and the admitted bounds' high-water mark never exceeds the budget.
#[test]
fn concurrent_sessions_match_serial_execution_and_reject_deterministically() {
    use bea::engine::{Rejection, Session, SessionConfig, SharedStore, SubmitError};

    run_cases_counting(
        "concurrent_sessions_match_serial_execution_and_reject_deterministically",
        0xC0AC,
        |rng| {
            let seed = rng.gen_range(0u64..1_000);
            let qseed = rng.gen_range(0u64..1_000);
            let (db, schema) = accidents_fixture(seed, 3);
            let catalog = accidents::catalog();
            let workload = random_workload(&catalog, &schema, &db, 10, qseed);
            let store = SharedStore::from(IndexedDatabase::build(db, schema.clone()).unwrap());

            let plans: Vec<_> = workload
                .iter()
                .filter(|query| cover::is_covered(query, &schema))
                .map(|query| bounded_plan(query, &schema).unwrap())
                .collect();
            if plans.is_empty() {
                return 0;
            }
            let db_size = store.store().size();
            let bounds: Vec<u64> = plans
                .iter()
                .map(|plan| plan.cost(&schema, db_size).max_fetched_tuples)
                .collect();

            // Serial baseline: each plan alone, same store.
            let serial: Vec<_> = plans
                .iter()
                .map(|plan| execute_plan(plan, store.store()).unwrap())
                .collect();

            // Leg 1 — no budget: everything admitted, all queries in flight at once,
            // each on a submitter thread of its own.
            let session = Session::new(store.clone(), SessionConfig::new());
            let concurrent: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = plans
                    .iter()
                    .map(|plan| {
                        let session = &session;
                        scope.spawn(move || {
                            let handle = session.submit(plan).expect("no budget, no veto");
                            handle.wait().expect("healthy query")
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("submitter thread"))
                    .collect()
            });
            for (i, ((table, stats), (serial_table, serial_stats))) in
                concurrent.iter().zip(&serial).enumerate()
            {
                let query = plans[i].query_name();
                assert!(
                    table.is_set() && serial_table.is_set(),
                    "repeated row for {query}"
                );
                assert_eq!(
                    table.rows(),
                    serial_table.rows(),
                    "concurrent admission changed the output (or its order) for {query}"
                );
                assert!(
                    stats.same_data_access(serial_stats),
                    "concurrent admission changed the data access for {query}: \
                     {stats} vs {serial_stats}"
                );
                assert_eq!(
                    stats.values_cloned, serial_stats.values_cloned,
                    "concurrent admission changed the copy traffic for {query}"
                );
                assert_eq!(
                    stats.allocs_per_probe, serial_stats.allocs_per_probe,
                    "concurrent admission changed the probe-path buffer demand for {query}"
                );
            }
            // Per-query equality makes the batch totals additive — the property the
            // admission report's aggregate counters rely on.
            assert_eq!(
                concurrent
                    .iter()
                    .map(|(_, s)| s.tuples_fetched)
                    .sum::<u64>(),
                serial.iter().map(|(_, s)| s.tuples_fetched).sum::<u64>(),
            );
            let report = session.admission_stats();
            assert_eq!(report.submitted, plans.len() as u64);
            assert_eq!(report.completed, plans.len() as u64);
            assert_eq!((report.rejected, report.failed), (0, 0));
            session.shutdown();

            // Leg 2 — budget = the smallest bound (at least 1: a zero config budget
            // means "unlimited"): the rejected set is exactly the queries priced
            // above it, independent of submission interleaving.
            let budget = (*bounds.iter().min().unwrap()).max(1);
            let session = Session::new(
                store.clone(),
                SessionConfig::new().with_fetch_budget(budget),
            );
            let outcomes: Vec<_> = std::thread::scope(|scope| {
                let handles: Vec<_> = plans
                    .iter()
                    .enumerate()
                    .map(|(i, plan)| {
                        let session = &session;
                        let bounds = &bounds;
                        scope.spawn(move || match session.submit(plan) {
                            Ok(handle) => {
                                assert_eq!(
                                    handle.ticket().fetch_bound,
                                    bounds[i],
                                    "the ticket prices the plan's static cost"
                                );
                                Ok(handle.wait().expect("admitted query"))
                            }
                            Err(SubmitError::Rejected { ticket, rejection }) => {
                                assert_eq!(ticket.fetch_bound, bounds[i]);
                                match rejection {
                                    Rejection::FetchBound { bound, budget: b } => {
                                        assert_eq!((bound, b), (bounds[i], budget));
                                    }
                                    other => panic!("unexpected veto: {other}"),
                                }
                                Err(())
                            }
                            Err(other) => panic!("unexpected submit failure: {other}"),
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("submitter thread"))
                    .collect()
            });
            let mut rejected = 0u64;
            for (i, outcome) in outcomes.iter().enumerate() {
                let over_budget = bounds[i] > budget;
                match outcome {
                    Err(()) => {
                        rejected += 1;
                        assert!(
                            over_budget,
                            "query {} (bound {}) was rejected under budget {budget}",
                            plans[i].query_name(),
                            bounds[i]
                        );
                    }
                    Ok((table, _)) => {
                        assert!(
                            !over_budget,
                            "query {} (bound {}) was admitted over budget {budget}",
                            plans[i].query_name(),
                            bounds[i]
                        );
                        assert_eq!(
                            table.rows(),
                            serial[i].0.rows(),
                            "budgeted admission changed the output for {}",
                            plans[i].query_name()
                        );
                    }
                }
            }
            let report = session.admission_stats();
            assert_eq!(report.rejected, rejected);
            assert_eq!(
                rejected,
                bounds.iter().filter(|&&b| b > budget).count() as u64,
                "the rejected set is exactly the over-budget queries"
            );
            assert!(
                report.peak_admitted_bound <= budget,
                "admitted bounds peaked at {} over the budget {budget}",
                report.peak_admitted_bound
            );
            session.shutdown();
            plans.len()
        },
    );
}

/// Serving a query is never a semantic change: on every querygen family, the
/// synchronous entry ([`Session::run`]), the handle entry (`submit` then `wait`) and a
/// solo [`execute_plan`] return the same rows in the same order with the same data
/// access, copy traffic and probe-path buffer demand. One session serves every query
/// of a family, so a query runs after others on the same session.
#[test]
fn session_lanes_match_solo_execution_on_every_family() {
    use bea::engine::{Session, SessionConfig, SharedStore};

    /// Every covered query of `workload` through all three lanes; returns how many
    /// queries were exercised.
    fn assert_lanes_agree(
        schema: &AccessSchema,
        db: &bea::storage::Database,
        workload: &[ConjunctiveQuery],
    ) -> usize {
        let plans: Vec<_> = workload
            .iter()
            .filter(|query| cover::is_covered(query, schema))
            .map(|query| bounded_plan(query, schema).unwrap())
            .collect();
        let store = &SharedStore::from(IndexedDatabase::build(db.clone(), schema.clone()).unwrap());
        let session = Session::new(store.clone(), SessionConfig::new());
        for plan in &plans {
            let name = plan.query_name();
            let (solo_table, solo_stats) = execute_plan(plan, store.store()).unwrap();
            let ran = session.run(plan).unwrap().1.unwrap();
            let waited = session.submit(plan).unwrap().wait().unwrap();
            let traffic = |stats: &bea::engine::AccessStats| {
                (
                    stats.values_cloned,
                    stats.allocs_per_probe,
                    stats.cache_hits,
                    stats.rows_served_from_cache,
                )
            };
            let solo_traffic = (solo_stats.values_cloned, solo_stats.allocs_per_probe, 0, 0);
            assert!(solo_table.is_set(), "repeated row solo, {name}");
            for (lane, (table, stats)) in [("run", &ran), ("submit + wait", &waited)] {
                assert!(table.is_set(), "`{lane}` repeated a row of {name}");
                assert_eq!(
                    table.rows(),
                    solo_table.rows(),
                    "`{lane}` changed the rows (or their order) of {name}"
                );
                assert!(
                    stats.same_data_access(&solo_stats),
                    "`{lane}` changed the data access of {name}: {stats} vs {solo_stats}"
                );
                assert_eq!(
                    traffic(stats),
                    solo_traffic,
                    "`{lane}` changed the copy traffic or buffer demand of {name}"
                );
            }
        }
        plans.len()
    }

    run_cases_counting(
        "session_lanes_match_solo_execution_on_every_family",
        0x1A9E,
        |rng| {
            let seed = rng.gen_range(0u64..1_000);
            let qseed = rng.gen_range(0u64..1_000);
            let (db, schema) = accidents_fixture(seed, 2);
            let workload = random_workload(&accidents::catalog(), &schema, &db, 6, qseed);
            let mut exercised = assert_lanes_agree(&schema, &db, &workload);
            let (db, catalog, schema) = ecommerce_fixture(seed);
            let workload = random_workload(&catalog, &schema, &db, 6, qseed);
            exercised += assert_lanes_agree(&schema, &db, &workload);
            let (db, catalog, schema) = graph_fixture(seed);
            let workload = random_workload(&catalog, &schema, &db, 6, qseed);
            exercised + assert_lanes_agree(&schema, &db, &workload)
        },
    );
}

/// A session keeps nothing of a query for the next: N repeated submissions of one
/// anchored lookup query through one [`Session`] return identical rows in identical
/// order every time, and each performs exactly the data access, copy traffic and
/// probe-path buffer demand of a solo [`execute_plan`] run.
#[test]
fn repeated_session_submissions_match_solo_execution() {
    use bea::core::plan::PlanBuilder;
    use bea::engine::{Session, SessionConfig, SharedStore};
    use bea_core::access::AccessConstraint;
    use bea_core::schema::Catalog;

    run_cases(
        "repeated_session_submissions_match_solo_execution",
        0xCAC4E,
        |rng| {
            // R(a → b), keys 1..=key_space with a random per-key fanout.
            let key_space = rng.gen_range(4i64..=12);
            let fanout = rng.gen_range(1i64..=3);
            let catalog = {
                let mut c = Catalog::new();
                c.declare("R", ["a", "b"]).unwrap();
                c
            };
            let schema = AccessSchema::from_constraints([AccessConstraint::new(
                &catalog,
                "R",
                &["a"],
                &["b"],
                10,
            )
            .unwrap()]);
            let mut db = bea::storage::Database::new(catalog);
            db.extend(
                "R",
                (1..=key_space).flat_map(|k| {
                    (0..fanout).map(move |j| vec![Value::int(k), Value::int(100 * k + j)])
                }),
            )
            .unwrap();

            // A union of anchored lookups over a random distinct key set; each
            // branch's keyed join lowers to one KeyedLookup.
            let mut keys: Vec<i64> = (1..=key_space).collect();
            for i in (1..keys.len()).rev() {
                keys.swap(i, rng.gen_range(0..=i));
            }
            keys.truncate(rng.gen_range(2..=4));
            let plan = {
                let mut b = PlanBuilder::new();
                let branch = |b: &mut PlanBuilder, key: i64| {
                    let k = b.constant(Value::int(key), "k");
                    let labels = vec!["a".into(), "b".into()];
                    b.keyed_join(k, vec![0], "R", vec![0], vec![1], 0, labels, vec![])
                };
                let mut acc = branch(&mut b, keys[0]);
                for &key in &keys[1..] {
                    let next = branch(&mut b, key);
                    acc = b.union(acc, next);
                }
                b.finish("Repeat", acc).unwrap()
            };

            let store = SharedStore::from(IndexedDatabase::build(db, schema).unwrap());

            const REPEATS: usize = 4;
            let (serial_table, serial_stats) = execute_plan(&plan, store.store()).unwrap();
            let session = Session::new(store.clone(), SessionConfig::new());
            for submission in 0..REPEATS {
                let (table, stats) = session.submit(&plan).unwrap().wait().unwrap();
                assert!(table.is_set(), "submission {submission} repeated a row");
                assert_eq!(
                    table.rows(),
                    serial_table.rows(),
                    "submission {submission} changed the rows (or their order)"
                );
                assert!(
                    stats.same_data_access(&serial_stats),
                    "submission {submission} changed the data access: \
                     {stats} vs {serial_stats}"
                );
                assert_eq!(stats.values_cloned, serial_stats.values_cloned);
                assert_eq!(stats.allocs_per_probe, serial_stats.allocs_per_probe);
                assert_eq!((stats.cache_hits, stats.rows_served_from_cache), (0, 0));
            }
            session.shutdown();
        },
    );
}

/// cov(Q, A) is deterministic and monotone in the access schema (Lemma 3.9).
#[test]
fn coverage_is_deterministic_and_monotone() {
    run_cases("coverage_is_deterministic_and_monotone", 0xC0F0, |rng| {
        let qseed = rng.gen_range(0u64..2_000);
        let split = rng.gen_range(1usize..4);
        let catalog = accidents::catalog();
        let schema = accidents::access_schema(&catalog);
        let workload = querygen::random_workload(
            &catalog,
            Some(&schema),
            8,
            &querygen::QueryGenConfig {
                seed: qseed,
                ..querygen::QueryGenConfig::default()
            },
        )
        .unwrap();
        let partial = AccessSchema::from_constraints(schema.constraints()[..split].to_vec());
        for query in &workload {
            let (cov1, _) = cover::covered_variables(query, &schema);
            let (cov2, _) = cover::covered_variables(query, &schema);
            assert_eq!(&cov1, &cov2);
            let (cov_partial, _) = cover::covered_variables(query, &partial);
            assert!(cov_partial.is_subset(&cov1));
            // Covered queries remain covered when constraints are added.
            if cover::is_covered(query, &partial) {
                assert!(cover::is_covered(query, &schema));
            }
        }
    });
}

/// The bounded-evaluability analysis is sound: whenever it claims an A-equivalent
/// covered rewriting, the rewriting gives the same answers as the original query on
/// instances satisfying the schema.
#[test]
fn analysis_rewrites_are_equivalent_on_data() {
    run_cases("analysis_rewrites_are_equivalent_on_data", 0xBE90, |rng| {
        let seed = rng.gen_range(0u64..500);
        let qseed = rng.gen_range(0u64..500);
        let (db, schema) = accidents_fixture(seed, 2);
        let catalog = accidents::catalog();
        let workload = querygen::random_workload_from_db(
            &catalog,
            Some(&schema),
            &db,
            8,
            &querygen::QueryGenConfig {
                seed: qseed,
                join_probability: 0.5,
                ..querygen::QueryGenConfig::default()
            },
        )
        .unwrap();
        for query in &workload {
            match analyze_cq(query, &schema, &BoundedConfig::default()).unwrap() {
                BoundedVerdict::EquivalentCovered { rewritten, .. } => {
                    let (a, _) = eval_cq(query, &db).unwrap();
                    let (b, _) = eval_cq(&rewritten, &db).unwrap();
                    assert!(a.same_rows(&b), "rewriting changed answers for {query}");
                }
                BoundedVerdict::Unsatisfiable => {
                    let (a, _) = eval_cq(query, &db).unwrap();
                    assert!(
                        a.is_empty(),
                        "A-unsatisfiable query answered on D ⊨ A: {query}"
                    );
                }
                _ => {}
            }
        }
    });
}

/// Envelopes sandwich the exact answer on instances satisfying the schema, within
/// their derived bounds (Section 4).
#[test]
fn envelopes_sandwich_exact_answers() {
    run_cases("envelopes_sandwich_exact_answers", 0xE47E, |rng| {
        let seed = rng.gen_range(0u64..500);
        let qseed = rng.gen_range(0u64..500);
        let (db, schema) = accidents_fixture(seed, 2);
        let catalog = accidents::catalog();
        let workload = querygen::random_workload_from_db(
            &catalog,
            Some(&schema),
            &db,
            6,
            &querygen::QueryGenConfig {
                seed: qseed,
                join_probability: 0.4,
                ..querygen::QueryGenConfig::default()
            },
        )
        .unwrap();
        let indexed = IndexedDatabase::build(db, schema.clone()).unwrap();
        let config = EnvelopeConfig::default();

        for query in &workload {
            if cover::is_covered(query, &schema) {
                continue;
            }
            let (exact, _) = eval_cq(query, indexed.database()).unwrap();
            if let Some(upper) = upper_envelope_cq(query, &schema, &config).unwrap() {
                let plan = bounded_plan(&upper.query, &schema).unwrap();
                let (answer, _) = execute_plan(&plan, &indexed).unwrap();
                assert!(
                    answer.is_set(),
                    "the upper envelope repeats a row of {query}"
                );
                assert!(exact.row_set().is_subset(&answer.row_set()));
                let bound = upper.approximation_bound(&schema, indexed.size()).unwrap();
                assert!((answer.len() - exact.len()) as u64 <= bound);
            }
            if let Some(lower) = lower_envelope_cq(query, &schema, &catalog, 1, &config).unwrap() {
                let plan = bounded_plan(&lower.query, &schema).unwrap();
                let (answer, _) = execute_plan(&plan, &indexed).unwrap();
                assert!(
                    answer.is_set(),
                    "the lower envelope repeats a row of {query}"
                );
                assert!(answer.row_set().is_subset(&exact.row_set()));
            }
        }
    });
}

/// Bounded specialization is generic: when the QSP analysis picks a parameter tuple,
/// *every* valuation of those parameters yields a covered query (Section 5).
#[test]
fn specialization_is_generic_over_valuations() {
    run_cases("specialization_is_generic_over_valuations", 0x59EC, |rng| {
        let day = rng.gen_range(0u32..500);
        let district = rng.gen_range(0u32..500);
        let catalog = accidents::catalog();
        let schema = accidents::access_schema(&catalog);
        let query = accidents::parameterized_query(&catalog).unwrap();
        let spec = specialize_cq(&query, &schema, 2, &SpecializeConfig::default())
            .unwrap()
            .expect("Example 5.1 specializes");
        // The template itself is covered…
        assert!(spec.report.is_covered());
        // …and so is every concrete instantiation, whatever the values are.
        let bindings: Vec<(&str, Value)> = spec
            .parameter_names
            .iter()
            .map(|name| {
                let value = if name == "date" {
                    accidents::date_value(day)
                } else {
                    accidents::district_value(district)
                };
                (name.as_str(), value)
            })
            .collect();
        let concrete = instantiate(&query, &bindings).unwrap();
        assert!(cover::is_covered(&concrete, &schema));
        // Unchosen parameters stay parameters; the generic template marks the chosen ones
        // as constants.
        let template = generic_template(&query, &spec.parameters).unwrap();
        for &p in &spec.parameters {
            assert!(template.constant_vars().contains(&p));
        }
    });
}

/// Constraint discovery is sound: constraints mined from an instance are satisfied by
/// that instance, at every discovery setting.
#[test]
fn discovered_constraints_hold() {
    run_cases("discovered_constraints_hold", 0xD15C, |rng| {
        let seed = rng.gen_range(0u64..1_000);
        let max_key = rng.gen_range(1usize..3);
        let (db, _) = accidents_fixture(seed, 2);
        let discovered = discover_constraints(
            &db,
            &DiscoveryOptions {
                max_key_size: max_key,
                max_cardinality: 100_000,
                include_empty_keys: true,
            },
        )
        .unwrap();
        assert!(!discovered.is_empty());
        let schema = AccessSchema::from_constraints(discovered);
        let indexed = IndexedDatabase::build(db, schema).unwrap();
        assert!(indexed.satisfies_schema());
    });
}

/// The graph workload's personalized pattern is always answerable boundedly once the
/// person is fixed, and the bounded answer matches the baseline for every person.
#[test]
fn personalized_graph_search_matches_naive() {
    run_cases("personalized_graph_search_matches_naive", 0x6A50, |rng| {
        let seed = rng.gen_range(0u64..300);
        let me = rng.gen_range(0i64..200);
        let catalog = graph::catalog();
        let config = graph::GraphConfig {
            num_persons: 200,
            max_degree: 12,
            avg_degree: 5,
            num_cities: 3,
            num_tags: 6,
            max_likes: 3,
            seed,
        };
        let schema = graph::access_schema(&catalog, &config);
        let db = graph::generate(&config).unwrap();
        let indexed = IndexedDatabase::build(db, schema.clone()).unwrap();
        assert!(indexed.satisfies_schema());

        let query =
            graph::personalized_query(&catalog, me, &graph::city_value(0), &graph::tag_value(0))
                .unwrap();
        assert!(cover::is_covered(&query, &schema));
        let plan = bounded_plan(&query, &schema).unwrap();
        let (bounded, stats) = execute_plan(&plan, &indexed).unwrap();
        let (naive, _) = eval_cq(&query, indexed.database()).unwrap();
        assert!(bounded.is_set());
        assert!(bounded.same_rows(&naive));
        // Personalized search touches at most (1 + 2·max_degree) + a few person/likes
        // lookups — far less than the database size for any graph.
        assert!(stats.tuples_fetched <= 1 + 3 * u64::from(config.max_degree) + 10);
    });
}

/// The tiny evaluator used inside the reasoning procedures agrees with the engine's
/// baseline evaluator on small instances.
#[test]
fn small_instance_evaluator_agrees_with_engine() {
    run_cases(
        "small_instance_evaluator_agrees_with_engine",
        0x5A11,
        |rng| {
            let seed = rng.gen_range(0u64..1_000);
            let qseed = rng.gen_range(0u64..1_000);
            let catalog = accidents::catalog();
            let schema = accidents::access_schema(&catalog);
            let (db, _) = accidents_fixture(seed, 1);
            let workload = querygen::random_workload_from_db(
                &catalog,
                Some(&schema),
                &db,
                5,
                &querygen::QueryGenConfig {
                    seed: qseed,
                    max_atoms: 2,
                    ..querygen::QueryGenConfig::default()
                },
            )
            .unwrap();

            // Copy a small sample of the database into a SmallInstance.
            let mut small = SmallInstance::new();
            let mut copied = 0;
            for relation in db.relations() {
                for row in relation.rows().take(40) {
                    small.insert(relation.name(), row.to_vec());
                    copied += 1;
                }
            }
            assert!(copied > 0);
            let mut small_db = bea::storage::Database::new(catalog.clone());
            for relation in db.relations() {
                small_db
                    .extend(relation.name(), relation.rows().take(40).map(<[_]>::to_vec))
                    .unwrap();
            }

            for query in &workload {
                let from_reasoner = eval_cq_small(query, &small);
                let (from_engine, _) = eval_cq(query, &small_db).unwrap();
                assert_eq!(
                    from_reasoner,
                    from_engine.row_set(),
                    "evaluators disagree on {query}"
                );
            }
        },
    );
}

/// Whether `physical` reads a fetched column whose attribute is in its keyed lookup's
/// `X` — a column the lookup holds as the source row's key, not as a copy: through the
/// lookup's residual, or through a consumer that keeps it (the output, or any step but
/// a projection that drops it).
fn reads_a_fetched_key_column(physical: &bea::core::plan::PhysicalPlan) -> bool {
    use bea::core::plan::{PhysOp, Predicate};
    let steps = physical.steps();
    steps.iter().enumerate().any(|(id, step)| {
        let PhysOp::KeyedLookup {
            source,
            x_attrs,
            positions,
            residual,
            ..
        } = &step.op
        else {
            return false;
        };
        let left = steps[*source].columns.len();
        let key: Vec<usize> = (0..positions.len())
            .filter(|&c| x_attrs.contains(&positions[c]))
            .map(|c| left + c)
            .collect();
        let in_residual = residual.iter().any(|predicate| match predicate {
            Predicate::ColEqCol(a, b) => key.contains(a) || key.contains(b),
            Predicate::ColEqConst(a, _) => key.contains(a),
        });
        let mut consumers = steps.iter().filter(|s| s.op.inputs().contains(&id));
        let kept = consumers.any(|consumer| match &consumer.op {
            PhysOp::Project { cols, .. } => cols.iter().any(|c| key.contains(c)),
            _ => true,
        });
        !key.is_empty() && (in_residual || kept || id == physical.output())
    })
}

/// A keyed lookup holds no copy of a fetched column whose attribute is in its `X` (it
/// equals the probe key) and reads the source row's key in its place. Synthesized plans
/// read the source's copy of a key instead, so hand-built fetches over the accidents
/// store exercise it: `X` emitted beside `Y`, `X` emitted alone, `X` compared in a
/// residual, `X` emitted beside the source's key from a multi-row source, a fetch of
/// `X` alone, which leaves the arena no column at all, and a lookup through a unique
/// index keyed by the same relation's tuples, which resolves none. Each plan must read
/// such a column, and streaming must return the reference's rows and read exactly the
/// reference's data, solo and served (twice from one session).
#[test]
fn plans_reading_a_fetched_key_column_match_the_reference() {
    use bea::core::plan::{PlanBuilder, Predicate, QueryPlan};
    use bea::engine::{Session, SessionConfig, SharedStore};

    fn assert_matches_reference(store: &SharedStore, plan: &QueryPlan) {
        let name = plan.query_name();
        assert!(
            reads_a_fetched_key_column(&lower_plan(plan).unwrap()),
            "{name} reads no fetched key column"
        );
        let (reference, reference_stats) = execute_plan_materialized(plan, store.store()).unwrap();
        let (solo, stats) = execute_plan(plan, store.store()).unwrap();
        assert!(solo.is_set() && solo.same_rows(&reference), "{name}, solo");
        assert!(
            stats.same_data_access(&reference_stats),
            "{name} read other data than the reference: {stats} vs {reference_stats}"
        );
        let session = Session::new(store.clone(), SessionConfig::new());
        for run in ["first", "repeat"] {
            let (_, result) = session.run(plan).unwrap();
            let (table, served) = result.unwrap();
            assert_eq!(table.rows(), solo.rows(), "{name}, served, {run}");
            assert!(
                served.same_data_access(&stats),
                "{name}, served, {run}: {served} vs {stats}"
            );
        }
    }

    /// `σ[date = day ∧ residual](day × fetch(date ∈ day, Accident, aid))` via ψ1:
    /// columns `(day, date, aid)`, the fetched `date` being `X`.
    fn accidents_of(b: &mut PlanBuilder, day: u32, residual: &[Predicate]) -> usize {
        let day = b.constant(accidents::date_value(day), "day");
        let labels = vec!["date".into(), "aid".into()];
        let residual = residual.to_vec();
        b.keyed_join(
            day,
            vec![0],
            "Accident",
            vec![2],
            vec![0],
            0,
            labels,
            residual,
        )
    }

    run_cases("plans_reading_a_fetched_key_column", 0x4E1D, |rng| {
        let (db, schema) = accidents_fixture(rng.gen_range(0u64..1_000), 3);
        let store = SharedStore::from(IndexedDatabase::build(db, schema).unwrap());
        let day = rng.gen_range(0u32..4);
        let plan = |name: &str, build: &dyn Fn(&mut PlanBuilder) -> usize| {
            let mut b = PlanBuilder::new();
            let out = build(&mut b);
            b.finish(name, out).unwrap()
        };
        let plans = [
            plan("XBesideY", &|b| {
                let accidents = accidents_of(b, day, &[]);
                b.project(accidents, vec![1, 2])
            }),
            plan("XAlone", &|b| {
                let accidents = accidents_of(b, day, &[]);
                b.project(accidents, vec![1])
            }),
            plan("XInAResidual", &|b| {
                let date = Predicate::ColEqConst(1, accidents::date_value(day));
                let accidents = accidents_of(b, day, &[date]);
                b.project(accidents, vec![2])
            }),
            plan("XBesideTheSourceKey", &|b| {
                let accidents = accidents_of(b, day, &[]);
                let aids = b.project(accidents, vec![2]);
                let labels = vec!["aid".into(), "vid".into()];
                let keyed = b.keyed_join(
                    aids,
                    vec![0],
                    "Casualty",
                    vec![1],
                    vec![3],
                    1,
                    labels,
                    vec![],
                );
                b.project(keyed, vec![0, 1, 2])
            }),
            plan("OnlyXFetched", &|b| {
                let day = b.constant(accidents::date_value(day), "day");
                let labels = vec!["date".into()];
                let keyed =
                    b.keyed_join(day, vec![0], "Accident", vec![2], vec![], 0, labels, vec![]);
                b.project(keyed, vec![0, 1])
            }),
            plan("OwnTuplesThroughTheirUniqueIndex", &|b| {
                // The day's aids, read where ψ1 fetched them, through ψ3 (`aid` unique)
                // on the same relation: each names the tuple it was read from.
                let accidents = accidents_of(b, day, &[]);
                let aids = b.project(accidents, vec![2]);
                let labels = vec!["aid".into(), "district".into(), "date".into()];
                let keyed = b.keyed_join(
                    aids,
                    vec![0],
                    "Accident",
                    vec![0],
                    vec![1, 2],
                    2,
                    labels,
                    vec![],
                );
                b.project(keyed, vec![1, 2])
            }),
        ];
        for plan in &plans {
            assert_matches_reference(&store, plan);
        }
    });
}
