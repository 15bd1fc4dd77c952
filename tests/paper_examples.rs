//! Integration tests reproducing the paper's worked examples end-to-end through the
//! public API: text syntax → analysis → plan → execution, compared against the naive
//! baseline.

use bea::core::bounded::{analyze_cq, BoundedConfig, BoundedVerdict};
use bea::core::cover;
use bea::core::envelope::{lower_envelope_cq, upper_envelope_cq, EnvelopeConfig};
use bea::core::plan::{bounded_plan, lower_plan_with, CostTicket, LowerOptions, PlanOp};
use bea::core::reason::ReasonConfig;
use bea::core::specialize::{instantiate, specialize_cq, SpecializeConfig};
use bea::engine::{eval_cq, execute_plan};
use bea::parser::{parse_access_schema, parse_catalog, parse_query};
use bea::storage::{Database, IndexedDatabase};
use bea::workload::accidents;
use bea_core::value::Value;

/// Example 1.1: Q0 is boundedly evaluable under ψ1–ψ4 and the bounded plan agrees with
/// the baseline while fetching a bounded number of tuples.
#[test]
fn example_1_1_end_to_end() {
    let catalog = parse_catalog(
        "relation Accident(aid, district, date);
         relation Casualty(cid, aid, class, vid);
         relation Vehicle(vid, driver, age);",
    )
    .unwrap();
    let schema = parse_access_schema(
        &catalog,
        "Accident(date -> aid, 610);
         Casualty(aid -> vid, 192);
         Accident(aid -> district, date, 1);
         Vehicle(vid -> driver, age, 1);",
    )
    .unwrap();
    let q0 = parse_query(
        &catalog,
        r#"Q0(age) :- Accident(aid, "Queen's Park", "1/5/2005"),
                      Casualty(cid, aid, class, vid),
                      Vehicle(vid, driver, age)."#,
    )
    .unwrap();
    let q0 = q0.as_cq().unwrap();

    let verdict = analyze_cq(q0, &schema, &BoundedConfig::default()).unwrap();
    assert!(matches!(verdict, BoundedVerdict::Covered(_)));

    // Build a small instance and compare bounded vs naive evaluation.
    let mut db = Database::new(catalog.clone());
    for (aid, district, date) in [
        (1, "Queen's Park", "1/5/2005"),
        (2, "Queen's Park", "2/5/2005"),
        (3, "Leith", "1/5/2005"),
    ] {
        db.insert(
            "Accident",
            vec![Value::int(aid), Value::str(district), Value::str(date)],
        )
        .unwrap();
    }
    for (cid, aid, vid) in [(10, 1, 100), (11, 1, 101), (12, 2, 102), (13, 3, 103)] {
        db.insert(
            "Casualty",
            vec![
                Value::int(cid),
                Value::int(aid),
                Value::int(0),
                Value::int(vid),
            ],
        )
        .unwrap();
    }
    for (vid, age) in [(100, 30), (101, 40), (102, 50), (103, 60)] {
        db.insert(
            "Vehicle",
            vec![
                Value::int(vid),
                Value::str(format!("d{vid}")),
                Value::int(age),
            ],
        )
        .unwrap();
    }

    let plan = bounded_plan(q0, &schema).unwrap();
    assert!(plan.is_bounded_under(&schema));
    let (naive, naive_stats) = eval_cq(q0, &db).unwrap();
    let indexed = IndexedDatabase::build(db, schema.clone()).unwrap();
    assert!(indexed.satisfies_schema());
    let (bounded, stats) = execute_plan(&plan, &indexed).unwrap();

    assert!(bounded.same_rows(&naive));
    assert_eq!(
        bounded.row_set(),
        [vec![Value::int(30)], vec![Value::int(40)]]
            .into_iter()
            .collect()
    );
    // The bounded plan fetched fewer tuples than the database holds; the baseline
    // scanned all of them.
    assert!(stats.tuples_fetched < naive_stats.tuples_scanned);
    assert_eq!(stats.tuples_scanned, 0);
    // Its worst case is also bounded a priori (independent of |D|).
    let cost = plan.cost(&schema, u64::MAX / 4);
    assert!(cost.max_fetched_tuples <= 610 + 610 + 2 * 610 * 192);
}

/// Example 1.1's plan lowers with two δ steps: the one after ψ3's projection, which
/// drops the fetched district and date (equal to constants only through the residual
/// filter), and the one at the output. The projections after the ψ1 anchor, ψ2 and ψ4
/// drop only constant or key-equal columns and keep a set. Lowering does not depend
/// on the thread count, so whatever the [`LowerOptions`] ask for the plan is one
/// pipeline, priced the same.
#[test]
fn example_1_1_lowers_with_two_dedups() {
    let catalog = accidents::catalog();
    let schema = accidents::access_schema(&catalog);
    let district = accidents::district_value(0);
    let q0 = accidents::q0(&catalog, &district, &accidents::date_value(1)).unwrap();
    let plan = bounded_plan(&q0, &schema).unwrap();
    for exchange in [false, true] {
        let options = LowerOptions::new().with_exchange_parallelism(exchange);
        let lowered = lower_plan_with(&plan, &options).unwrap();
        let steps = lowered.steps();
        let dedups: Vec<usize> = (0..steps.len())
            .filter(|&i| matches!(steps[i].op, PlanOp::Dedup { .. }))
            .collect();
        assert_eq!(dedups.len(), 2, "{lowered}");
        assert_eq!(dedups[1], lowered.output());
        let PlanOp::Dedup { source } = steps[dedups[0]].op else {
            unreachable!()
        };
        let PlanOp::Project { source: lookup, .. } = steps[source].op else {
            panic!("the first δ follows a projection:\n{lowered}");
        };
        assert!(
            matches!(
                steps[lookup].op,
                PlanOp::KeyedJoin {
                    constraint_index: 2,
                    ..
                }
            ),
            "ψ3 feeds it:\n{lowered}"
        );
        let ticket = CostTicket::derive(&plan, &schema, 1_000_000, &lowered);
        assert_eq!(ticket.pipelines, 1);
        let priced = (
            ticket.fetch_bound,
            ticket.max_output_rows,
            ticket.fetch_ops,
            ticket.alloc_surface,
        );
        assert_eq!(priced, (235_460, 117_120, 4, 18));
    }
}

/// Example 3.1 through the analysis API: Q1 unknown/not bounded, Q2 bounded via
/// unsatisfiability, Q3 covered.
#[test]
fn example_3_1_verdicts() {
    let catalog = parse_catalog(
        "relation R1(a, b, e, f);
         relation R2(a, b);
         relation R3(a, b, c);",
    )
    .unwrap();
    let config = BoundedConfig::default();

    let a1 = parse_access_schema(&catalog, "R1(a -> b, 5); R1(e -> f, 5);").unwrap();
    let q1 = parse_query(&catalog, "Q1(x, y) :- R1(x1, x, x2, y), x1 = 1, x2 = 1.").unwrap();
    let verdict = analyze_cq(q1.as_cq().unwrap(), &a1, &config).unwrap();
    assert!(!verdict.is_bounded());

    let a2 = parse_access_schema(&catalog, "R2(a -> b, 1);").unwrap();
    let q2 = parse_query(&catalog, "Q2(x) :- R2(x, x1), R2(x, x2), x1 = 1, x2 = 2.").unwrap();
    let verdict = analyze_cq(q2.as_cq().unwrap(), &a2, &config).unwrap();
    assert_eq!(verdict, BoundedVerdict::Unsatisfiable);

    let a3 = parse_access_schema(&catalog, "R3(-> c, 1); R3(a, b -> c, 9);").unwrap();
    let q3 = parse_query(
        &catalog,
        "Q3(x, y) :- R3(x1, x2, x), R3(z1, z2, y), R3(x, y, z3), x1 = 1, x2 = 1.",
    )
    .unwrap();
    let verdict = analyze_cq(q3.as_cq().unwrap(), &a3, &config).unwrap();
    assert!(matches!(verdict, BoundedVerdict::Covered(_)));
}

/// Example 4.1: envelopes for Q1 sandwich the exact answer on instances satisfying A.
#[test]
fn example_4_1_envelopes_sandwich_the_answer() {
    let catalog = parse_catalog("relation R(a, b);").unwrap();
    let schema = parse_access_schema(&catalog, "R(a -> b, 3);").unwrap();
    let q1 = parse_query(&catalog, "Q1(x) :- R(w, x), R(y, w), R(x, z), w = 1.").unwrap();
    let q1 = q1.as_cq().unwrap();
    assert!(!cover::is_covered(q1, &schema));

    let upper = upper_envelope_cq(q1, &schema, &EnvelopeConfig::default())
        .unwrap()
        .expect("upper envelope exists");
    let lower = lower_envelope_cq(q1, &schema, &catalog, 2, &EnvelopeConfig::default())
        .unwrap()
        .expect("lower envelope exists");

    // An instance satisfying R(a → b, 3).
    let mut db = Database::new(catalog.clone());
    for (a, b) in [(1, 2), (1, 3), (2, 1), (3, 5), (5, 1), (2, 7)] {
        db.insert("R", vec![Value::int(a), Value::int(b)]).unwrap();
    }
    let indexed = IndexedDatabase::build(db, schema.clone()).unwrap();
    assert!(indexed.satisfies_schema());

    let (exact, _) = eval_cq(q1, indexed.database()).unwrap();
    let upper_plan = bounded_plan(&upper.query, &schema).unwrap();
    let (upper_answer, _) = execute_plan(&upper_plan, &indexed).unwrap();
    let lower_plan = bounded_plan(&lower.query, &schema).unwrap();
    let (lower_answer, _) = execute_plan(&lower_plan, &indexed).unwrap();

    // Ql(D) ⊆ Q(D) ⊆ Qu(D).
    assert!(lower_answer.row_set().is_subset(&exact.row_set()));
    assert!(exact.row_set().is_subset(&upper_answer.row_set()));
    // The gaps respect the derived constant bounds.
    let nu = upper.approximation_bound(&schema, 1_000).unwrap();
    assert!((upper_answer.len() - exact.len()) as u64 <= nu);
    let input_report = cover::coverage(q1, &schema);
    let nl = lower.approximation_bound(&input_report, &schema, 1_000);
    assert!((exact.len() - lower_answer.len()) as u64 <= nl);
}

/// Example 4.5: the split-based lower envelope is A-equivalent to the query, so the two
/// agree on every instance satisfying the schema.
#[test]
fn example_4_5_split_envelope_agrees_on_data() {
    let catalog = parse_catalog("relation R(a, b, c);").unwrap();
    let schema = parse_access_schema(&catalog, "R(a -> b, 4); R(b -> c, 1);").unwrap();
    let q = parse_query(&catalog, "Q(x, y) :- R(1, x, y).").unwrap();
    let q = q.as_cq().unwrap();
    let envelope = lower_envelope_cq(q, &schema, &catalog, 1, &EnvelopeConfig::default())
        .unwrap()
        .expect("Example 4.5 has a 1-expansion lower envelope");
    assert!(envelope.used_split);

    let mut db = Database::new(catalog.clone());
    for (a, b, c) in [(1, 10, 100), (1, 11, 110), (2, 10, 100), (2, 12, 120)] {
        db.insert("R", vec![Value::int(a), Value::int(b), Value::int(c)])
            .unwrap();
    }
    let indexed = IndexedDatabase::build(db, schema.clone()).unwrap();
    assert!(indexed.satisfies_schema());

    let (exact, _) = eval_cq(q, indexed.database()).unwrap();
    let plan = bounded_plan(&envelope.query, &schema).unwrap();
    let (approx, _) = execute_plan(&plan, &indexed).unwrap();
    assert!(approx.same_rows(&exact));
    assert_eq!(exact.len(), 2);
}

/// Example 5.1: the parameterized accidents query specializes with `date`, and the
/// specialized query runs boundedly for any valuation.
#[test]
fn example_5_1_specialization_runs() {
    let catalog = bea::workload::accidents::catalog();
    let schema = bea::workload::accidents::access_schema(&catalog);
    let query = bea::workload::accidents::parameterized_query(&catalog).unwrap();

    let spec = specialize_cq(&query, &schema, 2, &SpecializeConfig::default())
        .unwrap()
        .expect("Example 5.1 is boundedly specializable");
    assert_eq!(spec.parameter_names, vec!["date".to_owned()]);

    let db = bea::workload::accidents::generate(&bea::workload::accidents::AccidentsConfig {
        num_days: 4,
        avg_accidents_per_day: 30,
        avg_casualties_per_accident: 2,
        num_districts: 6,
        seed: 99,
    })
    .unwrap();
    let indexed = IndexedDatabase::build(db, schema.clone()).unwrap();
    assert!(indexed.satisfies_schema());

    for day in 0..4 {
        let concrete = instantiate(
            &query,
            &[("date", bea::workload::accidents::date_value(day))],
        )
        .unwrap();
        assert!(cover::is_covered(&concrete, &schema));
        let plan = bounded_plan(&concrete, &schema).unwrap();
        let (bounded, stats) = execute_plan(&plan, &indexed).unwrap();
        let (naive, _) = eval_cq(&concrete, indexed.database()).unwrap();
        assert!(bounded.same_rows(&naive));
        assert!(stats.tuples_fetched > 0);
        assert!(!bounded.is_empty(), "every generated day has accidents");
    }
}

/// Lemma 3.3 flavour: A-equivalence is genuinely coarser than classical equivalence, and
/// the executor agrees with it on instances satisfying A.
#[test]
fn a_equivalent_rewriting_agrees_on_satisfying_instances() {
    let catalog = parse_catalog("relation R(a, b);").unwrap();
    let schema = parse_access_schema(&catalog, "R(a -> b, 4);").unwrap();
    // Q has a redundant second atom; the analysis rewrites it away.
    let q = parse_query(&catalog, "Q(y) :- R(x, y), R(z, y), x = 1.").unwrap();
    let q = q.as_cq().unwrap();
    let verdict = analyze_cq(q, &schema, &BoundedConfig::default()).unwrap();
    let BoundedVerdict::EquivalentCovered { rewritten, .. } = &verdict else {
        panic!("expected an equivalent covered rewriting, got {verdict:?}");
    };
    assert!(bea::core::reason::containment::a_equivalent(
        q,
        rewritten,
        &schema,
        &ReasonConfig::default()
    )
    .unwrap());

    let mut db = Database::new(catalog.clone());
    for (a, b) in [(1, 5), (1, 6), (2, 5), (3, 9)] {
        db.insert("R", vec![Value::int(a), Value::int(b)]).unwrap();
    }
    let indexed = IndexedDatabase::build(db, schema.clone()).unwrap();
    let plan = bounded_plan(rewritten, &schema).unwrap();
    let (bounded, _) = execute_plan(&plan, &indexed).unwrap();
    let (naive, _) = eval_cq(q, indexed.database()).unwrap();
    assert!(bounded.same_rows(&naive));
}
