//! Every plan that synthesis returns is bounded and lowers to one operator tree with one
//! keyed join per fetch, priced as the plan it came from: a census over random
//! workloads.
//!
//! Synthesis emits every fetch as a keyed join and every other product as `T × {c}`, and
//! `lower_plan` keeps each step, adding the δs set semantics needs (see
//! `bea_core::plan::physical`). This census plans querygen workloads of the accidents,
//! e-commerce and graph families at `max_atoms` 3 and 5 — each query through
//! `bounded_plan` and `bounded_plan_via_analysis`, and each pair of covered queries of
//! one arity as a union through `bounded_plan_ucq` — and E3's workload under every one
//! of its constraint sets. For each plan they return it checks that the plan is
//! boundedly evaluable under its schema (`is_bounded_under`), that it lowers, that
//! lowering the lowered plan returns it unchanged (a δ over a set is elided, and nothing
//! is left to prune), that the lowered plan costs what the plan costs at 10³ and 10⁶
//! tuples (a δ passes its source's bound), that it has exactly as many keyed joins as
//! the cost model counts fetches (no fetch is split or dropped), that its output never
//! repeats a row, and that it is one tree: every step is read by one other and the
//! output by none. Floors on the number of plans checked keep it from passing with
//! nothing to check.

use bea_bench::claims::coverage_setup;
use bea_core::access::AccessSchema;
use bea_core::bounded::{bounded_plan_via_analysis, BoundedConfig};
use bea_core::plan::{bounded_plan, bounded_plan_ucq, lower_plan, PlanOp, QueryPlan};
use bea_core::query::cq::ConjunctiveQuery;
use bea_core::query::ucq::UnionQuery;
use bea_core::reason::ReasonConfig;
use bea_core::schema::Catalog;
use bea_workload::{accidents, ecommerce, graph, querygen};

/// Plans checked, per synthesis entry point.
#[derive(Default)]
struct Census {
    cq: usize,
    ucq: usize,
    analysis: usize,
}

impl Census {
    /// Plan every query of `workload` under `schema`; check what comes back. The first
    /// `analyzed` queries also go through the bounded-evaluability analysis, and
    /// consecutive covered queries of one arity are planned as unions.
    fn plan(&mut self, workload: &[ConjunctiveQuery], schema: &AccessSchema, analyzed: usize) {
        let mut covered: Vec<&ConjunctiveQuery> = Vec::new();
        for (i, query) in workload.iter().enumerate() {
            if let Ok(plan) = bounded_plan(query, schema) {
                self.cq += checks(&plan, schema);
                covered.push(query);
            }
            if i < analyzed {
                let config = BoundedConfig::default();
                if let Ok(Some(plan)) = bounded_plan_via_analysis(query, schema, &config) {
                    self.analysis += checks(&plan, schema);
                }
            }
        }
        for pair in covered.chunks_exact(2) {
            let branches = vec![pair[0].clone(), pair[1].clone()];
            let Ok(union) = UnionQuery::from_branches("U", branches) else {
                continue;
            };
            if let Ok(plan) = bounded_plan_ucq(&union, schema, &ReasonConfig::default()) {
                self.ucq += checks(&plan, schema);
            }
        }
    }
}

/// Check `plan`, synthesized under `schema` (see the module docs), failing with the plan
/// and what went wrong: 1 plan checked.
fn checks(plan: &QueryPlan, schema: &AccessSchema) -> usize {
    assert!(plan.is_bounded_under(schema), "an unbounded plan:\n{plan}");
    let lowered = match lower_plan(plan) {
        Ok(lowered) => lowered,
        Err(refusal) => panic!("a synthesized plan is refused: {refusal}\n{plan}"),
    };
    assert_eq!(
        lower_plan(&lowered).as_ref(),
        Ok(&lowered),
        "lowering is not idempotent on\n{plan}\n{lowered}"
    );
    for tuples in [1_000, 1_000_000] {
        let (cost, priced) = (plan.cost(schema, tuples), lowered.cost(schema, tuples));
        assert_eq!(
            (
                cost.max_fetched_tuples,
                cost.max_output_rows,
                cost.fetch_ops
            ),
            (
                priced.max_fetched_tuples,
                priced.max_output_rows,
                priced.fetch_ops
            ),
            "the lowering is priced otherwise at {tuples} tuples:\n{plan}\n{lowered}"
        );
    }
    let steps = lowered.steps();
    let joins = (steps.iter())
        .filter(|step| matches!(step.op, PlanOp::KeyedJoin { .. }))
        .count();
    let fetches = plan.cost(schema, 1_000_000).fetch_ops;
    assert_eq!(joins, fetches, "{plan}\n{lowered}");
    let output = lowered.output();
    let columns: Vec<usize> = (0..steps[output].columns.len()).collect();
    assert!(
        lowered.keys_distinct(output, &columns),
        "the output can repeat a row:\n{plan}\n{lowered}"
    );
    let mut readers = vec![0; steps.len()];
    readers[output] += 1;
    for input in steps.iter().flat_map(|step| step.op.inputs()) {
        readers[input] += 1;
    }
    assert!(
        readers.iter().all(|&r| r == 1),
        "not one tree:\n{plan}\n{lowered}"
    );
    1
}

#[test]
fn every_synthesized_plan_lowers() {
    let families: [(&str, Catalog, AccessSchema); 3] = [
        {
            let catalog = accidents::catalog();
            let schema = accidents::access_schema(&catalog);
            ("accidents", catalog, schema)
        },
        {
            let catalog = ecommerce::catalog();
            let schema = ecommerce::access_schema(&catalog);
            ("ecommerce", catalog, schema)
        },
        {
            let catalog = graph::catalog();
            let schema = graph::access_schema(&catalog, &graph::GraphConfig::default());
            ("graph", catalog, schema)
        },
    ];
    let mut census = Census::default();
    for (family, catalog, schema) in &families {
        for max_atoms in [3, 5] {
            for seed in 0..4 {
                let config = querygen::QueryGenConfig {
                    max_atoms,
                    seed,
                    ..querygen::QueryGenConfig::default()
                };
                let workload = querygen::random_workload(catalog, Some(schema), 100, &config)
                    .unwrap_or_else(|e| panic!("{family} workload: {e}"));
                census.plan(&workload, schema, 10);
            }
        }
    }
    let e3 = coverage_setup().unwrap();
    for (_, schema) in &e3.sets {
        census.plan(&e3.workload, schema, 20);
    }
    let Census { cq, ucq, analysis } = census;
    assert!(
        cq >= 1_500 && ucq >= 250 && analysis >= 120,
        "{cq} CQ plans, {ucq} UCQ plans, {analysis} plans from the analysis"
    );
}
