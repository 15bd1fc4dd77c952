//! Every plan that synthesis returns lowers: a census over random workloads.
//!
//! `lower_plan` accepts only the fragment plan synthesis emits and refuses a shared
//! step, a σ that does not fuse into a keyed lookup, a product whose right side is not
//! a constant and a difference (see `bea_core::plan::physical`). This census plans querygen workloads of the accidents,
//! e-commerce and graph families at `max_atoms` 3 and 5 — each query through
//! `bounded_plan` and `bounded_plan_via_analysis`, and each pair of covered queries of
//! one arity as a union through `bounded_plan_ucq` — and E3's workload under every one
//! of its constraint sets, and lowers each plan they return. Floors on the number of
//! plans checked keep it from passing with nothing to check.

use bea_bench::claims::coverage_setup;
use bea_core::access::AccessSchema;
use bea_core::bounded::{bounded_plan_via_analysis, BoundedConfig};
use bea_core::plan::{bounded_plan, bounded_plan_ucq, lower_plan, QueryPlan};
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
    /// Plan every query of `workload` under `schema`; lower what comes back. The first
    /// `analyzed` queries also go through the bounded-evaluability analysis, and
    /// consecutive covered queries of one arity are planned as unions.
    fn plan(&mut self, workload: &[ConjunctiveQuery], schema: &AccessSchema, analyzed: usize) {
        let mut covered: Vec<&ConjunctiveQuery> = Vec::new();
        for (i, query) in workload.iter().enumerate() {
            if let Ok(plan) = bounded_plan(query, schema) {
                self.cq += lowers(&plan);
                covered.push(query);
            }
            if i < analyzed {
                let config = BoundedConfig::default();
                if let Ok(Some(plan)) = bounded_plan_via_analysis(query, schema, &config) {
                    self.analysis += lowers(&plan);
                }
            }
        }
        for pair in covered.chunks_exact(2) {
            let branches = vec![pair[0].clone(), pair[1].clone()];
            let Ok(union) = UnionQuery::from_branches("U", branches) else {
                continue;
            };
            if let Ok(plan) = bounded_plan_ucq(&union, schema, &ReasonConfig::default()) {
                self.ucq += lowers(&plan);
            }
        }
    }
}

/// Lower `plan`, failing with the refusal and the plan: 1 plan checked.
fn lowers(plan: &QueryPlan) -> usize {
    if let Err(refusal) = lower_plan(plan) {
        panic!("a synthesized plan is refused: {refusal}\n{plan}");
    }
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
