//! Cost tickets: the admission-control summary of a lowered plan.
//!
//! The paper's central property — a boundedly evaluable plan's worst-case data access
//! is known *before* execution, from the plan and the access schema alone — is exactly
//! the primitive a multi-query server needs: every submitted query presents a
//! [`CostTicket`] naming its fetch bound, and an admission controller can give hard
//! aggregate guarantees ("the queries running right now fetch at most B tuples
//! between them") by simple arithmetic on tickets, with no runtime measurement and no
//! trust in the client.
//!
//! A ticket is derived once per submission from the logical plan (the fetch bound, via
//! [`super::QueryPlan::cost`]) and its lowering (the pipeline decomposition, parallel
//! width, and the per-pipeline **allocation surface**). The allocation surface is the
//! engine's buffer-pool sizing rule, [`step_surface`] — every keyed lookup (the one
//! physical step that fetches) demands one buffer per fetched position plus the key
//! row and the selection vector — so a controller can also veto plans that would
//! allocate on the per-probe hot path beyond a configured surface, before the first
//! probe runs. Lowering does not
//! depend on the store, so neither does the ticket: a sharded store prices a query
//! exactly as its unsharded twin does.

use super::physical::{PhysOp, PhysicalPlan};
use super::{AccessSchema, QueryPlan};

/// Per-fetch-step buffer demand: one buffer per fetched position, plus the key row
/// and the selection vector; zero for every other step. The one copy of the formula:
/// the engine sizes its per-worker buffer pools with it too, so the ticket's surface
/// and the runtime's demand agree.
pub fn step_surface(op: &PhysOp) -> u64 {
    match op {
        PhysOp::KeyedLookup { positions, .. } => positions.len() as u64 + 2,
        _ => 0,
    }
}

/// The cost summary of one pipeline of the lowered plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineCost {
    /// The physical step this pipeline materializes.
    pub sink: usize,
    /// Keyed lookups — the steps that fetch — in the pipeline's region.
    pub fetch_steps: usize,
    /// The pipeline's worst-case simultaneous buffer demand on the probe path.
    pub alloc_surface: u64,
    /// Whether the scheduler may cut this pipeline into concurrent morsels.
    pub splittable: bool,
}

/// The admission-control summary of one lowered query: everything a controller needs
/// to accept, queue or reject the query before it executes. See the module docs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CostTicket {
    /// The query this ticket prices.
    pub query_name: String,
    /// Worst-case tuples fetched from the store, from [`QueryPlan::cost`] — the
    /// quantity aggregate fetch budgets are charged against.
    pub fetch_bound: u64,
    /// Worst-case rows in the query's answer.
    pub max_output_rows: u64,
    /// Fetch operations in the logical plan.
    pub fetch_ops: usize,
    /// Pipelines in the lowered plan's DAG — the query's job count before splitting.
    pub pipelines: usize,
    /// Maximum pipelines runnable concurrently (the DAG's level width).
    pub parallel_width: usize,
    /// Total per-probe buffer demand across all pipelines (the sum of the
    /// per-pipeline surfaces). Admission can veto plans whose surface exceeds a
    /// configured cap — plans that would allocate on the hot path.
    pub alloc_surface: u64,
    /// Per-pipeline breakdown, in the DAG's topological order.
    pub per_pipeline: Vec<PipelineCost>,
}

impl CostTicket {
    /// Price `plan` (lowered to `physical`) under `schema` for a database of
    /// `db_size` tuples. The fetch bound comes from the logical cost model; the
    /// pipeline shape and allocation surfaces come from the lowering.
    pub fn derive(
        plan: &QueryPlan,
        schema: &AccessSchema,
        db_size: u64,
        physical: &PhysicalPlan,
    ) -> Self {
        let cost = plan.cost(schema, db_size);
        let dag = physical.pipeline_dag();
        let per_pipeline: Vec<PipelineCost> = dag
            .pipelines()
            .iter()
            .map(|pipeline| {
                let region = physical.region_steps(pipeline.sink);
                let ops = region.iter().map(|&j| &physical.steps()[j].op);
                PipelineCost {
                    sink: pipeline.sink,
                    fetch_steps: ops
                        .clone()
                        .filter(|op| matches!(op, PhysOp::KeyedLookup { .. }))
                        .count(),
                    alloc_surface: ops.map(step_surface).sum(),
                    splittable: pipeline.morsel_source.is_some(),
                }
            })
            .collect();
        CostTicket {
            query_name: plan.query_name().to_owned(),
            fetch_bound: cost.max_fetched_tuples,
            max_output_rows: cost.max_output_rows,
            fetch_ops: cost.fetch_ops,
            pipelines: dag.len(),
            parallel_width: dag.parallel_width(),
            alloc_surface: per_pipeline.iter().map(|p| p.alloc_surface).sum(),
            per_pipeline,
        }
    }
}

impl std::fmt::Display for CostTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: fetch_bound={} max_output_rows={} fetch_ops={} pipelines={} width={} \
             alloc_surface={}",
            self.query_name,
            self.fetch_bound,
            self.max_output_rows,
            self.fetch_ops,
            self.pipelines,
            self.parallel_width,
            self.alloc_surface
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessConstraint;
    use crate::plan::{lower_plan, lower_plan_with, LowerOptions, PlanBuilder, Predicate};
    use crate::schema::Catalog;
    use crate::value::Value;

    fn setup() -> (Catalog, AccessSchema) {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let schema =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 10).unwrap()
            ]);
        (c, schema)
    }

    /// A union of keyed-lookup branches anchored at `keys` — the canonical
    /// multi-pipeline shape.
    fn union_of_lookups(keys: &[i64]) -> QueryPlan {
        let mut b = PlanBuilder::new();
        let branch = |b: &mut PlanBuilder, key: i64| {
            let k = b.constant(Value::int(key), "k");
            let fetched = b.fetch(
                k,
                vec![0],
                "R",
                vec![0],
                vec![1],
                0,
                vec!["a".into(), "b".into()],
            );
            let prod = b.product(k, fetched);
            b.select(prod, vec![Predicate::ColEqCol(0, 1)])
        };
        let mut acc = branch(&mut b, keys[0]);
        for &key in &keys[1..] {
            let next = branch(&mut b, key);
            acc = b.union(acc, next);
        }
        b.finish("Q", acc).unwrap()
    }

    #[test]
    fn ticket_matches_the_cost_model_and_the_dag() {
        let (_, schema) = setup();
        let plan = union_of_lookups(&[1, 2, 3]);
        let physical =
            lower_plan_with(&plan, &LowerOptions::new().with_exchange_parallelism(true)).unwrap();
        let ticket = CostTicket::derive(&plan, &schema, 1_000, &physical);

        let cost = plan.cost(&schema, 1_000);
        assert_eq!(ticket.query_name, "Q");
        assert_eq!(ticket.fetch_bound, cost.max_fetched_tuples);
        assert_eq!(ticket.fetch_bound, 30, "3 anchors × bound 10");
        assert_eq!(ticket.max_output_rows, cost.max_output_rows);
        assert_eq!(ticket.fetch_ops, 3);

        let dag = physical.pipeline_dag();
        assert_eq!(ticket.pipelines, dag.len());
        assert_eq!(ticket.parallel_width, dag.parallel_width());
        assert!(ticket.parallel_width >= 3);
        assert_eq!(ticket.per_pipeline.len(), dag.len());
        // Each branch pipeline carries one keyed lookup over 2 positions: surface 4.
        let branch_surfaces: Vec<u64> = ticket
            .per_pipeline
            .iter()
            .filter(|p| p.fetch_steps > 0)
            .map(|p| p.alloc_surface)
            .collect();
        assert_eq!(branch_surfaces, vec![4, 4, 4]);
        assert_eq!(ticket.alloc_surface, 12);
    }

    #[test]
    fn fetch_free_plans_have_zero_surface_and_bound() {
        let (_, schema) = setup();
        let mut b = PlanBuilder::new();
        let one = b.constant(Value::int(1), "x");
        let two = b.constant(Value::int(2), "x");
        let u = b.union(one, two);
        let plan = b.finish("C", u).unwrap();
        let physical = lower_plan(&plan).unwrap();
        let ticket = CostTicket::derive(&plan, &schema, 10, &physical);
        assert_eq!(ticket.fetch_bound, 0);
        assert_eq!(ticket.alloc_surface, 0);
        assert_eq!(ticket.fetch_ops, 0);
        assert!(ticket.pipelines >= 1);
        assert!(ticket.per_pipeline.iter().all(|p| p.fetch_steps == 0));
    }

    #[test]
    fn ticket_display_names_the_budgeted_quantities() {
        let (_, schema) = setup();
        let plan = union_of_lookups(&[1]);
        let physical = lower_plan(&plan).unwrap();
        let ticket = CostTicket::derive(&plan, &schema, 100, &physical);
        let line = ticket.to_string();
        assert!(line.contains("fetch_bound=10"));
        assert!(line.contains("alloc_surface="));
        assert!(line.starts_with("Q:"));
    }
}
