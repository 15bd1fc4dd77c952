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
//! A ticket is derived once per submission from the plan (the fetch bound, via
//! [`super::QueryPlan::cost`], which prices each keyed join at |T| · N, and a δ at its
//! source's bound, so the plan and its lowering price alike) and its lowering (the
//! **allocation surface**). The allocation surface is `step_surface` — every keyed join (the one step that fetches)
//! demands one buffer per fetched position plus the key row and the selection vector —
//! summed over the lowered plan's steps. Lowering does not depend on the store, so
//! neither does the ticket.

use super::{AccessSchema, PlanOp, QueryPlan};

/// Per-fetch-step buffer demand: one buffer per fetched position (`|X| + |Y|`), plus
/// the key row and the selection vector; zero for every other step.
fn step_surface(op: &PlanOp) -> u64 {
    match op {
        PlanOp::KeyedJoin { positions, .. } => positions.len() as u64 + 2,
        _ => 0,
    }
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
    /// Fetch operations in the plan.
    pub fetch_ops: usize,
    /// Always 1: a lowered plan is one operator tree. Kept only because the benchmark
    /// harness (`benchmark/`) still reads it.
    pub pipelines: usize,
    /// Total per-probe buffer demand: `step_surface` summed over the lowered plan's
    /// steps.
    pub alloc_surface: u64,
}

impl CostTicket {
    /// Price `plan` (lowered to `lowered`) under `schema` for a database of `db_size`
    /// tuples. The fetch bound comes from the cost model, the allocation surface from
    /// the lowering.
    pub fn derive(
        plan: &QueryPlan,
        schema: &AccessSchema,
        db_size: u64,
        lowered: &QueryPlan,
    ) -> Self {
        let cost = plan.cost(schema, db_size);
        CostTicket {
            query_name: plan.query_name().to_owned(),
            fetch_bound: cost.max_fetched_tuples,
            max_output_rows: cost.max_output_rows,
            fetch_ops: cost.fetch_ops,
            pipelines: 1,
            alloc_surface: lowered.steps().iter().map(|s| step_surface(&s.op)).sum(),
        }
    }
}

impl std::fmt::Display for CostTicket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: fetch_bound={} max_output_rows={} fetch_ops={} pipelines={} alloc_surface={}",
            self.query_name,
            self.fetch_bound,
            self.max_output_rows,
            self.fetch_ops,
            self.pipelines,
            self.alloc_surface
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessConstraint;
    use crate::plan::{lower_plan, PlanBuilder};
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

    /// A union of keyed-lookup branches anchored at `keys`.
    fn union_of_lookups(keys: &[i64]) -> QueryPlan {
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
        b.finish("Q", acc).unwrap()
    }

    #[test]
    fn ticket_matches_the_cost_model_and_the_dag() {
        let (_, schema) = setup();
        let plan = union_of_lookups(&[1, 2, 3]);
        let lowered = lower_plan(&plan).unwrap();
        let ticket = CostTicket::derive(&plan, &schema, 1_000, &lowered);

        let cost = plan.cost(&schema, 1_000);
        assert_eq!(ticket.query_name, "Q");
        assert_eq!(ticket.fetch_bound, cost.max_fetched_tuples);
        assert_eq!(ticket.fetch_bound, 30, "3 anchors × bound 10");
        assert_eq!(ticket.max_output_rows, cost.max_output_rows);
        assert_eq!(ticket.fetch_ops, 3);

        // Three keyed joins over 2 positions each demand 4 buffers.
        assert_eq!(ticket.pipelines, 1);
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
        let lowered = lower_plan(&plan).unwrap();
        let ticket = CostTicket::derive(&plan, &schema, 10, &lowered);
        assert_eq!(ticket.fetch_bound, 0);
        assert_eq!(ticket.alloc_surface, 0);
        assert_eq!(ticket.fetch_ops, 0);
    }

    #[test]
    fn ticket_display_names_the_budgeted_quantities() {
        let (_, schema) = setup();
        let plan = union_of_lookups(&[1]);
        let lowered = lower_plan(&plan).unwrap();
        let ticket = CostTicket::derive(&plan, &schema, 100, &lowered);
        let line = ticket.to_string();
        assert!(line.contains("fetch_bound=10"));
        assert!(line.contains("alloc_surface="));
        assert!(line.starts_with("Q:"));
    }
}
