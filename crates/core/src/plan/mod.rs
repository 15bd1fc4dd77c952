//! Boundedly evaluable query plans (Section 2 of the paper).
//!
//! A query plan is a sequence `T₁ = δ₁, …, Tₙ = δₙ` where each `δᵢ` is a constant
//! singleton `{a}`, a `fetch(X ∈ Tⱼ, R, Y)` that retrieves tuples through an index, or a
//! relational operation (π, σ, ×, ∪, −, ρ) over earlier results. A plan is *boundedly
//! evaluable under `A`* when every fetch is backed by an access constraint of `A` (so the
//! amount of data it retrieves is bounded by the constraint's cardinality) and the plan
//! length depends only on the query, the schema and `A` — never on the database.
//!
//! * [`QueryPlan`] / [`PlanOp`] — the logical plan IR, validation, cost bounds and
//!   pretty-printing.
//! * [`synthesis`] — construction of a boundedly evaluable plan from a coverage witness,
//!   which is the constructive half of Theorem 3.11 ("covered ⇒ boundedly evaluable").
//! * [`physical`] — rule-based lowering of the plans synthesis emits into streaming
//!   [`physical::PhysicalPlan`]s, one operator tree each (keyed-lookup fusion,
//!   projection pushdown, dedup elimination); any other plan is refused.
//! * [`ticket`] — admission-control [`ticket::CostTicket`]s: the fetch bound and
//!   per-probe allocation surface of a lowered plan, priced before execution.
//!
//! Plans are executed against indexed data by `bea-engine`.

pub mod physical;
pub mod synthesis;
pub mod ticket;

pub use physical::{lower_plan, lower_plan_with, LowerOptions, PhysOp, PhysStep, PhysicalPlan};
pub use synthesis::{bounded_plan, bounded_plan_for_report, bounded_plan_ucq};
pub use ticket::{step_surface, CostTicket};

use crate::access::AccessSchema;
use crate::error::{Error, Result};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of an intermediate result (`Tᵢ`) within a plan: its step index.
pub type NodeId = usize;

/// A selection predicate over the columns of an intermediate result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Predicate {
    /// The values in two columns must be equal.
    ColEqCol(usize, usize),
    /// The value in a column must equal a constant.
    ColEqConst(usize, Value),
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Predicate::ColEqCol(a, b) => write!(f, "#{a} = #{b}"),
            Predicate::ColEqConst(a, c) => write!(f, "#{a} = {c}"),
        }
    }
}

/// One plan operation (`δᵢ`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanOp {
    /// `{a}`: a single-row, single-column table holding a constant of the query.
    Const {
        /// The constant.
        value: Value,
    },
    /// A single row of arity 0 (the neutral element for ×); used to seed plans.
    Unit,
    /// The empty relation with the given arity (used for `A`-unsatisfiable queries).
    Empty {
        /// Number of columns.
        arity: usize,
    },
    /// `fetch(X ∈ Tⱼ, R, X ∪ Y)`: for every row of `source`, read the values of
    /// `key_cols` as an `X`-value and retrieve the matching `X ∪ Y` projections of `R`
    /// through the index of the backing access constraint.
    Fetch {
        /// The node supplying the key values.
        source: NodeId,
        /// Columns of `source` holding the key, aligned with `x_attrs`.
        key_cols: Vec<usize>,
        /// The relation fetched from.
        relation: String,
        /// Attribute positions of `R` forming the index key `X` (sorted).
        x_attrs: Vec<usize>,
        /// Attribute positions of `R` retrieved through the index (sorted, disjoint from
        /// `x_attrs`). The output columns of the fetch are `x_attrs ++ y_attrs`.
        y_attrs: Vec<usize>,
        /// Index of the access constraint backing this fetch in the access schema.
        constraint_index: usize,
    },
    /// Projection onto the given columns (in the given order; may repeat columns).
    Project {
        /// Input node.
        source: NodeId,
        /// Columns to keep.
        cols: Vec<usize>,
    },
    /// Selection by a conjunction of predicates.
    Select {
        /// Input node.
        source: NodeId,
        /// Conjunction of predicates.
        predicates: Vec<Predicate>,
    },
    /// Cartesian product; the right operand's columns are appended to the left's.
    Product {
        /// Left input.
        left: NodeId,
        /// Right input.
        right: NodeId,
    },
    /// Set union (operands must have equal arity).
    Union {
        /// Left input.
        left: NodeId,
        /// Right input.
        right: NodeId,
    },
}

/// One plan step: an operation plus human-readable column labels for its result.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanStep {
    /// The operation producing this step's result.
    pub op: PlanOp,
    /// Labels of the result columns (variable names, attribute names or constants).
    pub columns: Vec<String>,
}

/// A query plan: a sequence of steps and the index of the output step.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QueryPlan {
    query_name: String,
    steps: Vec<PlanStep>,
    output: NodeId,
}

/// Worst-case cost bounds of a plan, derived from the access schema only (Section 2:
/// the cost of a boundedly evaluable plan is independent of `|D|`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCost {
    /// Upper bound on the number of tuples fetched from the database.
    pub max_fetched_tuples: u64,
    /// Upper bound on the number of rows in the plan's output.
    pub max_output_rows: u64,
    /// Number of fetch operations in the plan.
    pub fetch_ops: usize,
    /// Total number of plan operations.
    pub total_ops: usize,
}

impl QueryPlan {
    /// Build a plan from its steps; validates structural well-formedness.
    pub fn new(
        query_name: impl Into<String>,
        steps: Vec<PlanStep>,
        output: NodeId,
    ) -> Result<Self> {
        let plan = Self {
            query_name: query_name.into(),
            steps,
            output,
        };
        plan.validate()?;
        Ok(plan)
    }

    /// The name of the query this plan answers.
    pub fn query_name(&self) -> &str {
        &self.query_name
    }

    /// The plan steps in evaluation order.
    pub fn steps(&self) -> &[PlanStep] {
        &self.steps
    }

    /// The output node.
    pub fn output(&self) -> NodeId {
        self.output
    }

    /// Number of operations in the plan (the paper's plan length `n`).
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the plan has no steps (never the case for well-formed plans).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Structural validation: every referenced node is an earlier step, columns are in
    /// range, and arities agree for a union.
    pub fn validate(&self) -> Result<()> {
        if self.steps.is_empty() {
            return Err(Error::InvalidPlan {
                reason: "plan has no steps".into(),
            });
        }
        if self.output >= self.steps.len() {
            return Err(Error::InvalidPlan {
                reason: format!("output node {} is out of range", self.output),
            });
        }
        for (i, step) in self.steps.iter().enumerate() {
            let check_source = |j: NodeId, what: &str| -> Result<()> {
                if j >= i {
                    return Err(Error::InvalidPlan {
                        reason: format!(
                            "step {i} references {what} {j}, which is not an earlier step"
                        ),
                    });
                }
                Ok(())
            };
            let arity = |j: NodeId| self.steps[j].columns.len();
            match &step.op {
                PlanOp::Const { .. } => {
                    if step.columns.len() != 1 {
                        return Err(Error::InvalidPlan {
                            reason: format!("constant step {i} must have exactly one column"),
                        });
                    }
                }
                PlanOp::Unit => {
                    if !step.columns.is_empty() {
                        return Err(Error::InvalidPlan {
                            reason: format!("unit step {i} must have no columns"),
                        });
                    }
                }
                PlanOp::Empty { arity: a } => {
                    if step.columns.len() != *a {
                        return Err(Error::InvalidPlan {
                            reason: format!(
                                "empty step {i} declares arity {a} but has {} labels",
                                step.columns.len()
                            ),
                        });
                    }
                }
                PlanOp::Fetch {
                    source,
                    key_cols,
                    x_attrs,
                    y_attrs,
                    ..
                } => {
                    check_source(*source, "fetch source")?;
                    if key_cols.len() != x_attrs.len() {
                        return Err(Error::InvalidPlan {
                            reason: format!(
                                "fetch step {i} has {} key columns for {} key attributes",
                                key_cols.len(),
                                x_attrs.len()
                            ),
                        });
                    }
                    if key_cols.iter().any(|&c| c >= arity(*source)) {
                        return Err(Error::InvalidPlan {
                            reason: format!("fetch step {i} references a key column out of range"),
                        });
                    }
                    if step.columns.len() != x_attrs.len() + y_attrs.len() {
                        return Err(Error::InvalidPlan {
                            reason: format!("fetch step {i} must output |X| + |Y| columns"),
                        });
                    }
                }
                PlanOp::Project { source, cols } => {
                    check_source(*source, "projection source")?;
                    if cols.iter().any(|&c| c >= arity(*source)) {
                        return Err(Error::InvalidPlan {
                            reason: format!("projection step {i} references a column out of range"),
                        });
                    }
                    if step.columns.len() != cols.len() {
                        return Err(Error::InvalidPlan {
                            reason: format!("projection step {i} has mismatched column labels"),
                        });
                    }
                }
                PlanOp::Select { source, predicates } => {
                    check_source(*source, "selection source")?;
                    let a = arity(*source);
                    for p in predicates {
                        let ok = match p {
                            Predicate::ColEqCol(x, y) => *x < a && *y < a,
                            Predicate::ColEqConst(x, _) => *x < a,
                        };
                        if !ok {
                            return Err(Error::InvalidPlan {
                                reason: format!(
                                    "selection step {i} references a column out of range"
                                ),
                            });
                        }
                    }
                    if step.columns.len() != a {
                        return Err(Error::InvalidPlan {
                            reason: format!("selection step {i} must keep its source arity"),
                        });
                    }
                }
                PlanOp::Product { left, right } => {
                    check_source(*left, "product operand")?;
                    check_source(*right, "product operand")?;
                    if step.columns.len() != arity(*left) + arity(*right) {
                        return Err(Error::InvalidPlan {
                            reason: format!("product step {i} has mismatched column labels"),
                        });
                    }
                }
                PlanOp::Union { left, right } => {
                    check_source(*left, "operand")?;
                    check_source(*right, "operand")?;
                    if arity(*left) != arity(*right) {
                        return Err(Error::InvalidPlan {
                            reason: format!("step {i} combines operands of different arity"),
                        });
                    }
                    if step.columns.len() != arity(*left) {
                        return Err(Error::InvalidPlan {
                            reason: format!("step {i} has mismatched column labels"),
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Is this plan boundedly evaluable under the access schema?
    ///
    /// Checks the fetch condition of Section 2: every `fetch(X ∈ T, R, Y)` must be backed
    /// by a constraint `R(X → Y′, N)` of `A` with `Y ⊆ X ∪ Y′`. (The length condition is
    /// trivially met: plans are built from the query and schema without reference to any
    /// database.)
    ///
    /// Kept public though only tests call it: `tests/end_to_end.rs`,
    /// `tests/paper_examples.rs` and `tests/properties.rs` check with it that every
    /// synthesized plan meets Section 2's definition.
    pub fn is_bounded_under(&self, schema: &AccessSchema) -> bool {
        self.steps.iter().all(|step| match &step.op {
            PlanOp::Fetch {
                relation,
                x_attrs,
                y_attrs,
                constraint_index,
                ..
            } => match schema.constraint(*constraint_index) {
                Some(c) => {
                    let xy = c.xy();
                    c.relation() == relation
                        && x_attrs == c.x()
                        && y_attrs.iter().all(|p| xy.contains(p))
                }
                None => false,
            },
            _ => true,
        })
    }

    /// Worst-case cost bounds under the access schema, for a database of `db_size` tuples
    /// (`db_size` only matters for general, sublinear constraints).
    pub fn cost(&self, schema: &AccessSchema, db_size: u64) -> PlanCost {
        let mut row_bounds: Vec<u64> = Vec::with_capacity(self.steps.len());
        let mut fetched: u64 = 0;
        let mut fetch_ops = 0usize;
        for step in &self.steps {
            let bound = match &step.op {
                PlanOp::Const { .. } | PlanOp::Unit => 1,
                PlanOp::Empty { .. } => 0,
                PlanOp::Fetch {
                    source,
                    constraint_index,
                    ..
                } => {
                    fetch_ops += 1;
                    let per_key = schema
                        .constraint(*constraint_index)
                        .map(|c| c.cardinality().bound(db_size))
                        .unwrap_or(u64::MAX);
                    let keys = row_bounds[*source];
                    let total = keys.saturating_mul(per_key);
                    fetched = fetched.saturating_add(total);
                    total
                }
                PlanOp::Project { source, .. } => row_bounds[*source],
                PlanOp::Select { source, predicates } => {
                    // Keyed-join pattern emitted by plan synthesis: σ over
                    // `T × fetch(X ∈ T, R, …)` with equality predicates on all key
                    // columns. Each row of `T` matches at most `N` fetched rows (those
                    // sharing its key), so the bound is |T| · N rather than the generic
                    // |T| · |fetch| product bound.
                    let keyed_join = match &self.steps[*source].op {
                        PlanOp::Product { left, right } => match &self.steps[*right].op {
                            PlanOp::Fetch {
                                source: fetch_source,
                                key_cols,
                                constraint_index,
                                ..
                            } if fetch_source == left => {
                                let left_arity = self.steps[*left].columns.len();
                                let all_keys_tied = key_cols.iter().enumerate().all(|(i, &kc)| {
                                    predicates.contains(&Predicate::ColEqCol(kc, left_arity + i))
                                });
                                if all_keys_tied {
                                    let per_key = schema
                                        .constraint(*constraint_index)
                                        .map(|c| c.cardinality().bound(db_size))
                                        .unwrap_or(u64::MAX);
                                    Some(row_bounds[*left].saturating_mul(per_key))
                                } else {
                                    None
                                }
                            }
                            _ => None,
                        },
                        _ => None,
                    };
                    keyed_join.unwrap_or(row_bounds[*source])
                }
                PlanOp::Product { left, right } => {
                    row_bounds[*left].saturating_mul(row_bounds[*right])
                }
                PlanOp::Union { left, right } => {
                    row_bounds[*left].saturating_add(row_bounds[*right])
                }
            };
            row_bounds.push(bound);
        }
        PlanCost {
            max_fetched_tuples: fetched,
            max_output_rows: row_bounds[self.output],
            fetch_ops,
            total_ops: self.steps.len(),
        }
    }
}

impl fmt::Display for QueryPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "plan for {}:", self.query_name)?;
        for (i, step) in self.steps.iter().enumerate() {
            let marker = if i == self.output { " (output)" } else { "" };
            let cols = step.columns.join(", ");
            match &step.op {
                PlanOp::Const { value } => writeln!(f, "  T{i} = {{{value}}}{marker} [{cols}]")?,
                PlanOp::Unit => writeln!(f, "  T{i} = {{()}}{marker}")?,
                PlanOp::Empty { arity } => writeln!(f, "  T{i} = ∅/{arity}{marker}")?,
                PlanOp::Fetch {
                    source,
                    key_cols,
                    relation,
                    x_attrs,
                    y_attrs,
                    constraint_index,
                } => writeln!(
                    f,
                    "  T{i} = fetch(X ∈ π{key_cols:?}(T{source}), {relation}, X{x_attrs:?} ∪ Y{y_attrs:?}) via φ{constraint_index}{marker} [{cols}]"
                )?,
                PlanOp::Project { source, cols: c } => {
                    writeln!(f, "  T{i} = π{c:?}(T{source}){marker} [{cols}]")?
                }
                PlanOp::Select { source, predicates } => {
                    let preds = predicates
                        .iter()
                        .map(Predicate::to_string)
                        .collect::<Vec<_>>()
                        .join(" ∧ ");
                    writeln!(f, "  T{i} = σ[{preds}](T{source}){marker} [{cols}]")?
                }
                PlanOp::Product { left, right } => {
                    writeln!(f, "  T{i} = T{left} × T{right}{marker} [{cols}]")?
                }
                PlanOp::Union { left, right } => {
                    writeln!(f, "  T{i} = T{left} ∪ T{right}{marker} [{cols}]")?
                }
            }
        }
        Ok(())
    }
}

/// Incremental builder used by plan synthesis.
#[derive(Debug, Default)]
pub struct PlanBuilder {
    steps: Vec<PlanStep>,
}

impl PlanBuilder {
    /// Create an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&mut self, op: PlanOp, columns: Vec<String>) -> NodeId {
        self.steps.push(PlanStep { op, columns });
        self.steps.len() - 1
    }

    /// Column labels of a node.
    pub fn columns(&self, node: NodeId) -> &[String] {
        &self.steps[node].columns
    }

    /// Add a constant singleton `{a}`.
    pub fn constant(&mut self, value: Value, label: impl Into<String>) -> NodeId {
        self.push(PlanOp::Const { value }, vec![label.into()])
    }

    /// Add the unit table (one empty row).
    pub fn unit(&mut self) -> NodeId {
        self.push(PlanOp::Unit, Vec::new())
    }

    /// Add an empty table of the given arity.
    pub fn empty(&mut self, arity: usize) -> NodeId {
        self.push(PlanOp::Empty { arity }, vec!["∅".to_owned(); arity])
    }

    /// Add a fetch node; `labels` must cover the `|X| + |Y|` output columns.
    #[allow(clippy::too_many_arguments)]
    pub fn fetch(
        &mut self,
        source: NodeId,
        key_cols: Vec<usize>,
        relation: impl Into<String>,
        x_attrs: Vec<usize>,
        y_attrs: Vec<usize>,
        constraint_index: usize,
        labels: Vec<String>,
    ) -> NodeId {
        self.push(
            PlanOp::Fetch {
                source,
                key_cols,
                relation: relation.into(),
                x_attrs,
                y_attrs,
                constraint_index,
            },
            labels,
        )
    }

    /// Add a projection node.
    pub fn project(&mut self, source: NodeId, cols: Vec<usize>) -> NodeId {
        let labels = cols
            .iter()
            .map(|&c| self.steps[source].columns[c].clone())
            .collect();
        self.push(PlanOp::Project { source, cols }, labels)
    }

    /// Add a selection node (no-op when `predicates` is empty).
    pub fn select(&mut self, source: NodeId, predicates: Vec<Predicate>) -> NodeId {
        if predicates.is_empty() {
            return source;
        }
        let labels = self.steps[source].columns.clone();
        self.push(PlanOp::Select { source, predicates }, labels)
    }

    /// Add a product node.
    pub fn product(&mut self, left: NodeId, right: NodeId) -> NodeId {
        let mut labels = self.steps[left].columns.clone();
        labels.extend(self.steps[right].columns.iter().cloned());
        self.push(PlanOp::Product { left, right }, labels)
    }

    /// Add a union node.
    pub fn union(&mut self, left: NodeId, right: NodeId) -> NodeId {
        let labels = self.steps[left].columns.clone();
        self.push(PlanOp::Union { left, right }, labels)
    }

    /// Finish the plan with the given output node.
    pub fn finish(self, query_name: impl Into<String>, output: NodeId) -> Result<QueryPlan> {
        QueryPlan::new(query_name, self.steps, output)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessConstraint;
    use crate::schema::Catalog;

    fn schema() -> (Catalog, AccessSchema) {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let a =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 10).unwrap()
            ]);
        (c, a)
    }

    fn simple_plan() -> QueryPlan {
        // {1} ; fetch(a ∈ T0, R, {a,b}) ; σ ; π
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "x");
        let f = b.fetch(
            k,
            vec![0],
            "R",
            vec![0],
            vec![1],
            0,
            vec!["a".into(), "b".into()],
        );
        let s = b.select(f, vec![Predicate::ColEqConst(0, Value::int(1))]);
        let p = b.project(s, vec![1]);
        b.finish("Q", p).unwrap()
    }

    #[test]
    fn build_and_validate() {
        let plan = simple_plan();
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.steps()[plan.output()].columns.len(), 1);
        assert_eq!(plan.query_name(), "Q");
        assert!(!plan.is_empty());
        assert!(plan.validate().is_ok());
    }

    #[test]
    fn bounded_under_matching_schema() {
        let (_, a) = schema();
        let plan = simple_plan();
        assert!(plan.is_bounded_under(&a));

        // A schema whose only constraint is on a different key does not back the fetch.
        let mut c2 = Catalog::new();
        c2.declare("R", ["a", "b"]).unwrap();
        let other =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c2, "R", &["b"], &["a"], 10).unwrap()
            ]);
        assert!(!plan.is_bounded_under(&other));
        assert!(!plan.is_bounded_under(&AccessSchema::new()));
    }

    #[test]
    fn cost_bounds_are_database_independent() {
        let (_, a) = schema();
        let plan = simple_plan();
        let cost_small = plan.cost(&a, 1_000);
        let cost_big = plan.cost(&a, 1_000_000_000);
        assert_eq!(cost_small, cost_big);
        assert_eq!(cost_small.fetch_ops, 1);
        assert_eq!(cost_small.max_fetched_tuples, 10);
        assert_eq!(cost_small.max_output_rows, 10);
        assert_eq!(cost_small.total_ops, 4);
    }

    #[test]
    fn invalid_plans_are_rejected() {
        // Forward reference.
        let steps = vec![PlanStep {
            op: PlanOp::Project {
                source: 0,
                cols: vec![0],
            },
            columns: vec!["x".into()],
        }];
        assert!(QueryPlan::new("Q", steps, 0).is_err());

        // Output out of range.
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "x");
        let plan = b.finish("Q", k + 5);
        assert!(plan.is_err());

        // Union of mismatched arities.
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "x");
        let u = b.unit();
        let steps = vec![
            PlanStep {
                op: PlanOp::Const {
                    value: Value::int(1),
                },
                columns: vec!["x".into()],
            },
            PlanStep {
                op: PlanOp::Unit,
                columns: vec![],
            },
            PlanStep {
                op: PlanOp::Union { left: 0, right: 1 },
                columns: vec!["x".into()],
            },
        ];
        assert!(QueryPlan::new("Q", steps, 2).is_err());
        let _ = (k, u);
    }

    #[test]
    fn empty_and_unit_nodes() {
        let mut b = PlanBuilder::new();
        let e = b.empty(2);
        let plan = b.finish("Q", e).unwrap();
        assert_eq!(plan.steps()[plan.output()].columns.len(), 2);
        let (_, a) = schema();
        let cost = plan.cost(&a, 100);
        assert_eq!(cost.max_output_rows, 0);
        assert_eq!(cost.max_fetched_tuples, 0);
    }

    #[test]
    fn product_and_union_costs() {
        let (_, a) = schema();
        let mut b = PlanBuilder::new();
        let x = b.constant(Value::int(1), "x");
        let y = b.constant(Value::int(2), "y");
        let p = b.product(x, y);
        let q = b.project(p, vec![0]);
        let u = b.union(q, x);
        let plan = b.finish("Q", u).unwrap();
        let cost = plan.cost(&a, 10);
        assert_eq!(cost.max_output_rows, 2); // 1×1 → 1; union 1+1 = 2
        assert_eq!(cost.fetch_ops, 0);
        assert!(plan.is_bounded_under(&a));
        let display = plan.to_string();
        assert!(display.contains("×"));
        assert!(display.contains("∪"));
    }

    #[test]
    fn display_contains_fetch_and_output_marker() {
        let plan = simple_plan();
        let s = plan.to_string();
        assert!(s.contains("fetch"));
        assert!(s.contains("(output)"));
        assert!(s.contains("plan for Q"));
        assert!(Predicate::ColEqCol(0, 1).to_string().contains("#0 = #1"));
    }

    #[test]
    fn select_with_no_predicates_is_a_no_op() {
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "x");
        let s = b.select(k, vec![]);
        assert_eq!(s, k);
    }
}
