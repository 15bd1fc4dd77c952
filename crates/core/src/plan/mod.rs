//! Boundedly evaluable query plans (Section 2 of the paper).
//!
//! A query plan is a sequence `T₁ = δ₁, …, Tₙ = δₙ` over the paper's algebra: constant
//! singletons `{a}`, `fetch(X ∈ Tⱼ, R, Y)` through an index, and π, σ, × and ∪ over
//! earlier results. Every fetch plan synthesis makes is joined back to the step its keys
//! come from, `σ[key equalities](T × fetch(X ∈ T, R, Y))`, and every other product adds a
//! query constant, `T × {c}`; so the plan IR has seven operations, [`PlanOp`]: `{a}`, the
//! unit table `{()}`, `∅`, that keyed join, π, `T × {c}` and ∪. Each step is read by at
//! most one other, so a plan is one tree. A plan is *boundedly evaluable under `A`* when
//! every fetch is backed by an access constraint of `A` (so the amount of data it
//! retrieves is bounded by the constraint's cardinality) and the plan length depends
//! only on the query, the schema and `A` — never on the database.
//!
//! * [`QueryPlan`] / [`PlanOp`] — the logical plan IR, validation, cost bounds and
//!   pretty-printing in the paper's notation.
//! * [`synthesis`] — construction of a boundedly evaluable plan from a coverage witness,
//!   which is the constructive half of Theorem 3.11 ("covered ⇒ boundedly evaluable").
//! * [`physical`] — lowering into streaming [`physical::PhysicalPlan`]s, one operator
//!   per step plus the δs set semantics needs.
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

impl Predicate {
    /// True when every column the predicate reads is below `arity`.
    pub(crate) fn in_range(&self, arity: usize) -> bool {
        match self {
            Predicate::ColEqCol(a, b) => *a < arity && *b < arity,
            Predicate::ColEqConst(a, _) => *a < arity,
        }
    }
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
    /// `σ[key ties ∧ residual](T × fetch(X ∈ T, R, X ∪ Y))`, `T` being `source`: for
    /// every row of `T`, read the values of `key_cols` as an `X`-value, retrieve the
    /// matching `X ∪ Y` projections of `R` through the index of the backing access
    /// constraint, and keep each row of `T` beside each of its matches that meets
    /// `residual`. The key ties equate each key column with its fetched `X` column. The
    /// columns are the source's followed by `x_attrs ++ y_attrs`.
    KeyedJoin {
        /// The node supplying the key values.
        source: NodeId,
        /// Columns of `source` holding the key, aligned with `x_attrs`.
        key_cols: Vec<usize>,
        /// The relation fetched from.
        relation: String,
        /// Attribute positions of `R` forming the index key `X` (sorted).
        x_attrs: Vec<usize>,
        /// Attribute positions of `R` retrieved through the index (sorted, disjoint from
        /// `x_attrs`).
        y_attrs: Vec<usize>,
        /// Index of the access constraint backing this fetch in the access schema.
        constraint_index: usize,
        /// Predicates over the joined columns beyond the key ties.
        residual: Vec<Predicate>,
    },
    /// Projection onto the given columns (in the given order; may repeat columns).
    Project {
        /// Input node.
        source: NodeId,
        /// Columns to keep.
        cols: Vec<usize>,
    },
    /// `T × {c}`: every row of `source` with `value` appended as one more column.
    AppendConst {
        /// Input node.
        source: NodeId,
        /// The appended constant.
        value: Value,
    },
    /// Set union (operands must have equal arity).
    Union {
        /// Left input.
        left: NodeId,
        /// Right input.
        right: NodeId,
    },
}

impl PlanOp {
    /// The steps this operation reads.
    fn inputs(&self) -> Vec<NodeId> {
        match self {
            PlanOp::Const { .. } | PlanOp::Unit | PlanOp::Empty { .. } => Vec::new(),
            PlanOp::KeyedJoin { source, .. }
            | PlanOp::Project { source, .. }
            | PlanOp::AppendConst { source, .. } => vec![*source],
            PlanOp::Union { left, right } => vec![*left, *right],
        }
    }
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

    /// Structural validation: every step reads earlier steps only, and no step is read
    /// twice, so the plan is one tree; columns are in range, and each step has as many
    /// labels as its operation has columns. A refusal names its step (`T3`).
    pub fn validate(&self) -> Result<()> {
        let invalid = |reason: String| Err(Error::InvalidPlan { reason });
        if self.steps.is_empty() {
            return invalid("plan has no steps".into());
        }
        if self.output >= self.steps.len() {
            return invalid(format!("output step T{} is out of range", self.output));
        }
        let mut read = vec![false; self.steps.len()];
        for (i, step) in self.steps.iter().enumerate() {
            for j in step.op.inputs() {
                if j >= i {
                    return invalid(format!(
                        "step T{i} reads T{j}, which is not an earlier step"
                    ));
                }
                if std::mem::replace(&mut read[j], true) {
                    return invalid(format!("step T{j} is read by two steps"));
                }
            }
            let arity = |j: NodeId| self.steps[j].columns.len();
            let width = step.columns.len();
            let ok = match &step.op {
                PlanOp::Const { .. } => width == 1,
                PlanOp::Unit => width == 0,
                PlanOp::Empty { arity: a } => width == *a,
                PlanOp::KeyedJoin {
                    source,
                    key_cols,
                    x_attrs,
                    y_attrs,
                    residual,
                    ..
                } => {
                    key_cols.len() == x_attrs.len()
                        && key_cols.iter().all(|&c| c < arity(*source))
                        && width == arity(*source) + x_attrs.len() + y_attrs.len()
                        && residual.iter().all(|p| p.in_range(width))
                }
                PlanOp::Project { source, cols } => {
                    cols.iter().all(|&c| c < arity(*source)) && width == cols.len()
                }
                PlanOp::AppendConst { source, .. } => width == arity(*source) + 1,
                PlanOp::Union { left, right } => {
                    arity(*left) == arity(*right) && width == arity(*left)
                }
            };
            if !ok {
                return invalid(format!(
                    "step T{i} reads a column out of range or has mismatched column labels"
                ));
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
    /// `tests/paper_examples.rs`, `tests/properties.rs` and the lowering census check
    /// with it that every synthesized plan meets Section 2's definition.
    pub fn is_bounded_under(&self, schema: &AccessSchema) -> bool {
        self.steps.iter().all(|step| match &step.op {
            PlanOp::KeyedJoin {
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
                // Each row of `T` fetches, and joins, at most `N` tuples: those of its key
                // (with an empty key, the `N` tuples of the one empty key).
                PlanOp::KeyedJoin {
                    source,
                    constraint_index,
                    ..
                } => {
                    fetch_ops += 1;
                    let per_key = schema
                        .constraint(*constraint_index)
                        .map(|c| c.cardinality().bound(db_size))
                        .unwrap_or(u64::MAX);
                    let total = row_bounds[*source].saturating_mul(per_key);
                    fetched = fetched.saturating_add(total);
                    total
                }
                PlanOp::Project { source, .. } | PlanOp::AppendConst { source, .. } => {
                    row_bounds[*source]
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
                PlanOp::KeyedJoin {
                    source,
                    key_cols,
                    relation,
                    x_attrs,
                    y_attrs,
                    constraint_index,
                    residual,
                } => {
                    let arity = self.steps[*source].columns.len();
                    let ties = (key_cols.iter().enumerate())
                        .map(|(k, &c)| Predicate::ColEqCol(c, arity + k));
                    let predicates: Vec<String> = ties
                        .chain(residual.iter().cloned())
                        .map(|p| p.to_string())
                        .collect();
                    let joined = format!(
                        "T{source} × fetch(X ∈ π{key_cols:?}(T{source}), {relation}, X{x_attrs:?} ∪ Y{y_attrs:?})"
                    );
                    let joined = match predicates.is_empty() {
                        true => joined,
                        false => format!("σ[{}]({joined})", predicates.join(" ∧ ")),
                    };
                    writeln!(
                        f,
                        "  T{i} = {joined} via φ{constraint_index}{marker} [{cols}]"
                    )?
                }
                PlanOp::Project { source, cols: c } => {
                    writeln!(f, "  T{i} = π{c:?}(T{source}){marker} [{cols}]")?
                }
                PlanOp::AppendConst { source, value } => {
                    writeln!(f, "  T{i} = T{source} × {{{value}}}{marker} [{cols}]")?
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

    /// Add a keyed join ([`PlanOp::KeyedJoin`]); `labels` name the `|X| + |Y|` fetched
    /// columns, which follow the source's.
    #[allow(clippy::too_many_arguments)]
    pub fn keyed_join(
        &mut self,
        source: NodeId,
        key_cols: Vec<usize>,
        relation: impl Into<String>,
        x_attrs: Vec<usize>,
        y_attrs: Vec<usize>,
        constraint_index: usize,
        labels: Vec<String>,
        residual: Vec<Predicate>,
    ) -> NodeId {
        let columns = [self.steps[source].columns.clone(), labels].concat();
        let op = PlanOp::KeyedJoin {
            source,
            key_cols,
            relation: relation.into(),
            x_attrs,
            y_attrs,
            constraint_index,
            residual,
        };
        self.push(op, columns)
    }

    /// Add a projection node.
    pub fn project(&mut self, source: NodeId, cols: Vec<usize>) -> NodeId {
        let labels = cols
            .iter()
            .map(|&c| self.steps[source].columns[c].clone())
            .collect();
        self.push(PlanOp::Project { source, cols }, labels)
    }

    /// Add `source × {value}`, the new column labelled `label`.
    pub fn append_const(
        &mut self,
        source: NodeId,
        value: Value,
        label: impl Into<String>,
    ) -> NodeId {
        let mut labels = self.steps[source].columns.clone();
        labels.push(label.into());
        self.push(PlanOp::AppendConst { source, value }, labels)
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
        // {1} ; σ[#0 = #1 ∧ #1 = 1](T0 × fetch(a ∈ T0, R, {a,b})) ; π
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "x");
        let labels = vec!["a".into(), "b".into()];
        let residual = vec![Predicate::ColEqConst(1, Value::int(1))];
        let j = b.keyed_join(k, vec![0], "R", vec![0], vec![1], 0, labels, residual);
        let p = b.project(j, vec![2]);
        b.finish("Q", p).unwrap()
    }

    #[test]
    fn build_and_validate() {
        let plan = simple_plan();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.steps()[1].columns, ["x", "a", "b"]);
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
        assert_eq!(cost_small.total_ops, 3);
    }

    #[test]
    fn a_keyed_join_bounds_fetched_tuples_and_rows_at_t_times_n() {
        // `T = {1} ∪ {2}` (at most 2 rows) joined through `R(a → b, 10)`: each row of `T`
        // fetches and joins at most `N` tuples, so both bounds are |T| · N. Through
        // `R(∅ → a, b, 4)`, whose empty key ties nothing, each row of `T` still meets at
        // most the `N` tuples of the one empty key: |T| · N rows, residual or not.
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let schema = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 10).unwrap(),
            AccessConstraint::new(&c, "R", &[], &["a", "b"], 4).unwrap(),
        ]);
        let plan = |empty_key: bool, residual: Vec<Predicate>| {
            let mut b = PlanBuilder::new();
            let (one, two) = (
                b.constant(Value::int(1), "k"),
                b.constant(Value::int(2), "k"),
            );
            let keys = b.union(one, two);
            let labels = vec!["a".into(), "b".into()];
            let out = match empty_key {
                false => b.keyed_join(keys, vec![0], "R", vec![0], vec![1], 0, labels, residual),
                true => b.keyed_join(keys, vec![], "R", vec![], vec![0, 1], 1, labels, residual),
            };
            b.finish("Q", out).unwrap()
        };
        let b_is_5 = || vec![Predicate::ColEqConst(2, Value::int(5))];
        for (empty_key, residual, n, rows) in [
            (false, vec![], 10, 20),
            (false, b_is_5(), 10, 20),
            (true, vec![], 4, 8),
            (true, b_is_5(), 4, 8),
        ] {
            let plan = plan(empty_key, residual);
            assert!(plan.is_bounded_under(&schema));
            let cost = plan.cost(&schema, 1_000);
            assert_eq!(cost.max_fetched_tuples, 2 * n, "{plan}");
            assert_eq!(cost.max_output_rows, rows, "{plan}");
            assert_eq!((cost.fetch_ops, cost.total_ops), (1, 4));
        }
        // The paper's rendering: σ over the product, with no σ where nothing is tied.
        let tied = plan(false, vec![]).to_string();
        assert!(
            tied.contains("T3 = σ[#0 = #1](T2 × fetch(X ∈ π[0](T2), R, X[0] ∪ Y[1])) via φ0"),
            "{tied}"
        );
        let untied = plan(true, vec![]).to_string();
        assert!(
            untied.contains("T3 = T2 × fetch(X ∈ π[](T2), R, X[] ∪ Y[0, 1]) via φ1"),
            "{untied}"
        );
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
    }

    #[test]
    fn a_step_read_twice_is_refused_naming_it() {
        // `T1 = T0 ∪ T0`, and a keyed join and a projection over one `T0`: neither plan
        // is a tree.
        let constant = || PlanStep {
            op: PlanOp::Const {
                value: Value::int(1),
            },
            columns: vec!["k".into()],
        };
        let twice = vec![
            constant(),
            PlanStep {
                op: PlanOp::Union { left: 0, right: 0 },
                columns: vec!["k".into()],
            },
        ];
        let mut b = PlanBuilder::new();
        let one = b.constant(Value::int(1), "k");
        let labels = vec!["a".into(), "b".into()];
        let joined = b.keyed_join(one, vec![0], "R", vec![0], vec![1], 0, labels, vec![]);
        let shared = [
            PlanStep {
                op: PlanOp::Project {
                    source: one,
                    cols: vec![0],
                },
                columns: vec!["k".into()],
            },
            PlanStep {
                op: PlanOp::AppendConst {
                    source: joined,
                    value: Value::int(2),
                },
                columns: ["k", "a", "b", "c"].map(String::from).to_vec(),
            },
        ];
        let mut steps = b.steps;
        steps.extend(shared);
        for (steps, output, step) in [(twice, 1, 0), (steps, 3, 0)] {
            match QueryPlan::new("Q", steps, output) {
                Err(Error::InvalidPlan { reason }) => {
                    assert_eq!(reason, format!("step T{step} is read by two steps"))
                }
                other => panic!("expected a refusal, got {other:?}"),
            }
        }
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
        let p = b.append_const(x, Value::int(2), "y");
        let q = b.project(p, vec![0]);
        let x = b.constant(Value::int(1), "x");
        let u = b.union(q, x);
        let plan = b.finish("Q", u).unwrap();
        let cost = plan.cost(&a, 10);
        assert_eq!(cost.max_output_rows, 2); // 1×1 → 1; union 1+1 = 2
        assert_eq!(cost.fetch_ops, 0);
        assert!(plan.is_bounded_under(&a));
        let display = plan.to_string();
        assert!(display.contains("T1 = T0 × {2} [x, y]"), "{display}");
        assert!(display.contains("∪"));
    }

    #[test]
    fn display_contains_fetch_and_output_marker() {
        let plan = simple_plan();
        let s = plan.to_string();
        assert!(
            s.contains("σ[#0 = #1 ∧ #1 = 1](T0 × fetch(X ∈ π[0](T0), R"),
            "{s}"
        );
        assert!(s.contains("(output)"));
        assert!(s.contains("plan for Q"));
        assert!(Predicate::ColEqCol(0, 1).to_string().contains("#0 = #1"));
    }
}
