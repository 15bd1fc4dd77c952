//! Physical plans: lowering logical bounded plans to one streaming operator tree.
//!
//! A [`super::QueryPlan`] says *what* to compute — a tree of seven steps over the paper's
//! algebra: `{a}`, `{()}`, `∅`, the keyed join `σ[key ties ∧ residual](T × fetch(X ∈ T,
//! R, Y))`, π, `T × {c}` and ∪. This module decides *how*: [`lower_plan`] maps each step
//! onto one streaming operator of a [`PhysicalPlan`] that `bea-engine` runs as one tree of
//! pull-based operators, without materializing a table per step. Boundedness is untouched
//! by lowering — every physical access still goes through the index of an access
//! constraint, and the set of `(constraint, key)` lookups is exactly the one the logical
//! plan performs — only the *residency* of intermediate results changes, which is the
//! point: the memory footprint of a bounded plan should scale with the access schema's
//! bounds, not with whatever the intermediate relational algebra happens to materialize.
//!
//! A plan that [`super::QueryPlan::validate`] accepts always lowers; that is the only
//! refusal. The result uses eight operators — [`PhysOp::Unit`], [`PhysOp::Const`],
//! [`PhysOp::Empty`], [`PhysOp::KeyedLookup`], [`PhysOp::Project`], [`PhysOp::Dedup`],
//! [`PhysOp::Union`] and [`PhysOp::AppendConst`] — and, the logical plan being a tree,
//! every step is read by one operator and the output by none. Lowering applies these
//! rules:
//!
//! * **Keyed lookups** — a keyed join becomes a [`PhysOp::KeyedLookup`]: an index
//!   nested-loop join that streams `T`, probes the constraint's index once per distinct
//!   key, and never materializes the cross product *or* the fetched table.
//! * **Dedup elimination** — each physical step tracks whether its output is already a
//!   set ([`PhysStep::set_valued`]); explicit [`PhysOp::Dedup`] steps are inserted only
//!   where the logical plan's set semantics actually needs them (e.g. after a union, or
//!   after a projection that drops key columns), never after an operator whose output is
//!   provably duplicate-free. A projection of a set keeps it a set when every column it
//!   drops is determined by the plan on every row: **constant** (it traces back through
//!   appends, lookup source columns, projections and δs to a query constant) or
//!   **key-equal** to a kept column (a keyed lookup's fetched key attribute, which the
//!   key tie makes equal to the source's key column). The same fact tells the engine
//!   where a keyed lookup's source never repeats a key ([`PhysicalPlan::keys_distinct`]).
//!   Equalities a residual predicate establishes are not used, and neither are access
//!   constraints of bound 1 read as functional dependencies: that would make answers
//!   depend on the instance satisfying the access schema, which nothing on the query
//!   path checks.
//! * **Constant appends** — `T × {c}` becomes [`PhysOp::AppendConst`], which writes `c`
//!   beside every row of `T` and holds nothing; `{()} × {c}` is `{c}` itself.
//! * **Empty-branch elimination** — `T ∪ ∅` collapses to `T`.
//!
//! **One plan, whatever the store and the thread count.** Lowering never looks at the
//! store: the paper's bound is about *which* `(constraint, key)` lookups a plan makes,
//! and where a key's postings live is the store's business. Nor does lowering plan for
//! threads: a bounded query touches a small slice of the data, so a plan runs on one
//! thread, and threads run many queries at once.
//!
//! The companion executor lives in `bea-engine` (`ops` module); it builds one streaming
//! operator per physical step and reports peak rows resident alongside the usual access
//! statistics, so the materialized-vs-streaming ablation is observable.

use crate::error::{Error, Result};
use crate::plan::{PlanOp, Predicate, QueryPlan};
use crate::value::Value;
use std::fmt;

/// Identifier of a physical step within a [`PhysicalPlan`].
pub type PhysId = usize;

/// One physical operator.
#[derive(Debug, Clone, PartialEq)]
pub enum PhysOp {
    /// A single-row, single-column constant table.
    Const {
        /// The constant.
        value: Value,
    },
    /// A single row of arity 0.
    Unit,
    /// The empty relation of the given arity.
    Empty {
        /// Number of columns.
        arity: usize,
    },
    /// Index nested-loop join: for each row of `source`, probe the constraint's index
    /// with the row's `key_cols` projection (once per distinct key) and emit the row
    /// concatenated with each matching tuple's `positions`-projection (deduplicated per
    /// key), filtered by the `residual` predicates: the logical keyed join
    /// `σ[key ties ∧ residual](T × fetch(X ∈ T, R, Y))`.
    KeyedLookup {
        /// The step supplying the probe rows.
        source: PhysId,
        /// Columns of `source` holding the key, aligned with `x_attrs`.
        key_cols: Vec<usize>,
        /// The relation fetched from.
        relation: String,
        /// Attribute positions of the relation forming the index key `X`.
        x_attrs: Vec<usize>,
        /// Attribute positions of the relation to emit for the fetch side, in
        /// output-column order: `x_attrs ++ y_attrs`.
        positions: Vec<usize>,
        /// Index of the backing access constraint in the access schema.
        constraint_index: usize,
        /// Predicates (over the concatenated output) beyond the key ties.
        residual: Vec<Predicate>,
    },
    /// Streaming projection (no deduplication — a [`PhysOp::Dedup`] follows if needed).
    Project {
        /// Input step.
        source: PhysId,
        /// Columns to keep.
        cols: Vec<usize>,
    },
    /// Streaming duplicate elimination (keeps a set of rows seen so far).
    Dedup {
        /// Input step.
        source: PhysId,
    },
    /// Every row of `source` with `value` appended as one more column: the product
    /// `source × {value}`.
    AppendConst {
        /// Input step.
        source: PhysId,
        /// The appended constant.
        value: Value,
    },
    /// Streaming concatenation of both inputs (a [`PhysOp::Dedup`] restores set
    /// semantics downstream).
    Union {
        /// First input.
        left: PhysId,
        /// Second input.
        right: PhysId,
    },
}

impl PhysOp {
    /// The steps this operator reads from.
    pub fn inputs(&self) -> Vec<PhysId> {
        match self {
            PhysOp::Const { .. } | PhysOp::Unit | PhysOp::Empty { .. } => Vec::new(),
            PhysOp::KeyedLookup { source, .. }
            | PhysOp::Project { source, .. }
            | PhysOp::Dedup { source }
            | PhysOp::AppendConst { source, .. } => vec![*source],
            PhysOp::Union { left, right } => vec![*left, *right],
        }
    }
}

/// One physical step: an operator plus its output description.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysStep {
    /// The operator producing this step's result.
    pub op: PhysOp,
    /// Labels of the result columns.
    pub columns: Vec<String>,
    /// True when the operator's output is provably duplicate-free; lowering inserts
    /// [`PhysOp::Dedup`] steps exactly where this is false but set semantics is needed.
    pub set_valued: bool,
}

/// A physical plan: streaming operators plus the index of the output step.
#[derive(Debug, Clone, PartialEq)]
pub struct PhysicalPlan {
    query_name: String,
    steps: Vec<PhysStep>,
    output: PhysId,
}

impl PhysicalPlan {
    /// The name of the query this plan answers.
    pub fn query_name(&self) -> &str {
        &self.query_name
    }

    /// The physical steps in evaluation order.
    pub fn steps(&self) -> &[PhysStep] {
        &self.steps
    }

    /// The output step.
    pub fn output(&self) -> PhysId {
        self.output
    }

    /// Number of physical steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// True when the plan has no steps (never the case for lowered plans).
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Structural validation: inputs precede their consumers and arities line up.
    pub fn validate(&self) -> Result<()> {
        if self.steps.is_empty() {
            return Err(Error::InvalidPlan {
                reason: "physical plan has no steps".into(),
            });
        }
        if self.output >= self.steps.len() {
            return Err(Error::InvalidPlan {
                reason: format!("physical output step {} is out of range", self.output),
            });
        }
        for (i, step) in self.steps.iter().enumerate() {
            for input in step.op.inputs() {
                if input >= i {
                    return Err(Error::InvalidPlan {
                        reason: format!(
                            "physical step {i} reads step {input}, which is not earlier"
                        ),
                    });
                }
            }
            let arity = |j: PhysId| self.steps[j].columns.len();
            let ok = match &step.op {
                PhysOp::Const { .. } => step.columns.len() == 1,
                PhysOp::Unit => step.columns.is_empty(),
                PhysOp::Empty { arity: a } => step.columns.len() == *a,
                PhysOp::KeyedLookup {
                    key_cols,
                    x_attrs,
                    positions,
                    source,
                    residual,
                    ..
                } => {
                    key_cols.len() == x_attrs.len()
                        && key_cols.iter().all(|&c| c < arity(*source))
                        && step.columns.len() == arity(*source) + positions.len()
                        && residual.iter().all(|p| p.in_range(step.columns.len()))
                }
                PhysOp::Project { source, cols } => {
                    cols.iter().all(|&c| c < arity(*source)) && step.columns.len() == cols.len()
                }
                PhysOp::Dedup { source } => step.columns.len() == arity(*source),
                PhysOp::AppendConst { source, .. } => step.columns.len() == arity(*source) + 1,
                PhysOp::Union { left, right } => {
                    arity(*left) == arity(*right) && step.columns.len() == arity(*left)
                }
            };
            if !ok {
                return Err(Error::InvalidPlan {
                    reason: format!("physical step {i} has inconsistent arity"),
                });
            }
        }
        Ok(())
    }

    /// How many constants a run of this plan takes: one past the highest
    /// [`Value::placeholder`] class in a [`PhysOp::Const`] or a keyed lookup's
    /// [`Predicate::ColEqConst`], 0 when there is none. Nothing else in a plan holds a
    /// value, and lowering never looks at one, so a plan lowered once from a template
    /// is step for step the plan of the template's text except where these
    /// placeholders stand; a run reads its constants in when it builds its operators
    /// ([`Value::bound`]), and the plan itself is never copied.
    pub fn placeholders(&self) -> usize {
        let class = |value: &Value| value.placeholder_class().map_or(0, |c| c as usize + 1);
        let step = |step: &PhysStep| match &step.op {
            PhysOp::Const { value } | PhysOp::AppendConst { value, .. } => class(value),
            PhysOp::KeyedLookup { residual, .. } => residual
                .iter()
                .map(|predicate| match predicate {
                    Predicate::ColEqConst(_, value) => class(value),
                    Predicate::ColEqCol(..) => 0,
                })
                .max()
                .unwrap_or(0),
            _ => 0,
        };
        self.steps.iter().map(step).max().unwrap_or(0)
    }

    /// True when no two rows of step `source` agree on its `key_cols`: the step is a set
    /// and each of its other columns is constant or equal to a key column on every row
    /// (see the module docs). A keyed lookup over such a source never sees a key twice,
    /// so it has nothing to memoize.
    pub fn keys_distinct(&self, source: PhysId, key_cols: &[usize]) -> bool {
        self.steps[source].set_valued && determined_by(&self.steps, source, key_cols)
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "physical plan for {}:", self.query_name)?;
        for (i, step) in self.steps.iter().enumerate() {
            let marks = if i == self.output { " (output)" } else { "" };
            let cols = step.columns.join(", ");
            match &step.op {
                PhysOp::Const { value } => writeln!(f, "  P{i} = {{{value}}}{marks} [{cols}]")?,
                PhysOp::Unit => writeln!(f, "  P{i} = {{()}}{marks}")?,
                PhysOp::Empty { arity } => writeln!(f, "  P{i} = ∅/{arity}{marks}")?,
                PhysOp::KeyedLookup {
                    source,
                    key_cols,
                    relation,
                    positions,
                    constraint_index,
                    residual,
                    ..
                } => writeln!(
                    f,
                    "  P{i} = P{source} ⋉× lookup({relation}→{positions:?} by {key_cols:?}, σ[{} residual]) via φ{constraint_index}{marks} [{cols}]",
                    residual.len()
                )?,
                PhysOp::Project { source, cols: c } => {
                    writeln!(f, "  P{i} = π{c:?}(P{source}){marks} [{cols}]")?
                }
                PhysOp::Dedup { source } => writeln!(f, "  P{i} = δ(P{source}){marks} [{cols}]")?,
                PhysOp::AppendConst { source, value } => {
                    writeln!(f, "  P{i} = P{source} × {{{value}}}{marks} [{cols}]")?
                }
                PhysOp::Union { left, right } => {
                    writeln!(f, "  P{i} = P{left} ∪ P{right}{marks} [{cols}]")?
                }
            }
        }
        Ok(())
    }
}

/// Options of [`lower_plan_with`]: none are left. Lowering depends on neither the
/// store nor the thread count (see the module docs), so every `LowerOptions` lowers a
/// plan the same way [`lower_plan`] does.
///
/// The struct is `#[non_exhaustive]`: construct it with [`LowerOptions::new`] (or
/// [`Default`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct LowerOptions {}

impl LowerOptions {
    /// The options, all of them no-ops.
    pub fn new() -> Self {
        Self::default()
    }

    /// Does nothing: lowering does not depend on the thread count, and no pipeline is
    /// cut for parallelism (see the module docs). Kept, like
    /// [`LowerOptions::with_shard_fanout`], only because the end-to-end benchmark
    /// harness (`benchmark/`) still calls it; the next change to the harness drops that
    /// call, and then this method goes.
    pub fn with_exchange_parallelism(self, _exchange_parallelism: bool) -> Self {
        self
    }

    /// Does nothing: lowering does not depend on the store, which has one index per
    /// constraint (see the module docs). Kept only because the end-to-end benchmark
    /// harness (`benchmark/`) still calls it; the next change to the harness drops that
    /// call, and then this method goes.
    pub fn with_shard_fanout(self, _shards: u32) -> Self {
        self
    }
}

/// Lower a logical plan to a physical streaming plan: one operator per step, plus the
/// δs set semantics needs (see the module docs). It fails only where
/// [`QueryPlan::validate`] does.
pub fn lower_plan(plan: &QueryPlan) -> Result<PhysicalPlan> {
    plan.validate()?;
    let steps = plan.steps();
    let mut phys: Vec<PhysStep> = Vec::with_capacity(steps.len());
    // `map[i]` is the physical step logical step `i` lowers to.
    let mut map: Vec<PhysId> = Vec::with_capacity(steps.len());
    for step in steps {
        let columns = step.columns.clone();
        let node = match &step.op {
            PlanOp::Const { value } => {
                let value = value.clone();
                push(&mut phys, PhysOp::Const { value }, columns, true)
            }
            PlanOp::Unit => push(&mut phys, PhysOp::Unit, columns, true),
            PlanOp::Empty { arity } => {
                push(&mut phys, PhysOp::Empty { arity: *arity }, columns, true)
            }
            PlanOp::KeyedJoin {
                source,
                key_cols,
                relation,
                x_attrs,
                y_attrs,
                constraint_index,
                residual,
            } => {
                let source = map[*source];
                let lookup = PhysOp::KeyedLookup {
                    source,
                    key_cols: key_cols.clone(),
                    relation: relation.clone(),
                    x_attrs: x_attrs.clone(),
                    positions: x_attrs.iter().chain(y_attrs).copied().collect(),
                    constraint_index: *constraint_index,
                    residual: residual.clone(),
                };
                // Distinct probe rows emit distinct concatenations (the fetched side is
                // deduplicated per key).
                let set_valued = phys[source].set_valued;
                push(&mut phys, lookup, columns, set_valued)
            }
            PlanOp::Project { source, cols } => {
                let source = map[*source];
                // Injective on rows when every dropped column is constant or equal to a
                // kept one (see the module docs).
                let set_valued = phys[source].set_valued && determined_by(&phys, source, cols);
                let cols = cols.clone();
                let id = push(
                    &mut phys,
                    PhysOp::Project { source, cols },
                    columns.clone(),
                    set_valued,
                );
                if set_valued {
                    id
                } else {
                    push(&mut phys, PhysOp::Dedup { source: id }, columns, true)
                }
            }
            PlanOp::AppendConst { source, value } => {
                let source = map[*source];
                let value = value.clone();
                if matches!(phys[source].op, PhysOp::Unit) {
                    push(&mut phys, PhysOp::Const { value }, columns, true)
                } else {
                    let set_valued = phys[source].set_valued;
                    let op = PhysOp::AppendConst { source, value };
                    push(&mut phys, op, columns, set_valued)
                }
            }
            PlanOp::Union { left, right } => {
                let (l, r) = (map[*left], map[*right]);
                // ∅ branches vanish (the logical union still dedups, so guard that).
                let alias = if matches!(phys[l].op, PhysOp::Empty { .. }) {
                    Some(r)
                } else if matches!(phys[r].op, PhysOp::Empty { .. }) {
                    Some(l)
                } else {
                    None
                };
                match alias {
                    Some(a) if phys[a].set_valued => a,
                    Some(a) => push(&mut phys, PhysOp::Dedup { source: a }, columns, true),
                    None => {
                        let op = PhysOp::Union { left: l, right: r };
                        let u = push(&mut phys, op, columns.clone(), false);
                        push(&mut phys, PhysOp::Dedup { source: u }, columns, true)
                    }
                }
            }
        };
        map.push(node);
    }

    // Restore set semantics at the output and force the logical column labels.
    let mut output = map[plan.output()];
    if !phys[output].set_valued {
        let columns = phys[output].columns.clone();
        output = push(&mut phys, PhysOp::Dedup { source: output }, columns, true);
    }
    phys[output].columns = steps[plan.output()].columns.clone();

    // Keep the steps the output reads (∅ branches and the unit under `{()} × {c}` are
    // gone).
    let kept = reachable(&phys, output);
    let (phys, output) = keep_only(phys, &kept, output);
    let plan = PhysicalPlan {
        query_name: plan.query_name().to_owned(),
        steps: phys,
        output,
    };
    debug_assert!(plan.validate().is_ok(), "{plan}");
    Ok(plan)
}

/// [`lower_plan`]; `options` change nothing (see [`LowerOptions`]).
pub fn lower_plan_with(plan: &QueryPlan, _options: &LowerOptions) -> Result<PhysicalPlan> {
    lower_plan(plan)
}

/// Append a step; its id.
fn push(phys: &mut Vec<PhysStep>, op: PhysOp, columns: Vec<String>, set_valued: bool) -> PhysId {
    phys.push(PhysStep {
        op,
        columns,
        set_valued,
    });
    phys.len() - 1
}

/// Where the values of one column of a step come from, as far as the plan alone tells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// A query constant: one value on every row.
    Const,
    /// Column `.1` of step `.0`: columns of one step with the same origin are equal on
    /// every row.
    Col(PhysId, usize),
}

/// The [`Origin`] of column `col` of `step`. Each output row of a step holds exactly one
/// row of every step it reads through sources, so an origin passes through those; the
/// column an append adds is constant, and a union's columns are fresh.
fn origin(steps: &[PhysStep], step: PhysId, col: usize) -> Origin {
    let fresh = Origin::Col(step, col);
    match &steps[step].op {
        PhysOp::Const { .. } => Origin::Const,
        PhysOp::Project { source, cols } => origin(steps, *source, cols[col]),
        PhysOp::Dedup { source } => origin(steps, *source, col),
        PhysOp::KeyedLookup {
            source,
            key_cols,
            x_attrs,
            positions,
            ..
        } => match col.checked_sub(steps[*source].columns.len()) {
            None => origin(steps, *source, col),
            // A fetched key attribute equals its key column: the key tie.
            Some(c) => match x_attrs.iter().position(|&a| a == positions[c]) {
                Some(k) => origin(steps, *source, key_cols[k]),
                None => fresh,
            },
        },
        PhysOp::AppendConst { source, .. } if col < steps[*source].columns.len() => {
            origin(steps, *source, col)
        }
        PhysOp::AppendConst { .. } => Origin::Const,
        PhysOp::Unit | PhysOp::Empty { .. } | PhysOp::Union { .. } => fresh,
    }
}

/// True when every column of `step` is one of `kept`, constant, or has the origin of a
/// kept column — so rows of `step` that agree on `kept` agree everywhere.
fn determined_by(steps: &[PhysStep], step: PhysId, kept: &[usize]) -> bool {
    (0..steps[step].columns.len()).all(|c| {
        kept.contains(&c)
            || match origin(steps, step, c) {
                Origin::Const => true,
                dropped => kept.iter().any(|&k| origin(steps, step, k) == dropped),
            }
    })
}

/// Which steps `output` reads, itself included.
fn reachable(steps: &[PhysStep], output: PhysId) -> Vec<bool> {
    let mut reached = vec![false; steps.len()];
    let mut stack = vec![output];
    while let Some(i) = stack.pop() {
        if !std::mem::replace(&mut reached[i], true) {
            stack.extend(steps[i].op.inputs());
        }
    }
    reached
}

/// The `kept` steps alone (closed under inputs), renumbered in order, so topological
/// validity is preserved; and the new id of `output`.
fn keep_only(steps: Vec<PhysStep>, kept: &[bool], output: PhysId) -> (Vec<PhysStep>, PhysId) {
    let mut remap: Vec<Option<PhysId>> = vec![None; steps.len()];
    let ids = (0..steps.len()).filter(|&old| kept[old]);
    for (new, old) in ids.enumerate() {
        remap[old] = Some(new);
    }
    let fix = |j: &mut PhysId| *j = remap[*j].expect("inputs are kept");
    let steps = steps.into_iter().enumerate().filter(|&(old, _)| kept[old]);
    let steps = steps.map(|(_, mut step)| {
        match &mut step.op {
            PhysOp::Const { .. } | PhysOp::Unit | PhysOp::Empty { .. } => {}
            PhysOp::KeyedLookup { source, .. }
            | PhysOp::Project { source, .. }
            | PhysOp::Dedup { source }
            | PhysOp::AppendConst { source, .. } => fix(source),
            PhysOp::Union { left, right } => {
                fix(left);
                fix(right);
            }
        }
        step
    });
    (steps.collect(), remap[output].expect("the output is kept"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{NodeId, PlanBuilder};

    /// `σ[k = a](keys × fetch(a ∈ keys, R, b))` over the keys `{1, 2}`.
    fn keyed_join_plan() -> QueryPlan {
        let mut b = PlanBuilder::new();
        let joined = keyed_join(&mut b);
        b.finish("Q", joined).unwrap()
    }

    /// The step of [`keyed_join_plan`], `[k, a, b]` over the keys `{1, 2}`.
    fn keyed_join(b: &mut PlanBuilder) -> NodeId {
        keyed_join_with(b, Vec::new())
    }

    /// [`keyed_join`] with `residual` beside the key tie.
    fn keyed_join_with(b: &mut PlanBuilder, residual: Vec<Predicate>) -> NodeId {
        let k1 = b.constant(Value::int(1), "k");
        let k2 = b.constant(Value::int(2), "k");
        let keys = b.union(k1, k2);
        let labels = vec!["a".into(), "b".into()];
        b.keyed_join(keys, vec![0], "R", vec![0], vec![1], 0, labels, residual)
    }

    #[test]
    fn keyed_join_fuses_into_lookup() {
        let plan = keyed_join_plan();
        let phys = lower_plan(&plan).unwrap();
        assert!(phys.validate().is_ok());
        // No product is left: the whole join is one lookup.
        assert!(phys
            .steps()
            .iter()
            .all(|s| !matches!(s.op, PhysOp::AppendConst { .. })));
        let [lookup] = lookups(&phys)[..] else {
            panic!("one lookup: {phys}");
        };
        let PhysOp::KeyedLookup {
            positions,
            residual,
            ..
        } = &phys.steps()[lookup].op
        else {
            unreachable!();
        };
        // The key tie is the lookup itself, so no residual predicate is left.
        assert!(residual.is_empty());
        assert_eq!(positions, &[0, 1]);
        let display = phys.to_string();
        assert!(display.contains("lookup"));
        assert!(display.contains("(output)"));
    }

    #[test]
    fn bind_writes_values_where_lowering_left_placeholders() {
        // `σ[k = a ∧ b = c1 ∧ k = true]({c0} × fetch(a ∈ {c0}, R, b)) × {c2}`, as a
        // template and as text.
        let plan = |c0: Value, c1: Value, c2: Value| {
            let mut b = PlanBuilder::new();
            let key = b.constant(c0, "k");
            let residual = vec![
                Predicate::ColEqConst(2, c1),
                Predicate::ColEqConst(0, Value::Bool(true)),
            ];
            let labels = vec!["a".into(), "b".into()];
            let joined = b.keyed_join(key, vec![0], "R", vec![0], vec![1], 0, labels, residual);
            let out = b.append_const(joined, c2, "c");
            b.finish("Q", out).unwrap()
        };
        let values = [Value::int(-4), Value::str("k"), Value::int(7)];
        let [c0, c1, c2] = [0, 1, 2].map(Value::placeholder);
        let template = plan(c0, c1, c2);
        let literal = plan(values[0].clone(), values[1].clone(), values[2].clone());
        let lowered = lower_plan(&template).unwrap();
        let expected = lower_plan(&literal).unwrap();
        assert_ne!(lowered, expected);
        assert_eq!((lowered.placeholders(), expected.placeholders()), (3, 0));
        assert_eq!(bind(&lowered, &values), expected);
        // A plan without placeholders reads no constant, whatever it is given.
        assert_eq!(bind(&expected, &values), expected);
        // A class given no value stays the placeholder it is.
        assert_eq!(bind(&lowered, &[]), lowered);
    }

    /// `plan` with every value read the way a run given `values` reads it
    /// ([`Value::bound`]) — what the executor sees, written out as a plan.
    fn bind(plan: &PhysicalPlan, values: &[Value]) -> PhysicalPlan {
        let mut bound = plan.clone();
        for step in &mut bound.steps {
            match &mut step.op {
                PhysOp::Const { value } | PhysOp::AppendConst { value, .. } => {
                    *value = value.bound(values).clone()
                }
                PhysOp::KeyedLookup { residual, .. } => {
                    for predicate in residual {
                        if let Predicate::ColEqConst(_, value) = predicate {
                            *value = value.bound(values).clone();
                        }
                    }
                }
                _ => {}
            }
        }
        bound
    }

    /// The operators of `plan`, in step order.
    fn ops(plan: &PhysicalPlan) -> Vec<&PhysOp> {
        plan.steps().iter().map(|s| &s.op).collect()
    }

    /// The ids of `plan`'s keyed lookups.
    fn lookups(plan: &PhysicalPlan) -> Vec<PhysId> {
        let steps = plan.steps().iter().enumerate();
        let lookups = steps.filter(|(_, s)| matches!(s.op, PhysOp::KeyedLookup { .. }));
        lookups.map(|(i, _)| i).collect()
    }

    #[test]
    fn an_empty_key_fetch_fuses_with_its_bare_product() {
        // `{()} × fetch(∅ ∈ {()}, R, b)`, as synthesis emits it: no key tie, and one
        // lookup.
        let mut b = PlanBuilder::new();
        let unit = b.unit();
        let labels = vec!["b".into()];
        let out = b.keyed_join(
            unit,
            Vec::new(),
            "R",
            Vec::new(),
            vec![1],
            0,
            labels,
            vec![],
        );
        let phys = lower_plan(&b.finish("Q", out).unwrap()).unwrap();
        let lookup = PhysOp::KeyedLookup {
            source: 0,
            key_cols: Vec::new(),
            relation: "R".into(),
            x_attrs: Vec::new(),
            positions: vec![1],
            constraint_index: 0,
            residual: Vec::new(),
        };
        assert_eq!(ops(&phys), [&PhysOp::Unit, &lookup]);
        assert_eq!(phys.output(), 1);
    }

    #[test]
    fn projection_dropping_keys_requires_dedup() {
        // `π[b]` of a keyed join through `R(a → b, c)`: rows fetched under different keys,
        // or differing only in the dropped `c`, can collide, so a δ follows the
        // projection — whatever the keys are.
        let joined = |b: &mut PlanBuilder, keys: NodeId| {
            let labels = ["a", "b", "c"].map(String::from).to_vec();
            b.keyed_join(keys, vec![0], "R", vec![0], vec![1, 2], 0, labels, vec![])
        };
        let union = |b: &mut PlanBuilder| {
            let k1 = b.constant(Value::int(1), "k");
            let k2 = b.constant(Value::int(2), "k");
            b.union(k1, k2)
        };
        let constant = |b: &mut PlanBuilder| b.constant(Value::int(1), "k");
        let lowered = |keys: &dyn Fn(&mut PlanBuilder) -> NodeId, cols: Vec<usize>| {
            let mut b = PlanBuilder::new();
            let keys = keys(&mut b);
            let joined = joined(&mut b, keys);
            let out = b.project(joined, cols);
            lower_plan(&b.finish("Q", out).unwrap()).unwrap()
        };
        for (phys, dedups) in [
            (lowered(&union, vec![2]), 2),
            (lowered(&constant, vec![2]), 1),
        ] {
            let [lookup] = lookups(&phys)[..] else {
                panic!("one lookup: {phys}");
            };
            assert_eq!(
                phys.steps()[phys.output()].op,
                PhysOp::Dedup { source: lookup + 1 }
            );
            assert!(!phys.steps()[lookup + 1].set_valued);
            let ops = ops(&phys).into_iter();
            let found = ops.filter(|op| matches!(op, PhysOp::Dedup { .. })).count();
            assert_eq!(found, dedups, "{phys}");
        }
        // A zero-column projection keeps one empty row per matching tuple; the δ makes
        // that one row.
        let phys = lowered(&union, Vec::new());
        assert!(phys.steps()[phys.output()].columns.is_empty());
        assert!(matches!(
            phys.steps()[phys.output()].op,
            PhysOp::Dedup { .. }
        ));
    }

    #[test]
    fn empty_branches_vanish() {
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "x");
        let e = b.empty(1);
        let u = b.union(k, e);
        let plan = b.finish("Q", u).unwrap();
        let phys = lower_plan(&plan).unwrap();
        // Everything collapses to the constant: one step, already set-valued.
        assert_eq!(phys.len(), 1);
        assert!(matches!(phys.steps()[0].op, PhysOp::Const { .. }));
        assert_eq!(phys.steps()[phys.output()].columns, vec!["x".to_owned()]);
    }

    /// How many δ steps `plan` lowers to.
    fn dedups(plan: &QueryPlan) -> usize {
        let phys = lower_plan(plan).unwrap();
        let steps = phys.steps().iter();
        steps
            .filter(|s| matches!(s.op, PhysOp::Dedup { .. }))
            .count()
    }

    #[test]
    fn injective_projection_eliminates_dedup() {
        let constants = |cols: Vec<usize>| {
            let mut b = PlanBuilder::new();
            let x = b.constant(Value::int(1), "x");
            let p = b.append_const(x, Value::int(2), "y");
            let projected = b.project(p, cols);
            b.finish("Q", projected).unwrap()
        };
        // Swapping columns keeps every input column: injective, no dedup needed.
        assert_eq!(dedups(&constants(vec![1, 0])), 0);
        // Dropping a constant column cannot merge two rows either.
        assert_eq!(dedups(&constants(vec![0])), 0);

        // Over `[k, a, b]` with data-dependent keys: dropping the fetched key attribute
        // `a` (equal to `k` by the key tie) keeps a set; dropping the fetched non-key `b`
        // does not. (The union of the keys brings one δ of its own.)
        let lookup = |cols: Vec<usize>| {
            let mut b = PlanBuilder::new();
            let joined = keyed_join(&mut b);
            let projected = b.project(joined, cols);
            b.finish("Q", projected).unwrap()
        };
        assert_eq!(dedups(&lookup(vec![0, 2])), 1);
        assert_eq!(dedups(&lookup(vec![2, 1])), 1);
        assert_eq!(dedups(&lookup(vec![0, 1])), 2);

        // Equal to a kept column only through a residual predicate: conservatively a δ.
        let mut b = PlanBuilder::new();
        let equal = keyed_join_with(&mut b, vec![Predicate::ColEqCol(0, 2)]);
        let dropped = b.project(equal, vec![0, 1]);
        let plan = b.finish("Q", dropped).unwrap();
        // The union's δ, and the projection's.
        assert_eq!(dedups(&plan), 2);
    }

    #[test]
    fn keys_are_distinct_where_every_other_column_is_determined() {
        // `[k, a, b]`, a set: keyed by `(k, b)` — or `(b, a)`, `a` being equal to `k` —
        // a lookup over it never repeats a key; keyed by `k` or `b` alone it may.
        let phys = lower_plan(&keyed_join_plan()).unwrap();
        let out = phys.output();
        assert!(phys.keys_distinct(out, &[0, 2]));
        assert!(phys.keys_distinct(out, &[2, 1]));
        assert!(!phys.keys_distinct(out, &[0]));
        assert!(!phys.keys_distinct(out, &[2]));
        // A source that is not a set repeats whatever it holds twice.
        let mut b = PlanBuilder::new();
        let x = b.constant(Value::int(1), "x");
        let y = b.constant(Value::int(1), "x");
        let u = b.union(x, y);
        let phys = lower_plan(&b.finish("Q", u).unwrap()).unwrap();
        let union = phys.steps().iter().position(|s| !s.set_valued).unwrap();
        assert!(!phys.keys_distinct(union, &[0]));
        assert!(phys.keys_distinct(phys.output(), &[0]));
    }

    #[test]
    fn single_pipeline_dag_for_fully_streaming_plan() {
        // One operator tree: the caller reads the output, one operator every other step.
        for plan in [keyed_join_plan(), union_of_lookups_plan()] {
            let phys = lower_plan(&plan).unwrap();
            let mut readers = vec![0; phys.len()];
            readers[phys.output()] += 1;
            for input in phys.steps().iter().flat_map(|step| step.op.inputs()) {
                readers[input] += 1;
            }
            assert!(readers.iter().all(|&r| r == 1), "{phys}");
        }
    }

    /// A union of two independent keyed-lookup branches.
    fn union_of_lookups_plan() -> QueryPlan {
        let mut b = PlanBuilder::new();
        let branch = |b: &mut PlanBuilder, key: i64| {
            let k = b.constant(Value::int(key), "k");
            let labels = vec!["a".into(), "b".into()];
            b.keyed_join(k, vec![0], "R", vec![0], vec![1], 0, labels, vec![])
        };
        let left = branch(&mut b, 1);
        let right = branch(&mut b, 2);
        let u = b.union(left, right);
        b.finish("Q", u).unwrap()
    }

    #[test]
    fn lowering_ignores_its_options() {
        // The union and a two-hop lookup chain lower the same, whatever the options say.
        let mut b = PlanBuilder::new();
        let keys = b.constant(Value::int(1), "k");
        let labels = |x: &str, y: &str| vec![x.into(), y.into()];
        let ab = labels("a", "b");
        let s1 = b.keyed_join(keys, vec![0], "R", vec![0], vec![1], 0, ab, vec![]);
        let bc = labels("b", "c");
        let s2 = b.keyed_join(s1, vec![2], "S", vec![0], vec![1], 1, bc, vec![]);
        let chain = b.finish("Q", s2).unwrap();
        for plan in [union_of_lookups_plan(), chain] {
            let lowered = lower_plan(&plan).unwrap();
            let options = LowerOptions::new()
                .with_exchange_parallelism(true)
                .with_shard_fanout(4);
            assert_eq!(lower_plan_with(&plan, &options).unwrap(), lowered);
        }
    }

    #[test]
    fn unit_and_empty_lower_unchanged() {
        // `{()}` and `∅` are their own steps; `{()} × {1}` is `{1}`, and `{1} × {2}`
        // appends 2 to the row of `{1}`.
        let lowered = |build: &dyn Fn(&mut PlanBuilder) -> NodeId| {
            let mut b = PlanBuilder::new();
            let out = build(&mut b);
            lower_plan(&b.finish("Q", out).unwrap()).unwrap()
        };
        let unit = lowered(&|b| b.unit());
        assert_eq!(ops(&unit), [&PhysOp::Unit]);
        assert_eq!(unit.query_name(), "Q");
        let empty = lowered(&|b| b.empty(2));
        assert_eq!(ops(&empty), [&PhysOp::Empty { arity: 2 }]);
        let seed = lowered(&|b| {
            let u = b.unit();
            b.append_const(u, Value::int(1), "x")
        });
        let constant = PhysOp::Const {
            value: Value::int(1),
        };
        assert_eq!(ops(&seed), [&constant]);
        assert_eq!(seed.steps()[0].columns, ["x"]);
        let pair = lowered(&|b| {
            let x = b.constant(Value::int(1), "x");
            b.append_const(x, Value::int(2), "y")
        });
        let append = PhysOp::AppendConst {
            source: 0,
            value: Value::int(2),
        };
        assert_eq!(ops(&pair), [&constant, &append]);
        assert_eq!(pair.steps()[1].columns, ["x", "y"]);
        assert!(pair.steps()[1].set_valued);
        assert!(pair.to_string().contains("P1 = P0 × {2} (output) [x, y]"));
    }
}
