//! Physical plans: lowering logical bounded plans to one streaming operator tree.
//!
//! A [`super::QueryPlan`] says *what* to compute — a sequence of fetch/π/σ/×/∪/−/ρ
//! steps mirroring the paper's plan algebra. This module decides *how*: [`lower_plan`]
//! rewrites the logical step list into a [`PhysicalPlan`] of streaming operators that
//! `bea-engine` runs as one tree of pull-based operators, without materializing a table
//! per step. Boundedness is untouched by lowering — every physical access still goes
//! through the index of an access constraint, and the set of `(constraint, key)` lookups
//! is exactly the one the logical plan performs — only the *residency* of intermediate
//! results changes, which is the point: the memory footprint of a bounded plan should
//! scale with the access schema's bounds, not with whatever the intermediate relational
//! algebra happens to materialize.
//!
//! **The fragment.** Lowering accepts what plan synthesis ([`super::synthesis`]) emits:
//! every fetch has one consumer, a product with its source, and a selection above that
//! ties every key (none when the key is empty); every other product is `T × {c}`, a
//! step times a query constant. The result uses eight operators — [`PhysOp::Unit`],
//! [`PhysOp::Const`], [`PhysOp::Empty`], [`PhysOp::KeyedLookup`], [`PhysOp::Project`],
//! [`PhysOp::Dedup`], [`PhysOp::Union`] and [`PhysOp::AppendConst`] — and every step is
//! read by one operator, the output by none, so the plan is one operator tree. Any
//! other plan is refused with [`Error::InvalidPlan`], naming its logical step (`T3`):
//!
//! * a step that two operators would read (a fetch shared beyond its fused selection,
//!   or `T ∪ T`);
//! * a selection that does not fuse into a keyed lookup;
//! * a product that is not fused and whose right side does not lower to a constant;
//! * a difference.
//!
//! The literal reference executor (`bea-engine`'s `execute_plan_materialized`) still
//! runs the whole logical algebra.
//!
//! Lowering applies these rules:
//!
//! * **Keyed-lookup fusion** — the synthesis emits every fetch as
//!   `σ[key equalities](T × fetch(X ∈ T, R, Y))`. When the product and the fetch have no
//!   other consumer, the triple collapses into one [`PhysOp::KeyedLookup`]: an index
//!   nested-loop join that streams `T`, probes the constraint's index once per distinct
//!   key, and never materializes the cross product *or* the fetched table. A fetch
//!   with an empty key has no key to tie: its bare `T × fetch(∅ ∈ T, R, Y)` fuses the
//!   same way.
//! * **One index operator** — a fetch the fusion does not absorb becomes the same
//!   operator over its distinct keys: `π[keys](T)`, a [`PhysOp::Dedup`] unless `T`
//!   provably never repeats a key ([`PhysicalPlan::keys_distinct`]), a
//!   [`PhysOp::KeyedLookup`] keyed by all of them with no residual, and a
//!   [`PhysOp::Project`] onto the fetched columns, which the engine fuses into the
//!   lookup's emission. Every index access in a physical plan is a keyed lookup.
//! * **Projection pushdown** — a projection that is the sole consumer of a fetch is
//!   folded into the fetched positions of its lookup ([`PhysOp::KeyedLookup`]'s
//!   `positions`), so dropped `Y`-attributes are never copied out of the store.
//! * **Dedup elimination** — each physical step tracks whether its output is already a
//!   set ([`PhysStep::set_valued`]); explicit [`PhysOp::Dedup`] steps are inserted only
//!   where the logical plan's set semantics actually needs them (e.g. after a union, or
//!   after a projection that drops key columns), never after an operator whose output is
//!   provably duplicate-free. A projection of a set keeps it a set when every column it
//!   drops is determined by the plan on every row: **constant** (it traces back through
//!   appends, lookup source columns, projections and δs to a query constant) or
//!   **key-equal** to a kept column (a keyed lookup's fetched key attribute, which the
//!   fused key equality makes equal to the source's key column). The same fact tells
//!   the engine where a keyed lookup's source never repeats a key
//!   ([`PhysicalPlan::keys_distinct`]). Equalities a residual predicate establishes are
//!   not used, and neither are access constraints of bound 1 read as functional
//!   dependencies: that would make answers depend on the instance satisfying the access
//!   schema, which nothing on the query path checks.
//! * **Constant appends** — a product `T × {c}` becomes [`PhysOp::AppendConst`], which
//!   writes `c` beside every row of `T` and holds nothing; `{()} × {c}` is `{c}` itself.
//! * **Rename and empty-branch elimination** — ρ steps vanish into column labels;
//!   `T ∪ ∅` collapses to `T`.
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
use crate::plan::{NodeId, PlanOp, PlanStep, Predicate, QueryPlan};
use crate::value::Value;
use std::collections::{BTreeMap, BTreeSet};
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
    /// key), filtered by the `residual` predicates. This is the fused form of
    /// `σ[key equalities](T × fetch(X ∈ T, R, Y))`, and the operator every other fetch
    /// lowers to as well (see the module docs).
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
        /// output-column order: `x_attrs ++ y_attrs`, unless projection pushdown
        /// narrowed or reordered them.
        positions: Vec<usize>,
        /// Index of the backing access constraint in the access schema.
        constraint_index: usize,
        /// Predicates (over the concatenated output) beyond the fused key equalities.
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
    /// `source × {value}`, the one product lowering does not fuse into a keyed lookup.
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
            let preds_in_range = |predicates: &[Predicate], arity: usize| {
                predicates.iter().all(|p| match p {
                    Predicate::ColEqCol(a, b) => *a < arity && *b < arity,
                    Predicate::ColEqConst(a, _) => *a < arity,
                })
            };
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
                        && preds_in_range(residual, step.columns.len())
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

/// Lower a logical plan to a physical streaming plan. See the module docs for the
/// rules, and for the plans it refuses.
pub fn lower_plan(plan: &QueryPlan) -> Result<PhysicalPlan> {
    plan.validate()?;
    let steps = plan.steps();
    let n = steps.len();
    let refuse = |step: NodeId, why: String| Error::InvalidPlan {
        reason: format!(
            "step T{step} {why}; the streaming engine runs only what plan synthesis emits"
        ),
    };

    // Logical consumer counts; the plan output counts one extra (virtual) consumer.
    let mut consumers: Vec<usize> = vec![0; n];
    for step in steps {
        match &step.op {
            PlanOp::Fetch { source, .. }
            | PlanOp::Project { source, .. }
            | PlanOp::Select { source, .. }
            | PlanOp::Rename { source } => consumers[*source] += 1,
            PlanOp::Product { left, right }
            | PlanOp::Union { left, right }
            | PlanOp::Difference { left, right } => {
                consumers[*left] += 1;
                consumers[*right] += 1;
            }
            PlanOp::Const { .. } | PlanOp::Unit | PlanOp::Empty { .. } => {}
        }
    }
    consumers[plan.output()] += 1; // virtual consumer: the caller

    // Keyed-join fusion: σ[all keys tied](T × fetch(X ∈ T, …)) where the product has no
    // other consumer absorbs the product and the fetch, which must have no other
    // consumer either; so does a bare `T × fetch(∅ ∈ T, …)`, whose empty key ties
    // nothing. In reverse, so a selection claims its product before the product is
    // looked at on its own.
    let mut fusion: BTreeMap<NodeId, (NodeId, NodeId)> = BTreeMap::new();
    let mut absorbed: BTreeSet<NodeId> = BTreeSet::new();
    for (i, step) in steps.iter().enumerate().rev() {
        let (product, predicates) = match &step.op {
            PlanOp::Select { source, predicates } if consumers[*source] == 1 => {
                (*source, predicates.as_slice())
            }
            PlanOp::Product { .. } if !absorbed.contains(&i) => (i, &[][..]),
            _ => continue,
        };
        let PlanOp::Product { left, right } = &steps[product].op else {
            continue;
        };
        let Some(key_cols) = fetch_over(steps, *left, *right) else {
            continue;
        };
        if !keys_all_tied(predicates, key_cols, steps[*left].columns.len()) {
            continue;
        }
        if consumers[*right] != 1 {
            let readers = consumers[*right];
            return Err(refuse(*right, format!("is read by {readers} operators")));
        }
        absorbed.insert(*right);
        if product != i {
            absorbed.insert(product); // the selection takes the product's place
        }
        fusion.insert(i, (*left, *right));
    }

    // Projection pushdown: a projection that is the sole consumer of a fetch folds into
    // the fetch's output positions.
    let mut pushdown: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for (i, step) in steps.iter().enumerate() {
        let PlanOp::Project { source, .. } = &step.op else {
            continue;
        };
        if absorbed.contains(source) || consumers[*source] != 1 {
            continue;
        }
        if matches!(&steps[*source].op, PlanOp::Fetch { .. }) {
            pushdown.insert(i, *source);
            absorbed.insert(*source);
        }
    }

    // Emit physical steps; `from[p]` is the logical step physical step `p` lowers.
    let mut phys: Vec<PhysStep> = Vec::with_capacity(n);
    let mut from: Vec<NodeId> = Vec::with_capacity(n);
    let mut map: Vec<Option<PhysId>> = vec![None; n];

    for (i, step) in steps.iter().enumerate() {
        if absorbed.contains(&i) {
            continue;
        }
        let node = match &step.op {
            PlanOp::Const { value } => push(
                &mut phys,
                PhysOp::Const {
                    value: value.clone(),
                },
                step.columns.clone(),
                true,
            ),
            PlanOp::Unit => push(&mut phys, PhysOp::Unit, step.columns.clone(), true),
            PlanOp::Empty { arity } => push(
                &mut phys,
                PhysOp::Empty { arity: *arity },
                step.columns.clone(),
                true,
            ),
            PlanOp::Fetch { source, .. } => {
                let source = map[*source].expect("source lowered earlier");
                lower_fetch(&mut phys, source, &step.op, None, &step.columns)
            }
            PlanOp::Project { source, cols } => {
                if let Some(&fetch_node) = pushdown.get(&i) {
                    let fetch = &steps[fetch_node].op;
                    let PlanOp::Fetch { source, .. } = fetch else {
                        unreachable!("pushdown targets are fetches");
                    };
                    let source = map[*source].expect("source lowered earlier");
                    lower_fetch(&mut phys, source, fetch, Some(cols), &step.columns)
                } else {
                    let src = map[*source].expect("source lowered earlier");
                    // Injective on rows when every dropped column is constant or equal
                    // to a kept one (see the module docs).
                    let sv = phys[src].set_valued && determined_by(&phys, src, cols);
                    let id = push(
                        &mut phys,
                        PhysOp::Project {
                            source: src,
                            cols: cols.clone(),
                        },
                        step.columns.clone(),
                        sv,
                    );
                    if sv {
                        id
                    } else {
                        push(
                            &mut phys,
                            PhysOp::Dedup { source: id },
                            step.columns.clone(),
                            true,
                        )
                    }
                }
            }
            PlanOp::Select { predicates, .. } => {
                let Some(&(left, fetch)) = fusion.get(&i) else {
                    let why = "is a selection that does not fuse into a keyed lookup";
                    return Err(refuse(i, why.into()));
                };
                let source = map[left].expect("source lowered earlier");
                fused_lookup(
                    &mut phys,
                    source,
                    &steps[fetch].op,
                    predicates,
                    &step.columns,
                )
            }
            PlanOp::Product { .. } if fusion.contains_key(&i) => {
                let (left, fetch) = fusion[&i];
                let source = map[left].expect("source lowered earlier");
                fused_lookup(&mut phys, source, &steps[fetch].op, &[], &step.columns)
            }
            PlanOp::Product { left, right } => {
                let (l, r) = (
                    map[*left].expect("source lowered earlier"),
                    map[*right].expect("source lowered earlier"),
                );
                let PhysOp::Const { value } = &phys[r].op else {
                    let why = "is a product whose right side is not a constant";
                    return Err(refuse(i, why.into()));
                };
                if matches!(phys[l].op, PhysOp::Unit) {
                    r
                } else {
                    let value = value.clone();
                    let sv = phys[l].set_valued;
                    let op = PhysOp::AppendConst { source: l, value };
                    push(&mut phys, op, step.columns.clone(), sv)
                }
            }
            PlanOp::Union { left, right } => {
                let (l, r) = (
                    map[*left].expect("source lowered earlier"),
                    map[*right].expect("source lowered earlier"),
                );
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
                    Some(a) => push(
                        &mut phys,
                        PhysOp::Dedup { source: a },
                        step.columns.clone(),
                        true,
                    ),
                    None => {
                        let u = push(
                            &mut phys,
                            PhysOp::Union { left: l, right: r },
                            step.columns.clone(),
                            false,
                        );
                        push(
                            &mut phys,
                            PhysOp::Dedup { source: u },
                            step.columns.clone(),
                            true,
                        )
                    }
                }
            }
            PlanOp::Difference { .. } => return Err(refuse(i, "is a difference".into())),
            PlanOp::Rename { source } => map[*source].expect("source lowered earlier"),
        };
        map[i] = Some(node);
        from.resize(phys.len(), i);
    }

    // Restore set semantics at the output and force the logical column labels.
    let mut output = map[plan.output()].expect("output lowered");
    if !phys[output].set_valued {
        let columns = phys[output].columns.clone();
        output = push(&mut phys, PhysOp::Dedup { source: output }, columns, true);
        from.push(plan.output());
    }
    phys[output].columns = steps[plan.output()].columns.clone();

    // Keep the steps the output reads (sources of eliminated renames, ∅ branches and
    // steps absorbed into fused operators are gone), each of which one operator reads.
    let kept = reachable(&phys, output);
    let mut readers = vec![0usize; phys.len()];
    for p in (0..phys.len()).filter(|&p| kept[p]) {
        for input in phys[p].op.inputs() {
            readers[input] += 1;
        }
    }
    if let Some(shared) = (0..phys.len()).find(|&p| readers[p] > 1) {
        let why = format!("is read by {} operators", readers[shared]);
        return Err(refuse(from[shared], why));
    }
    let (phys, output) = keep_only(phys, &kept, output);

    let plan = PhysicalPlan {
        query_name: plan.query_name().to_owned(),
        steps: phys,
        output,
    };
    plan.validate()?;
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

/// The keyed lookup of `σ[predicates](source × fetch)` (see the module docs), labelled
/// `columns`: every key of `fetch` is tied to its `source` column, and the predicates
/// beyond those ties are its residual.
fn fused_lookup(
    phys: &mut Vec<PhysStep>,
    source: PhysId,
    fetch: &PlanOp,
    predicates: &[Predicate],
    columns: &[String],
) -> PhysId {
    let PlanOp::Fetch {
        key_cols,
        relation,
        x_attrs,
        y_attrs,
        constraint_index,
        ..
    } = fetch
    else {
        unreachable!("fusion targets are fetches");
    };
    let residual = residual_predicates(predicates, key_cols, phys[source].columns.len());
    let lookup = PhysOp::KeyedLookup {
        source,
        key_cols: key_cols.clone(),
        relation: relation.clone(),
        x_attrs: x_attrs.clone(),
        positions: x_attrs.iter().chain(y_attrs).copied().collect(),
        constraint_index: *constraint_index,
        residual,
    };
    // Distinct probe rows emit distinct concatenations (the fetched side is deduplicated
    // per key).
    let set_valued = phys[source].set_valued;
    push(phys, lookup, columns.to_vec(), set_valued)
}

/// The key columns of `right` when it is a fetch keyed from `left`, the `T ×
/// fetch(X ∈ T, …)` of keyed-lookup fusion.
fn fetch_over(steps: &[PlanStep], left: NodeId, right: NodeId) -> Option<&[usize]> {
    match &steps[right].op {
        PlanOp::Fetch {
            source, key_cols, ..
        } if *source == left => Some(key_cols),
        _ => None,
    }
}

/// Lower the logical fetch `fetch`, whose keys come from physical step `source`, to a
/// keyed lookup over its distinct keys: `π[key_cols](source)`, a δ unless the source
/// never repeats a key, the lookup, and `π` onto the fetched columns — `x_attrs ++
/// y_attrs`, or their `cols` when a projection is pushed down — labelled `columns`.
/// The lookup deduplicates within each key, so the result is a set as long as every
/// key attribute is fetched; otherwise rows of different keys can collide and a δ
/// follows.
fn lower_fetch(
    phys: &mut Vec<PhysStep>,
    source: PhysId,
    fetch: &PlanOp,
    cols: Option<&[usize]>,
    columns: &[String],
) -> PhysId {
    let PlanOp::Fetch {
        key_cols,
        relation,
        x_attrs,
        y_attrs,
        constraint_index,
        ..
    } = fetch
    else {
        unreachable!("only fetches are lowered to lookups");
    };
    let base: Vec<usize> = x_attrs.iter().chain(y_attrs).copied().collect();
    let positions = match cols {
        Some(cols) => cols.iter().map(|&c| base[c]).collect(),
        None => base,
    };
    let key_labels: Vec<String> = key_cols
        .iter()
        .map(|&c| phys[source].columns[c].clone())
        .collect();
    let distinct = phys[source].set_valued && determined_by(phys, source, key_cols);
    let project = PhysOp::Project {
        source,
        cols: key_cols.clone(),
    };
    let mut keys = push(phys, project, key_labels.clone(), distinct);
    if !distinct {
        keys = push(
            phys,
            PhysOp::Dedup { source: keys },
            key_labels.clone(),
            true,
        );
    }
    let (k, fetched) = (key_cols.len(), positions.len());
    let set_valued = x_attrs.iter().all(|a| positions.contains(a));
    let lookup = PhysOp::KeyedLookup {
        source: keys,
        key_cols: (0..k).collect(),
        relation: relation.clone(),
        x_attrs: x_attrs.clone(),
        positions,
        constraint_index: *constraint_index,
        residual: Vec::new(),
    };
    let labels = key_labels
        .into_iter()
        .chain(columns.iter().cloned())
        .collect();
    let lookup = push(phys, lookup, labels, true);
    let cols = (k..k + fetched).collect();
    let out = PhysOp::Project {
        source: lookup,
        cols,
    };
    let out = push(phys, out, columns.to_vec(), set_valued);
    if set_valued {
        out
    } else {
        push(phys, PhysOp::Dedup { source: out }, columns.to_vec(), true)
    }
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
            // A fetched key attribute equals its key column: the fused key equality.
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

/// True when `predicates` equates every fetch key column with its source column — the
/// `σ[key equalities](T × fetch(X ∈ T, …))` shape plan synthesis emits for every fetch,
/// which keyed-lookup fusion collapses.
fn keys_all_tied(predicates: &[Predicate], key_cols: &[usize], left_arity: usize) -> bool {
    key_cols
        .iter()
        .enumerate()
        .all(|(k, &kc)| predicates.contains(&Predicate::ColEqCol(kc, left_arity + k)))
}

/// The predicates of a fused selection that go beyond the key equalities (the part a
/// keyed join still has to check per emitted row). Counterpart of [`keys_all_tied`].
fn residual_predicates(
    predicates: &[Predicate],
    key_cols: &[usize],
    left_arity: usize,
) -> Vec<Predicate> {
    predicates
        .iter()
        .filter(|p| match p {
            Predicate::ColEqCol(a, b) => !key_cols
                .iter()
                .enumerate()
                .any(|(k, &kc)| *a == kc && *b == left_arity + k),
            Predicate::ColEqConst(_, _) => true,
        })
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanBuilder;

    /// `σ[k = a](keys × fetch(a ∈ keys, R, b))` — the exact shape plan synthesis emits.
    fn keyed_join_plan() -> QueryPlan {
        let mut b = PlanBuilder::new();
        let sel = keyed_join(&mut b);
        b.finish("Q", sel).unwrap()
    }

    /// The step of [`keyed_join_plan`], `[k, a, b]` over the keys `{1, 2}`.
    fn keyed_join(b: &mut PlanBuilder) -> NodeId {
        keyed_join_with(b, Vec::new())
    }

    /// [`keyed_join`] with `residual` beside the key equality.
    fn keyed_join_with(b: &mut PlanBuilder, residual: Vec<Predicate>) -> NodeId {
        let k1 = b.constant(Value::int(1), "k");
        let k2 = b.constant(Value::int(2), "k");
        let keys = b.union(k1, k2);
        let fetched = b.fetch(
            keys,
            vec![0],
            "R",
            vec![0],
            vec![1],
            0,
            vec!["a".into(), "b".into()],
        );
        let prod = b.product(keys, fetched);
        let predicates = [vec![Predicate::ColEqCol(0, 1)], residual].concat();
        b.select(prod, predicates)
    }

    #[test]
    fn keyed_join_fuses_into_lookup() {
        let plan = keyed_join_plan();
        let phys = lower_plan(&plan).unwrap();
        assert!(phys.validate().is_ok());
        // No product is left: the whole pattern is one lookup.
        assert!(phys
            .steps()
            .iter()
            .all(|s| !matches!(s.op, PhysOp::AppendConst { .. })));
        let lookups = phys
            .steps()
            .iter()
            .filter(|s| matches!(s.op, PhysOp::KeyedLookup { .. }))
            .count();
        assert_eq!(lookups, 1);
        // The fused key equality leaves no residual predicate.
        let Some(PhysOp::KeyedLookup { residual, .. }) = phys
            .steps()
            .iter()
            .map(|s| &s.op)
            .find(|op| matches!(op, PhysOp::KeyedLookup { .. }))
        else {
            panic!("no keyed lookup");
        };
        assert!(residual.is_empty());
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
            let fetched = b.fetch(
                key,
                vec![0],
                "R",
                vec![0],
                vec![1],
                0,
                vec!["a".into(), "b".into()],
            );
            let prod = b.product(key, fetched);
            let sel = b.select(
                prod,
                vec![
                    Predicate::ColEqCol(0, 1),
                    Predicate::ColEqConst(2, c1),
                    Predicate::ColEqConst(0, Value::Bool(true)),
                ],
            );
            let appended = b.constant(c2, "c");
            let out = b.product(sel, appended);
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

    /// `fetch(X ∈ keys, R, Y)` over `R(a, b, c)`, unfused: `X` is `x_attrs`, read from
    /// `key_cols` of the step `keys` builds, `Y` the other attributes. `tail` builds the
    /// plan output on top of the fetch (return the fetch itself to leave it alone).
    fn lowered_fetch(
        keys: impl FnOnce(&mut PlanBuilder) -> NodeId,
        key_cols: Vec<usize>,
        x_attrs: Vec<usize>,
        tail: impl FnOnce(&mut PlanBuilder, NodeId) -> NodeId,
    ) -> PhysicalPlan {
        let mut b = PlanBuilder::new();
        let keys = keys(&mut b);
        let y_attrs: Vec<usize> = (0..3).filter(|a| !x_attrs.contains(a)).collect();
        let labels = x_attrs
            .iter()
            .chain(&y_attrs)
            .map(|&a| ["a", "b", "c"][a].into());
        let labels = labels.collect();
        let fetched = b.fetch(keys, key_cols, "R", x_attrs, y_attrs, 0, labels);
        let out = tail(&mut b, fetched);
        lower_plan(&b.finish("Q", out).unwrap()).unwrap()
    }

    /// `({2} ∪ {3}) × {1}`, columns `[x, k]`: keyed by `k` alone, it repeats a key.
    fn repeating_keys(b: &mut PlanBuilder) -> NodeId {
        let x2 = b.constant(Value::int(2), "x");
        let x3 = b.constant(Value::int(3), "x");
        let xs = b.union(x2, x3);
        let k = b.constant(Value::int(1), "k");
        b.product(xs, k)
    }

    #[test]
    fn an_unfused_fetch_lowers_to_a_lookup_over_its_distinct_keys() {
        // Over a constant: `π[k]` of it, no δ (a constant never repeats a key), the
        // lookup by every key column with no residual, and `π` onto the fetched
        // columns — which is the output, already a set.
        let constant = |b: &mut PlanBuilder| b.constant(Value::int(1), "k");
        let phys = lowered_fetch(constant, vec![0], vec![0], |_, f| f);
        let lookup = PhysOp::KeyedLookup {
            source: 1,
            key_cols: vec![0],
            relation: "R".into(),
            x_attrs: vec![0],
            positions: vec![0, 1, 2],
            constraint_index: 0,
            residual: Vec::new(),
        };
        let expected = [
            PhysOp::Const {
                value: Value::int(1),
            },
            PhysOp::Project {
                source: 0,
                cols: vec![0],
            },
            lookup,
            PhysOp::Project {
                source: 2,
                cols: vec![1, 2, 3],
            },
        ];
        assert_eq!(ops(&phys), expected.iter().collect::<Vec<_>>());
        assert_eq!(phys.steps()[2].columns, ["k", "a", "b", "c"]);
        assert_eq!(phys.steps()[3].columns, ["a", "b", "c"]);
        assert_eq!(phys.output(), 3);
        assert!(phys.steps().iter().all(|s| s.set_valued));
        assert!(phys.keys_distinct(1, &[0]));

        // A source that repeats keys gets a δ between the key projection and the
        // lookup, so every key is probed once; the union's own δ is the other one.
        let phys = lowered_fetch(repeating_keys, vec![1], vec![0], |_, f| f);
        let [lookup] = lookups(&phys)[..] else {
            panic!("one lookup: {phys}");
        };
        let PhysOp::KeyedLookup { source, .. } = phys.steps()[lookup].op else {
            unreachable!();
        };
        let PhysOp::Dedup { source: keys } = phys.steps()[source].op else {
            panic!("no δ over the keys: {phys}");
        };
        assert_eq!(
            phys.steps()[keys].op,
            PhysOp::Project {
                source: keys - 1,
                cols: vec![1]
            }
        );
        assert_eq!(
            phys.steps()[keys - 1].op,
            PhysOp::AppendConst {
                source: keys - 2,
                value: Value::int(1)
            }
        );
        assert!(!phys.steps()[keys].set_valued);
        let dedups = ops(&phys).into_iter();
        assert_eq!(
            dedups
                .filter(|op| matches!(op, PhysOp::Dedup { .. }))
                .count(),
            2
        );
        assert_eq!(phys.output(), lookup + 1);
    }

    #[test]
    fn an_unfused_fetch_with_an_empty_key_probes_the_empty_key_once() {
        // `X = ∅`: the key projection has no column. Over the unit table it is the one
        // empty row; over a source with several rows a δ collapses them to it.
        for (repeats, dedups) in [(false, 0), (true, 2)] {
            let keys = |b: &mut PlanBuilder| {
                if repeats {
                    repeating_keys(b)
                } else {
                    b.unit()
                }
            };
            let phys = lowered_fetch(keys, Vec::new(), Vec::new(), |_, f| f);
            let [lookup] = lookups(&phys)[..] else {
                panic!("one lookup: {phys}");
            };
            let PhysOp::KeyedLookup {
                source,
                key_cols,
                positions,
                ..
            } = &phys.steps()[lookup].op
            else {
                unreachable!();
            };
            assert!(key_cols.is_empty());
            assert_eq!(positions, &[0, 1, 2]);
            assert!(phys.steps()[*source].columns.is_empty());
            assert_eq!(
                phys.steps()[phys.output()].op,
                PhysOp::Project {
                    source: lookup,
                    cols: vec![0, 1, 2]
                }
            );
            let ops = ops(&phys).into_iter();
            let found = ops.filter(|op| matches!(op, PhysOp::Dedup { .. })).count();
            assert_eq!(found, dedups, "source repeats: {repeats}");
        }
    }

    /// The reason `lower_plan` refuses `plan` with.
    fn refusal(plan: &QueryPlan) -> String {
        match lower_plan(plan) {
            Err(Error::InvalidPlan { reason }) => reason,
            other => panic!("expected a refusal, got {other:?}"),
        }
    }

    #[test]
    fn plans_outside_the_fragment_are_refused_naming_their_step() {
        let labels = || vec!["a".into(), "b".into()];
        // The keyed-join pattern, but the fetch T1 is also read by a projection.
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "k");
        let fetched = b.fetch(k, vec![0], "R", vec![0], vec![1], 0, labels());
        let prod = b.product(k, fetched);
        let sel = b.select(prod, vec![Predicate::ColEqCol(0, 1)]);
        let other = b.project(fetched, vec![1]);
        let out = b.product(sel, other);
        let shared = b.finish("Q", out).unwrap();
        // `T ∪ T` over an unfused fetch T1: its lowering would be read twice.
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "k");
        let fetched = b.fetch(k, vec![0], "R", vec![0], vec![1], 0, labels());
        let twice = b.union(fetched, fetched);
        let twice = b.finish("Q", twice).unwrap();
        // A σ over the fused lookup T3, and one over a product that ties no key.
        let mut b = PlanBuilder::new();
        let joined = keyed_join(&mut b);
        let filtered = b.select(joined, vec![Predicate::ColEqConst(2, Value::int(10))]);
        let filter = b.finish("Q", filtered).unwrap();
        let mut b = PlanBuilder::new();
        let (x, y) = (
            b.constant(Value::int(1), "x"),
            b.constant(Value::int(1), "y"),
        );
        let p = b.product(x, y);
        let equal = b.select(p, vec![Predicate::ColEqCol(0, 1)]);
        let untied = b.finish("Q", equal).unwrap();
        // The product T12 of two fused lookups: its right side is not a constant.
        let mut b = PlanBuilder::new();
        let (left, right) = (keyed_join(&mut b), keyed_join(&mut b));
        let both = b.product(left, right);
        let lookups = b.finish("Q", both).unwrap();
        // `{1} − {2}`, and `{1} − ∅`, which lowering used to drop.
        let difference = |empty: bool| {
            let mut b = PlanBuilder::new();
            let one = b.constant(Value::int(1), "x");
            let other = if empty {
                b.empty(1)
            } else {
                b.constant(Value::int(2), "x")
            };
            let d = b.difference(one, other);
            b.finish("Q", d).unwrap()
        };
        for (plan, step, why) in [
            (&shared, 1, "is read by 2 operators"),
            (&twice, 1, "is read by 2 operators"),
            (
                &filter,
                6,
                "is a selection that does not fuse into a keyed lookup",
            ),
            (
                &untied,
                3,
                "is a selection that does not fuse into a keyed lookup",
            ),
            (
                &lookups,
                12,
                "is a product whose right side is not a constant",
            ),
            (&difference(false), 2, "is a difference"),
            (&difference(true), 2, "is a difference"),
        ] {
            let reason = refusal(plan);
            assert!(
                reason.starts_with(&format!("step T{step} {why};")),
                "{reason}\n{plan}"
            );
        }
    }

    #[test]
    fn an_empty_key_fetch_fuses_with_its_bare_product() {
        // `T × fetch(∅ ∈ T, R, b)`, as synthesis emits it: no σ, and one lookup.
        let mut b = PlanBuilder::new();
        let unit = b.unit();
        let fetched = b.fetch(
            unit,
            Vec::new(),
            "R",
            Vec::new(),
            vec![1],
            0,
            vec!["b".into()],
        );
        let out = b.product(unit, fetched);
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
    fn projection_pushes_into_fetch_positions() {
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "k");
        let fetched = b.fetch(
            k,
            vec![0],
            "R",
            vec![0],
            vec![1, 2],
            0,
            vec!["a".into(), "b".into(), "c".into()],
        );
        // Keep only (a, c): the y-attribute b is never copied out of the store.
        let projected = b.project(fetched, vec![0, 2]);
        let plan = b.finish("Q", projected).unwrap();
        let phys = lower_plan(&plan).unwrap();
        let [lookup] = lookups(&phys)[..] else {
            panic!("one lookup: {phys}");
        };
        let PhysOp::KeyedLookup { positions, .. } = &phys.steps()[lookup].op else {
            unreachable!();
        };
        assert_eq!(positions, &[0, 2]);
        // The projection is the lookup's own final `π`, not a step of its own.
        assert_eq!(
            phys.steps()[phys.output()].op,
            PhysOp::Project {
                source: lookup,
                cols: vec![1, 2]
            }
        );
        assert_eq!(phys.len(), 4);
        // The key attribute survives the projection, so no dedup step is needed.
        assert!(phys
            .steps()
            .iter()
            .all(|s| !matches!(s.op, PhysOp::Dedup { .. })));
    }

    #[test]
    fn projection_dropping_keys_requires_dedup() {
        // Keep only `b`: rows fetched under different keys can now collide, so a δ
        // follows the lookup's final `π` — whatever the keys are.
        let keys = |b: &mut PlanBuilder| {
            let k1 = b.constant(Value::int(1), "k");
            let k2 = b.constant(Value::int(2), "k");
            b.union(k1, k2)
        };
        let constant = |b: &mut PlanBuilder| b.constant(Value::int(1), "k");
        for (phys, dedups) in [
            (
                lowered_fetch(keys, vec![0], vec![0], |b, f| b.project(f, vec![1])),
                2,
            ),
            (
                lowered_fetch(constant, vec![0], vec![0], |b, f| b.project(f, vec![1])),
                1,
            ),
        ] {
            let [lookup] = lookups(&phys)[..] else {
                panic!("one lookup: {phys}");
            };
            let PhysOp::KeyedLookup { positions, .. } = &phys.steps()[lookup].op else {
                unreachable!();
            };
            assert_eq!(positions, &[1]);
            assert_eq!(
                phys.steps()[phys.output()].op,
                PhysOp::Dedup { source: lookup + 1 }
            );
            assert!(!phys.steps()[lookup + 1].set_valued);
            let ops = ops(&phys).into_iter();
            let found = ops.filter(|op| matches!(op, PhysOp::Dedup { .. })).count();
            assert_eq!(found, dedups, "{phys}");
        }
        // A zero-column projection keeps one empty row per matching key; the δ makes
        // that one row.
        let phys = lowered_fetch(keys, vec![0], vec![0], |b, f| b.project(f, Vec::new()));
        let [lookup] = lookups(&phys)[..] else {
            panic!("one lookup: {phys}");
        };
        let PhysOp::KeyedLookup { positions, .. } = &phys.steps()[lookup].op else {
            unreachable!();
        };
        assert!(positions.is_empty());
        assert!(phys.steps()[phys.output()].columns.is_empty());
        assert!(matches!(
            phys.steps()[phys.output()].op,
            PhysOp::Dedup { .. }
        ));
    }

    #[test]
    fn rename_and_empty_branches_vanish() {
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "x");
        let e = b.empty(1);
        let u = b.union(k, e);
        let r = b.rename(u, vec!["y".into()]);
        let plan = b.finish("Q", r).unwrap();
        let phys = lower_plan(&plan).unwrap();
        // Everything collapses to the constant: one step, already set-valued.
        assert_eq!(phys.len(), 1);
        assert!(matches!(phys.steps()[0].op, PhysOp::Const { .. }));
        // The output keeps the rename's label.
        assert_eq!(phys.steps()[phys.output()].columns, vec!["y".to_owned()]);
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
            let y = b.constant(Value::int(2), "y");
            let p = b.product(x, y);
            let projected = b.project(p, cols);
            b.finish("Q", projected).unwrap()
        };
        // Swapping columns keeps every input column: injective, no dedup needed.
        assert_eq!(dedups(&constants(vec![1, 0])), 0);
        // Dropping a constant column cannot merge two rows either.
        assert_eq!(dedups(&constants(vec![0])), 0);

        // Over `[k, a, b]` with data-dependent keys: dropping the fetched key attribute
        // `a` (equal to `k` by the fused key equality) keeps a set; dropping the fetched
        // non-key `b` does not. (The union of the keys brings one δ of its own.)
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
        let f1 = b.fetch(keys, vec![0], "R", vec![0], vec![1], 0, labels("a", "b"));
        let p1 = b.product(keys, f1);
        let s1 = b.select(p1, vec![Predicate::ColEqCol(0, 1)]);
        let f2 = b.fetch(s1, vec![2], "S", vec![0], vec![1], 1, labels("b", "c"));
        let p2 = b.product(s1, f2);
        let s2 = b.select(p2, vec![Predicate::ColEqCol(2, 3)]);
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
        let one = |b: &mut PlanBuilder| b.constant(Value::int(1), "x");
        let two = |b: &mut PlanBuilder| b.constant(Value::int(2), "y");
        let unit = lowered(&|b| b.unit());
        assert_eq!(ops(&unit), [&PhysOp::Unit]);
        assert_eq!(unit.query_name(), "Q");
        let empty = lowered(&|b| b.empty(2));
        assert_eq!(ops(&empty), [&PhysOp::Empty { arity: 2 }]);
        let seed = lowered(&|b| {
            let (u, k) = (b.unit(), one(b));
            b.product(u, k)
        });
        let constant = PhysOp::Const {
            value: Value::int(1),
        };
        assert_eq!(ops(&seed), [&constant]);
        assert_eq!(seed.steps()[0].columns, ["x"]);
        let pair = lowered(&|b| {
            let (x, y) = (one(b), two(b));
            b.product(x, y)
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
