//! Physical plans: pipeline-aware lowering of logical bounded plans.
//!
//! A [`super::QueryPlan`] says *what* to compute — a sequence of fetch/π/σ/×/∪/−/ρ
//! steps mirroring the paper's plan algebra. This module decides *how*: [`lower_plan`]
//! rewrites the logical step list into a [`PhysicalPlan`] of streaming operators that a
//! batch pipeline (in `bea-engine`) can execute without materializing a table per step.
//! Boundedness is untouched by lowering — every physical access still goes through the
//! index of an access constraint, and the set of `(constraint, key)` lookups is exactly
//! the one the logical plan performs — only the *residency* of intermediate results
//! changes, which is the point: the memory footprint of a bounded plan should scale with
//! the access schema's bounds, not with whatever the intermediate relational algebra
//! happens to materialize.
//!
//! Lowering applies these rules:
//!
//! * **Keyed-lookup fusion** — the synthesis emits every fetch as
//!   `σ[key equalities](T × fetch(X ∈ T, R, Y))`. When the product and the fetch have no
//!   other consumer, the triple collapses into one [`PhysOp::KeyedLookup`]: an index
//!   nested-loop join that streams `T`, probes the constraint's index once per distinct
//!   key, and never materializes the cross product *or* the fetched table. This
//!   generalizes the keyed-join peephole of the engine's materialized reference executor.
//! * **Hash-join fallback** — same pattern but with a fetch that other steps also
//!   consume: the product/selection pair becomes a [`PhysOp::HashJoin`] against the
//!   (still shared) fetch node instead of a materialized product.
//! * **Projection pushdown** — a projection that is the sole consumer of a fetch is
//!   folded into the fetch's output positions ([`PhysOp::Fetch::positions`]), so dropped
//!   `Y`-attributes are never copied out of the store.
//! * **Dedup elimination** — each physical step tracks whether its output is already a
//!   set ([`PhysStep::set_valued`]); explicit [`PhysOp::Dedup`] steps are inserted only
//!   where the logical plan's set semantics actually needs them (e.g. after a union, or
//!   after a projection that drops key columns), never after an operator whose output is
//!   provably duplicate-free. A projection of a set keeps it a set when every column it
//!   drops is determined by the plan on every row: **constant** (it traces back through
//!   products, lookup source columns, projections, filters and δs to a
//!   [`PhysOp::Const`]) or **key-equal** to a kept column (a keyed lookup's fetched key
//!   attribute, which the fused key equality makes equal to the source's key column).
//!   The same fact tells the engine where a keyed lookup's source never repeats a key
//!   ([`PhysicalPlan::keys_distinct`]). Equalities a filter predicate establishes are not
//!   used, and neither are access constraints of bound 1 read as functional
//!   dependencies: that would make answers depend on the instance satisfying the access
//!   schema, which nothing on the query path checks.
//! * **Rename and empty-branch elimination** — ρ steps vanish into column labels;
//!   `T ∪ ∅` and `T − ∅` collapse to `T`.
//! * **Materialization points** — a step is marked [`PhysStep::materialize`] only when
//!   it is a genuine pipeline breaker: its result is consumed by more than one operator
//!   (or it is the plan output). Everything else streams.
//! * **Exchange points** (opt-in, [`LowerOptions::exchange_parallelism`]) — the inputs
//!   of a union and the buffered sides of products, differences and hash joins are
//!   additionally marked as materialization points when their subtree performs index
//!   access. This cuts the plan into more, *independent* pipelines that a parallel
//!   scheduler can run on worker threads; it trades some residency (the exchanged
//!   results are buffered instead of streamed) for parallelism, and never changes what
//!   data is accessed. The same option additionally cuts the plan at the source of
//!   every keyed lookup whose source subtree performs index access: the lookup then
//!   heads a pipeline whose probe stream is a materialized batch sequence, which the
//!   scheduler can split into **morsels** — consecutive batch groups executed
//!   concurrently on the worker pool (see [`Pipeline::morsel_source`]).
//!
//! **One plan, keys routed at run time.** Lowering never looks at the store. Where a
//! key's postings live is the store's business: a partitioned store sends every probe
//! to the shard that owns its key when the plan runs, so a sharded store executes
//! exactly the plan its unsharded twin does — same steps, same pipelines, same
//! [`super::ticket::CostTicket`]. The paper's bound is about *which* `(constraint,
//! key)` lookups a plan makes, and partitioning changes none of them.
//!
//! [`PhysicalPlan::pipeline_dag`] decomposes any lowered plan into its pipelines: each
//! materialization point, together with the streaming region feeding it, becomes one
//! [`Pipeline`]; the materialized steps it scans are its exchange edges. Pipelines with
//! no path between them are independent and may execute concurrently.
//!
//! The companion executor lives in `bea-engine` (`ops` module); it assigns one streaming
//! operator per physical step and reports peak rows resident alongside the usual access
//! statistics, so the materialized-vs-streaming ablation is observable.

use crate::error::{Error, Result};
use crate::plan::{NodeId, PlanOp, Predicate, QueryPlan};
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
    /// Streaming index fetch: drain `source`, deduplicate the key projections, then for
    /// each key probe the constraint's index and emit the `positions`-projection of every
    /// matching tuple (deduplicated per key).
    Fetch {
        /// The step supplying the key values.
        source: PhysId,
        /// Columns of `source` holding the key, aligned with `x_attrs`.
        key_cols: Vec<usize>,
        /// The relation fetched from.
        relation: String,
        /// Attribute positions of the relation forming the index key `X`.
        x_attrs: Vec<usize>,
        /// Attribute positions of the relation to emit, in output-column order. For an
        /// unfused fetch this is `x_attrs ++ y_attrs`; projection pushdown narrows or
        /// reorders it.
        positions: Vec<usize>,
        /// Index of the backing access constraint in the access schema.
        constraint_index: usize,
    },
    /// Index nested-loop join: for each row of `source`, probe the constraint's index
    /// with the row's `key_cols` projection (once per distinct key) and emit the row
    /// concatenated with each matching tuple's `positions`-projection, filtered by the
    /// `residual` predicates. This is the fused form of
    /// `σ[key equalities](T × fetch(X ∈ T, R, Y))`.
    KeyedLookup {
        /// The step supplying the probe rows.
        source: PhysId,
        /// Columns of `source` holding the key, aligned with `x_attrs`.
        key_cols: Vec<usize>,
        /// The relation fetched from.
        relation: String,
        /// Attribute positions of the relation forming the index key `X`.
        x_attrs: Vec<usize>,
        /// Attribute positions of the relation to emit for the fetch side.
        positions: Vec<usize>,
        /// Index of the backing access constraint in the access schema.
        constraint_index: usize,
        /// Predicates (over the concatenated output) beyond the fused key equalities.
        residual: Vec<Predicate>,
    },
    /// Hash join on column equalities: build a hash table over `right` keyed by
    /// `right_keys`, stream `left`, and emit matching concatenations filtered by the
    /// `residual` predicates. Used when the keyed-lookup pattern matches but the fetch
    /// result is shared with other consumers and must stay a separate step.
    HashJoin {
        /// Probe side.
        left: PhysId,
        /// Build side.
        right: PhysId,
        /// Key columns of the probe side.
        left_keys: Vec<usize>,
        /// Key columns of the build side.
        right_keys: Vec<usize>,
        /// Predicates (over the concatenated output) beyond the join equalities.
        residual: Vec<Predicate>,
    },
    /// Streaming selection.
    Filter {
        /// Input step.
        source: PhysId,
        /// Conjunction of predicates.
        predicates: Vec<Predicate>,
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
    /// Cartesian product: the right side is buffered, the left side streams.
    Product {
        /// Streaming side.
        left: PhysId,
        /// Buffered side.
        right: PhysId,
    },
    /// Streaming concatenation of both inputs (a [`PhysOp::Dedup`] restores set
    /// semantics downstream).
    Union {
        /// First input.
        left: PhysId,
        /// Second input.
        right: PhysId,
    },
    /// Anti-semijoin on whole rows: the right side is buffered as a set, the left side
    /// streams through it.
    Difference {
        /// Streaming side.
        left: PhysId,
        /// Buffered side.
        right: PhysId,
    },
}

impl PhysOp {
    /// The steps this operator reads from.
    pub fn inputs(&self) -> Vec<PhysId> {
        match self {
            PhysOp::Const { .. } | PhysOp::Unit | PhysOp::Empty { .. } => Vec::new(),
            PhysOp::Fetch { source, .. }
            | PhysOp::KeyedLookup { source, .. }
            | PhysOp::Filter { source, .. }
            | PhysOp::Project { source, .. }
            | PhysOp::Dedup { source } => vec![*source],
            PhysOp::HashJoin { left, right, .. }
            | PhysOp::Product { left, right }
            | PhysOp::Union { left, right }
            | PhysOp::Difference { left, right } => vec![*left, *right],
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
    /// True when this step's result must be materialized (it has several consumers, or
    /// it is the plan output); everything else streams into its single consumer.
    pub materialize: bool,
    /// Number of operators consuming this step's result (the plan output counts once).
    pub consumers: usize,
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
                PhysOp::Fetch {
                    key_cols,
                    x_attrs,
                    positions,
                    source,
                    ..
                } => {
                    key_cols.len() == x_attrs.len()
                        && key_cols.iter().all(|&c| c < arity(*source))
                        && step.columns.len() == positions.len()
                }
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
                PhysOp::HashJoin {
                    left,
                    right,
                    left_keys,
                    right_keys,
                    residual,
                } => {
                    left_keys.len() == right_keys.len()
                        && left_keys.iter().all(|&c| c < arity(*left))
                        && right_keys.iter().all(|&c| c < arity(*right))
                        && step.columns.len() == arity(*left) + arity(*right)
                        && preds_in_range(residual, step.columns.len())
                }
                PhysOp::Filter { source, predicates } => {
                    step.columns.len() == arity(*source)
                        && preds_in_range(predicates, arity(*source))
                }
                PhysOp::Project { source, cols } => {
                    cols.iter().all(|&c| c < arity(*source)) && step.columns.len() == cols.len()
                }
                PhysOp::Dedup { source } => step.columns.len() == arity(*source),
                PhysOp::Product { left, right } => {
                    step.columns.len() == arity(*left) + arity(*right)
                }
                PhysOp::Union { left, right } | PhysOp::Difference { left, right } => {
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

    /// This plan with every [`Value::placeholder`] in a [`PhysOp::Const`] or a
    /// [`Predicate::ColEqConst`] replaced by `values[class]` — the constant-binding
    /// half of a plan lowered once from a template query. Nothing else in a plan holds
    /// a value, and lowering never looks at one, so the result is step for step the
    /// plan the template's text lowers to with `values` written in. A placeholder with
    /// no value is an error, not a plan: labelled nulls never reach the executor.
    pub fn bind(&self, values: &[Value]) -> Result<PhysicalPlan> {
        let bind = |value: &mut Value| -> Result<()> {
            if let Some(class) = value.placeholder_class() {
                *value = values.get(class as usize).cloned().ok_or_else(|| {
                    Error::invalid(format!(
                        "plan for {} leaves placeholder {class} unbound: {} values given",
                        self.query_name,
                        values.len()
                    ))
                })?;
            }
            Ok(())
        };
        let mut bound = self.clone();
        for step in &mut bound.steps {
            match &mut step.op {
                PhysOp::Const { value } => bind(value)?,
                PhysOp::KeyedLookup {
                    residual: predicates,
                    ..
                }
                | PhysOp::HashJoin {
                    residual: predicates,
                    ..
                }
                | PhysOp::Filter { predicates, .. } => {
                    for predicate in predicates {
                        if let Predicate::ColEqConst(_, value) = predicate {
                            bind(value)?;
                        }
                    }
                }
                _ => {}
            }
        }
        Ok(bound)
    }

    /// True when no two rows of step `source` agree on its `key_cols`: the step is a set
    /// and each of its other columns is constant or equal to a key column on every row
    /// (see the module docs). A keyed lookup over such a source never sees a key twice,
    /// so it has nothing to memoize.
    pub fn keys_distinct(&self, source: PhysId, key_cols: &[usize]) -> bool {
        self.steps[source].set_valued && determined_by(&self.steps, source, key_cols)
    }

    /// Count how many steps are marked as materialization points (pipeline breakers).
    pub fn materialization_points(&self) -> usize {
        self.steps.iter().filter(|s| s.materialize).count()
    }

    /// The steps of the streaming region rooted at `sink`: the sink itself plus every
    /// non-materialized step feeding it, stopping at materialized inputs (the region's
    /// exchange sources), in ascending step order. This is the set of operators one
    /// pipeline instantiates — the unit the scheduler runs, the morsel machinery
    /// caches for, and [`super::ticket::CostTicket`] sizes allocation surfaces over.
    pub fn region_steps(&self, sink: PhysId) -> Vec<PhysId> {
        let mut region = vec![sink];
        let mut stack: Vec<PhysId> = self.steps[sink].op.inputs();
        while let Some(j) = stack.pop() {
            if self.steps[j].materialize {
                continue;
            }
            region.push(j);
            stack.extend(self.steps[j].op.inputs());
        }
        region.sort_unstable();
        region
    }

    /// Decompose the plan into its pipeline DAG: one [`Pipeline`] per materialization
    /// point, whose `sources` are the materialized steps its streaming region scans
    /// (the exchange edges). Pipelines appear in step order, which is a topological
    /// order of the DAG; pipelines with no path between them are independent and may
    /// run concurrently.
    pub fn pipeline_dag(&self) -> PipelineDag {
        let mut sink_to_pipeline: BTreeMap<PhysId, usize> = BTreeMap::new();
        let mut pipelines: Vec<Pipeline> = Vec::new();
        for (sink, step) in self.steps.iter().enumerate() {
            if !step.materialize {
                continue;
            }
            // Walk the streaming region feeding this sink. Non-materialized steps have
            // exactly one consumer (multi-consumer steps are always materialized), so
            // the region is a tree and the walk is linear.
            let mut sources: BTreeSet<PhysId> = BTreeSet::new();
            // Morsel eligibility of the region: every step must be a per-batch pure
            // map over its input — keyed lookups, filters and projections. Fetch is
            // excluded (it deduplicates keys globally across its whole input), and so
            // is every buffered / order-sensitive operator (dedup, joins, products,
            // differences, unions).
            let mut splittable = true;
            let mut has_lookup = false;
            let mut note = |op: &PhysOp| match op {
                PhysOp::KeyedLookup { .. } => has_lookup = true,
                PhysOp::Filter { .. } | PhysOp::Project { .. } => {}
                _ => splittable = false,
            };
            note(&step.op);
            let mut stack: Vec<PhysId> = self.steps[sink].op.inputs();
            while let Some(j) = stack.pop() {
                if self.steps[j].materialize {
                    sources.insert(j);
                } else {
                    note(&self.steps[j].op);
                    stack.extend(self.steps[j].op.inputs());
                }
            }
            sink_to_pipeline.insert(sink, pipelines.len());
            let sources: Vec<PhysId> = sources.into_iter().collect();
            // A splittable region is a linear chain of per-batch maps over exactly
            // one materialized source: its probe stream can be cut into batch groups
            // (morsels) executed concurrently without changing any result or counter.
            let morsel_source = match sources.as_slice() {
                [source] if splittable && has_lookup => Some(*source),
                _ => None,
            };
            pipelines.push(Pipeline {
                sink,
                sources,
                morsel_source,
            });
        }
        let deps: Vec<Vec<usize>> = pipelines
            .iter()
            .map(|p| {
                p.sources
                    .iter()
                    .map(|s| sink_to_pipeline[s])
                    .collect::<Vec<_>>()
            })
            .collect();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); pipelines.len()];
        for (i, dep) in deps.iter().enumerate() {
            for &d in dep {
                dependents[d].push(i);
            }
        }
        PipelineDag {
            pipelines,
            deps,
            dependents,
        }
    }
}

/// One pipeline of a physical plan: the materialization point `sink` plus the streaming
/// region that feeds it. Executing a pipeline means pulling the operator tree rooted at
/// `sink` to exhaustion and materializing the result; the `sources` are the
/// materialization points that region scans, so a pipeline is runnable exactly when all
/// of its sources have been produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Pipeline {
    /// The materialized step this pipeline produces.
    pub sink: PhysId,
    /// The materialized steps its streaming region reads (exchange edges), in step
    /// order.
    pub sources: Vec<PhysId>,
    /// The pipeline's sole materialized source, when its streaming region is
    /// morsel-splittable: a linear chain of per-batch pure maps (keyed lookups,
    /// filters, projections — at least one lookup) over exactly one source. Such a
    /// region computes each output batch from one input batch independently, so the
    /// scheduler may cut the source's batch stream into **morsels** (consecutive
    /// batch groups) and run them concurrently: the concatenated per-morsel results,
    /// in morsel order, equal the unsplit pipeline's output batch-for-batch, and
    /// every data-access counter is unchanged. `None` for regions with buffered or
    /// order-sensitive state (fetch's global key dedup, dedup, joins, products,
    /// unions, differences) or with several sources.
    pub morsel_source: Option<PhysId>,
}

/// The pipeline decomposition of a [`PhysicalPlan`]: pipelines in topological (step)
/// order plus the dependency edges between them. See [`PhysicalPlan::pipeline_dag`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineDag {
    pipelines: Vec<Pipeline>,
    deps: Vec<Vec<usize>>,
    dependents: Vec<Vec<usize>>,
}

impl PipelineDag {
    /// The pipelines in topological order (the last one produces the plan output).
    pub fn pipelines(&self) -> &[Pipeline] {
        &self.pipelines
    }

    /// Number of pipelines.
    pub fn len(&self) -> usize {
        self.pipelines.len()
    }

    /// True when the DAG has no pipelines (never the case for lowered plans).
    pub fn is_empty(&self) -> bool {
        self.pipelines.is_empty()
    }

    /// Pipelines that must complete before pipeline `i` can start.
    pub fn dependencies(&self, i: usize) -> &[usize] {
        &self.deps[i]
    }

    /// Pipelines unblocked (in part) by the completion of pipeline `i`.
    pub fn dependents(&self, i: usize) -> &[usize] {
        &self.dependents[i]
    }

    /// The maximum number of pipelines that can run concurrently under level-by-level
    /// scheduling (all pipelines at equal longest-path depth are mutually independent).
    /// A plan with a single pipeline has width 1; wider DAGs are where a parallel
    /// scheduler can win.
    pub fn parallel_width(&self) -> usize {
        let mut level: Vec<usize> = vec![0; self.pipelines.len()];
        let mut width: BTreeMap<usize, usize> = BTreeMap::new();
        for i in 0..self.pipelines.len() {
            let l = self.deps[i]
                .iter()
                .map(|&d| level[d] + 1)
                .max()
                .unwrap_or(0);
            level[i] = l;
            *width.entry(l).or_insert(0) += 1;
        }
        width.values().copied().max().unwrap_or(0)
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "physical plan for {}:", self.query_name)?;
        for (i, step) in self.steps.iter().enumerate() {
            let mut marks = String::new();
            if i == self.output {
                marks.push_str(" (output)");
            }
            if step.materialize {
                marks.push_str(" [mat]");
            }
            let cols = step.columns.join(", ");
            match &step.op {
                PhysOp::Const { value } => writeln!(f, "  P{i} = {{{value}}}{marks} [{cols}]")?,
                PhysOp::Unit => writeln!(f, "  P{i} = {{()}}{marks}")?,
                PhysOp::Empty { arity } => writeln!(f, "  P{i} = ∅/{arity}{marks}")?,
                PhysOp::Fetch {
                    source,
                    key_cols,
                    relation,
                    positions,
                    constraint_index,
                    ..
                } => writeln!(
                    f,
                    "  P{i} = fetch(X ∈ π{key_cols:?}(P{source}), {relation}→{positions:?}) via φ{constraint_index}{marks} [{cols}]"
                )?,
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
                PhysOp::HashJoin {
                    left,
                    right,
                    left_keys,
                    right_keys,
                    ..
                } => writeln!(
                    f,
                    "  P{i} = P{left} ⋈[{left_keys:?}={right_keys:?}] P{right}{marks} [{cols}]"
                )?,
                PhysOp::Filter { source, predicates } => {
                    let preds = predicates
                        .iter()
                        .map(Predicate::to_string)
                        .collect::<Vec<_>>()
                        .join(" ∧ ");
                    writeln!(f, "  P{i} = σ[{preds}](P{source}){marks} [{cols}]")?
                }
                PhysOp::Project { source, cols: c } => {
                    writeln!(f, "  P{i} = π{c:?}(P{source}){marks} [{cols}]")?
                }
                PhysOp::Dedup { source } => writeln!(f, "  P{i} = δ(P{source}){marks} [{cols}]")?,
                PhysOp::Product { left, right } => {
                    writeln!(f, "  P{i} = P{left} × P{right}{marks} [{cols}]")?
                }
                PhysOp::Union { left, right } => {
                    writeln!(f, "  P{i} = P{left} ∪ P{right}{marks} [{cols}]")?
                }
                PhysOp::Difference { left, right } => {
                    writeln!(f, "  P{i} = P{left} − P{right}{marks} [{cols}]")?
                }
            }
        }
        Ok(())
    }
}

/// How a logical `σ(product)` pair lowers when the keyed-join pattern matches.
enum Fusion {
    /// Product and fetch both disappear into a [`PhysOp::KeyedLookup`].
    Keyed { left: NodeId, fetch: NodeId },
    /// Only the product disappears; the fetch stays shared and the selection becomes a
    /// [`PhysOp::HashJoin`] against it.
    Hash { left: NodeId, fetch: NodeId },
}

/// Options controlling [`lower_plan_with`].
///
/// The struct is `#[non_exhaustive]`: construct it with [`LowerOptions::new`] (or
/// [`Default`]) and adjust knobs through the `with_*` methods.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct LowerOptions {
    /// Additionally mark the inputs of unions and the buffered sides of products,
    /// differences and hash joins as materialization points when their subtrees perform
    /// index access, so the pipeline DAG gains parallel width (see the module docs).
    /// Off by default: the single-threaded executor prefers the minimal set of
    /// breakers, which minimizes residency.
    pub exchange_parallelism: bool,
}

impl LowerOptions {
    /// The default options: minimal materialization, no exchange points.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set whether lowering inserts exchange points for parallel execution.
    pub fn with_exchange_parallelism(mut self, exchange_parallelism: bool) -> Self {
        self.exchange_parallelism = exchange_parallelism;
        self
    }

    /// Does nothing: lowering does not depend on the store, and a sharded store routes
    /// every key at run time (see the module docs). Kept only because the end-to-end
    /// benchmark harness (`benchmark/`) still calls it; the next change to the harness
    /// drops that call, and then this method goes.
    pub fn with_shard_fanout(self, _shards: u32) -> Self {
        self
    }
}

/// Lower a logical plan to a physical streaming plan with the default options. See the
/// module docs for the rules.
pub fn lower_plan(plan: &QueryPlan) -> Result<PhysicalPlan> {
    lower_plan_with(plan, &LowerOptions::default())
}

/// Lower a logical plan to a physical streaming plan under explicit [`LowerOptions`].
pub fn lower_plan_with(plan: &QueryPlan, options: &LowerOptions) -> Result<PhysicalPlan> {
    plan.validate()?;
    let steps = plan.steps();
    let n = steps.len();

    // Logical consumer lists; the plan output counts as one extra (virtual) consumer.
    let mut consumers: Vec<Vec<NodeId>> = vec![Vec::new(); n];
    for (i, step) in steps.iter().enumerate() {
        match &step.op {
            PlanOp::Fetch { source, .. }
            | PlanOp::Project { source, .. }
            | PlanOp::Select { source, .. }
            | PlanOp::Rename { source } => consumers[*source].push(i),
            PlanOp::Product { left, right }
            | PlanOp::Union { left, right }
            | PlanOp::Difference { left, right } => {
                consumers[*left].push(i);
                consumers[*right].push(i);
            }
            PlanOp::Const { .. } | PlanOp::Unit | PlanOp::Empty { .. } => {}
        }
    }
    consumers[plan.output()].push(n); // virtual consumer: the caller

    // Keyed-join fusion: σ[all keys tied](T × fetch(X ∈ T, …)) where the product has no
    // other consumer. The fetch is absorbed too when the selection is its only transitive
    // consumer; otherwise it stays shared and the selection becomes a hash join.
    let mut fusion: BTreeMap<NodeId, Fusion> = BTreeMap::new();
    let mut absorbed: BTreeSet<NodeId> = BTreeSet::new();
    for (i, step) in steps.iter().enumerate() {
        let PlanOp::Select { source, predicates } = &step.op else {
            continue;
        };
        let PlanOp::Product { left, right } = &steps[*source].op else {
            continue;
        };
        if consumers[*source].len() != 1 {
            continue;
        }
        let PlanOp::Fetch {
            source: fetch_source,
            key_cols,
            ..
        } = &steps[*right].op
        else {
            continue;
        };
        if fetch_source != left {
            continue;
        }
        let left_arity = steps[*left].columns.len();
        if !keys_all_tied(predicates, key_cols, left_arity) {
            continue;
        }
        absorbed.insert(*source);
        if consumers[*right].len() == 1 {
            absorbed.insert(*right);
            fusion.insert(
                i,
                Fusion::Keyed {
                    left: *left,
                    fetch: *right,
                },
            );
        } else {
            fusion.insert(
                i,
                Fusion::Hash {
                    left: *left,
                    fetch: *right,
                },
            );
        }
    }

    // Projection pushdown: a projection that is the sole consumer of a fetch folds into
    // the fetch's output positions.
    let mut pushdown: BTreeMap<NodeId, NodeId> = BTreeMap::new();
    for (i, step) in steps.iter().enumerate() {
        let PlanOp::Project { source, .. } = &step.op else {
            continue;
        };
        if absorbed.contains(source) || consumers[*source].len() != 1 {
            continue;
        }
        if matches!(&steps[*source].op, PlanOp::Fetch { .. }) {
            pushdown.insert(i, *source);
            absorbed.insert(*source);
        }
    }

    // Emit physical steps.
    let mut phys: Vec<PhysStep> = Vec::with_capacity(n);
    let mut map: Vec<Option<PhysId>> = vec![None; n];
    let push = |phys: &mut Vec<PhysStep>, op: PhysOp, columns: Vec<String>, sv: bool| {
        phys.push(PhysStep {
            op,
            columns,
            set_valued: sv,
            materialize: false,
            consumers: 0,
        });
        phys.len() - 1
    };
    // Fetch output = x_attrs ++ y_attrs, expressed as relation-attribute positions.
    let fetch_base_positions = |node: NodeId| -> Vec<usize> {
        let PlanOp::Fetch {
            x_attrs, y_attrs, ..
        } = &steps[node].op
        else {
            unreachable!("caller checked the step is a fetch");
        };
        x_attrs.iter().chain(y_attrs.iter()).copied().collect()
    };

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
            PlanOp::Fetch {
                source,
                key_cols,
                relation,
                x_attrs,
                constraint_index,
                ..
            } => {
                // An unfused fetch emits X ++ Y: distinct keys yield rows that differ on
                // the X prefix, and the operator deduplicates within each key, so the
                // output is a set and the logical fetch's dedup is eliminated.
                push(
                    &mut phys,
                    PhysOp::Fetch {
                        source: map[*source].expect("source lowered earlier"),
                        key_cols: key_cols.clone(),
                        relation: relation.clone(),
                        x_attrs: x_attrs.clone(),
                        positions: fetch_base_positions(i),
                        constraint_index: *constraint_index,
                    },
                    step.columns.clone(),
                    true,
                )
            }
            PlanOp::Project { source, cols } => {
                if let Some(&fetch_node) = pushdown.get(&i) {
                    let PlanOp::Fetch {
                        source: fsrc,
                        key_cols,
                        relation,
                        x_attrs,
                        constraint_index,
                        ..
                    } = &steps[fetch_node].op
                    else {
                        unreachable!("pushdown targets are fetches");
                    };
                    let base = fetch_base_positions(fetch_node);
                    let positions: Vec<usize> = cols.iter().map(|&c| base[c]).collect();
                    // Set-valued only if the projection kept every key attribute —
                    // otherwise rows from different keys can collide.
                    let sv = x_attrs.iter().all(|a| positions.contains(a));
                    let id = push(
                        &mut phys,
                        PhysOp::Fetch {
                            source: map[*fsrc].expect("source lowered earlier"),
                            key_cols: key_cols.clone(),
                            relation: relation.clone(),
                            x_attrs: x_attrs.clone(),
                            positions,
                            constraint_index: *constraint_index,
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
            PlanOp::Select { source, predicates } => match fusion.get(&i) {
                Some(Fusion::Keyed { left, fetch }) => {
                    let PlanOp::Fetch {
                        key_cols,
                        relation,
                        x_attrs,
                        constraint_index,
                        ..
                    } = &steps[*fetch].op
                    else {
                        unreachable!("fusion targets are fetches");
                    };
                    let src = map[*left].expect("source lowered earlier");
                    let residual =
                        residual_predicates(predicates, key_cols, phys[src].columns.len());
                    // Distinct probe rows emit distinct concatenations (the fetched
                    // side is deduplicated per key).
                    let sv = phys[src].set_valued;
                    push(
                        &mut phys,
                        PhysOp::KeyedLookup {
                            source: src,
                            key_cols: key_cols.clone(),
                            relation: relation.clone(),
                            x_attrs: x_attrs.clone(),
                            positions: fetch_base_positions(*fetch),
                            constraint_index: *constraint_index,
                            residual,
                        },
                        step.columns.clone(),
                        sv,
                    )
                }
                Some(Fusion::Hash { left, fetch }) => {
                    let PlanOp::Fetch { key_cols, .. } = &steps[*fetch].op else {
                        unreachable!("fusion targets are fetches");
                    };
                    let l = map[*left].expect("source lowered earlier");
                    let r = map[*fetch].expect("source lowered earlier");
                    let residual = residual_predicates(predicates, key_cols, phys[l].columns.len());
                    let sv = phys[l].set_valued && phys[r].set_valued;
                    push(
                        &mut phys,
                        PhysOp::HashJoin {
                            left: l,
                            right: r,
                            left_keys: key_cols.clone(),
                            right_keys: (0..key_cols.len()).collect(),
                            residual,
                        },
                        step.columns.clone(),
                        sv,
                    )
                }
                None => {
                    let src = map[*source].expect("source lowered earlier");
                    let sv = phys[src].set_valued;
                    push(
                        &mut phys,
                        PhysOp::Filter {
                            source: src,
                            predicates: predicates.clone(),
                        },
                        step.columns.clone(),
                        sv,
                    )
                }
            },
            PlanOp::Product { left, right } => {
                let (l, r) = (
                    map[*left].expect("source lowered earlier"),
                    map[*right].expect("source lowered earlier"),
                );
                let sv = phys[l].set_valued && phys[r].set_valued;
                push(
                    &mut phys,
                    PhysOp::Product { left: l, right: r },
                    step.columns.clone(),
                    sv,
                )
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
            PlanOp::Difference { left, right } => {
                let (l, r) = (
                    map[*left].expect("source lowered earlier"),
                    map[*right].expect("source lowered earlier"),
                );
                if matches!(phys[r].op, PhysOp::Empty { .. }) {
                    l
                } else {
                    let sv = phys[l].set_valued;
                    push(
                        &mut phys,
                        PhysOp::Difference { left: l, right: r },
                        step.columns.clone(),
                        sv,
                    )
                }
            }
            PlanOp::Rename { source } => map[*source].expect("source lowered earlier"),
        };
        map[i] = Some(node);
    }

    // Restore set semantics at the output and force the logical column labels.
    let mut output = map[plan.output()].expect("output lowered");
    if !phys[output].set_valued {
        let columns = phys[output].columns.clone();
        output = push(&mut phys, PhysOp::Dedup { source: output }, columns, true);
    }
    phys[output].columns = steps[plan.output()].columns.clone();

    // Prune steps no longer reachable from the output (sources of eliminated renames,
    // ∅ branches, steps absorbed into fused operators).
    let (mut phys, output) = prune_unreachable(phys, output);

    // Consumer counts over the physical graph decide the materialization points.
    let mut counts: Vec<usize> = vec![0; phys.len()];
    for step in &phys {
        for input in step.op.inputs() {
            counts[input] += 1;
        }
    }
    counts[output] += 1; // virtual consumer: the caller takes the output table
    for (step, &count) in phys.iter_mut().zip(counts.iter()) {
        step.consumers = count;
        step.materialize = count >= 2;
    }
    phys[output].materialize = true;

    // Exchange points: cut the plan at the inputs of unions and at the buffered sides
    // of products, differences and hash joins, provided the cut-off subtree actually
    // performs index access (there is nothing to win by running a constant on its own
    // thread). Materializing a step never changes what is fetched — the same operator
    // tree runs, its result is just buffered at the cut — so data-access accounting is
    // identical with and without exchange points.
    if options.exchange_parallelism {
        let mut has_access: Vec<bool> = vec![false; phys.len()];
        for i in 0..phys.len() {
            has_access[i] = matches!(
                phys[i].op,
                PhysOp::Fetch { .. } | PhysOp::KeyedLookup { .. }
            ) || phys[i].op.inputs().iter().any(|&j| has_access[j]);
        }
        let mut exchange: Vec<PhysId> = Vec::new();
        for step in &phys {
            match &step.op {
                PhysOp::Union { left, right } => {
                    exchange.extend([*left, *right]);
                }
                PhysOp::Product { right, .. }
                | PhysOp::Difference { right, .. }
                | PhysOp::HashJoin { right, .. } => {
                    exchange.push(*right);
                }
                _ => {}
            }
        }
        for j in exchange {
            if has_access[j] {
                phys[j].materialize = true;
            }
        }
        // Morsel cuts: the source of a keyed lookup becomes a materialization point
        // when the source subtree itself performs index access. This turns a heavy
        // straight-line chain (fetch → lookup → lookup) into lookup-over-materialized-
        // source pipelines whose probe streams the scheduler can split into
        // batch-sized morsels (see [`Pipeline::morsel_source`]). Like every exchange
        // point, the cut only buffers a result that was computed anyway — the batch
        // boundaries, data access and copy traffic are all unchanged.
        let mut morsel_cuts: Vec<PhysId> = Vec::new();
        for step in &phys {
            if let PhysOp::KeyedLookup { source, .. } = &step.op {
                if has_access[*source] {
                    morsel_cuts.push(*source);
                }
            }
        }
        for j in morsel_cuts.drain(..) {
            phys[j].materialize = true;
        }
        // A dedup that caps a lookup chain (the set-restoring step over the plan
        // output, typically) is order-sensitive and can never be part of a morsel
        // region — cut *below* it when doing so leaves a splittable chain behind:
        // walking from the dedup's source through streaming filters/projections must
        // reach a streaming keyed lookup.
        for step in &phys {
            let PhysOp::Dedup { source } = &step.op else {
                continue;
            };
            let mut j = *source;
            loop {
                if phys[j].materialize {
                    break;
                }
                match &phys[j].op {
                    PhysOp::KeyedLookup { .. } => {
                        morsel_cuts.push(*source);
                        break;
                    }
                    PhysOp::Filter { source, .. } | PhysOp::Project { source, .. } => j = *source,
                    _ => break,
                }
            }
        }
        for j in morsel_cuts {
            phys[j].materialize = true;
        }
    }

    let plan = PhysicalPlan {
        query_name: plan.query_name().to_owned(),
        steps: phys,
        output,
    };
    plan.validate()?;
    Ok(plan)
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
/// row of every step on its left spine (sources, left sides), so an origin passes through
/// those; a right side's non-constant column is a fresh origin, since it may come from
/// another row of a step the left side also reads.
fn origin(steps: &[PhysStep], step: PhysId, col: usize) -> Origin {
    let fresh = Origin::Col(step, col);
    match &steps[step].op {
        PhysOp::Const { .. } => Origin::Const,
        PhysOp::Project { source, cols } => origin(steps, *source, cols[col]),
        PhysOp::Filter { source, .. }
        | PhysOp::Dedup { source }
        | PhysOp::Difference { left: source, .. } => origin(steps, *source, col),
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
        PhysOp::Product { left, right } | PhysOp::HashJoin { left, right, .. } => {
            match col.checked_sub(steps[*left].columns.len()) {
                None => origin(steps, *left, col),
                Some(c) if origin(steps, *right, c) == Origin::Const => Origin::Const,
                Some(_) => fresh,
            }
        }
        PhysOp::Unit | PhysOp::Empty { .. } | PhysOp::Fetch { .. } | PhysOp::Union { .. } => fresh,
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

/// Drop steps unreachable from the output, remapping step ids (order is preserved, so
/// topological validity is too).
fn prune_unreachable(steps: Vec<PhysStep>, output: PhysId) -> (Vec<PhysStep>, PhysId) {
    let mut reachable = vec![false; steps.len()];
    let mut stack = vec![output];
    while let Some(i) = stack.pop() {
        if std::mem::replace(&mut reachable[i], true) {
            continue;
        }
        stack.extend(steps[i].op.inputs());
    }
    if reachable.iter().all(|&r| r) {
        return (steps, output);
    }
    let mut remap: Vec<Option<PhysId>> = vec![None; steps.len()];
    let mut kept: Vec<PhysStep> = Vec::with_capacity(steps.len());
    for (i, mut step) in steps.into_iter().enumerate() {
        if !reachable[i] {
            continue;
        }
        remap_op_inputs(&mut step.op, &remap);
        remap[i] = Some(kept.len());
        kept.push(step);
    }
    let output = remap[output].expect("output is reachable");
    (kept, output)
}

/// Point every input of `op` at its image under `map` (which must be total on the
/// inputs).
fn remap_op_inputs(op: &mut PhysOp, map: &[Option<PhysId>]) {
    let fix = |j: &mut PhysId| *j = map[*j].expect("inputs lowered earlier");
    match op {
        PhysOp::Const { .. } | PhysOp::Unit | PhysOp::Empty { .. } => {}
        PhysOp::Fetch { source, .. }
        | PhysOp::KeyedLookup { source, .. }
        | PhysOp::Filter { source, .. }
        | PhysOp::Project { source, .. }
        | PhysOp::Dedup { source } => fix(source),
        PhysOp::HashJoin { left, right, .. }
        | PhysOp::Product { left, right }
        | PhysOp::Union { left, right }
        | PhysOp::Difference { left, right } => {
            fix(left);
            fix(right);
        }
    }
}

/// True when `predicates` equates every fetch key column with its source column — the
/// `σ[key equalities](T × fetch(X ∈ T, …))` shape plan synthesis emits for every fetch.
/// Shared with the materialized executor's deferred-product peephole so the two
/// strategies always recognize the same pattern.
pub fn keys_all_tied(predicates: &[Predicate], key_cols: &[usize], left_arity: usize) -> bool {
    key_cols
        .iter()
        .enumerate()
        .all(|(k, &kc)| predicates.contains(&Predicate::ColEqCol(kc, left_arity + k)))
}

/// The predicates of a fused selection that go beyond the key equalities (the part a
/// keyed join still has to check per emitted row). Counterpart of [`keys_all_tied`].
pub fn residual_predicates(
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
        b.select(prod, vec![Predicate::ColEqCol(0, 1)])
    }

    #[test]
    fn keyed_join_fuses_into_lookup() {
        let plan = keyed_join_plan();
        let phys = lower_plan(&plan).unwrap();
        assert!(phys.validate().is_ok());
        // No physical product, no standalone fetch: the whole pattern is one lookup.
        assert!(phys
            .steps()
            .iter()
            .all(|s| !matches!(s.op, PhysOp::Product { .. } | PhysOp::Fetch { .. })));
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
        // `σ[b = c1](σ[k = a]({c0} × fetch(a ∈ {c0}, R, b)))`, as a template and as text.
        let plan = |c0: Value, c1: Value| {
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
                vec![Predicate::ColEqCol(0, 1), Predicate::ColEqConst(2, c1)],
            );
            let filtered = b.select(sel, vec![Predicate::ColEqConst(0, Value::Bool(true))]);
            b.finish("Q", filtered).unwrap()
        };
        let values = [Value::int(-4), Value::str("k")];
        let template = plan(Value::placeholder(0), Value::placeholder(1));
        let literal = plan(values[0].clone(), values[1].clone());
        for options in [
            LowerOptions::new(),
            LowerOptions::new().with_exchange_parallelism(true),
        ] {
            let lowered = lower_plan_with(&template, &options).unwrap();
            let expected = lower_plan_with(&literal, &options).unwrap();
            assert_ne!(lowered, expected);
            assert_eq!(lowered.bind(&values).unwrap(), expected);
            // A plan without placeholders binds to itself, whatever it is given.
            assert_eq!(expected.bind(&[]).unwrap(), expected);
            // One value short: the second placeholder has nothing to become.
            let error = lowered.bind(&values[..1]).unwrap_err().to_string();
            assert!(error.contains("placeholder 1 unbound"), "{error}");
        }
    }

    #[test]
    fn shared_fetch_falls_back_to_hash_join() {
        // Same pattern, but the fetch result is also consumed by a projection, so it
        // must stay a step of its own and the selection becomes a hash join.
        let mut b = PlanBuilder::new();
        let k1 = b.constant(Value::int(1), "k");
        let fetched = b.fetch(
            k1,
            vec![0],
            "R",
            vec![0],
            vec![1],
            0,
            vec!["a".into(), "b".into()],
        );
        let prod = b.product(k1, fetched);
        let sel = b.select(prod, vec![Predicate::ColEqCol(0, 1)]);
        let other = b.project(fetched, vec![1]);
        let out = b.product(sel, other);
        let plan = b.finish("Q", out).unwrap();
        let phys = lower_plan(&plan).unwrap();
        assert!(phys
            .steps()
            .iter()
            .any(|s| matches!(s.op, PhysOp::HashJoin { .. })));
        assert!(phys
            .steps()
            .iter()
            .any(|s| matches!(s.op, PhysOp::Fetch { .. })));
        // The shared fetch is a pipeline breaker: it feeds both the join and the
        // projection.
        let fetch_step = phys
            .steps()
            .iter()
            .find(|s| matches!(s.op, PhysOp::Fetch { .. }))
            .unwrap();
        assert!(fetch_step.materialize);
        assert_eq!(fetch_step.consumers, 2);
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
        assert!(phys
            .steps()
            .iter()
            .all(|s| !matches!(s.op, PhysOp::Project { .. })));
        let Some(PhysOp::Fetch { positions, .. }) = phys
            .steps()
            .iter()
            .map(|s| &s.op)
            .find(|op| matches!(op, PhysOp::Fetch { .. }))
        else {
            panic!("no fetch");
        };
        assert_eq!(positions, &[0, 2]);
        // The key attribute survives the projection, so no dedup step is needed.
        assert!(phys
            .steps()
            .iter()
            .all(|s| !matches!(s.op, PhysOp::Dedup { .. })));
    }

    #[test]
    fn projection_dropping_keys_requires_dedup() {
        let mut b = PlanBuilder::new();
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
        // Keep only b: rows fetched under different keys can now collide.
        let projected = b.project(fetched, vec![1]);
        let plan = b.finish("Q", projected).unwrap();
        let phys = lower_plan(&plan).unwrap();
        let Some(PhysOp::Fetch { positions, .. }) = phys
            .steps()
            .iter()
            .map(|s| &s.op)
            .find(|op| matches!(op, PhysOp::Fetch { .. }))
        else {
            panic!("no fetch");
        };
        assert_eq!(positions, &[1]);
        assert!(phys
            .steps()
            .iter()
            .any(|s| matches!(s.op, PhysOp::Dedup { .. })));
    }

    #[test]
    fn rename_and_empty_branches_vanish() {
        let mut b = PlanBuilder::new();
        let k = b.constant(Value::int(1), "x");
        let e = b.empty(1);
        let u = b.union(k, e);
        let d = b.difference(u, e);
        let r = b.rename(d, vec!["y".into()]);
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

        // Equal to a kept column only through a filter predicate: conservatively a δ.
        let mut b = PlanBuilder::new();
        let keys = |b: &mut PlanBuilder| {
            let k1 = b.constant(Value::int(1), "k");
            let k2 = b.constant(Value::int(2), "k");
            b.union(k1, k2)
        };
        let (left, right) = (keys(&mut b), keys(&mut b));
        let p = b.product(left, right);
        let equal = b.select(p, vec![Predicate::ColEqCol(0, 1)]);
        let dropped = b.project(equal, vec![0]);
        let plan = b.finish("Q", dropped).unwrap();
        // The two unions' δs, and the projection's.
        assert_eq!(dedups(&plan), 3);
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
    fn materialization_points_are_shared_nodes_and_output() {
        let plan = keyed_join_plan();
        let phys = lower_plan(&plan).unwrap();
        // Only the output is a breaker here: the union of keys feeds exactly one
        // operator (the fused lookup), so everything streams.
        assert_eq!(phys.materialization_points(), 1);
        assert!(phys.steps()[phys.output()].materialize);
    }

    #[test]
    fn single_pipeline_dag_for_fully_streaming_plan() {
        let phys = lower_plan(&keyed_join_plan()).unwrap();
        let dag = phys.pipeline_dag();
        assert_eq!(dag.len(), 1);
        assert!(!dag.is_empty());
        assert_eq!(dag.pipelines()[0].sink, phys.output());
        assert!(dag.pipelines()[0].sources.is_empty());
        assert!(dag.dependencies(0).is_empty());
        assert!(dag.dependents(0).is_empty());
        assert_eq!(dag.parallel_width(), 1);
    }

    #[test]
    fn shared_fetch_plan_decomposes_into_dependent_pipelines() {
        // The shared-fetch plan has two materialization points: the fetch and the
        // output. The DAG must chain them with an exchange edge.
        let mut b = PlanBuilder::new();
        let k1 = b.constant(Value::int(1), "k");
        let fetched = b.fetch(
            k1,
            vec![0],
            "R",
            vec![0],
            vec![1],
            0,
            vec!["a".into(), "b".into()],
        );
        let prod = b.product(k1, fetched);
        let sel = b.select(prod, vec![Predicate::ColEqCol(0, 1)]);
        let other = b.project(fetched, vec![1]);
        let out = b.product(sel, other);
        let plan = b.finish("Q", out).unwrap();
        let phys = lower_plan(&plan).unwrap();
        let dag = phys.pipeline_dag();
        // Three breakers: the shared constant, the shared fetch, and the output.
        assert_eq!(dag.len(), 3);
        let const_pipe = &dag.pipelines()[0];
        let fetch_pipe = &dag.pipelines()[1];
        let out_pipe = &dag.pipelines()[2];
        assert!(matches!(
            phys.steps()[const_pipe.sink].op,
            PhysOp::Const { .. }
        ));
        assert!(matches!(
            phys.steps()[fetch_pipe.sink].op,
            PhysOp::Fetch { .. }
        ));
        assert_eq!(out_pipe.sink, phys.output());
        // Exchange edges: the fetch scans the constant; the output scans both.
        assert_eq!(fetch_pipe.sources, vec![const_pipe.sink]);
        assert_eq!(out_pipe.sources, vec![const_pipe.sink, fetch_pipe.sink]);
        assert_eq!(dag.dependencies(1), &[0]);
        assert_eq!(dag.dependencies(2), &[0, 1]);
        assert_eq!(dag.dependents(0), &[1, 2]);
        // A chain has no parallel width.
        assert_eq!(dag.parallel_width(), 1);
    }

    /// A union of two independent keyed-lookup branches — the shape that parallel
    /// execution targets.
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
    fn exchange_lowering_widens_the_pipeline_dag() {
        let plan = union_of_lookups_plan();

        // Default lowering: the union streams, one pipeline.
        let streaming = lower_plan(&plan).unwrap();
        assert_eq!(streaming.pipeline_dag().len(), 1);

        // Exchange lowering: each branch becomes an independent pipeline feeding the
        // output pipeline.
        let exchanged =
            lower_plan_with(&plan, &LowerOptions::new().with_exchange_parallelism(true)).unwrap();
        assert!(exchanged.validate().is_ok());
        let dag = exchanged.pipeline_dag();
        assert_eq!(dag.len(), 3);
        assert_eq!(dag.parallel_width(), 2);
        let out_pipe = dag.pipelines().last().unwrap();
        assert_eq!(out_pipe.sink, exchanged.output());
        assert_eq!(out_pipe.sources.len(), 2);
        assert_eq!(dag.dependencies(2), &[0, 1]);
        // The two branch pipelines are independent: neither depends on the other.
        assert!(dag.dependencies(0).is_empty());
        assert!(dag.dependencies(1).is_empty());
        // Exchange changes only materialization, never the operators themselves.
        let ops = |p: &PhysicalPlan| p.steps().iter().map(|s| s.op.clone()).collect::<Vec<_>>();
        assert_eq!(ops(&streaming), ops(&exchanged));
    }

    #[test]
    fn exchange_lowering_skips_access_free_subtrees() {
        // A union of constants performs no index access: nothing to parallelize, so
        // exchange lowering must not add breakers.
        let mut b = PlanBuilder::new();
        let one = b.constant(Value::int(1), "x");
        let two = b.constant(Value::int(2), "x");
        let u = b.union(one, two);
        let plan = b.finish("Q", u).unwrap();
        let streaming = lower_plan(&plan).unwrap();
        let exchanged =
            lower_plan_with(&plan, &LowerOptions::new().with_exchange_parallelism(true)).unwrap();
        assert_eq!(
            streaming.materialization_points(),
            exchanged.materialization_points()
        );
        let options = LowerOptions::new().with_exchange_parallelism(true);
        assert!(options.exchange_parallelism);
        assert!(!LowerOptions::default().exchange_parallelism);
    }

    /// A two-hop lookup chain — `fetch(R, keys)` feeding `fetch(S, ·)` — the
    /// straight-line shape the morsel cut targets.
    fn lookup_chain_plan(project_tail: bool) -> QueryPlan {
        let mut b = PlanBuilder::new();
        let k1 = b.constant(Value::int(1), "k");
        let k2 = b.constant(Value::int(2), "k");
        let keys = b.union(k1, k2);
        let f1 = b.fetch(
            keys,
            vec![0],
            "R",
            vec![0],
            vec![1],
            0,
            vec!["a".into(), "b".into()],
        );
        let p1 = b.product(keys, f1);
        let s1 = b.select(p1, vec![Predicate::ColEqCol(0, 1)]); // [k, a, b]
        let f2 = b.fetch(
            s1,
            vec![2],
            "S",
            vec![0],
            vec![1],
            1,
            vec!["b".into(), "c".into()],
        );
        let p2 = b.product(s1, f2);
        let s2 = b.select(p2, vec![Predicate::ColEqCol(2, 3)]); // [k, a, b, b, c]
        let out = if project_tail {
            b.project(s2, vec![4]) // drop the key columns: forces a dedup at the output
        } else {
            s2
        };
        b.finish("Q", out).unwrap()
    }

    #[test]
    fn exchange_lowering_cuts_lookup_chains_into_morsel_pipelines() {
        let plan = lookup_chain_plan(false);
        let streaming = lower_plan(&plan).unwrap();
        let exchanged =
            lower_plan_with(&plan, &LowerOptions::new().with_exchange_parallelism(true)).unwrap();
        // The cut changes only materialization, never the operators.
        let ops = |p: &PhysicalPlan| p.steps().iter().map(|s| s.op.clone()).collect::<Vec<_>>();
        assert_eq!(ops(&streaming), ops(&exchanged));

        // Streaming: one pipeline, no materialized source, so nothing to split.
        let dag = streaming.pipeline_dag();
        assert!(dag.pipelines().iter().all(|p| p.morsel_source.is_none()));

        // Exchanged: the chain's first lookup is cut into its own pipeline, and the
        // second lookup heads a morsel-splittable pipeline reading it.
        let dag = exchanged.pipeline_dag();
        let lookups: Vec<PhysId> = exchanged
            .steps()
            .iter()
            .enumerate()
            .filter(|(_, s)| matches!(s.op, PhysOp::KeyedLookup { .. }))
            .map(|(i, _)| i)
            .collect();
        assert_eq!(lookups.len(), 2);
        let (first, second) = (lookups[0], lookups[1]);
        assert!(
            exchanged.steps()[first].materialize,
            "the chain must be cut at the second lookup's source"
        );
        let splittable: Vec<&Pipeline> = dag
            .pipelines()
            .iter()
            .filter(|p| p.morsel_source.is_some())
            .collect();
        assert_eq!(splittable.len(), 1);
        assert_eq!(splittable[0].sink, second);
        assert_eq!(splittable[0].morsel_source, Some(first));
        assert_eq!(splittable[0].sources, vec![first]);
    }

    #[test]
    fn exchange_lowering_cuts_below_the_output_dedup() {
        // Projecting away the key columns forces a dedup at the output; the dedup is
        // order-sensitive, so the cut lands below it and the lookup + projection chain
        // becomes the morsel-splittable pipeline.
        let plan = lookup_chain_plan(true);
        let exchanged =
            lower_plan_with(&plan, &LowerOptions::new().with_exchange_parallelism(true)).unwrap();
        assert!(matches!(
            exchanged.steps()[exchanged.output()].op,
            PhysOp::Dedup { .. }
        ));
        let dag = exchanged.pipeline_dag();
        let splittable: Vec<&Pipeline> = dag
            .pipelines()
            .iter()
            .filter(|p| p.morsel_source.is_some())
            .collect();
        assert_eq!(splittable.len(), 1);
        // The splittable pipeline's sink is the projection feeding the dedup, and its
        // region holds the chain's second lookup.
        assert!(matches!(
            exchanged.steps()[splittable[0].sink].op,
            PhysOp::Project { .. }
        ));
        let output_pipe = dag.pipelines().last().unwrap();
        assert_eq!(output_pipe.sink, exchanged.output());
        assert_eq!(output_pipe.sources, vec![splittable[0].sink]);
        assert!(output_pipe.morsel_source.is_none());
    }

    #[test]
    fn unit_and_empty_lower_unchanged() {
        let mut b = PlanBuilder::new();
        let u = b.unit();
        let k = b.constant(Value::int(1), "x");
        let p = b.product(u, k);
        let plan = b.finish("Q", p).unwrap();
        let phys = lower_plan(&plan).unwrap();
        assert!(phys.steps().iter().any(|s| matches!(s.op, PhysOp::Unit)));
        assert!(phys
            .steps()
            .iter()
            .any(|s| matches!(s.op, PhysOp::Product { .. })));
        assert!(!phys.is_empty());
        assert_eq!(phys.query_name(), "Q");
    }
}
