//! Physical plans: lowering a plan as synthesis writes it to the plan `bea-engine` streams.
//!
//! Synthesis writes the paper's plan, a tree of seven steps over the paper's algebra:
//! `{a}`, `{()}`, `∅`, the keyed join `σ[key ties ∧ residual](T × fetch(X ∈ T, R, Y))`,
//! π, `T × {c}` and ∪, every one of them a set. `bea-engine` runs a plan as one tree of
//! pull-based operators, one per step, without materializing a table per step; its π
//! and ∪ stream, and keep the duplicates they make. [`lower_plan`] returns the plan it
//! runs, a [`QueryPlan`] too: the same steps, plus a [`PlanOp::Dedup`] wherever set
//! semantics needs one. Boundedness is untouched — every access still goes through the
//! index of an access constraint, and the set of `(constraint, key)` lookups is exactly
//! the one the paper's plan performs — only the *residency* of intermediate results
//! changes, which is the point: the memory footprint of a bounded plan should scale with
//! the access schema's bounds, not with whatever the intermediate relational algebra
//! happens to materialize.
//!
//! A plan that [`QueryPlan::validate`] accepts always lowers; that is the only refusal.
//! Lowering applies these rules:
//!
//! * **δ where a row can repeat** — a step is *set-valued* when the streaming executor
//!   cannot emit one row twice from it (`set_valued`); a δ follows each step that is
//!   not, so every step a logical step lowers to is a set. A ∪ always gets one, a π when
//!   it drops a column that is not determined by the plan on every row: **constant**
//!   (it traces back through appends, keyed-join source columns, projections and δs to a
//!   query constant) or **key-equal** to a kept column (a keyed join's fetched key
//!   attribute, which the key tie makes equal to the source's key column). The same fact
//!   tells the engine where a keyed join's source never repeats a key
//!   ([`QueryPlan::keys_distinct`]). Equalities a residual predicate establishes are not
//!   used, and neither are access constraints of bound 1 read as functional
//!   dependencies: that would make answers depend on the instance satisfying the access
//!   schema, which nothing on the query path checks. A δ over a set is elided, so
//!   lowering a lowered plan returns it unchanged.
//! * **Constant appends** — `{()} × {c}` is `{c}` itself.
//! * **Empty-branch elimination** — `T ∪ ∅` is `T`, a set already.
//! * **Pruning** — the steps the output no longer reads (∅ branches, the unit under
//!   `{()} × {c}`) are dropped, so every step is read by one other and the output by
//!   none.
//!
//! **One plan, whatever the store and the thread count.** Lowering never looks at the
//! store: the paper's bound is about *which* `(constraint, key)` lookups a plan makes,
//! and where a key's postings live is the store's business. Nor does lowering plan for
//! threads: a bounded query touches a small slice of the data, so a plan runs on one
//! thread, and threads run many queries at once.

use crate::error::Result;
use crate::plan::{NodeId, PlanOp, PlanStep, QueryPlan};

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

/// Lower a plan to the plan the streaming executor runs: its steps, plus the δs set
/// semantics needs (see the module docs). It fails only where [`QueryPlan::validate`]
/// does.
pub fn lower_plan(plan: &QueryPlan) -> Result<QueryPlan> {
    plan.validate()?;
    let mut steps: Vec<PlanStep> = Vec::with_capacity(plan.len());
    // `map[i]` is the step plan step `i` lowers to: a set.
    let mut map: Vec<NodeId> = Vec::with_capacity(plan.len());
    for step in plan.steps() {
        let mut op = step.op.clone();
        op.renumber(|j| map[j]);
        let columns = || step.columns.clone();
        let empty = |j: NodeId| matches!(steps[j].op, PlanOp::Empty { .. });
        let node = match op {
            PlanOp::AppendConst { source, value } if matches!(steps[source].op, PlanOp::Unit) => {
                push(&mut steps, PlanOp::Const { value }, columns())
            }
            PlanOp::Union { left, right } if empty(left) => right,
            PlanOp::Union { left, right } if empty(right) => left,
            PlanOp::Dedup { source } => dedup(&mut steps, source),
            op => {
                let id = push(&mut steps, op, columns());
                dedup(&mut steps, id)
            }
        };
        debug_assert!(set_valued(&steps, node), "T{node} is not a set");
        map.push(node);
    }
    let output = map[plan.output()];
    steps[output].columns = plan.steps()[plan.output()].columns.clone();
    let lowered = prune(plan.query_name(), steps, output);
    debug_assert!(lowered.validate().is_ok(), "{lowered}");
    Ok(lowered)
}

/// [`lower_plan`]; `options` change nothing (see [`LowerOptions`]).
pub fn lower_plan_with(plan: &QueryPlan, _options: &LowerOptions) -> Result<QueryPlan> {
    lower_plan(plan)
}

impl QueryPlan {
    /// True when no two rows of step `source` agree on its `key_cols`: the step is
    /// set-valued and each of its other columns is constant or equal to a key column on
    /// every row (see the [`physical`](self) module docs). A keyed join over such a source
    /// never sees a key twice, so it has nothing to memoize.
    pub fn keys_distinct(&self, source: NodeId, key_cols: &[usize]) -> bool {
        set_valued(&self.steps, source) && determined_by(&self.steps, source, key_cols)
    }

    /// True when the streaming executor can run this plan as it stands under set
    /// semantics: every step but a δ reads sets, and the output is one. A plan
    /// [`lower_plan`] returned always can. Allocates nothing; the plan must be one
    /// [`QueryPlan::validate`] accepts.
    pub fn streams_sets(&self) -> bool {
        let steps = &self.steps;
        let reads_sets = |step: &PlanStep| {
            matches!(step.op, PlanOp::Dedup { .. })
                || step.op.inputs().all(|j| set_valued(steps, j))
        };
        set_valued(steps, self.output) && steps.iter().all(reads_sets)
    }
}

/// Append a step; its id.
fn push(steps: &mut Vec<PlanStep>, op: PlanOp, columns: Vec<String>) -> NodeId {
    steps.push(PlanStep { op, columns });
    steps.len() - 1
}

/// `step`, or a δ over it where it is not set-valued: the step of the two that is a set.
fn dedup(steps: &mut Vec<PlanStep>, step: NodeId) -> NodeId {
    match set_valued(steps, step) {
        true => step,
        false => {
            let columns = steps[step].columns.clone();
            push(steps, PlanOp::Dedup { source: step }, columns)
        }
    }
}

/// True when the streaming executor never emits one row of `step` twice. A keyed join
/// of distinct rows emits distinct concatenations (the fetched side is deduplicated per
/// key), a π keeps a set where it is injective on its rows — every dropped column is
/// constant or equal to a kept one (see the module docs) — and a ∪ streams both inputs.
fn set_valued(steps: &[PlanStep], step: NodeId) -> bool {
    match &steps[step].op {
        PlanOp::Const { .. } | PlanOp::Unit | PlanOp::Empty { .. } | PlanOp::Dedup { .. } => true,
        PlanOp::KeyedJoin { source, .. } | PlanOp::AppendConst { source, .. } => {
            set_valued(steps, *source)
        }
        PlanOp::Project { source, cols } => {
            set_valued(steps, *source) && determined_by(steps, *source, cols)
        }
        PlanOp::Union { .. } => false,
    }
}

/// Where the values of one column of a step come from, as far as the plan alone tells.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Origin {
    /// A query constant: one value on every row.
    Const,
    /// Column `.1` of step `.0`: columns of one step with the same origin are equal on
    /// every row.
    Col(NodeId, usize),
}

/// The [`Origin`] of column `col` of `step`. Each output row of a step holds exactly one
/// row of every step it reads through sources, so an origin passes through those; the
/// column an append adds is constant, and a union's columns are fresh.
fn origin(steps: &[PlanStep], step: NodeId, col: usize) -> Origin {
    let fresh = Origin::Col(step, col);
    match &steps[step].op {
        PlanOp::Const { .. } => Origin::Const,
        PlanOp::Project { source, cols } => origin(steps, *source, cols[col]),
        PlanOp::Dedup { source } => origin(steps, *source, col),
        PlanOp::KeyedJoin {
            source,
            key_cols,
            positions,
            ..
        } => match col.checked_sub(steps[*source].columns.len()) {
            None => origin(steps, *source, col),
            // A fetched key attribute equals its key column: the key tie.
            Some(c) => match positions[..key_cols.len()]
                .iter()
                .position(|&a| a == positions[c])
            {
                Some(k) => origin(steps, *source, key_cols[k]),
                None => fresh,
            },
        },
        PlanOp::AppendConst { source, .. } if col < steps[*source].columns.len() => {
            origin(steps, *source, col)
        }
        PlanOp::AppendConst { .. } => Origin::Const,
        PlanOp::Unit | PlanOp::Empty { .. } | PlanOp::Union { .. } => fresh,
    }
}

/// True when every column of `step` is one of `kept`, constant, or has the origin of a
/// kept column — so rows of `step` that agree on `kept` agree everywhere.
fn determined_by(steps: &[PlanStep], step: NodeId, kept: &[usize]) -> bool {
    (0..steps[step].columns.len()).all(|c| {
        kept.contains(&c)
            || match origin(steps, step, c) {
                Origin::Const => true,
                dropped => kept.iter().any(|&k| origin(steps, step, k) == dropped),
            }
    })
}

/// The plan of the steps `output` reads, itself included, renumbered in order (so every
/// step still reads earlier ones only).
fn prune(query_name: &str, steps: Vec<PlanStep>, output: NodeId) -> QueryPlan {
    let mut kept = vec![false; steps.len()];
    let mut stack = vec![output];
    while let Some(i) = stack.pop() {
        if !std::mem::replace(&mut kept[i], true) {
            stack.extend(steps[i].op.inputs());
        }
    }
    let mut new: Vec<NodeId> = vec![0; steps.len()];
    let ids = (0..steps.len()).filter(|&old| kept[old]);
    for (id, old) in ids.enumerate() {
        new[old] = id;
    }
    let steps = steps.into_iter().zip(kept).filter(|(_, kept)| *kept);
    let steps = steps.map(|(mut step, _)| {
        step.op.renumber(|j| new[j]);
        step
    });
    QueryPlan {
        query_name: query_name.to_owned(),
        steps: steps.collect(),
        output: new[output],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{PlanBuilder, Predicate};
    use crate::value::Value;

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
        // No product is left: the whole join is one step.
        assert!(phys
            .steps()
            .iter()
            .all(|s| !matches!(s.op, PlanOp::AppendConst { .. })));
        let [lookup] = lookups(&phys)[..] else {
            panic!("one lookup: {phys}");
        };
        let PlanOp::KeyedJoin {
            positions,
            residual,
            ..
        } = &phys.steps()[lookup].op
        else {
            unreachable!();
        };
        // The key tie is the join itself, so no residual predicate is added.
        assert!(residual.is_empty());
        assert_eq!(positions, &[0, 1]);
        let display = phys.to_string();
        assert!(display.contains("T3 = δ(T2) [k]"), "{display}");
        assert!(
            display.contains("fetch(X ∈ π[0](T3), R, X[0] ∪ Y[1])"),
            "{display}"
        );
        // A δ over a set is elided: lowering returns a lowered plan unchanged.
        assert_eq!(lower_plan(&phys).unwrap(), phys);
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
    fn bind(plan: &QueryPlan, values: &[Value]) -> QueryPlan {
        let mut bound = plan.clone();
        for step in &mut bound.steps {
            match &mut step.op {
                PlanOp::Const { value } | PlanOp::AppendConst { value, .. } => {
                    *value = value.bound(values).clone()
                }
                PlanOp::KeyedJoin { residual, .. } => {
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
    fn ops(plan: &QueryPlan) -> Vec<&PlanOp> {
        plan.steps().iter().map(|s| &s.op).collect()
    }

    /// The ids of `plan`'s keyed joins.
    fn lookups(plan: &QueryPlan) -> Vec<NodeId> {
        let steps = plan.steps().iter().enumerate();
        let lookups = steps.filter(|(_, s)| matches!(s.op, PlanOp::KeyedJoin { .. }));
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
        let lookup = PlanOp::KeyedJoin {
            source: 0,
            key_cols: Vec::new(),
            relation: "R".into(),
            positions: vec![1],
            constraint_index: 0,
            residual: Vec::new(),
        };
        assert_eq!(ops(&phys), [&PlanOp::Unit, &lookup]);
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
                PlanOp::Dedup { source: lookup + 1 }
            );
            assert!(!set_valued(phys.steps(), lookup + 1));
            let ops = ops(&phys).into_iter();
            let found = ops.filter(|op| matches!(op, PlanOp::Dedup { .. })).count();
            assert_eq!(found, dedups, "{phys}");
        }
        // A zero-column projection keeps one empty row per matching tuple; the δ makes
        // that one row.
        let phys = lowered(&union, Vec::new());
        assert!(phys.steps()[phys.output()].columns.is_empty());
        assert!(matches!(
            phys.steps()[phys.output()].op,
            PlanOp::Dedup { .. }
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
        assert!(matches!(phys.steps()[0].op, PlanOp::Const { .. }));
        assert_eq!(phys.steps()[phys.output()].columns, vec!["x".to_owned()]);
    }

    /// How many δ steps `plan` lowers to.
    fn dedups(plan: &QueryPlan) -> usize {
        let phys = lower_plan(plan).unwrap();
        let steps = phys.steps().iter();
        steps
            .filter(|s| matches!(s.op, PlanOp::Dedup { .. }))
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
        let union = (0..phys.len())
            .find(|&s| !set_valued(phys.steps(), s))
            .unwrap();
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
        assert_eq!(ops(&unit), [&PlanOp::Unit]);
        assert_eq!(unit.query_name(), "Q");
        let empty = lowered(&|b| b.empty(2));
        assert_eq!(ops(&empty), [&PlanOp::Empty { arity: 2 }]);
        let seed = lowered(&|b| {
            let u = b.unit();
            b.append_const(u, Value::int(1), "x")
        });
        let constant = PlanOp::Const {
            value: Value::int(1),
        };
        assert_eq!(ops(&seed), [&constant]);
        assert_eq!(seed.steps()[0].columns, ["x"]);
        let pair = lowered(&|b| {
            let x = b.constant(Value::int(1), "x");
            b.append_const(x, Value::int(2), "y")
        });
        let append = PlanOp::AppendConst {
            source: 0,
            value: Value::int(2),
        };
        assert_eq!(ops(&pair), [&constant, &append]);
        assert_eq!(pair.steps()[1].columns, ["x", "y"]);
        assert!(set_valued(pair.steps(), 1));
        assert!(pair.to_string().contains("T1 = T0 × {2} (output) [x, y]"));
    }
}
