//! Synthesis of boundedly evaluable plans from coverage witnesses.
//!
//! This is the constructive half of Theorem 3.11: if a CQ `Q` is covered by `A`, a
//! boundedly evaluable plan for `Q` under `A` can be generated by mimicking the coverage
//! fixpoint:
//!
//! 1. an *environment* table over the covered (non-constant) variables is grown by one
//!    `fetch` per application in the coverage trace, seeded from the constants of the
//!    query — this enumerates every candidate binding of the covered variables;
//! 2. each relation atom is then *verified* against its indexing constraint with one more
//!    `fetch` (a semijoin keeping only the environment rows that have a witness tuple);
//! 3. the head variables are projected out (constant head variables are supplied by
//!    `T × {a}` appends).
//!
//! Every fetch is emitted joined back to the table its keys come from, as one
//! [`super::PlanOp::KeyedJoin`] `σ[key ties ∧ residual](T × fetch(X ∈ T, R, Y))`, and
//! every constant a key or the head needs is a [`super::PlanOp::AppendConst`]. Every
//! fetch is keyed by an access constraint, so the amount of data read is bounded by the
//! product of the constraints' cardinalities — independent of `|D|`.

use crate::access::AccessSchema;
use crate::cover::{coverage, ucq_coverage, CoverageReport};
use crate::error::{Error, Result};
use crate::plan::{NodeId, PlanBuilder, Predicate, QueryPlan};
use crate::query::cq::ConjunctiveQuery;
use crate::query::term::Var;
use crate::query::ucq::UnionQuery;
use crate::reason::ReasonConfig;
use crate::value::Value;
use std::collections::HashMap;

/// Build a boundedly evaluable plan for a conjunctive query covered by the access schema.
///
/// Returns an error when the query is not covered; use [`crate::bounded`] first to search
/// for an `A`-equivalent covered rewriting in that case.
pub fn bounded_plan(query: &ConjunctiveQuery, schema: &AccessSchema) -> Result<QueryPlan> {
    let report = coverage(query, schema);
    bounded_plan_for_report(query, schema, &report)
}

/// Build a boundedly evaluable plan from an existing coverage report (avoids recomputing
/// the fixpoint when the caller already has one).
pub fn bounded_plan_for_report(
    query: &ConjunctiveQuery,
    schema: &AccessSchema,
    report: &CoverageReport,
) -> Result<QueryPlan> {
    if !report.is_covered() {
        return Err(Error::MissingConstraint {
            reason: format!(
                "query `{}` is not covered by the access schema: {}",
                query.name(),
                report
                    .violations()
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("; ")
            ),
        });
    }
    let mut builder = PlanBuilder::new();
    let output = build_cq(&mut builder, query, schema, report)?;
    builder.finish(query.name(), output)
}

/// Build a boundedly evaluable plan for a covered union of conjunctive queries: the union
/// of the plans of its covered branches (the subsumed branches contribute no additional
/// answers on databases satisfying `A`, cf. Lemma 3.6).
pub fn bounded_plan_ucq(
    query: &UnionQuery,
    schema: &AccessSchema,
    config: &ReasonConfig,
) -> Result<QueryPlan> {
    let report = ucq_coverage(query, schema, config)?;
    if !report.is_covered() {
        return Err(Error::MissingConstraint {
            reason: format!(
                "union query `{}` is not covered by the access schema",
                query.name()
            ),
        });
    }
    let covered = report.covered_branch_indices();
    let mut builder = PlanBuilder::new();
    let mut nodes: Vec<NodeId> = Vec::new();
    for &i in &covered {
        let branch = &query.branches()[i];
        let branch_report = coverage(branch, schema);
        nodes.push(build_cq(&mut builder, branch, schema, &branch_report)?);
    }
    let output = match nodes.split_first() {
        None => {
            // Every branch is A-unsatisfiable: the union is empty on all D ⊨ A.
            builder.empty(query.arity())
        }
        Some((&first, rest)) => {
            let mut acc = first;
            for &n in rest {
                acc = builder.union(acc, n);
            }
            acc
        }
    };
    builder.finish(query.name(), output)
}

/// Build the plan for one covered CQ inside an existing builder; returns the output node.
fn build_cq(
    builder: &mut PlanBuilder,
    query: &ConjunctiveQuery,
    schema: &AccessSchema,
    report: &CoverageReport,
) -> Result<NodeId> {
    let eq = query.eq_classes();
    if eq.has_contradiction() {
        return Ok(builder.empty(query.arity()));
    }

    let root = |v: Var| eq.root(v);
    let const_of = |r: usize| eq.constant(Var(r as u32)).cloned();
    let label_of = |r: usize| query.var_name(Var(r as u32)).to_owned();

    // The environment table over the covered, non-constant class representatives.
    let mut env: NodeId = builder.unit();
    let mut env_roots: Vec<usize> = Vec::new();

    // Extend a node with `× {c}` columns for the given constant roots and return the
    // node plus the roots of its columns.
    let add_const_columns = |builder: &mut PlanBuilder,
                             node: NodeId,
                             node_roots: &[usize],
                             needed: &[usize]|
     -> Result<(NodeId, Vec<usize>)> {
        let mut node = node;
        let mut roots = node_roots.to_vec();
        for &r in needed {
            if roots.contains(&r) {
                continue;
            }
            let c = const_of(r).ok_or_else(|| {
                Error::invalid(format!(
                    "internal error: variable `{}` is neither in the environment nor constant",
                    label_of(r)
                ))
            })?;
            node = builder.append_const(node, c, label_of(r));
            roots.push(r);
        }
        Ok((node, roots))
    };

    // One keyed join against the environment, shared by the growth and verification
    // phases. `keep_new` controls whether newly fetched (covered, non-constant) roots are
    // appended to the environment (growth) or projected away (verification semijoin).
    #[allow(clippy::too_many_arguments)]
    fn fetch_and_join(
        builder: &mut PlanBuilder,
        query: &ConjunctiveQuery,
        constraint_index: usize,
        atom_index: usize,
        schema: &AccessSchema,
        env: NodeId,
        env_roots: &mut Vec<usize>,
        keep_new: bool,
        root: &impl Fn(Var) -> usize,
        const_of: &impl Fn(usize) -> Option<Value>,
        add_const_columns: &impl Fn(
            &mut PlanBuilder,
            NodeId,
            &[usize],
            &[usize],
        ) -> Result<(NodeId, Vec<usize>)>,
    ) -> Result<NodeId> {
        let constraint = schema.constraint(constraint_index).ok_or_else(|| {
            Error::invalid(format!(
                "coverage trace references missing constraint {constraint_index}"
            ))
        })?;
        let atom = &query.atoms()[atom_index];
        let x_attrs = constraint.x().to_vec();
        let y_attrs = constraint.y().to_vec();
        let x_roots: Vec<usize> = x_attrs.iter().map(|&p| root(atom.args[p])).collect();

        // Source: environment extended with the constant key columns.
        let (src, src_roots) = add_const_columns(builder, env, env_roots, &x_roots)?;
        let key_cols: Vec<usize> = x_roots
            .iter()
            .map(|r| {
                src_roots
                    .iter()
                    .position(|sr| sr == r)
                    .expect("key root must be a source column")
            })
            .collect();

        // The keyed join `σ[key ties ∧ residual](src × fetch(X ∈ src, R, X ∪ Y))`. Its
        // residual ties the positions retrieved by the fetch to constants, to environment
        // columns, or to earlier fetched columns carrying the same variable class.
        let labels: Vec<String> = x_attrs
            .iter()
            .chain(y_attrs.iter())
            .map(|&p| query.var_name(atom.args[p]).to_owned())
            .collect();
        let offset = src_roots.len();
        let mut residual: Vec<Predicate> = Vec::new();
        let mut seen: HashMap<usize, usize> =
            src_roots.iter().enumerate().map(|(i, &r)| (r, i)).collect();
        for (i, &p) in x_attrs.iter().chain(y_attrs.iter()).enumerate() {
            let col = offset + i;
            let r = root(atom.args[p]);
            if let Some(&prev) = seen.get(&r) {
                if i >= x_attrs.len() {
                    // X columns are already tied through the key equalities.
                    residual.push(Predicate::ColEqCol(prev, col));
                }
                continue;
            }
            if let Some(c) = const_of(r) {
                residual.push(Predicate::ColEqConst(col, c));
            }
            seen.insert(r, col);
        }
        let joined = builder.keyed_join(
            src,
            key_cols,
            atom.relation.clone(),
            x_attrs.clone(),
            y_attrs.clone(),
            constraint_index,
            labels,
            residual,
        );

        // Project: keep the environment columns, plus (in the growth phase) the newly
        // covered non-constant roots.
        let mut cols: Vec<usize> = (0..env_roots.len()).collect();
        if keep_new {
            for (i, &p) in x_attrs.iter().chain(y_attrs.iter()).enumerate() {
                let r = root(atom.args[p]);
                if !env_roots.contains(&r) && const_of(r).is_none() {
                    // Only keep covered variables (don't-care existentials never reach the
                    // environment).
                    env_roots.push(r);
                    cols.push(offset + i);
                }
            }
        }
        Ok(builder.project(joined, cols))
    }

    // Phase 1: grow the environment following the coverage trace.
    for app in report.trace() {
        env = fetch_and_join(
            builder,
            query,
            app.constraint_index,
            app.atom_index,
            schema,
            env,
            &mut env_roots,
            true,
            &root,
            &const_of,
            &add_const_columns,
        )?;
    }

    // Phase 2: verify every relation atom against its indexing constraint (semijoin).
    // An atom that was already checked in full by one of its growth fetches — i.e. some
    // trace application on this atom used a constraint whose X ∪ Y spans every
    // non-excluded position — needs no second fetch.
    let bound_vars = query.bound_vars();
    let constant_vars = query.constant_vars();
    let excluded = |v: Var| {
        bound_vars.contains(&v) && !constant_vars.contains(&v) && query.occurrence_count(v) == 1
    };
    for (atom_index, witness) in report.atom_witness().iter().enumerate() {
        let atom = &query.atoms()[atom_index];
        let verified_by_growth = report.trace().iter().any(|app| {
            if app.atom_index != atom_index {
                return false;
            }
            let Some(c) = schema.constraint(app.constraint_index) else {
                return false;
            };
            let xy = c.xy();
            atom.args
                .iter()
                .enumerate()
                .all(|(pos, &v)| excluded(v) || xy.contains(&pos))
        });
        if verified_by_growth {
            continue;
        }
        let constraint_index = witness.ok_or_else(|| {
            Error::invalid("covered query must have an index witness for every atom")
        })?;
        env = fetch_and_join(
            builder,
            query,
            constraint_index,
            atom_index,
            schema,
            env,
            &mut env_roots,
            false,
            &root,
            &const_of,
            &add_const_columns,
        )?;
    }

    // Phase 3: project the head.
    let head_roots: Vec<usize> = query.head().iter().map(|&v| root(v)).collect();
    let const_head_roots: Vec<usize> = head_roots
        .iter()
        .copied()
        .filter(|r| !env_roots.contains(r))
        .collect();
    let (src, src_roots) = add_const_columns(builder, env, &env_roots, &const_head_roots)?;
    let cols: Vec<usize> = head_roots
        .iter()
        .map(|r| {
            src_roots
                .iter()
                .position(|sr| sr == r)
                .expect("head root must be a source column for a covered query")
        })
        .collect();
    Ok(builder.project(src, cols))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessConstraint;
    use crate::plan::PlanOp;
    use crate::query::term::Arg;
    use crate::schema::Catalog;

    fn accidents() -> (Catalog, AccessSchema, ConjunctiveQuery) {
        let mut c = Catalog::new();
        c.declare("Accident", ["aid", "district", "date"]).unwrap();
        c.declare("Casualty", ["cid", "aid", "class", "vid"])
            .unwrap();
        c.declare("Vehicle", ["vid", "driver", "age"]).unwrap();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "Accident", &["date"], &["aid"], 610).unwrap(),
            AccessConstraint::new(&c, "Casualty", &["aid"], &["vid"], 192).unwrap(),
            AccessConstraint::new(&c, "Accident", &["aid"], &["district", "date"], 1).unwrap(),
            AccessConstraint::new(&c, "Vehicle", &["vid"], &["driver", "age"], 1).unwrap(),
        ]);
        let q0 = ConjunctiveQuery::builder("Q0")
            .head(["xa"])
            .atom(
                "Accident",
                [
                    Arg::var("aid"),
                    Arg::val(Value::str("Queen's Park")),
                    Arg::val(Value::str("1/5/2005")),
                ],
            )
            .atom("Casualty", ["cid", "aid", "class", "vid"])
            .atom("Vehicle", ["vid", "dri", "xa"])
            .build(&c)
            .unwrap();
        (c, a, q0)
    }

    #[test]
    fn q0_plan_is_bounded_and_db_independent() {
        let (_, a, q0) = accidents();
        let plan = bounded_plan(&q0, &a).unwrap();
        assert!(plan.validate().is_ok());
        assert!(plan.is_bounded_under(&a));
        assert_eq!(plan.steps()[plan.output()].columns.len(), 1);
        // 4 growth fetches (ψ1, ψ3, ψ2, ψ4); every atom is fully checked during growth,
        // so no verification fetches are needed.
        let cost = plan.cost(&a, 1_000_000);
        assert_eq!(cost.fetch_ops, 4);
        assert!(cost.max_fetched_tuples > 0);
        // The bound is independent of the database size.
        assert_eq!(cost, plan.cost(&a, u64::MAX / 2));
        // The paper's back-of-the-envelope bound is 610 + 610·192·2 = 234_850 tuples; the
        // synthesized plan's static bound lands in the same regime (610 aids, 610
        // Accident lookups, 610·192 casualties, 610·192 vehicle lookups) and is far below
        // the 31 million tuples of the dataset — and completely independent of |D|.
        assert_eq!(cost.max_fetched_tuples, 610 + 610 + 610 * 192 + 610 * 192);
    }

    #[test]
    fn uncovered_query_is_rejected() {
        let (_, _, q0) = accidents();
        let err = bounded_plan(&q0, &AccessSchema::new());
        assert!(matches!(err, Err(Error::MissingConstraint { .. })));
    }

    #[test]
    fn contradictory_query_gets_an_empty_plan() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let a = AccessSchema::new();
        let q = ConjunctiveQuery::builder("Q2p")
            .head(["x"])
            .eq("x", 1i64)
            .eq("x", 2i64)
            .build(&c)
            .unwrap();
        let plan = bounded_plan(&q, &a).unwrap();
        assert!(matches!(
            plan.steps()[plan.output()].op,
            PlanOp::Empty { arity: 1 }
        ));
        assert_eq!(plan.cost(&a, 10).max_output_rows, 0);
    }

    #[test]
    fn constant_only_query_projects_constants() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .eq("x", 42i64)
            .build(&c)
            .unwrap();
        let plan = bounded_plan(&q, &AccessSchema::new()).unwrap();
        assert_eq!(plan.steps()[plan.output()].columns.len(), 1);
        let cost = plan.cost(&AccessSchema::new(), 10);
        assert_eq!(cost.max_output_rows, 1);
        assert_eq!(cost.fetch_ops, 0);
    }

    #[test]
    fn repeated_head_variables_are_projected_twice() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 5).unwrap()
        ]);
        let q = ConjunctiveQuery::builder("Q")
            .head(["y", "y"])
            .atom("R", ["x", "y"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let plan = bounded_plan(&q, &a).unwrap();
        assert_eq!(plan.steps()[plan.output()].columns.len(), 2);
        assert!(plan.is_bounded_under(&a));
    }

    #[test]
    fn ucq_plan_unions_covered_branches_only() {
        let mut c = Catalog::new();
        c.declare("Rp", ["a", "b", "c"]).unwrap();
        let a =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "Rp", &["a"], &["b"], 7).unwrap()
            ]);
        let q1 = ConjunctiveQuery::builder("Q1")
            .head(["y"])
            .atom("Rp", ["x", "y", "z"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let q2 = ConjunctiveQuery::builder("Q2")
            .head(["y"])
            .atom("Rp", ["x", "y", "z"])
            .eq("x", 1i64)
            .eq("z", "y")
            .build(&c)
            .unwrap();
        let union = UnionQuery::from_branches("Q", vec![q1, q2]).unwrap();
        let plan = bounded_plan_ucq(&union, &a, &ReasonConfig::default()).unwrap();
        assert!(plan.is_bounded_under(&a));
        assert_eq!(plan.steps()[plan.output()].columns.len(), 1);
        // Only the covered branch contributes, so there is no union node at all.
        assert!(!plan
            .steps()
            .iter()
            .any(|s| matches!(s.op, PlanOp::Union { .. })));
    }

    #[test]
    fn ucq_plan_with_two_covered_branches_has_a_union() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 3).unwrap()
        ]);
        let mk = |name: &str, k: i64| {
            ConjunctiveQuery::builder(name)
                .head(["y"])
                .atom("R", ["x", "y"])
                .eq("x", k)
                .build(&c)
                .unwrap()
        };
        let union = UnionQuery::from_branches("Q", vec![mk("Q1", 1), mk("Q2", 2)]).unwrap();
        let plan = bounded_plan_ucq(&union, &a, &ReasonConfig::default()).unwrap();
        assert!(plan
            .steps()
            .iter()
            .any(|s| matches!(s.op, PlanOp::Union { .. })));
        assert!(plan.is_bounded_under(&a));
    }

    #[test]
    fn uncovered_union_is_rejected() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let q = ConjunctiveQuery::builder("Q1")
            .head(["y"])
            .atom("R", ["x", "y"])
            .build(&c)
            .unwrap();
        let union = UnionQuery::from_branches("Q", vec![q]).unwrap();
        let err = bounded_plan_ucq(&union, &AccessSchema::new(), &ReasonConfig::default());
        assert!(matches!(err, Err(Error::MissingConstraint { .. })));
    }

    #[test]
    fn q0_plan_display_mentions_all_relations() {
        let (_, a, q0) = accidents();
        let plan = bounded_plan(&q0, &a).unwrap();
        let text = plan.to_string();
        for rel in ["Accident", "Casualty", "Vehicle"] {
            assert!(text.contains(rel), "plan should fetch from {rel}");
        }
    }
}
