//! The bounded evaluability analysis (BEP, Section 3).
//!
//! Deciding whether a CQ is boundedly evaluable under an access schema is
//! EXPSPACE-complete (Theorem 3.4), so this module implements the practical, *sound*
//! analysis the paper recommends:
//!
//! 1. check whether the query is **covered** (PTIME, Theorem 3.11) — if so it is
//!    boundedly evaluable and [`crate::plan`] can synthesize a plan;
//! 2. otherwise search for an **`A`-equivalent covered rewriting** by applying
//!    equivalence-preserving rewrites: unification of variables forced equal by
//!    unit-cardinality constraints, and removal of redundant atoms (classically redundant
//!    via the Homomorphism Theorem, or `A`-redundant via the containment test of
//!    Lemma 3.3) — this captures the reasoning of Example 3.1(3);
//! 3. otherwise check **`A`-satisfiability** (Lemma 3.2): an `A`-unsatisfiable query has
//!    an empty answer on every `D ⊨ A` and is therefore trivially boundedly evaluable
//!    (Example 3.1(2));
//! 4. otherwise report [`BoundedVerdict::Unknown`] — the analysis is sound but, by
//!    necessity, incomplete.

use crate::access::AccessSchema;
use crate::cover::{coverage, ucq_coverage, CoverageReport, UcqCoverageReport};
use crate::error::Result;
use crate::plan::{bounded_plan_for_report, QueryPlan};
use crate::query::cq::ConjunctiveQuery;
use crate::query::term::Var;
use crate::query::ucq::UnionQuery;
use crate::reason::containment::{a_contained, classically_contained};
use crate::reason::satisfiability::is_a_satisfiable;
use crate::reason::ReasonConfig;
use std::collections::{BTreeMap, BTreeSet};

/// A single `A`-equivalence-preserving rewrite step applied during the analysis.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RewriteStep {
    /// Variables forced equal by a unit-cardinality constraint were unified.
    UnifiedVariables {
        /// The display name of the variable kept as the representative.
        kept: String,
        /// The display names of the variables replaced by the representative.
        merged: Vec<String>,
        /// The unit-cardinality constraint that forces the equality.
        constraint_index: usize,
    },
    /// A redundant relation atom was removed (classically redundant).
    RemovedRedundantAtom {
        /// The relation of the removed atom.
        relation: String,
    },
    /// A relation atom was removed because the remainder is `A`-contained in the original
    /// query (hence `A`-equivalent to it).
    RemovedARedundantAtom {
        /// The relation of the removed atom.
        relation: String,
    },
}

/// The outcome of the bounded evaluability analysis for a conjunctive query.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundedVerdict {
    /// The query itself is covered by the access schema.
    Covered(CoverageReport),
    /// The query is `A`-equivalent to the given covered query.
    EquivalentCovered {
        /// The covered rewriting (evaluating it answers the original query on every
        /// database satisfying the access schema).
        rewritten: ConjunctiveQuery,
        /// The coverage report of the rewriting.
        report: CoverageReport,
        /// The rewrite steps that produced it.
        steps: Vec<RewriteStep>,
    },
    /// The query is not `A`-satisfiable: its answer is empty on every `D ⊨ A`, so an
    /// empty plan answers it.
    Unsatisfiable,
    /// The analysis could not establish bounded evaluability (the query may or may not be
    /// boundedly evaluable; deciding exactly is EXPSPACE-complete).
    Unknown {
        /// The coverage report of the (rewritten) query, for diagnostics.
        report: CoverageReport,
    },
}

impl BoundedVerdict {
    /// Did the analysis establish bounded evaluability?
    pub fn is_bounded(&self) -> bool {
        !matches!(self, BoundedVerdict::Unknown { .. })
    }

    /// The coverage report carried by the verdict, if any.
    pub fn report(&self) -> Option<&CoverageReport> {
        match self {
            BoundedVerdict::Covered(r)
            | BoundedVerdict::EquivalentCovered { report: r, .. }
            | BoundedVerdict::Unknown { report: r } => Some(r),
            BoundedVerdict::Unsatisfiable => None,
        }
    }
}

/// Configuration of the bounded evaluability analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundedConfig {
    /// Configuration of the enumeration-based reasoning sub-procedures.
    pub reason: ReasonConfig,
    /// Whether to attempt `A`-redundant atom removal (uses the Πᵖ₂ containment test; more
    /// powerful but exponentially more expensive than classical redundancy).
    pub use_a_equivalence_removal: bool,
}

impl Default for BoundedConfig {
    fn default() -> Self {
        Self {
            reason: ReasonConfig::default(),
            use_a_equivalence_removal: true,
        }
    }
}

/// The outcome of the bounded evaluability analysis for a union of conjunctive queries.
#[derive(Debug, Clone, PartialEq)]
pub struct UcqBoundedVerdict {
    /// Per-branch verdicts (in branch order).
    pub branch_verdicts: Vec<BoundedVerdict>,
    /// The union with every branch replaced by its covered rewriting when one was found.
    pub rewritten: UnionQuery,
    /// The UCQ coverage report of the rewritten union (Lemma 3.6).
    pub coverage: UcqCoverageReport,
}

impl UcqBoundedVerdict {
    /// Did the analysis establish bounded evaluability of the union?
    pub fn is_bounded(&self) -> bool {
        self.coverage.is_covered()
            || self
                .branch_verdicts
                .iter()
                .all(|v| matches!(v, BoundedVerdict::Unsatisfiable))
    }
}

/// Analyse the bounded evaluability of a conjunctive query under an access schema.
pub fn analyze_cq(
    query: &ConjunctiveQuery,
    schema: &AccessSchema,
    config: &BoundedConfig,
) -> Result<BoundedVerdict> {
    let report = coverage(query, schema);
    if report.is_covered() {
        return Ok(BoundedVerdict::Covered(report));
    }

    // Search for an A-equivalent covered rewriting.
    let mut current = query.clone();
    let mut steps: Vec<RewriteStep> = Vec::new();
    loop {
        let mut changed = false;

        // Rewrite 1: unify variables forced equal by unit-cardinality constraints.
        if let Some((rewritten, step)) = unify_by_unit_constraints(&current, schema)? {
            current = rewritten;
            steps.push(step);
            changed = true;
        }

        // Rewrite 2: drop classically redundant atoms (Homomorphism Theorem).
        if let Some((rewritten, step)) = remove_redundant_atom(&current, false, schema, config)? {
            current = rewritten;
            steps.push(step);
            changed = true;
        }

        let rewritten_report = coverage(&current, schema);
        if rewritten_report.is_covered() {
            return Ok(BoundedVerdict::EquivalentCovered {
                rewritten: current,
                report: rewritten_report,
                steps,
            });
        }
        if changed {
            continue;
        }

        // Rewrite 3 (optional, more expensive): drop A-redundant atoms.
        if config.use_a_equivalence_removal {
            if let Some((rewritten, step)) = remove_redundant_atom(&current, true, schema, config)?
            {
                current = rewritten;
                steps.push(step);
                let rewritten_report = coverage(&current, schema);
                if rewritten_report.is_covered() {
                    return Ok(BoundedVerdict::EquivalentCovered {
                        rewritten: current,
                        report: rewritten_report,
                        steps,
                    });
                }
                continue;
            }
        }
        break;
    }

    // Unsatisfiability shortcut (Example 3.1(2)).
    if is_a_satisfiable(&current, schema, &config.reason)?.is_none() {
        return Ok(BoundedVerdict::Unsatisfiable);
    }

    Ok(BoundedVerdict::Unknown {
        report: coverage(&current, schema),
    })
}

/// Analyse the bounded evaluability of a union of conjunctive queries: each branch is
/// analysed (and possibly rewritten) individually, then the rewritten union is checked
/// for coverage (Lemma 3.6 / Corollary 3.13).
///
/// Kept public though only tests call it: it is Table 1's BEP / CQP row for UCQ, the
/// paper's procedure for unions (the daemon plans through `bounded_plan_ucq`).
pub fn analyze_ucq(
    query: &UnionQuery,
    schema: &AccessSchema,
    config: &BoundedConfig,
) -> Result<UcqBoundedVerdict> {
    let mut branch_verdicts = Vec::with_capacity(query.len());
    let mut rewritten_branches = Vec::with_capacity(query.len());
    for branch in query.branches() {
        let verdict = analyze_cq(branch, schema, config)?;
        let rewritten = match &verdict {
            BoundedVerdict::EquivalentCovered { rewritten, .. } => rewritten.clone(),
            _ => branch.clone(),
        };
        branch_verdicts.push(verdict);
        rewritten_branches.push(rewritten);
    }
    let rewritten = UnionQuery::from_branches(query.name(), rewritten_branches)?;
    let coverage = ucq_coverage(&rewritten, schema, &config.reason)?;
    Ok(UcqBoundedVerdict {
        branch_verdicts,
        rewritten,
        coverage,
    })
}

/// Convenience: analyse a CQ and, when it is boundedly evaluable, synthesize a boundedly
/// evaluable plan for it (an empty plan for `A`-unsatisfiable queries; the rewriting's
/// plan for `A`-equivalent rewritings — it answers the original query on every `D ⊨ A`).
///
/// Kept public though only tests call it: it is Table 1's BEP row for CQ carried through
/// to a plan (Theorem 3.11), and `tests/end_to_end.rs` and
/// `crates/bench/tests/lowering_census.rs` run every plan it returns.
pub fn bounded_plan_via_analysis(
    query: &ConjunctiveQuery,
    schema: &AccessSchema,
    config: &BoundedConfig,
) -> Result<Option<QueryPlan>> {
    match analyze_cq(query, schema, config)? {
        BoundedVerdict::Covered(report) => {
            Ok(Some(bounded_plan_for_report(query, schema, &report)?))
        }
        BoundedVerdict::EquivalentCovered {
            rewritten, report, ..
        } => Ok(Some(bounded_plan_for_report(&rewritten, schema, &report)?)),
        BoundedVerdict::Unsatisfiable => {
            let mut builder = crate::plan::PlanBuilder::new();
            let out = builder.empty(query.arity());
            Ok(Some(builder.finish(query.name(), out)?))
        }
        BoundedVerdict::Unknown { .. } => Ok(None),
    }
}

/// Find one unification step implied by a unit-cardinality constraint: two atoms over the
/// same relation whose `X`-position arguments are pairwise forced equal must agree on
/// their `Y`-position arguments when `R(X → Y, 1)` holds.
fn unify_by_unit_constraints(
    query: &ConjunctiveQuery,
    schema: &AccessSchema,
) -> Result<Option<(ConjunctiveQuery, RewriteStep)>> {
    let eq_plus = query.eq_plus_classes();
    for (ci, constraint) in schema.constraints().iter().enumerate() {
        if !constraint.cardinality().is_unit() {
            continue;
        }
        let atoms: Vec<&crate::query::cq::Atom> = query
            .atoms()
            .iter()
            .filter(|a| a.relation == constraint.relation())
            .collect();
        for (i, a1) in atoms.iter().enumerate() {
            for a2 in atoms.iter().skip(i + 1) {
                // X-position arguments pairwise equal (same eq⁺ class)?
                let keys_equal = constraint
                    .x()
                    .iter()
                    .all(|&p| eq_plus.same(a1.args[p], a2.args[p]));
                if !keys_equal {
                    continue;
                }
                // Unify differing Y-position arguments.
                let mut replacement: BTreeMap<Var, Var> = BTreeMap::new();
                let mut merged_names: Vec<String> = Vec::new();
                let mut kept_name = String::new();
                for &p in constraint.y() {
                    let (u, v) = (a1.args[p], a2.args[p]);
                    if u != v && !eq_plus.same(u, v) {
                        let (keep, merge) = if u < v { (u, v) } else { (v, u) };
                        replacement.insert(merge, keep);
                        kept_name = query.var_name(keep).to_owned();
                        merged_names.push(query.var_name(merge).to_owned());
                    }
                }
                if replacement.is_empty() {
                    continue;
                }
                let rewritten = query.merge_vars(&replacement)?;
                return Ok(Some((
                    rewritten,
                    RewriteStep::UnifiedVariables {
                        kept: kept_name,
                        merged: merged_names,
                        constraint_index: ci,
                    },
                )));
            }
        }
    }
    Ok(None)
}

/// Find one redundant atom whose removal preserves (`A`-)equivalence.
fn remove_redundant_atom(
    query: &ConjunctiveQuery,
    use_a_containment: bool,
    schema: &AccessSchema,
    config: &BoundedConfig,
) -> Result<Option<(ConjunctiveQuery, RewriteStep)>> {
    if query.atoms().len() <= 1 {
        return Ok(None);
    }
    for i in 0..query.atoms().len() {
        let Ok(without) = query.without_atoms(&BTreeSet::from([i])) else {
            continue;
        };
        let redundant = if use_a_containment {
            a_contained(&without, query, schema, &config.reason)?
        } else {
            classically_contained(&without, query)?
        };
        if redundant {
            let relation = query.atoms()[i].relation.clone();
            let step = if use_a_containment {
                RewriteStep::RemovedARedundantAtom { relation }
            } else {
                RewriteStep::RemovedRedundantAtom { relation }
            };
            return Ok(Some((without, step)));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessConstraint;
    use crate::plan::PlanOp;
    use crate::query::term::Arg;
    use crate::schema::Catalog;
    use crate::value::Value;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("R2", ["a", "b"]).unwrap();
        c.declare("R3", ["a", "b", "c"]).unwrap();
        c
    }

    #[test]
    fn covered_query_is_reported_as_covered() {
        let c = catalog();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 4).unwrap()
        ]);
        let q = ConjunctiveQuery::builder("Q")
            .head(["y"])
            .atom("R", ["x", "y"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let verdict = analyze_cq(&q, &a, &BoundedConfig::default()).unwrap();
        assert!(matches!(verdict, BoundedVerdict::Covered(_)));
        assert!(verdict.is_bounded());
        assert!(verdict.report().is_some());
        assert!(bounded_plan_via_analysis(&q, &a, &BoundedConfig::default())
            .unwrap()
            .is_some());
    }

    /// Removing a redundant (and unindexed) atom yields a covered A-equivalent query —
    /// the reasoning of step (b) in Example 3.1(3).
    #[test]
    fn redundant_atom_removal_establishes_bounded_evaluability() {
        let c = catalog();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 4).unwrap()
        ]);
        // Q(y) :- R(x, y), R(z, y), x = 1: the second atom is not indexed (z is not
        // determined), but it is classically redundant (map z ↦ x).
        let q = ConjunctiveQuery::builder("Q")
            .head(["y"])
            .atom("R", ["x", "y"])
            .atom("R", ["z", "y"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        assert!(!crate::cover::is_covered(&q, &a));

        let verdict = analyze_cq(&q, &a, &BoundedConfig::default()).unwrap();
        match &verdict {
            BoundedVerdict::EquivalentCovered {
                rewritten, steps, ..
            } => {
                assert_eq!(rewritten.atoms().len(), 1);
                assert!(steps
                    .iter()
                    .any(|s| matches!(s, RewriteStep::RemovedRedundantAtom { .. })));
            }
            other => panic!("expected EquivalentCovered, got {other:?}"),
        }
        let plan = bounded_plan_via_analysis(&q, &a, &BoundedConfig::default())
            .unwrap()
            .expect("a plan must exist");
        assert!(plan.is_bounded_under(&a));
    }

    /// Example 3.1(2): Q2 is boundedly evaluable under A2 because it is A2-unsatisfiable.
    #[test]
    fn example_3_1_2_unsatisfiable_is_bounded() {
        let c = catalog();
        let a2 =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R2", &["a"], &["b"], 1).unwrap()
            ]);
        let q2 = ConjunctiveQuery::builder("Q2")
            .head(["x"])
            .atom("R2", ["x", "x1"])
            .atom("R2", ["x", "x2"])
            .eq("x1", 1i64)
            .eq("x2", 2i64)
            .build(&c)
            .unwrap();
        let verdict = analyze_cq(&q2, &a2, &BoundedConfig::default()).unwrap();
        assert_eq!(verdict, BoundedVerdict::Unsatisfiable);
        assert!(verdict.is_bounded());
        assert!(verdict.report().is_none());
        // The synthesized plan is the empty plan.
        let plan = bounded_plan_via_analysis(&q2, &a2, &BoundedConfig::default())
            .unwrap()
            .unwrap();
        assert!(matches!(
            plan.steps()[plan.output()].op,
            PlanOp::Empty { arity: 1 }
        ));
    }

    /// Example 3.1(1): Q1 is not boundedly evaluable under A1 and the analysis reports
    /// Unknown (it is genuinely not boundedly evaluable; our analysis is sound, so it
    /// never claims boundedness here).
    #[test]
    fn example_3_1_1_reports_unknown() {
        let mut c = Catalog::new();
        c.declare("R1", ["a", "b", "e", "f"]).unwrap();
        let a1 = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R1", &["a"], &["b"], 3).unwrap(),
            AccessConstraint::new(&c, "R1", &["e"], &["f"], 3).unwrap(),
        ]);
        let q1 = ConjunctiveQuery::builder("Q1")
            .head(["x", "y"])
            .atom("R1", ["x1", "x", "x2", "y"])
            .eq("x1", 1i64)
            .eq("x2", 1i64)
            .build(&c)
            .unwrap();
        let verdict = analyze_cq(&q1, &a1, &BoundedConfig::default()).unwrap();
        assert!(matches!(verdict, BoundedVerdict::Unknown { .. }));
        assert!(!verdict.is_bounded());
        assert!(
            bounded_plan_via_analysis(&q1, &a1, &BoundedConfig::default())
                .unwrap()
                .is_none()
        );
    }

    /// Unification through a unit-cardinality constraint: under R3(∅ → c, 1) the
    /// c-position variables of all R3 atoms are forced equal (the reasoning of step (a)
    /// in Example 3.1(3)).
    #[test]
    fn unit_constraint_unification() {
        let c = catalog();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R3", &[], &["c"], 1).unwrap(),
            AccessConstraint::new(&c, "R3", &["a", "b"], &["c"], 64).unwrap(),
        ]);
        let q = ConjunctiveQuery::builder("Q")
            .head(["x", "y"])
            .atom("R3", ["x1", "x2", "x"])
            .atom("R3", ["z1", "z2", "y"])
            .atom("R3", ["x", "y", "z3"])
            .eq("x1", 1i64)
            .eq("x2", 1i64)
            .build(&c)
            .unwrap();
        let (rewritten, step) = unify_by_unit_constraints(&q, &a).unwrap().unwrap();
        assert!(matches!(step, RewriteStep::UnifiedVariables { .. }));
        // The rewriting is A-equivalent to the original (the unified variables were
        // forced equal by the ∅ → c constraint anyway).
        assert!(crate::reason::containment::a_equivalent(
            &q,
            &rewritten,
            &a,
            &ReasonConfig::default()
        )
        .unwrap());
    }

    #[test]
    fn ucq_analysis_combines_branch_verdicts() {
        let c = catalog();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 4).unwrap()
        ]);
        // Branch 1 covered; branch 2 equivalent-covered after removing a redundant atom.
        let b1 = ConjunctiveQuery::builder("Q1")
            .head(["y"])
            .atom("R", ["x", "y"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let b2 = ConjunctiveQuery::builder("Q2")
            .head(["y"])
            .atom("R", ["x", "y"])
            .atom("R", ["z", "y"])
            .eq("x", 2i64)
            .build(&c)
            .unwrap();
        let union = UnionQuery::from_branches("Q", vec![b1, b2]).unwrap();
        let verdict = analyze_ucq(&union, &a, &BoundedConfig::default()).unwrap();
        assert!(verdict.is_bounded());
        assert!(matches!(
            verdict.branch_verdicts[0],
            BoundedVerdict::Covered(_)
        ));
        assert!(matches!(
            verdict.branch_verdicts[1],
            BoundedVerdict::EquivalentCovered { .. }
        ));
        assert!(verdict.coverage.is_covered());
        assert_eq!(verdict.rewritten.branches()[1].atoms().len(), 1);
    }

    #[test]
    fn ucq_with_unbounded_branch_is_not_bounded() {
        let c = catalog();
        let b1 = ConjunctiveQuery::builder("Q1")
            .head(["y"])
            .atom("R", ["x", "y"])
            .build(&c)
            .unwrap();
        let union = UnionQuery::from_branches("Q", vec![b1]).unwrap();
        let verdict = analyze_ucq(&union, &AccessSchema::new(), &BoundedConfig::default()).unwrap();
        assert!(!verdict.is_bounded());
    }

    #[test]
    fn data_independent_query_is_covered_even_with_empty_schema() {
        let c = catalog();
        // Q(x) :- x = 1 ∧ x = 2 is classically empty; the coverage test accepts it (its
        // variable is data-independent), so the verdict is Covered with an empty answer.
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .eq("x", 1i64)
            .eq("x", 2i64)
            .build(&c)
            .unwrap();
        let verdict = analyze_cq(&q, &AccessSchema::new(), &BoundedConfig::default()).unwrap();
        assert!(verdict.is_bounded());
    }

    #[test]
    fn a_redundancy_removal_can_be_disabled() {
        let c = catalog();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 4).unwrap()
        ]);
        let q = ConjunctiveQuery::builder("Q")
            .head(["y"])
            .atom("R", ["x", "y"])
            .atom("R", ["z", "y"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let config = BoundedConfig {
            use_a_equivalence_removal: false,
            ..BoundedConfig::default()
        };
        // Classical redundancy already handles this query, so the verdict is unchanged.
        let verdict = analyze_cq(&q, &a, &config).unwrap();
        assert!(verdict.is_bounded());
    }

    #[test]
    fn q0_from_the_introduction_is_bounded() {
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
        let verdict = analyze_cq(&q0, &a, &BoundedConfig::default()).unwrap();
        assert!(matches!(verdict, BoundedVerdict::Covered(_)));
        // Without ψ1 the Accident atom can no longer be reached from a constant, and the
        // analysis no longer claims bounded evaluability.
        let a_without_psi1 = AccessSchema::from_constraints(a.constraints()[1..].to_vec());
        let verdict = analyze_cq(&q0, &a_without_psi1, &BoundedConfig::default()).unwrap();
        assert!(!verdict.is_bounded());
    }
}
