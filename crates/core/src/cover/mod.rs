//! Covered queries: the effective syntax for boundedly evaluable queries (Section 3.2).
//!
//! Deciding bounded evaluability exactly is EXPSPACE-complete for CQ (Theorem 3.4), so
//! the paper introduces *covered* queries:
//!
//! * the set `cov(Q, A)` of variables whose values are determined by the query or can be
//!   fetched through the indices of `A` is computed by a PTIME fixpoint (Lemma 3.9) —
//!   [`covered_variables`];
//! * a CQ is *covered by `A`* when its free variables are covered, its non-covered
//!   variables are harmless "don't care" existentials, and every relation atom is indexed
//!   by a constraint of `A` — [`coverage`] / [`CoverageReport`];
//! * every covered CQ is boundedly evaluable, and every boundedly evaluable CQ is
//!   `A`-equivalent to a covered one (Theorem 3.11), which makes coverage an effective
//!   syntax with a PTIME membership test.
//!
//! The extension of coverage to UCQ and ∃FO⁺ (Πᵖ₂-complete, Theorem 3.14) lives in
//! [`ucq`].

pub mod ucq;

pub use ucq::{ucq_coverage, BranchCoverage, UcqCoverageReport};

use crate::access::AccessSchema;
use crate::query::cq::ConjunctiveQuery;
use crate::query::term::Var;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One application of an access constraint during the `cov(Q, A)` fixpoint.
///
/// The trace of applications is a *witness* used by the plan generator
/// ([`crate::plan`]) to synthesize a boundedly evaluable query plan.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CoverApplication {
    /// Index of the applied constraint in the access schema.
    pub constraint_index: usize,
    /// Index of the relation atom the constraint was applied to.
    pub atom_index: usize,
    /// Variables that became covered by this application.
    pub newly_covered: Vec<Var>,
}

/// Why a query fails to be covered.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CoverageViolation {
    /// A free (head) variable is neither covered nor a constant (condition (a)).
    FreeVarNotCovered {
        /// The offending variable.
        var: Var,
        /// Its display name.
        name: String,
    },
    /// A non-covered variable is a constant variable (condition (b)).
    UncoveredConstantVar {
        /// The offending variable.
        var: Var,
        /// Its display name.
        name: String,
    },
    /// A non-covered variable occurs more than once (condition (b)).
    UncoveredVarOccursMultipleTimes {
        /// The offending variable.
        var: Var,
        /// Its display name.
        name: String,
        /// How many times it occurs.
        occurrences: usize,
    },
    /// A relation atom is not indexed by any constraint (condition (c)).
    AtomNotIndexed {
        /// Index of the offending atom.
        atom_index: usize,
        /// The atom's relation name.
        relation: String,
    },
}

impl fmt::Display for CoverageViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoverageViolation::FreeVarNotCovered { name, .. } => {
                write!(f, "free variable `{name}` is not covered by the access schema")
            }
            CoverageViolation::UncoveredConstantVar { name, .. } => {
                write!(f, "constant variable `{name}` is not covered")
            }
            CoverageViolation::UncoveredVarOccursMultipleTimes {
                name, occurrences, ..
            } => write!(
                f,
                "non-covered variable `{name}` occurs {occurrences} times (it participates in a join)"
            ),
            CoverageViolation::AtomNotIndexed {
                atom_index,
                relation,
            } => write!(
                f,
                "relation atom #{atom_index} over `{relation}` is not indexed by any access constraint"
            ),
        }
    }
}

/// The result of the coverage analysis of a conjunctive query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// The covered variable set `cov(Q, A)` (data-independent variables plus the covered
    /// data-dependent ones).
    covered: BTreeSet<Var>,
    constant_vars: BTreeSet<Var>,
    data_dependent: BTreeSet<Var>,
    trace: Vec<CoverApplication>,
    violations: Vec<CoverageViolation>,
    atom_witness: Vec<Option<usize>>,
    free_vars_bounded: bool,
}

impl CoverageReport {
    /// Is the query covered by the access schema (Theorem 3.11's effective syntax)?
    pub fn is_covered(&self) -> bool {
        self.violations.is_empty()
    }

    /// The constant variables of the query.
    pub fn constant_vars(&self) -> &BTreeSet<Var> {
        &self.constant_vars
    }

    /// Variables whose value is *determined*: covered or constant.
    pub fn determined_vars(&self) -> BTreeSet<Var> {
        self.covered.union(&self.constant_vars).copied().collect()
    }

    /// True when a variable is covered or constant.
    pub fn is_determined(&self, v: Var) -> bool {
        self.covered.contains(&v) || self.constant_vars.contains(&v)
    }

    /// The fixpoint application trace (a witness usable for plan generation).
    pub fn trace(&self) -> &[CoverApplication] {
        &self.trace
    }

    /// The coverage violations (empty iff covered).
    pub fn violations(&self) -> &[CoverageViolation] {
        &self.violations
    }

    /// For each relation atom, the index of a constraint witnessing that the atom is
    /// indexed by `A` (condition (c)), if one exists.
    pub fn atom_witness(&self) -> &[Option<usize>] {
        &self.atom_witness
    }

    /// Is the query *bounded* under `A` in the sense of Lemma 4.2(b): are all its free
    /// variables covered? Bounded queries have output sizes independent of the database;
    /// boundedness is necessary for the existence of envelopes (Section 4).
    pub fn is_bounded(&self) -> bool {
        self.free_vars_bounded
    }

    /// The product of the cardinality bounds of the constraints applied in the fixpoint
    /// trace: an upper bound on the number of distinct combinations of covered-variable
    /// values reachable through the indices, for databases of `db_size` tuples.
    ///
    /// When the free variables are covered (the query is *bounded*, Lemma 4.2), this also
    /// bounds `|Q(D)|` — which is how the envelope approximation bounds of Section 4 are
    /// derived.
    pub fn trace_bound(&self, schema: &AccessSchema, db_size: u64) -> u64 {
        let mut bound: u64 = 1;
        for app in &self.trace {
            let n = schema
                .constraint(app.constraint_index)
                .map(|c| c.cardinality().bound(db_size))
                .unwrap_or(u64::MAX)
                .max(1);
            bound = bound.saturating_mul(n);
        }
        bound
    }

    /// An upper bound on the number of distinct tuples a boundedly evaluable plan built
    /// from this coverage witness can fetch, and hence on `|Q(D)|`, for databases of
    /// `db_size` tuples. Returns `None` when the query is not covered.
    pub fn output_bound(&self, schema: &AccessSchema, db_size: u64) -> Option<u64> {
        if !self.is_covered() {
            return None;
        }
        Some(self.trace_bound(schema, db_size))
    }
}

/// Compute the covered-variable set `cov(Q, A)` together with the application trace
/// (Lemma 3.9: the fixpoint is unique and PTIME-computable).
pub fn covered_variables(
    query: &ConjunctiveQuery,
    schema: &AccessSchema,
) -> (BTreeSet<Var>, Vec<CoverApplication>) {
    let data_dependent = query.data_dependent_vars();
    let constant_vars = query.constant_vars();
    let eq_plus = query.eq_plus_classes();

    // cov(Q_di, A) = var(Q_di): data-independent variables are covered outright.
    let mut covered: BTreeSet<Var> = query
        .vars()
        .filter(|v| !data_dependent.contains(v))
        .collect();
    let mut trace: Vec<CoverApplication> = Vec::new();

    // Round-based fixpoint: in each round, applicability is judged against the covered
    // set at the *start* of the round, and every applicable (constraint, atom) pair is
    // applied. This makes cov(Q, A) independent of the order in which constraints are
    // listed (Lemma 3.9) — in particular, a constraint whose Y-variables are also covered
    // by another constraint in the same round still contributes its constant X-variables
    // (cf. Example 3.10, where both ϕ4 and ϕ5 apply in the first round).
    loop {
        let round_start = covered.clone();

        // Collect every (constraint, atom) pair applicable w.r.t. the round-start set:
        // every X-position variable is covered or constant, and some Y-position variable
        // is not yet covered.
        let mut applicable: Vec<(usize, usize)> = Vec::new();
        for (ci, constraint) in schema.constraints().iter().enumerate() {
            for (ai, atom) in query.atoms().iter().enumerate() {
                if atom.relation != constraint.relation() {
                    continue;
                }
                let x_ok = constraint.x().iter().all(|&p| {
                    let v = atom.args[p];
                    round_start.contains(&v) || constant_vars.contains(&v)
                });
                let has_new_y = constraint
                    .y()
                    .iter()
                    .any(|&p| !round_start.contains(&atom.args[p]));
                if x_ok && has_new_y {
                    applicable.push((ci, ai));
                }
            }
        }
        if applicable.is_empty() {
            break;
        }
        // Apply cheaper constraints first: this does not change the fixpoint (all pairs
        // are applied within the round), but it makes the application trace — and hence
        // the synthesized plan — fetch small key sets before large ones, matching the
        // hand-crafted plan of Example 1.1.
        applicable.sort_by_key(|&(ci, ai)| {
            let bound = schema
                .constraint(ci)
                .map(|c| c.cardinality().bound(1 << 20))
                .unwrap_or(u64::MAX);
            (bound, ci, ai)
        });

        let mut changed = false;
        for (ci, ai) in applicable {
            let constraint = &schema.constraints()[ci];
            let atom = &query.atoms()[ai];
            let mut newly = Vec::new();
            // Constant X-variables (and their eq⁺ classes) become covered as well.
            for &p in constraint.x() {
                let x = atom.args[p];
                if constant_vars.contains(&x) && !round_start.contains(&x) {
                    for &m in eq_plus.members(x) {
                        if data_dependent.contains(&m) && covered.insert(m) {
                            newly.push(m);
                        }
                    }
                }
            }
            // All Y-position variables (and their eq⁺ classes) become covered.
            for &p in constraint.y() {
                let y = atom.args[p];
                for &m in eq_plus.members(y) {
                    if data_dependent.contains(&m) && covered.insert(m) {
                        newly.push(m);
                    }
                }
            }
            if !newly.is_empty() {
                newly.sort_unstable();
                trace.push(CoverApplication {
                    constraint_index: ci,
                    atom_index: ai,
                    newly_covered: newly,
                });
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    (covered, trace)
}

/// Full coverage analysis of a conjunctive query (the PTIME membership test of
/// Theorem 3.11(3)).
pub fn coverage(query: &ConjunctiveQuery, schema: &AccessSchema) -> CoverageReport {
    let (covered, trace) = covered_variables(query, schema);
    let constant_vars = query.constant_vars();
    let data_dependent = query.data_dependent_vars();
    let determined = |v: Var| -> bool { covered.contains(&v) || constant_vars.contains(&v) };

    let mut violations = Vec::new();

    // Condition (a): free variables are covered (we also accept constant free variables,
    // whose values are known from the query itself).
    let free_vars = query.free_vars();
    let free_vars_bounded = free_vars.iter().all(|&v| determined(v));
    for &v in &free_vars {
        if !determined(v) {
            violations.push(CoverageViolation::FreeVarNotCovered {
                var: v,
                name: query.var_name(v).to_owned(),
            });
        }
    }

    // Condition (b): non-covered variables are non-constant and occur exactly once.
    for v in query.vars() {
        if covered.contains(&v) || free_vars.contains(&v) {
            continue;
        }
        if constant_vars.contains(&v) {
            violations.push(CoverageViolation::UncoveredConstantVar {
                var: v,
                name: query.var_name(v).to_owned(),
            });
            continue;
        }
        let occurrences = query.occurrence_count(v);
        if occurrences > 1 {
            violations.push(CoverageViolation::UncoveredVarOccursMultipleTimes {
                var: v,
                name: query.var_name(v).to_owned(),
                occurrences,
            });
        }
    }

    // Condition (c): every relation atom is indexed by some constraint.
    let bound_vars = query.bound_vars();
    let mut atom_witness: Vec<Option<usize>> = Vec::with_capacity(query.atoms().len());
    for (ai, atom) in query.atoms().iter().enumerate() {
        let witness = schema.constraints_for(&atom.relation).find(|(_, c)| {
            // (c)(i): the Y1-position variables are determined.
            let x_ok = c.x().iter().all(|&p| determined(atom.args[p]));
            if !x_ok {
                return false;
            }
            // (c)(ii): every position holding a variable that is not an excluded
            // "don't care" existential lies in Y1 ∪ Y2.
            let xy = c.xy();
            atom.args.iter().enumerate().all(|(pos, &v)| {
                let excluded = bound_vars.contains(&v)
                    && !constant_vars.contains(&v)
                    && query.occurrence_count(v) == 1;
                excluded || xy.contains(&pos)
            })
        });
        match witness {
            Some((ci, _)) => atom_witness.push(Some(ci)),
            None => {
                atom_witness.push(None);
                violations.push(CoverageViolation::AtomNotIndexed {
                    atom_index: ai,
                    relation: atom.relation.clone(),
                });
            }
        }
    }

    CoverageReport {
        covered,
        constant_vars,
        data_dependent,
        trace,
        violations,
        atom_witness,
        free_vars_bounded,
    }
}

/// Convenience: is the query covered by the access schema?
pub fn is_covered(query: &ConjunctiveQuery, schema: &AccessSchema) -> bool {
    coverage(query, schema).is_covered()
}

/// Convenience: is the query *bounded* under the access schema (Lemma 4.2(b): all free
/// variables covered), regardless of whether its atoms are indexed?
pub fn is_bounded(query: &ConjunctiveQuery, schema: &AccessSchema) -> bool {
    coverage(query, schema).is_bounded()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessConstraint;
    use crate::query::term::Arg;
    use crate::schema::Catalog;
    use crate::value::Value;

    fn accidents_catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("Accident", ["aid", "district", "date"]).unwrap();
        c.declare("Casualty", ["cid", "aid", "class", "vid"])
            .unwrap();
        c.declare("Vehicle", ["vid", "driver", "age"]).unwrap();
        c
    }

    fn accidents_schema(c: &Catalog) -> AccessSchema {
        AccessSchema::from_constraints([
            AccessConstraint::new(c, "Accident", &["date"], &["aid"], 610).unwrap(),
            AccessConstraint::new(c, "Casualty", &["aid"], &["vid"], 192).unwrap(),
            AccessConstraint::new(c, "Accident", &["aid"], &["district", "date"], 1).unwrap(),
            AccessConstraint::new(c, "Vehicle", &["vid"], &["driver", "age"], 1).unwrap(),
        ])
    }

    fn q0(c: &Catalog) -> ConjunctiveQuery {
        ConjunctiveQuery::builder("Q0")
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
            .build(c)
            .unwrap()
    }

    /// Example 1.1 / Example 3.10: Q0 is covered by ψ1–ψ4.
    #[test]
    fn example_1_1_q0_is_covered() {
        let c = accidents_catalog();
        let a = accidents_schema(&c);
        let q = q0(&c);
        let report = coverage(&q, &a);
        assert!(report.is_covered(), "violations: {:?}", report.violations());
        assert!(report.is_bounded());
        // All three atoms are indexed.
        assert!(report.atom_witness().iter().all(Option::is_some));
        // Non-covered variables are exactly the harmless ones (cid, class, dri is
        // covered via ψ4's Y = {driver, age}).
        let cid = q.var_by_name("cid").unwrap();
        let class = q.var_by_name("class").unwrap();
        assert!(!report.covered.contains(&cid));
        assert!(!report.covered.contains(&class));
        let xa = q.var_by_name("xa").unwrap();
        assert!(report.covered.contains(&xa));
        // The output bound derived from ψ1–ψ4 is 610 · 192 (one application of each of
        // ψ1, ψ3, ψ2, ψ4, two of which are key constraints with N = 1).
        assert_eq!(report.output_bound(&a, 1_000_000), Some(610 * 192));
    }

    #[test]
    fn example_1_1_not_covered_without_constraints() {
        let c = accidents_catalog();
        let q = q0(&c);
        let report = coverage(&q, &AccessSchema::new());
        assert!(!report.is_covered());
        assert!(!report.is_bounded());
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, CoverageViolation::FreeVarNotCovered { .. })));
        assert_eq!(report.output_bound(&AccessSchema::new(), 1), None);
    }

    /// Example 3.1(1): Q1 is not covered by A1 (no constraint indexes the atom).
    #[test]
    fn example_3_1_1_not_covered() {
        let mut c = Catalog::new();
        c.declare("R1", ["a", "b", "e", "f"]).unwrap();
        let a1 = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R1", &["a"], &["b"], 3).unwrap(),
            AccessConstraint::new(&c, "R1", &["e"], &["f"], 3).unwrap(),
        ]);
        // Q1(x, y) = ∃x1,x2 (R1(x1, x, x2, y) ∧ x1 = 1 ∧ x2 = 1)
        let q1 = ConjunctiveQuery::builder("Q1")
            .head(["x", "y"])
            .atom("R1", ["x1", "x", "x2", "y"])
            .eq("x1", 1i64)
            .eq("x2", 1i64)
            .build(&c)
            .unwrap();
        let report = coverage(&q1, &a1);
        assert!(!report.is_covered());
        // x and y are individually retrievable (so the query is bounded), but the atom
        // cannot be checked: no constraint indexes it.
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, CoverageViolation::AtomNotIndexed { .. })));
    }

    /// Example 3.1(3) / Example 3.10: Q3 is covered by A3.
    #[test]
    fn example_3_10_q3_is_covered() {
        let mut c = Catalog::new();
        c.declare("R3", ["a", "b", "c"]).unwrap();
        let a3 = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R3", &[], &["c"], 1).unwrap(),
            AccessConstraint::new(&c, "R3", &["a", "b"], &["c"], 64).unwrap(),
        ]);
        let q3 = ConjunctiveQuery::builder("Q3")
            .head(["x", "y"])
            .atom("R3", ["x1", "x2", "x"])
            .atom("R3", ["z1", "z2", "y"])
            .atom("R3", ["x", "y", "z3"])
            .eq("x1", 1i64)
            .eq("x2", 1i64)
            .build(&c)
            .unwrap();
        let report = coverage(&q3, &a3);
        assert!(report.is_covered(), "violations: {:?}", report.violations());
        // cov(Q3, A3) = {x, y, z3, x1, x2} (Example 3.10).
        let name = |n: &str| q3.var_by_name(n).unwrap();
        for v in ["x", "y", "z3", "x1", "x2"] {
            assert!(report.covered.contains(&name(v)), "{v} should be covered");
        }
        for v in ["z1", "z2"] {
            assert!(
                !report.covered.contains(&name(v)),
                "{v} should stay uncovered"
            );
        }
    }

    /// Example 3.12: Q2 of Example 3.1(2) is *not* covered by A2 (its free variable is
    /// not covered), even though it is boundedly evaluable via A-equivalence.
    #[test]
    fn example_3_12_q2_not_covered() {
        let mut c = Catalog::new();
        c.declare("R2", ["a", "b"]).unwrap();
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
        let report = coverage(&q2, &a2);
        assert!(!report.is_covered());
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, CoverageViolation::FreeVarNotCovered { .. })));

        // Its A2-equivalent rewriting Q2'(x) = (x = 1 ∧ x = 2) *is* covered: the variable
        // is data-independent.
        let q2p = ConjunctiveQuery::builder("Q2p")
            .head(["x"])
            .eq("x", 1i64)
            .eq("x", 2i64)
            .build(&c)
            .unwrap();
        assert!(is_covered(&q2p, &a2));
    }

    /// Example 3.8 ablation: using eq⁺ (rather than eq) when extending the covered set
    /// matters for variables linked through constants.
    #[test]
    fn eq_plus_extension_covers_constant_linked_variables() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("S", ["a", "b"]).unwrap();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 5).unwrap(),
            AccessConstraint::new(&c, "S", &["a"], &["b"], 5).unwrap(),
        ]);
        // Q(w) :- R(k, v), S(k2, w), k = 1, v = 2, k2 = 2.
        // Covering v (= 2) also covers k2 through eq⁺, which then lets S(k2, w) cover w.
        let q = ConjunctiveQuery::builder("Q")
            .head(["w"])
            .atom("R", ["k", "v"])
            .atom("S", ["k2", "w"])
            .eq("k", 1i64)
            .eq("v", 2i64)
            .eq("k2", 2i64)
            .build(&c)
            .unwrap();
        let report = coverage(&q, &a);
        assert!(report.is_covered(), "violations: {:?}", report.violations());
        let w = q.var_by_name("w").unwrap();
        assert!(report.covered.contains(&w));
    }

    #[test]
    fn covered_variables_is_deterministic_and_monotone() {
        let c = accidents_catalog();
        let a = accidents_schema(&c);
        let q = q0(&c);
        let (cov1, _) = covered_variables(&q, &a);
        let (cov2, _) = covered_variables(&q, &a);
        assert_eq!(cov1, cov2);

        // Monotonicity in A: a subschema covers no more variables.
        let smaller = AccessSchema::from_constraints(a.constraints()[..2].to_vec());
        let (cov_small, _) = covered_variables(&q, &smaller);
        assert!(cov_small.is_subset(&cov1));
    }

    #[test]
    fn boolean_query_with_constant_filter_is_not_covered_without_index() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 4).unwrap()
        ]);
        // Q() :- R(x, y), y = 1: the constant filter is on b, but the only index is keyed
        // on a, so the atom is not indexed (we cannot find the matching tuples without a
        // scan).
        let q = ConjunctiveQuery::builder("Q")
            .head(Vec::<Arg>::new())
            .atom("R", ["x", "y"])
            .eq("y", 1i64)
            .build(&c)
            .unwrap();
        let report = coverage(&q, &a);
        assert!(!report.is_covered());
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, CoverageViolation::AtomNotIndexed { .. })));

        // With the index keyed on b instead, the query becomes covered.
        let a2 =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["b"], &["a"], 4).unwrap()
            ]);
        assert!(is_covered(&q, &a2));
    }

    #[test]
    fn join_through_uncovered_variable_is_rejected() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 4).unwrap()
        ]);
        // Q(x) :- R(x, w), R(w, z), x = 1: w occurs twice and is not covered...
        // actually w *is* covered (R(a→b) applied to the first atom). Use the reverse
        // direction to get an uncovered join variable: Q(x) :- R(w, x), R(z, w), x = 1
        // has w uncovered and occurring twice.
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["w", "x"])
            .atom("R", ["z", "w"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let report = coverage(&q, &a);
        assert!(!report.is_covered());
        assert!(report
            .violations()
            .iter()
            .any(|v| matches!(v, CoverageViolation::UncoveredVarOccursMultipleTimes { .. })));
    }

    #[test]
    fn violation_display_strings() {
        let v1 = CoverageViolation::FreeVarNotCovered {
            var: Var(0),
            name: "x".into(),
        };
        assert!(v1.to_string().contains("free variable `x`"));
        let v2 = CoverageViolation::AtomNotIndexed {
            atom_index: 2,
            relation: "R".into(),
        };
        assert!(v2.to_string().contains("#2"));
        let v3 = CoverageViolation::UncoveredVarOccursMultipleTimes {
            var: Var(1),
            name: "w".into(),
            occurrences: 3,
        };
        assert!(v3.to_string().contains("3 times"));
        let v4 = CoverageViolation::UncoveredConstantVar {
            var: Var(2),
            name: "k".into(),
        };
        assert!(v4.to_string().contains("constant variable"));
    }

    #[test]
    fn sublinear_constraints_are_supported_in_output_bound() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let a = AccessSchema::from_constraints([AccessConstraint::from_positions(
            "R",
            vec![0],
            vec![1],
            crate::access::Cardinality::Sublinear(crate::access::SublinearFn::Log2),
        )
        .unwrap()]);
        let q = ConjunctiveQuery::builder("Q")
            .head(["y"])
            .atom("R", ["x", "y"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let report = coverage(&q, &a);
        assert!(report.is_covered());
        // log2(2^20) = 20.
        assert_eq!(report.output_bound(&a, 1 << 20), Some(21));
    }
}
