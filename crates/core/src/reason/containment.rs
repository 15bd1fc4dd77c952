//! Containment and equivalence of conjunctive queries, classically and under an access
//! schema (Lemma 3.3).
//!
//! * Classical containment `Q₁ ⊆ Q₂` is decided with the Chandra–Merlin canonical-instance
//!   test: `Q₁ ⊆ Q₂` iff the frozen head of `Q₁` belongs to `Q₂` evaluated on the frozen
//!   (canonical) instance of `Q₁`.
//! * `A`-containment `Q₁ ⊑_A Q₂` holds iff `Q₁` is not `A`-satisfiable, or the head image
//!   belongs to `Q₂(θ(T_{Q₁}))` for **every** `A`-instance `θ(T_{Q₁})` of `Q₁`
//!   (statement (1) of Lemma 3.3). The `A`-instances are enumerated canonically with the
//!   constants of both queries as the named constants.

use crate::access::AccessSchema;
use crate::error::{Error, Result};
use crate::query::cq::ConjunctiveQuery;
use crate::query::ucq::UnionQuery;
use crate::reason::enumerate::{canonical_instance, query_constants, visit_a_instances};
use crate::reason::instance::eval_cq;
use crate::reason::ReasonConfig;
use crate::value::Value;

/// Classical containment `Q₁ ⊆ Q₂` (no access schema).
pub fn classically_contained(q1: &ConjunctiveQuery, q2: &ConjunctiveQuery) -> Result<bool> {
    if q1.arity() != q2.arity() {
        return Err(Error::invalid(format!(
            "cannot compare containment of `{}` (arity {}) and `{}` (arity {})",
            q1.name(),
            q1.arity(),
            q2.name(),
            q2.arity()
        )));
    }
    match canonical_instance(q1) {
        // A contradictory query is empty on every database, hence contained in anything.
        None => Ok(true),
        Some((frozen, head)) => Ok(eval_cq(q2, &frozen).contains(&head)),
    }
}

/// `A`-containment `Q₁ ⊑_A Q₂`.
pub fn a_contained(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    schema: &AccessSchema,
    config: &ReasonConfig,
) -> Result<bool> {
    if q1.arity() != q2.arity() {
        return Err(Error::invalid(format!(
            "cannot compare A-containment of `{}` (arity {}) and `{}` (arity {})",
            q1.name(),
            q1.arity(),
            q2.name(),
            q2.arity()
        )));
    }
    // Named constants must include the constants of Q2 so that the enumeration
    // distinguishes instances that Q2 can tell apart.
    let extra: Vec<Value> = query_constants(q2).into_iter().collect();
    let mut counterexample = false;
    visit_a_instances(q1, schema, &extra, config, &mut |ai| {
        if !eval_cq(q2, &ai.instance).contains(&ai.head) {
            counterexample = true;
            true
        } else {
            false
        }
    })?;
    Ok(!counterexample)
}

/// `A`-equivalence `Q₁ ≡_A Q₂`.
///
/// A test oracle, public because `tests/paper_examples.rs` checks with it the
/// equivalences the paper states.
pub fn a_equivalent(
    q1: &ConjunctiveQuery,
    q2: &ConjunctiveQuery,
    schema: &AccessSchema,
    config: &ReasonConfig,
) -> Result<bool> {
    Ok(a_contained(q1, q2, schema, config)? && a_contained(q2, q1, schema, config)?)
}

/// `A`-containment of a CQ in a UCQ: `Q ⊑_A Q₁ ∪ … ∪ Qₖ` iff every `A`-instance of `Q`
/// has its head answered by **some** branch. Note (Example 3.5) that this is weaker than
/// requiring containment in a single branch, unlike the classical Sagiv–Yannakakis
/// characterization.
pub fn a_contained_in_union(
    q: &ConjunctiveQuery,
    union: &UnionQuery,
    schema: &AccessSchema,
    config: &ReasonConfig,
) -> Result<bool> {
    if q.arity() != union.arity() {
        return Err(Error::invalid(format!(
            "cannot compare A-containment of `{}` (arity {}) and `{}` (arity {})",
            q.name(),
            q.arity(),
            union.name(),
            union.arity()
        )));
    }
    let mut extra: Vec<Value> = Vec::new();
    for b in union.branches() {
        extra.extend(query_constants(b));
    }
    extra.sort();
    extra.dedup();
    let mut counterexample = false;
    visit_a_instances(q, schema, &extra, config, &mut |ai| {
        let answered = union
            .branches()
            .iter()
            .any(|b| eval_cq(b, &ai.instance).contains(&ai.head));
        if !answered {
            counterexample = true;
            true
        } else {
            false
        }
    })?;
    Ok(!counterexample)
}

/// `A`-containment of two UCQs: every branch of the left query must be `A`-contained in
/// the right query (as a union).
pub fn a_contained_union(
    left: &UnionQuery,
    right: &UnionQuery,
    schema: &AccessSchema,
    config: &ReasonConfig,
) -> Result<bool> {
    for branch in left.branches() {
        if !a_contained_in_union(branch, right, schema, config)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// `A`-equivalence of two UCQs.
///
/// Kept public though only tests call it: it is Section 3.2's `A`-equivalence of
/// unions, the relation Corollary 3.13's rewriting of a UCQ preserves.
pub fn a_equivalent_union(
    left: &UnionQuery,
    right: &UnionQuery,
    schema: &AccessSchema,
    config: &ReasonConfig,
) -> Result<bool> {
    Ok(a_contained_union(left, right, schema, config)?
        && a_contained_union(right, left, schema, config)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessConstraint;
    use crate::schema::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("R1", ["x"]).unwrap();
        c.declare("R3", ["a", "b", "c"]).unwrap();
        c
    }

    #[test]
    fn classical_containment_basic() {
        let c = catalog();
        // Q1(x) :- R(x, y), y = 1   ⊆   Q2(x) :- R(x, y)
        let q1 = ConjunctiveQuery::builder("Q1")
            .head(["x"])
            .atom("R", ["x", "y"])
            .eq("y", 1i64)
            .build(&c)
            .unwrap();
        let q2 = ConjunctiveQuery::builder("Q2")
            .head(["x"])
            .atom("R", ["x", "y"])
            .build(&c)
            .unwrap();
        assert!(classically_contained(&q1, &q2).unwrap());
        assert!(!classically_contained(&q2, &q1).unwrap());
    }

    #[test]
    fn classical_containment_join_vs_single() {
        let c = catalog();
        // Q1(x) :- R(x, y), R(y, z)  ⊆  Q2(x) :- R(x, y)
        let q1 = ConjunctiveQuery::builder("Q1")
            .head(["x"])
            .atom("R", ["x", "y"])
            .atom("R", ["y", "z"])
            .build(&c)
            .unwrap();
        let q2 = ConjunctiveQuery::builder("Q2")
            .head(["x"])
            .atom("R", ["x", "y"])
            .build(&c)
            .unwrap();
        assert!(classically_contained(&q1, &q2).unwrap());
        assert!(!classically_contained(&q2, &q1).unwrap());
    }

    #[test]
    fn contradictory_query_contained_in_everything() {
        let c = catalog();
        let empty = ConjunctiveQuery::builder("E")
            .head(["x"])
            .eq("x", 1i64)
            .eq("x", 2i64)
            .build(&c)
            .unwrap();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .build(&c)
            .unwrap();
        assert!(classically_contained(&empty, &q).unwrap());
        assert!(a_contained(&empty, &q, &AccessSchema::new(), &ReasonConfig::default()).unwrap());
    }

    #[test]
    fn arity_mismatch_is_an_error() {
        let c = catalog();
        let q1 = ConjunctiveQuery::builder("Q1")
            .head(["x"])
            .atom("R", ["x", "y"])
            .build(&c)
            .unwrap();
        let q2 = ConjunctiveQuery::builder("Q2")
            .head(["x", "y"])
            .atom("R", ["x", "y"])
            .build(&c)
            .unwrap();
        assert!(classically_contained(&q1, &q2).is_err());
        assert!(a_contained(&q1, &q2, &AccessSchema::new(), &ReasonConfig::default()).is_err());
    }

    /// Example 3.1(3): under A3, Q3 is A-equivalent to Q3' although they are not
    /// classically equivalent.
    #[test]
    fn example_3_1_3_a_equivalence() {
        use crate::query::term::Arg;

        let c = catalog();
        let a3 = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R3", &[], &["c"], 1).unwrap(),
            AccessConstraint::new(&c, "R3", &["a", "b"], &["c"], 64).unwrap(),
        ]);
        // Q3(x, y) = ∃x1,x2,z1,z2,z3 (R3(x1,x2,x) ∧ R3(z1,z2,y) ∧ R3(x,y,z3) ∧ x1=1 ∧ x2=1)
        let q3 = ConjunctiveQuery::builder("Q3")
            .head(["x", "y"])
            .atom("R3", ["x1", "x2", "x"])
            .atom("R3", ["z1", "z2", "y"])
            .atom("R3", ["x", "y", "z3"])
            .eq("x1", 1i64)
            .eq("x2", 1i64)
            .build(&c)
            .unwrap();
        // Q3'(x, x) = R3(1,1,x) ∧ R3(x,x,x)
        let q3p = ConjunctiveQuery::builder("Q3p")
            .head(["x", "x"])
            .atom(
                "R3",
                [
                    Arg::val(Value::int(1)),
                    Arg::val(Value::int(1)),
                    Arg::var("x"),
                ],
            )
            .atom("R3", ["x", "x", "x"])
            .build(&c)
            .unwrap();

        // Not classically equivalent: Q3 allows x ≠ y, Q3' does not.
        assert!(classically_contained(&q3p, &q3).unwrap());
        assert!(!classically_contained(&q3, &q3p).unwrap());
        // But A3-equivalent (the ∅ → C constraint forces x = y = z3).
        assert!(a_equivalent(&q3, &q3p, &a3, &ReasonConfig::default()).unwrap());
    }

    /// Example 3.5 (first part): Q ⊑_A Q1 ∪ Q2 although Q ⋢_A Q1 and Q ⋢_A Q2, breaking
    /// the classical Sagiv–Yannakakis characterization of union containment.
    #[test]
    fn example_3_5_union_containment() {
        let c = catalog();
        // A: R1(∅ → X, 2) — the unary relation R1 holds at most two distinct values.
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R1", &[], &["x"], 2).unwrap()
        ]);
        // Qψ(x, y) := R(x, y) ∧ R1(y), and Qc asserts that both 0 and 1 appear in R1, so
        // that under A the relation R1 encodes exactly the Boolean domain {0, 1}.
        // Q(x) = ∃y (Qc ∧ Qψ(x, y)).
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R1", ["y1"])
            .atom("R1", ["y2"])
            .atom("R", ["x", "y"])
            .atom("R1", ["y"])
            .eq("y1", 1i64)
            .eq("y2", 0i64)
            .build(&c)
            .unwrap();
        // Q1(x) = ∃y (Qψ(x, y) ∧ y = 1), Q2(x) = ∃y (Qψ(x, y) ∧ y = 0).
        let q1 = ConjunctiveQuery::builder("Q1")
            .head(["x"])
            .atom("R", ["x", "y"])
            .atom("R1", ["y"])
            .eq("y", 1i64)
            .build(&c)
            .unwrap();
        let q2 = ConjunctiveQuery::builder("Q2")
            .head(["x"])
            .atom("R", ["x", "y"])
            .atom("R1", ["y"])
            .eq("y", 0i64)
            .build(&c)
            .unwrap();
        let union = UnionQuery::from_branches("Qp", vec![q1.clone(), q2.clone()]).unwrap();
        let cfg = ReasonConfig::default();

        // Q is contained in the union under A …
        assert!(a_contained_in_union(&q, &union, &a, &cfg).unwrap());
        // … but in neither branch alone (the paper's point).
        assert!(!a_contained(&q, &q1, &a, &cfg).unwrap());
        assert!(!a_contained(&q, &q2, &a, &cfg).unwrap());
        // Without the access schema even the union containment fails (y may take a value
        // outside {0, 1}), showing that the containment genuinely uses A.
        let empty = AccessSchema::new();
        assert!(!a_contained_in_union(&q, &union, &empty, &cfg).unwrap());
    }

    #[test]
    fn union_containment_both_directions() {
        let c = catalog();
        let q1 = ConjunctiveQuery::builder("Q1")
            .head(["x"])
            .atom("R", ["x", "y"])
            .eq("y", 1i64)
            .build(&c)
            .unwrap();
        let q2 = ConjunctiveQuery::builder("Q2")
            .head(["x"])
            .atom("R", ["x", "y"])
            .build(&c)
            .unwrap();
        let small = UnionQuery::from_branches("S", vec![q1.clone()]).unwrap();
        let big = UnionQuery::from_branches("B", vec![q1, q2]).unwrap();
        let cfg = ReasonConfig::default();
        let empty = AccessSchema::new();
        assert!(a_contained_union(&small, &big, &empty, &cfg).unwrap());
        assert!(!a_contained_union(&big, &small, &empty, &cfg).unwrap());
        assert!(!a_equivalent_union(&big, &small, &empty, &cfg).unwrap());
        assert!(a_equivalent_union(&big, &big, &empty, &cfg).unwrap());
    }
}
