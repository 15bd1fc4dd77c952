//! Canonical enumeration of the `A`-instances of a conjunctive query.
//!
//! An *`A`-instance* of a CQ `Q` (Lemma 3.2/3.3) is an instance `θ(T_Q)` obtained by
//! applying a valuation `θ` to the tableau of `Q` such that `θ(T_Q) ⊨ A`. Two valuations
//! that identify the same variables with each other and with the same named constants
//! yield isomorphic instances, so it suffices to enumerate valuations canonically:
//!
//! * every equality class that carries a constant is fixed to that constant;
//! * every other class is mapped to a named constant (a constant of the query or one of
//!   the caller-supplied `extra_constants`), to a previously introduced labelled null, or
//!   to a fresh labelled null.
//!
//! This yields finitely many candidates — exponentially many in the number of classes,
//! which matches the Πᵖ₂ / NP lower bounds of the paper. The enumeration is budgeted.

use crate::access::AccessSchema;
use crate::error::{Error, Result};
use crate::query::cq::{ConjunctiveQuery, Equality};
use crate::reason::instance::SmallInstance;
use crate::reason::ReasonConfig;
use crate::value::{Row, Value};
use std::collections::BTreeSet;

/// One `A`-instance of a query: the instance, the image of the head under the valuation,
/// and the full per-variable assignment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AInstance {
    /// The instance `θ(T_Q)`.
    pub instance: SmallInstance,
    /// The head image `θ(u)`.
    pub head: Row,
    /// The value assigned to each variable of the query (indexed by variable index).
    pub assignment: Vec<Value>,
}

/// The constants mentioned by a query (through its `x = c` equality atoms).
pub fn query_constants(query: &ConjunctiveQuery) -> BTreeSet<Value> {
    query
        .equalities()
        .iter()
        .filter_map(|e| match e {
            Equality::Const(_, c) => Some(c.clone()),
            Equality::Vars(_, _) => None,
        })
        .collect()
}

/// Visit every canonical valuation of `query` whose induced instance satisfies `schema`.
///
/// The visitor receives each [`AInstance`]; returning `true` stops the enumeration early
/// (used by satisfiability and containment checks). Returns `Ok(true)` when the visitor
/// stopped the enumeration, `Ok(false)` when the enumeration ran to completion.
pub fn visit_a_instances(
    query: &ConjunctiveQuery,
    schema: &AccessSchema,
    extra_constants: &[Value],
    config: &ReasonConfig,
    visitor: &mut dyn FnMut(&AInstance) -> bool,
) -> Result<bool> {
    let eq = query.eq_classes();
    if eq.has_contradiction() {
        // No valuation is well defined on a contradictory class: no A-instances.
        return Ok(false);
    }

    // The classes, in a stable order; each is represented by its root variable index.
    let mut roots: Vec<usize> = query.vars().map(|v| eq.root(v)).collect();
    roots.sort_unstable();
    roots.dedup();

    // Named constants available to the valuation.
    let mut named: BTreeSet<Value> = query_constants(query);
    named.extend(extra_constants.iter().cloned());
    let named: Vec<Value> = named.into_iter().collect();

    // Per-class choice: the forced constant, or named constants + labelled nulls.
    struct Search<'a> {
        query: &'a ConjunctiveQuery,
        schema: &'a AccessSchema,
        config: &'a ReasonConfig,
        roots: &'a [usize],
        named: &'a [Value],
        eq: &'a crate::query::cq::EqClasses,
        choice: Vec<Value>,
        examined: u64,
    }

    impl Search<'_> {
        fn run(
            &mut self,
            depth: usize,
            visitor: &mut dyn FnMut(&AInstance) -> bool,
        ) -> Result<bool> {
            if depth == self.roots.len() {
                self.examined += 1;
                if self.examined > self.config.budget {
                    return Err(Error::BudgetExhausted {
                        analysis: "A-instance enumeration".into(),
                        budget: self.config.budget,
                    });
                }
                return Ok(self.emit(visitor));
            }
            let root = self.roots[depth];
            if let Some(c) = self.eq.constant(crate::query::term::Var(root as u32)) {
                self.choice.push(c.clone());
                let stop = self.run(depth + 1, visitor)?;
                self.choice.pop();
                return Ok(stop);
            }
            // Named constants.
            for c in self.named {
                self.choice.push(c.clone());
                let stop = self.run(depth + 1, visitor)?;
                self.choice.pop();
                if stop {
                    return Ok(true);
                }
            }
            // Previously used labelled nulls, plus one fresh null (canonical form). A
            // labelled null among the named constants is a template's placeholder
            // ([`Value::placeholder`]), not a null this search introduced.
            let used: u32 = self
                .choice
                .iter()
                .filter_map(|v| match v {
                    Value::Labelled(i) if self.named.binary_search(v).is_err() => Some(*i + 1),
                    _ => None,
                })
                .max()
                .unwrap_or(0);
            for i in 0..=used {
                self.choice.push(Value::Labelled(i));
                let stop = self.run(depth + 1, visitor)?;
                self.choice.pop();
                if stop {
                    return Ok(true);
                }
            }
            Ok(false)
        }

        /// Build the instance for the current complete choice and hand it to the visitor
        /// if it satisfies the access schema.
        fn emit(&self, visitor: &mut dyn FnMut(&AInstance) -> bool) -> bool {
            let value_of = |v: crate::query::term::Var| -> Value {
                let root = self.eq.root(v);
                let idx = self
                    .roots
                    .binary_search(&root)
                    .expect("root must be listed");
                self.choice[idx].clone()
            };
            let mut instance = SmallInstance::new();
            for atom in self.query.atoms() {
                let row: Row = atom.args.iter().map(|&v| value_of(v)).collect();
                instance.insert(atom.relation.clone(), row);
            }
            if !instance.satisfies(self.schema, self.config.assumed_db_size) {
                return false;
            }
            let head: Row = self.query.head().iter().map(|&v| value_of(v)).collect();
            let assignment: Vec<Value> = self.query.vars().map(value_of).collect();
            visitor(&AInstance {
                instance,
                head,
                assignment,
            })
        }
    }

    let mut search = Search {
        query,
        schema,
        config,
        roots: &roots,
        named: &named,
        eq: &eq,
        choice: Vec::with_capacity(roots.len()),
        examined: 0,
    };
    search.run(0, visitor)
}

/// Collect all `A`-instances of a query (up to isomorphism).
///
/// Public as the collecting form of [`visit_a_instances`], which every caller in the
/// library uses to stop early; only this module's tests collect.
pub fn a_instances(
    query: &ConjunctiveQuery,
    schema: &AccessSchema,
    extra_constants: &[Value],
    config: &ReasonConfig,
) -> Result<Vec<AInstance>> {
    let mut out = Vec::new();
    visit_a_instances(query, schema, extra_constants, config, &mut |inst| {
        out.push(inst.clone());
        false
    })?;
    Ok(out)
}

/// The *canonical* (frozen) instance of a query: constant classes take their constants,
/// every other class takes a distinct labelled null. Returns `None` when the query is
/// classically contradictory. This is the Chandra–Merlin canonical database used for
/// classical containment.
pub fn canonical_instance(query: &ConjunctiveQuery) -> Option<(SmallInstance, Row)> {
    let eq = query.eq_classes();
    if eq.has_contradiction() {
        return None;
    }
    let mut roots: Vec<usize> = query.vars().map(|v| eq.root(v)).collect();
    roots.sort_unstable();
    roots.dedup();
    let value_of = |v: crate::query::term::Var| -> Value {
        match eq.constant(v) {
            Some(c) => c.clone(),
            None => {
                let idx = roots.binary_search(&eq.root(v)).expect("root listed");
                Value::Labelled(idx as u32)
            }
        }
    };
    let mut instance = SmallInstance::new();
    for atom in query.atoms() {
        let row: Row = atom.args.iter().map(|&v| value_of(v)).collect();
        instance.insert(atom.relation.clone(), row);
    }
    let head: Row = query.head().iter().map(|&v| value_of(v)).collect();
    Some((instance, head))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessConstraint;
    use crate::schema::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("T", ["a", "b", "c"]).unwrap();
        c
    }

    #[test]
    fn canonical_instance_freezes_variables() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .eq("y", 1i64)
            .build(&c)
            .unwrap();
        let (inst, head) = canonical_instance(&q).unwrap();
        assert_eq!(inst.size(), 1);
        let row = inst.rows("R").next().unwrap().clone();
        assert!(matches!(row[0], Value::Labelled(_)));
        assert_eq!(row[1], Value::int(1));
        assert_eq!(head, vec![row[0].clone()]);
    }

    #[test]
    fn canonical_instance_none_for_contradiction() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .eq("x", 1i64)
            .eq("x", 2i64)
            .build(&c)
            .unwrap();
        assert!(canonical_instance(&q).is_none());
    }

    #[test]
    fn enumeration_without_constraints_counts_merge_patterns() {
        let c = catalog();
        // Q(x, y) :- R(x, y): classes {x}, {y}; canonical valuations: (⊥0,⊥0), (⊥0,⊥1).
        let q = ConjunctiveQuery::builder("Q")
            .head(["x", "y"])
            .atom("R", ["x", "y"])
            .build(&c)
            .unwrap();
        let schema = AccessSchema::new();
        let all = a_instances(&q, &schema, &[], &ReasonConfig::default()).unwrap();
        assert_eq!(all.len(), 2);
    }

    #[test]
    fn enumeration_uses_named_constants() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .eq("y", 1i64)
            .build(&c)
            .unwrap();
        // Classes: {x}, {y=1}. x can be 1 (named) or a fresh null → 2 instances.
        let all = a_instances(&q, &AccessSchema::new(), &[], &ReasonConfig::default()).unwrap();
        assert_eq!(all.len(), 2);
        // With an extra named constant there is one more choice for x.
        let all = a_instances(
            &q,
            &AccessSchema::new(),
            &[Value::int(7)],
            &ReasonConfig::default(),
        )
        .unwrap();
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn placeholder_constants_enumerate_like_the_constants_they_stand_for() {
        let c = catalog();
        // Q(x) :- R(x, y), T(x, z, w), y = c0, z = c1: whatever c0 ≠ c1 are, x and w
        // range over {c0, c1, a null, a second null} in the same merge patterns.
        let count = |c0: Value, c1: Value| {
            let q = ConjunctiveQuery::builder("Q")
                .head(["x"])
                .atom("R", ["x", "y"])
                .atom("T", ["x", "z", "w"])
                .eq("y", c0)
                .eq("z", c1)
                .build(&c)
                .unwrap();
            let all = a_instances(&q, &AccessSchema::new(), &[], &ReasonConfig::default());
            all.unwrap().len()
        };
        let literal = count(Value::int(1), Value::str("k"));
        assert_eq!(
            literal,
            3 + 3 + 4,
            "x named (w: 2 named, 1 null) twice; x null"
        );
        assert_eq!(count(Value::placeholder(0), Value::placeholder(1)), literal);
        assert_eq!(count(Value::int(1), Value::placeholder(0)), literal);
    }

    #[test]
    fn constraint_filters_instances() {
        let c = catalog();
        // Q() :- R(x, y1), R(x, y2), y1 = 1, y2 = 2 — under R(a -> b, 1) the two atoms
        // cannot coexist, so there is no A-instance (this is Q2 of Example 3.1(2)).
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y1"])
            .atom("R", ["x", "y2"])
            .eq("y1", 1i64)
            .eq("y2", 2i64)
            .build(&c)
            .unwrap();
        let unit =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 1).unwrap()
            ]);
        let none = a_instances(&q, &unit, &[], &ReasonConfig::default()).unwrap();
        assert!(none.is_empty());

        let relaxed =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 2).unwrap()
            ]);
        let some = a_instances(&q, &relaxed, &[], &ReasonConfig::default()).unwrap();
        assert!(!some.is_empty());
        for ai in &some {
            assert!(ai.instance.satisfies(&relaxed, 1_000_000));
            assert_eq!(ai.head.len(), 1);
            assert_eq!(ai.assignment.len(), q.num_vars());
        }
    }

    #[test]
    fn early_stop_works() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("T", ["x", "y", "z"])
            .build(&c)
            .unwrap();
        let mut count = 0;
        let stopped = visit_a_instances(
            &q,
            &AccessSchema::new(),
            &[],
            &ReasonConfig::default(),
            &mut |_| {
                count += 1;
                true
            },
        )
        .unwrap();
        assert!(stopped);
        assert_eq!(count, 1);
    }

    #[test]
    fn budget_is_enforced() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("T", ["x", "y", "z"])
            .atom("T", ["u", "v", "w"])
            .build(&c)
            .unwrap();
        let tiny = ReasonConfig::with_budget(3);
        let err = a_instances(&q, &AccessSchema::new(), &[], &tiny);
        assert!(matches!(err, Err(Error::BudgetExhausted { .. })));
    }

    #[test]
    fn query_constants_collects_constants() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .eq("y", 1i64)
            .eq("x", Value::str("a"))
            .build(&c)
            .unwrap();
        let consts = query_constants(&q);
        assert!(consts.contains(&Value::int(1)));
        assert!(consts.contains(&Value::str("a")));
        assert_eq!(consts.len(), 2);
    }
}
