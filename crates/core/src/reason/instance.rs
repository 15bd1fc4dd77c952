//! Small in-memory instances used by the reasoning procedures, together with a direct
//! conjunctive-query evaluator over them.
//!
//! These instances are *tiny* (they have at most one tuple per atom of a query), so the
//! evaluator favours simplicity over performance. Large-scale evaluation lives in
//! `bea-engine`.

use crate::access::AccessSchema;
use crate::query::cq::ConjunctiveQuery;
use crate::value::{Row, Value};
use std::collections::{BTreeMap, BTreeSet};

/// A small database instance: a set of rows per relation name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SmallInstance {
    relations: BTreeMap<String, BTreeSet<Row>>,
}

impl SmallInstance {
    /// Create an empty instance.
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert a tuple into a relation.
    pub fn insert(&mut self, relation: impl Into<String>, row: Row) {
        self.relations
            .entry(relation.into())
            .or_default()
            .insert(row);
    }

    /// The rows of a relation (empty if the relation has no tuples).
    pub fn rows(&self, relation: &str) -> impl Iterator<Item = &Row> {
        self.relations.get(relation).into_iter().flatten()
    }

    /// Total number of tuples.
    pub fn size(&self) -> u64 {
        self.relations.values().map(|r| r.len() as u64).sum()
    }

    /// Does the instance satisfy the access schema (`D ⊨ A`)?
    ///
    /// Only the cardinality part of each constraint is checked; the index part is a
    /// physical-design obligation handled by `bea-storage`. For general (sublinear)
    /// constraints the bound is evaluated at `max(assumed_db_size, |D|)`.
    pub fn satisfies(&self, schema: &AccessSchema, assumed_db_size: u64) -> bool {
        let size = self.size().max(assumed_db_size);
        for constraint in schema.constraints() {
            let bound = constraint.cardinality().bound(size);
            let mut groups: BTreeMap<Row, BTreeSet<Row>> = BTreeMap::new();
            for row in self.rows(constraint.relation()) {
                let key: Row = constraint.x().iter().map(|&p| row[p].clone()).collect();
                let y: Row = constraint.y().iter().map(|&p| row[p].clone()).collect();
                groups.entry(key).or_default().insert(y);
            }
            if groups.values().any(|ys| ys.len() as u64 > bound) {
                return false;
            }
        }
        true
    }
}

impl FromIterator<(String, Row)> for SmallInstance {
    fn from_iter<T: IntoIterator<Item = (String, Row)>>(iter: T) -> Self {
        let mut inst = Self::new();
        for (rel, row) in iter {
            inst.insert(rel, row);
        }
        inst
    }
}

/// Evaluate a conjunctive query on a small instance, returning the set of answer rows.
///
/// The evaluation is the textbook semantics: valuations of the query variables into the
/// instance that satisfy every relation atom and every equality atom, projected onto the
/// head. Works for any (safe) normalized CQ, including boolean queries (arity 0, where a
/// non-empty result means "true").
pub fn eval_cq(query: &ConjunctiveQuery, instance: &SmallInstance) -> BTreeSet<Row> {
    let eq = query.eq_classes();
    let mut results = BTreeSet::new();
    if eq.has_contradiction() {
        return results;
    }

    // Work with one slot per equality class, pre-seeded with the class constant.
    let n = query.num_vars();
    let mut binding: Vec<Option<Value>> = vec![None; n];
    for v in query.vars() {
        if let Some(c) = eq.constant(v) {
            binding[eq.root(v)] = Some(c.clone());
        }
    }

    fn search(
        query: &ConjunctiveQuery,
        instance: &SmallInstance,
        eq: &crate::query::cq::EqClasses,
        atom_idx: usize,
        binding: &mut Vec<Option<Value>>,
        results: &mut BTreeSet<Row>,
    ) {
        if atom_idx == query.atoms().len() {
            // All atoms matched; project the head. Safety guarantees every head class is
            // bound (it contains an atom variable or carries a constant).
            let row: Option<Row> = query
                .head()
                .iter()
                .map(|&v| binding[eq.root(v)].clone())
                .collect();
            if let Some(row) = row {
                results.insert(row);
            }
            return;
        }
        let atom = &query.atoms()[atom_idx];
        for tuple in instance.rows(&atom.relation) {
            if tuple.len() != atom.args.len() {
                continue;
            }
            // Try to unify the atom with this tuple.
            let mut touched: Vec<usize> = Vec::new();
            let mut ok = true;
            for (pos, &var) in atom.args.iter().enumerate() {
                let slot = eq.root(var);
                match &binding[slot] {
                    Some(existing) => {
                        if existing != &tuple[pos] {
                            ok = false;
                            break;
                        }
                    }
                    None => {
                        binding[slot] = Some(tuple[pos].clone());
                        touched.push(slot);
                    }
                }
            }
            if ok {
                search(query, instance, eq, atom_idx + 1, binding, results);
            }
            for slot in touched {
                binding[slot] = None;
            }
        }
    }

    search(query, instance, &eq, 0, &mut binding, &mut results);
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessConstraint;
    use crate::schema::Catalog;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("S", ["a", "b"]).unwrap();
        c
    }

    fn inst(rows_r: &[(i64, i64)], rows_s: &[(i64, i64)]) -> SmallInstance {
        let mut d = SmallInstance::new();
        for (a, b) in rows_r {
            d.insert("R", vec![Value::int(*a), Value::int(*b)]);
        }
        for (a, b) in rows_s {
            d.insert("S", vec![Value::int(*a), Value::int(*b)]);
        }
        d
    }

    #[test]
    fn size_domain_and_rows() {
        let d = inst(&[(1, 2), (1, 3)], &[(2, 4)]);
        assert_eq!(d.size(), 3);
        assert_eq!(d.rows("R").count(), 2);
        assert_eq!(d.rows("T").count(), 0);
        let domain: BTreeSet<&Value> = d.relations.values().flatten().flatten().collect();
        assert_eq!(domain.len(), 4);
        assert_eq!(d.relations.len(), 2, "one entry per relation with a tuple");
    }

    #[test]
    fn satisfies_cardinality_constraints() {
        let c = catalog();
        let d = inst(&[(1, 2), (1, 3), (2, 4)], &[]);
        let one =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 1).unwrap()
            ]);
        let two =
            AccessSchema::from_constraints([
                AccessConstraint::new(&c, "R", &["a"], &["b"], 2).unwrap()
            ]);
        assert!(!d.satisfies(&one, 1_000));
        assert!(d.satisfies(&two, 1_000));
    }

    #[test]
    fn satisfies_empty_x_constraint() {
        let c = catalog();
        // R(∅ -> b, 1): all b-values must coincide.
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &[], &["b"], 1).unwrap()
        ]);
        assert!(inst(&[(1, 2), (3, 2)], &[]).satisfies(&a, 10));
        assert!(!inst(&[(1, 2), (3, 4)], &[]).satisfies(&a, 10));
    }

    #[test]
    fn eval_simple_join() {
        let c = catalog();
        // Q(x, z) :- R(x, y), S(y, z)
        let q = ConjunctiveQuery::builder("Q")
            .head(["x", "z"])
            .atom("R", ["x", "y"])
            .atom("S", ["y", "z"])
            .build(&c)
            .unwrap();
        let d = inst(&[(1, 2), (5, 6)], &[(2, 3), (2, 4)]);
        let out = eval_cq(&q, &d);
        let expected: BTreeSet<Row> = [
            vec![Value::int(1), Value::int(3)],
            vec![Value::int(1), Value::int(4)],
        ]
        .into_iter()
        .collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn eval_respects_constants_and_equalities() {
        let c = catalog();
        // Q(y) :- R(x, y), x = 1
        let q = ConjunctiveQuery::builder("Q")
            .head(["y"])
            .atom("R", ["x", "y"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let d = inst(&[(1, 2), (3, 4)], &[]);
        let out = eval_cq(&q, &d);
        assert_eq!(out, BTreeSet::from([vec![Value::int(2)]]));
    }

    #[test]
    fn eval_variable_equality_forces_join() {
        let c = catalog();
        // Q(x) :- R(x, y), S(x, z), y = z
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .atom("S", ["x", "z"])
            .eq("y", "z")
            .build(&c)
            .unwrap();
        let d = inst(&[(1, 7), (2, 8)], &[(1, 7), (2, 9)]);
        let out = eval_cq(&q, &d);
        assert_eq!(out, BTreeSet::from([vec![Value::int(1)]]));
    }

    #[test]
    fn eval_contradictory_query_is_empty() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .eq("x", 1i64)
            .eq("x", 2i64)
            .build(&c)
            .unwrap();
        let d = inst(&[(1, 2)], &[]);
        assert!(eval_cq(&q, &d).is_empty());
    }

    #[test]
    fn eval_boolean_query() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(Vec::<crate::query::term::Arg>::new())
            .atom("R", ["x", "y"])
            .eq("y", 3i64)
            .build(&c)
            .unwrap();
        assert!(eval_cq(&q, &inst(&[(1, 3)], &[])).contains(&Vec::new()));
        assert!(eval_cq(&q, &inst(&[(1, 4)], &[])).is_empty());
    }

    #[test]
    fn eval_constant_head_variable() {
        let c = catalog();
        // Q(k, x) :- R(x, y), k = 9 — k is data-independent.
        let q = ConjunctiveQuery::builder("Q")
            .head(["k", "x"])
            .atom("R", ["x", "y"])
            .eq("k", 9i64)
            .build(&c)
            .unwrap();
        let out = eval_cq(&q, &inst(&[(1, 2)], &[]));
        assert_eq!(out, BTreeSet::from([vec![Value::int(9), Value::int(1)]]));
    }

    #[test]
    fn eval_repeated_variable_in_atom() {
        let c = catalog();
        // Q(x) :- R(x, x)
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "x"])
            .build(&c)
            .unwrap();
        let d = inst(&[(1, 1), (2, 3)], &[]);
        assert_eq!(eval_cq(&q, &d), BTreeSet::from([vec![Value::int(1)]]));
    }

    #[test]
    fn from_iterator_builds_instance() {
        let d: SmallInstance = [
            ("R".to_owned(), vec![Value::int(1), Value::int(2)]),
            ("R".to_owned(), vec![Value::int(1), Value::int(2)]),
        ]
        .into_iter()
        .collect();
        assert_eq!(d.size(), 1, "duplicate rows are set-collapsed");
    }
}
