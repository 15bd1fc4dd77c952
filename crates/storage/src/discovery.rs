//! Discovery of access constraints from data.
//!
//! The paper notes that the constraints of Example 1.1 "are discovered by simple
//! aggregate queries on D₀": for a candidate pair of attribute sets `(X, Y)` of a
//! relation, the cardinality `N = max_ā |D_Y(X = ā)|` is an aggregate over the data, and
//! `R(X → Y, N)` is then an access constraint the instance satisfies by construction.
//! This module implements that mining step, which the coverage-rate experiment (E3,
//! in `bea-bench`'s `claims`) uses to build constraint sets of increasing size.

use crate::database::Database;
use bea_core::access::AccessConstraint;
use bea_core::error::Result;
use bea_core::value::Row;
use std::collections::HashMap;

/// Options for constraint discovery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DiscoveryOptions {
    /// Maximum size of the key set `X` considered (1 keeps discovery linear per
    /// attribute pair; 2 already covers most practical constraints).
    pub max_key_size: usize,
    /// Only keep constraints whose discovered cardinality is at most this bound —
    /// constraints with huge `N` are useless for bounded evaluation.
    pub max_cardinality: u64,
    /// Also emit `R(∅ → A, N)` constraints for attributes with few distinct values.
    pub include_empty_keys: bool,
}

impl Default for DiscoveryOptions {
    fn default() -> Self {
        Self {
            max_key_size: 1,
            max_cardinality: 1_000,
            include_empty_keys: false,
        }
    }
}

/// The exact cardinality `max_ā |D_Y(X = ā)|` of a candidate constraint on an instance;
/// `R(X → Y, N)` with this `N` is satisfied by the instance by construction.
pub fn measure_cardinality(
    database: &Database,
    relation: &str,
    x: &[usize],
    y: &[usize],
) -> Result<u64> {
    let rel = database.relation(relation)?;
    let mut groups: HashMap<Row, Vec<Row>> = HashMap::new();
    for row in rel.rows() {
        let key = crate::relation::Relation::project(row, x);
        let val = crate::relation::Relation::project(row, y);
        groups.entry(key).or_default().push(val);
    }
    let mut max = 0u64;
    for values in groups.values_mut() {
        values.sort();
        values.dedup();
        max = max.max(values.len() as u64);
    }
    Ok(max)
}

/// Mine access constraints from an instance: every `(X, Y)` pair of disjoint attribute
/// sets with `|X| ≤ max_key_size` and `|Y| = 1` (plus, per relation, the "all remaining
/// attributes" Y for key-like X sets) whose measured cardinality is within
/// `max_cardinality`.
///
/// The returned constraints are sorted by cardinality, so taking a prefix yields the
/// "most selective first" constraint sets used by the coverage-rate experiment.
pub fn discover_constraints(
    database: &Database,
    options: &DiscoveryOptions,
) -> Result<Vec<AccessConstraint>> {
    let mut found: Vec<(u64, AccessConstraint)> = Vec::new();
    for relation in database.relations() {
        let arity = relation.schema().arity();
        let name = relation.name().to_owned();

        // Candidate key sets: ∅ (optional), singletons, and pairs when allowed.
        let mut key_sets: Vec<Vec<usize>> = Vec::new();
        if options.include_empty_keys {
            key_sets.push(Vec::new());
        }
        if options.max_key_size >= 1 {
            key_sets.extend((0..arity).map(|a| vec![a]));
        }
        if options.max_key_size >= 2 {
            for a in 0..arity {
                for b in (a + 1)..arity {
                    key_sets.push(vec![a, b]);
                }
            }
        }

        for x in &key_sets {
            // Single-attribute Y targets.
            for y in 0..arity {
                if x.contains(&y) {
                    continue;
                }
                let n = measure_cardinality(database, &name, x, &[y])?;
                if n == 0 || n > options.max_cardinality {
                    continue;
                }
                found.push((
                    n,
                    AccessConstraint::from_positions(name.clone(), x.clone(), vec![y], n)?,
                ));
            }
            // The "whole remainder" target, giving key-style constraints like
            // Accident(aid → (district, date), 1).
            let rest: Vec<usize> = (0..arity).filter(|p| !x.contains(p)).collect();
            if rest.len() > 1 {
                let n = measure_cardinality(database, &name, x, &rest)?;
                if n > 0 && n <= options.max_cardinality {
                    found.push((
                        n,
                        AccessConstraint::from_positions(name.clone(), x.clone(), rest, n)?,
                    ));
                }
            }
        }
    }
    found.sort_by_key(|(cardinality, _)| *cardinality);
    Ok(found.into_iter().map(|(_, c)| c).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_core::schema::Catalog;
    use bea_core::value::Value;

    fn sample() -> Database {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b", "c"]).unwrap();
        let mut db = Database::new(c);
        db.extend(
            "R",
            [
                vec![Value::int(1), Value::int(10), Value::str("x")],
                vec![Value::int(1), Value::int(11), Value::str("x")],
                vec![Value::int(2), Value::int(12), Value::str("y")],
                vec![Value::int(3), Value::int(12), Value::str("y")],
            ],
        )
        .unwrap();
        db
    }

    #[test]
    fn cardinality_measurement() {
        let db = sample();
        // a → b: key 1 has two b-values.
        assert_eq!(measure_cardinality(&db, "R", &[0], &[1]).unwrap(), 2);
        // b → a: value 12 has two a-values.
        assert_eq!(measure_cardinality(&db, "R", &[1], &[0]).unwrap(), 2);
        // a → c is functional.
        assert_eq!(measure_cardinality(&db, "R", &[0], &[2]).unwrap(), 1);
        // ∅ → c has two distinct values overall.
        assert_eq!(measure_cardinality(&db, "R", &[], &[2]).unwrap(), 2);
        // Empty relation yields 0.
        let mut c2 = Catalog::new();
        c2.declare("S", ["x", "y"]).unwrap();
        let empty = Database::new(c2);
        assert_eq!(measure_cardinality(&empty, "S", &[0], &[1]).unwrap(), 0);
        assert!(measure_cardinality(&db, "Nope", &[0], &[1]).is_err());
    }

    #[test]
    fn discovered_constraints_hold_on_the_instance() {
        let db = sample();
        let constraints = discover_constraints(&db, &DiscoveryOptions::default()).unwrap();
        assert!(!constraints.is_empty());
        // Every discovered constraint is satisfied by the instance it was mined from.
        for constraint in &constraints {
            let n = measure_cardinality(&db, constraint.relation(), constraint.x(), constraint.y())
                .unwrap();
            assert!(n <= constraint.cardinality().bound(db.size()));
        }
        // They are sorted by cardinality, so the first one is a functional dependency.
        assert_eq!(constraints[0].cardinality().as_const(), Some(1));
    }

    #[test]
    fn options_control_the_search_space() {
        let db = sample();
        let small = discover_constraints(
            &db,
            &DiscoveryOptions {
                max_key_size: 1,
                max_cardinality: 1_000,
                include_empty_keys: false,
            },
        )
        .unwrap();
        let with_pairs = discover_constraints(
            &db,
            &DiscoveryOptions {
                max_key_size: 2,
                max_cardinality: 1_000,
                include_empty_keys: true,
            },
        )
        .unwrap();
        assert!(with_pairs.len() > small.len());
        assert!(with_pairs.iter().any(|c| c.x().is_empty()));
        assert!(small.iter().all(|c| c.x().len() == 1));

        // A cardinality cap of 1 keeps only functional dependencies.
        let fds = discover_constraints(
            &db,
            &DiscoveryOptions {
                max_key_size: 1,
                max_cardinality: 1,
                include_empty_keys: false,
            },
        )
        .unwrap();
        assert!(fds.iter().all(|c| c.cardinality().as_const() == Some(1)));
    }
}
