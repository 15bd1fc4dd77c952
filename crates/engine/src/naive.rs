//! The baseline evaluator: answer queries by scanning relations.
//!
//! This is the stand-in for "just run the query on the DBMS" (MySQL in the paper's
//! Example 1.1). Conjunctive queries are evaluated left-to-right with hash joins, so the
//! baseline is a competent conventional evaluator — but every atom still scans (or
//! hash-builds over) its entire relation, so the cost grows linearly with `|D|`, which is
//! exactly the behaviour bounded evaluation avoids.
//!
//! A first-order evaluator over the active domain is also provided for completeness; it
//! is exponential in the quantifier depth and only intended for the small instances used
//! by tests and the reasoning procedures.

use crate::stats::AccessStats;
use crate::table::Table;
use bea_core::error::{Error, Result};
use bea_core::query::cq::ConjunctiveQuery;
use bea_core::query::fo::{FirstOrderQuery, Formula};
use bea_core::query::term::Arg;
use bea_core::query::ucq::UnionQuery;
use bea_core::query::Query;
use bea_core::value::{Row, Value};
use bea_storage::Database;
use std::collections::{BTreeSet, HashMap};

/// Evaluate a conjunctive query by scanning and hash-joining the relations.
pub fn eval_cq(query: &ConjunctiveQuery, database: &Database) -> Result<(Table, AccessStats)> {
    let mut stats = AccessStats::default();
    let columns: Vec<String> = query
        .head()
        .iter()
        .map(|&v| query.var_name(v).to_owned())
        .collect();
    let eq = query.eq_classes();
    if eq.has_contradiction() {
        return Ok((Table::new(columns), stats));
    }

    // Partial bindings over equality-class representatives.
    let num_vars = query.num_vars();
    let root = |v: bea_core::query::term::Var| eq.root(v);

    // Seed with the class constants.
    let mut seed: Vec<Option<Value>> = vec![None; num_vars];
    for v in query.vars() {
        if let Some(c) = eq.constant(v) {
            seed[root(v)] = Some(c.clone());
        }
    }
    let mut partials: Vec<Vec<Option<Value>>> = vec![seed];
    let mut bound_roots: BTreeSet<usize> = query
        .vars()
        .filter(|&v| eq.constant(v).is_some())
        .map(root)
        .collect();

    for atom in query.atoms() {
        let relation = database.relation(&atom.relation)?;
        stats.tuples_scanned += relation.len() as u64;

        // Positions of the atom whose class is already bound form the hash key.
        let key_positions: Vec<usize> = (0..atom.args.len())
            .filter(|&p| bound_roots.contains(&root(atom.args[p])))
            .collect();

        // Build the hash table over the relation, keyed on those positions, keeping only
        // tuples that are self-consistent with repeated variables in the atom.
        let mut buckets: HashMap<Row, Vec<&[Value]>> = HashMap::new();
        'tuples: for tuple in relation.rows() {
            for p1 in 0..atom.args.len() {
                for p2 in (p1 + 1)..atom.args.len() {
                    if root(atom.args[p1]) == root(atom.args[p2]) && tuple[p1] != tuple[p2] {
                        continue 'tuples;
                    }
                }
            }
            let key: Row = key_positions.iter().map(|&p| tuple[p].clone()).collect();
            buckets.entry(key).or_default().push(tuple);
        }

        // Probe with every partial binding.
        let mut next: Vec<Vec<Option<Value>>> = Vec::new();
        for partial in &partials {
            let key: Row = key_positions
                .iter()
                .map(|&p| {
                    partial[root(atom.args[p])]
                        .clone()
                        .expect("key positions are bound")
                })
                .collect();
            let Some(matches) = buckets.get(&key) else {
                continue;
            };
            for tuple in matches {
                let mut extended = partial.clone();
                let mut ok = true;
                for (p, &var) in atom.args.iter().enumerate() {
                    let slot = root(var);
                    match &extended[slot] {
                        Some(existing) => {
                            if existing != &tuple[p] {
                                ok = false;
                                break;
                            }
                        }
                        None => extended[slot] = Some(tuple[p].clone()),
                    }
                }
                if ok {
                    next.push(extended);
                }
            }
        }
        partials = next;
        for &v in &atom.args {
            bound_roots.insert(root(v));
        }
        if partials.is_empty() {
            break;
        }
    }

    let mut table = Table::new(columns);
    for partial in &partials {
        let row: Option<Row> = query
            .head()
            .iter()
            .map(|&v| partial[root(v)].clone())
            .collect();
        match row {
            Some(row) => table.push(row),
            None => {
                return Err(Error::invalid(format!(
                    "query `{}` has an unbound head variable (unsafe query)",
                    query.name()
                )))
            }
        }
    }
    table.dedup();
    Ok((table, stats))
}

/// Evaluate a union of conjunctive queries (the union of its branches' answers).
pub fn eval_ucq(query: &UnionQuery, database: &Database) -> Result<(Table, AccessStats)> {
    let mut stats = AccessStats::default();
    let mut combined: Option<Table> = None;
    for branch in query.branches() {
        let (table, branch_stats) = eval_cq(branch, database)?;
        stats += branch_stats;
        combined = Some(match combined {
            None => table,
            Some(mut acc) => {
                for row in table.rows() {
                    acc.push(row.clone());
                }
                acc
            }
        });
    }
    let mut table = combined.unwrap_or_default();
    table.dedup();
    Ok((table, stats))
}

/// Evaluate any query of the supported classes; FO queries fall back to the active-domain
/// evaluator.
pub fn eval_query(query: &Query, database: &Database) -> Result<(Table, AccessStats)> {
    match query {
        Query::Cq(q) => eval_cq(q, database),
        Query::Ucq(q) => eval_ucq(q, database),
        Query::Efo(q) => eval_ucq(&q.to_ucq(database.catalog())?, database),
        Query::Fo(q) => eval_fo(q, database),
    }
}

/// Evaluate a first-order query over the active domain of the database.
///
/// The active domain is the set of constants occurring in the database or the query
/// (Section 2 of the paper). The evaluation is exponential in the number of quantified
/// variables and is only meant for small instances.
pub fn eval_fo(query: &FirstOrderQuery, database: &Database) -> Result<(Table, AccessStats)> {
    let stats = AccessStats {
        tuples_scanned: database.size(),
        ..AccessStats::default()
    };

    // Active domain: all database constants plus the query's constants.
    let mut domain: BTreeSet<Value> = BTreeSet::new();
    for relation in database.relations() {
        for row in relation.rows() {
            domain.extend(row.iter().cloned());
        }
    }
    collect_formula_constants(query.body(), &mut domain);

    let head_names: Vec<String> = query
        .head()
        .iter()
        .map(|a| match a {
            Arg::Var(n) => n.clone(),
            Arg::Const(c) => c.to_string(),
        })
        .collect();
    let mut free_vars: Vec<String> = Vec::new();
    for a in query.head() {
        if let Arg::Var(n) = a {
            if !free_vars.contains(n) {
                free_vars.push(n.clone());
            }
        }
    }
    for v in query.body().free_vars() {
        if !free_vars.contains(&v) {
            free_vars.push(v);
        }
    }

    let domain: Vec<Value> = domain.into_iter().collect();
    let mut table = Table::new(head_names);
    let mut assignment: HashMap<String, Value> = HashMap::new();
    enumerate_assignments(&free_vars, 0, &domain, &mut assignment, &mut |assignment| {
        if eval_formula(query.body(), database, &domain, assignment)? {
            let row: Row = query
                .head()
                .iter()
                .map(|a| match a {
                    Arg::Var(n) => assignment[n].clone(),
                    Arg::Const(c) => c.clone(),
                })
                .collect();
            table.push(row);
        }
        Ok(())
    })?;
    table.dedup();
    Ok((table, stats))
}

fn collect_formula_constants(formula: &Formula, out: &mut BTreeSet<Value>) {
    match formula {
        Formula::Atom { args, .. } => {
            for a in args {
                if let Arg::Const(c) = a {
                    out.insert(c.clone());
                }
            }
        }
        Formula::Eq(l, r) => {
            for a in [l, r] {
                if let Arg::Const(c) = a {
                    out.insert(c.clone());
                }
            }
        }
        Formula::Not(inner) => collect_formula_constants(inner, out),
        Formula::And(fs) | Formula::Or(fs) => {
            for f in fs {
                collect_formula_constants(f, out);
            }
        }
        Formula::Exists(_, body) | Formula::Forall(_, body) => {
            collect_formula_constants(body, out);
        }
    }
}

fn enumerate_assignments(
    vars: &[String],
    index: usize,
    domain: &[Value],
    assignment: &mut HashMap<String, Value>,
    visit: &mut dyn FnMut(&HashMap<String, Value>) -> Result<()>,
) -> Result<()> {
    if index == vars.len() {
        return visit(assignment);
    }
    for value in domain {
        assignment.insert(vars[index].clone(), value.clone());
        enumerate_assignments(vars, index + 1, domain, assignment, visit)?;
    }
    assignment.remove(&vars[index]);
    Ok(())
}

fn eval_formula(
    formula: &Formula,
    database: &Database,
    domain: &[Value],
    assignment: &HashMap<String, Value>,
) -> Result<bool> {
    let resolve = |a: &Arg| -> Result<Value> {
        match a {
            Arg::Const(c) => Ok(c.clone()),
            Arg::Var(n) => assignment
                .get(n)
                .cloned()
                .ok_or_else(|| Error::UnknownVariable {
                    variable: n.clone(),
                }),
        }
    };
    match formula {
        Formula::Atom { relation, args } => {
            let row: Row = args.iter().map(resolve).collect::<Result<_>>()?;
            Ok(database.relation(relation)?.rows().any(|t| t == row))
        }
        Formula::Eq(l, r) => Ok(resolve(l)? == resolve(r)?),
        Formula::Not(inner) => Ok(!eval_formula(inner, database, domain, assignment)?),
        Formula::And(fs) => {
            for f in fs {
                if !eval_formula(f, database, domain, assignment)? {
                    return Ok(false);
                }
            }
            Ok(true)
        }
        Formula::Or(fs) => {
            for f in fs {
                if eval_formula(f, database, domain, assignment)? {
                    return Ok(true);
                }
            }
            Ok(false)
        }
        Formula::Exists(vars, body) => {
            let mut found = false;
            let mut nested = assignment.clone();
            enumerate_assignments(vars, 0, domain, &mut nested, &mut |a| {
                if !found && eval_formula(body, database, domain, a)? {
                    found = true;
                }
                Ok(())
            })?;
            Ok(found)
        }
        Formula::Forall(vars, body) => {
            let mut all = true;
            let mut nested = assignment.clone();
            enumerate_assignments(vars, 0, domain, &mut nested, &mut |a| {
                if all && !eval_formula(body, database, domain, a)? {
                    all = false;
                }
                Ok(())
            })?;
            Ok(all)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_core::query::efo::{PosFormula, PositiveQuery};
    use bea_core::schema::Catalog;

    fn setup() -> (Catalog, Database) {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        c.declare("S", ["a", "b"]).unwrap();
        let mut db = Database::new(c.clone());
        db.extend(
            "R",
            [
                vec![Value::int(1), Value::int(10)],
                vec![Value::int(1), Value::int(11)],
                vec![Value::int(2), Value::int(10)],
            ],
        )
        .unwrap();
        db.extend(
            "S",
            [
                vec![Value::int(10), Value::int(100)],
                vec![Value::int(11), Value::int(101)],
            ],
        )
        .unwrap();
        (c, db)
    }

    #[test]
    fn cq_selection_and_join() {
        let (c, db) = setup();
        // Q(z) :- R(x, y), S(y, z), x = 1.
        let q = ConjunctiveQuery::builder("Q")
            .head(["z"])
            .atom("R", ["x", "y"])
            .atom("S", ["y", "z"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let (result, stats) = eval_cq(&q, &db).unwrap();
        assert_eq!(
            result.row_set(),
            [vec![Value::int(100)], vec![Value::int(101)]]
                .into_iter()
                .collect()
        );
        // The baseline scans both relations entirely.
        assert_eq!(stats.tuples_scanned, 5);
        assert_eq!(stats.tuples_fetched, 0);
    }

    #[test]
    fn cq_with_repeated_variable() {
        let (c, mut db) = setup();
        db.insert("R", vec![Value::int(7), Value::int(7)]).unwrap();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "x"])
            .build(&c)
            .unwrap();
        let (result, _) = eval_cq(&q, &db).unwrap();
        assert_eq!(
            result.row_set(),
            [vec![Value::int(7)]].into_iter().collect()
        );
    }

    #[test]
    fn cq_contradiction_is_empty() {
        let (c, db) = setup();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .eq("x", 1i64)
            .eq("x", 2i64)
            .build(&c)
            .unwrap();
        let (result, _) = eval_cq(&q, &db).unwrap();
        assert!(result.is_empty());
    }

    #[test]
    fn boolean_cq() {
        let (c, db) = setup();
        let q = ConjunctiveQuery::builder("Q")
            .head(Vec::<Arg>::new())
            .atom("R", ["x", "y"])
            .eq("y", 11i64)
            .build(&c)
            .unwrap();
        let (result, _) = eval_cq(&q, &db).unwrap();
        assert_eq!(result.len(), 1);
        let q_false = ConjunctiveQuery::builder("Q")
            .head(Vec::<Arg>::new())
            .atom("R", ["x", "y"])
            .eq("y", 99i64)
            .build(&c)
            .unwrap();
        let (result, _) = eval_cq(&q_false, &db).unwrap();
        assert!(result.is_empty());
    }

    #[test]
    fn ucq_union_of_branches() {
        let (c, db) = setup();
        let b1 = ConjunctiveQuery::builder("Q1")
            .head(["y"])
            .atom("R", ["x", "y"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let b2 = ConjunctiveQuery::builder("Q2")
            .head(["y"])
            .atom("R", ["x", "y"])
            .eq("x", 2i64)
            .build(&c)
            .unwrap();
        let union = UnionQuery::from_branches("Q", vec![b1, b2]).unwrap();
        let (result, stats) = eval_ucq(&union, &db).unwrap();
        assert_eq!(
            result.row_set(),
            [vec![Value::int(10)], vec![Value::int(11)]]
                .into_iter()
                .collect()
        );
        assert_eq!(stats.tuples_scanned, 6); // both branches scan R
    }

    #[test]
    fn efo_query_via_ucq_expansion() {
        let (_c, db) = setup();
        let q = PositiveQuery::new(
            "Q",
            ["y"],
            PosFormula::exists(
                ["x"],
                PosFormula::And(vec![
                    PosFormula::atom("R", ["x", "y"]),
                    PosFormula::Or(vec![
                        PosFormula::eq("x", Value::int(1)),
                        PosFormula::eq("x", Value::int(2)),
                    ]),
                ]),
            ),
        );
        let (result, _) = eval_query(&Query::Efo(q), &db).unwrap();
        assert_eq!(result.row_set().len(), 2);
    }

    #[test]
    fn fo_query_with_negation_and_universal() {
        let (_c, db) = setup();
        // Values b of R such that *every* S-tuple starting with b has second component 100.
        let q = FirstOrderQuery::new(
            "Q",
            ["y"],
            Formula::And(vec![
                Formula::exists(["x"], Formula::atom("R", ["x", "y"])),
                Formula::Forall(
                    vec!["z".into()],
                    Box::new(Formula::Or(vec![
                        Formula::not(Formula::atom("S", ["y", "z"])),
                        Formula::eq("z", Value::int(100)),
                    ])),
                ),
            ]),
        );
        let (result, _) = eval_fo(&q, &db).unwrap();
        // y = 10 qualifies (S(10,100)); y = 11 does not (S(11,101)).
        assert!(result.row_set().contains(&vec![Value::int(10)]));
        assert!(!result.row_set().contains(&vec![Value::int(11)]));
    }

    #[test]
    fn fo_matches_cq_on_positive_queries() {
        let (c, db) = setup();
        let cq = ConjunctiveQuery::builder("Q")
            .head(["z"])
            .atom("R", ["x", "y"])
            .atom("S", ["y", "z"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let fo = FirstOrderQuery::new(
            "Q",
            ["z"],
            Formula::exists(
                ["x", "y"],
                Formula::And(vec![
                    Formula::atom("R", ["x", "y"]),
                    Formula::atom("S", ["y", "z"]),
                    Formula::eq("x", Value::int(1)),
                ]),
            ),
        );
        let (t1, _) = eval_cq(&cq, &db).unwrap();
        let (t2, _) = eval_fo(&fo, &db).unwrap();
        assert!(t1.same_rows(&t2));
    }
}
