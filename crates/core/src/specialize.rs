//! Bounded query specialization (QSP, Section 5).
//!
//! A parameterized query `Q` with parameter set `X` (price ranges in e-commerce, the
//! "me" of a personalized search, …) may fail to be boundedly evaluable while its
//! *specializations* `Q(x̄ = c̄)` — obtained by instantiating a tuple `x̄` of parameters
//! with user-supplied constants — are. QSP asks for a tuple of at most `k` parameters
//! whose instantiation makes the specialized query covered **for every valuation**.
//!
//! Coverage is a *generic* property of the instantiation: instantiating a parameter adds
//! an `x = c` equality atom, turning `x` into a constant variable, and the covered-query
//! conditions only look at which variables are constants — not at their values. The
//! search therefore instantiates parameters with pairwise distinct labelled nulls (the
//! least-merging valuation) and checks coverage of the resulting template. In addition,
//! QSP requires at least one valuation to yield an `A`-satisfiable specialization, which
//! (per the lemma used in the proof of Theorem 5.3) follows from `A`-satisfiability of
//! the query itself.
//!
//! Proposition 5.4's syntactic guarantee is also provided: when `A` *covers* the
//! relational schema ([`crate::access::AccessSchema::covers_catalog`]) every fully
//! parameterized FO query can be boundedly specialized.

use crate::access::AccessSchema;
use crate::cover::{coverage, ucq_coverage, CoverageReport};
use crate::envelope::for_each_combination;
use crate::error::{Error, Result};
use crate::query::cq::ConjunctiveQuery;
use crate::query::fo::FirstOrderQuery;
use crate::query::term::Var;
use crate::query::ucq::UnionQuery;
use crate::reason::satisfiability::{is_a_satisfiable, is_ucq_a_satisfiable};
use crate::reason::ReasonConfig;
use crate::schema::Catalog;
use crate::value::Value;

/// Configuration of the specialization search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SpecializeConfig {
    /// Configuration of the reasoning sub-procedures.
    pub reason: ReasonConfig,
}

/// A successful bounded specialization of a conjunctive query.
#[derive(Debug, Clone, PartialEq)]
pub struct Specialization {
    /// The chosen parameters `x̄` (a minimum-size tuple).
    pub parameters: Vec<Var>,
    /// The display names of the chosen parameters.
    pub parameter_names: Vec<String>,
    /// The specialized template `Q(x̄ = ⊥̄)` with the parameters bound to generic
    /// placeholder constants; instantiate it with [`instantiate`] for concrete values.
    pub template: ConjunctiveQuery,
    /// Coverage report of the template (identical, up to constants, for every valuation).
    pub report: CoverageReport,
}

/// Instantiate a query's parameters with concrete values: `Q(x̄ = c̄)`.
///
/// `bindings` pairs parameter *names* with values; every name must be a declared
/// parameter of the query.
pub fn instantiate(
    query: &ConjunctiveQuery,
    bindings: &[(&str, Value)],
) -> Result<ConjunctiveQuery> {
    let mut resolved = Vec::with_capacity(bindings.len());
    for (name, value) in bindings {
        let var = query
            .var_by_name(name)
            .filter(|v| query.params().contains(v))
            .ok_or_else(|| Error::UnknownParameter {
                parameter: (*name).to_owned(),
            })?;
        resolved.push((var, value.clone()));
    }
    query
        .with_const_equalities(&resolved)
        .map(|q| q.with_name(format!("{}_spec", query.name())))
}

/// The generic specialization template for a chosen parameter tuple: each parameter is
/// bound to a distinct labelled null standing for "an arbitrary user-supplied constant".
pub fn generic_template(query: &ConjunctiveQuery, parameters: &[Var]) -> Result<ConjunctiveQuery> {
    let bindings: Vec<(Var, Value)> = parameters
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, Value::placeholder(i as u32)))
        .collect();
    query
        .with_const_equalities(&bindings)
        .map(|q| q.with_name(format!("{}_template", query.name())))
}

/// Decide QSP for a conjunctive query: find a minimum tuple of at most `k` parameters
/// whose instantiation makes the query covered for every valuation.
///
/// Returns `Ok(None)` when no such tuple of size ≤ `k` exists (within the declared
/// parameter set `X` of the query).
pub fn specialize_cq(
    query: &ConjunctiveQuery,
    schema: &AccessSchema,
    k: usize,
    config: &SpecializeConfig,
) -> Result<Option<Specialization>> {
    let params: Vec<Var> = query.params().iter().copied().collect();
    // Condition (b) of bounded specialization: some valuation must yield an
    // A-satisfiable specialization; by genericity this follows from A-satisfiability of
    // the query itself.
    if is_a_satisfiable(query, schema, &config.reason)?.is_none() {
        return Ok(None);
    }
    let max_size = k.min(params.len());
    for size in 0..=max_size {
        let mut chosen: Option<Vec<Var>> = None;
        for_each_combination(params.len(), size, &mut |picked| {
            let subset: Vec<Var> = picked.iter().map(|&i| params[i]).collect();
            let template = generic_template(query, &subset)?;
            let report = coverage(&template, schema);
            if report.is_covered() {
                chosen = Some(subset);
                return Ok(true);
            }
            Ok(false)
        })?;
        if let Some(parameters) = chosen {
            let template = generic_template(query, &parameters)?;
            let report = coverage(&template, schema);
            let parameter_names = parameters
                .iter()
                .map(|&v| query.var_name(v).to_owned())
                .collect();
            return Ok(Some(Specialization {
                parameters,
                parameter_names,
                template,
                report,
            }));
        }
    }
    Ok(None)
}

/// A successful bounded specialization of a union of conjunctive queries.
#[derive(Debug, Clone, PartialEq)]
pub struct UcqSpecialization {
    /// The chosen parameter names (shared across branches).
    pub parameter_names: Vec<String>,
    /// The specialized template union.
    pub template: UnionQuery,
}

/// Decide QSP for a union of conjunctive queries (Theorem 5.3 for UCQ / ∃FO⁺):
/// parameters are identified by name across branches, and the specialized union must be
/// covered in the UCQ sense (Section 3.2).
///
/// Kept public though only tests call it: it is Table 1's QSP row for UCQ (Section 5).
pub fn specialize_ucq(
    query: &UnionQuery,
    schema: &AccessSchema,
    k: usize,
    config: &SpecializeConfig,
) -> Result<Option<UcqSpecialization>> {
    let names: Vec<String> = query.param_names().into_iter().collect();
    if is_ucq_a_satisfiable(query, schema, &config.reason)?.is_none() {
        return Ok(None);
    }
    let max_size = k.min(names.len());
    for size in 0..=max_size {
        let mut chosen: Option<Vec<String>> = None;
        for_each_combination(names.len(), size, &mut |picked| {
            let subset: Vec<String> = picked.iter().map(|&i| names[i].clone()).collect();
            let template = specialize_union_generically(query, &subset)?;
            let report = ucq_coverage(&template, schema, &config.reason)?;
            if report.is_covered() {
                chosen = Some(subset);
                return Ok(true);
            }
            Ok(false)
        })?;
        if let Some(parameter_names) = chosen {
            let template = specialize_union_generically(query, &parameter_names)?;
            return Ok(Some(UcqSpecialization {
                parameter_names,
                template,
            }));
        }
    }
    Ok(None)
}

/// Bind the named parameters of every branch to generic placeholder constants.
fn specialize_union_generically(query: &UnionQuery, names: &[String]) -> Result<UnionQuery> {
    let mut branches = Vec::with_capacity(query.len());
    for branch in query.branches() {
        let vars: Vec<Var> = names
            .iter()
            .filter_map(|n| branch.var_by_name(n))
            .filter(|v| branch.params().contains(v))
            .collect();
        branches.push(generic_template(branch, &vars)?);
    }
    UnionQuery::from_branches(format!("{}_template", query.name()), branches)
}

/// Proposition 5.4: under an access schema that covers the relational schema, every fully
/// parameterized FO query can be boundedly specialized (instantiate all parameters; every
/// relation atom is then checkable through the covering constraint of its relation).
pub fn always_boundedly_specializable(
    query: &FirstOrderQuery,
    schema: &AccessSchema,
    catalog: &Catalog,
) -> bool {
    schema.covers_catalog(catalog) && query.is_fully_parameterized()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessConstraint;
    use crate::query::fo::Formula;

    fn accidents() -> (Catalog, AccessSchema) {
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
        (c, a)
    }

    /// The parameterized query Q of Example 5.1: find driver ages, with `date` and
    /// `district` as parameters.
    fn example_5_1(c: &Catalog) -> ConjunctiveQuery {
        ConjunctiveQuery::builder("Q")
            .head(["xa"])
            .atom("Accident", ["aid", "district", "date"])
            .atom("Casualty", ["cid", "aid", "class", "vid"])
            .atom("Vehicle", ["vid", "dri", "xa"])
            .params(["date", "district"])
            .build(c)
            .unwrap()
    }

    #[test]
    fn example_5_1_one_parameter_suffices() {
        let (c, a) = accidents();
        let q = example_5_1(&c);
        // Q itself is not boundedly evaluable: its free variable is not covered.
        assert!(!crate::cover::is_covered(&q, &a));

        let spec = specialize_cq(&q, &a, 2, &SpecializeConfig::default())
            .unwrap()
            .expect("Example 5.1: Q can be boundedly specialized");
        // Instantiating the single parameter `date` is enough (and minimal).
        assert_eq!(spec.parameter_names, vec!["date".to_owned()]);
        assert!(spec.report.is_covered());

        // Every concrete valuation yields a covered — hence boundedly evaluable — query;
        // Q0 of Example 1.1 is exactly such an instantiation.
        let q0 = instantiate(
            &q,
            &[
                ("date", Value::str("1/5/2005")),
                ("district", Value::str("Queen's Park")),
            ],
        )
        .unwrap();
        assert!(crate::cover::is_covered(&q0, &a));
        let q_any = instantiate(&q, &[("date", Value::str("2/6/1999"))]).unwrap();
        assert!(crate::cover::is_covered(&q_any, &a));
    }

    #[test]
    fn example_5_1_district_alone_does_not_suffice() {
        let (c, a) = accidents();
        // Same query but with district as the only parameter: no bounded specialization
        // exists (there is no index keyed on district).
        let q = ConjunctiveQuery::builder("Q")
            .head(["xa"])
            .atom("Accident", ["aid", "district", "date"])
            .atom("Casualty", ["cid", "aid", "class", "vid"])
            .atom("Vehicle", ["vid", "dri", "xa"])
            .params(["district"])
            .build(&c)
            .unwrap();
        assert!(specialize_cq(&q, &a, 1, &SpecializeConfig::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn minimality_of_the_parameter_tuple() {
        let (c, a) = accidents();
        let q = example_5_1(&c);
        // k = 0 fails (the query is not covered as-is)…
        assert!(specialize_cq(&q, &a, 0, &SpecializeConfig::default())
            .unwrap()
            .is_none());
        // …k = 1 succeeds with exactly one parameter.
        let spec = specialize_cq(&q, &a, 1, &SpecializeConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(spec.parameters.len(), 1);
    }

    #[test]
    fn unsatisfiable_queries_cannot_be_sensibly_specialized() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 1).unwrap()
        ]);
        // Not A-satisfiable (two distinct b-values for the same a-value).
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y1"])
            .atom("R", ["x", "y2"])
            .eq("y1", 1i64)
            .eq("y2", 2i64)
            .params(["x"])
            .build(&c)
            .unwrap();
        assert!(specialize_cq(&q, &a, 1, &SpecializeConfig::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn instantiate_rejects_non_parameters() {
        let (c, _) = accidents();
        let q = example_5_1(&c);
        let err = instantiate(&q, &[("aid", Value::int(3))]);
        assert!(matches!(err, Err(Error::UnknownParameter { .. })));
        let err = instantiate(&q, &[("nope", Value::int(3))]);
        assert!(matches!(err, Err(Error::UnknownParameter { .. })));
    }

    #[test]
    fn ucq_specialization() {
        let mut c = Catalog::new();
        c.declare("Product", ["pid", "category", "price"]).unwrap();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "Product", &["category"], &["pid"], 500).unwrap(),
            AccessConstraint::new(&c, "Product", &["pid"], &["category", "price"], 1).unwrap(),
        ]);
        // Two branches, both parameterized by `category`.
        let b1 = ConjunctiveQuery::builder("Q1")
            .head(["p"])
            .atom("Product", ["pid", "category", "p"])
            .params(["category"])
            .build(&c)
            .unwrap();
        let b2 = ConjunctiveQuery::builder("Q2")
            .head(["p"])
            .atom("Product", ["pid", "category", "p"])
            .eq("p", 0i64)
            .params(["category"])
            .build(&c)
            .unwrap();
        let union = UnionQuery::from_branches("Q", vec![b1, b2]).unwrap();
        let spec = specialize_ucq(&union, &a, 1, &SpecializeConfig::default())
            .unwrap()
            .expect("instantiating `category` covers both branches");
        assert_eq!(spec.parameter_names, vec!["category".to_owned()]);
        assert_eq!(spec.template.len(), 2);

        // Without any parameter the union is not covered, so k = 0 fails.
        assert!(specialize_ucq(&union, &a, 0, &SpecializeConfig::default())
            .unwrap()
            .is_none());
    }

    #[test]
    fn proposition_5_4() {
        let (c, a) = accidents();
        // ψ1–ψ4 do not cover the catalog (Casualty's cid/class are not spanned).
        let q = FirstOrderQuery::new(
            "Q",
            ["x"],
            Formula::exists(["y"], Formula::atom("Vehicle", ["x", "y", "z"])),
        )
        .with_params(["x", "y", "z"]);
        assert!(!always_boundedly_specializable(&q, &a, &c));

        // A covering access schema flips the answer for fully parameterized queries.
        let covering = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "Accident", &["aid"], &["district", "date"], 1).unwrap(),
            AccessConstraint::new(&c, "Casualty", &["cid"], &["aid", "class", "vid"], 1).unwrap(),
            AccessConstraint::new(&c, "Vehicle", &["vid"], &["driver", "age"], 1).unwrap(),
        ]);
        assert!(always_boundedly_specializable(&q, &covering, &c));
        // A query that is not fully parameterized is not guaranteed.
        let partial = FirstOrderQuery::new(
            "Q",
            ["x"],
            Formula::exists(["y"], Formula::atom("Vehicle", ["x", "y", "z"])),
        )
        .with_params(["x"]);
        assert!(!always_boundedly_specializable(&partial, &covering, &c));
    }

    #[test]
    fn generic_template_marks_parameters_as_constants() {
        let (c, _) = accidents();
        let q = example_5_1(&c);
        let date = q.var_by_name("date").unwrap();
        let template = generic_template(&q, &[date]).unwrap();
        assert!(template.constant_vars().contains(&date));
        // The placeholder is a labelled null, not a real constant.
        assert!(template
            .equalities()
            .iter()
            .any(|e| matches!(e, crate::query::cq::Equality::Const(_, Value::Labelled(_)))));
    }

    #[test]
    fn subset_enumeration() {
        // Specialization picks its parameter subsets by index, as here.
        let items = [1, 2, 3];
        let mut seen = Vec::new();
        for_each_combination(items.len(), 2, &mut |picked| {
            seen.push(picked.iter().map(|&i| items[i]).collect::<Vec<_>>());
            Ok(false)
        })
        .unwrap();
        assert_eq!(seen, vec![vec![1, 2], vec![1, 3], vec![2, 3]]);
        assert!(!for_each_combination(items.len(), 9, &mut |_| Ok(true)).unwrap());
        // Size 0 visits the empty subset once.
        let mut count = 0;
        for_each_combination(items.len(), 0, &mut |s| {
            assert!(s.is_empty());
            count += 1;
            Ok(false)
        })
        .unwrap();
        assert_eq!(count, 1);
    }
}
