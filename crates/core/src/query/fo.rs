//! Full first-order queries (FO).
//!
//! Bounded evaluability is undecidable for FO [Fan, Geerts, Libkin — PODS 2014], so the
//! analyses of this crate only handle FO queries through:
//!
//! * conversion to ∃FO⁺ when the query happens to be positive-existential
//!   ([`FirstOrderQuery::to_positive`]), and
//! * bounded query specialization (Section 5): instantiating parameters
//!   ([`FirstOrderQuery::specialized`]) and the syntactic guarantee of Proposition 5.4.
//!
//! The naive baseline evaluator in `bea-engine` can evaluate FO queries over the active
//! domain of small instances, which is what the reasoning procedures need.

use crate::query::efo::{PosFormula, PositiveQuery};
use crate::query::term::Arg;
use crate::value::Value;
use std::collections::BTreeSet;
use std::fmt;

/// A first-order formula.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// A relation atom.
    Atom {
        /// The relation name.
        relation: String,
        /// The arguments (variables by name, or constants).
        args: Vec<Arg>,
    },
    /// An equality atom.
    Eq(Arg, Arg),
    /// Negation.
    Not(Box<Formula>),
    /// Conjunction.
    And(Vec<Formula>),
    /// Disjunction.
    Or(Vec<Formula>),
    /// Existential quantification.
    Exists(Vec<String>, Box<Formula>),
    /// Universal quantification.
    Forall(Vec<String>, Box<Formula>),
}

impl Formula {
    /// Convenience constructor for a relation atom.
    pub fn atom<A: Into<Arg>>(
        relation: impl Into<String>,
        args: impl IntoIterator<Item = A>,
    ) -> Self {
        Formula::Atom {
            relation: relation.into(),
            args: args.into_iter().map(Into::into).collect(),
        }
    }

    /// Convenience constructor for an equality atom.
    pub fn eq(left: impl Into<Arg>, right: impl Into<Arg>) -> Self {
        Formula::Eq(left.into(), right.into())
    }

    /// Convenience constructor for negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(f: Formula) -> Self {
        Formula::Not(Box::new(f))
    }

    /// Convenience constructor for existential quantification.
    pub fn exists<S: Into<String>>(vars: impl IntoIterator<Item = S>, body: Formula) -> Self {
        Formula::Exists(vars.into_iter().map(Into::into).collect(), Box::new(body))
    }

    /// Free variable names of the formula.
    pub fn free_vars(&self) -> BTreeSet<String> {
        fn go(f: &Formula, bound: &mut Vec<String>, out: &mut BTreeSet<String>) {
            let collect_arg = |a: &Arg, bound: &Vec<String>, out: &mut BTreeSet<String>| {
                if let Arg::Var(name) = a {
                    if !bound.contains(name) {
                        out.insert(name.clone());
                    }
                }
            };
            match f {
                Formula::Atom { args, .. } => {
                    for a in args {
                        collect_arg(a, bound, out);
                    }
                }
                Formula::Eq(l, r) => {
                    collect_arg(l, bound, out);
                    collect_arg(r, bound, out);
                }
                Formula::Not(inner) => go(inner, bound, out),
                Formula::And(fs) | Formula::Or(fs) => {
                    for f in fs {
                        go(f, bound, out);
                    }
                }
                Formula::Exists(vars, body) | Formula::Forall(vars, body) => {
                    let before = bound.len();
                    bound.extend(vars.iter().cloned());
                    go(body, bound, out);
                    bound.truncate(before);
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut Vec::new(), &mut out);
        out
    }

    /// All variable names occurring in the formula, free or bound.
    pub fn all_vars(&self) -> BTreeSet<String> {
        fn go(f: &Formula, out: &mut BTreeSet<String>) {
            let collect_arg = |a: &Arg, out: &mut BTreeSet<String>| {
                if let Arg::Var(name) = a {
                    out.insert(name.clone());
                }
            };
            match f {
                Formula::Atom { args, .. } => {
                    for a in args {
                        collect_arg(a, out);
                    }
                }
                Formula::Eq(l, r) => {
                    collect_arg(l, out);
                    collect_arg(r, out);
                }
                Formula::Not(inner) => go(inner, out),
                Formula::And(fs) | Formula::Or(fs) => {
                    for f in fs {
                        go(f, out);
                    }
                }
                Formula::Exists(vars, body) | Formula::Forall(vars, body) => {
                    out.extend(vars.iter().cloned());
                    go(body, out);
                }
            }
        }
        let mut out = BTreeSet::new();
        go(self, &mut out);
        out
    }

    /// True when the formula uses neither negation nor universal quantification.
    pub fn is_positive_existential(&self) -> bool {
        match self {
            Formula::Atom { .. } | Formula::Eq(_, _) => true,
            Formula::Not(_) | Formula::Forall(_, _) => false,
            Formula::And(fs) | Formula::Or(fs) => fs.iter().all(Formula::is_positive_existential),
            Formula::Exists(_, body) => body.is_positive_existential(),
        }
    }

    /// Convert to a positive formula, if [`Formula::is_positive_existential`] holds.
    pub fn to_positive(&self) -> Option<PosFormula> {
        match self {
            Formula::Atom { relation, args } => Some(PosFormula::Atom {
                relation: relation.clone(),
                args: args.clone(),
            }),
            Formula::Eq(l, r) => Some(PosFormula::Eq(l.clone(), r.clone())),
            Formula::Not(_) | Formula::Forall(_, _) => None,
            Formula::And(fs) => fs
                .iter()
                .map(Formula::to_positive)
                .collect::<Option<Vec<_>>>()
                .map(PosFormula::And),
            Formula::Or(fs) => fs
                .iter()
                .map(Formula::to_positive)
                .collect::<Option<Vec<_>>>()
                .map(PosFormula::Or),
            Formula::Exists(vars, body) => body
                .to_positive()
                .map(|b| PosFormula::Exists(vars.clone(), Box::new(b))),
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Formula::Atom { relation, args } => {
                let args = args.iter().map(Arg::to_string).collect::<Vec<_>>();
                write!(f, "{relation}({})", args.join(", "))
            }
            Formula::Eq(l, r) => write!(f, "{l} = {r}"),
            Formula::Not(inner) => write!(f, "¬({inner})"),
            Formula::And(fs) => {
                let parts = fs.iter().map(|x| format!("({x})")).collect::<Vec<_>>();
                write!(f, "{}", parts.join(" ∧ "))
            }
            Formula::Or(fs) => {
                let parts = fs.iter().map(|x| format!("({x})")).collect::<Vec<_>>();
                write!(f, "{}", parts.join(" ∨ "))
            }
            Formula::Exists(vars, body) => write!(f, "∃{}({body})", vars.join(", ")),
            Formula::Forall(vars, body) => write!(f, "∀{}({body})", vars.join(", ")),
        }
    }
}

/// A first-order query with a designated parameter set (Section 5).
#[derive(Debug, Clone, PartialEq)]
pub struct FirstOrderQuery {
    name: String,
    head: Vec<Arg>,
    body: Formula,
    params: Vec<String>,
}

impl FirstOrderQuery {
    /// Build a first-order query.
    pub fn new<A: Into<Arg>>(
        name: impl Into<String>,
        head: impl IntoIterator<Item = A>,
        body: Formula,
    ) -> Self {
        Self {
            name: name.into(),
            head: head.into_iter().map(Into::into).collect(),
            body,
            params: Vec::new(),
        }
    }

    /// Declare the parameter names.
    pub fn with_params<S: Into<String>>(mut self, params: impl IntoIterator<Item = S>) -> Self {
        self.params = params.into_iter().map(Into::into).collect();
        self
    }

    /// The query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The head arguments.
    pub fn head(&self) -> &[Arg] {
        &self.head
    }

    /// The output arity.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// The body formula.
    pub fn body(&self) -> &Formula {
        &self.body
    }

    /// The declared parameter names.
    pub fn params(&self) -> &[String] {
        &self.params
    }

    /// True when every variable of the query is declared as a parameter
    /// ("fully parameterized", Proposition 5.4).
    pub fn is_fully_parameterized(&self) -> bool {
        let all = self.body.all_vars();
        let declared: BTreeSet<&String> = self.params.iter().collect();
        all.iter().all(|v| declared.contains(v))
    }

    /// Convert to a positive existential query, if the body is negation- and ∀-free.
    pub fn to_positive(&self) -> Option<PositiveQuery> {
        self.body.to_positive().map(|body| {
            PositiveQuery::new(self.name.clone(), self.head.iter().cloned(), body)
                .with_params(self.params.iter().cloned())
        })
    }

    /// The specialized query `Q(x̄ = c̄)`: conjoin `x = c` in the scope where each
    /// parameter is bound (or at the top level for free parameters).
    ///
    /// Following Section 5, the equalities are added *inside* the quantifier prefix, so
    /// both free and bound parameters can be instantiated.
    ///
    /// Kept public though only tests call it: it is Section 5's definition of a
    /// specialized query for FO, whose Table 1 row is undecidable and has no procedure.
    pub fn specialized(&self, bindings: &[(String, Value)]) -> FirstOrderQuery {
        let mut body = self.body.clone();
        for (name, value) in bindings {
            let eq = Formula::Eq(Arg::Var(name.clone()), Arg::Const(value.clone()));
            let mut attached = false;
            body = attach_equality(body, name, &eq, &mut attached);
            if !attached {
                body = Formula::And(vec![body, eq]);
            }
        }
        FirstOrderQuery {
            name: format!("{}_spec", self.name),
            head: self.head.clone(),
            body,
            params: self.params.clone(),
        }
    }
}

/// Attach `eq` directly under the outermost quantifier binding `name`. Returns the new
/// formula; sets `attached` when a binder was found.
fn attach_equality(f: Formula, name: &str, eq: &Formula, attached: &mut bool) -> Formula {
    if *attached {
        return f;
    }
    match f {
        Formula::Exists(vars, body) => {
            if vars.iter().any(|v| v == name) {
                *attached = true;
                Formula::Exists(vars, Box::new(Formula::And(vec![*body, eq.clone()])))
            } else {
                Formula::Exists(vars, Box::new(attach_equality(*body, name, eq, attached)))
            }
        }
        Formula::Forall(vars, body) => {
            if vars.iter().any(|v| v == name) {
                *attached = true;
                Formula::Forall(vars, Box::new(Formula::And(vec![*body, eq.clone()])))
            } else {
                Formula::Forall(vars, Box::new(attach_equality(*body, name, eq, attached)))
            }
        }
        Formula::Not(inner) => Formula::Not(Box::new(attach_equality(*inner, name, eq, attached))),
        Formula::And(fs) => Formula::And(
            fs.into_iter()
                .map(|x| attach_equality(x, name, eq, attached))
                .collect(),
        ),
        Formula::Or(fs) => Formula::Or(
            fs.into_iter()
                .map(|x| attach_equality(x, name, eq, attached))
                .collect(),
        ),
        leaf => leaf,
    }
}

impl fmt::Display for FirstOrderQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head = self.head.iter().map(Arg::to_string).collect::<Vec<_>>();
        write!(f, "{}({}) := {}", self.name, head.join(", "), self.body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn free_and_all_vars() {
        let f = Formula::exists(
            ["y"],
            Formula::And(vec![
                Formula::atom("R", ["x", "y"]),
                Formula::not(Formula::atom("S", ["y", "z"])),
            ]),
        );
        assert_eq!(f.free_vars(), BTreeSet::from(["x".into(), "z".into()]));
        assert_eq!(
            f.all_vars(),
            BTreeSet::from(["x".into(), "y".into(), "z".into()])
        );
    }

    #[test]
    fn positivity_detection() {
        let pos = Formula::exists(["y"], Formula::atom("R", ["x", "y"]));
        assert!(pos.is_positive_existential());
        assert!(pos.to_positive().is_some());

        let neg = Formula::not(Formula::atom("R", ["x", "y"]));
        assert!(!neg.is_positive_existential());
        assert!(neg.to_positive().is_none());

        let forall = Formula::Forall(vec!["y".into()], Box::new(Formula::atom("R", ["x", "y"])));
        assert!(!forall.is_positive_existential());
        assert!(Formula::Or(vec![forall]).to_positive().is_none());
    }

    #[test]
    fn fo_query_to_positive() {
        let q = FirstOrderQuery::new(
            "Q",
            ["x"],
            Formula::exists(["y"], Formula::atom("R", ["x", "y"])),
        )
        .with_params(["x"]);
        let p = q.to_positive().unwrap();
        assert_eq!(p.name(), "Q");
        assert_eq!(p.params(), &["x".to_owned()]);

        let q_neg = FirstOrderQuery::new("Q", ["x"], Formula::not(Formula::atom("R", ["x", "x"])));
        assert!(q_neg.to_positive().is_none());
    }

    #[test]
    fn specialization_of_free_parameter() {
        let q = FirstOrderQuery::new("Q", ["x"], Formula::atom("R", ["x", "y"])).with_params(["y"]);
        let s = q.specialized(&[("y".into(), Value::int(3))]);
        // The equality is conjoined at the top level because y is free.
        match s.body() {
            Formula::And(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], Formula::Eq(_, _)));
            }
            other => panic!("expected top-level conjunction, got {other}"),
        }
        assert_eq!(s.arity(), 1);
    }

    #[test]
    fn specialization_of_bound_parameter_goes_under_its_binder() {
        let q = FirstOrderQuery::new(
            "Q",
            ["x"],
            Formula::exists(
                ["y"],
                Formula::And(vec![
                    Formula::atom("R", ["x", "y"]),
                    Formula::Forall(vec!["z".into()], Box::new(Formula::atom("S", ["y", "z"]))),
                ]),
            ),
        )
        .with_params(["y"]);
        let s = q.specialized(&[("y".into(), Value::str("nyc"))]);
        match s.body() {
            Formula::Exists(vars, body) => {
                assert_eq!(vars, &vec!["y".to_owned()]);
                assert!(matches!(**body, Formula::And(_)));
            }
            other => panic!("expected ∃y(...), got {other}"),
        }
    }

    #[test]
    fn fully_parameterized_detection() {
        let q = FirstOrderQuery::new(
            "Q",
            ["x"],
            Formula::exists(["y"], Formula::atom("R", ["x", "y"])),
        );
        assert!(!q.clone().with_params(["x"]).is_fully_parameterized());
        assert!(q.with_params(["x", "y"]).is_fully_parameterized());
    }

    #[test]
    fn display_contains_quantifiers_and_negation() {
        let q = FirstOrderQuery::new(
            "Q",
            ["x"],
            Formula::Forall(
                vec!["y".into()],
                Box::new(Formula::not(Formula::atom("R", ["x", "y"]))),
            ),
        );
        let s = q.to_string();
        assert!(s.contains("∀y"));
        assert!(s.contains("¬"));
        assert!(Formula::eq("x", 1i64).to_string().contains("x = 1"));
    }
}
