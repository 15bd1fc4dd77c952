//! Variables, terms and builder arguments.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A query variable, identified by its index in the owning query's variable table.
///
/// Variables are interned per query: the same name in two different queries yields two
/// unrelated `Var` values. Use [`crate::query::cq::ConjunctiveQuery::var_name`] to recover
/// the human-readable name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Var(pub u32);

impl Var {
    /// The variable's index in the owning query's variable table.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A term: a variable or a constant.
///
/// Normalized conjunctive queries only carry variables inside relation atoms; terms appear
/// in the ∃FO⁺ / FO formula trees and in builder input.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant.
    Const(Value),
}

impl Term {
    /// The constant, if the term is one.
    pub fn as_const(&self) -> Option<&Value> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(c),
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Self {
        Term::Var(v)
    }
}

impl From<Value> for Term {
    fn from(v: Value) -> Self {
        Term::Const(v)
    }
}

/// A builder argument: a named variable or a constant.
///
/// `Arg` exists so that query builders can accept a natural mix of variable names and
/// constants:
///
/// ```
/// use bea_core::query::term::Arg;
/// use bea_core::value::Value;
///
/// let v: Arg = "district".into();            // a variable named `district`
/// let c: Arg = Value::str("Queen's Park").into(); // a string constant
/// let n: Arg = 610.into();                    // an integer constant
/// assert!(matches!(v, Arg::Var(_)));
/// assert!(matches!(c, Arg::Const(_)));
/// assert!(matches!(n, Arg::Const(_)));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub enum Arg {
    /// A variable, referenced by name.
    Var(String),
    /// A constant value.
    Const(Value),
}

impl Arg {
    /// Build a variable argument.
    pub fn var(name: impl Into<String>) -> Self {
        Arg::Var(name.into())
    }

    /// Build a constant argument.
    pub fn val(value: impl Into<Value>) -> Self {
        Arg::Const(value.into())
    }
}

impl From<&str> for Arg {
    fn from(name: &str) -> Self {
        Arg::Var(name.to_owned())
    }
}

impl From<String> for Arg {
    fn from(name: String) -> Self {
        Arg::Var(name)
    }
}

impl From<Value> for Arg {
    fn from(value: Value) -> Self {
        Arg::Const(value)
    }
}

impl From<i64> for Arg {
    fn from(value: i64) -> Self {
        Arg::Const(Value::Int(value))
    }
}

impl From<bool> for Arg {
    fn from(value: bool) -> Self {
        Arg::Const(Value::Bool(value))
    }
}

impl fmt::Display for Arg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Arg::Var(name) => write!(f, "{name}"),
            Arg::Const(value) => write!(f, "{value}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_display_and_index() {
        assert_eq!(Var(3).to_string(), "?3");
        assert_eq!(Var(3).index(), 3);
    }

    #[test]
    fn term_accessors() {
        let t = Term::Var(Var(1));
        assert_eq!(t.as_const(), None);
        let c = Term::Const(Value::int(5));
        assert_eq!(c.as_const(), Some(&Value::int(5)));
        assert_eq!(Term::from(Var(0)).to_string(), "?0");
        assert_eq!(Term::from(Value::int(2)).to_string(), "2");
    }

    #[test]
    fn arg_conversions() {
        assert_eq!(Arg::from("x"), Arg::Var("x".into()));
        assert_eq!(Arg::from(String::from("y")), Arg::Var("y".into()));
        assert_eq!(Arg::from(7i64), Arg::Const(Value::int(7)));
        assert_eq!(Arg::from(true), Arg::Const(Value::Bool(true)));
        assert_eq!(Arg::from(Value::str("s")), Arg::Const(Value::str("s")));
        assert_eq!(Arg::var("z"), Arg::Var("z".into()));
        assert_eq!(Arg::val(1i64), Arg::Const(Value::int(1)));
    }

    #[test]
    fn arg_display() {
        assert_eq!(Arg::var("x").to_string(), "x");
        assert_eq!(Arg::val(Value::str("a")).to_string(), "\"a\"");
    }
}
