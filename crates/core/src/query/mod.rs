//! The query IR: conjunctive queries, unions, positive existential and first-order queries.
//!
//! The paper studies four query classes (Section 2):
//!
//! * **CQ** — conjunctive queries ([`cq::ConjunctiveQuery`]), built from relation atoms and
//!   equality atoms, closed under `∧` and `∃`;
//! * **UCQ** — unions of conjunctive queries ([`ucq::UnionQuery`]);
//! * **∃FO⁺** — positive existential queries ([`efo::PositiveQuery`]), closed under `∧`, `∨`
//!   and `∃`, convertible to UCQ by DNF expansion;
//! * **FO** — full first-order queries ([`fo::FirstOrderQuery`]), for which bounded
//!   evaluability is undecidable; they participate only in specialization (Section 5).
//!
//! All conjunctive queries are kept in a *normalized* form mirroring the paper's
//! assumptions: only variables occur in relation atoms and in the head, constants occur
//! only in equality atoms, and every variable is *safe* (equal to a relation-atom variable
//! or to a constant).

pub mod cq;
pub mod efo;
pub mod fo;
pub mod term;
pub mod ucq;

pub use cq::{Atom, ConjunctiveQuery, CqBuilder, Equality};
pub use efo::{PosFormula, PositiveQuery};
pub use fo::{FirstOrderQuery, Formula};
pub use term::{Arg, Term, Var};
pub use ucq::UnionQuery;

use crate::error::{Error, Result};
use crate::schema::Catalog;

/// Any query of the four classes studied in the paper.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// A conjunctive query.
    Cq(ConjunctiveQuery),
    /// A union of conjunctive queries.
    Ucq(UnionQuery),
    /// A positive existential (∃FO⁺ / SPJU) query.
    Efo(PositiveQuery),
    /// A full first-order query.
    Fo(FirstOrderQuery),
}

impl Query {
    /// The query name.
    pub fn name(&self) -> &str {
        match self {
            Query::Cq(q) => q.name(),
            Query::Ucq(q) => q.name(),
            Query::Efo(q) => q.name(),
            Query::Fo(q) => q.name(),
        }
    }

    /// The output arity.
    pub fn arity(&self) -> usize {
        match self {
            Query::Cq(q) => q.arity(),
            Query::Ucq(q) => q.arity(),
            Query::Efo(q) => q.arity(),
            Query::Fo(q) => q.arity(),
        }
    }

    /// View as a conjunctive query, if it is one.
    pub fn as_cq(&self) -> Option<&ConjunctiveQuery> {
        match self {
            Query::Cq(q) => Some(q),
            _ => None,
        }
    }

    /// Convert to a union of conjunctive queries when the query is in CQ, UCQ or ∃FO⁺
    /// (or an FO query whose body happens to be positive-existential).
    ///
    /// Returns an error for genuine FO queries, which have no UCQ equivalent in general.
    pub fn to_ucq(&self, catalog: &Catalog) -> Result<UnionQuery> {
        match self {
            Query::Cq(q) => UnionQuery::from_branches(q.name(), vec![q.clone()]),
            Query::Ucq(q) => Ok(q.clone()),
            Query::Efo(q) => q.to_ucq(catalog),
            Query::Fo(q) => q
                .to_positive()
                .ok_or_else(|| {
                    Error::invalid(
                        "first-order queries with negation or universal quantification \
                         cannot be converted to UCQ in general",
                    )
                })?
                .to_ucq(catalog),
        }
    }
}

impl From<ConjunctiveQuery> for Query {
    fn from(q: ConjunctiveQuery) -> Self {
        Query::Cq(q)
    }
}

impl From<UnionQuery> for Query {
    fn from(q: UnionQuery) -> Self {
        Query::Ucq(q)
    }
}

impl From<PositiveQuery> for Query {
    fn from(q: PositiveQuery) -> Self {
        Query::Efo(q)
    }
}

impl From<FirstOrderQuery> for Query {
    fn from(q: FirstOrderQuery) -> Self {
        Query::Fo(q)
    }
}
