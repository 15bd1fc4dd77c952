//! # bea-core — bounded evaluability analysis
//!
//! This crate implements the static analysis developed in *"Querying Big Data by
//! Accessing Small Data"* (Fan, Geerts, Cao, Deng, Lu — PODS 2015): deciding whether a
//! query can be answered over **any** database satisfying an *access schema* by fetching
//! an amount of data that depends only on the query and the access schema, never on the
//! size of the database.
//!
//! The crate is purely analytical: it never touches data. Data structures and algorithms:
//!
//! * [`schema`] — relation schemas and catalogs.
//! * [`value`] — the constant domain shared by queries, constraints and (in `bea-storage`) data.
//! * [`query`] — the query IR: conjunctive queries ([`query::cq`]), unions ([`query::ucq`]),
//!   positive existential queries ([`query::efo`]) and first-order queries ([`query::fo`]).
//! * [`access`] — access constraints `R(X → Y, N)` and access schemas.
//! * [`cover`] — the covered-variable fixpoint `cov(Q, A)` (Lemma 3.9) and the *covered
//!   query* effective syntax (Theorem 3.11, Corollary 3.13).
//! * [`reason`] — `A`-satisfiability (Lemma 3.2), `A`-containment and `A`-equivalence
//!   (Lemma 3.3) via bounded enumeration of `A`-instances.
//! * [`bounded`] — the bounded-evaluability analysis (BEP) built from coverage,
//!   `A`-equivalence-preserving rewrites and the unsatisfiability shortcut.
//! * [`plan`] — bounded query plans (fetch/π/σ/×/∪/−/ρ) and plan synthesis from coverage
//!   witnesses (constructive direction of Theorem 3.11).
//! * [`envelope`] — upper and lower boundedly evaluable envelopes (Section 4).
//! * [`specialize`] — bounded query specialization (Section 5, Proposition 5.4).
//!
//! Execution of plans against data lives in `bea-engine`; storage and indexes in
//! `bea-storage`.

#![deny(unsafe_code)]
pub mod access;
pub mod bounded;
pub mod cover;
pub mod envelope;
pub mod error;
pub mod plan;
pub mod query;
pub mod reason;
pub mod schema;
pub mod specialize;
pub mod value;

pub use access::{AccessConstraint, AccessSchema, Cardinality};
pub use error::{Error, Result};
pub use query::cq::ConjunctiveQuery;
pub use query::ucq::UnionQuery;
pub use query::Query;
pub use schema::{Catalog, RelationSchema};
pub use value::Value;
