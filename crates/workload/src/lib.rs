//! # bea-workload — synthetic data and query generators
//!
//! The paper's experimental claims are made on datasets we cannot ship (the UK
//! road-accident database, real-life Web graphs, production e-commerce queries). This
//! crate builds synthetic substitutes that preserve what matters for bounded
//! evaluability: the schemas, the cardinality profiles behind the access constraints, and
//! the shapes of the query workloads. Each module's docs describe its substitution.
//!
//! * [`accidents`] — the UK road-accidents workload of Example 1.1 (`Accident`,
//!   `Casualty`, `Vehicle`; constraints ψ1–ψ4; query `Q0` and its parameterized form of
//!   Example 5.1).
//! * [`graph`] — a social-graph workload for the "Graph Search" personalized queries the
//!   introduction cites (degree-bounded friendship graph, persons with cities, likes).
//! * [`ecommerce`] — a product/order workload with parameterized queries, used by the
//!   query-specialization experiment.
//! * [`querygen`] — a random conjunctive-query generator over any catalog, used by the
//!   coverage-rate experiment (what fraction of a workload is covered by a constraint
//!   set of a given size).

#![deny(unsafe_code)]
pub mod accidents;
pub mod ecommerce;
pub mod graph;
pub mod querygen;
