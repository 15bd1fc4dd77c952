//! # bea — Bounded Evaluability Analysis
//!
//! Facade crate re-exporting the `bea` workspace: an implementation of
//! *"Querying Big Data by Accessing Small Data"* (Fan, Geerts, Cao, Deng, Lu — PODS 2015).
//!
//! The workspace provides:
//!
//! * [`core`] — query IR (CQ / UCQ / ∃FO⁺ / FO), access schemas, the covered-query
//!   effective syntax, A-satisfiability / A-containment reasoning, bounded-evaluability
//!   analysis, bounded query plans, envelopes and query specialization.
//! * [`storage`] — an in-memory relational store with the hash indexes mandated by
//!   access constraints, constraint validation and constraint discovery.
//! * [`engine`] — a bounded-plan executor with access accounting and a naive
//!   full-scan baseline evaluator.
//! * [`parser`] — a datalog-style text syntax for queries and access constraints.
//! * [`workload`] — synthetic data and query generators used by the examples,
//!   tests and benchmarks.
//! * [`bench`](mod@bench) — the experiment harness behind the `exp_*` binaries and criterion
//!   benches: scenario builders, chain-query families, report helpers.
//!
//! ## Quickstart
//!
//! ```
//! use bea::parser::{parse_query, parse_access_schema};
//! use bea::core::cover::coverage;
//!
//! let catalog = bea::workload::accidents::catalog();
//! let schema = parse_access_schema(
//!     &catalog,
//!     "Accident(date -> aid, 610);
//!      Casualty(aid -> vid, 192);
//!      Accident(aid -> district, date, 1);
//!      Vehicle(vid -> driver, age, 1);",
//! ).unwrap();
//! let q0 = parse_query(
//!     &catalog,
//!     r#"Q(age) :- Accident(aid, d, t), Casualty(cid, aid, cls, vid),
//!                 Vehicle(vid, dri, age), d = "Queen's Park", t = "1/5/2005"."#,
//! ).unwrap();
//! let report = coverage(q0.as_cq().unwrap(), &schema);
//! assert!(report.is_covered());
//! ```

#![deny(unsafe_code)]
pub use bea_bench as bench;
pub use bea_core as core;
pub use bea_engine as engine;
pub use bea_parser as parser;
pub use bea_storage as storage;
pub use bea_workload as workload;
