//! # bea-bench — the experiment harness
//!
//! Every table, figure and quantitative claim of the paper has a regenerating harness
//! here, and one binary, `exp_table1`, runs them all and prints a markdown report.
//! This table is the experiment index:
//!
//! | experiment | where |
//! |------------|-------|
//! | E1 — Table 1 (complexity of BEP/CQP/UEP/LEP/QSP per query class) | `exp_table1`, asserted |
//! | E2 — Example 1.1 (Q0 on the accidents data, bounded vs full scan) | [`claims`], `e2.*` |
//! | E3 — "77% of CQs are boundedly evaluable under 84 constraints" | [`claims`], `e3.*` |
//! | E4 — graph pattern queries, bounded vs subgraph matching | [`claims`], `e4.*` |
//! | E5 — envelope approximation bounds (Section 4) | [`claims`], `e5.*` |
//! | E6 — bounded specialization (Section 5, Example 5.1) | [`claims`], `e6.*` |
//! | E7 — ablations (effective syntax vs semantic analysis, rewrites, budgets) | `exp_table1` |
//!
//! `exp_table1` also writes the perf record `BENCH_pipeline.json` at the workspace root
//! ([`scenarios::pipeline_bench_report`]): the `scenarios` counters and the `claims`
//! of E2–E6. A `scenarios` test checks the committed file against a fresh build of it,
//! byte for byte; `docs/CLAIMS.md` sets each claim beside the paper's number. The
//! pipeline's properties on those scenarios — streaming ≡ the literal reference, solo ≡
//! served, the service's accept/reject split — are asserted by the `scenarios` tests at
//! the record's sizes, not by the binary.
//!
//! The library part holds the pieces shared by the binary and the tests: the claims
//! builder ([`claims`]), scenario builders ([`scenarios`]), chain-query families for
//! the complexity experiment ([`families`]), and small text-table helpers ([`report`]).

#![deny(unsafe_code)]
pub mod claims;
pub mod families;
pub mod report;
pub mod scenarios;
