//! # bea-bench — the experiment harness
//!
//! Every table, figure and quantitative claim of the paper has a regenerating harness
//! here. This table is the experiment index; each binary prints its results as a
//! markdown report:
//!
//! | experiment | binary |
//! |------------|--------|
//! | E1 — Table 1 (complexity of BEP/CQP/UEP/LEP/QSP per query class) | `exp_table1` |
//! | E2 — Example 1.1 (Q0 on the accidents data, bounded vs full scan) | `exp_accidents` |
//! | E3 — "77% of CQs are boundedly evaluable under 84 constraints" | `exp_coverage_rate` |
//! | E4 — graph pattern queries, bounded vs subgraph matching | `exp_graph` |
//! | E5 — envelope approximation bounds (Section 4) | `exp_envelopes` |
//! | E6 — bounded specialization (Section 5, Example 5.1) | `exp_specialization` |
//! | E7 — ablations (effective syntax vs semantic analysis, rewrites, budgets) | `exp_table1` |
//!
//! `exp_table1` also writes the perf record `BENCH_pipeline.json` at the workspace root
//! ([`scenarios::pipeline_bench_report`]); a `scenarios` test checks the committed file
//! against a fresh build of it, byte for byte.
//!
//! The library part holds the pieces shared by the binaries and the tests: scenario
//! builders ([`scenarios`]), chain-query families for the complexity experiment
//! ([`families`]), and small text-table helpers ([`report`]).

#![deny(unsafe_code)]
pub mod families;
pub mod report;
pub mod scenarios;
