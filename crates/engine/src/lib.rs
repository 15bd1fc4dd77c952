//! # bea-engine — executing bounded plans and baselines
//!
//! Two evaluators over `bea-storage` databases:
//!
//! * [`exec`] — the **bounded plan executor**: runs a [`bea_core::plan::QueryPlan`]
//!   against an [`bea_storage::IndexedDatabase`], performing every `fetch` through the
//!   index of its backing access constraint and accounting for every tuple it reads
//!   ([`stats::AccessStats`]). For a boundedly evaluable plan the number of tuples read
//!   is independent of the database size — this is the paper's headline property and the
//!   quantity the experiments report.
//! * [`naive`] — the **baseline evaluator**: answers CQ / UCQ / ∃FO⁺ queries by scanning
//!   the relations and hash-joining them, the stand-in for "just run it on the DBMS"
//!   (MySQL in the paper's Example 1.1). Its cost grows with `|D|`.
//!
//! The bounded executor is the **streaming batch pipeline** ([`ops`]): plans are
//! lowered to physical plans and run with bounded memory residency on the calling
//! thread, through two entry points — [`execute_plan`] and [`execute_physical_on`]
//! (an already-lowered plan). Beside it stands a reference it is tested
//! against, not a second way to serve a query: [`execute_plan_materialized`], the
//! literal step loop that keeps one table per plan step and materializes every
//! product in full, sharing no code with lowering.
//! [`stats::AccessStats::peak_rows_resident`] and
//! [`stats::AccessStats::product_rows_materialized`] (only the reference counts it: the
//! pipeline runs every product as a keyed lookup or a constant append) make the
//! difference observable; both read exactly the same data.
//!
//! # Batch layout and interning rules
//!
//! The streaming pipeline moves rows in **columnar batches**: a batch is a list of
//! `Arc`-shared columns plus an optional selection vector naming the logically present
//! rows. A column holds values, or points into the store: an attribute of the tuples at
//! a list of tuple offsets, so a fetched value stays where the relation keeps it until
//! the answer is built. The layout dictates what each operator costs:
//!
//! * *dedup* writes a selection vector and *project* permutes column handles —
//!   neither copies a value;
//! * a *keyed lookup* emits its fetched columns, and its source's stored columns, as
//!   tuple offsets — no value copied; only a source column of values is cloned;
//! * a *constant append* writes its constant once per row; everything else is
//!   metadata.
//!
//! What clones a value is state that must own it — a lookup's memo keys and δ's seen
//! set — a value column a lookup takes, a constant append, and the output table. Value
//! writes are O(1) because a [`bea_core::value::Value`] is 16 bytes that never
//! deep-copy: a string of at most 14 bytes is stored inline and copied with its value,
//! a longer one is written once when the value is created (data load or parse time) and
//! aliased by every clone afterwards. Lookup memos and dedup sets therefore hold either
//! their own 16 bytes or references to the same bytes the relations do.
//! [`stats::AccessStats::values_cloned`] counts every value moved between executor
//! buffers — deterministic for a plan, which is what lets the
//! committed `BENCH_pipeline.json` record the pipeline's copy traffic exactly.
//!
//! # Buffer pooling and the zero-allocation probe path
//!
//! A keyed probe allocates nothing *per key*: keys are read where they lie, postings are
//! tuple offsets in one growing list, set membership (δ, fetched keys) lands in flat
//! row tables over pooled columns, and a repeat of a key within one [`ops`]
//! `KeyedLookupOp` is served from its memo.
//! The machinery behind the guarantee, and its ownership contract:
//!
//! * every [`ops`] execution state owns a **buffer pool** of recycled column and
//!   selection-vector buffers; operators draw probe-path buffers from it and return
//!   them when a batch is retired. Buffers are always **cleared before
//!   they are pooled** — the pool holds capacity, never rows, so the residency
//!   ledger's teardown zero-assertion is unaffected;
//! * the pool belongs to a thread, not a query: it never crosses threads, and the
//!   execution state that holds it is parked on the thread between queries — a
//!   connection thread's, say — so the next query starts warm. Recycled capacity is an
//!   optimization, not state. The pool keeps at most 64 buffers, and between queries
//!   none of more than a batch's worth of values, so one large query cannot pin memory
//!   on a thread;
//! * a run of a prepared plan shares it: the plan is worked out once per template,
//!   and operators borrow their step's fields from
//!   the plan — only a predicate that compares with a request's constant is copied,
//!   with the constant in;
//! * [`stats::AccessStats::allocs_per_probe`] counts probe-path *buffer-demand*
//!   events, and the probe path has none left: every fetch runs as a keyed lookup,
//!   which demands no buffer per key, cold or warm, so nothing charges the counter
//!   and it reads 0 on every run. It stays on the wire (`bead` replies,
//!   `BENCH_pipeline.json`) until the modelled accounting is deleted as a whole; the
//!   real allocation counts come from counting-allocator tests. Like the other
//!   strategy artifacts it is excluded from [`AccessStats::same_data_access`];
//! * one row hash, [`bea_core::value::hash_row`], serves every one of those tables
//!   and the store's indexes: a fixed mixer, not SipHash — rows
//!   are loaded data and query constants, every hit is confirmed by comparing
//!   values, so a bad distribution can only lengthen a slot walk.
//!
//! # One query, one thread
//!
//! A query runs start to finish on the thread that asks for it — the caller of
//! [`execute_plan`], or of [`session::Session::run`] and its siblings. Every step of a
//! logical plan has one reader (`QueryPlan::validate` refuses any other plan), and
//! lowering maps each onto one operator, so a plan is one tree of streaming operators:
//! it is drained into the output table, the one
//! result it materializes. Nothing of a query crosses threads; its residency ledger makes
//! `peak_rows_resident` the number of rows it held at once, and every counter is a
//! function of the plan and the store.
//!
//! A bounded query touches a small slice of the data (Q0 fetches about 640 tuples),
//! so there is nothing inside one worth splitting across threads; concurrency is
//! across queries, which a [`session::Session`] admits side by side from its callers'
//! threads.
//!
//! # The store
//!
//! There is one store type, `bea_storage::IndexedDatabase`, with one index per access
//! constraint. Lowering never looks at it, and every batch of probe keys reaches it
//! through `bea_storage::IndexedDatabase::resolve`, the store's batched fetch.
//!
//! # Multi-query execution and admission control
//!
//! [`session::Session`] runs many queries side by side, each on the thread that
//! asked for it: it owns the store and the admission limits, and no thread. The
//! contract, asserted by `tests/properties.rs`:
//!
//! * **Per-query isolation.** Each query runs against its own operator tree,
//!   residency ledger and [`AccessStats`]; its rows, row order and every
//!   deterministic counter are identical to a solo [`exec::execute_plan`] run of the
//!   same plan. A failing query fails *that query only*: its error, or its panic,
//!   reaches its own caller, and every other query proceeds untouched.
//! * **Fetch-bound admission.** Every submission is priced *before* it runs by a
//!   [`bea_core::plan::CostTicket`] — the paper's bounded-evaluability guarantee
//!   makes worst-case fetch volume a static quantity — and checked against the
//!   session's aggregate fetch budget ([`session::SessionConfig::with_fetch_budget`]).
//!   A query whose own bound exceeds the budget is rejected deterministically (same
//!   verdict at any load); a query that fits the budget but not the current headroom
//!   waits, its caller blocked, in strict arrival order; at every instant the sum of
//!   admitted bounds is at most the budget
//!   ([`session::AdmissionStats::peak_admitted_bound`] is the observable high-water
//!   mark). A query's hold on the budget is released however it ends — completed,
//!   failed or unwound by a panic.
//!
//! Nothing is cached across queries. The keyed lookup's memo serves a key repeated
//! within one operator and lives as long as its query; a [`bea_core::plan::CostTicket`]
//! prices the uncached worst case anyway, and on the immutable in-memory store a probe
//! of a dense integer key is a subtraction. [`AccessStats::cache_hits`] and
//! [`AccessStats::rows_served_from_cache`] are therefore always 0.
//!
//! The `bead` crate packages a session behind a Unix-socket line protocol
//! (`bead` daemon / `beactl` client); see its docs for the wire format.
//!
//! [`table::Table`] is the shared result representation (set semantics).

#![deny(unsafe_code)]
pub mod exec;
pub mod naive;
pub mod ops;
pub mod session;
pub mod stats;
pub mod table;

pub use exec::{execute_physical_on, execute_plan, execute_plan_materialized, ExecOptions};
pub use naive::{eval_cq, eval_fo, eval_query, eval_ucq};
pub use session::{
    AdmissionStats, PreparedPlan, QueryHandle, Rejection, Session, SessionConfig, SharedStore,
    SubmitError,
};
pub use stats::AccessStats;
pub use table::Table;
