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
//! lowered to physical plans and run with bounded memory residency, through three
//! entry points — [`execute_plan`] (default options), [`execute_plan_on`] and
//! [`execute_physical_on`] (a store at any shard count, explicit [`ExecOptions`]:
//! `threads`, nothing else). Beside it stands a reference it is tested
//! against, not a second way to serve a query: [`execute_plan_materialized`], the
//! literal step loop that keeps one table per plan step and materializes every
//! product in full, sharing no code with lowering.
//! [`stats::AccessStats::peak_rows_resident`] and
//! [`stats::AccessStats::product_rows_materialized`] make the difference observable;
//! both read exactly the same data.
//!
//! # Batch layout and interning rules
//!
//! The streaming pipeline moves rows in **columnar batches**: a batch is a list of
//! `Arc`-shared columns plus an optional selection vector naming the logically present
//! rows. The layout dictates what each operator costs:
//!
//! * *filter* writes a selection vector, *project* permutes column handles, and
//!   crossing a materialization point (the exchange between pipelines) clones column
//!   handles — none of these copies a value;
//! * *gathers* — joins, products and fetch output, the operators that genuinely
//!   combine rows — write values into fresh columns; everything else is metadata.
//!
//! Value writes are O(1) because a [`bea_core::value::Value`] is 16 bytes that never
//! deep-copy: a string of at most 14 bytes is stored inline and copied with its value,
//! a longer one is written once when the value is created (data load or parse time) and
//! aliased by every clone afterwards. Join keys, fetch caches and dedup sets therefore
//! hold either their own 16 bytes or references to the same bytes the relations do.
//! [`stats::AccessStats::values_cloned`] counts every value moved between executor
//! buffers — deterministic for a plan at any thread count, which is what lets the
//! committed `BENCH_pipeline.json` record the pipeline's copy traffic exactly.
//!
//! # Buffer pooling and the zero-allocation probe path
//!
//! Steady-state anchored probes — one probe key hitting a warmed
//! [`ops`] `KeyedLookupOp` cache with a fused projection — allocate nothing, and a
//! cold keyed probe allocates nothing *per key* either: keys and postings land in
//! flat pooled columns, set membership (δ, −, join build keys) in flat row tables.
//! The machinery behind the guarantee, and its ownership contract:
//!
//! * every [`ops`] execution state owns a **buffer pool** of recycled column and
//!   selection-vector buffers; operators draw probe-path buffers from it and return
//!   them when a batch or cache entry is retired. Buffers are always **cleared before
//!   they are pooled** — the pool holds capacity, never rows, so the residency
//!   ledger's teardown zero-assertion is unaffected;
//! * the pool belongs to a thread, not a job: it never crosses threads, and the
//!   execution state that holds it is parked on the thread between jobs — a session
//!   worker's, or the connection thread that runs its own query — so the next job
//!   starts warm. Recycled capacity is an optimization, not state. While a job runs
//!   the freelist cap is sized from the plan's own fetch surface (the sum of fetched
//!   positions across lookup steps, clamped to a small floor and ceiling), so tiny
//!   plans pin a handful of buffers and wide plans cannot hoard capacity; between jobs
//!   the thread keeps at most 64 buffers of at most a batch's worth of values each,
//!   so one large query cannot pin memory on a thread;
//! * a run of a prepared plan shares it: the plan, its pipeline DAG and its pool cap
//!   are worked out once per template, and operators borrow their step's fields from
//!   the plan — only a predicate that compares with a request's constant is copied,
//!   with the constant in;
//! * [`stats::AccessStats::allocs_per_probe`] counts probe-path *buffer-demand*
//!   events, and the probe path has none left: every fetch runs as a keyed lookup,
//!   which demands no buffer per key, cold or warm, so nothing charges the counter
//!   and it reads 0 on every run. It stays on the wire (`bead` replies,
//!   `BENCH_pipeline.json`) until the modelled accounting is deleted as a whole; the
//!   real allocation counts come from counting-allocator tests. Like the shard
//!   distribution it is excluded from [`AccessStats::same_data_access`];
//! * one row hash, [`bea_core::value::hash_row`], serves every one of those tables,
//!   the cache stripes and the store's indexes: a fixed mixer, not SipHash — rows
//!   are loaded data and query constants, every hit is confirmed by comparing
//!   values, so a bad distribution can only lengthen a slot walk.
//!
//! # Threading model
//!
//! One driver walks every plan's pipeline DAG — pipelines bounded by materialization
//! points, materialized results as exchange edges — whether the query runs alone or
//! in a [`session::Session`]: a job pool ([`ops`]' `sched::Pool`) whose queue holds
//! the pipelines whose sources are complete and whose one job-running routine is
//! shared by every thread involved. A solo execution runs on the calling thread,
//! joined by scoped helpers when [`ExecOptions::with_threads`] asks for more than one
//! (the default resolves to the `BEA_THREADS` environment variable or the machine's
//! available parallelism) and the plan has pipelines that can run beside each other;
//! with `threads = 1`, or a DAG one pipeline wide, the caller runs the pipelines in
//! step order, spawning nothing. Operator trees stay on one thread, and only the
//! materialized steps and the **shared residency ledger** cross threads. The ledger
//! makes `peak_rows_resident` the *true* number of simultaneously resident rows across
//! all threads. Per-job counters are combined with
//! [`AccessStats::merge_concurrent`] (peaks add — overlapping windows), in contrast to
//! [`AccessStats::merge_sequential`] / `+=` (peaks max — disjoint windows). Every
//! data-access counter is identical at any thread count.
//!
//! Parallelism stops at the pipeline: nothing cuts one pipeline across threads, and
//! lowering does not depend on the thread count, so a query runs the same physical
//! plan at every thread count and never on more threads than its DAG is wide. A
//! bounded query touches a small slice of the data (Q0 fetches about 640 tuples), so
//! splitting one would cost more coordination than it saves; threads pay across
//! queries, which a [`session::Session`] runs side by side.
//!
//! # Sharded execution: one plan, keys routed at run time
//!
//! There is one store type, `bea_storage::IndexedDatabase`, whose indexes are
//! partitioned into `shard_count ≥ 1` shards; the unsharded store is the 1-shard
//! store. The shard count changes where a key's postings are read, and nothing else:
//!
//! * **Lowering and scheduling** never look at the store: a store runs the same plan
//!   at every shard count, pipeline for pipeline, with the same ticket.
//! * **Routing** is the store's: every batch of probe keys goes to
//!   `bea_storage::IndexedDatabase::resolve`, which sends each key to the shard that
//!   owns it (`bea_storage::shard_of`, a deterministic hash) and reports the serving
//!   shard.
//! * **Accounting**: [`AccessStats::rows_fetched_by_shard`] splits `tuples_fetched`
//!   by serving shard (the two always sum up), so boundedness is assertable per
//!   shard; the distribution is a placement artifact and excluded from
//!   [`AccessStats::same_data_access`]. Rows, row order, data-access totals and copy
//!   traffic are identical at every shard count — partitioning relocates bounded
//!   work, it never adds any.
//!
//! # Multi-query execution and admission control
//!
//! [`session::Session`] keeps that job pool alive across queries: it owns the store,
//! persistent workers, the admission limits and the fetch cache, and
//! [`session::Session::submit`] interleaves the pipelines of many
//! concurrently admitted queries in the pool's single job queue. The contract, asserted by
//! `tests/properties.rs` across the thread × shard matrix:
//!
//! * **Per-query isolation.** Each admitted query runs against its own
//!   materialization slots, residency ledger and [`AccessStats`]; its rows, row
//!   order and every deterministic counter are identical to a solo
//!   [`exec::execute_plan_on`] run of the same plan. The first failing job of a
//!   query fails *that query only* — its queued jobs are discarded, its error (or
//!   re-raised panic) is delivered on [`session::QueryHandle::wait`], and every
//!   other query proceeds untouched.
//! * **Fetch-bound admission.** Every submission is priced *before* it runs by a
//!   [`bea_core::plan::CostTicket`] — the paper's bounded-evaluability guarantee
//!   makes worst-case fetch volume a static quantity — and checked against the
//!   session's aggregate fetch budget ([`session::FETCH_BUDGET_ENV`], or
//!   [`session::SessionConfig::with_fetch_budget`]). A query whose own bound
//!   exceeds the budget is rejected deterministically (same verdict at any load); a
//!   query that fits the budget but not the current headroom queues FIFO; at every
//!   instant the sum of admitted bounds is at most the budget
//!   ([`session::AdmissionStats::peak_admitted_bound`] is the observable
//!   high-water mark).
//! * **FIFO across queries.** A worker takes the queue front, whichever query it
//!   belongs to.
//! * **Callers run their own query.** The thread inside [`session::Session::run`]
//!   (the synchronous entry) or [`session::QueryHandle::wait`] executes its query's
//!   ready jobs through the same code as a worker and blocks only when none is
//!   ready, so a query that is never wider than one job wakes no worker at all.
//!
//! # The cross-query fetch cache — ownership and coherence
//!
//! A session may also own a **cross-query fetch-result cache**
//! ([`session::SessionConfig::with_cache_budget_rows`] /
//! [`session::CACHE_ROWS_ENV`]; 0 or unset = disabled): a striped, bounded LRU
//! hot tier keyed by `(constraint, key)` holding the `Arc`-shared posting columns
//! an anchored lookup produced. Its contract:
//!
//! * **Ownership.** The cache belongs to the session, not to any query: entries
//!   hold column handles (refcounts, never value copies), resident rows are
//!   charged to the cache's *own* residency ledger — not to any query's — and the
//!   whole tier is drained when the session drops. The store is immutable for the
//!   session's lifetime, so there is no invalidation protocol: coherence is by
//!   construction.
//! * **Settled probe semantics.** A hit is one hash lookup plus a refcount bump —
//!   no store fetch, no index probe, no probe-path buffer demand. It bumps only
//!   [`AccessStats::cache_hits`] / [`AccessStats::rows_served_from_cache`]
//!   (additive, excluded from [`AccessStats::same_data_access`]); `tuples_fetched`,
//!   `index_lookups` and `allocs_per_probe` record genuine store traffic only, so
//!   a warm repeat reports `tuples_fetched == 0` and `allocs_per_probe == 0`. A
//!   miss runs the one arena fetch every lookup runs — byte-for-byte the counters a
//!   cache-disabled session produces — and publishes a copy of its result exactly once
//!   (concurrent probes of the same key block on the filling query rather than
//!   fetching twice).
//! * **Bounded, loudly.** Eviction is approximately least-recently-used over
//!   resident rows against the configured row budget (recency is a relaxed clock, and
//!   a batch's hits are taken before its fills; see `cache.rs`). A posting list longer
//!   than the whole budget is never published: its fill claim is withdrawn, so no
//!   resident entry is evicted for it and waiting probes re-probe as after a failed
//!   fill. Admission control never reads the cache: a repeat query is priced
//!   at its *uncached* worst case, because cached rows can be evicted between
//!   pricing and execution — the bound must hold either way.
//!
//! The `bead` crate packages a session behind a Unix-socket line protocol
//! (`bead` daemon / `beactl` client); see its docs for the wire format.
//!
//! [`table::Table`] is the shared result representation (set semantics).

#![deny(unsafe_code)]
pub(crate) mod cache;
pub mod exec;
pub mod naive;
pub mod ops;
pub mod session;
pub mod stats;
pub mod table;

pub use cache::CacheStats;

pub use exec::{
    execute_physical_on, execute_plan, execute_plan_materialized, execute_plan_on, ExecOptions,
    THREADS_ENV,
};
pub use naive::{eval_cq, eval_fo, eval_query, eval_ucq};
pub use session::{
    parse_cache_rows, parse_fetch_budget, AdmissionStats, PreparedPlan, QueryHandle, Rejection,
    Session, SessionConfig, SharedStore, SubmitError, CACHE_ROWS_ENV, FETCH_BUDGET_ENV,
};
pub use stats::AccessStats;
pub use table::Table;
