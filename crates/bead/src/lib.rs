//! # bead — the bounded-evaluability query service
//!
//! A thin daemon/client pair over [`bea_engine::session::Session`]: `bead` owns a
//! store and a session behind a Unix domain socket, and runs each query on the thread
//! of the connection that sent it; `beactl` is the one-shot client. The split mirrors the classic `daemon`/`ctl` pattern: all state
//! lives in the daemon; the client serializes one request, prints the reply, and
//! exits with a status that scripts can branch on.
//!
//! The service exists because bounded evaluability makes admission control *exact*:
//! every query is priced by a [`bea_core::plan::CostTicket`] before it runs, so the
//! daemon can guarantee an aggregate worst-case fetch volume across everything it
//! admits — `REJECT` is a static verdict, not a timeout.
//!
//! ## Wire protocol
//!
//! Line-oriented text over a Unix socket. One request per line:
//!
//! ```text
//! PING
//! QUERY Q(d) :- Accident(x, d, t), x = 1.
//! STATS
//! SHUTDOWN
//! ```
//!
//! Every reply is a head line — `OK …`, `REJECT …` or `ERR …` — followed by zero or
//! more body lines (tab-separated result rows for `QUERY`), terminated by a line
//! holding exactly `END`:
//!
//! ```text
//! OK rows=1 fetch_bound=1 alloc_surface=5 tuples_fetched=1 values_cloned=7 allocs_per_probe=0 cache_hits=0 rows_served_from_cache=0
//! "district-010"
//! END
//! ```
//!
//! A `QUERY` reply's head carries both halves of the cost story: the *priced*
//! quantities of the query's ticket (`fetch_bound`, which admission judges, and
//! `alloc_surface`) and the *measured* execution counters (`tuples_fetched`,
//! `values_cloned`, `allocs_per_probe`), so a client can verify that the bound held —
//! measured fetches never exceed the bound. Its last two fields, `cache_hits` and
//! `rows_served_from_cache`, are always 0: nothing is cached across queries, and they
//! stay only because the benchmark harness under `benchmark/` judges an `OK` without
//! `rows_served_from_cache=` as wrong (ROADMAP direction 17 deletes them).
//! A rejected query answers `REJECT query=… fetch_bound=… budget=…` and nothing is
//! executed.
//!
//! A `STATS` reply is one `OK` head of `key=value` counters: the admission counters
//! (`submitted` … `budget`), the plan table (`plan_templates=` entries held, `plan_hits=` requests served from one,
//! `plan_misses=` all other `QUERY` requests), and the store's exact footprint —
//! `store_bytes=` (flat tuple values) and `index_bytes=` (posting indexes), string
//! payloads excluded; the daemon's start-up banner carries the same two fields.
//!
//! ## One path for a `QUERY`: split → look up or prepare → admit → run
//!
//! Whether `Q(x̄ = c̄)` is covered, and the plan and the bound that follow, depend on
//! *which* variables are constants and which constants coincide, never on their values
//! (Section 5 of the paper; [`bea_core::specialize`] plans against pairwise distinct
//! labelled nulls for that reason). Clients send a handful of rule texts that differ
//! only in their constants, so the daemon plans once per *template*:
//!
//! 1. **split** — one scan of the lexer ([`bea_parser::Skeleton::of`]) yields the
//!    template key (the tokens with every integer and string literal blanked to its
//!    kind and class, so `x = 1, y = 1` and `x = 1, y = 2` are different templates and
//!    layout and comments are none) and the text's distinct literals;
//! 2. **look up or prepare** — a hit in the plan table is an `Arc` clone. A miss
//!    parses the text with a placeholder per literal class
//!    ([`bea_parser::parse_template`]), runs coverage and synthesis on that, and has
//!    the session lower, validate and price the plan
//!    ([`bea_engine::session::Session::prepare`]). Validation and pricing are per
//!    template because nothing they read can change between requests: the store is
//!    immutable, and the plan's shape — fetch steps, constraint indexes, fetch
//!    bound, allocation surface — holds no value;
//! 3. **admit → run** — [`bea_engine::session::Session::run_prepared`] checks the
//!    stored ticket against the budget (a `REJECT` costs no clone) and runs the
//!    prepared plan in place on the connection's thread: the request carries only its
//!    literals, and each operator reads its placeholders' values from them when it is
//!    built — no copy of the plan. This is the only step a request served from the
//!    table pays for.
//!
//! A text the lexer refuses, and a template that fails to parse or plan, store nothing:
//! the request is then served from the literal text ([`BeadServer::query_unprepared`] —
//! parse, plan, prepare, run, as every request was before the table existed), so an
//! `ERR` names the text's own line, column and constants. Replies are byte-identical
//! on both routes; `crates/bead/tests/templates.rs` holds that property.
//!
//! The table is bounded by construction, by constants in the code: at most
//! [`server::MAX_PLAN_TEMPLATES`] (1024) entries, keys of at most
//! [`server::MAX_TEMPLATE_KEY_BYTES`] (4 KiB) — 4 MiB of retained client text at worst,
//! plus one prepared plan per entry. A longer key is served unprepared; a template that
//! would be entry 1025 finds the table dropped and starts its refill. Keys are client
//! text, so the map keeps std's keyed SipHash.
//!
//! A request line is at most 64 KiB, newline included
//! ([`server::MAX_REQUEST_LINE_BYTES`]); a longer one is answered
//! `ERR request line exceeds 65536 bytes` and the connection is closed.
//!
//! `beactl` exit codes: `0` for `OK`, `3` for `REJECT`, `1` for `ERR` or any
//! transport failure.

#![deny(unsafe_code)]
pub mod client;
pub mod protocol;
pub mod server;

pub use client::request;
pub use protocol::{Reply, ReplyStatus, Request, END};
pub use server::{BeadServer, ServerConfig};
