//! # bead — the bounded-evaluability query service
//!
//! A thin daemon/client pair over [`bea_engine::session::Session`]: `bead` owns a
//! store and a multi-query worker pool behind a Unix domain socket, `beactl` is the
//! one-shot client. The split mirrors the classic `daemon`/`ctl` pattern: all state
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
//! OK rows=1 fetch_bound=1 alloc_surface=4 tuples_fetched=1 values_cloned=3 allocs_per_probe=2
//! Queen's Park
//! END
//! ```
//!
//! A `QUERY` reply's head carries both halves of the cost story: the *priced*
//! quantities the admission controller judged (`fetch_bound`, `alloc_surface`) and
//! the *measured* execution counters (`tuples_fetched`, `values_cloned`,
//! `allocs_per_probe`), so a client can verify that the bound held — measured fetches
//! never exceed the bound. A rejected query answers
//! `REJECT query=… fetch_bound=… budget=…` (or `surface=… limit=…` for the
//! allocation-surface veto) and nothing is executed.
//!
//! A `STATS` reply is one `OK` head of `key=value` counters: the admission counters
//! (`submitted` … `budget`), the cache counters, who ran the queries' jobs —
//! `caller_jobs=` (connection threads) and `worker_jobs=` (the session's pool) — and
//! the store's exact footprint — `store_bytes=` (flat tuple values) and
//! `index_bytes=` (posting indexes), string payloads excluded; the daemon's start-up
//! banner carries the same two fields.
//!
//! A request line is at most 64 KiB, newline included
//! ([`server::MAX_REQUEST_LINE_BYTES`]); a longer one is answered
//! `ERR request line exceeds 65536 bytes` and the connection is closed.
//!
//! `beactl` exit codes: `0` for `OK`, `3` for `REJECT`, `1` for `ERR` or any
//! transport failure.

pub mod client;
pub mod protocol;
pub mod server;

pub use client::request;
pub use protocol::{Reply, ReplyStatus, Request, END};
pub use server::{BeadServer, ServerConfig};
