//! # bea-storage — relational storage with access-constraint indexes
//!
//! The substrate the paper assumes: an in-memory relational store whose physical design
//! is driven by an access schema. For every access constraint `R(X → Y, N)` the store
//! maintains a hash index on `X`, so that `D_{XY}(X = ā)` can be retrieved without
//! scanning `R` — which is exactly the `fetch` operation of boundedly evaluable query
//! plans.
//!
//! * [`relation`] / [`database`] — relations, instances, catalog validation. A relation
//!   is ONE flat row-major `Vec<Value>` (stride = arity); readers get `&[Value]` slices.
//! * [`index`] — keyless CSR posting indexes keyed on attribute subsets.
//! * [`indexed`] — [`IndexedDatabase`], the store: a database plus the indexes
//!   mandated by an access schema, each partitioned into `shard_count ≥ 1` shards by a
//!   deterministic hash of the constraint key, so a fetch probes only the shard owning
//!   its key and boundedness survives partitioning; with constraint validation
//!   (`D ⊨ A`). A key's full posting list lives in exactly one shard, so per-key
//!   results are the same at every shard count, and the unsharded store is the
//!   1-shard store. [`Store`] is the executor's name for a borrowed one.
//! * [`sharded`] — routing: [`shard_of`], the hash that names a key's shard, and
//!   [`SHARDS_ENV`], the shard count the daemon and the test suites build with.
//! * [`discovery`] — mining access constraints from data (the paper notes that the
//!   constraints of Example 1.1 "are discovered by simple aggregate queries on D₀").
//! * [`io`] — minimal tab-separated import/export, for persisting generated workloads.
//!
//! # Physical layout and what it costs
//!
//! The paper's premise is that `D` is big and a bounded query touches only the
//! access-constraint indexes, so bytes per tuple and per key decide how big a `D` one
//! process can serve. The store is a handful of large arrays and no per-tuple or per-key
//! heap object:
//!
//! | what | layout | bytes |
//! |---|---|---|
//! | a tuple of arity `k` | `k` consecutive [`bea_core::value::Value`]s in its relation's one `Vec` | `16·k` (+ shared payloads of strings over 14 B) |
//! | a posting | one `u32` tuple offset in its index's `postings` | 4 |
//! | a distinct key | one `u32` CSR start + 2–4 `u32` hash slots; the key values themselves are *not* stored | 12–20 |
//!
//! A fetch hashes the key (one multiply per value), walks the slot table (linear probing,
//! at most half full), compares the key against the first tuple of the candidate group —
//! a tuple the fetch returns anyway — and hands out a subslice of `postings`; the tuples
//! are then slices of the relation at `offset · k`. The executor fetches batches of
//! keys ([`IndexedDatabase::resolve`]), walked together so their cache misses overlap;
//! see [`index`]. Posting lists keep insertion order and key groups are numbered by
//! first occurrence, so every result is deterministic and the same at every shard
//! count, and every `validate()` report is deterministic and, sorted, the same at every
//! shard count. A shard is one such index over the tuples routed to it; one shard is
//! the whole relation's. [`IndexedDatabase::footprint`] reports the exact tuple and index
//! bytes; on the accidents workload the four indexes of ψ1–ψ4 cost ≈12 B per posting.
//! Each constraint's relation is resolved to a position at build time; a fetch looks no
//! name up. Tuple offsets are 32-bit: building over a relation beyond `u32::MAX` tuples
//! is an error, not a silent wrap. Flat offset arrays are also what an mmap-backed
//! segment would need — nothing here holds a pointer.

#![deny(unsafe_code)]
pub mod database;
pub mod discovery;
pub mod index;
pub mod indexed;
pub mod io;
pub mod relation;
pub mod sharded;

pub use database::Database;
pub use discovery::{discover_constraints, measure_cardinality, DiscoveryOptions};
pub use index::Probes;
pub use indexed::{ConstraintViolation, FetchIter, IndexedDatabase, Store};
pub use relation::Relation;
pub use sharded::{shard_of, shards_from_env, SHARDS_ENV};
