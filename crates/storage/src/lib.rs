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
//! * [`index`] — keyless posting indexes keyed on attribute subsets, keeping only
//!   what tuple order does not say.
//! * [`indexed`] — [`IndexedDatabase`], the store: a database plus the one index per
//!   constraint an access schema mandates, with constraint validation (`D ⊨ A`).
//!   [`Store`] is the executor's name for a borrowed one.
//! * [`discovery`] — mining access constraints from data (the paper notes that the
//!   constraints of Example 1.1 "are discovered by simple aggregate queries on D₀").
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
//! | a distinct key | 2–4 `u32` hash slots; the key values themselves are *not* stored | 8–16 |
//! | … that is the next of consecutive integer keys (a dense index) | nothing: its group is `key − base` | 0 |
//! | … of a key with several tuples | + one `u32` CSR start | + 4 |
//! | a posting, unless each key's tuples are one run | one `u32` tuple offset in its index's `postings` | 4 |
//!
//! A fetch through a dense index — one whose single-attribute keys are the integers
//! `base, base + 1, …` in order of first occurrence, as ids numbered on insert are —
//! subtracts `base` and checks the range. Any other fetch hashes the key (one multiply
//! per value), walks the slot table (linear probing, at most half full), and compares
//! the key against the first tuple of the candidate group — a tuple the fetch returns
//! anyway. Either hands out the group's offsets: a run of consecutive tuples where the
//! relation is unique or clustered on the key, a subslice of `postings` otherwise; the
//! tuples are then slices of the relation at `offset · k`. The executor fetches batches of
//! keys ([`IndexedDatabase::resolve`]), naming each key's values by accessor where it
//! holds them, and the store hashes what it must; it gets offsets back, and its columns
//! point at `offset · k + a` ([`Relation::values`]) instead of copying a value out. A
//! batch's dense probes prefetch what they read next, so their cache misses overlap
//! (see [`index`]). Posting lists keep insertion order and key groups are numbered by
//! first occurrence, so every result and every `validate()` report is deterministic.
//! [`IndexedDatabase::footprint`] reports the exact tuple and index bytes; on the
//! accidents workload, which arrives clustered and keyed by ids, the four indexes of
//! ψ1–ψ4 keep no posting array and only ψ1 keeps slots: ≈0.6 B per posting (15 384 B
//! for 26 578 at 2·10⁴ tuples; ≈8 B while ψ2–ψ4 kept slots, ≈14 B while every index
//! kept postings).
//! Each constraint's relation is resolved to a position at build time; a fetch looks no
//! name up. Tuple offsets are 32-bit: building over a relation beyond `u32::MAX` tuples
//! is an error, not a silent wrap. Flat offset arrays are also what an mmap-backed
//! segment would need — nothing here holds a pointer.

#![deny(unsafe_code)]
pub mod database;
pub mod discovery;
pub mod index;
pub mod indexed;
pub mod relation;

pub use database::Database;
pub use discovery::{discover_constraints, measure_cardinality, DiscoveryOptions};
pub use index::prefetch;
pub use indexed::{ConstraintViolation, FetchIter, IndexedDatabase, Store};
pub use relation::Relation;
