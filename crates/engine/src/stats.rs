//! Data-access and memory-residency accounting.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;
use std::ops::AddAssign;

/// How much data a plan execution touched — and how much of it was ever resident.
///
/// For a boundedly evaluable plan, [`AccessStats::tuples_fetched`] is bounded by a
/// function of the query and the access schema alone — the experiments plot it against
/// the database size to reproduce the paper's "access small data" claim. The
/// [`AccessStats::peak_rows_resident`] counter extends the claim to memory: under the
/// streaming executor, residency tracks the access bounds rather than the size of
/// whatever intermediate results the plan algebra would materialize.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessStats {
    /// Number of tuples returned by index fetches.
    pub tuples_fetched: u64,
    /// Number of distinct index lookups (one per key per fetch operation).
    pub index_lookups: u64,
    /// Number of fetch operations executed.
    pub fetch_ops: u64,
    /// Number of tuples scanned by full-relation scans (zero for bounded plans; the
    /// naive baseline reports its scans here).
    pub tuples_scanned: u64,
    /// Number of rows produced by cross products: the literal reference executor
    /// (`execute_plan_materialized`) reports `|left| · |right|` per product here. The
    /// streaming executor runs every product as a keyed lookup or a constant append, no
    /// cross product at all, and reports 0.
    pub product_rows_materialized: u64,
    /// High-water mark of rows concurrently held by the executor: materialized
    /// intermediate tables, keyed-lookup arenas, dedup sets and
    /// the accumulating output. The streaming executor materializes no intermediate
    /// table, so this is the number the materialized-vs-streaming ablation compares. A keyed lookup holds only the postings of keys that matched
    /// two or more tuples; a single matched tuple is read where it lies in the store
    /// and counts nothing.
    pub peak_rows_resident: u64,
    /// Number of individual [`bea_core::value::Value`] clones the executor physically
    /// performs: in the streaming pipeline, keys new to a lookup's memo, fresh rows of
    /// δ's seen set, a value column a lookup's emission takes, a constant append's
    /// column and the output table's rows where its columns cannot be moved; in the
    /// reference, row copies between step tables and key projections too. Reads are not
    /// counted: a keyed lookup hands its keys to the store where they lie, keeps tuple
    /// offsets rather than values, and emits the fetched columns — and a source column
    /// that points into the store — as offsets, so its fetched values are cloned once,
    /// into the answer, if they reach it. Nor is work that performs no clone: the
    /// columnar pipeline's duplicate detection is hash-then-compare in place, so only
    /// genuinely fresh rows enter a set, and a δ the plan proves redundant is not run
    /// at all. This is the
    /// copy-traffic side of execution, the quantity the columnar pipeline exists to
    /// minimize; value clones are O(1) (interned strings), so the counter measures
    /// traffic, not bytes. Like residency, it is an execution-strategy artifact and
    /// excluded from [`AccessStats::same_data_access`]; it merges additively.
    pub values_cloned: u64,
    /// Number of buffers the streaming executor's probe path demands per key — the
    /// steady-state allocation model of the serving loop. Nothing charges it any more:
    /// every fetch of a physical plan runs as a keyed lookup
    /// ([`KeyedLookupOp`](crate::ops)), which demands **no** buffer per key, hit or
    /// miss — each probe reads its key where the source row holds it, a key new to the
    /// operator is cloned into its flat memo key columns (where keys can repeat), the
    /// store reads the batch's new keys where they lie, deduplicated postings are
    /// appended to the arena's offset list, and a repeat reads what is already there.
    /// So every run reports 0. The field stays on the wire (`bead` replies,
    /// `BENCH_pipeline.json`) until the modelled allocation accounting is deleted as a
    /// whole; `tests/alloc_budget.rs` checks the claim against the allocator itself.
    ///
    /// Deliberately *excluded* are buffers whose number follows the execution
    /// schedule rather than the probes: per-batch emission columns and offset lists,
    /// and per-operator arena, key and membership-table buffers (growing by doubling). A pool
    /// hit still counts — the *demand* is what the serving loop must avoid. It is a
    /// streaming-pipeline metric: the materialized executor reports 0. Like
    /// `values_cloned` it is an execution-strategy artifact, excluded from
    /// [`AccessStats::same_data_access`], and merges additively.
    pub allocs_per_probe: u64,
    /// Always 0: nothing is cached across queries. Kept only because the benchmark
    /// harness under `benchmark/` reads it (and `bead`'s OK head still prints it);
    /// ROADMAP direction 17 deletes it. Excluded from
    /// [`AccessStats::same_data_access`]; merges additively.
    pub cache_hits: u64,
    /// Always 0, like [`AccessStats::cache_hits`]: the harness under `benchmark/`
    /// judges an OK reply without it as wrong, so `bead`'s OK head still prints it;
    /// ROADMAP direction 17 deletes it. Excluded from
    /// [`AccessStats::same_data_access`]; merges additively.
    pub rows_served_from_cache: u64,
    /// Tuples fetched through index lookups, per relation. Lets experiments attribute
    /// the access cost of a plan to the constraints that served it.
    pub rows_fetched_by_relation: BTreeMap<String, u64>,
}

impl AccessStats {
    /// Record `tuples` fetched from `relation` (updates the global and per-relation
    /// counters together, so their sums can never drift apart).
    pub fn record_fetched(&mut self, relation: &str, tuples: u64) {
        self.tuples_fetched += tuples;
        if let Some(count) = self.rows_fetched_by_relation.get_mut(relation) {
            *count += tuples;
        } else {
            self.rows_fetched_by_relation
                .insert(relation.to_owned(), tuples);
        }
    }

    /// True when both executions read the same amount of data the same way — the
    /// boundedness-preservation check of the streaming/materialized ablation. Residency
    /// and product materialization are execution-strategy artifacts and excluded.
    ///
    /// A test oracle, public because `tests/properties.rs` and the `bea-bench` scenario
    /// tests compare the streaming, materialized and served runs with it.
    pub fn same_data_access(&self, other: &AccessStats) -> bool {
        self.tuples_fetched == other.tuples_fetched
            && self.index_lookups == other.index_lookups
            && self.fetch_ops == other.fetch_ops
            && self.tuples_scanned == other.tuples_scanned
            && self.rows_fetched_by_relation == other.rows_fetched_by_relation
    }

    /// Merge the stats of an execution that ran *after* `self`'s: every counter adds
    /// up, except the residency peak — sequential executions' residency windows never
    /// overlap, so the combined high-water mark is the larger of the two.
    ///
    /// `+=` ([`AddAssign`]) is an alias for this merge.
    pub fn merge_sequential(&mut self, rhs: AccessStats) {
        self.peak_rows_resident = self.peak_rows_resident.max(rhs.peak_rows_resident);
        self.tuples_fetched += rhs.tuples_fetched;
        self.index_lookups += rhs.index_lookups;
        self.fetch_ops += rhs.fetch_ops;
        self.tuples_scanned += rhs.tuples_scanned;
        self.product_rows_materialized += rhs.product_rows_materialized;
        self.values_cloned += rhs.values_cloned;
        self.allocs_per_probe += rhs.allocs_per_probe;
        self.cache_hits += rhs.cache_hits;
        self.rows_served_from_cache += rhs.rows_served_from_cache;
        for (relation, tuples) in rhs.rows_fetched_by_relation {
            *self.rows_fetched_by_relation.entry(relation).or_insert(0) += tuples;
        }
    }
}

/// Tuples fetched per plan step while a query runs: a flat list on the thread's
/// reused execution state, so no probe allocates a map entry or a relation name. When
/// the query finishes it is recorded into its per-relation map (a probe that fetched
/// nothing still names its relation there).
#[derive(Debug, Default)]
pub(crate) struct FetchTally {
    counts: Vec<(usize, u64)>,
}

impl FetchTally {
    /// Count `tuples` fetched by `step`.
    pub(crate) fn add(&mut self, step: usize, tuples: u64) {
        match self.counts.iter_mut().find(|(s, _)| *s == step) {
            Some((_, count)) => *count += tuples,
            None => self.counts.push((step, tuples)),
        }
    }

    /// Forget every count, keeping the capacity.
    pub(crate) fn clear(&mut self) {
        self.counts.clear();
    }

    /// Record every count into `stats` ([`AccessStats::record_fetched`]),
    /// leaving the tally empty; `relation` names the relation each step fetches from.
    pub(crate) fn drain_into<'a>(
        &mut self,
        stats: &mut AccessStats,
        relation: impl Fn(usize) -> &'a str,
    ) {
        for (step, tuples) in self.counts.drain(..) {
            stats.record_fetched(relation(step), tuples);
        }
    }
}

impl AddAssign for AccessStats {
    /// Alias for [`AccessStats::merge_sequential`]: `a += b` treats `b` as the stats of
    /// an execution that ran after `a`'s.
    fn add_assign(&mut self, rhs: Self) {
        self.merge_sequential(rhs);
    }
}

impl fmt::Display for AccessStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fetched {} tuples via {} lookups ({} fetch ops), scanned {} tuples, peak {} rows resident, {} values cloned, {} probe allocs",
            self.tuples_fetched,
            self.index_lookups,
            self.fetch_ops,
            self.tuples_scanned,
            self.peak_rows_resident,
            self.values_cloned,
            self.allocs_per_probe
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulation_and_display() {
        let mut a = AccessStats::default();
        a += AccessStats {
            tuples_fetched: 10,
            index_lookups: 2,
            fetch_ops: 1,
            tuples_scanned: 0,
            product_rows_materialized: 0,
            peak_rows_resident: 7,
            values_cloned: 20,
            allocs_per_probe: 4,
            cache_hits: 1,
            rows_served_from_cache: 8,
            rows_fetched_by_relation: [("R".to_owned(), 10)].into_iter().collect(),
        };
        a += AccessStats {
            tuples_fetched: 5,
            index_lookups: 1,
            fetch_ops: 1,
            tuples_scanned: 100,
            product_rows_materialized: 4,
            peak_rows_resident: 3,
            values_cloned: 5,
            allocs_per_probe: 1,
            cache_hits: 2,
            rows_served_from_cache: 4,
            rows_fetched_by_relation: [("R".to_owned(), 2), ("S".to_owned(), 3)]
                .into_iter()
                .collect(),
        };
        assert_eq!(a.tuples_fetched, 15);
        assert_eq!(a.index_lookups, 3);
        assert_eq!(a.tuples_scanned, 100);
        assert_eq!(a.fetch_ops, 2);
        assert_eq!(a.product_rows_materialized, 4);
        assert_eq!(a.values_cloned, 25); // additive under every merge rule
        assert_eq!(a.allocs_per_probe, 5); // additive too
        assert_eq!(a.cache_hits, 3); // cache counters are additive strategy artifacts
        assert_eq!(a.rows_served_from_cache, 12);
        assert_eq!(a.peak_rows_resident, 7); // max, not sum
        assert_eq!(a.rows_fetched_by_relation["R"], 12);
        assert_eq!(a.rows_fetched_by_relation["S"], 3);
        assert!(a.to_string().contains("fetched 15 tuples"));
        assert!(a.to_string().contains("peak 7 rows resident"));
        assert!(a.to_string().contains("5 probe allocs"));
    }

    #[test]
    fn record_fetched_tracks_relations() {
        let mut s = AccessStats::default();
        s.record_fetched("Accident", 4);
        s.record_fetched("Accident", 2);
        s.record_fetched("Vehicle", 1);
        assert_eq!(s.tuples_fetched, 7);
        assert_eq!(s.rows_fetched_by_relation["Accident"], 6);
        assert_eq!(s.rows_fetched_by_relation["Vehicle"], 1);
    }

    #[test]
    fn same_data_access_ignores_strategy_artifacts() {
        let mut a = AccessStats::default();
        a.record_fetched("R", 5);
        a.index_lookups = 2;
        a.fetch_ops = 1;
        let mut b = a.clone();
        b.peak_rows_resident = 99;
        b.product_rows_materialized = 42;
        b.values_cloned = 1_000;
        b.allocs_per_probe = 77;
        b.cache_hits = 3;
        b.rows_served_from_cache = 15;
        assert!(a.same_data_access(&b));
        b.record_fetched("R", 1);
        assert!(!a.same_data_access(&b));
    }
}
