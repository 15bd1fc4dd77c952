//! Heap allocations of the executor, counted by the allocator instead of self-reported.
//!
//! `AccessStats::allocs_per_probe` is a model of what the probe path *demands*; this
//! binary checks the real thing. It installs a counting `#[global_allocator]` — which is
//! why it is a test binary of its own: nothing else pays for the counter — and bounds
//! the allocations of one cold Q0 execution, of a large δ and of generating a store,
//! and the peak of live heap bytes while the store's indexes are built. The counts are
//! per thread, so the harness's own threads cannot leak into a measurement.

use bea::bench::scenarios::{AccidentsScenario, BENCH_REPORT_SEED};
use bea::core::access::{AccessConstraint, AccessSchema};
use bea::core::plan::{lower_plan, PlanBuilder, PlanOp, QueryPlan};
use bea::core::schema::Catalog;
use bea::core::value::Value;
use bea::engine::{execute_physical_on, ExecOptions};
use bea::storage::{Database, IndexedDatabase};
use bea::workload::accidents::{access_schema, generate, AccidentsConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Forwards to the system allocator, counting `alloc` and `realloc` calls (a growing
/// `Vec` is a `realloc`) on the calling thread, and the bytes it holds live and their
/// high-water mark.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<i64> = const { Cell::new(0) };
}

/// One allocation call that changes the thread's live bytes by `delta`.
fn count(delta: i64) {
    // `try_with`: the allocator also runs while a thread's locals are torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
    track(delta);
}

fn track(delta: i64) {
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

// SAFETY: every method forwards its arguments unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counters touch no allocator state.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size() as i64);
        // SAFETY: the caller's obligations are `System::alloc`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track(-(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through this allocator, with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size as i64 - layout.size() as i64);
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Heap allocations `run` performs on this thread.
fn allocations_of<T>(run: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = run();
    (out, ALLOCATIONS.with(Cell::get) - before)
}

/// The most heap bytes `run` held live at once on this thread, over what it started
/// with, and the bytes it still holds when it returns.
fn peak_bytes_of<T>(run: impl FnOnce() -> T) -> (T, u64, u64) {
    let before = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(before));
    let out = run();
    let peak = PEAK_BYTES.with(Cell::get) - before;
    let kept = LIVE_BYTES.with(Cell::get) - before;
    (out, peak as u64, kept as u64)
}

#[test]
fn a_cold_q0_stays_inside_its_allocation_budget() {
    let scenario = AccidentsScenario::with_total_tuples(20_000, BENCH_REPORT_SEED).unwrap();
    let lowered = lower_plan(&scenario.plan).unwrap();
    let store = &scenario.indexed;
    let options = ExecOptions::new();
    // Once unmeasured, so lazily initialised process state is not billed to the query.
    let (expected, _) = execute_physical_on(&lowered, store, &options).unwrap();
    let ((table, stats), allocations) =
        allocations_of(|| execute_physical_on(&lowered, store, &options).unwrap());
    assert_eq!(table.rows(), expected.rows());
    assert!(
        stats.tuples_fetched > 400,
        "Q0 fetched {stats}: too little for the budget to mean anything"
    );
    // One owned row per answer, the output table, and a handful of operator boxes,
    // batch handles and pooled columns growing by doubling — nothing per fetched tuple
    // or per probed key (which used to cost 1 293 here). 105 today, the thread's pooled
    // buffers kept from the unmeasured run (115 while the plan check allocated a list of
    // inputs per step; 121 — which this comment misstated as 125 —
    // while each keyed lookup started its staging vectors empty on every query, and
    // Q0's ψ3 step resolved the accidents ψ1 had just fetched; 157 while each lookup's
    // emission cloned its rows into value columns and its arena held values instead of
    // tuple offsets; 163 while the pool's cap followed the plan's
    // allocation surface, clamped to 8–256; 156 before each lookup staged a batch in one
    // pass, with a position per row: 148 against 147 by a fifth run, the rest is which
    // pooled buffer serves which column; 171 while each lookup's arena copied the
    // key columns of its tuples, 180 while each product with a constant buffered it,
    // 182 while the query kept a materialization slot per step, 205 while it ran as
    // jobs of a pool, 251 while the buffers died with each job, 374 while every
    // single-tuple key was copied into an arena and three more δs ran); the bound is set
    // 15 % above 115.
    assert!(
        allocations <= 132,
        "one cold Q0 ({stats}) performed {allocations} heap allocations"
    );
}

/// `δ π[] δ π[v] σ[k = k'](({1} ∪ {2}) × fetch(k' ∈ …, R, v))` over `R(k, v)` holding
/// `rows` tuples `(1, i)`: the δ over `v` sees `rows` distinct rows, and only the empty
/// row leaves the plan — so the owned rows of the output table do not drown the count.
fn dedup_of_distinct_rows(rows: i64) -> (IndexedDatabase, QueryPlan) {
    let mut catalog = Catalog::new();
    catalog.declare("R", ["k", "v"]).unwrap();
    let constraint = AccessConstraint::new(&catalog, "R", &["k"], &["v"], rows as u64).unwrap();
    let mut db = Database::new(catalog);
    db.extend("R", (0..rows).map(|i| vec![Value::int(1), Value::int(i)]))
        .unwrap();
    let store = IndexedDatabase::build(db, AccessSchema::from_constraints([constraint])).unwrap();

    let mut b = PlanBuilder::new();
    let (one, two) = (
        b.constant(Value::int(1), "k"),
        b.constant(Value::int(2), "k"),
    );
    let keys = b.union(one, two);
    let labels = vec!["k'".into(), "v".into()];
    let fetched = b.keyed_join(keys, vec![0], "R", vec![0], vec![1], 0, labels, vec![]);
    // Dropping a key that is not a constant is what makes lowering ask for a δ.
    let values = b.project(fetched, vec![2]);
    let out = b.project(values, Vec::new());
    let lowered = lower_plan(&b.finish("Q", out).unwrap()).unwrap();
    assert!(
        lowered
            .steps()
            .iter()
            .any(|step| matches!(step.op, PlanOp::Dedup { .. })),
        "the plan must run a δ:\n{lowered}"
    );
    (store, lowered)
}

#[test]
fn dedup_allocates_logarithmically_in_its_distinct_rows() {
    const ROWS: i64 = 16_384;
    let (store, lowered) = dedup_of_distinct_rows(ROWS);
    let options = ExecOptions::new();
    let ((table, stats), allocations) =
        allocations_of(|| execute_physical_on(&lowered, &store, &options).unwrap());
    assert_eq!(table.rows(), [Vec::<Value>::new()]);
    assert_eq!(stats.tuples_fetched, ROWS as u64);
    // Per 1 024-row batch a selection vector and a few handles (16 batches here), per
    // doubling a column, hash or slot reallocation (14 doublings) — 293 today, the
    // second δ's selection vectors and the two-key union with its δ included (299 while
    // the plan check allocated a list of inputs per step, which this comment had as
    // 298; 279–280
    // while the plan was a bare fetch of one constant key, whose lowering emitted the
    // key's identity π and needed no union for the δ to be asked for; 294 while the
    // lookup's emission gathered its values into growing columns, 278 while the plan
    // ended in a σ instead, 293 while the query ran as jobs of a pool), against two
    // allocations per distinct row (32 768) when δ kept a hash bucket and an owned row
    // for each. The bound leaves 5.7 %.
    assert!(
        allocations <= 315,
        "δ over {ROWS} distinct rows performed {allocations} heap allocations"
    );
}

#[test]
fn generation_allocates_per_relation_not_per_string() {
    let config = AccidentsConfig::with_total_tuples(20_000, 0xBEAD);
    let (db, allocations) = allocations_of(|| generate(&config).unwrap());
    assert!(db.size() > 15_000, "generated only {} tuples", db.size());
    // Every string the generator writes — dates, districts, driver names — is at most
    // `Str::INLINE` bytes and so lives inside its value: what is left is the catalog,
    // each relation's one `Vec` and one formatting buffer per district and per day.
    // 111 today, against 9 662 while each driver name was a heap object of its own.
    assert!(
        allocations <= 128,
        "generating {} tuples performed {allocations} heap allocations",
        db.size()
    );
}

#[test]
fn building_the_indexes_peaks_little_above_what_they_keep() {
    let db = generate(&AccidentsConfig::with_total_tuples(20_000, 0xBEAD)).unwrap();
    let schema = access_schema(db.catalog());
    let (store, peak, kept) = peak_bytes_of(|| IndexedDatabase::build(db, schema).unwrap());
    let (_, index_bytes) = store.footprint();
    assert!(
        kept >= index_bytes,
        "the index arrays are heap bytes the store keeps"
    );
    // ψ1–ψ4 see clustered or unique keys, so no build holds a group number per tuple
    // or a posting buffer, and ψ2–ψ4's keys are consecutive ids, so they are never
    // hashed: the peak is what the store keeps plus ψ1's per-day tags — 1 616 B above
    // `footprint()` today, against 65 944 B while ψ4 hashed its 16 384 ids into a tag
    // `Vec` (64 KiB), and 114 384 B while every build held `group_of`, `firsts` and a
    // slot table reserved for one key per tuple. The bound leaves 2.5 KiB, a doubling
    // of ψ1's tags and more, but not ψ4's.
    let transient = peak - index_bytes;
    assert!(
        transient <= 4 * 1024,
        "building ψ1–ψ4 peaked {transient} B above their {index_bytes} B"
    );
}
