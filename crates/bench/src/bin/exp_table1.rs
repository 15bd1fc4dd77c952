//! E1 — Table 1: the five decision problems per query class, observed through the
//! scaling of the corresponding analyses.
//!
//! Table 1 of the paper gives worst-case complexity: CQP is PTIME for CQ and
//! Πᵖ₂-complete for UCQ/∃FO⁺; BEP is EXPSPACE-complete; UEP/LEP/QSP are NP- to
//! Πᵖ₂-complete; everything is undecidable for FO. A reproduction cannot measure
//! complexity classes, but it can (a) verify that every analysis returns the decision the
//! theory predicts on the chain families, and (b) show the scaling split between the
//! PTIME coverage test and the enumeration-based procedures as queries grow.
//!
//! Run with `cargo run --release -p bea-bench --bin exp_table1`.

//! Besides the printed report, the binary maintains the machine-readable perf record:
//!
//! * `exp_table1` — full run; also writes `BENCH_pipeline.json` (scenario →
//!   rows_fetched / peak_rows_resident / values_cloned / allocs_per_probe /
//!   rows_served_from_cache / ns_p50 / ns_p99) to the working directory, the committed
//!   baseline of the streaming pipeline's copy traffic, probe-path buffer demand,
//!   cross-query cache service, and latency distribution.
//! * `exp_table1 --check <baseline.json>` — perf-smoke mode (used by CI): rebuild the
//!   record and fail (exit 1) if any deterministic counter (`rows_fetched`,
//!   `values_cloned`, `allocs_per_probe`, `rows_served_from_cache`) regressed more
//!   than 10% above the
//!   committed baseline — the warm cached-repeat leg commits `allocs_per_probe: 0`,
//!   which a zero baseline holds with zero slack — if the
//!   scenario set drifted from the committed record in either direction, or if any
//!   scenario's fresh p99 blew the tail-latency budget
//!   `max(50 ms, baseline p99 × 25)` — loose enough for machine-to-machine variance,
//!   tight enough to catch order-of-magnitude tail blowups.

use bea_bench::families;
use bea_bench::report::{fmt_ms, time_ms, PipelineBenchReport, TextTable};
use bea_bench::scenarios::{
    pipeline_bench_report, AccidentsScenario, ConcurrentTrafficScenario, EcommerceScenario,
    GraphScenario, HeavyChainScenario, ParallelScenario, ShardedScenario,
};
use bea_core::bounded::{analyze_cq, BoundedConfig};
use bea_core::cover;
use bea_core::envelope::{lower_envelope_cq, upper_envelope_cq, EnvelopeConfig};
use bea_core::plan::{lower_plan, PhysicalPlan};
use bea_core::reason::ReasonConfig;
use bea_core::specialize::{specialize_cq, SpecializeConfig};
use bea_engine::{execute_physical_on, execute_plan_materialized, execute_plan_on, ExecOptions};

/// Tolerated growth of the deterministic counters (`rows_fetched`, `values_cloned`,
/// `allocs_per_probe`, `rows_served_from_cache`) over the committed baseline, in
/// percent. A zero baseline tolerates exactly zero — the anchored fast path's
/// zero-allocation guarantee gets no slack.
const CLONE_REGRESSION_TOLERANCE_PERCENT: u64 = 10;

/// Tail-latency budget: a fresh p99 may exceed the committed baseline p99 by this
/// factor before `--check` fails. Deliberately loose — the baseline was recorded on a
/// different machine; the gate is for order-of-magnitude blowups, not jitter.
const P99_BUDGET_FACTOR: u64 = 25;

/// Absolute floor of the tail budget in nanoseconds (50 ms): scenarios whose baseline
/// p99 is tiny would otherwise fail on scheduler noise alone.
const P99_FLOOR_NS: u64 = 50_000_000;

/// Timed iterations per scenario in `--check` mode — enough samples for a meaningful
/// nearest-rank p99 while keeping the CI perf-smoke fast.
const CHECK_TIMING_ITERS: u32 = 20;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = args.iter().position(|a| a == "--check") {
        let Some(baseline_path) = args.get(pos + 1) else {
            eprintln!(
                "error: --check needs a baseline path, e.g. \
                 `exp_table1 --check BENCH_pipeline.json`"
            );
            std::process::exit(1);
        };
        return check_against_baseline(baseline_path);
    }
    run_experiments()?;

    // The machine-readable perf record, committed as the regression baseline.
    println!("\n## BENCH_pipeline.json — pipeline perf record\n");
    let report = pipeline_bench_report(CHECK_TIMING_ITERS)?;
    let json = report.to_json();
    std::fs::write("BENCH_pipeline.json", &json)?;
    print!("{json}");
    println!("(written to BENCH_pipeline.json)");
    Ok(())
}

/// Perf-smoke mode: recompute the pipeline record and gate on the deterministic
/// counters (`rows_fetched`, `values_cloned`, `allocs_per_probe`,
/// `rows_served_from_cache`, exact scenario-set match) plus the
/// p99 tail-latency budget. A missing or malformed baseline is an operator error,
/// reported as a plain one-line message (never a panic or an opaque `Err` debug dump)
/// with the fix spelled out.
fn check_against_baseline(baseline_path: &str) -> Result<(), Box<dyn std::error::Error>> {
    let text = match std::fs::read_to_string(baseline_path) {
        Ok(text) => text,
        Err(error) => {
            eprintln!(
                "error: cannot read the perf baseline `{baseline_path}`: {error}\n\
                 hint: the baseline is committed at the repository root as \
                 BENCH_pipeline.json; regenerate it with \
                 `cargo run --release -p bea-bench --bin exp_table1` and commit the \
                 refreshed file."
            );
            std::process::exit(1);
        }
    };
    let baseline = match PipelineBenchReport::parse_json(&text) {
        Ok(baseline) => baseline,
        Err(reason) => {
            eprintln!(
                "error: the perf baseline `{baseline_path}` is malformed: {reason}\n\
                 hint: regenerate it with \
                 `cargo run --release -p bea-bench --bin exp_table1` and commit the \
                 refreshed file."
            );
            std::process::exit(1);
        }
    };
    let fresh = pipeline_bench_report(CHECK_TIMING_ITERS)?;
    let mut violations = fresh.regressions_against(&baseline, CLONE_REGRESSION_TOLERANCE_PERCENT);
    violations.extend(fresh.tail_latency_regressions(&baseline, P99_BUDGET_FACTOR, P99_FLOOR_NS));
    for (name, entry) in &fresh.scenarios {
        let (base_cloned, base_allocs, base_p99) = baseline.scenarios.get(name).map_or_else(
            || ("-".to_owned(), "-".to_owned(), "-".to_owned()),
            |b| {
                (
                    b.values_cloned.to_string(),
                    b.allocs_per_probe.to_string(),
                    b.ns_p99.to_string(),
                )
            },
        );
        println!(
            "{name}: values_cloned {} (baseline {base_cloned}), allocs_per_probe {} \
             (baseline {base_allocs}), p50 {} ns, p99 {} ns (baseline p99 {base_p99}), \
             rows_fetched {}, rows_served_from_cache {}, peak resident {}",
            entry.values_cloned,
            entry.allocs_per_probe,
            entry.ns_p50,
            entry.ns_p99,
            entry.rows_fetched,
            entry.rows_served_from_cache,
            entry.peak_rows_resident
        );
    }
    if violations.is_empty() {
        println!(
            "perf-smoke OK: rows_fetched, values_cloned, allocs_per_probe and \
             rows_served_from_cache within {CLONE_REGRESSION_TOLERANCE_PERCENT}% of the \
             baseline, scenario set \
             unchanged, and p99 within max({P99_FLOOR_NS} ns, baseline × \
             {P99_BUDGET_FACTOR}) on every scenario"
        );
        Ok(())
    } else {
        for violation in &violations {
            eprintln!("perf-smoke FAILED: {violation}");
        }
        std::process::exit(1);
    }
}

fn run_experiments() -> Result<(), Box<dyn std::error::Error>> {
    println!("# E1 — Table 1: decision problems across query classes\n");
    println!(
        "paper: BEP EXPSPACE-c | CQP PTIME (CQ) / Πᵖ₂-c (UCQ, ∃FO⁺) | UEP NP-c / Πᵖ₂-c | \
         LEP NP-c / DP-c | QSP NP-c / Πᵖ₂-c | all undecidable for FO\n"
    );

    let sizes = [2usize, 4, 6, 8, 10];
    let mut table = TextTable::new([
        "problem (class)",
        "n=2",
        "n=4",
        "n=6",
        "n=8",
        "n=10",
        "expected decision",
    ]);

    let reason = ReasonConfig::default();
    let envelope_config = EnvelopeConfig::default();
    let spec_config = SpecializeConfig::default();
    let bounded_config = BoundedConfig::default();

    // CQP(CQ): PTIME coverage check on covered chains.
    let mut row = vec!["CQP (CQ, covered chain)".to_owned()];
    for &n in &sizes {
        let catalog = families::chain_catalog(n);
        let schema = families::chain_schema(&catalog, 4);
        let q = families::anchored_chain(&catalog, n)?;
        let (is_covered, ms) = time_ms(|| cover::is_covered(&q, &schema));
        assert!(is_covered);
        row.push(fmt_ms(ms));
    }
    row.push("covered".into());
    table.row(row);

    // BEP via the sound analysis on the same chains (covered fast path).
    let mut row = vec!["BEP analysis (CQ, covered chain)".to_owned()];
    for &n in &sizes {
        let catalog = families::chain_catalog(n);
        let schema = families::chain_schema(&catalog, 4);
        let q = families::anchored_chain(&catalog, n)?;
        let (verdict, ms) = time_ms(|| analyze_cq(&q, &schema, &bounded_config).unwrap());
        assert!(verdict.is_bounded());
        row.push(fmt_ms(ms));
    }
    row.push("boundedly evaluable".into());
    table.row(row);

    // BEP analysis on unanchored chains: requires the (exponential) satisfiability and
    // rewrite machinery before answering "unknown".
    let mut row = vec!["BEP analysis (CQ, unanchored chain)".to_owned()];
    for &n in &sizes {
        let catalog = families::chain_catalog(n);
        let schema = families::chain_schema(&catalog, 4);
        let q = families::unanchored_chain(&catalog, n)?;
        let (verdict, ms) = time_ms(|| analyze_cq(&q, &schema, &bounded_config).unwrap());
        assert!(!verdict.is_bounded());
        row.push(fmt_ms(ms));
    }
    row.push("not established (sound)".into());
    table.row(row);

    // CQP(UCQ) with a subsumed branch: the Πᵖ₂ A-instance enumeration kicks in.
    let mut row = vec!["CQP (UCQ, subsumed branch, n capped at 6)".to_owned()];
    for &n in &sizes {
        let catalog = families::chain_catalog(n);
        let schema = families::chain_schema(&catalog, 4);
        let q = families::chain_union_with_subsumed_branch(&catalog, n.min(6), 2)?;
        let (report, ms) = time_ms(|| cover::ucq_coverage(&q, &schema, &reason).unwrap());
        assert!(report.is_covered());
        row.push(fmt_ms(ms));
    }
    row.push("covered (via subsumption)".into());
    table.row(row);

    // UEP: find a covered relaxation of the dangling-atom chain.
    let mut row = vec!["UEP (CQ, dangling atom)".to_owned()];
    for &n in &sizes {
        let catalog = families::chain_catalog(n);
        let schema = families::chain_schema(&catalog, 4);
        let q = families::chain_with_dangling_atom(&catalog, n)?;
        let (envelope, ms) = time_ms(|| upper_envelope_cq(&q, &schema, &envelope_config).unwrap());
        assert!(envelope.is_some());
        row.push(fmt_ms(ms));
    }
    row.push("upper envelope exists".into());
    table.row(row);

    // LEP: find a covered k-expansion of the dangling-atom chain.
    let mut row = vec!["LEP (CQ, dangling atom, k=1, n capped at 6)".to_owned()];
    for &n in &sizes {
        let catalog = families::chain_catalog(n);
        let schema = families::chain_schema(&catalog, 4);
        let q = families::chain_with_dangling_atom(&catalog, n.min(6))?;
        let (envelope, ms) =
            time_ms(|| lower_envelope_cq(&q, &schema, &catalog, 1, &envelope_config).unwrap());
        assert!(envelope.is_some());
        row.push(fmt_ms(ms));
    }
    row.push("lower envelope exists".into());
    table.row(row);

    // QSP: the unanchored chain becomes covered by instantiating its first variable.
    let mut row = vec!["QSP (CQ, unanchored chain, k=1)".to_owned()];
    for &n in &sizes {
        let catalog = families::chain_catalog(n);
        let schema = families::chain_schema(&catalog, 4);
        let q = families::unanchored_chain(&catalog, n)?;
        let (spec, ms) = time_ms(|| specialize_cq(&q, &schema, 1, &spec_config).unwrap());
        assert!(spec.is_some());
        row.push(fmt_ms(ms));
    }
    row.push("specializable with x0".into());
    table.row(row);

    table.print();
    println!(
        "\nThe PTIME coverage test stays in the microsecond range as the query grows, while \
         the enumeration-based procedures (A-instance subsumption, satisfiability inside \
         BEP/QSP, envelope searches) grow steeply — the practical face of the complexity \
         gaps in Table 1. The FO row of Table 1 (undecidability) has no runnable \
         counterpart; the library exposes FO only through specialization (Prop. 5.4)."
    );

    // Memory residency: the same bounded plans, executed by the materialized step loop
    // and by the streaming batch pipeline. Data access is identical by construction
    // (boundedness is a property of the plan, not the execution strategy); the peak
    // number of rows concurrently resident is what lowering buys.
    println!("\n## memory residency — materialized vs streaming execution\n");
    let accidents = AccidentsScenario::with_total_tuples(20_000, 42)?;
    let graph = GraphScenario::with_persons(500, 42)?;
    let ecommerce = EcommerceScenario::with_customers(300, 42)?;
    let mut residency = TextTable::new([
        "scenario",
        "db tuples",
        "shards",
        "tuples fetched",
        "index lookups",
        "pipelines",
        "peak resident (materialized)",
        "peak resident (streaming)",
        "residency ratio",
        "values cloned (materialized)",
        "values cloned (streaming)",
        "clone ratio",
        "probe allocs (streaming)",
    ]);
    let cases = [
        ("accidents Q0", &accidents.plan, &accidents.indexed),
        ("graph personalized", &graph.plan, &graph.indexed),
        ("ecommerce orders-of", &ecommerce.plan, &ecommerce.indexed),
    ];
    for (name, plan, indexed) in cases {
        let (streamed, streaming) = execute_plan_on(plan, indexed, &ExecOptions::new())?;
        let (materialized_out, materialized) = execute_plan_materialized(plan, indexed)?;
        assert!(streamed.same_rows(&materialized_out));
        assert!(streaming.same_data_access(&materialized));
        let ratio = if streaming.peak_rows_resident > 0 {
            format!(
                "{:.1}×",
                materialized.peak_rows_resident as f64 / streaming.peak_rows_resident as f64
            )
        } else {
            "∞".to_owned()
        };
        let clone_ratio = if streaming.values_cloned > 0 {
            format!(
                "{:.1}×",
                materialized.values_cloned as f64 / streaming.values_cloned as f64
            )
        } else {
            "∞".to_owned()
        };
        let pipelines = lower_plan(plan)?.pipeline_dag().len();
        residency.row([
            name.to_owned(),
            indexed.size().to_string(),
            "1".to_owned(),
            streaming.tuples_fetched.to_string(),
            streaming.index_lookups.to_string(),
            pipelines.to_string(),
            materialized.peak_rows_resident.to_string(),
            streaming.peak_rows_resident.to_string(),
            ratio,
            materialized.values_cloned.to_string(),
            streaming.values_cloned.to_string(),
            clone_ratio,
            streaming.allocs_per_probe.to_string(),
        ]);
        let per_relation: Vec<String> = streaming
            .rows_fetched_by_relation
            .iter()
            .map(|(relation, tuples)| format!("{relation}: {tuples}"))
            .collect();
        println!("{name} fetched per relation — {}", per_relation.join(", "));
    }
    println!();
    residency.print();
    println!(
        "\nBoth strategies perform the same index lookups and fetch the same tuples; the \
         streaming pipeline just refuses to keep intermediate tables alive, so its \
         high-water mark tracks the access-schema bounds instead of the plan algebra."
    );

    // A batch of independently anchored Q0 branches as one query, executed at
    // increasing thread counts. The union streams, so the batch is one pipeline and
    // runs on one thread whatever the thread count: every counter, the residency peak
    // included, is identical at every thread count.
    println!("\n## a batch of Q0s as one query — varying threads\n");
    let batch = ParallelScenario::with_branches(6, 20_000, 42)?;
    let dag = batch.physical.pipeline_dag();
    println!(
        "q0_batch_6: {} pipelines, parallel width {} (db: {} tuples)\n",
        dag.len(),
        dag.parallel_width(),
        batch.indexed.size()
    );
    let mut parallel_table = TextTable::new([
        "threads",
        "tuples fetched",
        "index lookups",
        "peak rows resident",
        "probe allocs",
        "wall time",
    ]);
    let mut single_threaded: Option<bea_engine::AccessStats> = None;
    for threads in [1usize, 2, 4] {
        let options = ExecOptions::new().with_threads(threads);
        let (result, ms) =
            time_ms(|| execute_physical_on(&batch.physical, &batch.indexed, &options));
        let (_, stats) = result?;
        if let Some(baseline) = &single_threaded {
            assert!(
                baseline.same_data_access(&stats),
                "thread count changed the data access"
            );
            assert_eq!(
                baseline.allocs_per_probe, stats.allocs_per_probe,
                "thread count changed the probe-path buffer demand"
            );
            assert_eq!(stats.peak_rows_resident, baseline.peak_rows_resident);
        }
        parallel_table.row([
            threads.to_string(),
            stats.tuples_fetched.to_string(),
            stats.index_lookups.to_string(),
            stats.peak_rows_resident.to_string(),
            stats.allocs_per_probe.to_string(),
            fmt_ms(ms),
        ]);
        single_threaded.get_or_insert(stats);
    }
    parallel_table.print();
    println!(
        "\nEvery thread count reads exactly the same tuples through the same index \
         lookups: a pipeline runs whole, on one thread, and a query never uses more \
         threads than its pipeline DAG is wide — parallelism pays across queries."
    );

    // One heavy query: a single anchor fans out to 16 384 keys that a second hop
    // probes, all in one pipeline. It runs on one thread at any thread count, so the
    // 4-thread leg measures what "one core per query" costs the heaviest query here.
    println!("\n## heavy chain — one heavy query at 1 and 4 threads\n");
    let chain = HeavyChainScenario::with_fan_out(16_384, 42)?;
    println!(
        "heavy_chain: fan-out {} over {} tuples, {} pipeline(s)\n",
        chain.fan_out,
        chain.indexed.size(),
        chain.physical.pipeline_dag().len(),
    );
    let mut chain_table = TextTable::new([
        "threads",
        "tuples fetched",
        "index lookups",
        "peak rows resident",
        "probe allocs",
        "wall p50",
    ]);
    let legs = [1usize, 4];
    // Time the legs *interleaved* (round-robin, one sample per leg per round) and
    // report each leg's fastest sample: background load drifts over seconds, so
    // back-to-back per-leg loops would charge the drift to whichever leg ran under
    // it, while the minimum estimates each leg's noise-free cost.
    const CHAIN_TIMING_ROUNDS: usize = 12;
    let mut samples: Vec<Vec<u64>> = vec![Vec::new(); legs.len()];
    for _ in 0..CHAIN_TIMING_ROUNDS {
        for (leg, threads) in legs.iter().enumerate() {
            let options = ExecOptions::new().with_threads(*threads);
            let start = std::time::Instant::now();
            execute_physical_on(&chain.physical, &chain.indexed, &options)?;
            samples[leg].push(start.elapsed().as_nanos() as u64);
        }
    }
    let best_of = |leg: usize| *samples[leg].iter().min().expect("rounds > 0") as f64 / 1e6;
    let mut one_thread: Option<bea_engine::AccessStats> = None;
    for (leg, threads) in legs.into_iter().enumerate() {
        let options = ExecOptions::new().with_threads(threads);
        let (_, stats) = execute_physical_on(&chain.physical, &chain.indexed, &options)?;
        if let Some(baseline) = &one_thread {
            assert!(
                baseline.same_data_access(&stats),
                "thread count changed the data access"
            );
            assert_eq!(
                baseline.values_cloned, stats.values_cloned,
                "thread count changed the copy traffic"
            );
        }
        chain_table.row([
            threads.to_string(),
            stats.tuples_fetched.to_string(),
            stats.index_lookups.to_string(),
            stats.peak_rows_resident.to_string(),
            stats.allocs_per_probe.to_string(),
            fmt_ms(best_of(leg)),
        ]);
        one_thread.get_or_insert(stats);
    }
    chain_table.print();
    println!(
        "\nbest-of-{CHAIN_TIMING_ROUNDS}: 1 thread {:.2} ms | 4 threads {:.2} ms",
        best_of(0),
        best_of(1)
    );

    // Sharded execution: the anchored Q0 plan over K index-partition shards. One plan,
    // keys routed at run time: the sharded physical plan equals the unsharded one, and
    // the fetch totals — and the copy traffic — are identical to shards = 1; only the
    // per-shard distribution differs (run here at 4 workers).
    println!("\n## sharded execution — anchored Q0 over K index-partition shards\n");
    let mut sharded_table = TextTable::new([
        "shards",
        "pipelines",
        "parallel width",
        "tuples fetched",
        "fetched per shard",
        "values cloned",
        "probe allocs",
        "wall time",
    ]);
    let mut unsharded: Option<(PhysicalPlan, bea_engine::AccessStats)> = None;
    for shards in [1u32, 4] {
        let scenario = ShardedScenario::with_shards(shards, 20_000, 42)?;
        let dag = scenario.physical.pipeline_dag();
        let store = &scenario.sharded;
        let options = ExecOptions::new().with_threads(4);
        let (result, ms) = time_ms(|| execute_physical_on(&scenario.physical, store, &options));
        let (_, stats) = result?;
        if let Some((physical, baseline)) = &unsharded {
            assert_eq!(
                physical, &scenario.physical,
                "shard count changed the physical plan"
            );
            assert!(
                baseline.same_data_access(&stats),
                "shard count changed the data access"
            );
            assert_eq!(
                baseline.values_cloned, stats.values_cloned,
                "shard count changed the copy traffic"
            );
            assert_eq!(
                baseline.allocs_per_probe, stats.allocs_per_probe,
                "shard count changed the probe-path buffer demand"
            );
        }
        let per_shard: Vec<String> = stats
            .rows_fetched_by_shard
            .iter()
            .map(|(shard, tuples)| format!("s{shard}: {tuples}"))
            .collect();
        sharded_table.row([
            shards.to_string(),
            dag.len().to_string(),
            dag.parallel_width().to_string(),
            stats.tuples_fetched.to_string(),
            per_shard.join(", "),
            stats.values_cloned.to_string(),
            stats.allocs_per_probe.to_string(),
            fmt_ms(ms),
        ]);
        unsharded.get_or_insert((scenario.physical, stats));
    }
    sharded_table.print();
    println!(
        "\nPartitioning the constraint indexes relocates the bounded fetch volume \
         across shards (the per-shard counts always sum to the same total) without \
         changing the plan or what is read or copied — boundedness survives sharding."
    );

    // The multi-query service: a mixed batch of priced queries against one shared
    // store under an aggregate fetch budget, every query submitted from its own
    // client thread. The accept/reject split and the aggregate-bound ceiling are
    // asserted, not just printed — bounded evaluability makes admission *exact*.
    println!("\n## multi-query service — fetch-bound admission over one shared store\n");
    let traffic = ConcurrentTrafficScenario::with_traffic(4, 2, 20_000, 42)?;
    let db_size = traffic.store.store().size();
    let mut service_table = TextTable::new(["query", "fetch bound", "verdict"]);
    for plan in traffic.admitted.iter().chain(&traffic.rejected) {
        let bound = plan.cost(&traffic.schema, db_size).max_fetched_tuples;
        let verdict = if bound <= traffic.budget {
            "admit"
        } else {
            "reject"
        };
        assert_eq!(
            verdict == "admit",
            traffic.admitted.iter().any(|p| std::ptr::eq(p, plan)),
            "the cost model's verdict drifted from the scenario's split"
        );
        service_table.row([
            plan.query_name().to_owned(),
            bound.to_string(),
            verdict.into(),
        ]);
    }
    let ((admitted, rejected), ms) = {
        let (result, ms) = time_ms(|| traffic.drive_session(4));
        (result?, ms)
    };
    assert_eq!(
        (admitted, rejected),
        (traffic.admitted.len(), traffic.rejected.len()),
        "the session's accept/reject split drifted from the cost model's"
    );
    service_table.print();
    println!(
        "\nbudget {} tuples | {} admitted, {} rejected (exactly the priced split; the \
         admitted bounds' high-water mark is asserted ≤ budget inside the drive) | \
         mixed batch drained concurrently at 4 workers in {}",
        traffic.budget,
        admitted,
        rejected,
        fmt_ms(ms)
    );
    Ok(())
}
