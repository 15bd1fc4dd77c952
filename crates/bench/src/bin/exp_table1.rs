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
//! It also runs E7, the ablations of the analysis: the PTIME coverage check against
//! the full bounded-evaluability analysis, A-equivalence rewrites on and off, and the
//! reasoning budget of A-containment; and E2–E6, the paper's quantitative claims
//! (`bea_bench::claims`), printing the bounded-vs-naive wall times they leave out.
//!
//! Run with `cargo run --release -p bea-bench --bin exp_table1`. Besides the printed
//! report, the binary rewrites the perf record `BENCH_pipeline.json` at the workspace
//! root, whatever its working directory: scenario → rows_fetched / peak_rows_resident /
//! values_cloned / allocs_per_probe / rows_served_from_cache, and claim → value, all
//! deterministic. The `scenarios` tests compare the committed file with a fresh build
//! of the record byte for byte, so a change that moves a counter or a claim commits the
//! rewritten file with it.

use bea_bench::claims::comparisons;
use bea_bench::families;
use bea_bench::report::{fmt_ms, time_ms, TextTable};
use bea_bench::scenarios::{
    pipeline_bench_report, AccidentsScenario, ConcurrentTrafficScenario, EcommerceScenario,
    GraphScenario, HeavyChainScenario, ParallelScenario, ShardedScenario,
};
use bea_core::bounded::{analyze_cq, BoundedConfig};
use bea_core::cover;
use bea_core::envelope::{lower_envelope_cq, upper_envelope_cq, EnvelopeConfig};
use bea_core::error::Error;
use bea_core::plan::{lower_plan, PhysicalPlan};
use bea_core::reason::containment::a_contained;
use bea_core::reason::ReasonConfig;
use bea_core::specialize::{specialize_cq, SpecializeConfig};
use bea_engine::{
    eval_cq, execute_physical_on, execute_plan, execute_plan_materialized, execute_plan_on,
    ExecOptions,
};

/// The perf record, at the workspace root.
const RECORD_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_pipeline.json");

fn main() -> Result<(), Box<dyn std::error::Error>> {
    if std::env::args().len() > 1 {
        eprintln!(
            "error: exp_table1 takes no arguments; `cargo test -p bea-bench` checks the \
             committed BENCH_pipeline.json against a fresh build, byte for byte"
        );
        std::process::exit(2);
    }
    run_experiments()?;
    run_ablations()?;
    run_claim_timings()?;

    println!("\n## BENCH_pipeline.json — pipeline perf record\n");
    let json = pipeline_bench_report()?.to_json();
    std::fs::write(RECORD_PATH, &json)?;
    print!("{json}");
    println!("(written to BENCH_pipeline.json at the workspace root)");
    Ok(())
}

/// E2, E4 and E6 in wall time: each comparison whose counts the record's `claims`
/// section holds, timed bounded and naive. The times are printed, never recorded.
fn run_claim_timings() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n# E2–E6 — the paper's claims: bounded vs naive wall time\n");
    let mut table = TextTable::new(["comparison", "|D|", "bounded", "naive", "speedup"]);
    for comparison in comparisons()? {
        let (bounded, bounded_ms) = time_ms(|| execute_plan(&comparison.plan, &comparison.indexed));
        let (naive, naive_ms) =
            time_ms(|| eval_cq(&comparison.query, comparison.indexed.database()));
        let same = bounded?.0.same_rows(&naive?.0);
        assert!(same, "{}: answers differ", comparison.key);
        table.row([
            comparison.key,
            comparison.indexed.size().to_string(),
            fmt_ms(bounded_ms),
            fmt_ms(naive_ms),
            format!("{:.1}x", naive_ms / bounded_ms.max(1e-6)),
        ]);
    }
    table.print();
    println!(
        "\nThe bounded plans read the same few tuples at every |D| (the access schema bounds \
         them a priori) while the naive evaluator reads all of D — the paper's \"access \
         small data\" effect. The tuples read and every other number of E2–E6 are in the \
         record's `claims` section below; docs/CLAIMS.md sets each beside the paper's."
    );
    Ok(())
}

/// E7: what the design choices of the analysis cost, on the unanchored 6-chain (not
/// covered, so the full analysis runs its satisfiability and rewrite machinery) and on
/// the anchored 6-chain contained in itself (a positive instance that sweeps the whole
/// enumeration unless the budget stops it first).
fn run_ablations() -> Result<(), Box<dyn std::error::Error>> {
    println!("\n# E7 — ablations: effective syntax vs semantic analysis, rewrites, budgets\n");
    let n = 6;
    let catalog = families::chain_catalog(n);
    let schema = families::chain_schema(&catalog, 4);
    let uncovered = families::unanchored_chain(&catalog, n)?;
    let covered = families::anchored_chain(&catalog, n)?;
    let mut table = TextTable::new(["ablation", "setting", "time", "outcome"]);

    let (report, ms) = time_ms(|| cover::coverage(&uncovered, &schema));
    assert!(!report.is_covered());
    table.row([
        "coverage only (PTIME)",
        "unanchored 6-chain",
        &fmt_ms(ms),
        "not covered",
    ]);
    for (setting, rewrites) in [("A-equivalence rewrites on", true), ("rewrites off", false)] {
        let config = BoundedConfig {
            use_a_equivalence_removal: rewrites,
            ..BoundedConfig::default()
        };
        let (verdict, ms) = time_ms(|| analyze_cq(&uncovered, &schema, &config));
        assert!(!verdict?.is_bounded());
        table.row(["full analysis", setting, &fmt_ms(ms), "not established"]);
    }
    for budget in [10_000u64, 100_000, 1_000_000] {
        let config = ReasonConfig::with_budget(budget);
        let (contained, ms) = time_ms(|| a_contained(&covered, &covered, &schema, &config));
        let outcome = match contained {
            Ok(true) => "contained",
            Ok(false) => unreachable!("a query is A-contained in itself"),
            Err(Error::BudgetExhausted { .. }) => "budget exhausted",
            Err(error) => return Err(error.into()),
        };
        let setting = format!("budget {budget}");
        table.row(["A-containment", &setting, &fmt_ms(ms), outcome]);
    }
    table.print();
    println!(
        "\nThe coverage check answers in microseconds where the full analysis pays for \
         satisfiability and rewrite searches before it can say \"not established\". The \
         containment rows show, per budget, whether the enumeration fit in it."
    );
    Ok(())
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
