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
//! values_cloned, and claim → value, all deterministic. The
//! `scenarios` tests compare the committed file with a fresh build of the record byte
//! for byte, so a change that moves a counter or a claim commits the rewritten file
//! with it. The pipeline's own properties — streaming ≡ the literal reference, solo ≡
//! served, the service's accept/reject split — are the scenario tests' to assert; this
//! binary does not repeat them.

use bea_bench::claims::comparisons;
use bea_bench::families;
use bea_bench::report::{fmt_ms, time_ms, TextTable};
use bea_bench::scenarios::pipeline_bench_report;
use bea_core::bounded::{analyze_cq, BoundedConfig};
use bea_core::cover;
use bea_core::envelope::{lower_envelope_cq, upper_envelope_cq, EnvelopeConfig};
use bea_core::error::Error;
use bea_core::reason::containment::a_contained;
use bea_core::reason::ReasonConfig;
use bea_core::specialize::{specialize_cq, SpecializeConfig};
use bea_engine::{eval_cq, execute_plan};

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
    Ok(())
}
