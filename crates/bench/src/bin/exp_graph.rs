//! E4 — personalized graph pattern queries: bounded evaluation vs full-relation joins.
//!
//! Paper reference points (introduction, citing \[11\]): 60% of graph pattern queries on
//! real-life Web graphs are boundedly evaluable under simple access constraints, and
//! bounded evaluation outperforms conventional subgraph-isomorphism evaluation by about
//! four orders of magnitude. We reproduce the shape on synthetic degree-bounded social
//! graphs: the read ratio between the baseline and the bounded plan grows with the graph,
//! reaching 10³–10⁴ at moderate sizes, and a majority of a random pattern workload is
//! covered.
//!
//! Run with `cargo run --release -p bea-bench --bin exp_graph`.

use bea_bench::report::{fmt_ms, time_ms, TextTable};
use bea_bench::scenarios::GraphScenario;
use bea_core::cover;
use bea_engine::{eval_cq, execute_plan};
use bea_workload::querygen;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("# E4 — personalized graph search: bounded vs conventional evaluation\n");
    let mut table = TextTable::new([
        "persons",
        "graph tuples",
        "bounded reads",
        "bounded time",
        "naive reads",
        "naive time",
        "read ratio",
    ]);

    for &persons in &[2_000u32, 10_000, 50_000] {
        let scenario = GraphScenario::with_persons(persons, 9)?;
        let size = scenario.indexed.size();
        let ((bounded, stats), bounded_ms) =
            time_ms(|| execute_plan(&scenario.plan, &scenario.indexed).expect("plan executes"));
        let ((naive, naive_stats), naive_ms) = time_ms(|| {
            eval_cq(&scenario.personalized, scenario.indexed.database()).expect("naive evaluates")
        });
        assert!(bounded.same_rows(&naive));
        table.row([
            persons.to_string(),
            size.to_string(),
            stats.tuples_fetched.to_string(),
            fmt_ms(bounded_ms),
            naive_stats.tuples_scanned.to_string(),
            fmt_ms(naive_ms),
            format!(
                "{:.0}x",
                naive_stats.tuples_scanned as f64 / stats.tuples_fetched.max(1) as f64
            ),
        ]);
    }
    table.print();

    // Fraction of a random pattern workload that is boundedly evaluable (paper: 60%).
    let scenario = GraphScenario::with_persons(2_000, 9)?;
    let workload = querygen::random_workload_from_db(
        &scenario.catalog,
        Some(&scenario.schema),
        scenario.indexed.database(),
        200,
        &querygen::QueryGenConfig::default(),
    )?;
    let covered = workload
        .iter()
        .filter(|q| cover::is_covered(q, &scenario.schema))
        .count();
    println!(
        "\nrandom pattern workload: {}/{} queries ({:.0}%) are covered by the degree-bound \
         access schema (paper reference point: 60% of pattern queries).",
        covered,
        workload.len(),
        100.0 * covered as f64 / workload.len() as f64
    );
    println!(
        "the global (unanchored) pattern is correctly reported as not boundedly evaluable: {}",
        !cover::is_bounded(&scenario.global, &scenario.schema)
    );
    Ok(())
}
