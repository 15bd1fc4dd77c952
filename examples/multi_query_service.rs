//! Multi-query service: one `Session` serves queries from many threads at once
//! against one shared store, with fetch-bound admission control.
//!
//! The paper's central property — every covered query's worst-case fetch count is
//! known *before execution* from its bounded plan — turns admission control into a
//! static verdict: the session prices each submission with a `CostTicket` and
//! accepts, queues, or rejects it against an aggregate fetch budget. A rejection is
//! exact and deterministic, not a timeout.
//!
//! Each query runs on the thread that asks for it, as each `bead` connection's
//! queries run on that connection's thread: the same API backs the `bead` daemon /
//! `beactl` client pair (`cargo run --release -p bead --bin bead`, then
//! `beactl query '…'` over the Unix socket).
//!
//! Run with `cargo run --example multi_query_service`.

use bea::core::plan::bounded_plan;
use bea::engine::{Rejection, Session, SessionConfig, SharedStore, SubmitError};

/// Any error, from any caller's thread.
type BoxError = Box<dyn std::error::Error + Send + Sync>;
use bea::parser::parse_query;
use bea::storage::IndexedDatabase;
use bea::workload::accidents::{access_schema, generate, AccidentsConfig};

fn main() -> Result<(), BoxError> {
    // 1. One shared store: the synthetic accidents workload (ψ1–ψ4 indexed),
    //    loaded once and served to every query. `SharedStore` is the cheaply
    //    clonable handle a session owns.
    let config = AccidentsConfig::with_total_tuples(20_000, 0xBEAD);
    let db = generate(&config)?;
    let schema = access_schema(db.catalog());
    let catalog = db.catalog().clone();
    let store = SharedStore::from(IndexedDatabase::build(db, schema.clone())?);

    // 2. A mixed batch: anchored point lookups (fetch bound 1 via ψ3) and the
    //    Q0 join chain, whose bound is priced from the schema's cardinalities.
    let mut plans = Vec::new();
    for aid in 1..=4 {
        let rule = format!("Cheap{aid}(d) :- Accident(x, d, t), x = {aid}.");
        let query = parse_query(&catalog, &rule)?;
        plans.push(bounded_plan(query.as_cq().expect("single rule"), &schema)?);
    }
    let q0 = parse_query(
        &catalog,
        r#"Q0(age) :- Accident(aid, "Queen's Park", "day-0001"),
                      Casualty(cid, aid, class, vid),
                      Vehicle(vid, driver, age)."#,
    )?;
    let q0 = bounded_plan(q0.as_cq().expect("single rule"), &schema)?;
    let q0_bound = q0.cost(&schema, store.store().size()).max_fetched_tuples;
    println!("Q0 prices at a worst-case fetch of {q0_bound} tuples\n");
    plans.push(q0);

    // 3. An unlimited session: every query is admitted. Each caller runs its own
    //    query on its own thread and gets its own table — isolation per query,
    //    shared store.
    let session = Session::new(store.clone(), SessionConfig::new());
    std::thread::scope(|scope| -> Result<(), BoxError> {
        let callers: Vec<_> = plans
            .iter()
            .map(|plan| {
                let session = &session;
                scope.spawn(move || -> Result<_, BoxError> {
                    let (ticket, result) = session.run(plan)?;
                    let (table, stats) = result?;
                    Ok((ticket, table.rows().len(), stats))
                })
            })
            .collect();
        for caller in callers {
            let (ticket, rows, stats) = caller.join().expect("caller thread")?;
            let (name, bound) = (&ticket.query_name, ticket.fetch_bound);
            println!("{name:8} fetch_bound={bound:<8} rows={rows:<4} {stats}");
        }
        Ok(())
    })?;
    let report = session.admission_stats();
    println!("\nunlimited session: {}", describe(&report));
    session.shutdown();

    // 4. A budgeted session: the aggregate fetch budget admits the anchored
    //    lookups and statically rejects Q0 — same verdict on every run, decided
    //    from the cost ticket alone, before any data is touched.
    let budget = q0_bound - 1;
    let session = Session::new(store, SessionConfig::new().with_fetch_budget(budget));
    for plan in &plans {
        match session.run(plan) {
            Ok((ticket, result)) => {
                let (table, _) = result?;
                println!(
                    "ADMIT  {:8} fetch_bound={} rows={}",
                    plan.query_name(),
                    ticket.fetch_bound,
                    table.rows().len()
                );
            }
            Err(SubmitError::Rejected { rejection, .. }) => match rejection {
                Rejection::FetchBound { bound, budget } => println!(
                    "REJECT {:8} fetch_bound={bound} exceeds budget={budget}",
                    plan.query_name()
                ),
                other => println!("REJECT {:8} {other}", plan.query_name()),
            },
            Err(other) => return Err(other.into()),
        }
    }
    let report = session.admission_stats();
    println!(
        "\nbudgeted session (budget={budget}): {}",
        describe(&report)
    );
    session.shutdown();
    Ok(())
}

fn describe(report: &bea::engine::AdmissionStats) -> String {
    format!(
        "submitted={} admitted={} rejected={} completed={} failed={} peak_admitted_bound={}",
        report.submitted,
        report.admitted,
        report.rejected,
        report.completed,
        report.failed,
        report.peak_admitted_bound
    )
}
