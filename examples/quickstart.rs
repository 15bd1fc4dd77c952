//! Quickstart: declare a schema, an access schema and a query as text, check bounded
//! evaluability, and answer the query by accessing a bounded amount of data.
//!
//! Run with `cargo run --example quickstart`.

use bea::core::bounded::{analyze_cq, BoundedConfig, BoundedVerdict};
use bea::core::plan::bounded_plan;
use bea::engine::{eval_cq, execute_plan, execute_plan_on, ExecOptions};
use bea::parser::{parse_access_schema, parse_catalog, parse_query};
use bea::storage::{Database, IndexedDatabase};
use bea_core::value::Value;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The relational schema (Example 1.1 of the paper).
    let catalog = parse_catalog(
        "relation Accident(aid, district, date);
         relation Casualty(cid, aid, class, vid);
         relation Vehicle(vid, driver, age);",
    )?;

    // 2. The access schema ψ1–ψ4: cardinality constraints, each backed by an index.
    let schema = parse_access_schema(
        &catalog,
        "Accident(date -> aid, 610);
         Casualty(aid -> vid, 192);
         Accident(aid -> district, date, 1);
         Vehicle(vid -> driver, age, 1);",
    )?;
    println!("access schema:\n{}\n", schema.display_with(&catalog));

    // 3. The query Q0: ages of drivers involved in an accident in Queen's Park on a day.
    let q0 = parse_query(
        &catalog,
        r#"Q0(age) :- Accident(aid, "Queen's Park", "1/5/2005"),
                      Casualty(cid, aid, class, vid),
                      Vehicle(vid, driver, age)."#,
    )?;
    let q0 = q0.as_cq().expect("a single rule is a CQ").clone();
    println!("query: {q0}\n");

    // 4. Bounded evaluability analysis: Q0 is covered by ψ1–ψ4.
    match analyze_cq(&q0, &schema, &BoundedConfig::default())? {
        BoundedVerdict::Covered(report) => {
            println!(
                "Q0 is covered: at most {} answer tuples on any database satisfying the schema",
                report.output_bound(&schema, 1_000_000).unwrap()
            );
        }
        other => println!("unexpected verdict: {other:?}"),
    }

    // 5. A boundedly evaluable plan, and a miniature database to run it on.
    let plan = bounded_plan(&q0, &schema)?;
    println!("\n{plan}");

    let mut db = Database::new(catalog.clone());
    db.extend(
        "Accident",
        [
            vec![
                Value::int(1),
                Value::str("Queen's Park"),
                Value::str("1/5/2005"),
            ],
            vec![Value::int(2), Value::str("Leith"), Value::str("1/5/2005")],
        ],
    )?;
    db.extend(
        "Casualty",
        [
            vec![
                Value::int(10),
                Value::int(1),
                Value::int(0),
                Value::int(100),
            ],
            vec![
                Value::int(11),
                Value::int(1),
                Value::int(1),
                Value::int(101),
            ],
            vec![
                Value::int(12),
                Value::int(2),
                Value::int(0),
                Value::int(102),
            ],
        ],
    )?;
    db.extend(
        "Vehicle",
        [
            vec![Value::int(100), Value::str("alice"), Value::int(34)],
            vec![Value::int(101), Value::str("bob"), Value::int(52)],
            vec![Value::int(102), Value::str("carol"), Value::int(45)],
        ],
    )?;

    // The baseline scans everything; the bounded plan only touches what the indices return.
    let (naive_answer, naive_stats) = eval_cq(&q0, &db)?;
    let indexed = IndexedDatabase::build(db, schema)?;
    assert!(indexed.satisfies_schema());
    let (bounded_answer, bounded_stats) = execute_plan(&plan, &indexed)?;

    println!("bounded answer:\n{bounded_answer}");
    assert!(bounded_answer.same_rows(&naive_answer));
    println!("bounded evaluation: {bounded_stats}");
    println!("naive evaluation:   {naive_stats}");

    // 6. The streaming executor can run independent pipelines on worker threads
    //    (ExecOptions::with_threads; the default resolves to BEA_THREADS or the
    //    machine's parallelism). Whatever the thread count, a bounded plan touches
    //    exactly the same data — parallelism scales the hardware, not the access bound.
    let (parallel_answer, parallel_stats) =
        execute_plan_on(&plan, &indexed, &ExecOptions::new().with_threads(4))?;
    assert!(parallel_answer.same_rows(&bounded_answer));
    assert!(parallel_stats.same_data_access(&bounded_stats));
    println!("parallel (4 threads) reads the same data: {parallel_stats}");
    Ok(())
}
