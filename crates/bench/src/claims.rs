//! The paper's quantitative claims, E2–E6, as the `claims` section of
//! `BENCH_pipeline.json`.
//!
//! Every value here is a function of fixed seeds and sizes: answers, tuples read,
//! static bounds, naive reads, covered and bounded counts, envelope sizes and bounds,
//! specialization parameters and verdicts. So the record holds each one exactly, and
//! the `scenarios` test compares it byte for byte. Wall times are not claims:
//! `exp_table1` times the [`comparisons`] and prints them, never records them.
//! `docs/CLAIMS.md` sets each recorded value beside the paper's.

use crate::scenarios::{AccidentsScenario, GraphScenario};
use bea_core::access::AccessSchema;
use bea_core::bounded::{analyze_cq, BoundedConfig};
use bea_core::cover;
use bea_core::envelope::{lower_envelope_cq, upper_envelope_cq, EnvelopeConfig};
use bea_core::error::Result;
use bea_core::plan::{bounded_plan, QueryPlan};
use bea_core::query::cq::ConjunctiveQuery;
use bea_core::query::fo::{FirstOrderQuery, Formula};
use bea_core::schema::Catalog;
use bea_core::specialize::{
    always_boundedly_specializable, instantiate, specialize_cq, SpecializeConfig,
};
use bea_core::value::Value;
use bea_engine::{eval_cq, execute_plan};
use bea_parser::{parse_access_schema, parse_catalog, parse_query};
use bea_storage::{discover_constraints, Database, DiscoveryOptions, IndexedDatabase};
use bea_workload::{accidents, ecommerce, querygen};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt::Debug;

/// Claim key → value as JSON, keys sorted.
pub type Claims = BTreeMap<String, String>;

/// Record `value` under `key`. The values recorded are integers, booleans, strings
/// and lists of strings, whose `Debug` form is their JSON (no string holds a control
/// character).
fn set(claims: &mut Claims, key: impl ToString, value: impl Debug) {
    claims.insert(key.to_string(), format!("{value:?}"));
}

/// E3 keeps a mined constraint `R(X → Y, N)` only when `N ≤ |R| / MINED_CAP_DIVISOR`.
/// Mining measures N on the data, so it also finds "fetch the whole column"
/// constraints such as `Casualty(∅ → aid, 2167)`. Each satisfies the data, yet reading
/// a tenth of a relation or more is a scan, not access to small data, and with them
/// the mined set "covers" every query of the workload.
pub const MINED_CAP_DIVISOR: u64 = 10;

/// Build every claim.
pub fn claims() -> Result<Claims> {
    let mut claims = Claims::new();
    for comparison in comparisons()? {
        comparison.record(&mut claims)?;
    }
    coverage(&mut claims)?;
    graph_workload(&mut claims)?;
    envelopes(&mut claims)?;
    specialization(&mut claims)?;
    Ok(claims)
}

/// One bounded-vs-naive comparison: a query, its bounded plan and an indexed instance.
pub struct Comparison {
    /// The key prefix of its claims, e.g. `e2.q0_at_25000`.
    pub key: String,
    /// The query the naive evaluator runs.
    pub query: ConjunctiveQuery,
    /// Its boundedly evaluable plan.
    pub plan: QueryPlan,
    /// The data; it satisfies the access schema.
    pub indexed: IndexedDatabase,
}

impl Comparison {
    /// Record |D|, the answers, the tuples the plan reads, its static bound and the
    /// tuples the naive evaluator reads, after asserting both give the same answer.
    fn record(&self, claims: &mut Claims) -> Result<()> {
        let key = &self.key;
        assert!(self.indexed.satisfies_schema(), "{key}: D ⊭ A");
        let size = self.indexed.size();
        let (bounded, stats) = execute_plan(&self.plan, &self.indexed)?;
        let (naive, naive_stats) = eval_cq(&self.query, self.indexed.database())?;
        assert!(bounded.same_rows(&naive), "{key}: answers differ");
        let bound = self
            .plan
            .cost(self.indexed.schema(), size)
            .max_fetched_tuples;
        set(claims, format!("{key}.db_tuples"), size);
        set(claims, format!("{key}.answers"), bounded.len());
        set(claims, format!("{key}.tuples_read"), stats.tuples_fetched);
        set(claims, format!("{key}.static_bound"), bound);
        set(
            claims,
            format!("{key}.naive_reads"),
            naive_stats.tuples_scanned,
        );
        Ok(())
    }
}

/// The bounded-vs-naive comparisons at their recorded sizes and seeds:
/// - E2, Example 1.1: Q0 over ψ1–ψ4 at 25 000 and 100 000 target tuples, seed 42;
/// - E4: the personalized graph pattern over 2 000 persons, seed 9;
/// - E6, Example 5.1: the accidents query specialized with `date = day-0001`, at
///   25 000 target tuples, seed 5.
pub fn comparisons() -> Result<Vec<Comparison>> {
    let mut out = Vec::new();
    for target in [25_000, 100_000] {
        let scenario = AccidentsScenario::with_total_tuples(target, 42)?;
        out.push(Comparison {
            key: format!("e2.q0_at_{target}"),
            query: scenario.q0,
            plan: scenario.plan,
            indexed: scenario.indexed,
        });
    }
    let graph = GraphScenario::with_persons(2_000, 9)?;
    out.push(Comparison {
        key: "e4.personalized_at_2000".to_owned(),
        query: graph.personalized,
        plan: graph.plan,
        indexed: graph.indexed,
    });
    let catalog = accidents::catalog();
    let schema = accidents::access_schema(&catalog);
    let query = instantiate(
        &accidents::parameterized_query(&catalog)?,
        &[("date", accidents::date_value(1))],
    )?;
    let db = accidents::generate(&accidents::AccidentsConfig::with_total_tuples(25_000, 5))?;
    out.push(Comparison {
        key: "e6.specialized_at_25000".to_owned(),
        plan: bounded_plan(&query, &schema)?,
        query,
        indexed: IndexedDatabase::build(db, schema)?,
    });
    Ok(out)
}

/// E3's data, CQ workload and constraint sets.
pub struct CoverageSetup {
    /// The accidents data the constraints are mined from.
    pub database: Database,
    /// The random CQ workload.
    pub workload: Vec<ConjunctiveQuery>,
    /// How many constraints mining found before the cap.
    pub mined: usize,
    /// Label → schema: none; prefixes of the capped mined set at the sizes that
    /// exist; the whole capped set; the hand-written ψ1–ψ4.
    pub sets: Vec<(String, AccessSchema)>,
}

/// Build E3: mine constraints from generated accident data ("simple aggregate queries
/// on D0", Example 1.1), drop those over [`MINED_CAP_DIVISOR`], and draw a 500-query
/// workload.
pub fn coverage_setup() -> Result<CoverageSetup> {
    let catalog = accidents::catalog();
    let handcrafted = accidents::access_schema(&catalog);
    let database = accidents::generate(&accidents::AccidentsConfig {
        num_days: 20,
        avg_accidents_per_day: 100,
        avg_casualties_per_accident: 2,
        num_districts: 20,
        seed: 11,
    })?;
    let options = DiscoveryOptions {
        max_key_size: 2,
        max_cardinality: 5_000,
        include_empty_keys: true,
    };
    let mut capped = discover_constraints(&database, &options)?;
    let mined = capped.len();
    capped.retain(|c| {
        let relation = database
            .relation(c.relation())
            .map_or(0, |r| r.len() as u64);
        c.cardinality()
            .as_const()
            .is_some_and(|n| n * MINED_CAP_DIVISOR <= relation)
    });
    let workload = querygen::random_workload_from_db(
        &catalog,
        Some(&handcrafted),
        &database,
        500,
        &querygen::QueryGenConfig::default(),
    )?;
    let mut sets = vec![("none".to_owned(), AccessSchema::new())];
    // Mining sorts by N, so a prefix holds the most selective constraints.
    for prefix in [4, 12, 28, 84].into_iter().filter(|&p| p < capped.len()) {
        let schema = AccessSchema::from_constraints(capped[..prefix].to_vec());
        sets.push((format!("mined_first_{prefix}"), schema));
    }
    sets.push((
        "mined_all".to_owned(),
        AccessSchema::from_constraints(capped),
    ));
    sets.push(("handwritten_psi1_4".to_owned(), handcrafted));
    Ok(CoverageSetup {
        database,
        workload,
        mined,
        sets,
    })
}

/// E3: per constraint set, how many workload queries the PTIME coverage test accepts
/// and how many the full bounded-evaluability analysis does.
fn coverage(claims: &mut Claims) -> Result<()> {
    let setup = coverage_setup()?;
    let config = BoundedConfig::default();
    set(claims, "e3.mined_before_cap", setup.mined);
    set(claims, "e3.workload", setup.workload.len());
    for (label, schema) in &setup.sets {
        let queries = setup.workload.iter();
        let covered = queries.clone().filter(|q| cover::is_covered(q, schema));
        // An analysis that fails (its reasoning budget runs out) establishes nothing.
        let bounded =
            queries.filter(|q| analyze_cq(q, schema, &config).is_ok_and(|v| v.is_bounded()));
        set(claims, format!("e3.{label}.constraints"), schema.len());
        set(claims, format!("e3.{label}.covered"), covered.count());
        set(claims, format!("e3.{label}.bounded"), bounded.count());
    }
    Ok(())
}

/// E4: how much of a random pattern workload the degree-bound schema covers, and
/// whether the global (unanchored) pattern is bounded.
fn graph_workload(claims: &mut Claims) -> Result<()> {
    let graph = GraphScenario::with_persons(2_000, 9)?;
    let workload = querygen::random_workload_from_db(
        &graph.catalog,
        Some(&graph.schema),
        graph.indexed.database(),
        200,
        &querygen::QueryGenConfig::default(),
    )?;
    let covered = workload
        .iter()
        .filter(|q| cover::is_covered(q, &graph.schema));
    set(claims, "e4.workload", workload.len());
    set(claims, "e4.workload_covered", covered.count());
    let bounded = cover::is_bounded(&graph.global, &graph.schema);
    set(claims, "e4.global_pattern_bounded", bounded);
    Ok(())
}

/// The instance sizes E5 measures the envelopes on. The lower envelope holds the cycle
/// R(1, x) ∧ R(x, y) ∧ R(y, 1). [`random_r_instance`] draws b from a + 1 … a + 6
/// modulo its rows / 6 keys, so three hops advance 3 … 18 and close only over at most
/// 18 keys: from 200 rows (33 keys) on, |Ql(D)| = 0 and the lower gap is all of Q1(D).
const ENVELOPE_SIZES: [usize; 6] = [24, 48, 96, 200, 2_000, 20_000];

/// E5, §4: Example 4.1's Q1 has both envelopes and Q2 none (Lemma 4.2: Q2 is not
/// bounded); on random instances satisfying R(a → b, 6), Ql(D) ⊆ Q1(D) ⊆ Qu(D) with
/// gaps within Nₗ and Nᵤ; Example 4.5's lower envelope splits an unindexed atom.
fn envelopes(claims: &mut Claims) -> Result<()> {
    let catalog = parse_catalog("relation R(a, b);")?;
    let schema = parse_access_schema(&catalog, "R(a -> b, 6);")?;
    let config = EnvelopeConfig::default();
    let q1 = parse_query(&catalog, "Q1(x) :- R(w, x), R(y, w), R(x, z), w = 1.")?;
    let q1 = q1.as_cq().expect("Q1 is a CQ");
    let q2 = parse_query(&catalog, "Q2(x, y) :- R(w, x), R(y, w), w = 1.")?;
    let q2 = q2.as_cq().expect("Q2 is a CQ");

    let upper = upper_envelope_cq(q1, &schema, &config)?.expect("Q1 has an upper envelope");
    let lower =
        lower_envelope_cq(q1, &schema, &catalog, 2, &config)?.expect("Q1 has a lower envelope");
    let n_upper = upper
        .approximation_bound(&schema, 1 << 20)
        .expect("Q1's upper envelope has a constant bound");
    let n_lower = lower.approximation_bound(&cover::coverage(q1, &schema), &schema, 1 << 20);
    set(claims, "e5.q1.bounded", cover::is_bounded(q1, &schema));
    set(claims, "e5.q1.covered", cover::is_covered(q1, &schema));
    set(claims, "e5.q1.upper_envelope", upper.query.to_string());
    set(claims, "e5.q1.lower_envelope", lower.query.to_string());
    set(claims, "e5.q1.n_upper", n_upper);
    set(claims, "e5.q1.n_lower", n_lower);
    set(claims, "e5.q2.bounded", cover::is_bounded(q2, &schema));
    let q2_upper = upper_envelope_cq(q2, &schema, &config)?;
    set(claims, "e5.q2.has_upper_envelope", q2_upper.is_some());
    let q2_lower = lower_envelope_cq(q2, &schema, &catalog, 2, &config)?;
    set(claims, "e5.q2.has_lower_envelope", q2_lower.is_some());

    let upper_plan = bounded_plan(&upper.query, &schema)?;
    let lower_plan = bounded_plan(&lower.query, &schema)?;
    for rows in ENVELOPE_SIZES {
        let db = random_r_instance(&catalog, rows, 6, 0xE5)?;
        let indexed = IndexedDatabase::build(db, schema.clone())?;
        assert!(indexed.satisfies_schema());
        let (exact, _) = eval_cq(q1, indexed.database())?;
        let (upper_answer, _) = execute_plan(&upper_plan, &indexed)?;
        let (lower_answer, _) = execute_plan(&lower_plan, &indexed)?;
        assert!(lower_answer.row_set().is_subset(&exact.row_set()));
        assert!(exact.row_set().is_subset(&upper_answer.row_set()));
        assert!((upper_answer.len() - exact.len()) as u64 <= n_upper);
        assert!((exact.len() - lower_answer.len()) as u64 <= n_lower);
        set(claims, format!("e5.at_{rows}.db_tuples"), indexed.size());
        set(claims, format!("e5.at_{rows}.q1"), exact.len());
        set(claims, format!("e5.at_{rows}.upper"), upper_answer.len());
        set(claims, format!("e5.at_{rows}.lower"), lower_answer.len());
    }

    let catalog = parse_catalog("relation S(a, b, c);")?;
    let schema = parse_access_schema(&catalog, "S(a -> b, 4); S(b -> c, 1);")?;
    let q = parse_query(&catalog, "Q(x, y) :- S(1, x, y).")?;
    let split = lower_envelope_cq(q.as_cq().expect("a CQ"), &schema, &catalog, 1, &config)?
        .expect("Example 4.5 has a 1-expansion lower envelope");
    let envelope = split.query.to_string();
    set(claims, "e5.example_4_5.lower_envelope", envelope);
    set(claims, "e5.example_4_5.split_used", split.used_split);
    Ok(())
}

/// A random R(a, b) instance with at most `fanout` distinct b-values per a-value, i.e.
/// satisfying R(a → b, fanout).
fn random_r_instance(catalog: &Catalog, rows: usize, fanout: u64, seed: u64) -> Result<Database> {
    let mut db = Database::new(catalog.clone());
    let mut rng = StdRng::seed_from_u64(seed);
    let keys = (rows as u64 / fanout).max(4) as i64;
    for _ in 0..rows {
        let a = rng.gen_range(1..=keys);
        // b-values are drawn from the key range so that chains R(1, x), R(x, z) exist,
        // with at most `fanout` distinct b-values per a-value.
        let b = ((a + rng.gen_range(0..fanout as i64)) % keys) + 1;
        db.insert("R", vec![Value::Int(a), Value::Int(b)])?;
    }
    Ok(db)
}

/// E6, §5: the minimum parameter tuples (k ≤ 2) of the accidents query (Example 5.1)
/// and three e-commerce queries; Proposition 5.4 under ψ1–ψ4 and under a schema that
/// covers the catalog; genericity of the specialized accidents query.
fn specialization(claims: &mut Claims) -> Result<()> {
    let config = SpecializeConfig::default();
    let acc_catalog = accidents::catalog();
    let psi = accidents::access_schema(&acc_catalog);
    let acc_query = accidents::parameterized_query(&acc_catalog)?;
    let ec_catalog = ecommerce::catalog();
    let ec_schema = ecommerce::access_schema(&ec_catalog);
    for (label, query, schema) in [
        ("accidents_ages", acc_query.clone(), &psi),
        (
            "orders_of_customer",
            ecommerce::orders_of_customer(&ec_catalog)?,
            &ec_schema,
        ),
        (
            "products_in_category",
            ecommerce::products_in_category(&ec_catalog)?,
            &ec_schema,
        ),
        (
            "customers_by_brand",
            ecommerce::customers_by_brand(&ec_catalog)?,
            &ec_schema,
        ),
    ] {
        let key = format!("e6.qsp.{label}");
        let params: Vec<&str> = query.params().iter().map(|&v| query.var_name(v)).collect();
        set(claims, format!("{key}.parameters"), params);
        let minimum = specialize_cq(&query, schema, 2, &config)?;
        set(claims, format!("{key}.specializable"), minimum.is_some());
        if let Some(minimum) = minimum {
            set(claims, format!("{key}.minimum"), minimum.parameter_names);
        }
    }

    let fully = FirstOrderQuery::new(
        "AnyVehicle",
        ["v"],
        Formula::exists(["d", "a"], Formula::atom("Vehicle", ["v", "d", "a"])),
    )
    .with_params(["v", "d", "a"]);
    let covering = parse_access_schema(
        &acc_catalog,
        "Accident(aid -> district, date, 1); Casualty(cid -> aid, class, vid, 1); \
         Vehicle(vid -> driver, age, 1);",
    )?;
    let under_psi = always_boundedly_specializable(&fully, &psi, &acc_catalog);
    set(claims, "e6.prop_5_4.under_psi1_4", under_psi);
    let under_covering = always_boundedly_specializable(&fully, &covering, &acc_catalog);
    set(claims, "e6.prop_5_4.under_covering_schema", under_covering);
    // The specialization is generic: any valuation is covered, even one absent from D.
    let odd = instantiate(
        &acc_query,
        &[
            ("date", Value::str("nonexistent-day")),
            ("district", Value::str("Atlantis")),
        ],
    )?;
    set(
        claims,
        "e6.genericity_covered",
        cover::is_covered(&odd, &psi),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// No mined constraint of a recorded E3 set reads more than a tenth of its
    /// relation, and no prefix is labelled with a size the capped set does not have.
    #[test]
    fn mined_constraint_sets_stay_under_the_cap() {
        let setup = coverage_setup().unwrap();
        let mined: Vec<_> = setup
            .sets
            .iter()
            .filter(|(label, _)| label.starts_with("mined"))
            .collect();
        let all = mined.last().expect("a mined set").1.len();
        assert!(all > 0 && all < setup.mined, "the cap dropped nothing");
        for (label, schema) in mined {
            if let Some(prefix) = label.strip_prefix("mined_first_") {
                assert_eq!(prefix.parse::<usize>().unwrap(), schema.len());
                assert!(schema.len() < all, "{label}: the whole set, relabelled");
            }
            for constraint in schema.constraints() {
                let n = constraint.cardinality().as_const().unwrap();
                let relation = setup.database.relation(constraint.relation()).unwrap();
                assert!(
                    n * MINED_CAP_DIVISOR <= relation.len() as u64,
                    "{label} holds {} with N = {n} over |{}| = {}",
                    constraint.display_with(setup.database.catalog()),
                    constraint.relation(),
                    relation.len()
                );
            }
        }
    }

    /// `docs/CLAIMS.md` cannot rot: every record key it names is in the committed
    /// record's `claims` section (which the `scenarios` test holds equal to a fresh
    /// build), every test it names exists, and it has a row for each statement below.
    #[test]
    fn claims_doc_names_only_recorded_keys() {
        let doc = include_str!("../../../docs/CLAIMS.md");
        let record = include_str!("../../../BENCH_pipeline.json");
        let recorded = &record[record.find("\"claims\"").expect("a claims section")..];
        let (mut keys, mut tests) = (0, 0);
        for token in doc.split('`').skip(1).step_by(2) {
            if let Some((path, function)) = token.rsplit_once("::") {
                // `tests/x.rs::f`, or `module::tests::f` inside this crate.
                let file = match path.strip_suffix("::tests") {
                    Some(module) => format!("crates/bench/src/{module}.rs"),
                    None => path.to_owned(),
                };
                let source =
                    std::fs::read_to_string(format!("{}/../../{file}", env!("CARGO_MANIFEST_DIR")))
                        .unwrap_or_else(|e| panic!("CLAIMS.md names {token}: {file}: {e}"));
                assert!(
                    source.contains(&format!("fn {function}(")),
                    "CLAIMS.md names {token}, which {file} does not define"
                );
                tests += 1;
            } else if ["e2.", "e3.", "e4.", "e5.", "e6."]
                .iter()
                .any(|experiment| token.starts_with(experiment))
            {
                assert!(
                    recorded.contains(&format!("\"{token}\":")),
                    "CLAIMS.md names {token}, which the record does not hold"
                );
                keys += 1;
            }
        }
        assert!(
            keys >= 40 && tests >= 8,
            "{keys} keys and {tests} tests named"
        );
        for statement in [
            "Example 1.1",
            "Table 1",
            "Example 3.1",
            "Lemma 4.2",
            "Example 4.5",
            "Example 5.1",
            "Prop. 5.4",
            "77 %",
            "60 %",
        ] {
            assert!(
                doc.contains(statement),
                "CLAIMS.md has no row for {statement}"
            );
        }
    }

    /// The lower envelope answers on some recorded instance, so "lower gap ≤ Nₗ"
    /// tests something: 0 < |Ql(D)|, and the gap is below |Q1(D)|.
    #[test]
    fn some_recorded_lower_envelope_is_not_empty() {
        let mut claims = Claims::new();
        envelopes(&mut claims).unwrap();
        let count = |key: String| claims[&key].parse::<u64>().unwrap();
        let answering = ENVELOPE_SIZES.iter().filter(|rows| {
            let q1 = count(format!("e5.at_{rows}.q1"));
            let lower = count(format!("e5.at_{rows}.lower"));
            0 < lower && q1 - lower < q1
        });
        assert!(answering.count() > 0, "every recorded |Ql(D)| is 0");
    }
}
