//! The UK road-accidents workload of Example 1.1.
//!
//! The real dataset [data.gov.uk road-accidents] has ~7.5M accidents, ~10M casualties and
//! ~13.5M vehicles and satisfies the access constraints ψ1–ψ4 (at most 610 accidents per
//! day, at most 192 casualties per accident, `aid` and `vid` keys). The generator below
//! produces databases with the same schema and the same cardinality profile at any scale,
//! which is all the bounded-evaluability analysis and the experiments depend on.

use bea_core::access::{AccessConstraint, AccessSchema};
use bea_core::error::Result;
use bea_core::query::cq::ConjunctiveQuery;
use bea_core::query::term::Arg;
use bea_core::schema::Catalog;
use bea_core::value::Value;
use bea_storage::Database;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write;

/// The maximum number of accidents per day stated by ψ1.
pub const MAX_ACCIDENTS_PER_DAY: u64 = 610;
/// The maximum number of casualties (vehicle references) per accident stated by ψ2.
pub const MAX_CASUALTIES_PER_ACCIDENT: u64 = 192;

/// The relational schema of Example 1.1.
pub fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.declare("Accident", ["aid", "district", "date"])
        .expect("static schema");
    c.declare("Casualty", ["cid", "aid", "class", "vid"])
        .expect("static schema");
    c.declare("Vehicle", ["vid", "driver", "age"])
        .expect("static schema");
    c
}

/// The access schema ψ1–ψ4 of Example 1.1.
pub fn access_schema(catalog: &Catalog) -> AccessSchema {
    AccessSchema::from_constraints([
        AccessConstraint::new(
            catalog,
            "Accident",
            &["date"],
            &["aid"],
            MAX_ACCIDENTS_PER_DAY,
        )
        .expect("static constraint"),
        AccessConstraint::new(
            catalog,
            "Casualty",
            &["aid"],
            &["vid"],
            MAX_CASUALTIES_PER_ACCIDENT,
        )
        .expect("static constraint"),
        AccessConstraint::new(catalog, "Accident", &["aid"], &["district", "date"], 1)
            .expect("static constraint"),
        AccessConstraint::new(catalog, "Vehicle", &["vid"], &["driver", "age"], 1)
            .expect("static constraint"),
    ])
}

/// Configuration of the accidents generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AccidentsConfig {
    /// Number of days covered by the dataset (the real data spans 1979–2005, ~9_800 days).
    pub num_days: u32,
    /// Average number of accidents per day (must stay ≤ 610 to satisfy ψ1; the real data
    /// averages ~770k accidents over ~9_800 days ≈ 280/day).
    pub avg_accidents_per_day: u32,
    /// Average number of casualties per accident (the paper notes accidents involve ~2
    /// vehicles on average; must stay well below 192 to satisfy ψ2).
    pub avg_casualties_per_accident: u32,
    /// Number of distinct districts.
    pub num_districts: u32,
    /// RNG seed, so experiments are reproducible.
    pub seed: u64,
}

impl Default for AccidentsConfig {
    fn default() -> Self {
        Self {
            num_days: 50,
            avg_accidents_per_day: 200,
            avg_casualties_per_accident: 2,
            num_districts: 30,
            seed: 0xACC1DE,
        }
    }
}

impl AccidentsConfig {
    /// A configuration scaled to `total_tuples`: the generated database holds about 1.2×
    /// that many tuples, split across the three relations as in the real data.
    pub fn with_total_tuples(total_tuples: u64, seed: u64) -> Self {
        // Each accident contributes 1 Accident tuple and 1..=4 (mean 2.5) each of Casualty
        // and Vehicle: 6 on average, so `total_tuples / 5` accidents store about 1.2× the
        // request (1 200 172 tuples at 10⁶, seed 48879). Below 10⁵ the few whole days
        // drawn scatter it more widely: 1.05–1.48× at 2·10³–5·10⁴ over seeds 1, 42, 48879.
        let accidents = (total_tuples / 5).max(1);
        let avg_per_day = 300u64;
        let num_days = (accidents / avg_per_day).max(1) as u32;
        Self {
            num_days,
            avg_accidents_per_day: avg_per_day as u32,
            avg_casualties_per_accident: 2,
            num_districts: 40,
            seed,
        }
    }
}

/// The textual form of day number `d` (a pseudo-date such as `"day-0042"`).
pub fn date_value(day: u32) -> Value {
    Value::str(format!("day-{day:04}"))
}

/// The textual form of district number `d`. District 0 is `"Queen's Park"`, matching the
/// query of Example 1.1.
pub fn district_value(district: u32) -> Value {
    if district == 0 {
        Value::str("Queen's Park")
    } else {
        Value::str(format!("district-{district:03}"))
    }
}

/// Generate an accidents database satisfying ψ1–ψ4.
pub fn generate(config: &AccidentsConfig) -> Result<Database> {
    let catalog = catalog();
    let mut db = Database::new(catalog);
    let mut rng = StdRng::seed_from_u64(config.seed);

    let mut aid: i64 = 0;
    let mut cid: i64 = 0;
    let mut vid: i64 = 0;
    let per_day_cap = MAX_ACCIDENTS_PER_DAY as u32;
    let per_accident_cap = MAX_CASUALTIES_PER_ACCIDENT as u32;
    let avg = config.avg_accidents_per_day.max(1);
    let c_avg = config.avg_casualties_per_accident.max(1);

    // Relations are looked up by name once each, not per insert: each is filled as an
    // empty copy outside the database, then put back.
    let empty = |name| db.relation(name).cloned();
    let (mut accident, mut casualty, mut vehicle) =
        (empty("Accident")?, empty("Casualty")?, empty("Vehicle")?);
    // Expected sizes: `avg` accidents a day, `c_avg + ½` casualties (and vehicles) each.
    let accidents = config.num_days as usize * avg.min(per_day_cap) as usize;
    let casualties = accidents * (2 * c_avg as usize + 1) / 2;
    accident.reserve(accidents);
    casualty.reserve(casualties);
    vehicle.reserve(casualties);
    // Each district and day is formatted once; every tuple copies its 16-byte value.
    let districts: Vec<Value> = (0..config.num_districts.max(1))
        .map(district_value)
        .collect();
    // Each vehicle's name is formatted into this buffer, then copied into its value:
    // `driver-{vid}` stays within `Str::INLINE` bytes while `vid` < 10⁷, so no heap
    // object per name.
    let mut name = String::new();

    for day in 0..config.num_days {
        let date = date_value(day);
        // Accidents on this day: uniform in [avg/2, 3·avg/2], capped by ψ1.
        let count = rng
            .gen_range(avg.div_ceil(2)..=avg + avg / 2)
            .min(per_day_cap);
        for _ in 0..count {
            aid += 1;
            let district = rng.gen_range(0..config.num_districts.max(1));
            accident.insert([
                Value::Int(aid),
                districts[district as usize].clone(),
                date.clone(),
            ])?;

            // Casualties / vehicles of this accident: at least 1, average ~avg_casualties.
            let casualties = rng.gen_range(1..=(2 * c_avg).max(1)).min(per_accident_cap);
            for _ in 0..casualties {
                cid += 1;
                vid += 1;
                let class = rng.gen_range(1..=3);
                casualty.insert([
                    Value::Int(cid),
                    Value::Int(aid),
                    Value::Int(class),
                    Value::Int(vid),
                ])?;
                let age = rng.gen_range(17..=90);
                name.clear();
                write!(name, "driver-{vid}").expect("writing to a String cannot fail");
                vehicle.insert([Value::Int(vid), Value::str(&*name), Value::Int(age)])?;
            }
        }
    }
    for relation in [accident, casualty, vehicle] {
        let slot = db.relation_mut(relation.name())?;
        *slot = relation;
    }
    Ok(db)
}

/// The query Q0 of Example 1.1 for a concrete district and day.
pub fn q0(catalog: &Catalog, district: &Value, date: &Value) -> Result<ConjunctiveQuery> {
    ConjunctiveQuery::builder("Q0")
        .head(["age"])
        .atom(
            "Accident",
            [
                Arg::var("aid"),
                Arg::Const(district.clone()),
                Arg::Const(date.clone()),
            ],
        )
        .atom("Casualty", ["cid", "aid", "class", "vid"])
        .atom("Vehicle", ["vid", "driver", "age"])
        .build(catalog)
}

/// The parameterized query of Example 5.1: like Q0 but with `date` and `district` left as
/// parameters to be instantiated by the user.
pub fn parameterized_query(catalog: &Catalog) -> Result<ConjunctiveQuery> {
    ConjunctiveQuery::builder("Q")
        .head(["age"])
        .atom("Accident", ["aid", "district", "date"])
        .atom("Casualty", ["cid", "aid", "class", "vid"])
        .atom("Vehicle", ["vid", "driver", "age"])
        .params(["date", "district"])
        .build(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bea_core::cover;
    use bea_storage::IndexedDatabase;

    #[test]
    fn generated_data_satisfies_the_access_schema() {
        let config = AccidentsConfig {
            num_days: 5,
            avg_accidents_per_day: 20,
            avg_casualties_per_accident: 2,
            num_districts: 5,
            seed: 7,
        };
        let db = generate(&config).unwrap();
        assert!(db.size() > 100);
        let schema = access_schema(db.catalog());
        let idb = IndexedDatabase::build(db, schema).unwrap();
        assert!(idb.satisfies_schema());
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = AccidentsConfig {
            num_days: 3,
            avg_accidents_per_day: 10,
            avg_casualties_per_accident: 2,
            num_districts: 4,
            seed: 42,
        };
        let a = generate(&config).unwrap();
        let b = generate(&config).unwrap();
        assert_eq!(a.size(), b.size());
        assert_eq!(a, b, "value for value, in every relation");
        // Pinned against the generator that allocated one `Arc<str>` per district and
        // date occurrence: FNV-1a over every value's display form, relation by relation.
        let mut fnv: u64 = 0xcbf2_9ce4_8422_2325;
        for value in a.relations().flat_map(|r| r.rows()).flatten() {
            for byte in value.to_string().bytes() {
                fnv = (fnv ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        assert_eq!((a.size(), fnv), (207, 0x7387_4ec3_3a8d_cc2d));
        let other = generate(&AccidentsConfig { seed: 43, ..config }).unwrap();
        assert_ne!(
            a.relation("Vehicle").unwrap(),
            other.relation("Vehicle").unwrap()
        );
    }

    /// Footprint guard: ψ1–ψ4 over 20k tuples must stay under 1 B per posting (10 B
    /// while ψ2–ψ4 hashed their ids). A keyed map (an owned key and a posting `Vec` per
    /// entry, ≈110 B per key) cannot pass, nor a posting array kept over data its order
    /// already groups, nor a slot table over keys that are consecutive ids, so none can
    /// creep back unnoticed.
    #[test]
    fn the_accidents_indexes_cost_at_most_10_bytes_per_posting() {
        let db = generate(&AccidentsConfig::with_total_tuples(20_000, 0xBEAD)).unwrap();
        let schema = access_schema(db.catalog());
        let postings: u64 = schema
            .constraints()
            .iter()
            .map(|constraint| db.relation(constraint.relation()).unwrap().len() as u64)
            .sum();
        let tuple_values: u64 = db
            .relations()
            .map(|r| (r.len() * r.schema().arity()) as u64)
            .sum();
        let idb = IndexedDatabase::build(db, schema).unwrap();
        let (tuple_bytes, index_bytes) = idb.footprint();
        assert!(postings > 20_000, "Accident is indexed twice: {postings}");
        // The store arrives clustered (ψ1, ψ2) and keyed by consecutive ids (ψ2–ψ4),
        // so no index keeps a posting array and only ψ1 keeps slots: this store
        // measures 0.58 B per posting (15 384 B for 26 578) — ψ1's slots and `starts`
        // per day, and ψ2's `starts` per accident — against 7.98 B (211 992 B) while
        // ψ2–ψ4 kept slots too. The bound leaves 0.42 B for more casualties per accident
        // (ψ2's starts) and where ψ1's power-of-two table rounds at other sizes; slots
        // for ψ3 or ψ4 (8–16 B per key), a posting array (+4 B) or a keyed map (≈110 B
        // per key) break it.
        assert!(
            index_bytes <= postings,
            "{index_bytes} B of index for {postings} postings"
        );
        let value = std::mem::size_of::<Value>() as u64;
        assert_eq!(tuple_bytes, tuple_values * value, "no per-tuple overhead");
    }

    #[test]
    fn q0_is_covered_and_parameterized_query_is_not() {
        let c = catalog();
        let schema = access_schema(&c);
        let q0 = q0(&c, &district_value(0), &date_value(1)).unwrap();
        assert!(cover::is_covered(&q0, &schema));
        let q = parameterized_query(&c).unwrap();
        assert!(!cover::is_covered(&q, &schema));
        assert_eq!(q.params().len(), 2);
    }

    #[test]
    fn scaling_helper_hits_the_requested_size_roughly() {
        for total in [10_000, 100_000] {
            for seed in [1, 48879] {
                let db = generate(&AccidentsConfig::with_total_tuples(total, seed)).unwrap();
                let size = db.size();
                assert!(
                    total <= size && size * 100 <= total * 135,
                    "N = {total}: {size}"
                );
            }
        }
    }

    #[test]
    fn district_and_date_values() {
        assert_eq!(district_value(0), Value::str("Queen's Park"));
        assert_eq!(district_value(3), Value::str("district-003"));
        assert_eq!(date_value(7), Value::str("day-0007"));
    }
}
