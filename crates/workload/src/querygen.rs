//! Random conjunctive-query generation.
//!
//! The coverage-rate experiment reproduces the shape of the paper's finding that "77% of
//! conjunctive queries are boundedly evaluable under a set of 84 simple access
//! constraints" on the accidents data: we generate a workload of random CQs over a
//! catalog and measure what fraction is covered as the constraint set grows.
//!
//! The generator produces join-style queries in the spirit of the paper's personalized
//! searches: a few atoms chained by joins, some positions *anchored* by constants (an
//! anchored position is preferentially one that some access constraint can key on, which
//! is how real workloads are written against indexed data), and a small output tuple.

use bea_core::access::AccessSchema;
use bea_core::error::Result;
use bea_core::query::cq::ConjunctiveQuery;
use bea_core::query::term::Arg;
use bea_core::schema::Catalog;
use bea_core::value::Value;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the random query generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryGenConfig {
    /// Minimum number of relation atoms per query.
    pub min_atoms: usize,
    /// Maximum number of relation atoms per query.
    pub max_atoms: usize,
    /// Probability that a generated query is *anchored*: its first atom has a constant on
    /// an attribute that some access constraint can key on (mirroring personalized
    /// searches, which start from a known value).
    pub anchor_probability: f64,
    /// Probability that an atom position reuses an already-introduced variable (a join)
    /// rather than a fresh one.
    pub join_probability: f64,
    /// Probability that a non-anchor position is additionally constrained to a constant.
    pub constant_probability: f64,
    /// Maximum number of free (output) variables.
    pub max_free_vars: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for QueryGenConfig {
    fn default() -> Self {
        Self {
            min_atoms: 1,
            max_atoms: 3,
            anchor_probability: 0.85,
            join_probability: 0.85,
            constant_probability: 0.10,
            max_free_vars: 2,
            seed: 0x9E7,
        }
    }
}

/// Generate one random conjunctive query.
///
/// `schema_hint`, when given, steers anchor constants towards attributes that appear on
/// the key side (`X`) of some constraint — without it anchors land on arbitrary
/// attributes.
pub fn random_cq(
    catalog: &Catalog,
    schema_hint: Option<&AccessSchema>,
    config: &QueryGenConfig,
    rng: &mut StdRng,
    name: &str,
) -> Result<ConjunctiveQuery> {
    random_cq_impl(catalog, schema_hint, config, rng, name, None)
}

/// A constant chooser: given a relation name, an attribute position and the RNG, produce
/// the constant to place there.
type ConstantPicker<'a> = &'a dyn Fn(&str, usize, &mut StdRng) -> Value;

/// Shared implementation: `pick_constant`, when given, supplies the constant placed at a
/// (relation, attribute position); otherwise a generic pool is used.
fn random_cq_impl(
    catalog: &Catalog,
    schema_hint: Option<&AccessSchema>,
    config: &QueryGenConfig,
    rng: &mut StdRng,
    name: &str,
    pick_constant: Option<ConstantPicker<'_>>,
) -> Result<ConjunctiveQuery> {
    let constant_at = |relation: &str, position: usize, rng: &mut StdRng| -> Value {
        match pick_constant {
            Some(pick) => pick(relation, position, rng),
            None => random_constant(rng),
        }
    };
    let relations: Vec<_> = catalog.relations().collect();
    assert!(!relations.is_empty(), "catalog must declare relations");
    let num_atoms = rng.gen_range(config.min_atoms..=config.max_atoms.max(config.min_atoms));

    let mut builder = ConjunctiveQuery::builder(name);
    // All variables introduced so far, and the ones introduced per attribute name —
    // joins preferentially reuse a variable introduced at an equally named attribute
    // (foreign-key style joins, which is how real workloads over such schemas are
    // written: Casualty.aid joins Accident.aid, Casualty.vid joins Vehicle.vid, …).
    let mut vars: Vec<String> = Vec::new();
    let mut vars_by_attr: std::collections::HashMap<String, Vec<String>> =
        std::collections::HashMap::new();
    let mut var_counter = 0usize;

    let anchored = rng.gen_bool(config.anchor_probability.clamp(0.0, 1.0));

    for atom_index in 0..num_atoms {
        let relation = relations[rng.gen_range(0..relations.len())];
        // Which position should carry the anchor constant for the first atom?
        let anchor_position = if anchored && atom_index == 0 {
            let keyed_positions: Vec<usize> = schema_hint
                .map(|schema| {
                    schema
                        .constraints_for(relation.name())
                        .flat_map(|(_, c)| c.x().to_vec())
                        .collect()
                })
                .unwrap_or_default();
            if keyed_positions.is_empty() {
                Some(rng.gen_range(0..relation.arity()))
            } else {
                Some(keyed_positions[rng.gen_range(0..keyed_positions.len())])
            }
        } else {
            None
        };

        let mut args: Vec<Arg> = Vec::with_capacity(relation.arity());
        for position in 0..relation.arity() {
            if Some(position) == anchor_position {
                args.push(Arg::Const(constant_at(relation.name(), position, rng)));
                continue;
            }
            let attr = relation.attr_name(position).unwrap_or("attr").to_owned();
            let join = rng.gen_bool(config.join_probability.clamp(0.0, 1.0));
            let same_attr_vars = vars_by_attr.get(&attr);
            let var = match same_attr_vars {
                Some(candidates) if join && !candidates.is_empty() => {
                    candidates[rng.gen_range(0..candidates.len())].clone()
                }
                _ if join && !vars.is_empty() && rng.gen_bool(0.2) => {
                    // Occasionally join on an arbitrary variable (a "weird" join, which
                    // keeps some queries outside the covered fragment).
                    vars[rng.gen_range(0..vars.len())].clone()
                }
                _ => {
                    let fresh = format!("{attr}_{var_counter}");
                    var_counter += 1;
                    vars.push(fresh.clone());
                    vars_by_attr.entry(attr).or_default().push(fresh.clone());
                    fresh
                }
            };
            if rng.gen_bool(config.constant_probability.clamp(0.0, 1.0)) {
                builder = builder.eq(
                    Arg::Var(var.clone()),
                    Arg::Const(constant_at(relation.name(), position, rng)),
                );
            }
            args.push(Arg::Var(var));
        }
        builder = builder.atom(relation.name(), args);
    }

    // Output variables: up to max_free_vars of the introduced variables.
    let num_free = rng.gen_range(0..=config.max_free_vars.min(vars.len()));
    let mut head: Vec<Arg> = Vec::new();
    let mut pool = vars.clone();
    for _ in 0..num_free {
        let pick = pool.remove(rng.gen_range(0..pool.len()));
        head.push(Arg::Var(pick));
    }
    builder = builder.head(head);
    builder.build(catalog)
}

/// Generate a reproducible workload of `count` random queries.
///
/// A test generator, public because `tests/end_to_end.rs` and
/// `crates/bench/tests/lowering_census.rs` draw their workloads from it.
pub fn random_workload(
    catalog: &Catalog,
    schema_hint: Option<&AccessSchema>,
    count: usize,
    config: &QueryGenConfig,
) -> Result<Vec<ConjunctiveQuery>> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    (0..count)
        .map(|i| random_cq(catalog, schema_hint, config, &mut rng, &format!("W{i}")))
        .collect()
}

/// Generate a workload whose anchor and filter constants are drawn from the *actual
/// column values* of a database instance, so the queries have non-trivial answers when
/// executed (used by the end-to-end and property tests, and by the graph/accident
/// experiments).
pub fn random_workload_from_db(
    catalog: &Catalog,
    schema_hint: Option<&AccessSchema>,
    database: &bea_storage::Database,
    count: usize,
    config: &QueryGenConfig,
) -> Result<Vec<ConjunctiveQuery>> {
    // Pool of observed values per (relation, attribute position).
    let mut pools: std::collections::HashMap<(String, usize), Vec<Value>> =
        std::collections::HashMap::new();
    for relation in database.relations() {
        for row in relation.rows().take(2_000) {
            for (position, value) in row.iter().enumerate() {
                let pool = pools
                    .entry((relation.name().to_owned(), position))
                    .or_default();
                if pool.len() < 512 {
                    pool.push(value.clone());
                }
            }
        }
    }
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut out = Vec::with_capacity(count);
    for i in 0..count {
        let query = random_cq_with_pool(
            catalog,
            schema_hint,
            config,
            &mut rng,
            &format!("W{i}"),
            &|relation, position, rng: &mut StdRng| match pools
                .get(&(relation.to_owned(), position))
            {
                Some(pool) if !pool.is_empty() => pool[rng.gen_range(0..pool.len())].clone(),
                _ => random_constant(rng),
            },
        )?;
        out.push(query);
    }
    Ok(out)
}

/// Like [`random_cq`], but constants are produced by `pick_constant(relation, position)`.
fn random_cq_with_pool(
    catalog: &Catalog,
    schema_hint: Option<&AccessSchema>,
    config: &QueryGenConfig,
    rng: &mut StdRng,
    name: &str,
    pick_constant: &dyn Fn(&str, usize, &mut StdRng) -> Value,
) -> Result<ConjunctiveQuery> {
    // Re-use the main generator by temporarily generating with placeholder constants and
    // then re-sampling them is messy; instead the main generator is parameterized below.
    random_cq_impl(catalog, schema_hint, config, rng, name, Some(pick_constant))
}

/// A constant drawn from a small mixed pool (the analysis never looks at the values, only
/// at which positions are constant).
fn random_constant(rng: &mut StdRng) -> Value {
    if rng.gen_bool(0.5) {
        Value::Int(rng.gen_range(0..50))
    } else {
        Value::str(format!("k{}", rng.gen_range(0..20)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accidents;
    use bea_core::cover;

    #[test]
    fn workload_is_reproducible_and_well_formed() {
        let catalog = accidents::catalog();
        let schema = accidents::access_schema(&catalog);
        let config = QueryGenConfig::default();
        let w1 = random_workload(&catalog, Some(&schema), 50, &config).unwrap();
        let w2 = random_workload(&catalog, Some(&schema), 50, &config).unwrap();
        assert_eq!(w1.len(), 50);
        for (a, b) in w1.iter().zip(&w2) {
            assert_eq!(a.to_string(), b.to_string());
        }
        for q in &w1 {
            assert!(q.atoms().len() >= config.min_atoms);
            assert!(q.atoms().len() <= config.max_atoms);
            assert!(q.arity() <= config.max_free_vars);
        }
    }

    #[test]
    fn anchored_workloads_have_reasonable_coverage_under_the_schema() {
        let catalog = accidents::catalog();
        let schema = accidents::access_schema(&catalog);
        let config = QueryGenConfig {
            seed: 2024,
            ..QueryGenConfig::default()
        };
        let workload = random_workload(&catalog, Some(&schema), 200, &config).unwrap();
        let covered = workload
            .iter()
            .filter(|q| cover::is_covered(q, &schema))
            .count();
        let fraction = covered as f64 / workload.len() as f64;
        // The paper reports 77% for the (hand-written) real workload under 84 mined
        // constraints; the synthetic anchored workload under just ψ1–ψ4 should land in a
        // broadly similar regime — well above a trivial floor, below 100%.
        assert!(fraction > 0.3, "covered fraction too low: {fraction}");
        assert!(fraction < 1.0, "covered fraction suspiciously perfect");
    }

    #[test]
    fn coverage_increases_with_more_constraints() {
        let catalog = accidents::catalog();
        let schema = accidents::access_schema(&catalog);
        let config = QueryGenConfig {
            seed: 7,
            ..QueryGenConfig::default()
        };
        let workload = random_workload(&catalog, Some(&schema), 150, &config).unwrap();
        let covered_with =
            |s: &AccessSchema| workload.iter().filter(|q| cover::is_covered(q, s)).count();
        let empty = AccessSchema::new();
        let partial = AccessSchema::from_constraints(schema.constraints()[..2].to_vec());
        let full_count = covered_with(&schema);
        assert!(covered_with(&empty) <= covered_with(&partial));
        assert!(covered_with(&partial) <= full_count);
        assert!(covered_with(&empty) < full_count);
    }

    #[test]
    fn unanchored_workloads_are_rarely_covered() {
        let catalog = accidents::catalog();
        let schema = accidents::access_schema(&catalog);
        let config = QueryGenConfig {
            anchor_probability: 0.0,
            constant_probability: 0.0,
            seed: 5,
            ..QueryGenConfig::default()
        };
        let workload = random_workload(&catalog, Some(&schema), 100, &config).unwrap();
        let covered = workload
            .iter()
            .filter(|q| cover::is_covered(q, &schema))
            .count();
        // Without anchors, only boolean or trivially-satisfiable queries squeak through.
        assert!(covered < workload.len() / 2);
    }
}
