//! # bea-workload — synthetic data and query generators
//!
//! The paper's experimental claims are made on datasets we cannot ship (the UK
//! road-accident database, real-life Web graphs, production e-commerce queries). This
//! crate builds synthetic substitutes that preserve what matters for bounded
//! evaluability: the schemas, the cardinality profiles behind the access constraints, and
//! the shapes of the query workloads. Each module's docs describe its substitution.
//!
//! * [`accidents`] — the UK road-accidents workload of Example 1.1 (`Accident`,
//!   `Casualty`, `Vehicle`; constraints ψ1–ψ4; query `Q0` and its parameterized form of
//!   Example 5.1).
//! * [`graph`] — a social-graph workload for the "Graph Search" personalized queries the
//!   introduction cites (degree-bounded friendship graph, persons with cities, likes).
//! * [`ecommerce`] — a product/order workload with parameterized queries, used by the
//!   query-specialization experiment.
//! * [`querygen`] — a random conjunctive-query generator over any catalog, used by the
//!   coverage-rate experiment (what fraction of a workload is covered by a constraint
//!   set of a given size).

#![deny(unsafe_code)]
pub mod accidents;
pub mod ecommerce;
pub mod graph;
pub mod querygen;

#[cfg(test)]
mod tests {
    use bea_core::access::AccessSchema;
    use bea_storage::{Database, IndexedDatabase};

    /// The constraints whose index finds a key by arithmetic, by position in `schema`.
    fn dense(db: Database, schema: AccessSchema) -> Vec<usize> {
        let store = IndexedDatabase::build(db, schema).unwrap();
        let constraints = 0..store.schema().constraints().len();
        constraints
            .filter(|&c| store.index(c).is_some_and(|index| index.is_dense()))
            .collect()
    }

    /// Every family numbers its entities `0, 1, 2, …` in insertion order, so each
    /// constraint keyed by one of those ids has a dense index: ψ2 (`Casualty` by `aid`,
    /// clustered), ψ3 and ψ4; `Product(pid)`, `Orders(oid)` and `Customer(uid)`; and
    /// `Person(pid)`. A key of strings (ψ1's dates, categories) or of ids in another
    /// order (orders by `uid`, friendships and likes by `pid`) is hashed.
    #[test]
    fn the_id_keyed_constraints_of_every_family_are_dense() {
        use crate::{accidents, ecommerce, graph};
        let config = accidents::AccidentsConfig::with_total_tuples(20_000, 0xBEAD);
        let db = accidents::generate(&config).unwrap();
        let schema = accidents::access_schema(db.catalog());
        assert_eq!(dense(db, schema), [1, 2, 3], "accidents: ψ2, ψ3, ψ4");
        let db = ecommerce::generate(&ecommerce::EcommerceConfig::default()).unwrap();
        let schema = ecommerce::access_schema(db.catalog());
        assert_eq!(dense(db, schema), [0, 2, 4], "e-commerce: pid, oid, uid");
        let config = graph::GraphConfig::default();
        let db = graph::generate(&config).unwrap();
        let schema = graph::access_schema(db.catalog(), &config);
        assert_eq!(dense(db, schema), [0], "graph: Person's pid");
    }

    /// Over the accidents store's own layouts — ψ1 hashed by date, ψ2 dense and
    /// clustered, ψ3 and ψ4 dense and unique — one batch of every key of an index, with
    /// an absent key after every third, resolves each probe to the very tuples
    /// `fetch_iter` returns for it, in order.
    #[test]
    fn every_key_of_the_accidents_indexes_resolves_as_its_single_fetch() {
        use crate::accidents;
        use bea_core::value::{Row, Value};
        use bea_storage::index::Offsets;
        use bea_storage::Relation;
        let config = accidents::AccidentsConfig::with_total_tuples(20_000, 0xBEAD);
        let db = accidents::generate(&config).unwrap();
        let schema = accidents::access_schema(db.catalog());
        let store = IndexedDatabase::build(db, schema).unwrap();
        let layouts = [(false, false), (true, false), (true, true), (true, true)];
        for (c, (dense, unique)) in layouts.into_iter().enumerate() {
            let index = store.index(c).unwrap();
            let constraint = &store.schema().constraints()[c];
            let relation = store.database().relation(constraint.relation()).unwrap();
            assert_eq!(index.is_dense(), dense, "ψ{}", c + 1);
            let runs = index.groups().all(|group| matches!(group, Offsets::Run(_)));
            let singles = index.groups().all(|group| group.len() == 1);
            assert!(runs && singles == unique, "ψ{}'s layout", c + 1);
            let absent = [Value::int(-1), Value::int(i64::MAX), Value::str("day-none")];
            let (attrs, mut keys) = (index.key_attrs(), Vec::<Row>::new());
            for (g, mut group) in index.groups().enumerate() {
                let first = relation.row(group.next().unwrap() as usize).unwrap();
                keys.push(Relation::project(first, attrs));
                if g % 3 == 0 {
                    keys.push(vec![absent[g / 3 % absent.len()].clone()]);
                }
            }
            let (mut offsets, mut ends) = (Vec::new(), Vec::new());
            let key = |i: usize, m: usize| &keys[i][m];
            store
                .resolve(c, keys.len(), attrs.len(), key, &mut offsets, &mut ends)
                .unwrap();
            assert_eq!(ends.len(), keys.len());
            let mut start = 0;
            for (key, &end) in keys.iter().zip(&ends) {
                let (single, _) = store.fetch_iter(c, key).unwrap();
                let found = &offsets[start..end as usize];
                assert_eq!(found.len(), single.len(), "ψ{} key {key:?}", c + 1);
                for (&o, tuple) in found.iter().zip(single) {
                    assert!(std::ptr::eq(relation.row(o as usize).unwrap(), tuple));
                }
                start = end as usize;
            }
        }
    }
}
