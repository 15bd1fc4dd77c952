//! Boundedly evaluable envelopes (Section 4): approximating a query that is not
//! boundedly evaluable by covered queries that sandwich it.
//!
//! For a query `Q` that is not boundedly evaluable under `A`, the paper looks for
//!
//! * an **upper envelope** `Qᵤ` — a *relaxation* of `Q` (a subset of its atoms over the
//!   same free variables) that is covered by `A`, so that `Q(D) ⊆ Qᵤ(D)` and
//!   `|Qᵤ(D) − Q(D)| ≤ Nᵤ` for a constant `Nᵤ` derived from `Q` and `A` (Section 4.2);
//! * a **lower envelope** `Qₗ` — a *k-expansion* of `Q` (the atoms of `Q` plus at most
//!   `k` additional atoms) that is covered by `A` and `A`-satisfiable, so that
//!   `Qₗ(D) ⊆ Q(D)` and `|Q(D) − Qₗ(D)| ≤ Nₗ` (Section 4.3).
//!
//! Existence of either envelope requires `Q` to be *bounded* (all free variables covered,
//! Lemma 4.2); the approximation bounds then follow from the output-size bound of the
//! coverage witness. UEP is NP-complete and LEP NP-complete for CQ; the searches below are
//! budgeted and complete relative to their candidate spaces (documented per function).

use crate::access::AccessSchema;
use crate::cover::{coverage, CoverageReport};
use crate::error::{Error, Result};
use crate::query::cq::ConjunctiveQuery;
use crate::query::term::Arg;
use crate::query::ucq::UnionQuery;
use crate::reason::containment::a_contained;
use crate::reason::satisfiability::is_a_satisfiable;
use crate::reason::ReasonConfig;
use crate::schema::Catalog;
use std::collections::BTreeSet;

/// Configuration of the envelope searches.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnvelopeConfig {
    /// Configuration of the reasoning sub-procedures (satisfiability, containment).
    pub reason: ReasonConfig,
    /// Maximum number of candidate queries examined by one search.
    pub max_candidates: u64,
}

impl Default for EnvelopeConfig {
    fn default() -> Self {
        Self {
            reason: ReasonConfig::default(),
            max_candidates: 200_000,
        }
    }
}

/// A covered upper envelope of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct UpperEnvelope {
    /// The envelope query `Qᵤ` (a relaxation of the input, covered by `A`).
    pub query: ConjunctiveQuery,
    /// The coverage report of the envelope.
    pub report: CoverageReport,
    /// Indices (in the input query) of the atoms that were removed.
    pub removed_atoms: Vec<usize>,
}

impl UpperEnvelope {
    /// The approximation bound `Nᵤ`: `|Qᵤ(D) − Q(D)| ≤ |Qᵤ(D)| ≤ Nᵤ` for every `D ⊨ A`
    /// with at most `db_size` tuples (the size only matters for sublinear constraints).
    pub fn approximation_bound(&self, schema: &AccessSchema, db_size: u64) -> Option<u64> {
        self.report.output_bound(schema, db_size)
    }
}

/// A covered lower envelope of a query.
#[derive(Debug, Clone, PartialEq)]
pub struct LowerEnvelope {
    /// The envelope query `Qₗ` (an expansion of the input — possibly with an unindexed
    /// atom split as in Example 4.5 — covered by `A` and `A`-satisfiable).
    pub query: ConjunctiveQuery,
    /// The coverage report of the envelope.
    pub report: CoverageReport,
    /// How many atoms were added relative to the input query.
    pub added_atoms: usize,
    /// Whether an unindexed atom of the input was split into indexed copies (in which
    /// case `Qₗ ⊑_A Q` was verified with the containment oracle rather than holding
    /// syntactically).
    pub used_split: bool,
}

impl LowerEnvelope {
    /// The approximation bound `Nₗ`: `|Q(D) − Qₗ(D)| ≤ |Q(D)| ≤ Nₗ` for every `D ⊨ A`.
    /// The bound is derived from the coverage fixpoint of the *input* query (its free
    /// variables are covered because boundedness is a precondition of LEP), which the
    /// caller supplies as `input_report`.
    pub fn approximation_bound(
        &self,
        input_report: &CoverageReport,
        schema: &AccessSchema,
        db_size: u64,
    ) -> u64 {
        input_report.trace_bound(schema, db_size)
    }
}

/// Search for a covered relaxation of a CQ: an upper envelope (UEP, Theorem 4.4).
///
/// The search enumerates atom-removal sets in increasing size, so the returned envelope
/// removes a minimal number of atoms. Returns `Ok(None)` when no covered relaxation
/// exists (in particular when the query is not bounded, Lemma 4.2).
pub fn upper_envelope_cq(
    query: &ConjunctiveQuery,
    schema: &AccessSchema,
    config: &EnvelopeConfig,
) -> Result<Option<UpperEnvelope>> {
    let own = coverage(query, schema);
    if own.is_covered() {
        return Ok(Some(UpperEnvelope {
            query: query.clone(),
            report: own,
            removed_atoms: Vec::new(),
        }));
    }
    // Lemma 4.2(a): an envelope with a constant bound can only exist for bounded queries.
    if !own.is_bounded() {
        return Ok(None);
    }

    let n = query.atoms().len();
    let mut examined: u64 = 0;
    for removal_size in 1..=n {
        let mut found: Option<UpperEnvelope> = None;
        for_each_combination(n, removal_size, &mut |subset| {
            examined += 1;
            if examined > config.max_candidates {
                return Err(Error::BudgetExhausted {
                    analysis: "upper envelope search".into(),
                    budget: config.max_candidates,
                });
            }
            let remove: BTreeSet<usize> = subset.iter().copied().collect();
            let Ok(candidate) = query.without_atoms(&remove) else {
                return Ok(false);
            };
            let report = coverage(&candidate, schema);
            if report.is_covered() {
                found = Some(UpperEnvelope {
                    query: candidate.with_name(format!("{}_upper", query.name())),
                    report,
                    removed_atoms: subset.to_vec(),
                });
                return Ok(true);
            }
            Ok(false)
        })?;
        if found.is_some() {
            return Ok(found);
        }
    }
    Ok(None)
}

/// Search for a covered, `A`-satisfiable `k`-expansion of a CQ: a lower envelope (LEP,
/// Theorem 4.7).
///
/// Two kinds of candidates are explored, mirroring the paper's discussion:
///
/// * **covering additions** — new atoms that place an uncovered variable of the query at
///   a `Y`-position of an access constraint whose `X`-positions hold determined
///   variables, so the constraint starts covering it;
/// * **atom splits** (Example 4.5) — an atom that no constraint indexes is replaced by
///   copies that are indexed, with fresh variables at the positions each copy does not
///   retain; `Qₗ ⊑_A Q` is then verified with the containment oracle.
///
/// The search is complete relative to this candidate space (which is the paper's own
/// characterization of when expansions help), and is budgeted by
/// [`EnvelopeConfig::max_candidates`].
pub fn lower_envelope_cq(
    query: &ConjunctiveQuery,
    schema: &AccessSchema,
    catalog: &Catalog,
    k: usize,
    config: &EnvelopeConfig,
) -> Result<Option<LowerEnvelope>> {
    let own = coverage(query, schema);
    // Lemma 4.2: boundedness is necessary.
    if !own.is_bounded() {
        return Ok(None);
    }
    if own.is_covered() && is_a_satisfiable(query, schema, &config.reason)?.is_some() {
        return Ok(Some(LowerEnvelope {
            query: query.clone(),
            report: own,
            added_atoms: 0,
            used_split: false,
        }));
    }

    // Breadth-first search over expansions, by number of added atoms.
    #[derive(Clone)]
    struct Candidate {
        query: ConjunctiveQuery,
        added: usize,
        used_split: bool,
    }
    let mut frontier = vec![Candidate {
        query: query.clone(),
        added: 0,
        used_split: false,
    }];
    let mut seen: BTreeSet<String> = BTreeSet::new();
    let mut examined: u64 = 0;

    while !frontier.is_empty() {
        let mut next = Vec::new();
        for cand in frontier {
            examined += 1;
            if examined > config.max_candidates {
                return Err(Error::BudgetExhausted {
                    analysis: "lower envelope search".into(),
                    budget: config.max_candidates,
                });
            }
            let report = coverage(&cand.query, schema);
            if report.is_covered()
                && is_a_satisfiable(&cand.query, schema, &config.reason)?.is_some()
            {
                let contained = if cand.used_split {
                    a_contained(&cand.query, query, schema, &config.reason)?
                } else {
                    // Pure expansions are contained in the original query by construction.
                    true
                };
                if contained {
                    return Ok(Some(LowerEnvelope {
                        query: cand.query.with_name(format!("{}_lower", query.name())),
                        report,
                        added_atoms: cand.added,
                        used_split: cand.used_split,
                    }));
                }
            }
            if cand.added >= k {
                continue;
            }
            for (child, is_split) in expansion_children(&cand.query, schema, catalog, &report)? {
                let signature = child.to_string();
                if seen.insert(signature) {
                    next.push(Candidate {
                        added: cand.added + child.atoms().len() - cand.query.atoms().len(),
                        used_split: cand.used_split || is_split,
                        query: child,
                    });
                }
            }
        }
        frontier = next;
    }
    Ok(None)
}

/// Generate one-step expansions of a query: covering additions and atom splits.
fn expansion_children(
    query: &ConjunctiveQuery,
    schema: &AccessSchema,
    catalog: &Catalog,
    report: &CoverageReport,
) -> Result<Vec<(ConjunctiveQuery, bool)>> {
    let mut children = Vec::new();
    let determined: Vec<_> = report
        .determined_vars()
        .iter()
        .map(|&v| query.var_name(v).to_owned())
        .collect();
    let uncovered: Vec<_> = query
        .vars()
        .filter(|v| !report.is_determined(*v))
        .map(|v| query.var_name(v).to_owned())
        .collect();

    // Covering additions: place an uncovered variable at a Y-position of a constraint
    // whose X-positions are filled with determined variables.
    for constraint in schema.constraints() {
        let Ok(rel) = catalog.relation(constraint.relation()) else {
            continue;
        };
        // Choices for the X positions: determined variables (all combinations).
        let x_positions = constraint.x();
        let mut x_choices: Vec<Vec<&String>> = vec![Vec::new()];
        for _ in x_positions {
            let mut extended = Vec::new();
            for partial in &x_choices {
                for d in &determined {
                    let mut p = partial.clone();
                    p.push(d);
                    extended.push(p);
                }
            }
            x_choices = extended;
        }
        for target in &uncovered {
            for &y_pos in constraint.y() {
                for xc in &x_choices {
                    let mut fresh_counter = 0usize;
                    let args: Vec<Arg> = (0..rel.arity())
                        .map(|p| {
                            if p == y_pos {
                                Arg::Var(target.clone())
                            } else if let Some(idx) = x_positions.iter().position(|&xp| xp == p) {
                                Arg::Var(xc[idx].clone())
                            } else {
                                fresh_counter += 1;
                                Arg::Var(query.fresh_name(&format!("_exp{fresh_counter}")))
                            }
                        })
                        .collect();
                    let mut builder = query.to_builder();
                    builder = builder.atom(constraint.relation(), args);
                    if let Ok(child) = builder.build(catalog) {
                        children.push((child, false));
                    }
                }
            }
        }
    }

    // Atom splits (Example 4.5): replace an unindexed atom by one indexed copy per
    // constraint pair, keeping the original argument only at the positions the copy's
    // constraint spans.
    for (atom_index, witness) in report.atom_witness().iter().enumerate() {
        if witness.is_some() {
            continue;
        }
        let atom = query.atoms()[atom_index].clone();
        let constraints: Vec<_> = schema.constraints_for(&atom.relation).collect();
        for (i, (_, c1)) in constraints.iter().enumerate() {
            for (_, c2) in constraints.iter().skip(i) {
                let Ok(rel) = catalog.relation(&atom.relation) else {
                    continue;
                };
                let copy_for = |c: &crate::access::AccessConstraint, tag: &str| -> Vec<Arg> {
                    let xy = c.xy();
                    (0..rel.arity())
                        .map(|p| {
                            if xy.contains(&p) {
                                Arg::Var(query.var_name(atom.args[p]).to_owned())
                            } else {
                                Arg::Var(query.fresh_name(&format!("_split_{tag}_{p}")))
                            }
                        })
                        .collect()
                };
                // Replace the atom inside a builder (rather than via `without_atoms`,
                // whose safety check would reject dropping the atom before the indexed
                // copies are added back).
                let mut builder = query.to_builder();
                builder.atoms.remove(atom_index);
                builder = builder.atom(atom.relation.clone(), copy_for(c1, "a"));
                builder = builder.atom(atom.relation.clone(), copy_for(c2, "b"));
                if let Ok(child) = builder.build(catalog) {
                    children.push((child, true));
                }
            }
        }
    }
    Ok(children)
}

/// Upper envelope for a union of conjunctive queries (Lemma 4.3): every branch needs a
/// covered relaxation, or all of its `A`-instances must be answered by the relaxations of
/// the other branches. The returned union consists of the per-branch relaxations.
///
/// Kept public though only tests call it: it is Table 1's UEP row for UCQ (Section 4).
pub fn upper_envelope_ucq(
    query: &UnionQuery,
    schema: &AccessSchema,
    config: &EnvelopeConfig,
) -> Result<Option<UnionQuery>> {
    let mut relaxed = Vec::new();
    let mut unrelaxed: Vec<&ConjunctiveQuery> = Vec::new();
    for branch in query.branches() {
        match upper_envelope_cq(branch, schema, config)? {
            Some(env) => relaxed.push(env.query),
            None => unrelaxed.push(branch),
        }
    }
    if relaxed.is_empty() {
        return Ok(None);
    }
    // Branches with no covered relaxation must be subsumed by the relaxed ones: every
    // A-instance of such a branch must be answered by some relaxation (which over-approximates
    // the corresponding original branch, so answering is preserved).
    let relaxed_union = UnionQuery::from_branches(format!("{}_upper", query.name()), relaxed)?;
    for branch in unrelaxed {
        if !crate::reason::containment::a_contained_in_union(
            branch,
            &relaxed_union,
            schema,
            &config.reason,
        )? {
            return Ok(None);
        }
    }
    Ok(Some(relaxed_union))
}

/// Lower envelope for a union of conjunctive queries (Lemma 4.6): the union must be
/// bounded and some branch must have a covered, `A`-satisfiable `k`-expansion; that
/// expansion (as a single-branch union) is a lower envelope of the whole union.
///
/// Kept public though only tests call it: it is Table 1's LEP row for UCQ (Section 4).
pub fn lower_envelope_ucq(
    query: &UnionQuery,
    schema: &AccessSchema,
    catalog: &Catalog,
    k: usize,
    config: &EnvelopeConfig,
) -> Result<Option<UnionQuery>> {
    // Lemma 4.2(c): the union is bounded iff every branch is bounded.
    for branch in query.branches() {
        if !coverage(branch, schema).is_bounded() {
            return Ok(None);
        }
    }
    for branch in query.branches() {
        if let Some(env) = lower_envelope_cq(branch, schema, catalog, k, config)? {
            return Ok(Some(UnionQuery::from_branches(
                format!("{}_lower", query.name()),
                vec![env.query],
            )?));
        }
    }
    Ok(None)
}

/// Enumerate all `size`-subsets of `0..n` in lexicographic order, visiting each; the
/// visitor returns `Ok(true)` to stop, and so does the call then. Size 0 visits the
/// empty subset once; a size past `n` visits nothing. The one k-subset enumerator:
/// specialization picks its parameters by index with it too.
pub(crate) fn for_each_combination(
    n: usize,
    size: usize,
    visit: &mut dyn FnMut(&[usize]) -> Result<bool>,
) -> Result<bool> {
    fn rec(
        start: usize,
        n: usize,
        remaining: usize,
        current: &mut Vec<usize>,
        visit: &mut dyn FnMut(&[usize]) -> Result<bool>,
    ) -> Result<bool> {
        if remaining == 0 {
            return visit(current);
        }
        for i in start..n {
            if n - i < remaining {
                break;
            }
            current.push(i);
            if rec(i + 1, n, remaining - 1, current, visit)? {
                current.pop();
                return Ok(true);
            }
            current.pop();
        }
        Ok(false)
    }
    if size > n {
        return Ok(false);
    }
    rec(0, n, size, &mut Vec::with_capacity(size), visit)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::access::AccessConstraint;
    use crate::value::Value;

    /// The schema of Example 4.1: R(A, B) with R(A → B, N).
    fn example_4_1() -> (Catalog, AccessSchema) {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b"]).unwrap();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 6).unwrap()
        ]);
        (c, a)
    }

    /// Q1 of Example 4.1: not boundedly evaluable, but has both envelopes.
    fn q1(c: &Catalog) -> ConjunctiveQuery {
        ConjunctiveQuery::builder("Q1")
            .head(["x"])
            .atom("R", ["w", "x"])
            .atom("R", ["y", "w"])
            .atom("R", ["x", "z"])
            .eq("w", 1i64)
            .build(c)
            .unwrap()
    }

    /// Q2 of Example 4.1: not bounded, hence no envelopes.
    fn q2(c: &Catalog) -> ConjunctiveQuery {
        ConjunctiveQuery::builder("Q2")
            .head(["x", "y"])
            .atom("R", ["w", "x"])
            .atom("R", ["y", "w"])
            .eq("w", 1i64)
            .build(c)
            .unwrap()
    }

    #[test]
    fn example_4_1_q1_has_an_upper_envelope() {
        let (_, a) = example_4_1();
        let c = {
            let mut c = Catalog::new();
            c.declare("R", ["a", "b"]).unwrap();
            c
        };
        let q1 = q1(&c);
        assert!(!crate::cover::is_covered(&q1, &a));
        let env = upper_envelope_cq(&q1, &a, &EnvelopeConfig::default())
            .unwrap()
            .expect("Q1 has an upper envelope (Example 4.1)");
        // The paper's Qu removes the atom R(y, w); one removal suffices.
        assert_eq!(env.removed_atoms.len(), 1);
        assert_eq!(env.query.atoms().len(), 2);
        assert!(env.report.is_covered());
        // Nu is a constant derived from A (here: the key has one value, so ≤ N · N).
        let nu = env.approximation_bound(&a, 1_000_000).unwrap();
        assert!(nu <= 6 * 6);
        // The envelope contains the original query on all instances.
        assert!(crate::reason::containment::classically_contained(&q1, &env.query).unwrap());
    }

    #[test]
    fn example_4_1_q1_has_a_lower_envelope() {
        let (c, a) = example_4_1();
        let q1 = q1(&c);
        let env = lower_envelope_cq(&q1, &a, &c, 2, &EnvelopeConfig::default())
            .unwrap()
            .expect("Q1 has a lower envelope (Example 4.1)");
        assert!(env.added_atoms >= 1);
        assert!(env.report.is_covered());
        // The lower envelope is contained in the original query under A.
        assert!(a_contained(&env.query, &q1, &a, &ReasonConfig::default()).unwrap());
        // And it is A-satisfiable (non-trivial).
        assert!(is_a_satisfiable(&env.query, &a, &ReasonConfig::default())
            .unwrap()
            .is_some());
        // The bound Nl is derived from the input query's coverage fixpoint.
        let input_report = coverage(&q1, &a);
        assert!(env.approximation_bound(&input_report, &a, 1_000) >= 1);
    }

    #[test]
    fn example_4_1_q2_has_no_envelopes() {
        let (c, a) = example_4_1();
        let q2 = q2(&c);
        // y is a free variable that A cannot cover: Q2 is not bounded.
        assert!(!crate::cover::is_bounded(&q2, &a));
        assert!(upper_envelope_cq(&q2, &a, &EnvelopeConfig::default())
            .unwrap()
            .is_none());
        assert!(
            lower_envelope_cq(&q2, &a, &c, 3, &EnvelopeConfig::default())
                .unwrap()
                .is_none()
        );
    }

    /// Example 4.5: Q(x, y) = R(1, x, y) under {R(A → B, N), R(B → C, 1)} has a covered
    /// 1-expansion obtained by splitting the unindexed atom.
    #[test]
    fn example_4_5_split_expansion() {
        let mut c = Catalog::new();
        c.declare("R", ["a", "b", "cc"]).unwrap();
        let a = AccessSchema::from_constraints([
            AccessConstraint::new(&c, "R", &["a"], &["b"], 5).unwrap(),
            AccessConstraint::new(&c, "R", &["b"], &["cc"], 1).unwrap(),
        ]);
        let q = ConjunctiveQuery::builder("Q")
            .head(["x", "y"])
            .atom("R", [Arg::val(Value::int(1)), Arg::var("x"), Arg::var("y")])
            .build(&c)
            .unwrap();
        assert!(!crate::cover::is_covered(&q, &a));
        assert!(crate::cover::is_bounded(&q, &a));

        let env = lower_envelope_cq(&q, &a, &c, 1, &EnvelopeConfig::default())
            .unwrap()
            .expect("Example 4.5 has a 1-expansion lower envelope");
        assert!(env.used_split);
        assert!(env.report.is_covered());
        // The split envelope is A-equivalent to Q here (the paper's Q′), so containment
        // holds in both directions.
        assert!(a_contained(&env.query, &q, &a, &ReasonConfig::default()).unwrap());
        assert!(a_contained(&q, &env.query, &a, &ReasonConfig::default()).unwrap());
    }

    #[test]
    fn covered_query_is_its_own_envelope() {
        let (c, a) = example_4_1();
        let q = ConjunctiveQuery::builder("Q")
            .head(["y"])
            .atom("R", ["x", "y"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        let upper = upper_envelope_cq(&q, &a, &EnvelopeConfig::default())
            .unwrap()
            .unwrap();
        assert!(upper.removed_atoms.is_empty());
        let lower = lower_envelope_cq(&q, &a, &c, 1, &EnvelopeConfig::default())
            .unwrap()
            .unwrap();
        assert_eq!(lower.added_atoms, 0);
    }

    #[test]
    fn ucq_envelopes() {
        let (c, a) = example_4_1();
        let covered_branch = ConjunctiveQuery::builder("Qc")
            .head(["x"])
            .atom("R", ["w", "x"])
            .eq("w", 1i64)
            .build(&c)
            .unwrap();
        let union = UnionQuery::from_branches("Q", vec![q1(&c), covered_branch]).unwrap();
        let upper = upper_envelope_ucq(&union, &a, &EnvelopeConfig::default())
            .unwrap()
            .expect("both branches have covered relaxations");
        assert_eq!(upper.len(), 2);

        let lower = lower_envelope_ucq(&union, &a, &c, 2, &EnvelopeConfig::default())
            .unwrap()
            .expect("some branch has a covered expansion");
        assert_eq!(lower.len(), 1);

        // A union containing an unbounded branch has no envelopes (Lemma 4.2(c)). Here
        // the extra branch's free variable cannot be covered by the key-side index.
        let unbounded_branch = ConjunctiveQuery::builder("Qu")
            .head(["y"])
            .atom("R", ["x", "y"])
            .build(&c)
            .unwrap();
        let unbounded = UnionQuery::from_branches("U", vec![unbounded_branch, q1(&c)]).unwrap();
        assert!(
            lower_envelope_ucq(&unbounded, &a, &c, 2, &EnvelopeConfig::default())
                .unwrap()
                .is_none()
        );
    }

    #[test]
    fn combination_enumeration() {
        let mut seen = Vec::new();
        for_each_combination(4, 2, &mut |c| {
            seen.push(c.to_vec());
            Ok(false)
        })
        .unwrap();
        let lexicographic = [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]];
        assert_eq!(seen, lexicographic);
        // Early stop.
        let mut count = 0;
        let stopped = for_each_combination(5, 2, &mut |_| {
            count += 1;
            Ok(count == 3)
        })
        .unwrap();
        assert!(stopped);
        assert_eq!(count, 3);
        // Degenerate cases: size 0 visits the empty subset once, a size past `n` nothing.
        assert!(!for_each_combination(2, 5, &mut |_| Ok(true)).unwrap());
        let mut count = 0;
        for_each_combination(3, 0, &mut |c| {
            assert!(c.is_empty());
            count += 1;
            Ok(false)
        })
        .unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn budget_is_enforced() {
        let (c, a) = example_4_1();
        let q = q1(&c);
        let tiny = EnvelopeConfig {
            max_candidates: 1,
            reason: ReasonConfig::default(),
        };
        // The first candidate of the upper search is not covered, so the second one trips
        // the budget.
        let result = upper_envelope_cq(&q, &a, &tiny);
        assert!(matches!(result, Err(Error::BudgetExhausted { .. })));
    }
}
