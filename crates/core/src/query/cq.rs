//! Conjunctive queries (CQ, a.k.a. SPC queries).
//!
//! A [`ConjunctiveQuery`] is kept in the *normalized form* the paper assumes w.l.o.g.
//! (Section 3.2):
//!
//! * only variables occur in relation atoms and in the head;
//! * constants occur only in equality atoms (`x = c`);
//! * the query is *safe*: every variable is equal (via the equality atoms) to a variable
//!   occurring in a relation atom, or to a constant.
//!
//! The [`CqBuilder`] accepts the natural mixed syntax (constants inside atoms, constants in
//! the head) and performs the normalization automatically, so
//! `Q0(xa) :- Accident(aid, "Queen's Park", "1/5/2005"), …` can be written directly.

use crate::error::{Error, Result};
use crate::query::term::{Arg, Var};
use crate::schema::Catalog;
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// A relation atom `R(x₁, …, xₙ)` of a normalized conjunctive query (variables only).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Atom {
    /// The relation name.
    pub relation: String,
    /// The argument variables, one per attribute of the relation.
    pub args: Vec<Var>,
}

impl Atom {
    /// Create an atom.
    pub fn new(relation: impl Into<String>, args: Vec<Var>) -> Self {
        Self {
            relation: relation.into(),
            args,
        }
    }
}

/// An equality atom of a normalized conjunctive query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Equality {
    /// `x = y` between two variables.
    Vars(Var, Var),
    /// `x = c` between a variable and a constant.
    Const(Var, Value),
}

/// Equality classes of the variables of a conjunctive query.
///
/// `eq(x, Q)` (the paper's notation) is the class of `x` under the equalities `y = z`
/// of `Q` and transitivity. `eq⁺(x, Q)` additionally merges classes that are forced equal
/// through constants (`x = c` and `y = c` imply `x = y`). Build them with
/// [`ConjunctiveQuery::eq_classes`] and [`ConjunctiveQuery::eq_plus_classes`].
#[derive(Debug, Clone)]
pub struct EqClasses {
    root: Vec<usize>,
    members: BTreeMap<usize, Vec<Var>>,
    constants: HashMap<usize, Value>,
    contradictory: BTreeSet<usize>,
}

impl EqClasses {
    fn build(query: &ConjunctiveQuery, plus: bool) -> Self {
        let n = query.var_names.len();
        let mut parent: Vec<usize> = (0..n).collect();

        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        fn union(parent: &mut [usize], a: usize, b: usize) {
            let ra = find(parent, a);
            let rb = find(parent, b);
            if ra != rb {
                parent[rb] = ra;
            }
        }

        for eq in &query.equalities {
            if let Equality::Vars(a, b) = eq {
                union(&mut parent, a.index(), b.index());
            }
        }

        // Assign constants to classes; detect contradictions (two distinct constants in
        // one class, e.g. `x = 1 ∧ x = 2`).
        let mut constants: HashMap<usize, Value> = HashMap::new();
        let mut contradictory: BTreeSet<usize> = BTreeSet::new();
        for eq in &query.equalities {
            if let Equality::Const(v, c) = eq {
                let r = find(&mut parent, v.index());
                match constants.get(&r) {
                    Some(existing) if existing != c => {
                        contradictory.insert(r);
                    }
                    Some(_) => {}
                    None => {
                        constants.insert(r, c.clone());
                    }
                }
            }
        }

        if plus {
            // eq⁺: merge classes carrying the same constant.
            let mut by_const: HashMap<Value, usize> = HashMap::new();
            let roots: Vec<usize> = constants.keys().copied().collect();
            for r in roots {
                let c = constants[&r].clone();
                match by_const.get(&c) {
                    Some(&other) => union(&mut parent, other, r),
                    None => {
                        by_const.insert(c, r);
                    }
                }
            }
            // Re-anchor constants and contradictions on the new roots.
            let mut new_constants = HashMap::new();
            let mut new_contradictory = BTreeSet::new();
            for (r, c) in constants {
                let nr = find(&mut parent, r);
                match new_constants.get(&nr) {
                    Some(existing) if existing != &c => {
                        new_contradictory.insert(nr);
                    }
                    Some(_) => {}
                    None => {
                        new_constants.insert(nr, c);
                    }
                }
            }
            for r in contradictory {
                new_contradictory.insert(find(&mut parent, r));
            }
            constants = new_constants;
            contradictory = new_contradictory;
        }

        let root: Vec<usize> = (0..n).map(|i| find(&mut parent, i)).collect();
        let mut members: BTreeMap<usize, Vec<Var>> = BTreeMap::new();
        for (i, &r) in root.iter().enumerate() {
            members.entry(r).or_default().push(Var(i as u32));
        }
        // Constants/contradictions may still be keyed by stale roots after path updates.
        let constants = constants
            .into_iter()
            .map(|(r, c)| (root[r], c))
            .collect::<HashMap<_, _>>();
        let contradictory = contradictory.into_iter().map(|r| root[r]).collect();

        Self {
            root,
            members,
            constants,
            contradictory,
        }
    }

    /// The class representative (an arbitrary but stable index) of a variable.
    pub fn root(&self, v: Var) -> usize {
        self.root[v.index()]
    }

    /// True when two variables are in the same class.
    pub fn same(&self, a: Var, b: Var) -> bool {
        self.root(a) == self.root(b)
    }

    /// The members of the class of `v`.
    pub fn members(&self, v: Var) -> &[Var] {
        &self.members[&self.root(v)]
    }

    /// The constant forced on the class of `v`, if any.
    pub fn constant(&self, v: Var) -> Option<&Value> {
        self.constants.get(&self.root(v))
    }

    /// True when any class is contradictory (the query has no classical answer).
    pub fn has_contradiction(&self) -> bool {
        !self.contradictory.is_empty()
    }

    /// Iterate over all classes as `(representative, members)`.
    pub fn classes(&self) -> impl Iterator<Item = (usize, &[Var])> {
        self.members.iter().map(|(r, m)| (*r, m.as_slice()))
    }
}

/// A normalized conjunctive query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConjunctiveQuery {
    name: String,
    head: Vec<Var>,
    atoms: Vec<Atom>,
    equalities: Vec<Equality>,
    var_names: Vec<String>,
    params: BTreeSet<Var>,
}

impl ConjunctiveQuery {
    /// Start building a conjunctive query with the given name.
    pub fn builder(name: impl Into<String>) -> CqBuilder {
        CqBuilder::new(name)
    }

    /// Low-level constructor from already-normalized parts.
    ///
    /// Checks well-formedness (variable indices in range, safety) and compacts the
    /// variable table so that every variable is used. Most callers should use
    /// [`CqBuilder`], which also validates relation names and arities against a catalog;
    /// this constructor exists for query transformations that cannot change arities
    /// (atom removal, variable unification).
    pub fn from_raw_parts(
        name: impl Into<String>,
        var_names: Vec<String>,
        head: Vec<Var>,
        atoms: Vec<Atom>,
        equalities: Vec<Equality>,
        params: BTreeSet<Var>,
    ) -> Result<Self> {
        let name = name.into();
        let n = var_names.len();
        let in_range = |v: Var| v.index() < n;
        for v in head.iter().copied() {
            if !in_range(v) {
                return Err(Error::invalid(format!(
                    "head variable {v} out of range in query `{name}`"
                )));
            }
        }
        for a in &atoms {
            if !a.args.iter().copied().all(in_range) {
                return Err(Error::invalid(format!(
                    "atom over `{}` references an out-of-range variable in query `{name}`",
                    a.relation
                )));
            }
        }
        for e in &equalities {
            let ok = match e {
                Equality::Vars(a, b) => in_range(*a) && in_range(*b),
                Equality::Const(v, _) => in_range(*v),
            };
            if !ok {
                return Err(Error::invalid(format!(
                    "equality references an out-of-range variable in query `{name}`"
                )));
            }
        }

        let mut q = Self {
            name,
            head,
            atoms,
            equalities,
            var_names,
            params,
        };
        q.compact();
        q.check_safety()?;
        Ok(q)
    }

    /// Drop unused variables from the variable table, renumbering the rest.
    fn compact(&mut self) {
        let n = self.var_names.len();
        let mut used = vec![false; n];
        for v in &self.head {
            used[v.index()] = true;
        }
        for a in &self.atoms {
            for v in &a.args {
                used[v.index()] = true;
            }
        }
        for e in &self.equalities {
            match e {
                Equality::Vars(a, b) => {
                    used[a.index()] = true;
                    used[b.index()] = true;
                }
                Equality::Const(v, _) => used[v.index()] = true,
            }
        }
        if used.iter().all(|&u| u) {
            return;
        }
        let mut remap: Vec<Option<Var>> = vec![None; n];
        let mut new_names = Vec::new();
        for i in 0..n {
            if used[i] {
                remap[i] = Some(Var(new_names.len() as u32));
                new_names.push(self.var_names[i].clone());
            }
        }
        let map = |v: Var| remap[v.index()].expect("used variable must be remapped");
        self.head = self.head.iter().map(|&v| map(v)).collect();
        for a in &mut self.atoms {
            a.args = a.args.iter().map(|&v| map(v)).collect();
        }
        for e in &mut self.equalities {
            *e = match e {
                Equality::Vars(a, b) => Equality::Vars(map(*a), map(*b)),
                Equality::Const(v, c) => Equality::Const(map(*v), c.clone()),
            };
        }
        // Parameters that no longer occur anywhere in the query (e.g. after an atom
        // removal) are dropped rather than kept as dangling references.
        self.params = self
            .params
            .iter()
            .filter_map(|&v| remap[v.index()])
            .collect();
        self.var_names = new_names;
    }

    /// Safety check: every variable's `eq` class contains a relation-atom variable or a
    /// constant.
    fn check_safety(&self) -> Result<()> {
        let eq = self.eq_classes();
        let atom_vars = self.atom_vars();
        for v in self.vars() {
            let class_has_atom_var = eq.members(v).iter().any(|m| atom_vars.contains(m));
            let class_has_const = eq.constant(v).is_some();
            if !class_has_atom_var && !class_has_const {
                return Err(Error::UnsafeQuery {
                    variable: self.var_name(v).to_owned(),
                });
            }
        }
        Ok(())
    }

    /// The query name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Rename the query.
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// The head (output) variables, in output order. Variables may repeat.
    pub fn head(&self) -> &[Var] {
        &self.head
    }

    /// The output arity.
    pub fn arity(&self) -> usize {
        self.head.len()
    }

    /// The relation atoms.
    pub fn atoms(&self) -> &[Atom] {
        &self.atoms
    }

    /// The equality atoms.
    pub fn equalities(&self) -> &[Equality] {
        &self.equalities
    }

    /// The designated parameters (Section 5), if any.
    pub fn params(&self) -> &BTreeSet<Var> {
        &self.params
    }

    /// Number of variables in the query (free and bound).
    pub fn num_vars(&self) -> usize {
        self.var_names.len()
    }

    /// Iterate over all variables of the query.
    pub fn vars(&self) -> impl Iterator<Item = Var> {
        (0..self.var_names.len() as u32).map(Var)
    }

    /// The display name of a variable.
    pub fn var_name(&self, v: Var) -> &str {
        &self.var_names[v.index()]
    }

    /// Look up a variable by display name.
    pub fn var_by_name(&self, name: &str) -> Option<Var> {
        self.var_names
            .iter()
            .position(|n| n == name)
            .map(|i| Var(i as u32))
    }

    /// The set of free (head) variables.
    pub fn free_vars(&self) -> BTreeSet<Var> {
        self.head.iter().copied().collect()
    }

    /// The set of bound (non-head) variables.
    pub fn bound_vars(&self) -> BTreeSet<Var> {
        let free = self.free_vars();
        self.vars().filter(|v| !free.contains(v)).collect()
    }

    /// Variables occurring in relation atoms.
    pub fn atom_vars(&self) -> BTreeSet<Var> {
        self.atoms
            .iter()
            .flat_map(|a| a.args.iter().copied())
            .collect()
    }

    /// Total number of occurrences of `v` across relation atoms and equality atoms.
    ///
    /// This is the occurrence count used by the covered-query conditions: a bound,
    /// non-constant variable that occurs exactly once is a pure "don't care" existential.
    pub fn occurrence_count(&self, v: Var) -> usize {
        let in_atoms: usize = self
            .atoms
            .iter()
            .map(|a| a.args.iter().filter(|&&x| x == v).count())
            .sum();
        let in_eqs: usize = self
            .equalities
            .iter()
            .map(|e| match e {
                Equality::Vars(a, b) => usize::from(*a == v) + usize::from(*b == v),
                Equality::Const(x, _) => usize::from(*x == v),
            })
            .sum();
        in_atoms + in_eqs
    }

    /// Equality classes `eq(·, Q)` from variable-variable equalities only.
    pub fn eq_classes(&self) -> EqClasses {
        EqClasses::build(self, false)
    }

    /// Extended equality classes `eq⁺(·, Q)`, additionally merging classes forced equal
    /// through shared constants.
    pub fn eq_plus_classes(&self) -> EqClasses {
        EqClasses::build(self, true)
    }

    /// Constant variables: variables whose `eq` class carries a constant.
    pub fn constant_vars(&self) -> BTreeSet<Var> {
        let eq = self.eq_classes();
        self.vars().filter(|&v| eq.constant(v).is_some()).collect()
    }

    /// Data-dependent variables: variables whose `eq` class contains a variable occurring
    /// in a relation atom. The remaining variables are data-independent (their values are
    /// fixed by the query alone).
    pub fn data_dependent_vars(&self) -> BTreeSet<Var> {
        let eq = self.eq_classes();
        let atom_vars = self.atom_vars();
        self.vars()
            .filter(|&v| eq.members(v).iter().any(|m| atom_vars.contains(m)))
            .collect()
    }

    /// True when the query has classically contradictory constants (e.g. `x = 1 ∧ x = 2`).
    ///
    /// Such queries are still well-formed; they simply have an empty answer on every
    /// database (cf. `Q′₂` of Example 3.12).
    pub fn has_contradiction(&self) -> bool {
        self.eq_classes().has_contradiction()
    }

    // ------------------------------------------------------------------
    // Transformations used by the rewriting, envelope and specialization analyses.
    // ------------------------------------------------------------------

    /// A copy of the query without the relation atoms at the given indices.
    ///
    /// Bound variables that become unsafe (no longer tied to a relation atom or a
    /// constant) are dropped together with their equality atoms; if a *head* variable
    /// becomes unsafe the removal is rejected.
    pub fn without_atoms(&self, remove: &BTreeSet<usize>) -> Result<Self> {
        let atoms: Vec<Atom> = self
            .atoms
            .iter()
            .enumerate()
            .filter(|(i, _)| !remove.contains(i))
            .map(|(_, a)| a.clone())
            .collect();

        // Iteratively drop unsafe bound variables and the equalities that mention them.
        let mut equalities = self.equalities.clone();
        let head_set = self.free_vars();
        loop {
            let atom_vars: BTreeSet<Var> =
                atoms.iter().flat_map(|a| a.args.iter().copied()).collect();
            // Recompute eq classes over the surviving equalities.
            let probe = Self {
                name: self.name.clone(),
                head: self.head.clone(),
                atoms: atoms.clone(),
                equalities: equalities.clone(),
                var_names: self.var_names.clone(),
                params: self.params.clone(),
            };
            let eq = probe.eq_classes();
            let mut unsafe_vars: BTreeSet<Var> = BTreeSet::new();
            for v in probe.vars_in_use() {
                let safe =
                    eq.members(v).iter().any(|m| atom_vars.contains(m)) || eq.constant(v).is_some();
                if !safe {
                    unsafe_vars.insert(v);
                }
            }
            if unsafe_vars.is_empty() {
                break;
            }
            if let Some(bad) = unsafe_vars.iter().find(|v| head_set.contains(v)) {
                return Err(Error::UnsafeQuery {
                    variable: self.var_name(*bad).to_owned(),
                });
            }
            let before = equalities.len();
            equalities.retain(|e| match e {
                Equality::Vars(a, b) => !unsafe_vars.contains(a) && !unsafe_vars.contains(b),
                Equality::Const(v, _) => !unsafe_vars.contains(v),
            });
            if equalities.len() == before {
                break;
            }
        }

        Self::from_raw_parts(
            self.name.clone(),
            self.var_names.clone(),
            self.head.clone(),
            atoms,
            equalities,
            self.params.clone(),
        )
    }

    /// Variables that occur in the head, an atom or an equality (used internally while
    /// transforming queries before compaction).
    fn vars_in_use(&self) -> BTreeSet<Var> {
        let mut used: BTreeSet<Var> = self.head.iter().copied().collect();
        used.extend(self.atoms.iter().flat_map(|a| a.args.iter().copied()));
        for e in &self.equalities {
            match e {
                Equality::Vars(a, b) => {
                    used.insert(*a);
                    used.insert(*b);
                }
                Equality::Const(v, _) => {
                    used.insert(*v);
                }
            }
        }
        used
    }

    /// A copy of the query in which every variable is replaced by the representative of
    /// its group. `groups` maps each variable to its replacement (identity for untouched
    /// variables). Duplicate atoms and equalities produced by the merge are removed.
    pub fn merge_vars(&self, replacement: &BTreeMap<Var, Var>) -> Result<Self> {
        let map = |v: Var| *replacement.get(&v).unwrap_or(&v);
        let head = self.head.iter().map(|&v| map(v)).collect();
        let mut atoms: Vec<Atom> = self
            .atoms
            .iter()
            .map(|a| Atom::new(a.relation.clone(), a.args.iter().map(|&v| map(v)).collect()))
            .collect();
        let mut seen = BTreeSet::new();
        atoms.retain(|a| seen.insert((a.relation.clone(), a.args.clone())));

        let mut equalities: Vec<Equality> = Vec::new();
        for e in &self.equalities {
            let mapped = match e {
                Equality::Vars(a, b) => {
                    let (a, b) = (map(*a), map(*b));
                    if a == b {
                        continue;
                    }
                    Equality::Vars(a.min(b), a.max(b))
                }
                Equality::Const(v, c) => Equality::Const(map(*v), c.clone()),
            };
            if !equalities.contains(&mapped) {
                equalities.push(mapped);
            }
        }
        let params = self.params.iter().map(|&v| map(v)).collect();
        Self::from_raw_parts(
            self.name.clone(),
            self.var_names.clone(),
            head,
            atoms,
            equalities,
            params,
        )
    }

    /// A copy of the query with extra `x = c` equalities (used by query specialization).
    pub fn with_const_equalities(&self, bindings: &[(Var, Value)]) -> Result<Self> {
        let mut equalities = self.equalities.clone();
        for (v, c) in bindings {
            equalities.push(Equality::Const(*v, c.clone()));
        }
        Self::from_raw_parts(
            self.name.clone(),
            self.var_names.clone(),
            self.head.clone(),
            self.atoms.clone(),
            equalities,
            self.params.clone(),
        )
    }

    /// Rebuild a [`CqBuilder`] from this query, preserving variable names; used when a
    /// transformation needs to add atoms (which requires re-validating against a catalog).
    pub fn to_builder(&self) -> CqBuilder {
        let mut b = CqBuilder::new(self.name.clone());
        b.head_args = self
            .head
            .iter()
            .map(|&v| Arg::Var(self.var_name(v).to_owned()))
            .collect();
        for a in &self.atoms {
            b.atoms.push((
                a.relation.clone(),
                a.args
                    .iter()
                    .map(|&v| Arg::Var(self.var_name(v).to_owned()))
                    .collect(),
            ));
        }
        for e in &self.equalities {
            match e {
                Equality::Vars(x, y) => b.equalities.push((
                    Arg::Var(self.var_name(*x).to_owned()),
                    Arg::Var(self.var_name(*y).to_owned()),
                )),
                Equality::Const(x, c) => b.equalities.push((
                    Arg::Var(self.var_name(*x).to_owned()),
                    Arg::Const(c.clone()),
                )),
            }
        }
        b.params = self
            .params
            .iter()
            .map(|&v| self.var_name(v).to_owned())
            .collect();
        b
    }

    /// A fresh variable name not used by this query, derived from `stem`.
    pub fn fresh_name(&self, stem: &str) -> String {
        if self.var_by_name(stem).is_none() {
            return stem.to_owned();
        }
        let mut i = 0u32;
        loop {
            let candidate = format!("{stem}_{i}");
            if self.var_by_name(&candidate).is_none() {
                return candidate;
            }
            i += 1;
        }
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let head = self
            .head
            .iter()
            .map(|&v| self.var_name(v).to_owned())
            .collect::<Vec<_>>()
            .join(", ");
        write!(f, "{}({}) :- ", self.name, head)?;
        let mut parts: Vec<String> = self
            .atoms
            .iter()
            .map(|a| {
                format!(
                    "{}({})",
                    a.relation,
                    a.args
                        .iter()
                        .map(|&v| self.var_name(v).to_owned())
                        .collect::<Vec<_>>()
                        .join(", ")
                )
            })
            .collect();
        for e in &self.equalities {
            parts.push(match e {
                Equality::Vars(a, b) => {
                    format!("{} = {}", self.var_name(*a), self.var_name(*b))
                }
                Equality::Const(v, c) => format!("{} = {}", self.var_name(*v), c),
            });
        }
        write!(f, "{}.", parts.join(", "))
    }
}

/// Builder for [`ConjunctiveQuery`] values.
///
/// The builder accepts constants anywhere (head, atom arguments, both sides of an
/// equality) and produces the normalized form.
#[derive(Debug, Clone)]
pub struct CqBuilder {
    name: String,
    pub(crate) head_args: Vec<Arg>,
    pub(crate) atoms: Vec<(String, Vec<Arg>)>,
    pub(crate) equalities: Vec<(Arg, Arg)>,
    pub(crate) params: Vec<String>,
}

impl CqBuilder {
    /// Start a builder for a query with the given name.
    pub fn new(name: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            head_args: Vec::new(),
            atoms: Vec::new(),
            equalities: Vec::new(),
            params: Vec::new(),
        }
    }

    /// Set the head (output) arguments.
    pub fn head<A: Into<Arg>>(mut self, args: impl IntoIterator<Item = A>) -> Self {
        self.head_args = args.into_iter().map(Into::into).collect();
        self
    }

    /// Add a relation atom.
    pub fn atom<A: Into<Arg>>(
        mut self,
        relation: impl Into<String>,
        args: impl IntoIterator<Item = A>,
    ) -> Self {
        self.atoms
            .push((relation.into(), args.into_iter().map(Into::into).collect()));
        self
    }

    /// Add an equality atom between two arguments (variables or constants).
    pub fn eq(mut self, left: impl Into<Arg>, right: impl Into<Arg>) -> Self {
        self.equalities.push((left.into(), right.into()));
        self
    }

    /// Declare a variable (by name) as a parameter of the query (Section 5).
    pub fn param(mut self, name: impl Into<String>) -> Self {
        self.params.push(name.into());
        self
    }

    /// Declare several parameters at once.
    pub fn params<S: Into<String>>(mut self, names: impl IntoIterator<Item = S>) -> Self {
        self.params.extend(names.into_iter().map(Into::into));
        self
    }

    /// Validate against the catalog, normalize, and build the query.
    pub fn build(self, catalog: &Catalog) -> Result<ConjunctiveQuery> {
        // Arity / relation validation first.
        for (rel, args) in &self.atoms {
            let schema = catalog.relation(rel)?;
            if schema.arity() != args.len() {
                return Err(Error::ArityMismatch {
                    relation: rel.clone(),
                    expected: schema.arity(),
                    found: args.len(),
                });
            }
        }

        /// Variable interner used during normalization.
        struct Interner {
            var_names: Vec<String>,
            var_map: HashMap<String, Var>,
            fresh_counter: usize,
        }

        impl Interner {
            fn intern(&mut self, name: &str) -> Var {
                if let Some(&v) = self.var_map.get(name) {
                    return v;
                }
                let v = Var(self.var_names.len() as u32);
                self.var_names.push(name.to_owned());
                self.var_map.insert(name.to_owned(), v);
                v
            }

            /// Normalize an argument that must be a variable: constants become a fresh
            /// variable plus a constant equality.
            fn arg_to_var(&mut self, arg: &Arg, equalities: &mut Vec<Equality>) -> Var {
                match arg {
                    Arg::Var(name) => self.intern(name),
                    Arg::Const(value) => {
                        let name = loop {
                            let candidate = format!("_c{}", self.fresh_counter);
                            self.fresh_counter += 1;
                            if !self.var_map.contains_key(&candidate) {
                                break candidate;
                            }
                        };
                        let v = self.intern(&name);
                        equalities.push(Equality::Const(v, value.clone()));
                        v
                    }
                }
            }
        }

        let mut interner = Interner {
            var_names: Vec::new(),
            var_map: HashMap::new(),
            fresh_counter: 0,
        };
        let mut equalities: Vec<Equality> = Vec::new();

        let head: Vec<Var> = self
            .head_args
            .iter()
            .map(|a| interner.arg_to_var(a, &mut equalities))
            .collect();

        let atoms: Vec<Atom> = self
            .atoms
            .iter()
            .map(|(rel, args)| {
                Atom::new(
                    rel.clone(),
                    args.iter()
                        .map(|a| interner.arg_to_var(a, &mut equalities))
                        .collect(),
                )
            })
            .collect();

        for (l, r) in &self.equalities {
            match (l, r) {
                (Arg::Var(a), Arg::Var(b)) => {
                    let va = interner.intern(a);
                    let vb = interner.intern(b);
                    if va != vb {
                        equalities.push(Equality::Vars(va, vb));
                    }
                }
                (Arg::Var(a), Arg::Const(c)) | (Arg::Const(c), Arg::Var(a)) => {
                    let va = interner.intern(a);
                    equalities.push(Equality::Const(va, c.clone()));
                }
                (Arg::Const(c1), Arg::Const(c2)) => {
                    if c1 != c2 {
                        // A contradictory constant pair: encode it on a fresh variable so
                        // the query is well-formed but has an empty answer everywhere.
                        let v = interner.arg_to_var(&Arg::Const(c1.clone()), &mut equalities);
                        equalities.push(Equality::Const(v, c2.clone()));
                    }
                }
            }
        }

        let mut params = BTreeSet::new();
        for p in &self.params {
            match interner.var_map.get(p) {
                Some(&v) => {
                    params.insert(v);
                }
                None => {
                    return Err(Error::UnknownParameter {
                        parameter: p.clone(),
                    })
                }
            }
        }

        ConjunctiveQuery::from_raw_parts(
            self.name,
            interner.var_names,
            head,
            atoms,
            equalities,
            params,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.declare("Accident", ["aid", "district", "date"]).unwrap();
        c.declare("Casualty", ["cid", "aid", "class", "vid"])
            .unwrap();
        c.declare("Vehicle", ["vid", "driver", "age"]).unwrap();
        c.declare("R", ["a", "b"]).unwrap();
        c
    }

    /// Q0 of Example 1.1.
    fn q0(c: &Catalog) -> ConjunctiveQuery {
        ConjunctiveQuery::builder("Q0")
            .head(["xa"])
            .atom(
                "Accident",
                [
                    Arg::var("aid"),
                    Arg::val(Value::str("Queen's Park")),
                    Arg::val(Value::str("1/5/2005")),
                ],
            )
            .atom("Casualty", ["cid", "aid", "class", "vid"])
            .atom("Vehicle", ["vid", "dri", "xa"])
            .build(c)
            .unwrap()
    }

    #[test]
    fn builder_normalizes_constants_in_atoms() {
        let c = catalog();
        let q = q0(&c);
        // Atoms contain only variables; the two constants became equality atoms.
        assert_eq!(q.atoms().len(), 3);
        let consts: Vec<_> = q
            .equalities()
            .iter()
            .filter(|e| matches!(e, Equality::Const(_, _)))
            .collect();
        assert_eq!(consts.len(), 2);
        assert_eq!(q.arity(), 1);
        assert_eq!(q.var_name(q.head()[0]), "xa");
    }

    #[test]
    fn builder_checks_arity_and_relation() {
        let c = catalog();
        let err = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("Vehicle", ["x", "y"])
            .build(&c);
        assert!(matches!(err, Err(Error::ArityMismatch { .. })));
        let err = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("Nope", ["x"])
            .build(&c);
        assert!(matches!(err, Err(Error::UnknownRelation { .. })));
    }

    #[test]
    fn unsafe_query_rejected() {
        let c = catalog();
        let err = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["y", "z"])
            .build(&c);
        assert!(matches!(err, Err(Error::UnsafeQuery { .. })));
    }

    #[test]
    fn safe_via_constant_head() {
        let c = catalog();
        // Head variable equal to a constant only: safe (data-independent).
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["y", "z"])
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        assert!(q.constant_vars().contains(&q.var_by_name("x").unwrap()));
        assert!(!q
            .data_dependent_vars()
            .contains(&q.var_by_name("x").unwrap()));
    }

    #[test]
    fn eq_and_eq_plus_example_3_8() {
        // Q(x, y, u, v) = R(x, y) ∧ x = 1 ∧ x = y ∧ u = 1 ∧ u = v
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x", "y", "u", "v"])
            .atom("R", ["x", "y"])
            .eq("x", 1i64)
            .eq("x", "y")
            .eq("u", 1i64)
            .eq("u", "v")
            .build(&c)
            .unwrap();
        let x = q.var_by_name("x").unwrap();
        let y = q.var_by_name("y").unwrap();
        let u = q.var_by_name("u").unwrap();
        let v = q.var_by_name("v").unwrap();

        let eq = q.eq_classes();
        assert!(eq.same(x, y));
        assert!(!eq.same(x, u));
        assert!(eq.same(u, v));
        assert_eq!(eq.constant(x), Some(&Value::int(1)));

        let eq_plus = q.eq_plus_classes();
        assert!(eq_plus.same(x, u));
        assert!(eq_plus.same(x, v));

        // x, y are data-dependent; u, v are not (Example 3.8).
        let dd = q.data_dependent_vars();
        assert!(dd.contains(&x));
        assert!(dd.contains(&y));
        assert!(!dd.contains(&u));
        assert!(!dd.contains(&v));
    }

    #[test]
    fn contradiction_detection() {
        let c = catalog();
        // Q′₂(x) = (x = 1 ∧ x = 2) from Example 3.12.
        let q = ConjunctiveQuery::builder("Q2p")
            .head(["x"])
            .eq("x", 1i64)
            .eq("x", 2i64)
            .build(&c)
            .unwrap();
        assert!(q.has_contradiction());
        assert!(q.atoms().is_empty());

        let q_ok = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .eq("x", 1i64)
            .eq("x", 1i64)
            .build(&c)
            .unwrap();
        assert!(!q_ok.has_contradiction());
    }

    #[test]
    fn occurrence_counts() {
        let c = catalog();
        let q = q0(&c);
        let aid = q.var_by_name("aid").unwrap();
        let cid = q.var_by_name("cid").unwrap();
        let xa = q.var_by_name("xa").unwrap();
        assert_eq!(q.occurrence_count(aid), 2); // Accident + Casualty
        assert_eq!(q.occurrence_count(cid), 1);
        assert_eq!(q.occurrence_count(xa), 1); // head occurrences are not counted
    }

    #[test]
    fn free_and_bound_vars() {
        let c = catalog();
        let q = q0(&c);
        let xa = q.var_by_name("xa").unwrap();
        assert!(q.free_vars().contains(&xa));
        assert!(!q.bound_vars().contains(&xa));
        assert_eq!(q.free_vars().len(), 1);
        assert_eq!(q.bound_vars().len() + q.free_vars().len(), q.num_vars());
    }

    #[test]
    fn without_atoms_drops_orphaned_bound_vars() {
        let c = catalog();
        let q = q0(&c);
        // Remove the Vehicle atom: `dri` disappears, `xa` (head) becomes unsafe → error.
        let vehicle_idx = q
            .atoms()
            .iter()
            .position(|a| a.relation == "Vehicle")
            .unwrap();
        let err = q.without_atoms(&BTreeSet::from([vehicle_idx]));
        assert!(matches!(err, Err(Error::UnsafeQuery { .. })));

        // Removing the Casualty atom keeps the query safe... no: vid links Casualty and
        // Vehicle; removing Casualty keeps vid in Vehicle, still safe.
        let casualty_idx = q
            .atoms()
            .iter()
            .position(|a| a.relation == "Casualty")
            .unwrap();
        let relaxed = q.without_atoms(&BTreeSet::from([casualty_idx])).unwrap();
        assert_eq!(relaxed.atoms().len(), 2);
        assert!(
            relaxed.var_by_name("cid").is_none(),
            "cid is compacted away"
        );
        assert_eq!(relaxed.arity(), 1);
    }

    #[test]
    fn merge_vars_dedups_atoms_and_equalities() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .atom("R", ["x", "z"])
            .eq("y", "w")
            .eq("z", "w")
            .build(&c)
            .unwrap();
        let y = q.var_by_name("y").unwrap();
        let z = q.var_by_name("z").unwrap();
        let merged = q.merge_vars(&BTreeMap::from([(z, y)])).unwrap();
        assert_eq!(merged.atoms().len(), 1, "identical atoms are deduplicated");
        // y = w survives once.
        assert_eq!(
            merged
                .equalities()
                .iter()
                .filter(|e| matches!(e, Equality::Vars(_, _)))
                .count(),
            1
        );
    }

    #[test]
    fn with_const_equalities_specializes() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .params(["y"])
            .build(&c)
            .unwrap();
        let y = q.var_by_name("y").unwrap();
        let s = q.with_const_equalities(&[(y, Value::int(7))]).unwrap();
        assert!(s.constant_vars().contains(&y));
        assert_eq!(s.params(), q.params());
    }

    #[test]
    fn builder_round_trip_via_to_builder() {
        let c = catalog();
        let q = q0(&c);
        let rebuilt = q.to_builder().build(&c).unwrap();
        assert_eq!(rebuilt.atoms().len(), q.atoms().len());
        assert_eq!(rebuilt.equalities().len(), q.equalities().len());
        assert_eq!(rebuilt.arity(), q.arity());
        assert_eq!(rebuilt.num_vars(), q.num_vars());
    }

    #[test]
    fn params_must_exist() {
        let c = catalog();
        let err = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .param("zzz")
            .build(&c);
        assert!(matches!(err, Err(Error::UnknownParameter { .. })));
    }

    #[test]
    fn display_round_trips_the_shape() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .eq("y", 1i64)
            .build(&c)
            .unwrap();
        let s = q.to_string();
        assert!(s.starts_with("Q(x) :- R(x, y)"));
        assert!(s.contains("y = 1"));
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let c = catalog();
        let q = q0(&c);
        assert_eq!(q.fresh_name("zz"), "zz");
        let taken = q.fresh_name("aid");
        assert_ne!(taken, "aid");
        assert!(q.var_by_name(&taken).is_none());
    }

    #[test]
    fn contradictory_constant_pair_in_builder() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .eq(1i64, 2i64)
            .build(&c)
            .unwrap();
        assert!(q.has_contradiction());
        let q2 = ConjunctiveQuery::builder("Q")
            .head(["x"])
            .atom("R", ["x", "y"])
            .eq(1i64, 1i64)
            .build(&c)
            .unwrap();
        assert!(!q2.has_contradiction());
    }

    #[test]
    fn boolean_query_has_empty_head() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(Vec::<Arg>::new())
            .atom("R", ["x", "y"])
            .build(&c)
            .unwrap();
        assert_eq!(q.arity(), 0);
        assert!(q.free_vars().is_empty());
    }

    #[test]
    fn repeated_head_variable() {
        let c = catalog();
        let q = ConjunctiveQuery::builder("Q")
            .head(["x", "x"])
            .atom("R", ["x", "y"])
            .build(&c)
            .unwrap();
        assert_eq!(q.arity(), 2);
        assert_eq!(q.head()[0], q.head()[1]);
    }
}
