//! The columnar batch: how rows move between streaming operators.
//!
//! A [`Batch`] stores its values column-wise, each column behind an [`Arc`], plus an
//! optional *selection vector* naming the physical rows that are logically present.
//! The layout makes the hot relational operators manipulate *metadata* instead of
//! values:
//!
//! * **filter** keeps the columns untouched and writes a (possibly composed) selection
//!   vector — zero value copies;
//! * **project** permutes/duplicates the column handles — zero value copies;
//! * **exchange** (crossing a materialization point between pipelines) clones the
//!   batch, which clones `Arc`s — a refcount bump per column, never a row copy.
//!
//! Only *gathers* — operators that genuinely combine rows from several sources (joins,
//! products, fetch output) — write values into fresh columns, and a value write is O(1)
//! even for strings ([`bea_core::value::Value`] payloads are shared). The executor
//! counts every such clone in [`crate::stats::AccessStats::values_cloned`], so the copy
//! traffic of a plan is asserted, not eyeballed.
//!
//! The batch length is tracked explicitly (`stored`), so zero-column batches — unit
//! rows, as produced by `PhysOp::Unit` — still have a well-defined row count.

use bea_core::plan::Predicate;
use bea_core::value::{Row, Value};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// One shared column of values. Cloning the handle is a refcount bump.
pub(crate) type Column = Arc<Vec<Value>>;

/// A columnar batch of rows; see the module docs for the layout.
///
/// The column list itself is behind an `Arc` too, so `Batch::clone` — the exchange
/// protocol between pipelines, and a keyed-lookup cache hit — is purely refcount
/// bumps: no allocation anywhere on the clone path.
#[derive(Debug, Clone, Default)]
pub(crate) struct Batch {
    columns: Arc<Vec<Column>>,
    /// Physical rows stored in every column (the columns all have this length).
    stored: usize,
    /// Logical row `i` lives at physical position `selection[i]`; `None` = identity.
    selection: Option<Arc<Vec<u32>>>,
    /// The index-partition shard every row of this batch was fetched from, when the
    /// batch was produced by one per-shard fetch branch (`None` otherwise). Metadata
    /// only — it survives filters, projections and exchanges, and is the hook for
    /// routing a batch to the worker nearest its partition (shard-aware placement).
    origin_shard: Option<u32>,
}

impl Batch {
    /// A batch over freshly built dense columns. `stored` is passed explicitly so
    /// zero-column (unit-row) batches keep their row count.
    pub(crate) fn from_dense(columns: Vec<Vec<Value>>, stored: usize) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == stored));
        Self {
            columns: Arc::new(columns.into_iter().map(Arc::new).collect()),
            stored,
            selection: None,
            origin_shard: None,
        }
    }

    /// A batch holding exactly one row, taking ownership of its values (no clones).
    pub(crate) fn singleton(row: Row) -> Self {
        let columns = Arc::new(row.into_iter().map(|v| Arc::new(vec![v])).collect());
        Self {
            columns,
            stored: 1,
            selection: None,
            origin_shard: None,
        }
    }

    /// Tag the batch with the shard its rows were fetched from (builder style).
    pub(crate) fn with_origin_shard(mut self, origin_shard: Option<u32>) -> Self {
        self.origin_shard = origin_shard;
        self
    }

    /// The shard every row of this batch was fetched from, if it was produced by a
    /// single per-shard fetch branch.
    #[allow(dead_code)] // the hook for shard-aware batch placement; exercised by tests
    pub(crate) fn origin_shard(&self) -> Option<u32> {
        self.origin_shard
    }

    /// Transpose owned rows of the given arity into a dense batch (moves the values).
    pub(crate) fn from_rows(arity: usize, rows: Vec<Row>) -> Self {
        let stored = rows.len();
        let mut columns: Vec<Vec<Value>> = (0..arity).map(|_| Vec::with_capacity(stored)).collect();
        for row in rows {
            debug_assert_eq!(row.len(), arity);
            for (column, value) in columns.iter_mut().zip(row) {
                column.push(value);
            }
        }
        Self::from_dense(columns, stored)
    }

    /// Logical number of rows.
    pub(crate) fn len(&self) -> usize {
        self.selection.as_ref().map_or(self.stored, |sel| sel.len())
    }

    /// True when no logical rows remain.
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of columns.
    pub(crate) fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Physical position of logical row `i`.
    fn physical(&self, i: usize) -> usize {
        match &self.selection {
            Some(sel) => sel[i] as usize,
            None => i,
        }
    }

    /// The value at logical row `i`, column `col`.
    pub(crate) fn value(&self, i: usize, col: usize) -> &Value {
        &self.columns[col][self.physical(i)]
    }

    /// Gather logical row `i` as an owned row (`arity` O(1) value clones).
    pub(crate) fn row(&self, i: usize) -> Row {
        let p = self.physical(i);
        self.columns.iter().map(|c| c[p].clone()).collect()
    }

    /// Gather the values of logical row `i` at `cols` (`cols.len()` O(1) clones).
    pub(crate) fn gather(&self, i: usize, cols: &[usize]) -> Row {
        let p = self.physical(i);
        cols.iter().map(|&c| self.columns[c][p].clone()).collect()
    }

    /// Gather the values of logical row `i` at `cols` into `out`, clearing it first:
    /// the reuse-a-scratch form of [`Batch::gather`] — the same `cols.len()` O(1)
    /// clones, but no fresh allocation once the scratch has grown to capacity.
    pub(crate) fn gather_into(&self, i: usize, cols: &[usize], out: &mut Row) {
        let p = self.physical(i);
        out.clear();
        out.extend(cols.iter().map(|&c| self.columns[c][p].clone()));
    }

    /// Append the values of logical row `i` to the corresponding output columns
    /// (`out[c]` receives column `c`), one O(1) clone per column.
    pub(crate) fn append_row_to(&self, i: usize, out: &mut [Vec<Value>]) {
        let p = self.physical(i);
        for (column, sink) in self.columns.iter().zip(out) {
            sink.push(column[p].clone());
        }
    }

    /// Hash logical row `i` across all columns — the zero-copy half of
    /// hash-then-compare membership tests (dedup, difference): no row is cloned just
    /// to ask whether it was seen before.
    pub(crate) fn hash_row(&self, i: usize) -> u64 {
        let p = self.physical(i);
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        for column in self.columns.iter() {
            column[p].hash(&mut hasher);
        }
        hasher.finish()
    }

    /// Is logical row `i` equal to `row`, value by value?
    pub(crate) fn row_equals(&self, i: usize, row: &[Value]) -> bool {
        let p = self.physical(i);
        self.columns.len() == row.len() && self.columns.iter().zip(row).all(|(c, v)| &c[p] == v)
    }

    /// Does logical row `i` satisfy every predicate?
    pub(crate) fn passes(&self, i: usize, predicates: &[Predicate]) -> bool {
        passes_with(predicates, |col| self.value(i, col))
    }

    /// Restrict the batch to the logical rows `keep` says yes to: the columns are
    /// shared untouched, only a selection vector is written. Zero value copies.
    pub(crate) fn retain(&self, mut keep: impl FnMut(usize) -> bool) -> Batch {
        let selection: Vec<u32> = (0..self.len())
            .filter(|&i| keep(i))
            .map(|i| self.physical(i) as u32)
            .collect();
        Batch {
            columns: Arc::clone(&self.columns),
            stored: self.stored,
            selection: Some(Arc::new(selection)),
            origin_shard: self.origin_shard,
        }
    }

    /// Replace the batch's selection with an explicit list of *physical* row indices
    /// (the caller guarantees they are in range — used by the fetch kernel, whose
    /// dedup works directly over physical positions). Zero value copies.
    pub(crate) fn keep_physical(self, selection: Vec<u32>) -> Batch {
        debug_assert!(selection.iter().all(|&i| (i as usize) < self.stored));
        Batch {
            columns: self.columns,
            stored: self.stored,
            selection: Some(Arc::new(selection)),
            origin_shard: self.origin_shard,
        }
    }

    /// Project onto `cols` (in order, duplicates allowed): permutes the shared column
    /// handles. Zero value copies.
    pub(crate) fn project(&self, cols: &[usize]) -> Batch {
        Batch {
            columns: Arc::new(cols.iter().map(|&c| self.columns[c].clone()).collect()),
            stored: self.stored,
            selection: self.selection.clone(),
            origin_shard: self.origin_shard,
        }
    }

    /// Turn the batch into owned rows, returning the number of value clones this
    /// performed. Dense batches whose columns are not shared are transposed by *move*
    /// (zero clones); shared or selected batches gather.
    pub(crate) fn into_rows(self) -> (Vec<Row>, u64) {
        let len = self.len();
        if self.selection.is_none()
            && Arc::strong_count(&self.columns) == 1
            && self.columns.iter().all(|c| Arc::strong_count(c) == 1)
        {
            let columns = Arc::try_unwrap(self.columns).expect("strong count checked above");
            let mut iters: Vec<_> = columns
                .into_iter()
                .map(|c| {
                    Arc::try_unwrap(c)
                        .expect("strong count checked above")
                        .into_iter()
                })
                .collect();
            let rows = (0..len)
                .map(|_| {
                    iters
                        .iter_mut()
                        .map(|it| it.next().expect("columns have `stored` values"))
                        .collect()
                })
                .collect();
            return (rows, 0);
        }
        let clones = (len * self.arity()) as u64;
        let rows = (0..len).map(|i| self.row(i)).collect();
        (rows, clones)
    }
}

/// Evaluate `predicates` over a row given by column accessor — `value(col)` — without
/// materializing it: the row may be one batch row, or the concatenation of a source
/// row and a fetched posting the keyed lookup never builds.
pub(crate) fn passes_with<'a>(
    predicates: &[Predicate],
    value: impl Fn(usize) -> &'a Value,
) -> bool {
    predicates.iter().all(|p| match p {
        Predicate::ColEqCol(a, b) => value(*a) == value(*b),
        Predicate::ColEqConst(a, c) => value(*a) == c,
    })
}

/// Hash the values of physical row `idx` across `cols` — the zero-copy half of
/// hash-then-compare deduplication over freshly appended columns.
pub(crate) fn hash_row_at(cols: &[Vec<Value>], idx: usize) -> u64 {
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    for column in cols {
        column[idx].hash(&mut hasher);
    }
    hasher.finish()
}

/// Are physical rows `a` and `b` of `cols` equal in every column?
pub(crate) fn rows_equal_at(cols: &[Vec<Value>], a: usize, b: usize) -> bool {
    cols.iter().all(|column| column[a] == column[b])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Batch {
        Batch::from_dense(
            vec![
                vec![Value::int(1), Value::int(2), Value::int(3)],
                vec![Value::str("a"), Value::str("b"), Value::str("a")],
            ],
            3,
        )
    }

    #[test]
    fn dense_access_and_rows() {
        let b = sample();
        assert_eq!(b.len(), 3);
        assert_eq!(b.arity(), 2);
        assert!(!b.is_empty());
        assert_eq!(b.value(1, 0), &Value::int(2));
        assert_eq!(b.row(2), vec![Value::int(3), Value::str("a")]);
        assert_eq!(b.gather(0, &[1]), vec![Value::str("a")]);
    }

    #[test]
    fn retain_composes_selections_without_copying() {
        let b = sample();
        let odd = b.retain(|i| i % 2 == 0); // physical rows 0 and 2
        assert_eq!(b.len(), 3, "retain does not mutate the source");
        assert_eq!(odd.len(), 2);
        assert_eq!(odd.row(1), vec![Value::int(3), Value::str("a")]);
        // A second retain composes through the existing selection.
        let last = odd.retain(|i| i == 1);
        assert_eq!(last.len(), 1);
        assert_eq!(last.value(0, 0), &Value::int(3));
    }

    #[test]
    fn project_permutes_handles() {
        let b = sample();
        let swapped = b.project(&[1, 0, 1]);
        assert_eq!(swapped.arity(), 3);
        assert_eq!(
            swapped.row(0),
            vec![Value::str("a"), Value::int(1), Value::str("a")]
        );
        // Projection after selection keeps the selection.
        let sel = b.retain(|i| i == 1).project(&[1]);
        assert_eq!(sel.len(), 1);
        assert_eq!(sel.value(0, 0), &Value::str("b"));
    }

    #[test]
    fn predicates_on_batches_and_pairs() {
        let b = Batch::from_dense(
            vec![
                vec![Value::int(1), Value::int(2)],
                vec![Value::int(1), Value::int(5)],
            ],
            2,
        );
        assert!(b.passes(0, &[Predicate::ColEqCol(0, 1)]));
        assert!(!b.passes(1, &[Predicate::ColEqCol(0, 1)]));
        assert!(b.passes(1, &[Predicate::ColEqConst(1, Value::int(5))]));

        // A concatenated row that is never built: column 0 from `left`, 1 from `right`.
        let left = Batch::singleton(vec![Value::int(7)]);
        let right = Batch::from_dense(vec![vec![Value::int(7), Value::int(8)]], 2);
        let joined = |j: usize| {
            let (left, right) = (&left, &right);
            move |col: usize| match col {
                0 => left.value(0, 0),
                _ => right.value(j, col - 1),
            }
        };
        assert!(passes_with(&[Predicate::ColEqCol(0, 1)], joined(0)));
        assert!(!passes_with(&[Predicate::ColEqCol(0, 1)], joined(1)));
    }

    #[test]
    fn into_rows_moves_unique_dense_batches() {
        let (rows, clones) = sample().into_rows();
        assert_eq!(clones, 0, "unshared dense columns transpose by move");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Value::int(1), Value::str("a")]);

        // A shared batch (exchange-style clone alive) must gather instead.
        let b = sample();
        let alias = b.clone();
        let (rows, clones) = b.into_rows();
        assert_eq!(rows.len(), 3);
        assert_eq!(clones, 6);
        drop(alias);

        // A selected batch gathers only the selected rows.
        let (rows, clones) = sample().retain(|i| i == 1).into_rows();
        assert_eq!(rows, vec![vec![Value::int(2), Value::str("b")]]);
        assert_eq!(clones, 2);
    }

    #[test]
    fn zero_column_batches_keep_their_length() {
        let unit = Batch::singleton(Vec::new());
        assert_eq!(unit.arity(), 0);
        assert_eq!(unit.len(), 1);
        let (rows, clones) = unit.into_rows();
        assert_eq!(rows, vec![Vec::<Value>::new()]);
        assert_eq!(clones, 0);

        let empty = Batch::from_rows(2, Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.arity(), 2);
    }

    #[test]
    fn origin_shard_survives_metadata_operations() {
        let tagged = sample().with_origin_shard(Some(3));
        assert_eq!(tagged.origin_shard(), Some(3));
        assert_eq!(tagged.retain(|i| i == 0).origin_shard(), Some(3));
        assert_eq!(tagged.project(&[1]).origin_shard(), Some(3));
        assert_eq!(
            tagged.clone().keep_physical(vec![0]).origin_shard(),
            Some(3)
        );
        // Freshly gathered batches are unrouted until a shard branch tags them.
        assert_eq!(sample().origin_shard(), None);
        assert_eq!(Batch::singleton(vec![Value::int(1)]).origin_shard(), None);
    }

    #[test]
    fn hash_then_compare_helpers() {
        let cols = vec![
            vec![Value::int(1), Value::int(1), Value::int(2)],
            vec![Value::str("x"), Value::str("x"), Value::str("x")],
        ];
        assert_eq!(hash_row_at(&cols, 0), hash_row_at(&cols, 1));
        assert!(rows_equal_at(&cols, 0, 1));
        assert!(!rows_equal_at(&cols, 0, 2));
        // Zero-column rows are all equal — the degenerate case the fetch dedup hits
        // when a projection drops every output position.
        let none: Vec<Vec<Value>> = Vec::new();
        assert!(rows_equal_at(&none, 0, 5));
        assert_eq!(hash_row_at(&none, 0), hash_row_at(&none, 5));
    }
}
