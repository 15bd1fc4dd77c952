//! The columnar batch: how rows move between streaming operators.
//!
//! A [`Batch`] stores its values column-wise, each column a shared [`Column`], plus an
//! optional *selection vector* naming the physical rows that are logically present. A
//! column either holds its values ([`Column::Values`]) or points into the store
//! ([`Column::Stored`]): one attribute of the tuples at a shared list of tuple offsets,
//! read where the relation keeps them. The layout makes the hot relational operators
//! manipulate *metadata* instead of values:
//!
//! * **dedup** keeps the columns untouched and writes a (possibly composed) selection
//!   vector of the fresh rows — zero value copies;
//! * **project** permutes/duplicates the column handles — zero value copies;
//! * **sharing** a batch clones `Arc`s — a refcount bump per column, never a row copy;
//! * **appending a constant** shares the column handles and the selection, and writes
//!   only the new column;
//! * **taking rows** of a stored column ([`Batch::take`], a keyed lookup's emission)
//!   writes tuple offsets, not values.
//!
//! What still clones a value: a state that must own it (δ's seen set and a keyed
//! lookup's memo, both [`RowTable`]s), a value column's [`Batch::take`], a constant
//! append, and the output table ([`Batch::into_rows`]), which owns its rows. A value
//! write is O(1) even for strings ([`bea_core::value::Value`] payloads are shared). The
//! executor counts every such clone in [`crate::stats::AccessStats::values_cloned`], so
//! the copy traffic of a plan is asserted, not eyeballed.
//!
//! The batch length is tracked explicitly (`stored`), so zero-column batches — unit
//! rows, as produced by `PlanOp::Unit` — still have a well-defined row count.
//!
//! Beside the batch lives [`RowTable`], the one structure operators *remember* rows in
//! (δ's seen set, the keys a keyed lookup has seen). Both hash rows with
//! [`bea_core::value::hash_row`] — the same function the store's indexes use — and
//! nothing in the engine hashes a row any other way.

use bea_core::error::{Error, Result};
use bea_core::plan::Predicate;
use bea_core::value::{hash_row, Row, Value};
use std::sync::Arc;

/// A relation's tuples where the store keeps them: its values flat, `arity` per tuple.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Tuples<'db> {
    pub(crate) values: &'db [Value],
    pub(crate) arity: usize,
}

impl<'db> Tuples<'db> {
    /// Where attribute `attr` of the tuple at `offset` lies in `values`.
    fn at(self, offset: u32, attr: usize) -> usize {
        offset as usize * self.arity + attr
    }

    /// Attribute `attr` of the tuple at `offset`.
    pub(crate) fn value(self, offset: u32, attr: usize) -> &'db Value {
        &self.values[self.at(offset, attr)]
    }
}

/// One shared column of a [`Batch`]; cloning it is a refcount bump.
#[derive(Debug, Clone)]
pub(crate) enum Column<'db> {
    /// Values the column holds.
    Values(Arc<Vec<Value>>),
    /// Attribute `attr` of `tuples` at `offsets`: row `p` is the tuple at `offsets[p]`.
    Stored {
        tuples: Tuples<'db>,
        attr: usize,
        offsets: Arc<Vec<u32>>,
    },
}

impl Column<'_> {
    /// The value at physical row `p`.
    #[inline]
    fn get(&self, p: usize) -> &Value {
        match self {
            Column::Values(values) => &values[p],
            Column::Stored {
                tuples,
                attr,
                offsets,
            } => tuples.value(offsets[p], *attr),
        }
    }
}

/// A columnar batch of rows; see the module docs for the layout.
///
/// The column list itself is a shared slice too, so `Batch::clone` — an emission's
/// slice, say — is purely refcount bumps: no allocation anywhere on the clone path.
#[derive(Debug, Clone, Default)]
pub(crate) struct Batch<'db> {
    columns: Arc<[Column<'db>]>,
    /// Physical rows stored in every column (the columns all have this length).
    stored: usize,
    /// Logical row `i` lives at physical position `selection[i]`; `None` = identity.
    selection: Option<Arc<Vec<u32>>>,
}

impl<'db> Batch<'db> {
    /// A batch over `columns` of `stored` physical rows each. `stored` is passed
    /// explicitly so zero-column (unit-row) batches keep their row count.
    pub(crate) fn new(columns: impl IntoIterator<Item = Column<'db>>, stored: usize) -> Self {
        Self {
            columns: columns.into_iter().collect(),
            stored,
            selection: None,
        }
    }

    /// A batch over freshly built value columns.
    #[cfg(test)]
    pub(crate) fn from_dense(columns: Vec<Vec<Value>>, stored: usize) -> Self {
        debug_assert!(columns.iter().all(|c| c.len() == stored));
        let columns = columns.into_iter().map(|c| Column::Values(Arc::new(c)));
        Self::new(columns, stored)
    }

    /// A batch holding exactly one row, taking ownership of its values (no clones). A
    /// one-value row becomes the batch's one column as it is.
    pub(crate) fn singleton(row: Row) -> Self {
        let columns = match row.len() {
            1 => Arc::from([Column::Values(Arc::new(row))]),
            _ => row
                .into_iter()
                .map(|v| Column::Values(Arc::new(vec![v])))
                .collect(),
        };
        Self {
            columns,
            stored: 1,
            selection: None,
        }
    }

    /// Transpose owned rows of the given arity into a dense batch (moves the values).
    #[cfg(test)]
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
        self.columns[col].get(self.physical(i))
    }

    /// Hint the CPU to pull the value at logical row `i`, column `col`, into cache, if
    /// the row exists and the column points into the store (a value column is written
    /// by the executor, and warm).
    pub(crate) fn hint(&self, i: usize, col: usize) {
        if i >= self.len() {
            return;
        }
        if let Column::Stored {
            tuples,
            attr,
            offsets,
        } = &self.columns[col]
        {
            let at = tuples.at(offsets[self.physical(i)], *attr);
            bea_storage::prefetch(tuples.values, at);
        }
    }

    /// Gather logical row `i` as an owned row (`arity` O(1) value clones).
    #[cfg(test)]
    pub(crate) fn row(&self, i: usize) -> Row {
        (0..self.arity())
            .map(|c| self.value(i, c).clone())
            .collect()
    }

    /// Hash logical row `i` across all columns — the zero-copy half of
    /// hash-then-compare membership tests (dedup): no row is cloned just
    /// to ask whether it was seen before.
    pub(crate) fn hash_row(&self, i: usize) -> u64 {
        hash_row((0..self.arity()).map(|c| self.value(i, c)))
    }

    /// Append to `out` the tuple offsets of column `col` at every logical row, if the
    /// column points into the store at attribute `attr` of `tuples`: true then, and
    /// false, `out` untouched, for any other column.
    pub(crate) fn offsets_of(
        &self,
        col: usize,
        tuples: Tuples<'_>,
        attr: usize,
        out: &mut Vec<u32>,
    ) -> bool {
        match &self.columns[col] {
            Column::Stored {
                tuples: held,
                attr: at,
                offsets,
            } if *at == attr && std::ptr::eq(held.values, tuples.values) => {
                out.extend((0..self.len()).map(|i| offsets[self.physical(i)]));
                true
            }
            _ => false,
        }
    }

    /// Column `col` at the logical rows `rows`, in order: a stored column as the
    /// tuple offsets of those rows — zero value copies —, a value column as the values,
    /// cloned into the empty buffer `gather` gives. Returns the column and the values
    /// cloned.
    pub(crate) fn take(
        &self,
        col: usize,
        rows: &[u32],
        gather: impl FnOnce() -> Vec<Value>,
    ) -> (Column<'db>, u64) {
        let physical = rows.iter().map(|&i| self.physical(i as usize));
        match &self.columns[col] {
            Column::Stored {
                tuples,
                attr,
                offsets,
            } => {
                let column = Column::Stored {
                    tuples: *tuples,
                    attr: *attr,
                    offsets: Arc::new(physical.map(|p| offsets[p]).collect()),
                };
                (column, 0)
            }
            Column::Values(values) => {
                let mut gather = gather();
                gather.extend(physical.map(|p| values[p].clone()));
                (Column::Values(Arc::new(gather)), rows.len() as u64)
            }
        }
    }

    /// Restrict the batch to the logical rows `keep` says yes to: the columns are
    /// shared untouched, only a selection vector is written. Zero value copies.
    pub(crate) fn retain(&self, mut keep: impl FnMut(usize) -> bool) -> Self {
        let selection: Vec<u32> = (0..self.len())
            .filter(|&i| keep(i))
            .map(|i| self.physical(i) as u32)
            .collect();
        Batch {
            columns: Arc::clone(&self.columns),
            stored: self.stored,
            selection: Some(Arc::new(selection)),
        }
    }

    /// The logical rows `rows`, in order: [`Batch::retain`] for a contiguous range,
    /// without a pass over the rows outside it. Zero value copies.
    pub(crate) fn slice(&self, rows: std::ops::Range<usize>) -> Self {
        let selection = rows.map(|i| self.physical(i) as u32).collect();
        Batch {
            columns: Arc::clone(&self.columns),
            stored: self.stored,
            selection: Some(Arc::new(selection)),
        }
    }

    /// Project onto `cols` (in order, duplicates allowed): permutes the shared column
    /// handles. Zero value copies.
    /// Projecting onto every column in order is the batch itself.
    pub(crate) fn project(&self, cols: &[usize]) -> Self {
        if cols.len() == self.arity() && cols.iter().enumerate().all(|(k, &c)| k == c) {
            return self.clone();
        }
        Batch {
            columns: cols.iter().map(|&c| self.columns[c].clone()).collect(),
            stored: self.stored,
            selection: self.selection.clone(),
        }
    }

    /// The batch with `value` appended to every row as one more column, taken from
    /// `column` (an empty buffer): the column handles and the selection are shared, and
    /// only the new column is written — `value` cloned once per logical row, and a
    /// placeholder at each physical row the selection skips, which no reader reaches.
    pub(crate) fn append_const(&self, value: &Value, mut column: Vec<Value>) -> Self {
        match &self.selection {
            None => column.resize(self.stored, value.clone()),
            Some(selection) => {
                column.resize(self.stored, Value::Bool(false));
                for &p in selection.iter() {
                    column[p as usize] = value.clone();
                }
            }
        }
        let appended = Column::Values(Arc::new(column));
        let columns = self.columns.iter().cloned().chain([appended]);
        Batch {
            columns: columns.collect(),
            stored: self.stored,
            selection: self.selection.clone(),
        }
    }

    /// Turn the batch into owned rows, returning the number of value clones this
    /// performed. A value column no one else shares, of a batch without a selection,
    /// is transposed by *move* (zero clones) and its emptied buffer handed to `spare`;
    /// every other column — shared, selected, or pointing into the store — is cloned
    /// out.
    pub(crate) fn into_rows(mut self, mut spare: impl FnMut(Vec<Value>)) -> (Vec<Row>, u64) {
        let (len, arity) = (self.len(), self.arity());
        let mut rows: Vec<Row> = (0..len).map(|_| Vec::with_capacity(arity)).collect();
        let mut clones = 0;
        for c in 0..arity {
            if self.selection.is_none() {
                let column = Arc::get_mut(&mut self.columns).map(|columns| &mut columns[c]);
                if let Some(Column::Values(values)) = column {
                    if let Some(values) = Arc::get_mut(values) {
                        for (row, value) in rows.iter_mut().zip(values.drain(..)) {
                            row.push(value);
                        }
                        spare(std::mem::take(values));
                        continue;
                    }
                }
            }
            for (i, row) in rows.iter_mut().enumerate() {
                row.push(self.value(i, c).clone());
            }
            clones += len as u64;
        }
        (rows, clones)
    }
}

/// Keep the pairs `(sources[k], fetched[k])` — a row of `batch` and a tuple of
/// `tuples`, whose column `c` is `batch`'s below `batch.arity()` and then the tuple's
/// attribute `positions[c − batch.arity()]` — on which every predicate of `residual`
/// holds: one pass per predicate, compacting both lists in place.
pub(crate) fn retain_pairs(
    residual: &[Predicate],
    batch: &Batch<'_>,
    tuples: Tuples<'_>,
    positions: &[usize],
    sources: &mut Vec<u32>,
    fetched: &mut Vec<u32>,
) {
    let read = |c: usize, i: u32, t: u32| match c.checked_sub(batch.arity()) {
        None => batch.value(i as usize, c),
        Some(c) => tuples.value(t, positions[c]),
    };
    for predicate in residual {
        let mut kept = 0;
        for k in 0..fetched.len() {
            let (i, t) = (sources[k], fetched[k]);
            let keep = match predicate {
                Predicate::ColEqCol(a, b) => read(*a, i, t) == read(*b, i, t),
                Predicate::ColEqConst(a, value) => read(*a, i, t) == value,
            };
            if keep {
                (sources[kept], fetched[kept]) = (i, t);
                kept += 1;
            }
        }
        sources.truncate(kept);
        fetched.truncate(kept);
    }
}

/// Marks an unoccupied [`RowTable`] slot; never a position (see [`position_bound`]).
const EMPTY: u32 = u32::MAX;

/// `rows` as the exclusive bound of 32-bit row positions. Tables store positions as `u32` with [`EMPTY`] as the free marker; an `owner` asked to hold more
/// rows than that fails instead of aliasing a slot.
pub(crate) fn position_bound(owner: &str, rows: usize) -> Result<u32> {
    match u32::try_from(rows) {
        Ok(bound) if bound < EMPTY => Ok(bound),
        _ => Err(Error::invalid(format!(
            "{owner} would hold {rows} rows, but row positions are 32-bit \
             (at most {} rows per operator)",
            EMPTY - 1
        ))),
    }
}

/// A flat table of distinct rows: what δ has seen, the keys a keyed lookup has seen. A
/// row's *position* is its insertion rank, and rows are never removed, so callers hang
/// their own per-row data (a key's postings) off plain vectors indexed by it.
///
/// Layout: the rows column-wise in `columns` (pooled buffers, handed in by the owner
/// and handed back through [`RowTable::release`]), each row's hash in `hashes`, and an
/// open-addressing `slots` table (linear probing, power-of-two size, at most half
/// full) from hash to position. Membership is hash-then-compare **in place** against a
/// row the caller describes by accessor — `|c| batch.value(i, c)` — so asking clones
/// nothing, only a fresh row's values are cloned in, and once the vectors have grown
/// no call allocates: growth is by doubling, O(log n) allocations for n rows.
///
/// The caller supplies the hash, and every caller supplies [`hash_row`] of the row:
/// rows are data the operator loaded and constants of the running query, a bad
/// distribution only lengthens a slot walk, and every hit is confirmed by comparing
/// values — the argument `bea_storage`'s index makes for the same function.
#[derive(Debug)]
pub(crate) struct RowTable {
    /// Names the owning operator when [`position_bound`] refuses a row.
    owner: &'static str,
    columns: Vec<Vec<Value>>,
    /// Per position. Its length is the row count (a zero-column table has no column to
    /// ask); re-slotting on growth reads it instead of re-hashing the rows.
    hashes: Vec<u64>,
    slots: Vec<u32>,
}

impl RowTable {
    /// The smallest slot table: skips the first few doublings of a growing table.
    pub(crate) const MIN_SLOTS: usize = 16;

    /// An empty table of `columns.len()`-ary rows over the given (cleared) buffers.
    pub(crate) fn new(owner: &'static str, columns: Vec<Vec<Value>>) -> Self {
        debug_assert!(columns.iter().all(Vec::is_empty));
        Self {
            owner,
            columns,
            hashes: Vec::new(),
            slots: Vec::new(),
        }
    }

    /// Number of rows held.
    pub(crate) fn len(&self) -> usize {
        self.hashes.len()
    }

    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Column `c` of the row at `position`.
    pub(crate) fn value(&self, position: u32, c: usize) -> &Value {
        &self.columns[c][position as usize]
    }

    /// Walk the slots from `hash`'s home: the position of the first row `is_row`
    /// accepts, or else the free slot that ends the walk (the table is at most half
    /// full, so there is one).
    fn walk(&self, hash: u64, is_row: impl Fn(u32) -> bool) -> std::result::Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = hash as usize & mask;
        loop {
            match self.slots[slot] {
                EMPTY => return Err(slot),
                position if self.hashes[position as usize] == hash && is_row(position) => {
                    return Ok(position)
                }
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Does the row at `position` equal the row `row(c)` describes?
    fn holds<'a>(&self, position: u32, row: &impl Fn(usize) -> &'a Value) -> bool {
        let mut columns = self.columns.iter().enumerate();
        columns.all(|(c, column)| &column[position as usize] == row(c))
    }

    /// The position of the row `row(c)` describes, `hash` being its [`hash_row`].
    /// Clones nothing.
    #[cfg(test)]
    pub(crate) fn find<'a>(&self, hash: u64, row: impl Fn(usize) -> &'a Value) -> Option<u32> {
        if self.slots.is_empty() {
            return None;
        }
        self.walk(hash, |position| self.holds(position, &row)).ok()
    }

    /// Insert the row `row(c)` describes unless it is present: its position, and
    /// whether it was fresh — the only case that clones (one O(1) clone per column).
    pub(crate) fn insert<'a>(
        &mut self,
        hash: u64,
        row: impl Fn(usize) -> &'a Value,
    ) -> Result<(u32, bool)> {
        self.reserve(1)?;
        match self.walk(hash, |held| self.holds(held, &row)) {
            Ok(held) => Ok((held, false)),
            Err(slot) => {
                let values = (0..self.columns.len()).map(|c| row(c).clone());
                Ok((self.place(slot, hash, values), true))
            }
        }
    }

    /// Put a row at free slot `slot` (room is reserved), at the next position. Returns
    /// the position.
    fn place(&mut self, slot: usize, hash: u64, row: impl IntoIterator<Item = Value>) -> u32 {
        let mut row = row.into_iter();
        self.hashes.push(hash);
        for column in &mut self.columns {
            column.push(row.next().expect("a row has one value per column"));
        }
        debug_assert!(row.next().is_none(), "a row has one value per column");
        let position = (self.hashes.len() - 1) as u32;
        self.slots[slot] = position;
        position
    }

    /// Make room for `additional` more rows: slots stay at most half full, columns
    /// grow once instead of per row. Fails, changing nothing, if the table would
    /// outgrow 32-bit positions.
    pub(crate) fn reserve(&mut self, additional: usize) -> Result<()> {
        let rows = self.len().saturating_add(additional);
        position_bound(self.owner, rows)?;
        if rows * 2 > self.slots.len() {
            let size = (rows * 2).next_power_of_two().max(Self::MIN_SLOTS);
            // Re-slot the positions the old slots held.
            let old = std::mem::replace(&mut self.slots, vec![EMPTY; size]);
            for position in old.into_iter().filter(|&position| position != EMPTY) {
                let hash = self.hashes[position as usize];
                let slot = self.walk(hash, |_| false).expect_err("no row is accepted");
                self.slots[slot] = position;
            }
            self.hashes.reserve(additional);
            for column in &mut self.columns {
                column.reserve(additional);
            }
        }
        Ok(())
    }

    /// Forget every row, keeping the capacity of every vector.
    pub(crate) fn clear(&mut self) {
        self.columns.iter_mut().for_each(Vec::clear);
        self.hashes.clear();
        self.slots.fill(EMPTY);
    }

    /// Forget every row and hand the column buffers back (for the owner's pool); the
    /// table is left zero-column and must not be used for rows again.
    pub(crate) fn release(&mut self) -> Vec<Vec<Value>> {
        self.clear();
        std::mem::take(&mut self.columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Batch<'static> {
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
        // Taking rows of a value column clones them, in the order asked.
        let (taken, clones) = b.retain(|i| i != 0).take(1, &[1, 0, 1], Vec::new);
        assert_eq!(clones, 3);
        let taken = Batch::new([taken], 3);
        assert_eq!(taken.row(0), [Value::str("a")]);
        assert_eq!(taken.row(1), [Value::str("b")]);
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
        // Source rows (x, y) = (1, 1), (2, 5), and tuples (a, b) = (3, 1), (5, 2) flat in
        // `values`.
        let b = Batch::from_dense(
            vec![
                vec![Value::int(1), Value::int(2)],
                vec![Value::int(1), Value::int(5)],
            ],
            2,
        );
        let values = [3, 1, 5, 2].map(Value::int);
        let tuples = Tuples {
            values: &values,
            arity: 2,
        };
        // Every source row paired with both tuples: pair rows (x, y, b) — the fetched
        // column reads attribute 1 — none of them built.
        let pairs = || (vec![0, 0, 1, 1], vec![0, 1, 0, 1]);
        let kept = |predicate: Predicate| {
            let (mut sources, mut fetched) = pairs();
            retain_pairs(&[predicate], &b, tuples, &[1], &mut sources, &mut fetched);
            sources.into_iter().zip(fetched).collect::<Vec<_>>()
        };
        assert_eq!(kept(Predicate::ColEqCol(0, 1)), [(0, 0), (0, 1)], "x = y");
        assert_eq!(kept(Predicate::ColEqCol(1, 2)), [(0, 0)], "y = b");
        assert_eq!(kept(Predicate::ColEqCol(0, 2)), [(0, 0), (1, 1)], "x = b");
        assert_eq!(
            kept(Predicate::ColEqConst(2, Value::int(2))),
            [(0, 1), (1, 1)],
            "b = 2"
        );
        assert_eq!(kept(Predicate::ColEqConst(0, Value::int(9))), [], "x = 9");
        // Passes compose: one predicate after the other keeps what both keep.
        let (mut sources, mut fetched) = pairs();
        let both = [
            Predicate::ColEqCol(0, 1),
            Predicate::ColEqConst(2, Value::int(2)),
        ];
        retain_pairs(&both, &b, tuples, &[1], &mut sources, &mut fetched);
        assert_eq!((sources, fetched), (vec![0], vec![1]));
    }

    #[test]
    fn into_rows_moves_unique_dense_batches() {
        let (rows, clones) = sample().into_rows(drop);
        assert_eq!(clones, 0, "unshared dense columns transpose by move");
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0], vec![Value::int(1), Value::str("a")]);

        // A shared batch (a clone alive) must gather instead.
        let b = sample();
        let alias = b.clone();
        let (rows, clones) = b.into_rows(drop);
        assert_eq!(rows.len(), 3);
        assert_eq!(clones, 6);
        drop(alias);

        // A selected batch gathers only the selected rows.
        let (rows, clones) = sample().retain(|i| i == 1).into_rows(drop);
        assert_eq!(rows, vec![vec![Value::int(2), Value::str("b")]]);
        assert_eq!(clones, 2);
    }

    #[test]
    fn appending_a_constant_shares_the_columns_and_keeps_the_selection() {
        let b = sample();
        let seven = Value::int(7);
        let dense = b.append_const(&seven, Vec::new());
        assert_eq!(dense.arity(), 3);
        assert_eq!(
            dense.row(2),
            vec![Value::int(3), Value::str("a"), Value::int(7)]
        );
        assert!(
            matches!((&dense.columns[0], &b.columns[0]), (Column::Values(x), Column::Values(y)) if Arc::ptr_eq(x, y)),
            "shared, not copied"
        );
        let selected = b.retain(|i| i != 1).append_const(&seven, Vec::new());
        assert_eq!(selected.len(), 2);
        assert_eq!(
            selected.row(1),
            vec![Value::int(3), Value::str("a"), Value::int(7)]
        );
        let unit = Batch::singleton(Vec::new()).append_const(&seven, Vec::new());
        assert_eq!((unit.len(), unit.row(0)), (1, vec![seven]));
    }

    #[test]
    fn zero_column_batches_keep_their_length() {
        let unit = Batch::singleton(Vec::new());
        assert_eq!(unit.arity(), 0);
        assert_eq!(unit.len(), 1);
        let (rows, clones) = unit.into_rows(drop);
        assert_eq!(rows, vec![Vec::<Value>::new()]);
        assert_eq!(clones, 0);

        let empty = Batch::from_rows(2, Vec::new());
        assert!(empty.is_empty());
        assert_eq!(empty.arity(), 2);
    }

    /// A seeded xorshift64 stream (the engine's unit tests have no `rand`).
    fn xorshift(seed: u64) -> impl FnMut() -> u64 {
        let mut x = seed | 1;
        move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        }
    }

    /// A random value from a domain of `domain` integers plus the four look-alikes.
    fn random_value(next: &mut impl FnMut() -> u64, domain: u64) -> Value {
        match next() % (domain + 4) {
            0 => Value::int(1),
            1 => Value::Bool(true),
            2 => Value::str("1"),
            3 => Value::Labelled(1),
            n => Value::int(n as i64),
        }
    }

    fn table(arity: usize) -> RowTable {
        RowTable::new("a test", vec![Vec::new(); arity])
    }

    fn insert(table: &mut RowTable, row: &[Value]) -> (u32, bool) {
        table.insert(hash_row(row), |c| &row[c]).unwrap()
    }

    fn held(table: &RowTable, position: u32, arity: usize) -> Row {
        (0..arity)
            .map(|c| table.value(position, c).clone())
            .collect()
    }

    #[test]
    fn row_table_agrees_with_a_map_oracle_through_growth_and_reuse() {
        use std::collections::BTreeMap;
        for arity in 0..=4usize {
            let mut next = xorshift(0x7AB1E ^ arity as u64);
            let mut table = table(arity);
            // Two rounds over one table: `clear` must forget everything and reuse.
            for round in 0..2 {
                // Ordered, so the oracle shares no hashing with the table it judges.
                let mut oracle: BTreeMap<Row, u32> = BTreeMap::new();
                // Mostly repeats first, then mostly fresh rows.
                let domain = [6, 5_000][round];
                for _ in 0..10_000 {
                    let row: Row = (0..arity)
                        .map(|_| random_value(&mut next, domain))
                        .collect();
                    let expected = oracle.len() as u32;
                    match oracle.get(&row) {
                        Some(&position) => {
                            assert_eq!(table.find(hash_row(&row), |c| &row[c]), Some(position));
                            assert_eq!(insert(&mut table, &row), (position, false));
                        }
                        None => {
                            assert_eq!(table.find(hash_row(&row), |c| &row[c]), None);
                            assert_eq!(insert(&mut table, &row), (expected, true));
                            oracle.insert(row, expected);
                        }
                    }
                    assert_eq!(table.len(), oracle.len());
                }
                // Every position is still where it was handed out, however often the
                // slots were re-built in between, and holds the row it was given.
                assert!(
                    table.slots.len() >= 2 * table.len() && table.slots.len().is_power_of_two()
                );
                assert!(
                    arity == 0 || round == 0 || oracle.len() > 4_000,
                    "several rehashes"
                );
                for (row, &position) in &oracle {
                    assert_eq!(table.find(hash_row(row), |c| &row[c]), Some(position));
                    assert_eq!(&held(&table, position, arity), row);
                }
                table.clear();
                assert!(table.is_empty());
                for row in oracle.keys() {
                    assert_eq!(table.find(hash_row(row), |c| &row[c]), None);
                }
            }
        }
    }

    #[test]
    fn row_table_keeps_first_occurrence_order_like_a_set_oracle() {
        use std::collections::BTreeSet;
        let mut next = xorshift(0x5E7);
        let mut table = table(2);
        let mut oracle: BTreeSet<Row> = BTreeSet::new();
        let mut order: Vec<Row> = Vec::new();
        for _ in 0..10_000 {
            let row = vec![random_value(&mut next, 30), random_value(&mut next, 30)];
            let fresh = oracle.insert(row.clone());
            assert_eq!(insert(&mut table, &row).1, fresh);
            if fresh {
                order.push(row);
            }
        }
        let positions: Vec<Row> = (0..table.len() as u32)
            .map(|p| held(&table, p, 2))
            .collect();
        assert_eq!(positions, order, "positions are insertion ranks");
    }

    #[test]
    fn row_table_look_alikes_never_alias() {
        let alikes = [
            Value::int(1),
            Value::Bool(true),
            Value::str("1"),
            Value::Labelled(1),
        ];
        let mut table = table(1);
        for (position, value) in (0..).zip(&alikes) {
            assert_eq!(
                insert(&mut table, std::slice::from_ref(value)),
                (position, true)
            );
        }
        for (position, value) in (0..).zip(&alikes) {
            assert_eq!(
                insert(&mut table, std::slice::from_ref(value)),
                (position, false)
            );
        }
        for absent in [Value::int(0), Value::Bool(false), Value::str("11")] {
            assert_eq!(table.find(hash_row([&absent]), |_| &absent), None);
        }
    }

    #[test]
    fn row_table_survives_every_probe_landing_on_one_slot_run() {
        // One hash for every row: the walks degenerate to a linear scan of one run,
        // and equality alone decides — through growth and `clear`.
        const HASH: u64 = 0xDEAD_BEEF;
        let rows: Vec<Row> = (0..300)
            .map(|i| vec![Value::int(i), Value::str("x")])
            .collect();
        let mut table = table(2);
        for round in 0..2 {
            for (position, row) in (0..).zip(&rows) {
                assert_eq!(table.find(HASH, |c| &row[c]), None);
                assert_eq!(table.insert(HASH, |c| &row[c]).unwrap(), (position, true));
            }
            for (position, row) in (0..).zip(&rows) {
                assert_eq!(
                    table.find(HASH, |c| &row[c]),
                    Some(position),
                    "round {round}"
                );
                assert_eq!(table.insert(HASH, |c| &row[c]).unwrap(), (position, false));
            }
            let absent = [Value::int(-1), Value::str("x")];
            assert_eq!(table.find(HASH, |c| &absent[c]), None);
            table.clear();
        }
    }

    #[test]
    fn row_table_release_hands_back_cleared_columns() {
        let mut table = RowTable::new("a test", vec![Vec::with_capacity(8), Vec::new()]);
        insert(&mut table, &[Value::int(1), Value::int(2)]);
        let columns = table.release();
        assert_eq!(columns.len(), 2);
        assert!(columns.iter().all(Vec::is_empty));
        assert!(columns[0].capacity() >= 8, "capacity goes back to the pool");
        assert!(table.is_empty() && table.release().is_empty());
    }

    #[test]
    fn positions_beyond_32_bits_are_refused_not_aliased() {
        assert_eq!(position_bound("δ", 0).unwrap(), 0);
        assert_eq!(position_bound("δ", EMPTY as usize - 1).unwrap(), EMPTY - 1);
        // `EMPTY` itself is the free-slot marker, so it is no position either.
        for too_many in [EMPTY as usize, EMPTY as usize + 1] {
            let error = position_bound("a duplicate elimination", too_many)
                .unwrap_err()
                .to_string();
            assert!(error.contains("a duplicate elimination"), "{error}");
            assert!(error.contains(&too_many.to_string()), "{error}");
        }
        // A table refuses the reservation up front and is left untouched.
        let mut table = table(1);
        insert(&mut table, &[Value::int(7)]);
        let error = table.reserve(EMPTY as usize).unwrap_err().to_string();
        assert!(error.contains("a test"), "{error}");
        assert_eq!(insert(&mut table, &[Value::int(7)]), (0, false));
    }

    #[test]
    fn every_row_hash_in_the_engine_is_the_shared_one() {
        let batch = sample().retain(|i| i != 0);
        let row = batch.row(1);
        assert_eq!(row, vec![Value::int(3), Value::str("a")]);
        assert_eq!(batch.hash_row(1), hash_row(&row));
        let key = [batch.value(1, 1).clone(), batch.value(1, 0).clone()];
        assert_eq!(key, [Value::str("a"), Value::int(3)]);
        // A table finds a gathered key inserted under its `hash_row`.
        let (hash, mut keys) = (hash_row(&key), table(2));
        assert_eq!(keys.find(hash, |c| &key[c]), None);
        assert_eq!(keys.insert(hash, |c| &key[c]).unwrap(), (0, true));
        assert_eq!(keys.find(hash, |c| &key[c]), Some(0));
    }
}
