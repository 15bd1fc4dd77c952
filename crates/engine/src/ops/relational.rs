//! Streaming relational operators: project, dedup, union, constant append.
//!
//! Project is pure batch metadata (a column-handle permutation — zero value copies).
//! Dedup emits its input batches restricted by a selection; only its membership set
//! holds (O(1)-clone) rows. The constant append is the one gather here: it writes each
//! row, and the constant beside it, into fresh output columns, and holds no row.

use super::batch::{Batch, RowTable};
use super::{BoxOp, Operator, SharedState};
use bea_core::error::Result;
use bea_core::value::Value;

/// Streaming projection (no dedup — lowering inserts a [`DedupOp`] where needed):
/// permutes the shared column handles. No values move.
pub(crate) struct ProjectOp<'db> {
    input: BoxOp<'db>,
    cols: &'db [usize],
}

impl<'db> ProjectOp<'db> {
    pub(crate) fn new(input: BoxOp<'db>, cols: &'db [usize]) -> Self {
        Self { input, cols }
    }
}

impl Operator for ProjectOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        Ok(Some(batch.project(self.cols)))
    }
}

/// The membership set of [`DedupOp`] (rows seen): a [`RowTable`] over columns drawn
/// from the thread's pool.
fn row_set(owner: &'static str, arity: usize, state: &SharedState) -> RowTable {
    let mut state = state.borrow_mut();
    RowTable::new(owner, (0..arity).map(|_| state.pool.get_values()).collect())
}

/// Insert `batch`'s logical row `i` into `set` if absent; returns whether it was fresh
/// (the only case that clones the row — `arity` O(1) value clones). The caller has
/// reserved room for the whole batch, which is where an overflowing set is refused.
fn insert_row(set: &mut RowTable, batch: &Batch, i: usize) -> bool {
    let inserted = set.insert(batch.hash_row(i), |c| batch.value(i, c));
    inserted.expect("room for the whole batch is reserved").1
}

/// Charge the `fresh` rows of `batch` just inserted into a set: clones and residency.
fn charge_fresh_rows(state: &SharedState, batch: &Batch, fresh: usize) {
    let mut state = state.borrow_mut();
    state.stats.values_cloned += (fresh * batch.arity()) as u64;
    state.acquire(fresh as u64);
}

/// Release `set`'s rows from the residency ledger and return its columns to the pool.
fn retire_row_set(set: &mut RowTable, state: &SharedState) {
    let mut state = state.borrow_mut();
    state.release(set.len() as u64);
    for column in set.release() {
        state.pool.put_values(column);
    }
}

/// Streaming duplicate elimination. The set of rows seen so far is durable state,
/// released when the input is exhausted (or on drop); fresh rows pass through as a
/// selection over the input batch, in first-occurrence order — the emitted values are
/// never copied, and only the fresh set entries are cloned (duplicates are detected
/// hash-then-compare in place, with no clone and no allocation).
pub(crate) struct DedupOp<'db> {
    input: BoxOp<'db>,
    state: SharedState,
    seen: RowTable,
    done: bool,
}

impl<'db> DedupOp<'db> {
    /// `arity` is the input's arity from the plan.
    pub(crate) fn new(input: BoxOp<'db>, arity: usize, state: SharedState) -> Self {
        Self {
            input,
            seen: row_set("a duplicate elimination", arity, &state),
            state,
            done: false,
        }
    }
}

impl Operator for DedupOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        let Some(batch) = self.input.next_batch()? else {
            self.done = true;
            retire_row_set(&mut self.seen, &self.state);
            return Ok(None);
        };
        let before = self.seen.len();
        self.seen.reserve(batch.len())?;
        let out = batch.retain(|i| insert_row(&mut self.seen, &batch, i));
        charge_fresh_rows(&self.state, &batch, self.seen.len() - before);
        Ok(Some(out))
    }
}

impl Drop for DedupOp<'_> {
    fn drop(&mut self) {
        retire_row_set(&mut self.seen, &self.state);
    }
}

/// Streaming concatenation: drains the left input, then the right.
pub(crate) struct UnionOp<'db> {
    left: Option<BoxOp<'db>>,
    right: Option<BoxOp<'db>>,
}

impl<'db> UnionOp<'db> {
    pub(crate) fn new(left: BoxOp<'db>, right: BoxOp<'db>) -> Self {
        Self {
            left: Some(left),
            right: Some(right),
        }
    }
}

impl Operator for UnionOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if let Some(left) = self.left.as_mut() {
            if let Some(batch) = left.next_batch()? {
                return Ok(Some(batch));
            }
            self.left = None;
        }
        if let Some(right) = self.right.as_mut() {
            if let Some(batch) = right.next_batch()? {
                return Ok(Some(batch));
            }
            self.right = None;
        }
        Ok(None)
    }
}

/// The product `input × {value}`: each input batch's rows gathered into pooled columns
/// with `value` appended, one O(1) clone per output value. It holds no row between
/// batches, so it has nothing to release.
pub(crate) struct AppendConstOp<'db> {
    input: BoxOp<'db>,
    value: Value,
    state: SharedState,
}

impl<'db> AppendConstOp<'db> {
    pub(crate) fn new(input: BoxOp<'db>, value: Value, state: SharedState) -> Self {
        Self {
            input,
            value,
            state,
        }
    }
}

impl Operator for AppendConstOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        let (rows, arity) = (batch.len(), batch.arity());
        let mut state = self.state.borrow_mut();
        let mut out: Vec<Vec<Value>> = (0..=arity).map(|_| state.pool.get_values()).collect();
        let (left, appended) = out.split_at_mut(arity);
        for i in 0..rows {
            batch.append_row_to(i, left);
        }
        appended[0].resize(rows, self.value.clone());
        state.stats.values_cloned += (rows * (arity + 1)) as u64;
        Ok(Some(Batch::from_dense(out, rows)))
    }
}

#[cfg(test)]
mod tests {
    use super::super::fetch::tests::{drain, ints, Harness, Script};
    use super::*;
    use bea_core::error::Error;

    fn script(batches: &[&[&[i64]]]) -> BoxOp<'static> {
        Box::new(Script(batches.iter().map(|rows| Ok(ints(rows))).collect()))
    }

    #[test]
    fn dedup_emits_first_occurrences_in_input_order_across_batches() {
        let h = Harness::new();
        let input = script(&[
            &[&[3, 1], &[1, 1], &[3, 1], &[2, 9]],
            &[&[1, 1], &[0, 0], &[2, 9], &[3, 2]],
            &[&[3, 2], &[0, 0]],
        ]);
        let mut op = DedupOp::new(input, 2, h.state.clone());
        assert_eq!(
            drain(&mut op),
            [
                vec![vec![3, 1], vec![1, 1], vec![2, 9]],
                vec![vec![0, 0], vec![3, 2]],
                vec![],
            ]
        );
        // Five fresh rows of two values entered the set; it is gone again.
        assert_eq!(h.stats().values_cloned, 10);
        assert_eq!((h.ledger.peak(), h.ledger.resident()), (5, 0));
    }

    #[test]
    fn membership_sets_are_released_when_dropped_mid_stream_or_on_error() {
        let h = Harness::new();
        let mut op = DedupOp::new(script(&[&[&[1], &[2]], &[&[3]]]), 1, h.state.clone());
        assert_eq!(op.next_batch().unwrap().unwrap().len(), 2);
        assert_eq!(h.ledger.resident(), 2);
        drop(op);
        assert_eq!(h.ledger.resident(), 0);
        assert!(
            h.state.borrow().pool.pooled() > 0,
            "the set's column is pooled again"
        );

        let h = Harness::new();
        let input = Box::new(Script(
            [Ok(ints(&[&[1], &[2]])), Err(Error::invalid("input failed"))].into(),
        ));
        let mut op = DedupOp::new(input, 1, h.state.clone());
        assert_eq!(op.next_batch().unwrap().unwrap().len(), 2);
        assert!(op.next_batch().is_err());
        drop(op);
        assert_eq!(h.ledger.resident(), 0);
    }

    #[test]
    fn a_constant_append_gathers_every_row_with_the_constant() {
        // Two batches, and an empty one of arity 2: each comes out with 7 appended, the
        // empty one as an empty batch of arity 3.
        let h = Harness::new();
        let rows: Vec<[i64; 2]> = (0..400).map(|i| [i, -i]).collect();
        let rows: Vec<&[i64]> = rows.iter().map(|row| &row[..]).collect();
        let (first, second) = rows.split_at(300);
        let batches = [ints(first), ints(second), Batch::from_rows(2, Vec::new())];
        let input = Box::new(Script(batches.into_iter().map(Ok).collect()));
        let mut op = AppendConstOp::new(input, Value::int(7), h.state.clone());
        let out: Vec<Batch> = std::iter::from_fn(|| op.next_batch().unwrap()).collect();
        let lens: Vec<usize> = out.iter().map(Batch::len).collect();
        assert_eq!(lens, [300, 100, 0]);
        assert!(out.iter().all(|batch| batch.arity() == 3));
        let row = [300, -300, 7].map(Value::int);
        assert_eq!(out[1].row(0), row);
        assert_eq!(
            h.stats().values_cloned,
            400 * 3,
            "one clone per output value"
        );
        assert_eq!(h.ledger.peak(), 0, "no row is held");
        assert!(
            op.next_batch().unwrap().is_none(),
            "exhausted stays exhausted"
        );
    }

    #[test]
    fn a_constant_append_releases_its_input_when_dropped_mid_stream_or_on_error() {
        // Over a δ dropped after its first batch: the δ's set is released and pooled.
        let h = Harness::new();
        let dedup = DedupOp::new(script(&[&[&[1], &[2]], &[&[3]]]), 1, h.state.clone());
        let mut op = AppendConstOp::new(Box::new(dedup), Value::int(7), h.state.clone());
        assert_eq!(op.next_batch().unwrap().unwrap().len(), 2);
        assert_eq!(h.ledger.resident(), 2, "the δ below holds its rows");
        drop(op);
        assert_eq!(h.ledger.resident(), 0);
        assert!(
            h.state.borrow().pool.pooled() > 0,
            "its columns are pooled again"
        );

        // An input that fails fails the append, and nothing is left resident.
        let h = Harness::new();
        let input = Box::new(Script(
            [Ok(ints(&[&[1], &[2]])), Err(Error::invalid("input failed"))].into(),
        ));
        let mut op = AppendConstOp::new(input, Value::int(7), h.state.clone());
        assert_eq!(op.next_batch().unwrap().unwrap().len(), 2);
        assert!(op.next_batch().is_err());
        drop(op);
        assert_eq!(h.ledger.resident(), 0);
    }
}
