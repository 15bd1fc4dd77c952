//! Streaming relational operators: filter, project, dedup, union, difference, product.
//!
//! Filter and project are pure batch-metadata manipulation (selection vectors and
//! column-handle permutation — zero value copies). Dedup and difference emit their
//! input batches restricted by a selection; only the membership sets hold (O(1)-clone)
//! rows. The product is the one genuine gather here: it writes combined rows into
//! fresh output columns.

use super::batch::{Batch, RowTable};
use super::{BoxOp, Operator, SharedState};
use bea_core::error::Result;
use bea_core::plan::Predicate;
use bea_core::value::Value;
use std::borrow::Cow;

/// Streaming selection: writes a selection vector over the input batch's shared
/// columns. No values move.
pub(crate) struct FilterOp<'db> {
    input: BoxOp<'db>,
    predicates: Cow<'db, [Predicate]>,
}

impl<'db> FilterOp<'db> {
    pub(crate) fn new(input: BoxOp<'db>, predicates: Cow<'db, [Predicate]>) -> Self {
        Self { input, predicates }
    }
}

impl Operator for FilterOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        let Some(batch) = self.input.next_batch()? else {
            return Ok(None);
        };
        Ok(Some(batch.retain(|i| batch.passes(i, &self.predicates))))
    }
}

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

/// The membership set of [`DedupOp`] (rows seen) and [`DifferenceOp`] (rows to
/// remove): a [`RowTable`] over columns drawn from the worker's pool.
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

/// Anti-semijoin on whole rows: the right side is buffered as a [`RowTable`] (durable
/// state, released on exhaustion or on drop), the left side streams through it as a
/// selection over its own shared columns — membership probes clone nothing.
pub(crate) struct DifferenceOp<'db> {
    left: BoxOp<'db>,
    right: Option<BoxOp<'db>>,
    state: SharedState,
    remove: RowTable,
    done: bool,
}

impl<'db> DifferenceOp<'db> {
    /// `arity` is the arity of both inputs, from the plan.
    pub(crate) fn new(
        left: BoxOp<'db>,
        right: BoxOp<'db>,
        arity: usize,
        state: SharedState,
    ) -> Self {
        Self {
            left,
            right: Some(right),
            remove: row_set("a difference", arity, &state),
            state,
            done: false,
        }
    }
}

impl Operator for DifferenceOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        if let Some(mut right) = self.right.take() {
            while let Some(batch) = right.next_batch()? {
                let before = self.remove.len();
                self.remove.reserve(batch.len())?;
                for i in 0..batch.len() {
                    insert_row(&mut self.remove, &batch, i);
                }
                charge_fresh_rows(&self.state, &batch, self.remove.len() - before);
            }
        }
        let Some(batch) = self.left.next_batch()? else {
            self.done = true;
            retire_row_set(&mut self.remove, &self.state);
            return Ok(None);
        };
        let removed = |i: usize| {
            let row = |c: usize| batch.value(i, c);
            self.remove.find(batch.hash_row(i), row).is_some()
        };
        Ok(Some(batch.retain(|i| !removed(i))))
    }
}

impl Drop for DifferenceOp<'_> {
    fn drop(&mut self) {
        retire_row_set(&mut self.remove, &self.state);
    }
}

/// Cartesian product: the right side is buffered in dense columns (durable state,
/// released on exhaustion), the left side streams. Emitted rows are accounted as
/// `product_rows_materialized`, matching the literal semantics' accounting, even though
/// the pipeline never holds more than a batch of them: output is chunked to
/// [`super::BATCH_SIZE`] rows per call, however large `|batch| · |right|` gets, so the
/// bounded-batch invariant (and the residency ledger's accuracy) survives products.
/// The buffered right-side columns and the per-call output gather columns are drawn
/// from the execution state's buffer pool; the buffered columns return to it when the
/// right side retires (output columns transfer into emitted batches).
pub(crate) struct ProductOp<'db> {
    left: BoxOp<'db>,
    right: Option<BoxOp<'db>>,
    state: SharedState,
    /// The buffered right side, as dense columns.
    buffered: Vec<Vec<Value>>,
    buffered_rows: usize,
    right_arity: usize,
    /// Left batch whose pairings are still being emitted, with the cursor position
    /// `(left row index, right row index)` of the next pair.
    pending: Option<Batch>,
    cursor: (usize, usize),
    done: bool,
}

impl<'db> ProductOp<'db> {
    pub(crate) fn new(left: BoxOp<'db>, right: BoxOp<'db>, state: SharedState) -> Self {
        Self {
            left,
            right: Some(right),
            state,
            buffered: Vec::new(),
            buffered_rows: 0,
            right_arity: 0,
            pending: None,
            cursor: (0, 0),
            done: false,
        }
    }
}

impl Operator for ProductOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        if let Some(mut right) = self.right.take() {
            while let Some(batch) = right.next_batch()? {
                let mut state = self.state.borrow_mut();
                if self.buffered.is_empty() {
                    self.right_arity = batch.arity();
                    self.buffered = (0..batch.arity())
                        .map(|_| state.pool.get_values())
                        .collect();
                }
                state.acquire(batch.len() as u64);
                state.stats.values_cloned += (batch.len() * batch.arity()) as u64;
                for i in 0..batch.len() {
                    batch.append_row_to(i, &mut self.buffered);
                }
                self.buffered_rows += batch.len();
            }
        }
        let mut out: Option<Vec<Vec<Value>>> = None;
        let mut out_rows = 0usize;
        let mut exhausted = false;
        while out_rows < super::BATCH_SIZE {
            let Some(pending) = &self.pending else {
                match self.left.next_batch()? {
                    Some(batch) => {
                        self.pending = Some(batch);
                        self.cursor = (0, 0);
                        continue;
                    }
                    None => {
                        exhausted = true;
                        break;
                    }
                }
            };
            if self.cursor.0 >= pending.len() || self.buffered_rows == 0 {
                // Nothing (left) to pair, or an empty right side: consume the pending
                // batch without output.
                self.pending = None;
                self.cursor = (0, 0);
                continue;
            }
            if out.is_none() {
                let mut state = self.state.borrow_mut();
                out = Some(
                    (0..pending.arity() + self.right_arity)
                        .map(|_| state.pool.get_values())
                        .collect(),
                );
            }
            let sinks = out.as_mut().expect("initialized just above");
            let (li, ri) = self.cursor;
            let (left_cols, right_cols) = sinks.split_at_mut(pending.arity());
            pending.append_row_to(li, left_cols);
            for (column, sink) in self.buffered.iter().zip(right_cols) {
                sink.push(column[ri].clone());
            }
            out_rows += 1;
            self.cursor.1 += 1;
            if self.cursor.1 >= self.buffered_rows {
                self.cursor = (self.cursor.0 + 1, 0);
            }
        }
        let arity = out.as_ref().map_or(0, Vec::len) as u64;
        let mut state = self.state.borrow_mut();
        state.stats.product_rows_materialized += out_rows as u64;
        state.stats.values_cloned += out_rows as u64 * arity;
        if exhausted {
            self.done = true;
            state.release(self.buffered_rows as u64);
            for column in self.buffered.drain(..) {
                state.pool.put_values(column);
            }
            self.buffered_rows = 0;
            if out_rows == 0 {
                return Ok(None);
            }
        }
        Ok(Some(Batch::from_dense(out.unwrap_or_default(), out_rows)))
    }
}

impl Drop for ProductOp<'_> {
    fn drop(&mut self) {
        let mut state = self.state.borrow_mut();
        if self.buffered_rows > 0 {
            state.release(self.buffered_rows as u64);
            self.buffered_rows = 0;
        }
        for column in self.buffered.drain(..) {
            state.pool.put_values(column);
        }
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
    fn difference_removes_right_rows_and_keeps_left_order_and_duplicates() {
        let h = Harness::new();
        let left = script(&[&[&[1], &[2], &[3], &[2]], &[&[4], &[1], &[5]]]);
        let right = script(&[&[&[2], &[9]], &[&[4], &[2]]]);
        let mut op = DifferenceOp::new(left, right, 1, h.state.clone());
        assert_eq!(
            drain(&mut op),
            [vec![vec![1], vec![3]], vec![vec![1], vec![5]]]
        );
        // The removal set held the right side's three distinct rows.
        assert_eq!(h.stats().values_cloned, 3);
        assert_eq!((h.ledger.peak(), h.ledger.resident()), (3, 0));
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
        let left = script(&[&[&[1]]]);
        let right = Box::new(Script(
            [Ok(ints(&[&[1], &[2]])), Err(Error::invalid("right failed"))].into(),
        ));
        let mut op = DifferenceOp::new(left, right, 1, h.state.clone());
        assert!(op.next_batch().is_err());
        drop(op);
        assert_eq!(h.ledger.resident(), 0);
    }
}
