//! The generic hash join, used when a keyed-join pattern's fetch stays a shared step.

use super::batch::{position_bound, Batch, HashedRow, RowTable};
use super::{BoxOp, Operator, SharedState};
use bea_core::error::Result;
use bea_core::plan::Predicate;
use bea_core::value::Value;
use std::borrow::Cow;

/// Ends a [`HashJoinOp`] match chain; never a build row (see [`position_bound`]).
const END: u32 = u32::MAX;

/// How [`position_bound`] names the operator whose build side grew too large.
const OWNER: &str = "a hash join's build side";

/// Hash join on column equalities: buffers the build (right) side in dense columns
/// plus a [`RowTable`] of its distinct keys, each heading a chain of the build rows
/// that carry it (durable state, released on exhaustion or on drop), and streams the
/// probe (left) side, gathering each match straight into the output columns — one
/// pass, no per-match row concatenation, no allocation per build or probe row. A
/// key's matches come out in build-insertion order. An empty build side
/// skips the per-row probing while still draining the probe input — short-circuiting
/// the drain would change which index lookups run, and data access must stay identical
/// across execution strategies. Build-side and output gather columns are drawn from
/// the execution state's buffer pool; the build columns go back to it when the build
/// side retires (output columns transfer into emitted batches).
pub(crate) struct HashJoinOp<'db> {
    left: BoxOp<'db>,
    right: Option<BoxOp<'db>>,
    left_keys: &'db [usize],
    right_keys: &'db [usize],
    residual: Cow<'db, [Predicate]>,
    state: SharedState,
    /// The build side as dense columns; the chains hold row indices into them.
    build: Vec<Vec<Value>>,
    /// The distinct build keys. Key `k`'s build rows are `first[k]`, then `next[·]` of
    /// each until [`END`], ascending; `last[k]` is where the next one is linked.
    keys: RowTable,
    first: Vec<u32>,
    last: Vec<u32>,
    /// Per build row: the next build row with the same key, or [`END`].
    next: Vec<u32>,
    /// Reusable key buffer: every build and probe row gathers its key into it.
    key_scratch: HashedRow,
    built_rows: u64,
    right_arity: usize,
    done: bool,
}

impl<'db> HashJoinOp<'db> {
    /// `right_arity` is the build side's arity *from the plan*, so emitted batches
    /// (including the empty ones of a runtime-empty build side) always carry the
    /// correct column count — a downstream projection must never see a narrower batch
    /// just because no build rows showed up.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        left: BoxOp<'db>,
        right: BoxOp<'db>,
        left_keys: &'db [usize],
        right_keys: &'db [usize],
        residual: Cow<'db, [Predicate]>,
        right_arity: usize,
        state: SharedState,
    ) -> Self {
        let (build, keys) = {
            let mut s = state.borrow_mut();
            let build = (0..right_arity).map(|_| s.pool.get_values()).collect();
            let keys = (0..right_keys.len()).map(|_| s.pool.get_values());
            (build, RowTable::new(OWNER, keys.collect()))
        };
        Self {
            left,
            right: Some(right),
            left_keys,
            right_keys,
            residual,
            state,
            build,
            keys,
            first: Vec::new(),
            last: Vec::new(),
            next: Vec::new(),
            key_scratch: HashedRow::default(),
            built_rows: 0,
            right_arity,
            done: false,
        }
    }

    /// Return the build-side and key columns to the buffer pool (cleared by the pool).
    fn recycle_build(&mut self) {
        let mut state = self.state.borrow_mut();
        for column in self.build.drain(..).chain(self.keys.release()) {
            state.pool.put_values(column);
        }
    }
}

impl Operator for HashJoinOp<'_> {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.done {
            return Ok(None);
        }
        if let Some(mut right) = self.right.take() {
            while let Some(batch) = right.next_batch()? {
                debug_assert_eq!(batch.arity(), self.right_arity);
                // Pre-size from the batch's row count instead of growing per row —
                // and refuse a build side whose rows would outgrow the chains.
                let rows = self.next.len() + batch.len();
                position_bound(OWNER, rows)?;
                self.keys.reserve(batch.len())?;
                self.next.reserve(batch.len());
                {
                    let mut state = self.state.borrow_mut();
                    state.acquire(batch.len() as u64);
                    // Per build row: the row itself, and its key gathered into the
                    // scratch (whose values move into the table when the key is new).
                    state.stats.values_cloned +=
                        (batch.len() * (batch.arity() + self.right_keys.len())) as u64;
                }
                for i in 0..batch.len() {
                    let row = self.next.len() as u32;
                    self.next.push(END);
                    let key = &mut self.key_scratch;
                    key.gather(&batch, i, self.right_keys);
                    match self.keys.find_key(key) {
                        Some(k) => {
                            let tail = std::mem::replace(&mut self.last[k as usize], row);
                            self.next[tail as usize] = row;
                        }
                        None => {
                            self.keys.push_key(key)?;
                            self.first.push(row);
                            self.last.push(row);
                        }
                    }
                    batch.append_row_to(i, &mut self.build);
                }
                self.built_rows += batch.len() as u64;
            }
        }
        let Some(batch) = self.left.next_batch()? else {
            self.done = true;
            self.state.borrow_mut().release(self.built_rows);
            self.built_rows = 0;
            self.recycle_build();
            return Ok(None);
        };
        if self.keys.is_empty() {
            // Empty build side: nothing can join. Keep draining the probe input (its
            // fetches must still run), but skip the per-row work.
            return Ok(Some(Batch::from_rows(
                batch.arity() + self.right_arity,
                Vec::new(),
            )));
        }
        let left_arity = batch.arity();
        let mut out: Vec<Vec<Value>> = {
            let mut state = self.state.borrow_mut();
            // One probe-key gather per probe row.
            state.stats.values_cloned += (batch.len() * self.left_keys.len()) as u64;
            (0..left_arity + self.right_arity)
                .map(|_| state.pool.get_values())
                .collect()
        };
        let mut out_rows = 0usize;
        for i in 0..batch.len() {
            let probe = &mut self.key_scratch;
            probe.gather(&batch, i, self.left_keys);
            let Some(k) = self.keys.find_key(probe) else {
                continue;
            };
            let mut m = self.first[k as usize];
            while m != END {
                if passes_combined(&batch, i, &self.build, m as usize, &self.residual) {
                    let (left_cols, right_cols) = out.split_at_mut(left_arity);
                    batch.append_row_to(i, left_cols);
                    for (column, sink) in self.build.iter().zip(right_cols) {
                        sink.push(column[m as usize].clone());
                    }
                    out_rows += 1;
                }
                m = self.next[m as usize];
            }
        }
        self.state.borrow_mut().stats.values_cloned +=
            out_rows as u64 * (left_arity + self.right_arity) as u64;
        Ok(Some(Batch::from_dense(out, out_rows)))
    }
}

/// Evaluate the residual predicates over the concatenation of the probe batch's row
/// `i` and build row `m`, without materializing the combined row.
fn passes_combined(
    left: &Batch,
    i: usize,
    build: &[Vec<Value>],
    m: usize,
    predicates: &[Predicate],
) -> bool {
    let split = left.arity();
    let value = |col: usize| {
        if col < split {
            left.value(i, col)
        } else {
            &build[col - split][m]
        }
    };
    predicates.iter().all(|p| match p {
        Predicate::ColEqCol(a, b) => value(*a) == value(*b),
        Predicate::ColEqConst(a, c) => value(*a) == c,
    })
}

impl Drop for HashJoinOp<'_> {
    fn drop(&mut self) {
        if self.built_rows > 0 {
            self.state.borrow_mut().release(self.built_rows);
            self.built_rows = 0;
        }
        if !self.build.is_empty() {
            self.recycle_build();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::fetch::tests::{drain, ints, Harness, Script};
    use super::*;

    fn script(batches: &[&[&[i64]]]) -> BoxOp<'static> {
        Box::new(Script(batches.iter().map(|rows| Ok(ints(rows))).collect()))
    }

    #[test]
    fn matches_come_out_in_probe_order_then_build_insertion_order() {
        let h = Harness::new();
        // Build rows (key, tag), keys interleaved across two batches: key 7 is build
        // rows 0, 2 and 4, key 8 is rows 1 and 5, key 9 is row 3.
        let build = script(&[
            &[&[7, 70], &[8, 80], &[7, 71]],
            &[&[9, 90], &[7, 72], &[8, 81]],
        ]);
        let probe = script(&[&[&[8], &[5], &[7]], &[&[7], &[9]]]);
        let mut op = HashJoinOp::new(
            probe,
            build,
            &[0],
            &[0],
            Cow::Borrowed(&[]),
            2,
            h.state.clone(),
        );
        let sevens = [[7, 7, 70], [7, 7, 71], [7, 7, 72]].map(Vec::from);
        assert_eq!(
            drain(&mut op),
            [
                [&[[8, 8, 80], [8, 8, 81]].map(Vec::from)[..], &sevens].concat(),
                [&sevens[..], &[vec![9, 9, 90]]].concat(),
            ]
        );
        // 6 build rows × (2 columns + 1 key) + 5 probe keys + 9 emitted rows × 3.
        assert_eq!(h.stats().values_cloned, 18 + 5 + 27);
        assert_eq!((h.ledger.peak(), h.ledger.resident()), (6, 0));
    }

    #[test]
    fn residuals_filter_inside_a_chain_without_breaking_it() {
        let h = Harness::new();
        let build = script(&[&[&[1, 10], &[1, 11], &[1, 10], &[2, 10]]]);
        let probe = script(&[&[&[1, 10], &[2, 11], &[1, 11]]]);
        // Combined row (k, x, k, v): join on k, keep x = v.
        let mut op = HashJoinOp::new(
            probe,
            build,
            &[0],
            &[0],
            Cow::Owned(vec![Predicate::ColEqCol(1, 3)]),
            2,
            h.state.clone(),
        );
        assert_eq!(
            drain(&mut op),
            [[[1, 10, 1, 10], [1, 10, 1, 10], [1, 11, 1, 11]].map(Vec::from)]
        );
        assert_eq!(h.ledger.resident(), 0);
    }

    #[test]
    fn composite_and_zero_column_keys() {
        let h = Harness::new();
        let build = script(&[&[&[1, 2, 30], &[2, 1, 31], &[1, 2, 32]]]);
        let probe = script(&[&[&[2, 1], &[1, 2], &[1, 1]]]);
        let mut op = HashJoinOp::new(
            probe,
            build,
            &[0, 1],
            &[0, 1],
            Cow::Borrowed(&[]),
            3,
            h.state.clone(),
        );
        assert_eq!(
            drain(&mut op),
            [[[2, 1, 2, 1, 31], [1, 2, 1, 2, 30], [1, 2, 1, 2, 32]].map(Vec::from)]
        );
        // No key columns: every probe row pairs with every build row, in build order.
        let mut op = HashJoinOp::new(
            script(&[&[&[1], &[2]]]),
            script(&[&[&[8], &[9]]]),
            &[],
            &[],
            Cow::Borrowed(&[]),
            1,
            h.state.clone(),
        );
        assert_eq!(
            drain(&mut op),
            [[[1, 8], [1, 9], [2, 8], [2, 9]].map(Vec::from)]
        );
        assert_eq!(h.ledger.resident(), 0);
    }
}
