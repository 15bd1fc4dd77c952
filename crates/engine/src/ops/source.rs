//! Leaf operators: singletons, the empty relation, and scans of materialized steps.

use super::batch::Batch;
use super::{Operator, SharedMat, SharedState};
use bea_core::error::Result;
use bea_core::value::Row;

/// Emits a single row once (constants and the unit table).
pub(crate) struct SingletonOp {
    row: Option<Row>,
}

impl SingletonOp {
    pub(crate) fn new(row: Row) -> Self {
        Self { row: Some(row) }
    }
}

impl Operator for SingletonOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        Ok(self.row.take().map(Batch::singleton))
    }
}

/// Emits nothing.
pub(crate) struct EmptyOp;

impl Operator for EmptyOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        Ok(None)
    }
}

/// Streams a materialized step to one of its consumers — the exchange protocol between
/// pipelines. Each pull hands out the next stored batch by *cheap clone* (an `Arc`
/// bump per column — no value is copied crossing a materialization point). When the
/// last consumer is done, the batches are dropped and their residency released; a
/// consumer counts as done when it drains the scan *or* drops it mid-stream
/// (short-circuits must not leak the materialization).
pub(crate) struct ScanOp {
    node: SharedMat,
    state: SharedState,
    pos: usize,
    finished: bool,
}

impl ScanOp {
    pub(crate) fn new(node: SharedMat, state: SharedState) -> Self {
        Self {
            node,
            state,
            pos: 0,
            finished: false,
        }
    }

    /// Mark this consumer done exactly once: decrement the node's consumer count and,
    /// if this was the last consumer, free the batches and release their residency.
    fn finish(&mut self) {
        if self.finished {
            return;
        }
        self.finished = true;
        let mut node = self.node.borrow_mut();
        node.remaining -= 1;
        if node.remaining == 0 && node.batches.take().is_some() {
            self.state.borrow_mut().release(node.rows);
        }
    }
}

impl Operator for ScanOp {
    fn next_batch(&mut self) -> Result<Option<Batch>> {
        if self.finished {
            return Ok(None);
        }
        let batch = {
            let node = self.node.borrow();
            let batches = node
                .batches
                .as_ref()
                .expect("materialized batches outlive their consumers");
            let batch = batches.get(self.pos).cloned();
            self.pos += 1;
            batch
        };
        match batch {
            Some(batch) => Ok(Some(batch)),
            None => {
                self.finish();
                Ok(None)
            }
        }
    }
}

impl Drop for ScanOp {
    fn drop(&mut self) {
        self.finish();
    }
}
