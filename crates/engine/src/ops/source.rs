//! Leaf operators: singletons and the empty relation.

use super::batch::Batch;
use super::Operator;
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
