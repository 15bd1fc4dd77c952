//! Result tables with set semantics.

use bea_core::value::{Row, Value};
use std::collections::BTreeSet;
use std::fmt;

/// A named-column table of rows. Query answers are sets, so [`Table::dedup`] (applied by
/// both evaluators) removes duplicates; comparisons go through [`Table::row_set`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Row>,
}

impl Table {
    /// Create an empty table with the given column labels.
    pub fn new(columns: Vec<String>) -> Self {
        Self {
            columns,
            rows: Vec::new(),
        }
    }

    /// Create a table from columns and rows.
    pub fn with_rows(columns: Vec<String>, rows: Vec<Row>) -> Self {
        Self { columns, rows }
    }

    /// Column labels.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// The rows (possibly with duplicates until [`Table::dedup`] is called).
    pub fn rows(&self) -> &[Row] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when there are no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Append a row (arity is the caller's responsibility; the executors maintain it).
    pub fn push(&mut self, row: Row) {
        self.rows.push(row);
    }

    /// Remove duplicate rows (set semantics), preserving first-occurrence order.
    pub fn dedup(&mut self) {
        let mut seen: BTreeSet<Row> = BTreeSet::new();
        self.rows.retain(|r| seen.insert(r.clone()));
    }

    /// The rows as a set, for order-insensitive comparisons.
    pub fn row_set(&self) -> BTreeSet<Row> {
        self.rows.iter().cloned().collect()
    }

    /// True when both tables contain the same set of rows. Blind to repeated rows: pair
    /// it with [`Table::is_set`] where an answer must be a set.
    pub fn same_rows(&self, other: &Table) -> bool {
        self.row_set() == other.row_set()
    }

    /// True when no row occurs twice — what every query answer must be.
    pub fn is_set(&self) -> bool {
        self.row_set().len() == self.rows.len()
    }

    /// Sort rows lexicographically (for deterministic output).
    pub fn sort(&mut self) {
        self.rows.sort();
    }

    /// Single-column helper: the values of the first column.
    pub fn first_column(&self) -> Vec<Value> {
        self.rows
            .iter()
            .filter_map(|r| r.first().cloned())
            .collect()
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.columns.join("\t"))?;
        for row in &self.rows {
            let line: Vec<String> = row.iter().map(Value::to_string).collect();
            writeln!(f, "{}", line.join("\t"))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_dedup() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        assert!(t.is_empty());
        t.push(vec![Value::int(1), Value::int(2)]);
        t.push(vec![Value::int(1), Value::int(2)]);
        t.push(vec![Value::int(3), Value::int(4)]);
        assert_eq!(t.len(), 3);
        assert!(!t.is_set());
        t.dedup();
        assert!(t.is_set());
        assert_eq!(t.len(), 2);
        assert_eq!(t.arity(), 2);
        assert_eq!(t.columns(), &["a".to_owned(), "b".to_owned()]);
    }

    #[test]
    fn set_comparison_ignores_order() {
        let t1 = Table::with_rows(
            vec!["a".into()],
            vec![vec![Value::int(1)], vec![Value::int(2)]],
        );
        let mut t2 = Table::with_rows(
            vec!["x".into()],
            vec![vec![Value::int(2)], vec![Value::int(1)]],
        );
        assert!(t1.same_rows(&t2));
        t2.push(vec![Value::int(3)]);
        assert!(!t1.same_rows(&t2));
        t2.sort();
        assert_eq!(t2.rows()[0], vec![Value::int(1)]);
    }

    #[test]
    fn display_and_first_column() {
        let t = Table::with_rows(
            vec!["a".into(), "b".into()],
            vec![vec![Value::int(1), Value::str("x")]],
        );
        let s = t.to_string();
        assert!(s.contains("a\tb"));
        assert!(s.contains("1\t\"x\""));
        assert_eq!(t.first_column(), vec![Value::int(1)]);
        assert_eq!(t.row_set().len(), 1);
    }
}
