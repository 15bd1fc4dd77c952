//! Small helpers for printing experiment results as aligned text / markdown tables,
//! plus the machine-readable `BENCH_pipeline.json` perf record.

use crate::claims::Claims;
use bea_engine::AccessStats;
use std::collections::BTreeMap;
use std::fmt::Display;
use std::time::Instant;

/// A simple column-aligned table accumulated row by row and printed at the end.
#[derive(Debug, Clone)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Self {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are formatted with `Display`).
    pub fn row<S: Display>(&mut self, cells: impl IntoIterator<Item = S>) {
        self.rows
            .push(cells.into_iter().map(|c| c.to_string()).collect());
    }

    /// Number of data rows so far.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render as a GitHub-flavoured markdown table.
    pub fn to_markdown(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                } else {
                    widths.push(cell.len());
                }
            }
        }
        let fmt_row = |cells: &[String]| {
            let padded: Vec<String> = widths
                .iter()
                .enumerate()
                .map(|(i, w)| format!("{:<w$}", cells.get(i).map(String::as_str).unwrap_or("")))
                .collect();
            format!("| {} |", padded.join(" | "))
        };
        let mut out = String::new();
        out.push_str(&fmt_row(&self.header));
        out.push('\n');
        let dashes: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        out.push_str(&format!("| {} |", dashes.join(" | ")));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }

    /// Print the markdown rendering to stdout.
    pub fn print(&self) {
        print!("{}", self.to_markdown());
    }
}

/// One scenario's entry in the pipeline perf record: how much data the plan touched,
/// its residency high-water mark and the executor's copy traffic. Every field is a
/// deterministic counter of one execution, so the committed record is reproduced byte
/// for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchEntry {
    /// Tuples fetched through index lookups (`AccessStats::tuples_fetched`).
    pub rows_fetched: u64,
    /// Peak rows concurrently resident (`AccessStats::peak_rows_resident`).
    pub peak_rows_resident: u64,
    /// Value clones performed moving rows between executor buffers
    /// (`AccessStats::values_cloned`).
    pub values_cloned: u64,
}

impl From<&AccessStats> for BenchEntry {
    fn from(stats: &AccessStats) -> Self {
        Self {
            rows_fetched: stats.tuples_fetched,
            peak_rows_resident: stats.peak_rows_resident,
            values_cloned: stats.values_cloned,
        }
    }
}

/// The `BENCH_pipeline.json` perf record: scenario name → [`BenchEntry`], and claim key
/// → value. Written by `exp_table1`; the `scenarios` tests rebuild it and compare it
/// with the committed file byte for byte.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineBenchReport {
    /// Scenario entries in deterministic (sorted) order.
    pub scenarios: BTreeMap<String, BenchEntry>,
    /// The paper's claims ([`crate::claims`]), keys sorted, values as JSON.
    pub claims: Claims,
}

impl PipelineBenchReport {
    /// Add a scenario entry.
    pub fn insert(&mut self, scenario: impl Into<String>, entry: BenchEntry) {
        self.scenarios.insert(scenario.into(), entry);
    }

    /// Render as JSON (one scenario or claim per line, keys sorted — diff-friendly).
    pub fn to_json(&self) -> String {
        let scenarios: Vec<String> = self
            .scenarios
            .iter()
            .map(|(name, e)| {
                format!(
                    "    \"{name}\": {{\"rows_fetched\": {}, \"peak_rows_resident\": {}, \
                     \"values_cloned\": {}}}",
                    e.rows_fetched, e.peak_rows_resident, e.values_cloned
                )
            })
            .collect();
        let claims: Vec<String> = self
            .claims
            .iter()
            .map(|(key, value)| format!("    \"{key}\": {value}"))
            .collect();
        format!(
            "{{\n  \"scenarios\": {{\n{}\n  }},\n  \"claims\": {{\n{}\n  }}\n}}\n",
            scenarios.join(",\n"),
            claims.join(",\n")
        )
    }
}

/// Measure the wall-clock time of a closure, in milliseconds, returning its result.
pub fn time_ms<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let result = f();
    (result, start.elapsed().as_secs_f64() * 1e3)
}

/// Format a millisecond figure compactly (`1.23 ms`, `456 µs`, `2.1 s`).
pub fn fmt_ms(ms: f64) -> String {
    if ms >= 1_000.0 {
        format!("{:.2} s", ms / 1_000.0)
    } else if ms >= 1.0 {
        format!("{ms:.2} ms")
    } else {
        format!("{:.0} µs", ms * 1_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = TextTable::new(["a", "b"]);
        assert!(t.is_empty());
        t.row([1, 2]);
        t.row([30, 4]);
        assert_eq!(t.len(), 2);
        let md = t.to_markdown();
        assert!(md.starts_with("| a "));
        assert!(md.contains("| 30 | 4 |"));
        assert!(md.lines().count() == 4);
    }

    #[test]
    fn timing_and_formatting() {
        let (value, ms) = time_ms(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(ms >= 0.0);
        assert_eq!(fmt_ms(2_500.0), "2.50 s");
        assert_eq!(fmt_ms(12.345), "12.35 ms");
        assert_eq!(fmt_ms(0.5), "500 µs");
    }
}
