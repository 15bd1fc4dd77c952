//! Small helpers for printing experiment results as aligned text / markdown tables,
//! plus the machine-readable `BENCH_pipeline.json` perf record.

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
/// its residency high-water mark, the executor's copy traffic, its probe-path buffer
/// demand, and a latency distribution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BenchEntry {
    /// Tuples fetched through index lookups (`AccessStats::tuples_fetched`).
    pub rows_fetched: u64,
    /// Peak rows concurrently resident (`AccessStats::peak_rows_resident`).
    pub peak_rows_resident: u64,
    /// Value clones performed moving rows between executor buffers
    /// (`AccessStats::values_cloned`) — deterministic for a given plan and database,
    /// which is what makes it CI-checkable.
    pub values_cloned: u64,
    /// Probe-path buffer-demand events (`AccessStats::allocs_per_probe`) —
    /// deterministic like `values_cloned`, and zero on the steady-state anchored
    /// fast path, so CI can hold the zero-allocation property.
    pub allocs_per_probe: u64,
    /// Posting rows served out of the session's cross-query fetch cache
    /// (`AccessStats::rows_served_from_cache`) — deterministic, and gated exactly
    /// like `values_cloned` so the warm leg of a cached-repeat scenario keeps
    /// serving from the hot tier instead of silently falling back to the store.
    pub rows_served_from_cache: u64,
    /// Median nanoseconds per execution on the emitting machine (machine-dependent;
    /// recorded for trend reading, never compared exactly by CI).
    pub ns_p50: u64,
    /// 99th-percentile nanoseconds per execution — the tail figure `--check` guards
    /// with a generous multiplicative budget (machines differ; order-of-magnitude
    /// blowups don't).
    pub ns_p99: u64,
}

/// The `BENCH_pipeline.json` perf record: scenario name → [`BenchEntry`]. Written by
/// `exp_table1` and the `ablations` bench so the perf trajectory of the streaming
/// pipeline is recorded (and `values_cloned` regressions are caught) from PR 4 on.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PipelineBenchReport {
    /// Scenario entries in deterministic (sorted) order.
    pub scenarios: BTreeMap<String, BenchEntry>,
}

impl PipelineBenchReport {
    /// Add a scenario entry.
    pub fn insert(&mut self, scenario: impl Into<String>, entry: BenchEntry) {
        self.scenarios.insert(scenario.into(), entry);
    }

    /// Render as JSON (one scenario per line, keys sorted — diff-friendly).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"scenarios\": {\n");
        let lines: Vec<String> = self
            .scenarios
            .iter()
            .map(|(name, e)| {
                format!(
                    "    \"{name}\": {{\"rows_fetched\": {}, \"peak_rows_resident\": {}, \
                     \"values_cloned\": {}, \"allocs_per_probe\": {}, \
                     \"rows_served_from_cache\": {}, \"ns_p50\": {}, \"ns_p99\": {}}}",
                    e.rows_fetched,
                    e.peak_rows_resident,
                    e.values_cloned,
                    e.allocs_per_probe,
                    e.rows_served_from_cache,
                    e.ns_p50,
                    e.ns_p99
                )
            })
            .collect();
        out.push_str(&lines.join(",\n"));
        out.push_str("\n  }\n}\n");
        out
    }

    /// Parse the JSON produced by [`PipelineBenchReport::to_json`]. Tolerant of
    /// whitespace but not of structural changes — this reads our own format back, it
    /// is not a general JSON parser.
    pub fn parse_json(text: &str) -> Result<Self, String> {
        let mut report = PipelineBenchReport::default();
        for line in text.lines() {
            let line = line.trim();
            let Some((name_part, fields)) = line.split_once(": {") else {
                continue;
            };
            let name = name_part.trim().trim_matches('"');
            if name == "scenarios" || name.is_empty() {
                continue;
            }
            let field = |key: &str| -> Result<u64, String> {
                let pattern = format!("\"{key}\":");
                let start = fields
                    .find(&pattern)
                    .ok_or_else(|| format!("scenario `{name}` is missing `{key}`"))?
                    + pattern.len();
                let rest = &fields[start..];
                let digits: String = rest
                    .trim_start()
                    .chars()
                    .take_while(char::is_ascii_digit)
                    .collect();
                digits
                    .parse::<u64>()
                    .map_err(|_| format!("scenario `{name}`: `{key}` is not a number"))
            };
            report.insert(
                name,
                BenchEntry {
                    rows_fetched: field("rows_fetched")?,
                    peak_rows_resident: field("peak_rows_resident")?,
                    values_cloned: field("values_cloned")?,
                    allocs_per_probe: field("allocs_per_probe")?,
                    rows_served_from_cache: field("rows_served_from_cache")?,
                    ns_p50: field("ns_p50")?,
                    ns_p99: field("ns_p99")?,
                },
            );
        }
        if report.scenarios.is_empty() {
            return Err("no scenario entries found".into());
        }
        Ok(report)
    }

    /// Compare this (fresh) report against a committed baseline on the deterministic
    /// counters: the scenario sets must match exactly (a scenario that disappeared
    /// *or* appeared without a committed baseline is a hard error — the record and
    /// the harness must never drift apart silently), and none of `rows_fetched` (the
    /// paper's figure of merit), `values_cloned`, `allocs_per_probe` and
    /// `rows_served_from_cache` may exceed its baseline by more than
    /// `tolerance_percent`. Returns the list of violations (empty = pass). Timing
    /// fields are never compared here — see
    /// [`PipelineBenchReport::tail_latency_regressions`].
    pub fn regressions_against(
        &self,
        baseline: &PipelineBenchReport,
        tolerance_percent: u64,
    ) -> Vec<String> {
        // The allowance a baseline of `base` grants. A zero baseline must allow
        // exactly zero: `0 + 0 * tol / 100 == 0`, so any fresh value above it is a
        // regression. Percentage slack that rounds up (or a `max(base, 1)` fudge)
        // would silently waive the zero-allocation guarantee the anchored fast path
        // is checked for — keep the rule integer-exact.
        let allowed = |base: u64| base + base * tolerance_percent / 100;
        let mut violations = Vec::new();
        for (name, base) in &baseline.scenarios {
            match self.scenarios.get(name) {
                None => violations.push(format!("scenario `{name}` disappeared from the report")),
                Some(fresh) => {
                    for (field, fresh_value, base_value) in [
                        ("rows_fetched", fresh.rows_fetched, base.rows_fetched),
                        ("values_cloned", fresh.values_cloned, base.values_cloned),
                        (
                            "allocs_per_probe",
                            fresh.allocs_per_probe,
                            base.allocs_per_probe,
                        ),
                        (
                            "rows_served_from_cache",
                            fresh.rows_served_from_cache,
                            base.rows_served_from_cache,
                        ),
                    ] {
                        if fresh_value > allowed(base_value) {
                            violations.push(format!(
                                "scenario `{name}`: field `{field}` regressed — fresh \
                                 {fresh_value} exceeds the committed baseline {base_value} by \
                                 more than {tolerance_percent}% (allowed up to {})",
                                allowed(base_value)
                            ));
                        }
                    }
                }
            }
        }
        // Symmetric drift: a scenario the harness now produces but the committed
        // record has never seen is unguarded — fail loudly instead of green-lighting
        // whatever numbers it happens to emit.
        for name in self.scenarios.keys() {
            if !baseline.scenarios.contains_key(name) {
                violations.push(format!(
                    "scenario `{name}` is missing from the committed baseline — \
                     regenerate and commit the perf record"
                ));
            }
        }
        violations
    }

    /// Gate the fresh report's tail latency against the committed baseline: scenario
    /// `s` fails when `fresh.ns_p99 > max(floor_ns, base.ns_p99 * budget_factor)`.
    /// The multiplicative budget absorbs machine-to-machine variance (the baseline
    /// was recorded elsewhere); the absolute floor keeps scenarios whose baseline
    /// p99 is tiny from failing on scheduler noise. Baselines with `ns_p99 == 0`
    /// (emitted by zero-iteration determinism-only runs) are skipped. Kept separate
    /// from [`PipelineBenchReport::regressions_against`] because timing is advisory
    /// on every field except this one budgeted tail check.
    pub fn tail_latency_regressions(
        &self,
        baseline: &PipelineBenchReport,
        budget_factor: u64,
        floor_ns: u64,
    ) -> Vec<String> {
        let mut violations = Vec::new();
        for (name, base) in &baseline.scenarios {
            if base.ns_p99 == 0 {
                continue;
            }
            let Some(fresh) = self.scenarios.get(name) else {
                continue; // the set-drift check in `regressions_against` owns this
            };
            let budget = floor_ns.max(base.ns_p99.saturating_mul(budget_factor));
            if fresh.ns_p99 > budget {
                violations.push(format!(
                    "scenario `{name}`: tail latency blew the budget — fresh p99 {} ns \
                     exceeds max(floor {floor_ns} ns, baseline p99 {} ns × {budget_factor}) \
                     = {budget} ns",
                    fresh.ns_p99, base.ns_p99
                ));
            }
        }
        violations
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

    fn entry(values_cloned: u64, allocs_per_probe: u64) -> BenchEntry {
        BenchEntry {
            rows_fetched: 100,
            peak_rows_resident: 40,
            values_cloned,
            allocs_per_probe,
            rows_served_from_cache: 25,
            ns_p50: 123_456,
            ns_p99: 234_567,
        }
    }

    #[test]
    fn bench_report_round_trips_and_checks_regressions() {
        let mut report = PipelineBenchReport::default();
        report.insert("accidents_q0", entry(2_000, 12));
        report.insert("parallel_q0_batch_6", entry(16_000, 48));
        let json = report.to_json();
        let parsed = PipelineBenchReport::parse_json(&json).unwrap();
        assert_eq!(parsed, report);

        // Within tolerance: +10% exactly passes.
        let mut fresh = report.clone();
        fresh
            .scenarios
            .get_mut("accidents_q0")
            .unwrap()
            .values_cloned = 2_200;
        assert!(fresh.regressions_against(&report, 10).is_empty());
        // Above tolerance: fails with a named violation.
        fresh
            .scenarios
            .get_mut("accidents_q0")
            .unwrap()
            .values_cloned = 2_201;
        let violations = fresh.regressions_against(&report, 10);
        assert_eq!(violations.len(), 1);
        // The violation names both the scenario and the regressing field explicitly.
        assert!(violations[0].contains("accidents_q0"));
        assert!(violations[0].contains("`values_cloned`"));
        assert!(violations[0].contains("2201"));
        assert!(violations[0].contains("2000"));
        // `allocs_per_probe` is guarded with the same tolerance.
        let mut allocs = report.clone();
        allocs
            .scenarios
            .get_mut("parallel_q0_batch_6")
            .unwrap()
            .allocs_per_probe = 60;
        let violations = allocs.regressions_against(&report, 10);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("`allocs_per_probe`"));
        // `rows_served_from_cache` is a deterministic counter under the same gate:
        // the warm cached-repeat leg may not drift without a regenerated baseline.
        let mut cached = report.clone();
        cached
            .scenarios
            .get_mut("accidents_q0")
            .unwrap()
            .rows_served_from_cache = 100;
        let violations = cached.regressions_against(&report, 10);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("`rows_served_from_cache`"));
        // A disappeared scenario is a violation too; timing changes never are.
        let mut shrunk = report.clone();
        shrunk.scenarios.remove("parallel_q0_batch_6");
        shrunk.scenarios.get_mut("accidents_q0").unwrap().ns_p50 = 1;
        shrunk.scenarios.get_mut("accidents_q0").unwrap().ns_p99 = 1;
        assert_eq!(shrunk.regressions_against(&report, 10).len(), 1);

        assert!(PipelineBenchReport::parse_json("{}").is_err());
        assert!(
            PipelineBenchReport::parse_json("{\"scenarios\": {\"x\": {\"nope\": 1}}}").is_err()
        );
    }

    #[test]
    fn rows_fetched_is_gated_like_every_deterministic_counter() {
        // Tuples fetched per answer is the paper's figure of merit: a plan that
        // fetches 11% more than the record fails, 10% more passes.
        let mut baseline = PipelineBenchReport::default();
        baseline.insert("accidents_q0", entry(500, 0));
        let mut fresh = baseline.clone();
        fresh
            .scenarios
            .get_mut("accidents_q0")
            .unwrap()
            .rows_fetched = 110;
        assert!(fresh.regressions_against(&baseline, 10).is_empty());
        fresh
            .scenarios
            .get_mut("accidents_q0")
            .unwrap()
            .rows_fetched = 111;
        let violations = fresh.regressions_against(&baseline, 10);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("`rows_fetched`"));
        assert!(violations[0].contains("fresh 111"));
        assert!(violations[0].contains("allowed up to 110"));
    }

    #[test]
    fn zero_baseline_allows_no_regression() {
        // The anchored fast path commits `allocs_per_probe: 0`; percentage tolerance
        // must grant a zero baseline zero slack, so baseline 0 → fresh 1 regresses.
        let mut baseline = PipelineBenchReport::default();
        baseline.insert("anchored_probe", entry(500, 0));
        let mut fresh = baseline.clone();
        assert!(fresh.regressions_against(&baseline, 10).is_empty());
        fresh
            .scenarios
            .get_mut("anchored_probe")
            .unwrap()
            .allocs_per_probe = 1;
        let violations = fresh.regressions_against(&baseline, 10);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("`allocs_per_probe`"));
        assert!(violations[0].contains("allowed up to 0"));
    }

    #[test]
    fn scenario_set_drift_is_flagged_in_both_directions() {
        // A fresh scenario with no committed baseline is as much drift as a
        // disappeared one — both mean the record and the harness no longer agree.
        let mut baseline = PipelineBenchReport::default();
        baseline.insert("old_scenario", entry(100, 0));
        let mut fresh = PipelineBenchReport::default();
        fresh.insert("old_scenario", entry(100, 0));
        fresh.insert("brand_new_scenario", entry(7, 3));
        let violations = fresh.regressions_against(&baseline, 10);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("brand_new_scenario"));
        assert!(violations[0].contains("missing from the committed baseline"));
        // And the reverse direction still fires.
        let empty = PipelineBenchReport::default();
        let violations = empty.regressions_against(&baseline, 10);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("disappeared"));
    }

    #[test]
    fn tail_latency_budget_gates_p99() {
        let mut baseline = PipelineBenchReport::default();
        let mut base_entry = entry(100, 0);
        base_entry.ns_p99 = 1_000_000; // 1 ms baseline tail
        baseline.insert("q", base_entry);
        // Untimed baseline entries (determinism-only runs emit ns_p99 = 0) are skipped.
        baseline.insert("untimed", entry(1, 0));
        baseline.scenarios.get_mut("untimed").unwrap().ns_p99 = 0;

        let mut fresh = baseline.clone();
        // Within budget: 25× of 1 ms with a 50 ms floor allows up to 50 ms.
        fresh.scenarios.get_mut("q").unwrap().ns_p99 = 40_000_000;
        assert!(fresh
            .tail_latency_regressions(&baseline, 25, 50_000_000)
            .is_empty());
        // The untimed entry never fails, however slow it measures now.
        fresh.scenarios.get_mut("untimed").unwrap().ns_p99 = u64::MAX;
        assert!(fresh
            .tail_latency_regressions(&baseline, 25, 50_000_000)
            .is_empty());
        // Over the budget: flagged with the arithmetic spelled out.
        fresh.scenarios.get_mut("q").unwrap().ns_p99 = 50_000_001;
        let violations = fresh.tail_latency_regressions(&baseline, 25, 50_000_000);
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("`q`"));
        assert!(violations[0].contains("blew the budget"));
        // When the multiplied baseline exceeds the floor, it sets the budget.
        fresh.scenarios.get_mut("q").unwrap().ns_p99 = 24_000_000;
        assert!(fresh
            .tail_latency_regressions(&baseline, 25, 1_000)
            .is_empty());
        fresh.scenarios.get_mut("q").unwrap().ns_p99 = 25_000_001;
        assert_eq!(
            fresh.tail_latency_regressions(&baseline, 25, 1_000).len(),
            1
        );
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
