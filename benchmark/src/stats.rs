//! Order statistics the report is built from: nearest-rank percentiles, the
//! "at least ten samples beyond it" tail rule, and the median across windows.

/// Tail percentiles in the order they are preferred: the highest one that still
/// has [`MIN_BEYOND`] samples above it is the one a sample of that size supports. p99 is
/// the ceiling on purpose: a faster daemon yields more samples, and a metric named p99
/// must not turn into p99.9 because of that.
pub const TAILS: [f64; 3] = [0.99, 0.9, 0.5];

/// Samples that must lie beyond a percentile before it is reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending slice: the value at rank `⌈p·n⌉`.
/// Returns 0 for an empty slice so a class that never occurred prints as 0.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// How many samples lie strictly beyond the nearest-rank percentile `p` of `n`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - ((p * n as f64).ceil() as usize).clamp(usize::from(n > 0), n)
}

/// The highest of [`TAILS`] that `n` samples support.
pub fn supported_tail(n: usize) -> f64 {
    TAILS
        .into_iter()
        .find(|&p| samples_beyond(n, p) >= MIN_BEYOND)
        .unwrap_or(0.5)
}

/// Median of a slice (mean of the two middle values for an even count); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// One metric over the measurement windows: the reported value is the median
/// window; the extremes are printed beside it as the spread.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct OverWindows {
    pub median: f64,
    pub min: f64,
    pub max: f64,
}

impl OverWindows {
    pub fn of(per_window: &[f64]) -> Self {
        OverWindows {
            median: median(per_window),
            min: per_window.iter().copied().fold(f64::INFINITY, f64::min),
            max: per_window.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }

    /// `(max − min) ÷ median`, the run's own measure of how steady it was.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.median
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 0.999), 100);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.5), 7);
        assert_eq!(percentile(&[3, 9], 0.5), 3);
        assert_eq!(percentile(&[3, 9], 0.51), 9);
        assert_eq!(percentile(&[], 0.99), 0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples is rank 990: exactly ten beyond.
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(supported_tail(1000), 0.99);
        assert_eq!(supported_tail(999), 0.9);
        // p90 needs 100 samples, below that only the median is left.
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(supported_tail(100), 0.9);
        assert_eq!(supported_tail(99), 0.5);
        assert_eq!(supported_tail(5), 0.5);
        // More samples never raise the percentile above p99.
        assert_eq!(supported_tail(1_000_000), 0.99);
        assert_eq!(samples_beyond(0, 0.99), 0);
    }

    #[test]
    fn median_of_windows_ignores_one_bad_window() {
        let w = OverWindows::of(&[100.0, 101.0, 55.0, 99.0, 102.0]);
        assert_eq!(w.median, 100.0);
        assert_eq!((w.min, w.max), (55.0, 102.0));
        assert!((w.spread() - 0.47).abs() < 1e-9);
        assert_eq!(median(&[1.0, 2.0, 3.0, 10.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }
}
