//! The untraced load phase: closed-loop and open-loop drivers over the real socket,
//! and the window arithmetic that turns their samples into the end-to-end metrics.

use crate::client::{judge, Conn, Judged, RawReply};
use crate::stats::{percentile, samples_beyond, supported_tail, OverWindows};
use crate::workload::{
    poisson_schedule, Class, Domain, Lane, Req, Spec, Stream, CONNECTIONS, OPEN_LOOP_RATE,
};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Measurement windows per run; every timing and rate is the median window.
pub const WINDOWS: usize = 5;
/// `slo_met_share` counts requests answered as expected within this of their due time.
pub const SLO: Duration = Duration::from_millis(5);
/// Consecutive transport failures after which a client thread gives up on the daemon.
const MAX_CONSECUTIVE_FAULTS: u32 = 3;

/// One request as the client saw it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When it counts, in ns relative to the start of measurement (negative during
    /// warm-up): completion time in a closed loop, due time in an open loop.
    pub at_ns: i64,
    /// Request bytes out → `END` line in; from the due time in an open loop.
    pub latency_ns: u64,
    /// Send time − due time (open loop; 0 in a closed loop).
    pub lag_ns: u64,
    pub class: Class,
    pub judged: Judged,
}

/// Warm-up is one window long, so shortening `--seconds` shortens everything uniformly.
pub fn warm_up(measure: Duration) -> Duration {
    measure / WINDOWS as u32
}

fn signed_ns(at: Instant, origin: Instant) -> i64 {
    match at.checked_duration_since(origin) {
        Some(after) => after.as_nanos() as i64,
        None => -(origin.duration_since(at).as_nanos() as i64),
    }
}

/// A connection that survives a failed exchange by reconnecting, and stops the thread
/// when the daemon stays unreachable.
struct Client<'a> {
    socket: &'a Path,
    conn: Option<Conn>,
    reply: RawReply,
    consecutive_faults: u32,
}

impl<'a> Client<'a> {
    fn new(socket: &'a Path) -> Self {
        Client {
            socket,
            conn: Conn::connect(socket).ok(),
            reply: RawReply::default(),
            consecutive_faults: 0,
        }
    }

    fn exchange(&mut self, req: &Req) -> Judged {
        if self.conn.is_none() {
            self.conn = Conn::connect(self.socket).ok();
        }
        let sent = self
            .conn
            .as_mut()
            .is_some_and(|conn| conn.roundtrip(&req.line, &mut self.reply).is_ok());
        if sent {
            self.consecutive_faults = 0;
            judge(req.class, &self.reply)
        } else {
            // Timeout or transport error: the stream may be mid-reply, start afresh.
            self.conn = None;
            self.consecutive_faults += 1;
            Judged::default()
        }
    }

    fn gave_up(&self) -> bool {
        self.consecutive_faults >= MAX_CONSECUTIVE_FAULTS
    }
}

/// Run `work(connection index)` on one thread per connection and gather the samples.
fn on_each_connection(work: impl Fn(u64) -> Vec<Sample> + Sync) -> Vec<Sample> {
    let work = &work;
    std::thread::scope(|scope| {
        let lanes: Vec<_> = (0..CONNECTIONS as u64)
            .map(|lane| scope.spawn(move || work(lane)))
            .collect();
        lanes
            .into_iter()
            .flat_map(|lane| lane.join().expect("client thread panicked"))
            .collect()
    })
}

/// Closed loop: each connection sends its next request when the previous reply is in.
pub fn closed_loop(
    socket: &Path,
    spec: &'static Spec,
    domain: Domain,
    seed: u64,
    measure: Duration,
) -> Vec<Sample> {
    let origin = Instant::now() + warm_up(measure);
    let end = origin + measure;
    on_each_connection(|lane| {
        let mut client = Client::new(socket);
        let mut stream = Stream::new(spec, domain, seed, Lane::Requests(lane));
        let mut req = Req::empty();
        let mut samples = Vec::new();
        while !client.gave_up() {
            stream.next_into(&mut req);
            let sent = Instant::now();
            if sent >= end {
                break;
            }
            let judged = client.exchange(&req);
            let done = Instant::now();
            samples.push(Sample {
                at_ns: signed_ns(done, origin),
                latency_ns: (done - sent).as_nanos() as u64,
                lag_ns: 0,
                class: req.class,
                judged,
            });
        }
        samples
    })
}

/// Open loop: requests fall due on a seeded Poisson schedule whatever the daemon does;
/// whichever connection is free takes the next one, and latency runs from the due time,
/// so a stall is charged to every request it delays.
pub fn open_loop(
    socket: &Path,
    spec: &'static Spec,
    domain: Domain,
    seed: u64,
    measure: Duration,
) -> Vec<Sample> {
    let warm = warm_up(measure);
    let due_ns = poisson_schedule(seed, OPEN_LOOP_RATE, (warm + measure).as_nanos() as u64);
    let requests = Stream::new(spec, domain, seed, Lane::Requests(0)).take(due_ns.len());
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let origin = start + warm;
    let abandon_at = start + 3 * (warm + measure);
    on_each_connection(|_| {
        let mut client = Client::new(socket);
        let mut samples = Vec::new();
        loop {
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(req) = requests.get(index) else {
                break;
            };
            let due = start + Duration::from_nanos(due_ns[index]);
            std::thread::sleep(due.saturating_duration_since(Instant::now()));
            let sent = Instant::now();
            // A daemon that is gone, or so far behind that the run would not end, is
            // sent nothing more: what is still due counts as failed.
            let judged = if client.gave_up() || sent > abandon_at {
                Judged::default()
            } else {
                client.exchange(req)
            };
            let done = Instant::now();
            samples.push(Sample {
                at_ns: signed_ns(due, origin),
                latency_ns: (done - due).as_nanos() as u64,
                lag_ns: (sent - due).as_nanos() as u64,
                class: req.class,
                judged,
            });
        }
        samples
    })
}

/// The load phase boiled down: per-window metrics as medians over the windows, counts
/// over the whole measured interval.
#[derive(Debug, Default)]
pub struct LoadSummary {
    /// Replies with the expected verdict per second.
    pub throughput_qps: OverWindows,
    pub latency_p50_us: OverWindows,
    /// The tail: p99 when every window has ten samples beyond it, else the highest
    /// percentile that has (`tail_percentile`).
    pub latency_p99_us: OverWindows,
    pub tail_percentile: f64,
    /// Samples beyond the reported tail in the smallest window.
    pub tail_beyond: usize,
    pub point_latency_p99_us: OverWindows,
    pub reject_latency_p50_us: OverWindows,
    pub slo_met_share: OverWindows,
    pub generator_lag_p99_us: OverWindows,
    pub samples_per_window: f64,
    /// Requests in the measured windows / of those, not `good`.
    pub measured: u64,
    pub measured_failed: u64,
    /// Requests sent in warm-up and measurement together / of those, not `good`.
    pub attempted: u64,
    pub failed: u64,
    /// Over measured `OK` replies.
    pub tuples_fetched_per_answer: f64,
    pub tuples_consumed_per_answer: f64,
    pub cache_hit_share: f64,
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Per-window nearest-rank percentile `p` of one class (or all), in µs.
fn window_percentiles(
    windows: &[Vec<&Sample>],
    class: Option<Class>,
    p: f64,
    value: impl Fn(&Sample) -> u64,
) -> OverWindows {
    let per_window: Vec<f64> = windows
        .iter()
        .map(|window| {
            let mut values: Vec<u64> = window
                .iter()
                .filter(|s| class.is_none_or(|c| s.class == c))
                .map(|s| value(s))
                .collect();
            values.sort_unstable();
            us(percentile(&values, p))
        })
        .collect();
    OverWindows::of(&per_window)
}

pub fn summarize(samples: &[Sample], measure: Duration) -> LoadSummary {
    let window_ns = measure.as_nanos() as i64 / WINDOWS as i64;
    let mut windows: Vec<Vec<&Sample>> = vec![Vec::new(); WINDOWS];
    for sample in samples {
        if sample.at_ns >= 0 && sample.at_ns < window_ns * WINDOWS as i64 {
            windows[(sample.at_ns / window_ns) as usize].push(sample);
        }
    }
    let window_secs = window_ns as f64 / 1e9;
    let per_window = |f: &dyn Fn(&[&Sample]) -> f64| {
        OverWindows::of(&windows.iter().map(|w| f(w)).collect::<Vec<_>>())
    };
    let share = |hits: usize, of: usize| {
        if of == 0 {
            0.0
        } else {
            hits as f64 / of as f64
        }
    };

    let smallest = windows.iter().map(Vec::len).min().unwrap_or(0);
    let tail = supported_tail(smallest);
    let point_smallest = windows
        .iter()
        .map(|w| w.iter().filter(|s| s.class == Class::Point).count())
        .min()
        .unwrap_or(0);

    let measured: Vec<&Sample> = windows.iter().flatten().copied().collect();
    let answers = measured.iter().filter(|s| s.judged.answered).count() as f64;
    let fetched: u64 = measured.iter().map(|s| s.judged.tuples_fetched).sum();
    let cached: u64 = measured.iter().map(|s| s.judged.rows_from_cache).sum();
    let per_answer = |total: u64| {
        if answers == 0.0 {
            0.0
        } else {
            total as f64 / answers
        }
    };

    LoadSummary {
        throughput_qps: per_window(&|w| {
            w.iter().filter(|s| s.judged.good).count() as f64 / window_secs
        }),
        latency_p50_us: window_percentiles(&windows, None, 0.5, |s| s.latency_ns),
        latency_p99_us: window_percentiles(&windows, None, tail, |s| s.latency_ns),
        tail_percentile: tail,
        tail_beyond: samples_beyond(smallest, tail),
        point_latency_p99_us: window_percentiles(
            &windows,
            Some(Class::Point),
            supported_tail(point_smallest),
            |s| s.latency_ns,
        ),
        reject_latency_p50_us: window_percentiles(&windows, Some(Class::Union), 0.5, |s| {
            s.latency_ns
        }),
        slo_met_share: per_window(&|w| {
            let met = w
                .iter()
                .filter(|s| s.judged.good && s.latency_ns <= SLO.as_nanos() as u64);
            share(met.count(), w.len())
        }),
        generator_lag_p99_us: window_percentiles(&windows, None, tail, |s| s.lag_ns),
        samples_per_window: measured.len() as f64 / WINDOWS as f64,
        measured: measured.len() as u64,
        measured_failed: measured.iter().filter(|s| !s.judged.good).count() as u64,
        attempted: samples.len() as u64,
        failed: samples.iter().filter(|s| !s.judged.good).count() as u64,
        tuples_fetched_per_answer: per_answer(fetched),
        tuples_consumed_per_answer: per_answer(fetched + cached),
        cache_hit_share: share(cached as usize, (cached + fetched) as usize),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at_ms: i64, latency_us: u64, class: Class, good: bool, fetched: u64) -> Sample {
        Sample {
            at_ns: at_ms * 1_000_000,
            latency_ns: latency_us * 1_000,
            lag_ns: 0,
            class,
            judged: Judged {
                good,
                answered: class.expected() == crate::workload::Verdict::Ok && good,
                tuples_fetched: fetched,
                rows_from_cache: fetched * 3,
            },
        }
    }

    #[test]
    fn windows_cut_the_run_and_the_median_window_is_reported() {
        // 5 windows of 1 s. Window w holds w+1 point lookups of latency 100·(w+1) µs;
        // warm-up (negative time) and the overrun past 5 s are left out.
        let mut samples = vec![
            sample(-500, 9_999, Class::Point, false, 1),
            sample(5_000, 9_999, Class::Point, true, 1),
        ];
        for w in 0..5i64 {
            for i in 0..=w {
                samples.push(sample(
                    w * 1000 + i,
                    100 * (w as u64 + 1),
                    Class::Point,
                    true,
                    1,
                ));
            }
        }
        let summary = summarize(&samples, Duration::from_secs(5));
        assert_eq!(summary.throughput_qps.median, 3.0);
        assert_eq!(
            (summary.throughput_qps.min, summary.throughput_qps.max),
            (1.0, 5.0)
        );
        assert_eq!(summary.latency_p50_us.median, 300.0);
        assert_eq!((summary.measured, summary.measured_failed), (15, 0));
        // The failed warm-up request still counts as attempted and failed.
        assert_eq!((summary.attempted, summary.failed), (17, 1));
        assert_eq!(summary.tuples_fetched_per_answer, 1.0);
        assert_eq!(summary.tuples_consumed_per_answer, 4.0);
        assert_eq!(summary.cache_hit_share, 0.75);
        assert_eq!(summary.slo_met_share.median, 1.0);
        // One sample in the smallest window: no tail is supported, the median stands in.
        assert_eq!(summary.tail_percentile, 0.5);
    }

    #[test]
    fn classes_get_their_own_latencies_and_refusals_miss_the_slo() {
        let mut samples = Vec::new();
        for w in 0..5i64 {
            samples.push(sample(w * 1000, 50, Class::Point, true, 1));
            samples.push(sample(w * 1000 + 1, 20, Class::Union, true, 0));
            // A slow answer and a wrong verdict both miss the limit.
            samples.push(sample(w * 1000 + 2, 6_000, Class::Q0, true, 600));
            samples.push(sample(w * 1000 + 3, 10, Class::Q0, false, 0));
        }
        let summary = summarize(&samples, Duration::from_secs(5));
        assert_eq!(summary.point_latency_p99_us.median, 50.0);
        assert_eq!(summary.reject_latency_p50_us.median, 20.0);
        assert_eq!(summary.slo_met_share.median, 0.5);
        assert_eq!(summary.throughput_qps.median, 3.0);
        assert_eq!(summary.measured_failed, 5);
    }
}
