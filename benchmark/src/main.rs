//! `beabench` — one run of one workload against a real `bead` child process.
//!
//! `--trace 0` measures the end-to-end metrics with tracing off; `--trace 1` repeats the
//! load phase for the counters only the daemon can give (`STATS`) and then replays the
//! head of the request stream in process under spans for the per-layer metrics. The
//! last line of stdout is the machine-readable result.

mod client;
mod daemon;
mod layers;
mod load;
mod oracle;
mod stats;
mod trace;
mod workload;

use client::{judge, Conn, RawReply};
use daemon::Daemon;
use layers::{InProcess, PerRequest, FRONT_END, ROOT};
use load::LoadSummary;
use stats::{median, OverWindows};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::{Domain, Lane, Spec, Stream, STORE_SEED, STORE_TUPLES};

/// Daemon start-ups timed per `--trace 0` run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Requests replayed by the traced pass.
const TRACED_REQUESTS: usize = 2000;
/// Requests whose store keys the storage probes use.
const PROBED_REQUESTS: usize = 500;

const USAGE: &str = "usage: beabench --bead PATH --workload NAME [--seed N] [--seconds N] \
                     [--trace 0|1] [--out DIR] [--daemon-cpu N]";

type Failure = Box<dyn std::error::Error>;

struct Args {
    spec: &'static Spec,
    seed: u64,
    measure: Duration,
    trace: bool,
    bead: PathBuf,
    out: PathBuf,
    /// CPU the daemon is pinned to; `run.sh` pins this process to another.
    daemon_cpu: Option<u32>,
}

fn parse_args() -> Result<Args, String> {
    let (mut workload, mut bead) = (None, None);
    let (mut seed, mut seconds, mut trace) = (1u64, 20u64, false);
    let mut out = PathBuf::from("benchmark/out");
    let mut daemon_cpu = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag} needs an unsigned integer, got {value:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--bead" => bead = Some(PathBuf::from(value)),
            "--out" => out = PathBuf::from(value),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => trace = number()? != 0,
            "--daemon-cpu" => daemon_cpu = Some(number()? as u32),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workload::find(&name).ok_or_else(|| {
        let known: Vec<_> = workload::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; known: {}", known.join(", "))
    })?;
    Ok(Args {
        spec,
        seed,
        measure: Duration::from_secs(seconds),
        trace,
        bead: bead.ok_or("--bead is required")?,
        out,
        daemon_cpu,
    })
}

/// One reported number.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// Shown beside the value in the human-readable listing only.
    note: String,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name,
        unit,
        value,
        note: String::new(),
    }
}

fn windowed(name: &'static str, unit: &'static str, w: OverWindows) -> Metric {
    Metric {
        name,
        unit,
        value: w.median,
        note: if w.max < 10.0 {
            format!("windows min {:.4} max {:.4}", w.min, w.max)
        } else {
            format!("windows min {:.1} max {:.1}", w.min, w.max)
        },
    }
}

/// `key=` on a `STATS` head line.
fn stat(head: &str, key: &str) -> f64 {
    client::head_field(head, key).unwrap_or(0) as f64
}

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
fn end_to_end(setups: &[f64], load: &LoadSummary, peak_rss_mb: f64) -> Vec<Metric> {
    let mut setup = metric("setup_s", "s", median(setups));
    setup.note = format!("median of {} start-ups", setups.len());
    vec![
        setup,
        windowed("throughput_qps", "1/s", load.throughput_qps),
        metric(
            "tuples_consumed_per_answer",
            "tuples",
            load.tuples_consumed_per_answer,
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        windowed("slo_met_share", "ratio", load.slo_met_share),
    ]
}

/// The traced pass and the per-layer metrics, in the order `BENCHMARK.json` lists them.
fn per_layer(
    args: &Args,
    daemon: &Daemon,
    shared: &bea_engine::session::SharedStore,
    domain: Domain,
    load: &LoadSummary,
    failures: &mut (u64, u64),
) -> Result<Vec<Metric>, Failure> {
    let spec = args.spec;
    let reqs = Stream::new(spec, domain, args.seed, Lane::Requests(0)).take(TRACED_REQUESTS);
    let mut tracer = Tracer::new(true);

    // Once over the socket, sequentially on one connection.
    let mut conn = Conn::connect(daemon.socket())?;
    let mut reply = RawReply::default();
    let mut socket_bytes = 0u64;
    for (n, req) in reqs.iter().enumerate() {
        tracer.timed(n as u32, None, "bead.socket_seq", || {
            conn.roundtrip(&req.line, &mut reply)
        })?;
        socket_bytes += reply.bytes;
        failures.0 += 1;
        failures.1 += u64::from(!judge(req.class, &reply).good);
    }

    // In process, on the one core this harness has (as the daemon has one): a warm-up
    // so that both timed passes see the same cache state, then under spans, then without
    // — the difference is what tracing costs — and last the stand-alone re-measurements.
    let twin = InProcess::new(shared.clone(), spec);
    twin.replay(&mut Tracer::new(false), &reqs);
    let (traced_ns, counts) = twin.replay(&mut tracer, &reqs);
    let (untraced_ns, _) = twin.replay(&mut Tracer::new(false), &reqs);
    twin.remeasure(&mut tracer, &reqs);
    failures.0 += counts.requests;
    failures.1 += counts.wrong_verdict;
    trace::write_jsonl(
        &args.out.join(format!("trace-{}.jsonl", spec.name)),
        &tracer.spans,
    )?;

    let spans = PerRequest::of(&tracer.spans, reqs.len());
    let probes = layers::storage_probes(shared.store(), &reqs[..PROBED_REQUESTS]);
    let stats_head = daemon.stats()?;
    let submitted = stat(&stats_head, "submitted").max(1.0);
    let per_f = |total: f64, of: f64| if of == 0.0 { 0.0 } else { total / of };
    let per = |total: u64, of: u64| per_f(total as f64, of as f64);
    let solo_total_ns: u64 = tracer
        .spans
        .iter()
        .filter(|span| span.name == "engine.execute_solo")
        .map(trace::Span::duration_ns)
        .sum();
    let cache_off = spec.cache_rows == 0;
    let mut tail = windowed("latency_p99_us", "us", load.latency_p99_us);
    tail.note = format!(
        "p{} with {} samples beyond it in the smallest window; {}",
        load.tail_percentile * 100.0,
        load.tail_beyond,
        tail.note
    );

    Ok(vec![
        metric(
            "bead.request_parse_us",
            "us",
            spans.median_us("bead.request_parse"),
        ),
        metric(
            "bead.reply_format_us",
            "us",
            spans.median_us("bead.reply_format"),
        ),
        metric(
            "bead.reply_wire_us",
            "us",
            spans.median_us("bead.reply_wire"),
        ),
        metric(
            "bead.reply_bytes",
            "bytes",
            per(socket_bytes, reqs.len() as u64),
        ),
        metric(
            "bead.socket_seq_us",
            "us",
            spans.median_us("bead.socket_seq"),
        ),
        metric(
            "bead.residual_us",
            "us",
            spans.median_diff_us(&["bead.socket_seq"], &[ROOT]),
        ),
        metric("parser.parse_us", "us", spans.median_us("parser.parse")),
        metric("core.plan_us", "us", spans.median_us("core.plan")),
        metric("core.coverage_us", "us", spans.median_us("core.coverage")),
        metric("core.lower_us", "us", spans.median_us("core.lower")),
        metric("core.ticket_us", "us", spans.median_us("core.ticket")),
        metric(
            "core.fetch_bound",
            "tuples",
            per(counts.fetch_bound, counts.priced),
        ),
        metric(
            "core.pipelines",
            "count",
            per(counts.pipelines, counts.priced),
        ),
        metric("engine.submit_us", "us", spans.median_us("engine.submit")),
        metric(
            "engine.admit_self_us",
            "us",
            spans.median_diff_us(&["engine.submit"], &["core.lower", "core.ticket"]),
        ),
        metric("engine.wait_us", "us", spans.median_us("engine.wait")),
        metric(
            "engine.session_us",
            "us",
            spans.median_diff_us(&["engine.submit", "engine.wait"], &[]),
        ),
        metric(
            "engine.execute_solo_us",
            "us",
            spans.median_us("engine.execute_solo"),
        ),
        metric(
            "engine.session_hop_us",
            "us",
            // With the cache on, `wait` is served from it and `solo` is not: the
            // difference is no longer the hop.
            if cache_off {
                spans.median_diff_us(&["engine.wait"], &["engine.execute_solo"])
            } else {
                0.0
            },
        ),
        metric(
            "engine.session_overhead_us",
            "us",
            // admit_self + session_hop. On one core the scheduler decides how much of
            // the execution lands inside `submit` and how much inside `wait`; the sum
            // does not depend on that.
            if cache_off {
                spans.median_diff_us(
                    &["engine.submit", "engine.wait"],
                    &["core.lower", "core.ticket", "engine.execute_solo"],
                )
            } else {
                0.0
            },
        ),
        metric(
            "engine.tuples_fetched",
            "tuples",
            per(counts.tuples_fetched, counts.answered),
        ),
        metric(
            "engine.values_cloned",
            "count",
            per(counts.values_cloned, counts.answered),
        ),
        metric(
            "engine.allocs_per_probe",
            "count",
            per(counts.allocs_per_probe, counts.answered),
        ),
        metric(
            "engine.peak_rows_resident",
            "count",
            per(counts.peak_rows_resident, counts.answered),
        ),
        metric(
            "engine.bound_tightness",
            "ratio",
            per(counts.tuples_fetched, counts.answered_bound),
        ),
        metric("engine.cache_hit_share", "ratio", load.cache_hit_share),
        metric(
            "engine.cache_evictions",
            "count",
            stat(&stats_head, "cache_evictions"),
        ),
        metric(
            "engine.queued_share",
            "ratio",
            stat(&stats_head, "queued") / submitted,
        ),
        metric(
            "engine.rejected_share",
            "ratio",
            stat(&stats_head, "rejected") / submitted,
        ),
        metric("storage.probe_unit_ns", "ns", probes.unit_ns),
        metric("storage.probe_list_ns", "ns", probes.list_ns),
        metric("storage.ns_per_tuple", "ns", probes.ns_per_tuple),
        // An estimate: what the probes above would cost for the tuples the replay
        // fetched, against the time the stand-alone executions took in total.
        metric(
            "storage.est_share",
            "ratio",
            per_f(
                counts.tuples_fetched as f64 * probes.ns_per_tuple,
                solo_total_ns as f64,
            ),
        ),
        windowed(
            "harness.generator_lag_p99_us",
            "us",
            load.generator_lag_p99_us,
        ),
        metric(
            "harness.trace_overhead_share",
            "ratio",
            (traced_ns as f64 - untraced_ns as f64) / untraced_ns as f64,
        ),
        metric(
            "harness.window_spread",
            "ratio",
            load.throughput_qps.spread(),
        ),
        metric(
            "harness.samples_per_window",
            "count",
            load.samples_per_window,
        ),
        metric(
            "harness.frontend_share",
            "ratio",
            spans.median_of(|s| {
                let front: f64 = FRONT_END.iter().filter_map(|n| s.get(n)).sum::<u64>() as f64;
                s.get(ROOT).map(|&root| front / root as f64)
            }),
        ),
        metric(
            "tuples_fetched_per_answer",
            "tuples",
            load.tuples_fetched_per_answer,
        ),
        metric(
            "failed_share",
            "ratio",
            per(load.measured_failed, load.measured),
        ),
        windowed("latency_p50_us", "us", load.latency_p50_us),
        tail,
        windowed("point_latency_p99_us", "us", load.point_latency_p99_us),
        windowed("reject_latency_p50_us", "us", load.reject_latency_p50_us),
    ])
}

fn run(args: &Args) -> Result<bool, Failure> {
    let spec = args.spec;
    let run_started = Instant::now();
    // The daemon and the in-process store read BEA_* themselves; only the workload sets
    // them. Nothing else runs in this process yet, so changing the environment is safe.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("BEA_") {
            std::env::remove_var(key);
        }
    }
    if spec.shards > 1 {
        std::env::set_var("BEA_SHARDS", spec.shards.to_string());
    }
    std::fs::create_dir_all(&args.out)?;

    let shared = bead::server::accidents_store(STORE_TUPLES, STORE_SEED)?;
    let store = shared.store();
    let config = bea_workload::accidents::AccidentsConfig::with_total_tuples(STORE_TUPLES, 0);
    let domain = Domain {
        accidents: store.database().relation("Accident")?.len() as i64,
        days: config.num_days,
        districts: config.num_districts,
    };

    // Tracing off: set up several times and report the median. The traced run reports
    // no set-up time and starts the daemon once.
    let mut setups = Vec::new();
    let daemon = loop {
        let daemon = Daemon::spawn(&args.bead, &args.out, spec, args.daemon_cpu)?;
        setups.push(daemon.setup.as_secs_f64());
        if args.trace || setups.len() == SETUPS {
            break daemon;
        }
        daemon.shutdown()?;
    };

    let set_up_secs = run_started.elapsed().as_secs_f64();
    let started = Instant::now();
    let drive = if spec.open_loop {
        load::open_loop
    } else {
        load::closed_loop
    };
    let samples = drive(daemon.socket(), spec, domain, args.seed, args.measure);
    let load = load::summarize(&samples, args.measure);
    let load_secs = started.elapsed().as_secs_f64();
    let mut failures = (load.attempted, load.failed);

    let metrics = if args.trace {
        per_layer(args, &daemon, &shared, domain, &load, &mut failures)?
    } else {
        let (attempted, failed) = oracle::check(daemon.socket(), store, spec, domain, args.seed)?;
        failures.0 += attempted;
        failures.1 += failed;
        end_to_end(&setups, &load, daemon.peak_rss_mb()?)
    };
    daemon.shutdown()?;

    let (attempted, failed) = failures;
    println!(
        "workload {} · seed {} · {} s measured in {} windows after {:.1} s warm-up \
         (set-up {set_up_secs:.1} s, load {load_secs:.1} s, run {:.1} s) · trace {} · harness on {} core(s), daemon {}",
        spec.name,
        args.seed,
        args.measure.as_secs(),
        load::WINDOWS,
        load::warm_up(args.measure).as_secs_f64(),
        run_started.elapsed().as_secs_f64(),
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(0, usize::from),
        args.daemon_cpu.map_or_else(
            || "unpinned".to_owned(),
            |cpu| format!("pinned to cpu {cpu}")
        ),
    );
    for m in &metrics {
        println!(
            "  {:<32} {:>16.4} {:<7} {}",
            m.name, m.value, m.unit, m.note
        );
    }
    println!(
        "  requests attempted {attempted} failed {failed} \
         ({:.0} samples per window)",
        load.samples_per_window
    );
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        body.join(", ")
    );
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("beabench: {message}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        // The result line is out and says `"correct": false`; the exit code agrees.
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("beabench: {error}");
            ExitCode::FAILURE
        }
    }
}
