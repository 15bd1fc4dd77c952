//! The traced pass: the request stream replayed in process through the same public
//! functions `BeadServer::run_query` calls, each wrapped in a span, plus stand-alone
//! re-measurements of the steps `Session::submit` hides and probes of the store.
//! Layers carry the crate names: `bead`, `parser`, `core`, `engine`, `storage`.

use crate::stats::median;
use crate::trace::{Span, Tracer};
use crate::workload::{Class, Req, Spec, Verdict, DAEMON_THREADS};
use bea_core::cover::{coverage, ucq_coverage};
use bea_core::plan::{
    bounded_plan, bounded_plan_ucq, lower_plan_with, CostTicket, LowerOptions, QueryPlan,
};
use bea_core::query::Query;
use bea_core::reason::ReasonConfig;
use bea_core::{AccessSchema, Value};
use bea_engine::session::{Rejection, Session, SessionConfig, SharedStore, SubmitError};
use bea_engine::{execute_physical_on, AccessStats, ExecOptions, Table};
use bea_storage::Store;
use bead::{Reply, Request};
use std::collections::HashMap;
use std::time::Instant;

/// The root span of one replayed request.
pub const ROOT: &str = "request";
/// Spans whose sum is the front end: the work done before the executor starts. Lowering
/// and pricing are taken from their stand-alone spans and not from `engine.submit`: on
/// one core a woken worker preempts the submitting thread, so `submit` may contain the
/// execution.
pub const FRONT_END: [&str; 5] = [
    "bead.request_parse",
    "parser.parse",
    "core.plan",
    "core.lower",
    "core.ticket",
];

/// The body lines of an `OK` reply, formatted as the daemon formats them.
pub fn format_rows(table: &Table) -> Vec<String> {
    table
        .rows()
        .iter()
        .map(|row| {
            row.iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\t")
        })
        .collect()
}

fn plan_for(query: &Query, schema: &AccessSchema) -> Result<QueryPlan, String> {
    match query {
        Query::Cq(cq) => bounded_plan(cq, schema),
        Query::Ucq(ucq) => bounded_plan_ucq(ucq, schema, &ReasonConfig::default()),
        _ => return Err("only CQ and UCQ queries are served".to_owned()),
    }
    .map_err(|error| error.to_string())
}

/// What serving one request in process produced, for the counts.
#[derive(Default)]
struct Served {
    verdict: Option<Verdict>,
    /// Priced bound and pipeline count, for admitted and refused queries alike.
    ticket: Option<(u64, usize)>,
    stats: Option<AccessStats>,
    reply_bytes: usize,
}

fn wire_bytes(tracer: &mut Tracer, n: u32, root: u32, make: impl FnOnce() -> Reply) -> usize {
    tracer.timed(n, Some(root), "bead.reply_wire", || make().wire().len())
}

/// An in-process twin of the daemon: the same store and a session configured as
/// `bead` configures its own.
pub struct InProcess {
    store: SharedStore,
    session: Session,
    lower: LowerOptions,
}

impl InProcess {
    pub fn new(store: SharedStore, spec: &Spec) -> Self {
        let session = Session::new(
            store.clone(),
            SessionConfig::new()
                .with_threads(DAEMON_THREADS)
                .with_fetch_budget(spec.fetch_budget)
                .with_cache_budget_rows(spec.cache_rows),
        );
        // The options `Session::submit` lowers with.
        let lower = LowerOptions::new()
            .with_exchange_parallelism(DAEMON_THREADS > 1)
            .with_shard_fanout(store.store().shard_count());
        InProcess {
            store,
            session,
            lower,
        }
    }

    /// `BeadServer::run_query`, step for step, under spans.
    fn serve(&self, tracer: &mut Tracer, n: u32, line: &str) -> Served {
        let store = self.store.store();
        let root = tracer.open(n, None, ROOT);
        let parent = Some(root);
        let mut served = Served::default();
        served.reply_bytes = 'reply: {
            let parsed = tracer.timed(n, parent, "bead.request_parse", || Request::parse(line));
            let text = match parsed {
                Ok(Request::Query(text)) => text,
                Ok(other) => {
                    break 'reply wire_bytes(tracer, n, root, || {
                        Reply::err(format!("not a query: {other:?}"))
                    })
                }
                Err(message) => break 'reply wire_bytes(tracer, n, root, || Reply::err(message)),
            };
            let catalog = store.database().catalog();
            let query = match tracer.timed(n, parent, "parser.parse", || {
                bea_parser::parse_query(catalog, &text)
            }) {
                Ok(query) => query,
                Err(error) => {
                    served.verdict = Some(Verdict::ErrParse);
                    break 'reply wire_bytes(tracer, n, root, || {
                        Reply::err(format!("parse: {error}"))
                    });
                }
            };
            let planned = tracer.timed(n, parent, "core.plan", || plan_for(&query, store.schema()));
            let plan = match planned {
                Ok(plan) => plan,
                Err(error) => {
                    served.verdict = Some(Verdict::ErrPlan);
                    break 'reply wire_bytes(tracer, n, root, || {
                        Reply::err(format!("plan: {error}"))
                    });
                }
            };
            let submitted = tracer.timed(n, parent, "engine.submit", || self.session.submit(&plan));
            let handle = match submitted {
                Ok(handle) => handle,
                Err(SubmitError::Rejected { ticket, rejection }) => {
                    served.verdict = Some(Verdict::Reject);
                    served.ticket = Some((ticket.fetch_bound, ticket.pipelines));
                    break 'reply wire_bytes(tracer, n, root, || match rejection {
                        Rejection::FetchBound { bound, budget } => Reply::reject(format!(
                            "query={} fetch_bound={bound} budget={budget}",
                            ticket.query_name
                        )),
                        Rejection::AllocSurface { surface, limit } => Reply::reject(format!(
                            "query={} surface={surface} limit={limit}",
                            ticket.query_name
                        )),
                    });
                }
                Err(SubmitError::Invalid(error)) => {
                    break 'reply wire_bytes(tracer, n, root, || {
                        Reply::err(format!("submit: {error}"))
                    })
                }
            };
            let (fetch_bound, alloc_surface) =
                (handle.ticket().fetch_bound, handle.ticket().alloc_surface);
            served.ticket = Some((fetch_bound, handle.ticket().pipelines));
            let (table, stats) = match tracer.timed(n, parent, "engine.wait", || handle.wait()) {
                Ok(output) => output,
                Err(error) => {
                    break 'reply wire_bytes(tracer, n, root, || {
                        Reply::err(format!("execute: {error}"))
                    })
                }
            };
            let body = tracer.timed(n, parent, "bead.reply_format", || format_rows(&table));
            served.verdict = Some(Verdict::Ok);
            let bytes = wire_bytes(tracer, n, root, || {
                Reply::ok(
                    format!(
                        "rows={} fetch_bound={fetch_bound} alloc_surface={alloc_surface} \
                         tuples_fetched={} values_cloned={} allocs_per_probe={} \
                         cache_hits={} rows_served_from_cache={}",
                        body.len(),
                        stats.tuples_fetched,
                        stats.values_cloned,
                        stats.allocs_per_probe,
                        stats.cache_hits,
                        stats.rows_served_from_cache,
                    ),
                    body,
                )
            });
            served.stats = Some(stats);
            bytes
        };
        tracer.close(root);
        served
    }

    /// Replay `reqs` sequentially; returns the wall time spent serving and the counts.
    /// With a tracer that is off this is the untraced reference of the same code.
    pub fn replay(&self, tracer: &mut Tracer, reqs: &[Req]) -> (u64, Counts) {
        let mut counts = Counts::default();
        let started = Instant::now();
        for (n, req) in reqs.iter().enumerate() {
            let served = self.serve(tracer, n as u32, &req.line);
            counts.add(req.class, &served);
        }
        (started.elapsed().as_nanos() as u64, counts)
    }

    /// A pass of its own for the steps `bounded_plan` and `Session::submit` run
    /// internally, each called once more on its own under a parentless span: coverage
    /// (a part of `core.plan`), lowering and pricing (parts of `engine.submit`), and the
    /// physical plan executed on one thread with no session. Kept apart from
    /// [`InProcess::replay`] so that it cannot disturb the requests being timed there.
    pub fn remeasure(&self, tracer: &mut Tracer, reqs: &[Req]) {
        let store = self.store.store();
        let schema = store.schema();
        let solo = ExecOptions::new().with_threads(1);
        for (n, req) in reqs.iter().enumerate() {
            let n = n as u32;
            let Ok(Request::Query(text)) = Request::parse(&req.line) else {
                continue;
            };
            let Ok(query) = bea_parser::parse_query(store.database().catalog(), &text) else {
                continue;
            };
            match &query {
                Query::Cq(cq) => tracer.timed(n, None, "core.coverage", || {
                    std::hint::black_box(coverage(cq, schema));
                }),
                Query::Ucq(ucq) => tracer.timed(n, None, "core.coverage", || {
                    let _ =
                        std::hint::black_box(ucq_coverage(ucq, schema, &ReasonConfig::default()));
                }),
                _ => {}
            }
            let Ok(plan) = plan_for(&query, schema) else {
                continue;
            };
            let lowered = tracer.timed(n, None, "core.lower", || {
                lower_plan_with(&plan, &self.lower)
            });
            let Ok(physical) = lowered else { continue };
            tracer.timed(n, None, "core.ticket", || {
                std::hint::black_box(CostTicket::derive(&plan, schema, store.size(), &physical));
            });
            if req.class.expected() == Verdict::Ok {
                tracer.timed(n, None, "engine.execute_solo", || {
                    let _ = std::hint::black_box(execute_physical_on(&physical, store, &solo));
                });
            }
        }
    }
}

/// Counts taken at the layer boundaries of the in-process replay.
#[derive(Debug, Default)]
pub struct Counts {
    pub requests: u64,
    /// Requests whose in-process verdict was not the expected one.
    pub wrong_verdict: u64,
    pub priced: u64,
    pub fetch_bound: u64,
    pub pipelines: u64,
    pub answered: u64,
    /// Σ fetch bound over answered requests (the denominator of tightness).
    pub answered_bound: u64,
    pub tuples_fetched: u64,
    pub values_cloned: u64,
    pub allocs_per_probe: u64,
    pub peak_rows_resident: u64,
    pub reply_bytes: u64,
}

impl Counts {
    fn add(&mut self, class: Class, served: &Served) {
        self.requests += 1;
        self.wrong_verdict += u64::from(served.verdict != Some(class.expected()));
        self.reply_bytes += served.reply_bytes as u64;
        if let Some((bound, pipelines)) = served.ticket {
            self.priced += 1;
            self.fetch_bound += bound;
            self.pipelines += pipelines as u64;
        }
        if let (Some(stats), Some((bound, _))) = (&served.stats, served.ticket) {
            self.answered += 1;
            self.answered_bound += bound;
            self.tuples_fetched += stats.tuples_fetched;
            self.values_cloned += stats.values_cloned;
            self.allocs_per_probe += stats.allocs_per_probe;
            self.peak_rows_resident += stats.peak_rows_resident;
        }
    }
}

/// Span durations grouped per request, for the medians and the paired differences.
pub struct PerRequest(Vec<HashMap<&'static str, u64>>);

impl PerRequest {
    pub fn of(spans: &[Span], requests: usize) -> Self {
        let mut per_request = vec![HashMap::new(); requests];
        for span in spans {
            per_request[span.request as usize].insert(span.name, span.duration_ns());
        }
        PerRequest(per_request)
    }

    /// Median over the requests for which `f` yields a value, in the unit `f` returns.
    pub fn median_of(&self, f: impl Fn(&HashMap<&'static str, u64>) -> Option<f64>) -> f64 {
        median(&self.0.iter().filter_map(f).collect::<Vec<_>>())
    }

    /// Median duration of the span `name`, in µs, over the requests that have it.
    pub fn median_us(&self, name: &'static str) -> f64 {
        self.median_of(|spans| spans.get(name).map(|&ns| ns as f64 / 1e3))
    }

    /// Median of `Σ plus − Σ minus` in µs over the requests that have every span named.
    pub fn median_diff_us(&self, plus: &[&'static str], minus: &[&'static str]) -> f64 {
        self.median_of(|spans| {
            let sum = |names: &[&'static str]| {
                names
                    .iter()
                    .map(|name| spans.get(name).map(|&ns| ns as f64))
                    .sum::<Option<f64>>()
            };
            Some((sum(plus)? - sum(minus)?) / 1e3)
        })
    }
}

/// The keys the plans of `reqs` probe, constraint by constraint, found by walking the
/// access schema the way Q0's plan does: ψ1 by day → ψ3 by each accident → ψ2 by the
/// accidents of the district → ψ4 by each vehicle.
struct ProbeKeys {
    /// (constraint index, key) of the bound-1 constraints ψ3 and ψ4.
    unit: Vec<(usize, Vec<Value>)>,
    /// (constraint index, key) of the posting-list constraints ψ1 and ψ2.
    list: Vec<(usize, Vec<Value>)>,
}

const PSI1: usize = 0;
const PSI2: usize = 1;
const PSI3: usize = 2;
const PSI4: usize = 3;

fn probe_keys(store: Store<'_>, reqs: &[Req]) -> ProbeKeys {
    let mut keys = ProbeKeys {
        unit: Vec::new(),
        list: Vec::new(),
    };
    let fetch = |constraint: usize, key: &[Value]| {
        store
            .fetch_iter(constraint, key)
            .expect("ψ1–ψ4 exist in the accidents schema")
            .0
    };
    for req in reqs {
        let (district, day_key) = match (req.class, req.key.as_slice()) {
            (Class::Point, key) => {
                keys.unit.push((PSI3, key.to_vec()));
                continue;
            }
            (Class::Q0, [district, day]) => (Some(district), vec![day.clone()]),
            (Class::DayScan, key) => (None, key.to_vec()),
            // Refused and malformed requests never reach the store.
            _ => continue,
        };
        for accident in fetch(PSI1, &day_key) {
            keys.unit.push((PSI3, vec![accident[0].clone()]));
            if district == Some(&accident[1]) {
                let aid_key = vec![accident[0].clone()];
                for casualty in fetch(PSI2, &aid_key) {
                    keys.unit.push((PSI4, vec![casualty[3].clone()]));
                }
                keys.list.push((PSI2, aid_key));
            }
        }
        keys.list.push((PSI1, day_key));
    }
    keys
}

/// Store probe costs over the workload's own keys.
#[derive(Debug, Default)]
pub struct StorageProbes {
    pub unit_ns: f64,
    pub list_ns: f64,
    pub ns_per_tuple: f64,
}

/// Time `fetch_into_columns` over the keys the first `reqs` touch: per bound-1 probe,
/// per posting-list probe, and per tuple over both — each the median of five rounds.
pub fn storage_probes(store: Store<'_>, reqs: &[Req]) -> StorageProbes {
    const ROUNDS: usize = 5;
    // Positions of the constraint's Y attributes in its relation.
    let positions: [&[usize]; 4] = [&[0], &[3], &[1, 2], &[1, 2]];
    let keys = probe_keys(store, reqs);
    let mut out = vec![Vec::new(), Vec::new()];
    let mut round = |set: &[(usize, Vec<Value>)]| {
        let started = Instant::now();
        let mut tuples = 0u64;
        for (constraint, key) in set {
            let positions = positions[*constraint];
            out.iter_mut().for_each(Vec::clear);
            tuples += store
                .fetch_into_columns(*constraint, key, positions, &mut out[..positions.len()])
                .expect("ψ1–ψ4 exist in the accidents schema")
                .0;
        }
        std::hint::black_box(&out);
        (started.elapsed().as_nanos() as f64, tuples)
    };
    let (mut unit, mut list, mut per_tuple) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        let (unit_ns, unit_tuples) = round(&keys.unit);
        let (list_ns, list_tuples) = round(&keys.list);
        unit.push(unit_ns / keys.unit.len().max(1) as f64);
        list.push(list_ns / keys.list.len().max(1) as f64);
        per_tuple.push((unit_ns + list_ns) / (unit_tuples + list_tuples).max(1) as f64);
    }
    StorageProbes {
        unit_ns: if keys.unit.is_empty() {
            0.0
        } else {
            median(&unit)
        },
        list_ns: if keys.list.is_empty() {
            0.0
        } else {
            median(&list)
        },
        ns_per_tuple: median(&per_tuple),
    }
}
