//! The daemon side: a [`Session`] behind a Unix-socket accept loop, and the table of
//! prepared plans that lets a `QUERY` pay for planning once per template.

use crate::protocol::{Reply, Request};
use bea_core::plan::{bounded_plan, bounded_plan_ucq};
use bea_core::query::Query;
use bea_core::reason::ReasonConfig;
use bea_core::Value;
use bea_engine::session::{
    PreparedPlan, Rejection, Session, SessionConfig, SharedStore, SubmitError,
};
use bea_parser::Skeleton;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::Duration;

/// The longest request line `bead` reads, newline included. A connection that sends
/// more without a newline is answered with an `ERR` and closed, so no client can make
/// the daemon buffer an unbounded line.
pub const MAX_REQUEST_LINE_BYTES: usize = 64 * 1024;

/// The most templates the plan table holds. A template that would be one more finds the
/// table dropped and starts its refill: clients that rotate through more than this
/// many rule shapes plan as often as they did without a table, and no worse.
pub const MAX_PLAN_TEMPLATES: usize = 1024;

/// The longest template key ([`Skeleton::key`]) the plan table stores; a longer one is
/// planned per request, like every query was before there was a table. With
/// [`MAX_PLAN_TEMPLATES`] this caps the client text the table retains at 4 MiB.
pub const MAX_TEMPLATE_KEY_BYTES: usize = 4 * 1024;

/// How long the accept loop waits after a failed `accept` before it tries again. An
/// accept that fails for want of a file descriptor fails again at once until a
/// connection closes; without the pause the loop would spin a core meanwhile.
const ACCEPT_RETRY_PAUSE: Duration = Duration::from_millis(10);

/// Daemon configuration: where to listen and how to configure the session.
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// The Unix socket path to bind. A stale socket file is removed first.
    pub socket: PathBuf,
    /// Aggregate fetch budget (0 = unlimited).
    pub fetch_budget: u64,
}

/// The daemon: a bound listener plus the session it fronts.
pub struct BeadServer {
    session: Session,
    listener: UnixListener,
    socket: PathBuf,
    store: SharedStore,
    shutdown: AtomicBool,
    /// Prepared plans by template key. The keys are client text, so the map keeps
    /// std's keyed SipHash.
    templates: RwLock<HashMap<Box<str>, Arc<PreparedPlan>>>,
    /// `QUERY` requests served from `templates`, and all the others.
    plan_hits: AtomicU64,
    plan_misses: AtomicU64,
}

impl BeadServer {
    /// Bind the socket and start a session over `store`.
    pub fn bind(store: SharedStore, config: &ServerConfig) -> std::io::Result<Self> {
        // A stale socket file from a dead daemon would make bind fail; a *live*
        // daemon holds the listener, so removing first is safe for the smoke
        // use-case this serves.
        let _ = std::fs::remove_file(&config.socket);
        let listener = UnixListener::bind(&config.socket)?;
        let session = Session::new(
            store.clone(),
            SessionConfig::new().with_fetch_budget(config.fetch_budget),
        );
        Ok(BeadServer {
            session,
            listener,
            socket: config.socket.clone(),
            store,
            shutdown: AtomicBool::new(false),
            templates: RwLock::default(),
            plan_hits: AtomicU64::new(0),
            plan_misses: AtomicU64::new(0),
        })
    }

    /// The session's effective aggregate fetch budget (`None` = unlimited).
    pub fn fetch_budget(&self) -> Option<u64> {
        self.session.fetch_budget()
    }

    /// Exact `(tuple_bytes, index_bytes)` of the store (string payloads excluded).
    pub fn footprint(&self) -> (u64, u64) {
        self.store.store().footprint()
    }

    /// Serve connections until a `SHUTDOWN` request arrives. Each connection gets
    /// its own scoped thread, which runs the connection's queries, so queries from
    /// concurrent clients run side by side under the session's fetch budget.
    pub fn serve(&self) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            for stream in self.listener.incoming() {
                if self.shutdown.load(Ordering::Acquire) {
                    break;
                }
                match stream {
                    Ok(stream) => {
                        scope.spawn(move || self.handle(stream));
                    }
                    Err(_) => std::thread::sleep(ACCEPT_RETRY_PAUSE),
                }
            }
        });
        let _ = std::fs::remove_file(&self.socket);
        Ok(())
    }

    /// Serve one connection: one request per line, one framed reply each. Reads and
    /// writes both go through `&stream`, so a connection holds one file descriptor.
    fn handle(&self, stream: UnixStream) {
        let mut writer = &stream;
        let mut reader = BufReader::new(&stream);
        // One line buffer for the connection's lifetime, not one per request.
        let mut line: Vec<u8> = Vec::new();
        loop {
            line.clear();
            // One byte past the cap tells an over-long line from one that just fits.
            let mut capped = (&mut reader).take(MAX_REQUEST_LINE_BYTES as u64 + 1);
            match capped.read_until(b'\n', &mut line) {
                Ok(0) | Err(_) => break,
                Ok(_) => {}
            }
            if line.len() > MAX_REQUEST_LINE_BYTES {
                // The rest of the line is unread and unbounded: answer and hang up.
                let reply = Reply::err(format!(
                    "request line exceeds {MAX_REQUEST_LINE_BYTES} bytes"
                ));
                let _ = writer.write_all(reply.wire().as_bytes());
                break;
            }
            let reply = match std::str::from_utf8(&line) {
                Ok(line) if line.trim().is_empty() => continue,
                Ok(line) => match Request::parse(line) {
                    Ok(request) => self.dispatch(request),
                    Err(message) => Reply::err(message),
                },
                // The line was read up to its newline, so the next request starts clean.
                Err(_) => Reply::err("request is not valid UTF-8"),
            };
            if writer.write_all(reply.wire().as_bytes()).is_err() {
                break;
            }
            let _ = writer.flush();
            if self.shutdown.load(Ordering::Acquire) {
                // The SHUTDOWN reply is out; unblock the accept loop so `serve`
                // can observe the flag and exit.
                let _ = UnixStream::connect(&self.socket);
                break;
            }
        }
    }

    /// Answer one request: what a connection does with each line it reads.
    pub fn dispatch(&self, request: Request) -> Reply {
        match request {
            Request::Ping => Reply::ok("pong", Vec::new()),
            Request::Stats => {
                let stats = self.session.admission_stats();
                let (store_bytes, index_bytes) = self.footprint();
                let plan_templates = self.templates().len();
                Reply::ok(
                    format!(
                        "submitted={} admitted={} queued={} rejected={} completed={} failed={} \
                         inflight_bound={} peak_admitted_bound={} budget={} \
                         plan_templates={plan_templates} plan_hits={} plan_misses={} \
                         store_bytes={store_bytes} index_bytes={index_bytes}",
                        stats.submitted,
                        stats.admitted,
                        stats.queued,
                        stats.rejected,
                        stats.completed,
                        stats.failed,
                        stats.inflight_bound,
                        stats.peak_admitted_bound,
                        stats
                            .budget
                            .map_or_else(|| "unlimited".to_owned(), |b| b.to_string()),
                        self.plan_hits.load(Ordering::Relaxed),
                        self.plan_misses.load(Ordering::Relaxed),
                    ),
                    Vec::new(),
                )
            }
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::Release);
                Reply::ok("bye", Vec::new())
            }
            Request::Query(text) => self.run_query(&text),
        }
    }

    /// Split → look up or prepare → admit → run (see the crate docs). The text's
    /// constants come out first; what is left names a template, whose plan is prepared
    /// the first time it is seen and afterwards run in place with each request's
    /// constants.
    fn run_query(&self, text: &str) -> Reply {
        let skeleton = Skeleton::of(text)
            .ok()
            .filter(|skeleton| skeleton.key.len() <= MAX_TEMPLATE_KEY_BYTES);
        if let Some(Skeleton { key, literals }) = skeleton {
            let hit = self.templates().get(key.as_str()).cloned();
            if let Some(prepared) = hit {
                self.plan_hits.fetch_add(1, Ordering::Relaxed);
                return self.run_prepared(&prepared, literals);
            }
            self.plan_misses.fetch_add(1, Ordering::Relaxed);
            let catalog = self.store.store().database().catalog();
            if let Ok(prepared) = self.prepare(bea_parser::parse_template(catalog, text)) {
                let prepared = Arc::new(prepared);
                let mut templates = self
                    .templates
                    .write()
                    .expect("no code panics holding the template table");
                // A full table is emptied, and its plans freed once the lock is gone.
                let full = templates.len() >= MAX_PLAN_TEMPLATES;
                let dropped = full.then(|| std::mem::take(&mut *templates));
                templates.insert(key.into_boxed_str(), Arc::clone(&prepared));
                drop(templates);
                drop(dropped);
                return self.run_prepared(&prepared, literals);
            }
        } else {
            self.plan_misses.fetch_add(1, Ordering::Relaxed);
        }
        // A text the lexer refuses, a key too long to keep, or a template that does not
        // parse or plan: nothing is stored, and the reply — an `ERR` naming the literal
        // text's own line, column and constants, if it is one — comes off the text.
        self.query_unprepared(text)
    }

    /// Serve `text` as written, constants in place and no table involved: parse, plan,
    /// prepare and run for this request alone. What [`Request::Query`] falls back to
    /// for a text it cannot serve from a template, and what every template-served
    /// reply must equal byte for byte.
    pub fn query_unprepared(&self, text: &str) -> Reply {
        let catalog = self.store.store().database().catalog();
        match self.prepare(bea_parser::parse_query(catalog, text)) {
            Ok(prepared) => self.run_prepared(&prepared, Vec::new()),
            Err(reply) => reply,
        }
    }

    fn templates(&self) -> std::sync::RwLockReadGuard<'_, HashMap<Box<str>, Arc<PreparedPlan>>> {
        self.templates
            .read()
            .expect("no code panics holding the template table")
    }

    /// Synthesize a bounded plan for a parsed query and prepare it for the session.
    /// Every failure mode maps to a distinct reply so clients can tell a syntax error
    /// from an uncovered query from a plan the store refuses.
    fn prepare(&self, parsed: bea_core::error::Result<Query>) -> Result<PreparedPlan, Reply> {
        let store = self.store.store();
        let query = parsed.map_err(|error| Reply::err(format!("parse: {error}")))?;
        let plan = match &query {
            Query::Cq(cq) => bounded_plan(cq, store.schema()),
            Query::Ucq(ucq) => bounded_plan_ucq(ucq, store.schema(), &ReasonConfig::default()),
            _ => {
                return Err(Reply::err(
                    "plan: only CQ and UCQ queries are served; rewrite ∃FO⁺/FO queries first",
                ))
            }
        }
        .map_err(|error| Reply::err(format!("plan: {error}")))?;
        self.session
            .prepare(&plan)
            .map_err(|error| Reply::err(format!("submit: {error}")))
    }

    /// Admit `prepared` with a text's `literals` for its placeholders and run it on this
    /// connection's thread, and format the outcome: an admission rejection, an execution error and a served
    /// query each get their own reply. The plan reads the first
    /// [`PreparedPlan::placeholders`] literal classes: planning can decide a class
    /// without reading it (`x = 1, x = 2` is empty whatever the two values are, `4 = 4`
    /// holds for every value), and when such classes are the last ones the plan takes
    /// fewer constants than the text has.
    fn run_prepared(&self, prepared: &PreparedPlan, mut literals: Vec<Value>) -> Reply {
        let ticket = prepared.ticket();
        literals.truncate(prepared.placeholders());
        // A panicking operator fails only its own query; keep the daemon up and
        // surface the payload as an ERR reply.
        let run = || self.session.run_prepared(prepared, &literals);
        let ran = match catch_unwind(AssertUnwindSafe(run)) {
            Ok(ran) => ran,
            Err(payload) => {
                let message = payload
                    .downcast_ref::<&str>()
                    .copied()
                    .map(str::to_owned)
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "opaque panic payload".to_owned());
                return Reply::err(format!("execute: query panicked: {message}"));
            }
        };
        match ran {
            Err(SubmitError::Rejected { ticket, rejection }) => match rejection {
                Rejection::FetchBound { bound, budget } => Reply::reject(format!(
                    "query={} fetch_bound={bound} budget={budget}",
                    ticket.query_name
                )),
                Rejection::AllocSurface { surface, limit } => Reply::reject(format!(
                    "query={} surface={surface} limit={limit}",
                    ticket.query_name
                )),
            },
            Err(SubmitError::Invalid(error)) => Reply::err(format!("submit: {error}")),
            Ok(Err(error)) => Reply::err(format!("execute: {error}")),
            Ok(Ok((table, stats))) => {
                let body = table.rows().iter().map(|row| body_line(row)).collect();
                // Formatted once, into a head long enough for any counts.
                let mut head = String::with_capacity(256);
                write!(
                    head,
                    "OK rows={} fetch_bound={} alloc_surface={} tuples_fetched={} \
                     values_cloned={} allocs_per_probe={} cache_hits={} \
                     rows_served_from_cache={}",
                    table.rows().len(),
                    ticket.fetch_bound,
                    ticket.alloc_surface,
                    stats.tuples_fetched,
                    stats.values_cloned,
                    stats.allocs_per_probe,
                    stats.cache_hits,
                    stats.rows_served_from_cache,
                )
                .expect("writing to a String cannot fail");
                Reply { head, body }
            }
        }
    }
}

/// One result row as a reply body line: the values' display forms, tab-separated,
/// written straight into the line's one `String`.
fn body_line(row: &[Value]) -> String {
    let mut line = String::with_capacity(16 * row.len());
    for (i, value) in row.iter().enumerate() {
        if i > 0 {
            line.push('\t');
        }
        write!(line, "{value}").expect("writing to a String cannot fail");
    }
    line
}

/// Build the daemon's default store: the generated accidents workload of Example
/// 1.1 at roughly `tuples` tuples, indexed under ψ1–ψ4.
pub fn accidents_store(tuples: u64, seed: u64) -> bea_core::error::Result<SharedStore> {
    let config = bea_workload::accidents::AccidentsConfig::with_total_tuples(tuples, seed);
    let db = bea_workload::accidents::generate(&config)?;
    let schema = bea_workload::accidents::access_schema(db.catalog());
    let store = bea_storage::IndexedDatabase::build(db, schema)?;
    Ok(SharedStore::from(store))
}

/// Hold the socket path helpers the two binaries share.
pub fn default_socket() -> PathBuf {
    std::env::temp_dir().join("bead.sock")
}

/// Resolve a `--socket` argument (or the default).
pub fn socket_from(arg: Option<&str>) -> PathBuf {
    arg.map_or_else(default_socket, |path| Path::new(path).to_path_buf())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client;
    use crate::protocol::{ReplyStatus, END};

    #[test]
    fn body_lines_are_tab_separated_display_forms() {
        assert_eq!(
            body_line(&[Value::int(7), Value::str("a b"), Value::Bool(true)]),
            "7\t\"a b\"\ttrue"
        );
        assert_eq!(body_line(&[]), "");
    }

    /// End-to-end over a real socket: accept, reject, stats, shutdown.
    #[test]
    fn serves_queries_rejections_and_shutdown_over_the_socket() {
        let socket = std::env::temp_dir().join(format!("bead-test-{}.sock", std::process::id()));
        let store = accidents_store(2_000, 0xBEAD).unwrap();
        let config = ServerConfig {
            socket: socket.clone(),
            fetch_budget: 10_000,
        };
        let server = BeadServer::bind(store, &config).unwrap();
        assert_eq!(server.fetch_budget(), Some(10_000));
        std::thread::scope(|scope| {
            let serving = scope.spawn(|| server.serve());

            let ping = client::request(&socket, &Request::Ping).unwrap();
            assert_eq!(ping.head, "OK pong");

            // Anchored on an accident id: fetch bound 1 via ψ3 — admitted.
            let cheap = Request::Query("Q(d) :- Accident(x, d, t), x = 1.".to_owned());
            let reply = client::request(&socket, &cheap).unwrap();
            assert_eq!(reply.status(), ReplyStatus::Ok, "head: {}", reply.head);
            assert!(reply.head.contains("fetch_bound=1"), "head: {}", reply.head);
            assert!(reply.head.contains("allocs_per_probe="));
            assert_eq!(reply.body.len(), 1, "one district per accident id");

            // The same anchored query again: the same reply, byte for byte — the
            // repeat fetches what the first request fetched.
            let repeat = client::request(&socket, &cheap).unwrap();
            assert_eq!(repeat.wire(), reply.wire());
            assert!(
                repeat
                    .head
                    .ends_with(" cache_hits=0 rows_served_from_cache=0"),
                "head: {}",
                repeat.head
            );

            // Q0's join chain prices far beyond 10_000 — rejected, deterministically.
            let expensive = Request::Query(
                r#"Q0(age) :- Accident(aid, "Queen's Park", "day-0001"),
                             Casualty(cid, aid, class, vid),
                             Vehicle(vid, driver, age)."#
                    .to_owned(),
            );
            let reply = client::request(&socket, &expensive).unwrap();
            assert_eq!(reply.status(), ReplyStatus::Reject, "head: {}", reply.head);
            assert!(reply.head.contains("budget=10000"), "head: {}", reply.head);

            // A parse error is an ERR, not a dead connection.
            let broken = Request::Query("Q(x) :- Nope(x).".to_owned());
            let reply = client::request(&socket, &broken).unwrap();
            assert_eq!(reply.status(), ReplyStatus::Err);

            let stats = client::request(&socket, &Request::Stats).unwrap();
            assert!(stats.head.contains("rejected=1"), "head: {}", stats.head);
            assert!(stats.head.contains("completed=2"), "head: {}", stats.head);
            assert!(stats.head.contains("budget=10000"), "head: {}", stats.head);
            assert!(!stats.head.contains("cache"), "head: {}", stats.head);
            // The repeat was bound into the plan the first request prepared; the
            // rejected rule's plan is kept too, the malformed one's is not.
            assert!(
                stats
                    .head
                    .contains(" plan_templates=2 plan_hits=1 plan_misses=3 "),
                "head: {}",
                stats.head
            );
            let (store_bytes, index_bytes) = server.footprint();
            assert!(store_bytes > 0 && index_bytes > 0);
            assert!(
                stats.head.ends_with(&format!(
                    "store_bytes={store_bytes} index_bytes={index_bytes}"
                )),
                "head: {}",
                stats.head
            );

            let bye = client::request(&socket, &Request::Shutdown).unwrap();
            assert_eq!(bye.head, "OK bye");
            serving.join().unwrap().unwrap();
        });
        assert!(
            !socket.exists(),
            "the socket file is cleaned up on shutdown"
        );
    }

    /// A request line that is not UTF-8 is answered with an `ERR`, and the connection
    /// goes on serving the requests behind it.
    #[test]
    fn a_request_that_is_not_utf8_is_refused_and_the_connection_kept() {
        let socket =
            std::env::temp_dir().join(format!("bead-test-utf8-{}.sock", std::process::id()));
        let config = ServerConfig {
            socket: socket.clone(),
            ..ServerConfig::default()
        };
        let server = BeadServer::bind(accidents_store(500, 0xBEAD).unwrap(), &config).unwrap();
        std::thread::scope(|scope| {
            let serving = scope.spawn(|| server.serve());

            let mut stream = UnixStream::connect(&socket).unwrap();
            stream.write_all(b"QUERY \xff\xfe\n").unwrap();
            stream.write_all(b"PING\n").unwrap();
            let mut replies = BufReader::new(&stream).lines().map(Result::unwrap);
            assert_eq!(
                replies.next().as_deref(),
                Some("ERR request is not valid UTF-8")
            );
            assert_eq!(replies.next().as_deref(), Some(END));
            assert_eq!(replies.next().as_deref(), Some("OK pong"));
            assert_eq!(replies.next().as_deref(), Some(END));
            // `serve` returns only once every connection is closed.
            drop(replies);
            drop(stream);

            let bye = client::request(&socket, &Request::Shutdown).unwrap();
            assert_eq!(bye.head, "OK bye");
            serving.join().unwrap().unwrap();
        });
    }

    /// A newline-free megabyte is answered with an `ERR` and a closed connection after
    /// the daemon has read one line's worth of it, and the daemon keeps serving.
    #[test]
    fn an_oversized_request_line_is_refused_and_the_connection_closed() {
        let socket =
            std::env::temp_dir().join(format!("bead-test-line-{}.sock", std::process::id()));
        let config = ServerConfig {
            socket: socket.clone(),
            ..ServerConfig::default()
        };
        let server = BeadServer::bind(accidents_store(500, 0xBEAD).unwrap(), &config).unwrap();
        std::thread::scope(|scope| {
            let serving = scope.spawn(|| server.serve());

            let mut stream = UnixStream::connect(&socket).unwrap();
            // The daemon stops reading at the cap and hangs up, so the tail of the
            // write may fail; the reply is what counts.
            let _ = stream.write_all(&vec![b'a'; 1 << 20]);
            let mut head = String::new();
            BufReader::new(&stream).read_line(&mut head).unwrap();
            assert_eq!(
                head.trim_end(),
                format!("ERR request line exceeds {MAX_REQUEST_LINE_BYTES} bytes")
            );

            // A line that just fits is parsed as a request like any other.
            let mut fits = "QUERY ".to_owned();
            fits.push_str(&"x".repeat(MAX_REQUEST_LINE_BYTES - fits.len() - 1));
            fits.push('\n');
            assert_eq!(fits.len(), MAX_REQUEST_LINE_BYTES);
            let mut stream = UnixStream::connect(&socket).unwrap();
            stream.write_all(fits.as_bytes()).unwrap();
            let mut head = String::new();
            BufReader::new(&stream).read_line(&mut head).unwrap();
            assert!(head.starts_with("ERR parse:"), "head: {head}");
            // `serve` returns only once every connection is closed.
            drop(stream);

            let ping = client::request(&socket, &Request::Ping).unwrap();
            assert_eq!(ping.head, "OK pong");
            let bye = client::request(&socket, &Request::Shutdown).unwrap();
            assert_eq!(bye.head, "OK bye");
            serving.join().unwrap().unwrap();
        });
    }
}
