//! The plan-template table: a `QUERY` served from a prepared template is byte for byte
//! the reply the literal text gets, whatever the constants, the fetch cache or the
//! table's state; the lexer the table's keys come from cannot be made to panic.
//!
//! Seeded and dependency-free, in the style of the workspace's `tests/properties.rs`:
//! case `i` of a property derives everything from an `StdRng` seeded by a per-property
//! constant mixed with `i`, so a failure names the case that reproduces it.

use bea_core::access::AccessSchema;
use bea_core::plan::{bounded_plan, bounded_plan_ucq, PhysOp, PhysStep, PhysicalPlan, Predicate};
use bea_core::query::cq::{ConjunctiveQuery, Equality};
use bea_core::query::Query;
use bea_core::reason::ReasonConfig;
use bea_core::schema::Catalog;
use bea_core::Value;
use bea_engine::session::{Session, SessionConfig, SharedStore};
use bea_parser::lexer::{tokenize, TokenKind};
use bea_parser::{parse_query, parse_template, Skeleton};
use bea_storage::{Database, IndexedDatabase};
use bea_workload::{accidents, ecommerce, graph, querygen};
use bead::server::{MAX_PLAN_TEMPLATES, MAX_REQUEST_LINE_BYTES, MAX_TEMPLATE_KEY_BYTES};
use bead::{BeadServer, Reply, ReplyStatus, Request, ServerConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

/// Run `body` for `cases` deterministic cases, attributing any panic to its case.
fn run_cases(property: &str, tag: u64, cases: u64, mut body: impl FnMut(&mut StdRng)) {
    for case in 0..cases {
        let seed = tag ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = StdRng::seed_from_u64(seed);
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| body(&mut rng)));
        if let Err(panic) = outcome {
            eprintln!("property `{property}` failed at case {case} (rng seed {seed:#x})");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A daemon that is never served: requests go in through [`BeadServer::dispatch`]. It
/// still binds a socket, which is removed with it.
struct Daemon {
    server: BeadServer,
    socket: PathBuf,
}

impl Daemon {
    fn new(store: &SharedStore, cache_rows: u64, fetch_budget: u64) -> Daemon {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let socket = std::env::temp_dir().join(format!(
            "bead-templates-{}-{}.sock",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let config = ServerConfig {
            socket: socket.clone(),
            fetch_budget,
            cache_rows,
        };
        let server = BeadServer::bind(store.clone(), &config).expect("bind a test socket");
        Daemon { server, socket }
    }

    /// The reply of the template path: what a connection answers a `QUERY` line with.
    fn query(&self, text: &str) -> Reply {
        self.server.dispatch(Request::Query(text.to_owned()))
    }

    /// One counter of the `STATS` reply.
    fn stat(&self, name: &str) -> u64 {
        let head = self.server.dispatch(Request::Stats).head;
        let field = format!(" {name}=");
        let value = head.split_once(&field).expect(name).1;
        value.split(' ').next().unwrap().parse().expect(name)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.socket);
    }
}

/// `query` as text the parser reads back, with every constant passed through `constant`.
fn render(
    query: &ConjunctiveQuery,
    name: &str,
    constant: &mut dyn FnMut(&Value) -> Value,
) -> String {
    let names = |vars: &[bea_core::query::term::Var]| -> String {
        let names: Vec<&str> = vars.iter().map(|&v| query.var_name(v)).collect();
        names.join(", ")
    };
    let mut parts: Vec<String> = query
        .atoms()
        .iter()
        .map(|atom| format!("{}({})", atom.relation, names(&atom.args)))
        .collect();
    for equality in query.equalities() {
        parts.push(match equality {
            Equality::Vars(a, b) => format!("{} = {}", query.var_name(*a), query.var_name(*b)),
            Equality::Const(v, c) => format!("{} = {}", query.var_name(*v), literal(&constant(c))),
        });
    }
    format!("{name}({}) :- {}.", names(query.head()), parts.join(", "))
}

/// A constant in the surface syntax; strings in the lexer's own escapes.
fn literal(value: &Value) -> String {
    match value {
        Value::Str(text) => {
            let mut out = String::from("\"");
            for c in text.chars() {
                match c {
                    '"' | '\\' => out.extend(['\\', c]),
                    '\n' => out.push_str("\\n"),
                    '\t' => out.push_str("\\t"),
                    c => out.push(c),
                }
            }
            out + "\""
        }
        other => other.to_string(),
    }
}

/// The constants of `query`, in order of appearance.
fn constants(query: &ConjunctiveQuery) -> impl Iterator<Item = &Value> {
    query.equalities().iter().filter_map(|e| match e {
        Equality::Const(_, c) => Some(c),
        Equality::Vars(..) => None,
    })
}

/// `branches` as one text under the head name `name`, in `variants` versions that share
/// a template: the first carries the generated constants, each later one maps every
/// distinct constant to a fresh one of its kind — out of `pool`, or made up (negative
/// integers, strings that need escaping) — never merging two.
fn variants(
    branches: &[&ConjunctiveQuery],
    name: &str,
    pool: &[Value],
    variants: usize,
    rng: &mut StdRng,
) -> Vec<String> {
    (0..variants)
        .map(|variant| {
            let mut mapping: HashMap<Value, Value> = HashMap::new();
            let mut fresh = |from: &Value| -> Value {
                if variant == 0 || matches!(from, Value::Bool(_)) {
                    return from.clone();
                }
                if let Some(to) = mapping.get(from) {
                    return to.clone();
                }
                let same_kind = |v: &&Value| {
                    std::mem::discriminant(*v) == std::mem::discriminant(from)
                        && !mapping.values().any(|taken| taken == *v)
                };
                let candidates: Vec<&Value> = pool.iter().filter(same_kind).collect();
                let to = if candidates.is_empty() || rng.gen_bool(0.25) {
                    let n = mapping.len() as i64;
                    match from {
                        Value::Int(_) => Value::int(-1_000_000 - n),
                        _ => Value::str(format!("it's \"fresh\"\\\t#{n}\n")),
                    }
                } else {
                    candidates[rng.gen_range(0..candidates.len())].clone()
                };
                mapping.insert(from.clone(), to.clone());
                to
            };
            let rules: Vec<String> = branches
                .iter()
                .map(|branch| render(branch, name, &mut fresh))
                .collect();
            rules.join("\n")
        })
        .collect()
}

/// Random CQ and UCQ texts over `db`, each in three variants of one template.
fn family_texts(
    catalog: &Catalog,
    schema: &AccessSchema,
    db: &Database,
    seed: u64,
    rng: &mut StdRng,
) -> Vec<Vec<String>> {
    let config = querygen::QueryGenConfig {
        seed,
        ..querygen::QueryGenConfig::default()
    };
    let workload =
        querygen::random_workload_from_db(catalog, Some(schema), db, 8, &config).unwrap();
    let pool: Vec<Value> = workload.iter().flat_map(constants).cloned().collect();
    let mut classes: Vec<Vec<String>> = workload
        .iter()
        .map(|query| variants(&[query], query.name(), &pool, 3, rng))
        .collect();
    // Unions: every query with the next one of its arity that is covered when it is
    // (else with the next one at all, which may or may not be subsumed), constants
    // mapped jointly so one repeated across the branches stays repeated.
    for (i, first) in workload.iter().enumerate() {
        let covered = bea_core::cover::is_covered(first, schema);
        let mut later = workload[i + 1..]
            .iter()
            .filter(|q| q.arity() == first.arity());
        let second = later
            .clone()
            .find(|q| covered && bea_core::cover::is_covered(q, schema))
            .or_else(|| later.next());
        if let Some(second) = second {
            classes.push(variants(&[first, second], &format!("U{i}"), &pool, 3, rng));
        }
    }
    classes
}

/// Send every text of every class — a class is one template under different constants —
/// through the template path of one daemon and the literal path of another, with the
/// fetch cache off or on, and require identical reply bytes
/// (rows, row order, `fetch_bound`, `alloc_surface`, `tuples_fetched`, `values_cloned`,
/// `allocs_per_probe`, the cache counters; or the same `ERR` / `REJECT`), identical
/// session cache counters within the budget after every text, the bound plan to be
/// the literal text's plan step for step, and exactly the later texts of a stored class
/// to be hits. Returns how many texts were answered `OK`, and how many cache entries
/// the template path evicted.
fn assert_served_alike(
    store: &SharedStore,
    cache_rows: u64,
    fetch_budget: u64,
    classes: &[Vec<String>],
) -> (usize, u64) {
    let templated = Daemon::new(store, cache_rows, fetch_budget);
    let literal = Daemon::new(store, cache_rows, fetch_budget);
    let session = Session::new(store.clone(), SessionConfig::new());
    let view = store.store();
    let (catalog, schema) = (view.database().catalog(), view.schema());
    let plan = |query: &Query| match query {
        Query::Cq(cq) => bounded_plan(cq, schema),
        Query::Ucq(ucq) => bounded_plan_ucq(ucq, schema, &ReasonConfig::default()),
        _ => unreachable!("the parser builds CQs and UCQs"),
    };
    let mut stored: HashSet<String> = HashSet::new();
    let (mut hits, mut answered) = (0, 0);
    for text in classes.iter().flatten() {
        let corner = format!("{text:?} at cache {cache_rows}");
        let reply = templated.query(text);
        let expected = literal.server.query_unprepared(text);
        assert_eq!(
            reply.wire(),
            expected.wire(),
            "the replies differ for {corner}"
        );
        answered += usize::from(reply.status() == ReplyStatus::Ok);
        let cache = templated.server.cache_stats();
        assert_eq!(cache, literal.server.cache_stats(), "cache after {corner}");
        assert!(
            cache.resident_rows <= cache.budget_rows,
            "{corner} left the cache above its budget: {cache:?}"
        );
        let mut rows = HashSet::new();
        assert!(
            reply.body.iter().all(|line| rows.insert(line)),
            "a row repeats in the reply for {corner}"
        );

        // A text the lexer refuses has no skeleton, and an `ERR parse:` for a reply.
        let Ok(skeleton) = Skeleton::of(text) else {
            assert!(reply.head.starts_with("ERR parse: line "), "{corner}");
            continue;
        };
        let planned = ["ERR parse:", "ERR plan:", "ERR submit:"]
            .iter()
            .all(|refused| !reply.head.starts_with(refused));
        if stored.contains(&skeleton.key) {
            hits += 1;
        } else if planned {
            stored.insert(skeleton.key);
        }
        if planned {
            let template = plan(&parse_template(catalog, text).unwrap()).unwrap();
            let written = plan(&parse_query(catalog, text).unwrap()).unwrap();
            let (template, written) = (
                session.prepare(&template).unwrap(),
                session.prepare(&written).unwrap(),
            );
            let (template_plan, written_plan) = (template.physical(), written.physical());
            assert_eq!(
                bound_steps(template_plan, &skeleton.literals),
                written_plan.steps(),
                "the bound plan is not the literal plan of {corner}"
            );
            assert_eq!(template_plan.output(), written_plan.output(), "{corner}");
            assert_eq!(template_plan.query_name(), written_plan.query_name());
            assert_eq!(template.ticket(), written.ticket(), "ticket of {corner}");
        }
    }
    assert_eq!(templated.stat("plan_hits"), hits);
    assert_eq!(templated.stat("plan_templates"), stored.len() as u64);
    let texts = classes.iter().flatten().count() as u64;
    assert_eq!(templated.stat("plan_misses"), texts - hits);
    assert_eq!(literal.stat("plan_templates"), 0);
    (answered, templated.server.cache_stats().evictions)
}

/// The steps of `plan` with every value read the way a run given `values` reads it
/// ([`Value::bound`]): the plan a request served from the template runs, written out.
/// A reference for the property above only — no serving path copies a plan.
fn bound_steps(plan: &PhysicalPlan, values: &[Value]) -> Vec<PhysStep> {
    let bind = |predicates: &mut Vec<Predicate>| {
        for predicate in predicates {
            if let Predicate::ColEqConst(_, value) = predicate {
                *value = value.bound(values).clone();
            }
        }
    };
    let mut steps = plan.steps().to_vec();
    for step in &mut steps {
        match &mut step.op {
            PhysOp::Const { value } => *value = value.bound(values).clone(),
            PhysOp::KeyedLookup { residual, .. } | PhysOp::HashJoin { residual, .. } => {
                bind(residual)
            }
            PhysOp::Filter { predicates, .. } => bind(predicates),
            _ => {}
        }
    }
    steps
}

/// [`assert_served_alike`] with the fetch cache off, on, and on at a budget of 16 rows;
/// returns the texts answered `OK` and the evictions at 16 rows.
fn assert_served_alike_at_every_corner(
    schema: &AccessSchema,
    db: &Database,
    classes: &[Vec<String>],
) -> (usize, u64) {
    let store = SharedStore::from(IndexedDatabase::build(db.clone(), schema.clone()).unwrap());
    let (off, _) = assert_served_alike(&store, 0, 0, classes);
    let (on, _) = assert_served_alike(&store, 1 << 20, 0, classes);
    let (pressed, evictions) = assert_served_alike(&store, 16, 0, classes);
    (off + on + pressed, evictions)
}

fn accidents_fixture(seed: u64) -> (Database, AccessSchema) {
    let catalog = accidents::catalog();
    let schema = accidents::access_schema(&catalog);
    let db = accidents::generate(&accidents::AccidentsConfig {
        num_days: 2,
        avg_accidents_per_day: 15,
        avg_casualties_per_accident: 2,
        num_districts: 5,
        seed,
    })
    .unwrap();
    (db, schema)
}

#[test]
fn template_replies_are_the_literal_replies_on_every_family() {
    let (mut answered, mut evictions) = (0, 0);
    let mut tally = |(ok, evicted): (usize, u64)| {
        answered += ok;
        evictions += evicted;
    };
    run_cases(
        "template_replies_are_the_literal_replies",
        0x7E3A,
        8,
        |rng| {
            let seed = rng.gen_range(0u64..1_000);
            let qseed = rng.gen_range(0u64..1_000);

            let (db, schema) = accidents_fixture(seed);
            let texts = family_texts(&accidents::catalog(), &schema, &db, qseed, rng);
            tally(assert_served_alike_at_every_corner(&schema, &db, &texts));

            let catalog = ecommerce::catalog();
            let schema = ecommerce::access_schema(&catalog);
            let db = ecommerce::generate(&ecommerce::EcommerceConfig {
                num_customers: 60,
                num_categories: 5,
                products_per_category: 12,
                avg_orders_per_customer: 6,
                num_cities: 4,
                seed,
            })
            .unwrap();
            let texts = family_texts(&catalog, &schema, &db, qseed, rng);
            tally(assert_served_alike_at_every_corner(&schema, &db, &texts));

            let catalog = graph::catalog();
            let config = graph::GraphConfig {
                num_persons: 120,
                max_degree: 10,
                avg_degree: 4,
                num_cities: 3,
                num_tags: 5,
                max_likes: 3,
                seed,
            };
            let schema = graph::access_schema(&catalog, &config);
            let db = graph::generate(&config).unwrap();
            let texts = family_texts(&catalog, &schema, &db, qseed, rng);
            tally(assert_served_alike_at_every_corner(&schema, &db, &texts));
        },
    );
    assert!(answered > 0, "no generated text was ever answered OK");
    assert!(evictions > 0, "the 16-row corner never evicted");
}

#[test]
fn edge_case_texts_are_served_alike() {
    let (db, schema) = accidents_fixture(7);
    let class = |texts: &[&str]| -> Vec<String> { texts.iter().map(|&t| t.to_owned()).collect() };
    let classes = [
        // A repeated constant, then the same shape with the repeat broken (another
        // template), then the repeat on other values.
        class(&[
            "Q(d, e) :- Accident(x, d, t), Accident(y, e, u), x = 3, y = 3.",
            "Q(d, e) :- Accident(x, d, t), Accident(y, e, u), x = 3, y = 4.",
            "Q(d, e) :- Accident(x, d, t), Accident(y, e, u), x = 9, y = 9.",
            "Q(d, e) :- Accident(x, d, t), Accident(y, e, u), x = 9, y = 2.",
        ]),
        // A constant repeated across the branches of a union, and not.
        class(&[
            "Q(d) :- Accident(x, d, t), x = 5.\nQ(d) :- Accident(x, e, d), x = 5.",
            "Q(d) :- Accident(x, d, t), x = 6.\nQ(d) :- Accident(x, e, d), x = 6.",
            "Q(d) :- Accident(x, d, t), x = 5.\nQ(d) :- Accident(x, e, d), x = 6.",
            "Q(d) :- Accident(x, d, t), x = 8.\nQ(d) :- Accident(x, e, d), x = 1.",
        ]),
        // Contradictory constants: the empty plan. `x = 1, x = 1` is not that template.
        class(&[
            "Q(d) :- Accident(x, d, t), x = 1, x = 2.",
            "Q(d) :- Accident(x, d, t), x = 7, x = 3.",
            "Q(d) :- Accident(x, d, t), x = 1, x = 1.",
            "Q(d) :- Accident(x, d, t), 3 = 4.",
            "Q(d) :- Accident(x, d, t), x = 2, 4 = 4.",
        ]),
        // Negative integers, and an integer against a string of the same digits.
        class(&[
            "Q(d) :- Accident(x, d, t), x = -3.",
            "Q(d) :- Accident(x, d, t), x = 3.",
            "Q(d) :- Accident(x, d, t), x = \"3\".",
            "Q(d) :- Accident(x, d, t), x = -0.",
        ]),
        // Strings with escapes, a quote in an identifier, layout and comments.
        class(&[
            r#"Q(x) :- Accident(x, "Queen's Park", "day-0001")."#,
            r#"Q(x) :- Accident(x, "a \"quoted\" \\ district", "day-0000")."#,
            "Q ( x ) :- % find them\n  Accident ( x , \"tab\\there\" , \"line\\nbreak\" ) .",
            r#"Q(x') :- Accident(x', "district-001", "day-0001")."#,
        ]),
        // No literal at all: a constant-only query (booleans are words of the
        // template), an uncovered scan, and the paper's Q0 with its constants as
        // variables — served or refused, twice the same.
        class(&[
            "Q(x) :- x = true.",
            "Q(x) :- x = true.",
            "Q(x) :- x = false.",
            "Q(x) :- Accident(x, d, t).",
            "Q(x) :- Accident(x, d, t).",
        ]),
        // Refused texts: a lex error, a parse error, an unknown relation, two heads.
        class(&[
            "Q(x) :- Accident(x, d, ?), x = 1.",
            "Q(x) :- Accident(x, d, t) x = 1.",
            "Q(x) :- Nowhere(x), x = 1.",
            "Q(x) :- Nowhere(x), x = 2.",
            "Q(d) :- Accident(x, d, t), x = 1. P(d) :- Accident(x, d, t), x = 2.",
            "Q(x) :- Accident(x, d, t), x = 99999999999999999999.",
        ]),
        // The paper's Q0 on two days: far over the budget below, within none above.
        class(&[
            r#"Q0(age) :- Accident(aid, "district-001", "day-0001"), Casualty(cid, aid, class, vid), Vehicle(vid, driver, age)."#,
            r#"Q0(age) :- Accident(aid, "district-002", "day-0000"), Casualty(cid, aid, class, vid), Vehicle(vid, driver, age)."#,
        ]),
    ];
    let (answered, evictions) = assert_served_alike_at_every_corner(&schema, &db, &classes);
    // At least 20 texts answered at each of the three corners.
    assert!(
        answered >= 3 * 20,
        "only {answered} edge-case texts were answered OK"
    );
    assert!(evictions > 0, "the 16-row corner never evicted");

    // Under a fetch budget the over-budget template is a REJECT on every request, off
    // the stored ticket; the cheap ones are still served.
    let store = SharedStore::from(IndexedDatabase::build(db, schema).unwrap());
    assert_served_alike(&store, 4_096, 10_000, &classes);
    let daemon = Daemon::new(&store, 0, 10_000);
    for text in &classes[7] {
        assert_eq!(daemon.query(text).status(), ReplyStatus::Reject);
    }
    assert_eq!(daemon.stat("plan_hits"), 1);
    assert_eq!(daemon.stat("rejected"), 2);
}

#[test]
fn the_table_stays_bounded_under_abuse_and_concurrency() {
    let (db, schema) = accidents_fixture(11);
    let store = SharedStore::from(IndexedDatabase::build(db, schema).unwrap());
    // No cache: a reply then depends on its text alone, so it can be compared with the
    // literal path of the same daemon whatever the other threads are doing.
    let daemon = Daemon::new(&store, 0, 0);
    const THREADS: usize = 8;
    const ROUNDS: usize = 300;
    let unique_per_thread = ROUNDS / 2;
    assert!(THREADS * unique_per_thread > MAX_PLAN_TEMPLATES);
    let start = Barrier::new(THREADS);
    std::thread::scope(|scope| {
        for thread in 0..THREADS {
            let (daemon, start) = (&daemon, &start);
            scope.spawn(move || {
                start.wait();
                for round in 0..ROUNDS {
                    let id = (thread * ROUNDS + round) % 40;
                    let text = if round % 2 == 0 {
                        // One template every thread shares, under changing constants.
                        format!("Q(d) :- Accident(x, d, t), x = {id}.")
                    } else {
                        // A head name no other request ever carries.
                        format!("Q{thread}x{round}(d) :- Accident(x, d, t), x = {id}.")
                    };
                    let reply = daemon.query(&text);
                    assert_eq!(reply.status(), ReplyStatus::Ok, "{text}: {}", reply.head);
                    assert_eq!(
                        reply.wire(),
                        daemon.server.query_unprepared(&text).wire(),
                        "{text}"
                    );
                    let templates = daemon.stat("plan_templates");
                    assert!(
                        templates <= MAX_PLAN_TEMPLATES as u64,
                        "{templates} entries"
                    );
                }
            });
        }
    });
    let unique = (THREADS * unique_per_thread) as u64;
    let (hits, misses) = (daemon.stat("plan_hits"), daemon.stat("plan_misses"));
    assert_eq!(hits + misses, (THREADS * ROUNDS) as u64);
    assert!(misses >= unique, "every never-repeating template is a miss");
    assert!(hits > 0, "the shared template was never a hit");
    // More templates went in than fit: the table was dropped at least once, and what
    // it holds now went in since.
    let held = daemon.stat("plan_templates");
    assert!(
        held > 0 && held < unique,
        "{held} of {unique} templates held"
    );

    // Filling it to the brim and one over: the overflow starts the next fill.
    let fill = |from: usize, to: usize| {
        for i in from..to {
            let reply = daemon.query(&format!("Fill{i}(d) :- Accident(x, d, t), x = 1."));
            assert_eq!(reply.status(), ReplyStatus::Ok);
        }
    };
    fill(0, MAX_PLAN_TEMPLATES - held as usize);
    assert_eq!(daemon.stat("plan_templates"), MAX_PLAN_TEMPLATES as u64);
    fill(MAX_PLAN_TEMPLATES, MAX_PLAN_TEMPLATES + 1);
    assert_eq!(daemon.stat("plan_templates"), 1);
    let hits = daemon.stat("plan_hits");
    fill(MAX_PLAN_TEMPLATES, MAX_PLAN_TEMPLATES + 1);
    assert_eq!(daemon.stat("plan_hits"), hits + 1, "the refill serves hits");

    // A key over the cap is served, never stored, never a hit.
    let long = "v".repeat(MAX_TEMPLATE_KEY_BYTES);
    let oversized = format!("Q(d) :- Accident(x, d, t), x = 2, {long} = 3.");
    assert!(Skeleton::of(&oversized).unwrap().key.len() > MAX_TEMPLATE_KEY_BYTES);
    let (hits, misses) = (daemon.stat("plan_hits"), daemon.stat("plan_misses"));
    for _ in 0..2 {
        let reply = daemon.query(&oversized);
        assert_eq!(reply.status(), ReplyStatus::Ok, "{}", reply.head);
        assert_eq!(
            reply.wire(),
            daemon.server.query_unprepared(&oversized).wire()
        );
    }
    assert_eq!(daemon.stat("plan_templates"), 1);
    assert_eq!(daemon.stat("plan_hits"), hits);
    assert_eq!(daemon.stat("plan_misses"), misses + 2);
}

/// What a skeleton key must encode, kept as structure: the words of the text with each
/// literal blanked to its kind and class.
#[derive(Debug, PartialEq)]
enum Word {
    Text(String),
    Literal(char, usize),
}

fn blanked(text: &str) -> Option<Vec<Word>> {
    let mut seen: Vec<Value> = Vec::new();
    let mut class = |value: Value| match seen.iter().position(|v| *v == value) {
        Some(class) => class,
        None => {
            seen.push(value);
            seen.len() - 1
        }
    };
    let words = tokenize(text)
        .ok()?
        .into_iter()
        .map(|token| match token.kind {
            TokenKind::Int(i) => Word::Literal('i', class(Value::Int(i))),
            TokenKind::Str(s) => Word::Literal('s', class(Value::str(s))),
            other => Word::Text(other.describe()),
        });
    Some(words.collect())
}

/// Text out of the grammar's own alphabet, so that most of it lexes and some of it
/// parses: words, literals, punctuation, layout, comments, and the odd stray byte.
fn grammar_soup(rng: &mut StdRng, pieces: usize) -> String {
    const PIECES: &[&str] = &[
        "Q",
        "Accident",
        "Casualty",
        "x",
        "y",
        "d",
        "t",
        "x'",
        "_c0",
        "true",
        "$p",
        "$",
        "(",
        ")",
        ",",
        ".",
        ";",
        ":-",
        ":",
        "->",
        "-",
        "=",
        "1",
        "2",
        "-7",
        "007",
        "99999999999999999999",
        "\"a\"",
        "\"b c\"",
        "\"q\\\"uote\"",
        "\"tab\\t\"",
        "\"open",
        "\\",
        "%",
        "% note\n",
        "\n",
        " ",
        "\t",
        "\r",
        "?",
        "#",
        "#i0",
        "é",
        "名",
        "\u{0}",
        "٣",
    ];
    let mut text = String::new();
    for _ in 0..pieces {
        text.push_str(PIECES[rng.gen_range(0..PIECES.len())]);
        if rng.gen_bool(0.7) {
            text.push(' ');
        }
    }
    text
}

#[test]
fn the_lexer_and_the_request_parser_survive_arbitrary_input() {
    let (db, schema) = accidents_fixture(3);
    let store = SharedStore::from(IndexedDatabase::build(db, schema).unwrap());
    let daemon = Daemon::new(&store, 0, 0);
    let catalog = accidents::catalog();
    let survive = |line: &str| {
        // What a connection does with a line, and every parser entry beneath it.
        if let Ok(Request::Query(text)) = Request::parse(line) {
            let reply = daemon.query(&text);
            assert_eq!(reply.wire(), daemon.server.query_unprepared(&text).wire());
        }
        let tokens = tokenize(line);
        let skeleton = Skeleton::of(line);
        let _ = (parse_query(&catalog, line), parse_template(&catalog, line));
        match (&tokens, &skeleton) {
            (Ok(_), Ok(_)) => {}
            (Err(lexed), Err(split)) => {
                // `line L:C: reason`, pointing into the text.
                let message = lexed.to_string();
                assert_eq!(message, split.to_string());
                let position = message.strip_prefix("line ").expect(&message);
                let (row, rest) = position.split_once(':').expect(&message);
                let (column, reason) = rest.split_once(": ").expect(&message);
                let (row, column): (usize, usize) = (row.parse().unwrap(), column.parse().unwrap());
                let at = line.split('\n').nth(row - 1).expect(&message);
                let found = at.chars().nth(column - 1);
                assert!(found.is_some(), "{message} points past the text");
                if let Some(stray) = reason.strip_prefix("unexpected character `") {
                    assert_eq!(found, stray.chars().next(), "{message}");
                }
            }
            _ => panic!("the splitter and the tokenizer disagree on {line:?}"),
        }
    };
    run_cases("arbitrary_input_never_panics", 0xF0_22, 64, |rng| {
        // Arbitrary bytes: whatever is UTF-8 goes on, as in the daemon; the rest is
        // read lossily, which is arbitrary UTF-8 with replacement characters in it.
        let length = match rng.gen_range(0..8) {
            0 => MAX_REQUEST_LINE_BYTES,
            _ => rng.gen_range(0..200),
        };
        let bytes: Vec<u8> = (0..length)
            .map(|_| rng.gen_range(0..=255u32) as u8)
            .collect();
        survive(&String::from_utf8_lossy(&bytes));
        // Arbitrary scalar values, and the same behind the verb.
        let chars: String = (0..rng.gen_range(0..120))
            .filter_map(|_| char::from_u32(rng.gen_range(0..0x11_0000u32)))
            .collect();
        survive(&chars);
        survive(&format!("QUERY {chars}"));
        // The grammar's alphabet, short and at the line cap.
        let pieces = if rng.gen_bool(0.1) {
            30_000
        } else {
            rng.gen_range(1..40)
        };
        let mut soup = grammar_soup(rng, pieces);
        while soup.len() > MAX_REQUEST_LINE_BYTES - 8 {
            soup.pop();
        }
        survive(&soup);
        survive(&format!("QUERY {soup}"));
    });
}

#[test]
fn texts_share_a_skeleton_exactly_when_their_blanked_tokens_agree() {
    let (mut alike, mut apart) = (0, 0);
    run_cases("skeletons_are_blanked_token_streams", 0x5CE1, 64, |rng| {
        // A handful of short soups, each beside relatives of itself: another layout,
        // other constants, one word changed. Short texts over a small alphabet collide
        // often enough that both directions are exercised without the relatives, too.
        let mut texts: Vec<String> = Vec::new();
        for _ in 0..12 {
            let pieces = rng.gen_range(1..6);
            let base = grammar_soup(rng, pieces);
            texts.push(base.replace(' ', "  % layout\n\t"));
            texts.push(base.replace('1', "41").replace("\"a\"", "\"z\""));
            texts.push(base.replace('2', "1"));
            texts.push(base.replacen('x', "y", 1));
            texts.push(base);
        }
        for a in &texts {
            for b in &texts {
                let (Some(blank_a), Some(blank_b)) = (blanked(a), blanked(b)) else {
                    assert!(Skeleton::of(a).is_err() || Skeleton::of(b).is_err());
                    continue;
                };
                let same_key = Skeleton::of(a).unwrap().key == Skeleton::of(b).unwrap().key;
                assert_eq!(same_key, blank_a == blank_b, "{a:?} against {b:?}");
                if a != b {
                    *(if same_key { &mut alike } else { &mut apart }) += 1;
                }
            }
        }
    });
    assert!(alike > 100 && apart > 100, "{alike} alike, {apart} apart");
}
