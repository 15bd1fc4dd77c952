//! The correctness oracle: a seeded sample of answers from the daemon, compared as row
//! sets with `bea_engine::eval_query` — the naive, scan-everything evaluator — over the
//! in-process copy of the store.
//!
//! A naive evaluation costs the same whatever the constants are (every atom hash-builds
//! its whole relation: ≈0.6 s for Q0 at 1M tuples), so each class is evaluated **once**
//! with its constants lifted into head variables, and the sampled requests select their
//! rows from that one result.

use crate::client::{judge, Conn, RawReply};
use crate::workload::{Class, Domain, Lane, Req, Spec, Stream, Verdict};
use bea_core::value::Row;
use bea_storage::Store;
use std::collections::{BTreeSet, HashMap};
use std::path::Path;

/// Answers compared per run.
pub const ANSWERS: usize = 64;

/// Per answerable class: its query with the constants lifted into leading head
/// variables, and how many of them there are.
const LIFTED: [(Class, &str, usize); 3] = [
    (Class::Point, "O(x, d, t) :- Accident(x, d, t).", 1),
    (
        Class::Q0,
        "O(district, day, age) :- Accident(aid, district, day), \
         Casualty(cid, aid, class, vid), Vehicle(vid, driver, age).",
        2,
    ),
    (
        Class::DayScan,
        "O(day, aid, d) :- Accident(aid, d, day).",
        1,
    ),
];

/// One sampled answer: its class, its constants, and the rows the daemon returned.
struct Answer {
    class: Class,
    key: Row,
    request: String,
    got: BTreeSet<String>,
    /// The reply passed the per-reply checks (a bad one is already counted as failed).
    good: bool,
}

/// Draw requests from the oracle lane until [`ANSWERS`] answerable ones have been sent;
/// refused and malformed ones met on the way are judged by verdict alone. Returns
/// (attempted, failed).
pub fn check(
    socket: &Path,
    store: Store<'_>,
    spec: &'static Spec,
    domain: Domain,
    seed: u64,
) -> Result<(u64, u64), Box<dyn std::error::Error>> {
    let mut conn = Conn::connect(socket)?;
    let mut stream = Stream::new(spec, domain, seed, Lane::Oracle);
    let (mut req, mut reply) = (Req::empty(), RawReply::default());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut answers = Vec::new();
    while answers.len() < ANSWERS {
        stream.next_into(&mut req);
        attempted += 1;
        conn.roundtrip(&req.line, &mut reply)?;
        let good = judge(req.class, &reply).good;
        failed += u64::from(!good);
        if req.class.expected() == Verdict::Ok {
            answers.push(Answer {
                class: req.class,
                key: req.key.clone(),
                request: req.line.clone(),
                got: reply.body.lines().map(str::to_owned).collect(),
                good,
            });
        }
    }

    let database = store.database();
    let mut expected: Vec<BTreeSet<String>> = vec![BTreeSet::new(); answers.len()];
    for (class, text, key_len) in LIFTED {
        let mut wanted: HashMap<&[bea_core::Value], Vec<usize>> = HashMap::new();
        for (index, answer) in answers.iter().enumerate() {
            if answer.class == class {
                wanted.entry(&answer.key).or_default().push(index);
            }
        }
        if wanted.is_empty() {
            continue;
        }
        let query = bea_parser::parse_query(database.catalog(), text)?;
        let (naive, _) = bea_engine::eval_query(&query, database)?;
        for row in naive.rows() {
            let (key, rest) = row.split_at(key_len);
            for &index in wanted.get(key).into_iter().flatten() {
                let line: Vec<String> = rest.iter().map(ToString::to_string).collect();
                expected[index].insert(line.join("\t"));
            }
        }
    }
    for (answer, expected) in answers.iter().zip(&expected) {
        if &answer.got != expected {
            failed += u64::from(answer.good);
            eprintln!(
                "beabench: oracle mismatch on {:?}: daemon {} rows, naive {} rows",
                answer.request,
                answer.got.len(),
                expected.len()
            );
        }
    }
    Ok((attempted, failed))
}
