//! The wire client: one persistent connection, framed replies, a read timeout, and
//! the per-reply checks every answer must pass.

use crate::workload::{Class, Verdict};
use bead::END;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// A reply that takes longer than this is a counted failure, not a hung benchmark.
pub const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One framed reply, reused across requests so the measuring loop does not allocate.
#[derive(Debug, Default)]
pub struct RawReply {
    /// The verdict line, without its newline.
    pub head: String,
    /// The body lines, each still ending in its newline.
    pub body: String,
    /// Number of body lines.
    pub rows: u64,
    /// Bytes on the wire, terminator included.
    pub bytes: u64,
}

impl RawReply {
    pub fn verdict(&self) -> Verdict {
        let head = self.head.as_str();
        if head.starts_with("OK") {
            Verdict::Ok
        } else if head.starts_with("REJECT") {
            Verdict::Reject
        } else if head.starts_with("ERR parse:") {
            Verdict::ErrParse
        } else if head.starts_with("ERR plan:") {
            Verdict::ErrPlan
        } else {
            Verdict::Other
        }
    }
}

/// The integer value of `key=` on a head line.
pub fn head_field(head: &str, key: &str) -> Option<u64> {
    head.split_whitespace().find_map(|token| {
        token
            .strip_prefix(key)?
            .strip_prefix('=')?
            .parse::<u64>()
            .ok()
    })
}

/// Read one reply — head line, body lines, `END` — from `reader` into `reply`.
pub fn read_reply(reader: &mut impl BufRead, reply: &mut RawReply) -> io::Result<()> {
    reply.head.clear();
    reply.body.clear();
    reply.rows = 0;
    if reader.read_line(&mut reply.head)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    reply.bytes = reply.head.len() as u64;
    reply.head.truncate(reply.head.trim_end_matches('\n').len());
    loop {
        let before = reply.body.len();
        if reader.read_line(&mut reply.body)? == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        reply.bytes += (reply.body.len() - before) as u64;
        if reply.body[before..].trim_end_matches('\n') == END {
            reply.body.truncate(before);
            return Ok(());
        }
        reply.rows += 1;
    }
}

/// One persistent connection to the daemon.
pub struct Conn {
    reader: BufReader<UnixStream>,
    out: Vec<u8>,
}

impl Conn {
    pub fn connect(socket: &Path) -> io::Result<Conn> {
        let stream = UnixStream::connect(socket)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::with_capacity(64 * 1024, stream),
            out: Vec::with_capacity(512),
        })
    }

    /// Send one request line and read its reply. After an error the connection may be
    /// mid-reply; the caller drops it and connects again.
    pub fn roundtrip(&mut self, line: &str, reply: &mut RawReply) -> io::Result<()> {
        self.out.clear();
        self.out.extend_from_slice(line.as_bytes());
        self.out.push(b'\n');
        self.reader.get_mut().write_all(&self.out)?;
        read_reply(&mut self.reader, reply)
    }
}

/// What one exchange established, for the tallies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Judged {
    /// Expected verdict, and for `OK` the reply's own invariants hold.
    pub good: bool,
    /// The reply was `OK`.
    pub answered: bool,
    pub tuples_fetched: u64,
    pub rows_from_cache: u64,
}

/// Judge a reply to a request of `class`: the verdict must be the expected one, and an
/// `OK` must count its own rows correctly and stay within the bound it was priced at —
/// the paper's claim, checked on every answer.
pub fn judge(class: Class, reply: &RawReply) -> Judged {
    let verdict = reply.verdict();
    let mut judged = Judged {
        good: verdict == class.expected(),
        answered: verdict == Verdict::Ok,
        ..Judged::default()
    };
    if judged.answered {
        let field = |key| head_field(&reply.head, key);
        match (
            field("rows"),
            field("fetch_bound"),
            field("tuples_fetched"),
            field("rows_served_from_cache"),
        ) {
            (Some(rows), Some(bound), Some(fetched), Some(cached)) => {
                judged.good &= rows == reply.rows && fetched <= bound;
                judged.tuples_fetched = fetched;
                judged.rows_from_cache = cached;
            }
            _ => judged.good = false,
        }
    }
    judged
}

#[cfg(test)]
mod tests {
    use super::*;
    use bead::Reply;

    fn read(wire: &str) -> io::Result<RawReply> {
        let mut reply = RawReply::default();
        read_reply(&mut io::Cursor::new(wire.as_bytes()), &mut reply).map(|()| reply)
    }

    #[test]
    fn reads_what_reply_wire_writes() {
        let sent = Reply::ok(
            "rows=2 fetch_bound=5 tuples_fetched=3 rows_served_from_cache=0",
            vec!["1\t\"a\"".into(), "2\t\"END\"".into()],
        );
        let wire = sent.wire();
        let got = read(&wire).unwrap();
        assert_eq!(got.head, sent.head);
        assert_eq!(got.body, "1\t\"a\"\n2\t\"END\"\n");
        assert_eq!((got.rows, got.bytes), (2, wire.len() as u64));
        assert_eq!(head_field(&got.head, "fetch_bound"), Some(5));
        assert_eq!(head_field(&got.head, "bound"), None);
        assert_eq!(got.verdict(), Verdict::Ok);

        // Two replies back to back on one stream stay framed.
        let both = format!("{}{}", Reply::reject("query=Q").wire(), wire);
        let mut cursor = io::Cursor::new(both.as_bytes());
        let mut reply = RawReply::default();
        read_reply(&mut cursor, &mut reply).unwrap();
        assert_eq!((reply.verdict(), reply.rows), (Verdict::Reject, 0));
        read_reply(&mut cursor, &mut reply).unwrap();
        assert_eq!(reply.rows, 2);

        assert_eq!(
            read(&Reply::err("parse: x").wire()).unwrap().verdict(),
            Verdict::ErrParse
        );
        assert_eq!(
            read(&Reply::err("plan: x").wire()).unwrap().verdict(),
            Verdict::ErrPlan
        );
        assert_eq!(
            read(&Reply::err("execute: x").wire()).unwrap().verdict(),
            Verdict::Other
        );
        // A reply cut short is an error, not a short answer.
        assert!(read("OK rows=1\n1\n").is_err());
        assert!(read("").is_err());
    }

    #[test]
    fn judge_checks_verdict_row_count_and_bound() {
        let ok = |head: &str, body: Vec<String>| read(&Reply::ok(head, body).wire()).unwrap();
        let head = "rows=1 fetch_bound=1 tuples_fetched=1 rows_served_from_cache=0";
        let good = judge(Class::Point, &ok(head, vec!["x".into()]));
        assert!(good.good && good.answered);
        assert_eq!(good.tuples_fetched, 1);
        // rows= disagrees with the body.
        assert!(!judge(Class::Point, &ok(head, vec![])).good);
        // Fetched more than the bound promised.
        let over = "rows=1 fetch_bound=1 tuples_fetched=2 rows_served_from_cache=0";
        assert!(!judge(Class::Point, &ok(over, vec!["x".into()])).good);
        // A head without the counters cannot be checked.
        assert!(!judge(Class::Point, &ok("rows=1", vec!["x".into()])).good);
        // An answered union was not refused.
        let wrong = judge(Class::Union, &ok(head, vec!["x".into()]));
        assert!(!wrong.good && wrong.answered);
        let refused = read(&Reply::reject("query=Q0 fetch_bound=9 budget=1").wire()).unwrap();
        assert!(judge(Class::Union, &refused).good);
        assert!(!judge(Class::Q0, &refused).good);
    }
}
