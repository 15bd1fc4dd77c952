//! The line-oriented wire protocol shared by the daemon and the client.

/// The reply terminator line.
pub const END: &str = "END";

/// One client request, one line on the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Request {
    /// Liveness probe; answered `OK pong`.
    Ping,
    /// Parse, price, admit and execute one datalog query.
    Query(String),
    /// Report the admission counters.
    Stats,
    /// Drain and stop the daemon; answered `OK bye`.
    Shutdown,
}

impl Request {
    /// The wire form of this request (no trailing newline).
    pub fn wire(&self) -> String {
        match self {
            Request::Ping => "PING".to_owned(),
            Request::Query(text) => format!("QUERY {}", text.replace('\n', " ")),
            Request::Stats => "STATS".to_owned(),
            Request::Shutdown => "SHUTDOWN".to_owned(),
        }
    }

    /// Parse one request line. The verb is case-sensitive (uppercase), everything
    /// after `QUERY ` is the query text verbatim.
    pub fn parse(line: &str) -> Result<Request, String> {
        let line = line.trim();
        match line {
            "PING" => Ok(Request::Ping),
            "STATS" => Ok(Request::Stats),
            "SHUTDOWN" => Ok(Request::Shutdown),
            _ => match line.strip_prefix("QUERY") {
                Some(rest) if rest.is_empty() || rest.starts_with(char::is_whitespace) => {
                    let text = rest.trim_start();
                    if text.is_empty() {
                        Err("QUERY needs a datalog rule after the verb".to_owned())
                    } else {
                        Ok(Request::Query(text.to_owned()))
                    }
                }
                _ => Err(format!(
                    "unknown request {:?}; expected PING, QUERY <rule>, STATS or SHUTDOWN",
                    line.split_whitespace().next().unwrap_or("")
                )),
            },
        }
    }
}

/// The verdict class of a reply head line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyStatus {
    /// The request succeeded (`OK …`).
    Ok,
    /// The admission controller refused the query (`REJECT …`). Nothing executed.
    Reject,
    /// The request failed (`ERR …`).
    Err,
}

/// One reply: the head line plus the body lines (without the [`END`] terminator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Reply {
    /// The verdict line: `OK …`, `REJECT …` or `ERR …`.
    pub head: String,
    /// Body lines — tab-separated result rows for `QUERY` replies.
    pub body: Vec<String>,
}

impl Reply {
    /// An `OK` reply with a head suffix and a body.
    pub fn ok(head: impl std::fmt::Display, body: Vec<String>) -> Self {
        Reply {
            head: format!("OK {head}"),
            body,
        }
    }

    /// A bodyless `REJECT` reply.
    pub fn reject(head: impl std::fmt::Display) -> Self {
        Reply {
            head: format!("REJECT {head}"),
            body: Vec::new(),
        }
    }

    /// A bodyless `ERR` reply.
    pub fn err(message: impl std::fmt::Display) -> Self {
        Reply {
            // Errors stay one line so the framing survives arbitrary messages.
            head: format!("ERR {}", message.to_string().replace('\n', " ")),
            body: Vec::new(),
        }
    }

    /// Classify the head line.
    pub fn status(&self) -> ReplyStatus {
        if self.head.starts_with("OK") {
            ReplyStatus::Ok
        } else if self.head.starts_with("REJECT") {
            ReplyStatus::Reject
        } else {
            ReplyStatus::Err
        }
    }

    /// Serialize head, body and terminator for the wire, into one buffer sized up
    /// front: every line plus its newline, then `END\n`.
    pub fn wire(&self) -> String {
        let body: usize = self.body.iter().map(|line| line.len() + 1).sum();
        let mut out = String::with_capacity(self.head.len() + 1 + body + END.len() + 1);
        out.push_str(&self.head);
        out.push('\n');
        for line in &self.body {
            out.push_str(line);
            out.push('\n');
        }
        out.push_str(END);
        out.push('\n');
        out
    }

    /// Parse a reply from its wire lines (terminator already stripped by the
    /// reader). The first line is the head; the rest are body.
    pub fn from_lines(mut lines: Vec<String>) -> Result<Reply, String> {
        if lines.is_empty() {
            return Err("empty reply: the daemon closed the connection early".to_owned());
        }
        let body = lines.split_off(1);
        Ok(Reply {
            head: lines.pop().expect("checked non-empty"),
            body,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requests_round_trip_through_the_wire_form() {
        for request in [
            Request::Ping,
            Request::Stats,
            Request::Shutdown,
            Request::Query("Q(d) :- Accident(x, d, t), x = 1.".to_owned()),
        ] {
            assert_eq!(Request::parse(&request.wire()).unwrap(), request);
        }
        // Newlines in query text cannot smuggle extra protocol lines.
        let sneaky = Request::Query("Q(x) :- R(x, y).\nSHUTDOWN".to_owned());
        assert!(!sneaky.wire().contains('\n'));
    }

    #[test]
    fn malformed_requests_name_the_problem() {
        assert!(Request::parse("NOPE")
            .unwrap_err()
            .contains("unknown request"));
        assert!(Request::parse("QUERY   ").unwrap_err().contains("datalog"));
        assert!(Request::parse("").is_err());
        // Verbs are uppercase; a lowercase ping is not a protocol line.
        assert!(Request::parse("ping").is_err());
    }

    #[test]
    fn replies_classify_and_frame() {
        let ok = Reply::ok("rows=2", vec!["a\tb".into(), "c\td".into()]);
        assert_eq!(ok.status(), ReplyStatus::Ok);
        assert_eq!(ok.wire(), "OK rows=2\na\tb\nc\td\nEND\n");
        // Sized once from the head, the body lines and the terminator: no growth.
        for reply in [ok.clone(), Reply::ok("rows=0", Vec::new())] {
            let wire = reply.wire();
            assert_eq!(wire.capacity(), wire.len());
        }
        assert_eq!(
            Reply::reject("query=Q fetch_bound=30 budget=10").status(),
            ReplyStatus::Reject
        );
        let err = Reply::err("parse failed:\nline 1");
        assert_eq!(err.status(), ReplyStatus::Err);
        assert!(!err.head.contains('\n'), "errors stay one line");
        let parsed =
            Reply::from_lines(vec!["OK rows=2".into(), "a\tb".into(), "c\td".into()]).unwrap();
        assert_eq!(parsed, ok);
        assert!(Reply::from_lines(Vec::new()).is_err());
    }
}
