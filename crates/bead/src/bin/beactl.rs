//! `beactl` — the one-shot client for the `bead` daemon.
//!
//! Serializes one request, prints the reply (head line, then body rows), and
//! exits `0` for `OK`, `3` for `REJECT`, `1` for `ERR` or a transport failure. A
//! reader that closes its end early (`beactl … | head -1`) ends the printing, not the
//! exit status.

use bead::protocol::{Reply, ReplyStatus, Request};
use bead::server::socket_from;
use std::io::{ErrorKind, Write};

const USAGE: &str = "usage: beactl [--socket PATH] <ping | query <datalog> | stats | shutdown>";

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket_arg: Option<String> = None;
    if args.first().map(String::as_str) == Some("--socket") {
        if args.len() < 2 {
            eprintln!("beactl: --socket needs a value\n{USAGE}");
            std::process::exit(2);
        }
        socket_arg = Some(args.remove(1));
        args.remove(0);
    }
    let request = match args.first().map(String::as_str) {
        Some("ping") => Request::Ping,
        Some("stats") => Request::Stats,
        Some("shutdown") => Request::Shutdown,
        Some("query") => {
            let text = args[1..].join(" ");
            if text.trim().is_empty() {
                eprintln!("beactl: query needs a datalog rule\n{USAGE}");
                std::process::exit(2);
            }
            Request::Query(text)
        }
        _ => {
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };

    let socket = socket_from(socket_arg.as_deref());
    match bead::client::request(&socket, &request) {
        Ok(reply) => {
            match print(&reply) {
                Err(error) if error.kind() != ErrorKind::BrokenPipe => {
                    eprintln!("beactl: stdout: {error}");
                    std::process::exit(1);
                }
                _ => {}
            }
            std::process::exit(match reply.status() {
                ReplyStatus::Ok => 0,
                ReplyStatus::Reject => 3,
                ReplyStatus::Err => 1,
            });
        }
        Err(error) => {
            eprintln!("beactl: {}: {error}", socket.display());
            std::process::exit(1);
        }
    }
}

/// Write `reply` to stdout through one lock: the head line, then the body rows.
fn print(reply: &Reply) -> std::io::Result<()> {
    let mut out = std::io::stdout().lock();
    writeln!(out, "{}", reply.head)?;
    for line in &reply.body {
        writeln!(out, "{line}")?;
    }
    out.flush()
}
