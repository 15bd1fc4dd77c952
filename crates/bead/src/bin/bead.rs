//! `bead` — the bounded-evaluability query daemon.
//!
//! Generates the accidents store of Example 1.1, binds a Unix socket, and serves
//! the line protocol until a `SHUTDOWN` request arrives. Prints `ready` once the
//! socket accepts connections so scripts can synchronize on stdout.

use bead::server::{accidents_store, socket_from, BeadServer, ServerConfig};
use std::io::{ErrorKind, Write};

const USAGE: &str = "usage: bead [--socket PATH] [--tuples N] [--seed N] [--threads N] \
                     [--fetch-budget N] [--max-alloc-surface N] [--cache-rows N]";

fn main() {
    let mut socket_arg: Option<String> = None;
    let mut tuples: u64 = 5_000;
    let mut seed: u64 = 0xBEAD;
    let mut threads: usize = 0;
    let mut fetch_budget: u64 = 0;
    let mut max_alloc_surface: u64 = 0;
    let mut cache_rows: u64 = 0;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("bead: {flag} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--socket" => socket_arg = Some(value("--socket")),
            "--tuples" => tuples = parse("--tuples", &value("--tuples")),
            "--seed" => seed = parse("--seed", &value("--seed")),
            "--threads" => threads = parse("--threads", &value("--threads")) as usize,
            "--fetch-budget" => fetch_budget = parse("--fetch-budget", &value("--fetch-budget")),
            "--max-alloc-surface" => {
                max_alloc_surface = parse("--max-alloc-surface", &value("--max-alloc-surface"));
            }
            "--cache-rows" => cache_rows = parse("--cache-rows", &value("--cache-rows")),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => {
                eprintln!("bead: unknown argument {other:?}\n{USAGE}");
                std::process::exit(2);
            }
        }
    }

    let socket = socket_from(socket_arg.as_deref());
    let store = match accidents_store(tuples, seed) {
        Ok(store) => store,
        Err(error) => {
            eprintln!("bead: store generation failed: {error}");
            std::process::exit(1);
        }
    };
    let config = ServerConfig {
        socket: socket.clone(),
        threads,
        fetch_budget,
        max_alloc_surface,
        cache_rows,
    };
    let server = match BeadServer::bind(store, &config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("bead: bind {} failed: {error}", socket.display());
            std::process::exit(1);
        }
    };
    let (store_bytes, index_bytes) = server.footprint();
    say(format_args!(
        "bead: listening on {} (threads={} budget={} store_bytes={store_bytes} \
         index_bytes={index_bytes})",
        socket.display(),
        server.threads(),
        server
            .fetch_budget()
            .map_or_else(|| "unlimited".to_owned(), |b| b.to_string()),
    ));
    say(format_args!("ready"));
    if let Err(error) = server.serve() {
        eprintln!("bead: serve failed: {error}");
        std::process::exit(1);
    }
    say(format_args!("bead: bye"));
}

/// Print one status line to stdout. Whoever started the daemon may have stopped
/// reading (or closed the pipe outright); `println!` would panic on the resulting
/// `BrokenPipe` and take a healthy daemon — or its clean exit — down with it, so a
/// vanished reader is ignored. Any other failure is reported on stderr, best effort.
fn say(line: std::fmt::Arguments<'_>) {
    let mut stdout = std::io::stdout().lock();
    if let Err(error) = writeln!(stdout, "{line}").and_then(|()| stdout.flush()) {
        if error.kind() != ErrorKind::BrokenPipe {
            let _ = writeln!(std::io::stderr(), "bead: stdout: {error}");
        }
    }
}

fn parse(flag: &str, value: &str) -> u64 {
    value.parse().unwrap_or_else(|_| {
        eprintln!("bead: {flag} needs an unsigned integer, got {value:?}\n{USAGE}");
        std::process::exit(2);
    })
}
