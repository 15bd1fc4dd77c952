//! End-to-end smoke over the real binaries: start `bead`, drive a mixed
//! accept/reject batch through `beactl`, assert the exit-code contract and a
//! clean shutdown. This is the same script CI runs, kept in-tree so it breaks
//! at `cargo test` time rather than only in the workflow.

use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::Duration;

const BEAD: &str = env!("CARGO_BIN_EXE_bead");
const BEACTL: &str = env!("CARGO_BIN_EXE_beactl");

struct Daemon {
    child: Child,
    socket: PathBuf,
    /// The `bead: listening on …` line it printed before `ready`.
    banner: String,
}

impl Daemon {
    /// Start `bead` on a unique socket and block until it prints `ready`.
    fn start(budget: u64) -> Daemon {
        Self::start_with(&format!("{budget}"), budget, None)
    }

    /// [`Daemon::start`] on the socket named by `tag`, with `BEA_SHARDS` set to
    /// `shards`, or removed from its environment if `None`.
    fn start_with(tag: &str, budget: u64, shards: Option<&str>) -> Daemon {
        let mut command = Command::new(BEAD);
        match shards {
            Some(shards) => command.env("BEA_SHARDS", shards),
            None => command.env_remove("BEA_SHARDS"),
        };
        Self::launch(command, tag, budget)
    }

    /// [`Daemon::start_with`] without `BEA_SHARDS`, run by a shell that first lowers
    /// the open-file limit to `limit` descriptors.
    fn start_with_fd_limit(tag: &str, budget: u64, limit: u32) -> Daemon {
        let mut command = Command::new("sh");
        let script = format!("ulimit -n {limit}; exec \"$0\" \"$@\"");
        command.args(["-c", &script, BEAD]).env_remove("BEA_SHARDS");
        Self::launch(command, tag, budget)
    }

    /// Run `command` with `bead`'s arguments appended, on the socket named by `tag`,
    /// and block until it prints `ready`.
    fn launch(mut command: Command, tag: &str, budget: u64) -> Daemon {
        let socket =
            std::env::temp_dir().join(format!("bead-smoke-{}-{tag}.sock", std::process::id()));
        let mut child = command
            .args([
                "--socket",
                socket.to_str().unwrap(),
                "--tuples",
                "2000",
                "--seed",
                "48879",
                // Accepted and ignored: the benchmark harness still passes it.
                "--threads",
                "2",
                "--fetch-budget",
                &budget.to_string(),
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn bead");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        let mut banner = String::new();
        loop {
            match lines.next() {
                Some(Ok(line)) if line == "ready" => break,
                Some(Ok(line)) if line.starts_with("bead: listening on ") => banner = line,
                Some(Ok(_)) => continue,
                other => panic!("bead exited before printing ready: {other:?}"),
            }
        }
        // Keep draining stdout so the daemon never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Daemon {
            child,
            socket,
            banner,
        }
    }

    fn ctl(&self, args: &[&str]) -> (i32, String) {
        let output = Command::new(BEACTL)
            .args(["--socket", self.socket.to_str().unwrap()])
            .args(args)
            .output()
            .expect("run beactl");
        (
            output.status.code().expect("beactl exit code"),
            String::from_utf8(output.stdout).expect("utf8 reply"),
        )
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        // Belt and braces: the test shuts down via the protocol, but a failed
        // assertion must not leak a daemon process.
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

#[test]
fn mixed_accept_reject_batch_and_clean_shutdown() {
    let mut daemon = Daemon::start(10_000);

    let (code, reply) = daemon.ctl(&["ping"]);
    assert_eq!((code, reply.trim()), (0, "OK pong"));

    // Anchored on an accident id: fetch bound 1, admitted.
    let (code, first) = daemon.ctl(&["query", "Q(d) :- Accident(x, d, t), x = 1."]);
    assert_eq!(code, 0, "accepted query exits 0; reply: {first}");
    assert!(first.contains("fetch_bound=1"), "reply: {first}");
    assert!(first.contains("allocs_per_probe="), "reply: {first}");
    let first_rows: Vec<&str> = first.lines().skip(1).collect();

    // The same rule under another id: one template, planned by the query above and
    // only bound here — a hit, no new entry, and the district of the id that was sent.
    let stat = |daemon: &Daemon, name: &str| -> String {
        let (_, stats) = daemon.ctl(&["stats"]);
        let value = stats.split_once(&format!(" {name}=")).expect(name).1;
        value.split_whitespace().next().expect(name).to_owned()
    };
    let templates = stat(&daemon, "plan_templates");
    let (code, other) = daemon.ctl(&["query", "Q(d) :- Accident(x, d, t), x = 2."]);
    assert_eq!(code, 0, "another id exits 0; reply: {other}");
    assert_eq!(
        first_rows,
        ["\"district-023\""],
        "the district of accident 1"
    );
    let other_rows: Vec<&str> = other.lines().skip(1).collect();
    assert_eq!(
        other_rows,
        ["\"district-001\""],
        "the district of accident 2"
    );
    assert_eq!(stat(&daemon, "plan_hits"), "1");
    assert_eq!(stat(&daemon, "plan_templates"), templates);

    // The same anchored query again: the first reply, head and rows, byte for byte.
    let repeat = daemon.ctl(&["query", "Q(d) :- Accident(x, d, t), x = 1."]);
    assert_eq!(repeat, (0, first.clone()), "the repeat of {first}");

    // Q0's chain prices beyond the budget: a static REJECT, exit 3.
    let q0 = r#"Q0(age) :- Accident(aid, "Queen's Park", "day-0001"), Casualty(cid, aid, class, vid), Vehicle(vid, driver, age)."#;
    let (code, reply) = daemon.ctl(&["query", q0]);
    assert_eq!(code, 3, "rejected query exits 3; reply: {reply}");
    assert!(reply.starts_with("REJECT"), "reply: {reply}");
    assert!(reply.contains("budget=10000"), "reply: {reply}");

    // A malformed query is an ERR (exit 1), and the daemon stays up.
    let (code, reply) = daemon.ctl(&["query", "Q(x) :- Nowhere(x)."]);
    assert_eq!(code, 1, "broken query exits 1; reply: {reply}");
    assert!(reply.starts_with("ERR"), "reply: {reply}");

    let (code, reply) = daemon.ctl(&["stats"]);
    assert_eq!(code, 0);
    assert!(reply.contains("completed=3"), "reply: {reply}");
    assert!(reply.contains("rejected=1"), "reply: {reply}");
    assert!(reply.contains("budget=10000"), "reply: {reply}");
    assert!(!reply.contains("cache"), "reply: {reply}");
    // The anchored rule and Q0 are kept (Q0's REJECT is off its stored ticket); the
    // malformed rule missed and left nothing behind.
    assert!(
        reply.contains("plan_templates=2 plan_hits=2 plan_misses=3"),
        "reply: {reply}"
    );

    let (code, reply) = daemon.ctl(&["shutdown"]);
    assert_eq!((code, reply.trim()), (0, "OK bye"));
    let status = daemon.child.wait_timeout();
    assert_eq!(status, Some(0), "bead exits 0 after SHUTDOWN");
    assert!(!daemon.socket.exists(), "socket file removed on shutdown");
}

/// A supervisor that closes the daemon's stdout must not be able to kill it: the
/// banner, the `ready` line and the final `bye` all hit a broken pipe here, and the
/// daemon still serves, shuts down with exit code 0, and removes its socket.
#[test]
fn closed_stdout_does_not_break_serving_or_the_clean_exit() {
    let socket = std::env::temp_dir().join(format!("bead-nostdout-{}.sock", std::process::id()));
    let mut child = Command::new(BEAD)
        .args(["--socket", socket.to_str().unwrap(), "--tuples", "2000"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn bead");
    // Drop the read end before the daemon has printed anything.
    drop(child.stdout.take());
    let mut daemon = Daemon {
        child,
        socket,
        banner: String::new(),
    };

    // No `ready` line to wait for: poll the socket instead.
    let mut pong = None;
    for _ in 0..200 {
        if let (0, reply) = daemon.ctl(&["ping"]) {
            pong = Some(reply);
            break;
        }
        assert_eq!(
            daemon.child.try_wait().expect("poll bead"),
            None,
            "bead died writing to its closed stdout"
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    assert_eq!(pong.as_deref().map(str::trim), Some("OK pong"));

    let (code, reply) = daemon.ctl(&["shutdown"]);
    assert_eq!((code, reply.trim()), (0, "OK bye"));
    assert_eq!(
        daemon.child.wait_timeout(),
        Some(0),
        "bead exits 0 after SHUTDOWN even though `bye` had nowhere to go"
    );
    assert!(!daemon.socket.exists(), "socket file removed on shutdown");
}

/// The end-to-end benchmark's `point_lookup_sharded` workload still starts `bead` with
/// `BEA_SHARDS=4`. The variable is no longer read: such a daemon starts, reports the
/// footprint one without it reports, and answers a point query and Q0 byte for byte
/// alike.
#[test]
fn a_leftover_shards_variable_changes_nothing() {
    let footprint = |banner: &str| -> String {
        let at = banner.find("store_bytes=").expect(banner);
        banner[at..].to_owned()
    };
    let plain = Daemon::start_with("plain", 0, None);
    let sharded = Daemon::start_with("shards-4", 0, Some("4"));
    assert!(footprint(&plain.banner).contains(" index_bytes="));
    assert_eq!(footprint(&sharded.banner), footprint(&plain.banner));
    // Each text goes once to each daemon, so both replies are cold.
    let same_reply = |text: &str| -> String {
        let (code, expected) = plain.ctl(&["query", text]);
        assert_eq!(code, 0, "reply: {expected}");
        assert!(
            expected.lines().count() > 1,
            "no rows for {text}: {expected}"
        );
        assert_eq!(
            sharded.ctl(&["query", text]),
            (0, expected.clone()),
            "{text}"
        );
        expected
    };
    // A point query, then Q0 anchored at the district and day of its accident.
    let reply = same_reply("Q(d, t) :- Accident(x, d, t), x = 1.");
    let anchor = reply.lines().nth(1).unwrap().replace('\t', ", ");
    same_reply(&format!(
        "Q0(age) :- Accident(aid, {anchor}), Casualty(cid, aid, class, vid), \
         Vehicle(vid, driver, age)."
    ));
}

/// The end-to-end benchmark's `q0_hot_cached` workload still starts `bead` with
/// `--cache-rows 65536`. The flag is parsed and ignored: such a daemon answers a point
/// query and Q0, each sent twice, byte for byte like one started without it; and a
/// malformed value still exits 2, as a malformed `--threads` does.
#[test]
fn a_leftover_cache_rows_flag_changes_nothing() {
    let plain = Daemon::start_with("without-cache-rows", 0, None);
    let mut command = Command::new(BEAD);
    command
        .args(["--cache-rows", "65536"])
        .env_remove("BEA_SHARDS");
    let flagged = Daemon::launch(command, "cache-rows", 0);
    // Each text goes twice to each daemon: the repeat is answered as the first.
    let same_replies = |text: &str| -> String {
        let (code, expected) = plain.ctl(&["query", text]);
        assert_eq!(code, 0, "reply: {expected}");
        assert!(
            expected.lines().count() > 1,
            "no rows for {text}: {expected}"
        );
        for (daemon, sent) in [
            (&flagged, "first"),
            (&flagged, "repeat"),
            (&plain, "repeat"),
        ] {
            let reply = daemon.ctl(&["query", text]);
            assert_eq!(reply, (0, expected.clone()), "{sent} of {text}");
        }
        expected
    };
    // A point query, then Q0 anchored at the district and day of its accident.
    let reply = same_replies("Q(d, t) :- Accident(x, d, t), x = 1.");
    let anchor = reply.lines().nth(1).unwrap().replace('\t', ", ");
    same_replies(&format!(
        "Q0(age) :- Accident(aid, {anchor}), Casualty(cid, aid, class, vid), \
         Vehicle(vid, driver, age)."
    ));

    for flag in ["--cache-rows", "--threads"] {
        let status = Command::new(BEAD)
            .args([flag, "many"])
            .stderr(Stdio::null())
            .status()
            .expect("run bead");
        assert_eq!(status.code(), Some(2), "a malformed {flag}");
    }
}

trait WaitTimeout {
    /// Poll-wait up to ~10s for exit; `None` if still running.
    fn wait_timeout(&mut self) -> Option<i32>;
}

impl WaitTimeout for Child {
    fn wait_timeout(&mut self) -> Option<i32> {
        for _ in 0..200 {
            if let Ok(Some(status)) = self.try_wait() {
                return status.code();
            }
            std::thread::sleep(std::time::Duration::from_millis(50));
        }
        None
    }
}

#[test]
fn beactl_exits_quietly_with_its_status_when_its_reader_is_gone() {
    let daemon = Daemon::start_with("closed-stdout", 10_000, None);
    let query = "Q(d) :- Accident(x, d, t), x = 1.";
    for (args, status) in [(&["ping"][..], 0), (&["query", query][..], 0)] {
        // The read end is closed before `beactl` runs, so its first write fails.
        let (reader, writer) = std::io::pipe().expect("pipe");
        drop(reader);
        let output = Command::new(BEACTL)
            .args(["--socket", daemon.socket.to_str().unwrap()])
            .args(args)
            .stdout(writer)
            .output()
            .expect("run beactl");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(!stderr.contains("panicked"), "beactl {args:?}: {stderr}");
        assert_eq!(
            output.status.code(),
            Some(status),
            "beactl {args:?}: {stderr}"
        );
    }
}

/// User plus system CPU time `pid` has used so far, from `/proc/<pid>/stat`.
fn cpu_seconds(pid: u32) -> f64 {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat")).expect("read stat");
    // The fields after the parenthesised command name; utime and stime are the
    // 14th and 15th of the whole line.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .expect(&stat)
        .1
        .split_whitespace()
        .collect();
    let ticks: u64 = fields[11].parse::<u64>().unwrap() + fields[12].parse::<u64>().unwrap();
    let hz = Command::new("getconf")
        .arg("CLK_TCK")
        .output()
        .expect("getconf");
    let hz: f64 = String::from_utf8(hz.stdout)
        .unwrap()
        .trim()
        .parse()
        .unwrap();
    ticks as f64 / hz
}

/// With its descriptors used up, the daemon waits for one to free instead of spinning
/// on a failing `accept`, and a connection left in the listen backlog meanwhile is
/// served once others close. At a limit of 32 the daemon can hold fewer than 30
/// connections, so of 40 the last ones wait in the backlog.
#[test]
fn running_out_of_descriptors_costs_no_cpu_and_backlogged_clients_are_served() {
    let daemon = Daemon::start_with_fd_limit("fd-limit", 10_000, 32);
    let mut clients: Vec<UnixStream> = (0..40)
        .map(|_| UnixStream::connect(&daemon.socket).expect("connect into the backlog"))
        .collect();
    // Let the daemon accept what it can and reach the limit.
    std::thread::sleep(Duration::from_millis(200));
    let pid = daemon.child.id();
    let before = cpu_seconds(pid);
    std::thread::sleep(Duration::from_secs(1));
    let spent = cpu_seconds(pid) - before;
    assert!(
        spent < 0.25,
        "the idle daemon used {spent:.2} s of CPU in 1 s with its descriptors used up"
    );

    let last = clients.pop().expect("40 clients");
    drop(clients);
    last.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout");
    (&last).write_all(b"PING\n").expect("send PING");
    let mut reply = String::new();
    BufReader::new(&last)
        .read_line(&mut reply)
        .expect("a reply once other clients close");
    assert_eq!(reply.trim(), "OK pong");
}
