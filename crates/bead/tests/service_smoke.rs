//! End-to-end smoke over the real binaries: start `bead`, drive a mixed
//! accept/reject batch through `beactl`, assert the exit-code contract and a
//! clean shutdown. This is the same script CI runs, kept in-tree so it breaks
//! at `cargo test` time rather than only in the workflow.

use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};

const BEAD: &str = env!("CARGO_BIN_EXE_bead");
const BEACTL: &str = env!("CARGO_BIN_EXE_beactl");

struct Daemon {
    child: Child,
    socket: PathBuf,
}

impl Daemon {
    /// Start `bead` on a unique socket and block until it prints `ready`.
    fn start(budget: u64) -> Daemon {
        let socket =
            std::env::temp_dir().join(format!("bead-smoke-{}-{budget}.sock", std::process::id()));
        let mut child = Command::new(BEAD)
            .args([
                "--socket",
                socket.to_str().unwrap(),
                "--tuples",
                "2000",
                "--seed",
                "48879",
                "--threads",
                "2",
                "--fetch-budget",
                &budget.to_string(),
                "--cache-rows",
                "4096",
            ])
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn bead");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut lines = BufReader::new(stdout).lines();
        loop {
            match lines.next() {
                Some(Ok(line)) if line == "ready" => break,
                Some(Ok(_)) => continue,
                other => panic!("bead exited before printing ready: {other:?}"),
            }
        }
        // Keep draining stdout so the daemon never blocks on a full pipe.
        std::thread::spawn(move || for _ in lines {});
        Daemon { child, socket }
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
    let (code, reply) = daemon.ctl(&["query", "Q(d) :- Accident(x, d, t), x = 1."]);
    assert_eq!(code, 0, "accepted query exits 0; reply: {reply}");
    assert!(reply.contains("fetch_bound=1"), "reply: {reply}");
    assert!(reply.contains("allocs_per_probe="), "reply: {reply}");
    let cold_rows: Vec<&str> = reply.lines().skip(1).collect();

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
        cold_rows,
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

    // The same anchored query again: identical rows, served from the session's
    // cross-query fetch cache without touching the store.
    let (code, warm) = daemon.ctl(&["query", "Q(d) :- Accident(x, d, t), x = 1."]);
    assert_eq!(code, 0, "cached repeat exits 0; reply: {warm}");
    let warm_rows: Vec<&str> = warm.lines().skip(1).collect();
    assert_eq!(warm_rows, cold_rows, "cached rows match the cold run");
    assert!(warm.contains("tuples_fetched=0"), "reply: {warm}");
    assert!(warm.contains("cache_hits=1"), "reply: {warm}");

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
    assert!(reply.contains("cache_hits=1"), "reply: {reply}");
    assert!(reply.contains("rows_served_from_cache="), "reply: {reply}");
    assert!(reply.contains("cache_evictions=0"), "reply: {reply}");
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
    let mut daemon = Daemon { child, socket };

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
