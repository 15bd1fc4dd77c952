//! Lifecycle of the system under test: the real `bead` binary as a child process.

use crate::client::{Conn, RawReply};
use crate::workload::{Spec, DAEMON_THREADS, STORE_SEED, STORE_TUPLES};
use std::fs::File;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a daemon may take from spawn to its `ready` line.
const READY_TIMEOUT: Duration = Duration::from_secs(120);
/// How long a daemon may take to exit after it acknowledged `SHUTDOWN`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// A running `bead`. Dropping it kills the process if it is still alive.
pub struct Daemon {
    child: Child,
    socket: PathBuf,
    pid_file: PathBuf,
    /// Kept when the daemon did not end cleanly, as the only record of why.
    log_path: PathBuf,
    /// Spawn → `ready` line.
    pub setup: Duration,
}

impl Daemon {
    /// Start `bead` for `spec` with its socket, log and pid file under `out_dir`, and
    /// wait for the `ready` line. stdout and stderr go to the log file: the seed's
    /// `bead` panics on its final `println!` when stdout is a closed pipe.
    ///
    /// With `cpu`, the daemon is started through `taskset -c CPU` (which `exec`s it, so
    /// the child's pid is the daemon's): the load generator then has a core of its own.
    pub fn spawn(bead: &Path, out_dir: &Path, spec: &Spec, cpu: Option<u32>) -> io::Result<Daemon> {
        let stem = format!("{}-{}", spec.name, std::process::id());
        let socket = out_dir.join(format!("{stem}.sock"));
        let log_path = out_dir.join(format!("{stem}.log"));
        let pid_file = out_dir.join(format!("{stem}.pid"));
        let log = File::create(&log_path)?;
        let mut command = match cpu {
            Some(cpu) => {
                let mut taskset = Command::new("taskset");
                taskset.args(["-c", &cpu.to_string()]).arg(bead);
                taskset
            }
            None => Command::new(bead),
        };
        command
            .arg("--socket")
            .arg(&socket)
            .args(["--tuples", &STORE_TUPLES.to_string()])
            .args(["--seed", &STORE_SEED.to_string()])
            .args(["--threads", &DAEMON_THREADS.to_string()])
            .args(["--fetch-budget", &spec.fetch_budget.to_string()])
            .args(["--cache-rows", &spec.cache_rows.to_string()])
            .stdin(Stdio::null())
            .stdout(log.try_clone()?)
            .stderr(log);
        // BEA_* variables were cleared from this process at start-up; the shard count
        // is the one the workload sets.
        if spec.shards > 1 {
            command.env("BEA_SHARDS", spec.shards.to_string());
        }
        let started = Instant::now();
        let child = command.spawn()?;
        std::fs::write(&pid_file, child.id().to_string())?;
        let mut daemon = Daemon {
            child,
            socket,
            pid_file,
            log_path,
            setup: Duration::ZERO,
        };
        loop {
            if std::fs::read_to_string(&daemon.log_path)?
                .lines()
                .any(|l| l == "ready")
            {
                daemon.setup = started.elapsed();
                return Ok(daemon);
            }
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!(
                    "bead exited before ready ({status}); see {}",
                    daemon.log_path.display()
                )));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(io::Error::other(format!(
                    "bead not ready after {READY_TIMEOUT:?}"
                )));
            }
            std::thread::sleep(Duration::from_micros(500));
        }
    }

    pub fn socket(&self) -> &Path {
        &self.socket
    }

    /// The daemon's peak resident set (`VmHWM`) in MB.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| rest.trim().strip_suffix("kB")?.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM line in /proc status".to_owned()))
    }

    /// The head line of a `STATS` reply.
    pub fn stats(&self) -> io::Result<String> {
        let mut reply = RawReply::default();
        Conn::connect(&self.socket)?.roundtrip("STATS", &mut reply)?;
        Ok(reply.head)
    }

    /// Ask the daemon to stop and wait until the process has ended.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut reply = RawReply::default();
        Conn::connect(&self.socket)?.roundtrip("SHUTDOWN", &mut reply)?;
        let asked = Instant::now();
        while self.child.try_wait()?.is_none() {
            if asked.elapsed() > EXIT_TIMEOUT {
                return Err(io::Error::other(format!(
                    "bead still running {EXIT_TIMEOUT:?} after SHUTDOWN"
                )));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let _ = std::fs::remove_file(&self.log_path);
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_file(&self.pid_file);
    }
}
