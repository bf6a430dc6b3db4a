//! The server under test: an `eqsql-serve --listen` child process, and the
//! pre-opened connections the harness talks to it over.

use crate::stats::us;
use eqsql_net::Client;
use std::io::{self, BufRead, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Server worker threads per dispatch window: the host has two cores.
const SERVER_THREADS: usize = 2;
/// Client connections, one per load-generator thread.
pub const CONNECTIONS: usize = 2;

/// How long a drained server may take to exit before it is killed.
const EXIT_GRACE: Duration = Duration::from_secs(30);

/// A running `eqsql-serve` child. Dropping it kills and reaps the process,
/// so no exit path of the harness leaves a server behind.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
    reaped: bool,
}

/// What the server reported on its way out.
#[derive(Default, Clone, Copy)]
pub struct ServerExit {
    pub rejected: u64,
    pub served: u64,
}

impl ServerProc {
    /// Starts `eqsql-serve --listen 127.0.0.1:0` over the request file and
    /// returns once it has printed its bound address.
    pub fn spawn(bin: &Path, file: &Path, extra: &[String]) -> io::Result<ServerProc> {
        let mut child = Command::new(bin)
            .args(["--listen", "127.0.0.1:0", "--threads", &SERVER_THREADS.to_string(), "--quiet"])
            .args(extra)
            .arg(file)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = ServerProc { child, stdout, addr: String::new(), reaped: false };
        let mut line = String::new();
        loop {
            line.clear();
            if server.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other(format!("{} exited before listening", bin.display())));
            }
            if let Some(addr) = line.trim().strip_prefix("listening on ") {
                server.addr = addr.to_string();
                return Ok(server);
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the server process so far, in MiB.
    pub fn peak_rss_mib(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        let kib = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))?;
        Ok(kib / 1024.0)
    }

    /// Drains the server over `conn`, waits (boundedly) for the process to
    /// exit and parses its final `net:` line.
    pub fn stop(mut self, conn: &mut Client) -> io::Result<ServerExit> {
        conn.drain()?;
        let deadline = Instant::now() + EXIT_GRACE;
        let status = loop {
            if let Some(status) = self.child.try_wait()? {
                break status;
            }
            if Instant::now() >= deadline {
                return Err(io::Error::other("server did not exit after drain"));
            }
            std::thread::sleep(Duration::from_millis(5));
        };
        self.reaped = true;
        if !status.success() {
            return Err(io::Error::other(format!("server exited with {status}")));
        }
        // The process is gone, so its last lines are all in the pipe.
        let mut exit = ServerExit::default();
        let mut line = String::new();
        loop {
            line.clear();
            if self.stdout.read_line(&mut line)? == 0 {
                break;
            }
            if let Some(rest) = line.trim().strip_prefix("net: ") {
                let nums: Vec<u64> =
                    rest.split_whitespace().filter_map(|t| t.parse().ok()).collect();
                if let [_accepted, rejected, served, ..] = nums[..] {
                    exit = ServerExit { rejected, served };
                }
            }
        }
        Ok(exit)
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if !self.reaped {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Opens one connection and round-trips a `ping` on it, so the server has
/// accepted it and its threads are running before any clock starts.
/// Returns the client and the microseconds connect + ping took.
pub fn connect(addr: &str) -> io::Result<(Client, f64)> {
    let t = Instant::now();
    let mut client = Client::connect(addr)?;
    client.set_read_timeout(Some(Duration::from_secs(60)))?;
    if !client.ping()? {
        return Err(io::Error::other("server closed the connection before answering ping"));
    }
    Ok((client, us(t.elapsed())))
}
