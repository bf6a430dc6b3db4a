//! The load generator: one thread per pre-opened connection, one request in
//! flight per connection. Closed loops send the next request when the
//! previous verdict arrives; open loops send on a fixed arrival schedule
//! and time each request from its scheduled arrival, so a stall is charged
//! to every request it delays.

use crate::stats::us;
use eqsql_net::Client;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One request as the client saw it.
pub struct Sample {
    /// Position in the replay order.
    pub pos: usize,
    /// The connection (load-generator thread) that sent it.
    pub conn: usize,
    /// Index of the distinct request that was sent.
    pub request: usize,
    /// Send (closed) or scheduled arrival (open) to verdict line, µs.
    pub latency_us: f64,
    /// How late the generator sent it after its scheduled arrival, µs
    /// (always 0 in a closed loop).
    pub lateness_us: f64,
    /// `(outcome, terminal)` of the verdict line, or the transport error.
    pub verdict: Result<(String, String), String>,
}

impl Sample {
    pub fn ok(&self) -> bool {
        matches!(&self.verdict, Ok((_, terminal)) if terminal == "ok")
    }
}

/// How requests are paced.
#[derive(Clone, Copy)]
pub enum Pace {
    /// Closed loop over `order`, stopping once `for_time` has passed (or
    /// the order is exhausted).
    Closed { for_time: Option<Duration> },
    /// Open loop: arrival `k` is due at `k / rate` seconds after start.
    Open { rate: f64 },
}

/// A finished run: samples in replay order, and the wall time from the
/// start of the run to the last verdict.
pub struct Run {
    pub samples: Vec<Sample>,
    pub wall_s: f64,
}

impl Run {
    pub fn ok_count(&self) -> usize {
        self.samples.iter().filter(|s| s.ok()).count()
    }
}

/// Replays `order` (indices into `lines`) over the clients, one thread per
/// client. Every client must already be connected and pinged.
pub fn drive(clients: &mut [Client], lines: &[String], order: &[usize], pace: Pace) -> Run {
    let next = AtomicUsize::new(0);
    let samples = Mutex::new(Vec::with_capacity(order.len()));
    let last_done = Mutex::new(Duration::ZERO);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (conn, client) in clients.iter_mut().enumerate() {
            let (next, samples, last_done) = (&next, &samples, &last_done);
            scope.spawn(move || {
                let mut mine = Vec::new();
                loop {
                    if let Pace::Closed { for_time: Some(t) } = pace {
                        if start.elapsed() >= t {
                            break;
                        }
                    }
                    let pos = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&request) = order.get(pos) else { break };
                    let due = match pace {
                        Pace::Closed { .. } => Instant::now(),
                        Pace::Open { rate } => {
                            let due = start + Duration::from_secs_f64(pos as f64 / rate);
                            wait_until(due);
                            due
                        }
                    };
                    let sent = Instant::now();
                    let verdict = exchange(client, &lines[request]);
                    let done = Instant::now();
                    let failed = verdict.is_err();
                    mine.push(Sample {
                        pos,
                        conn,
                        request,
                        latency_us: us(done - due),
                        lateness_us: us(sent.saturating_duration_since(due)),
                        verdict,
                    });
                    if failed {
                        break; // the connection is gone
                    }
                }
                let mut last = last_done.lock().expect("no panics while held");
                *last = (*last).max(start.elapsed());
                samples.lock().expect("no panics while held").extend(mine);
            });
        }
    });
    let mut samples = samples.into_inner().expect("no panics while held");
    samples.sort_by_key(|s| s.pos);
    let wall_s = last_done.into_inner().expect("no panics while held").as_secs_f64();
    Run { samples, wall_s }
}

/// Sleeps until shortly before `due`, then yields the processor until
/// `due`: a sleeping thread can wake a millisecond late on a loaded
/// host, and that lateness would be charged to the server.
fn wait_until(due: Instant) {
    if let Some(wait) = due.checked_duration_since(Instant::now()) {
        if let Some(sleep) = wait.checked_sub(SPIN_BEFORE_DUE) {
            std::thread::sleep(sleep);
        }
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// How long before a scheduled send the open loop stops sleeping.
const SPIN_BEFORE_DUE: Duration = Duration::from_millis(2);

/// Sends one request line and waits for its verdict.
fn exchange(client: &mut Client, line: &str) -> Result<(String, String), String> {
    let id = client.send(line).map_err(|e| format!("send: {e}"))?;
    match client.recv_verdict() {
        Ok(Some(v)) if v.id == id => Ok((v.outcome, v.terminal)),
        Ok(Some(v)) => Err(format!("verdict for id {} while waiting for {id}", v.id)),
        Ok(None) => Err("server closed the connection".into()),
        Err(e) => Err(format!("recv: {e}")),
    }
}
