//! The server side: a blocking accept loop, one reader thread per
//! connection, and one decision pool for the whole server, which writes
//! each verdict to the connection that sent the request the moment it
//! completes. See the crate docs for the wire protocol.
//!
//! Threading model — no async runtime, just blocking `std::net` sockets
//! and scoped threads; nothing polls:
//!
//! * **accept thread** (one per server) — blocks in `accept`; enforces
//!   the connection limit (over-limit sockets get one `busy max=N` line
//!   and are closed without a thread).
//! * **reader thread** (one per connection) — blocks in `read`, frames
//!   lines, answers control verbs (`ping`, `stats`, `drain`) and
//!   malformed lines at once, and submits each decoded request — with its
//!   connection, wire id and socket-read instant — to the pool.
//! * **decision pool** ([`Solver::threads`] deciders shared by every
//!   connection) — a submitted request goes straight to an idle decider
//!   (preferably the one that took its connection's last request) or, if
//!   every decider is busy, into one queue that deciders drain oldest
//!   first. A decider runs [`Solver::decide_request`] under the
//!   configured [`BatchOptions`] (deadline, retry, the drain token) and
//!   writes the verdict line back. The solver's thread count therefore
//!   bounds the decisions running at once across the whole server, and a
//!   slow request holds back only the decider running it, never later
//!   requests on its connection.
//! * **admission** — with [`BatchOptions::admission`] set, its capacity
//!   bounds the requests queued or deciding across all connections. Past
//!   it, [`ShedPolicy::RejectNew`] sheds the arriving request and
//!   [`ShedPolicy::CancelOldest`] the oldest one still queued — never one
//!   already deciding; with none queued, the arrival is shed. Shed
//!   requests are answered `terminal=shed` at once and counted in
//!   [`eqsql_service::SolverStats::shed`].
//!
//! [`Server::drain`] sets one flag, cancels one [`Cancel`] token and
//! wakes every blocked thread: it shuts down the read half of each live
//! connection (its reader's `read` returns end of input) and connects to
//! the listening port once (the accept thread's `accept` returns). Queued
//! and deciding requests then finish with `terminal=cancelled` verdicts,
//! each connection closes once its last verdict is written, and the
//! accept thread joins everything and logs one final stats line.

use crate::json::stats_json;
use crate::proto::{control, split_id, Control};
use eqsql_service::{
    BatchOptions, Cancel, Error, Request, RequestRecord, ShedPolicy, Solver, MAX_LINE_BYTES,
};
use std::collections::{HashMap, VecDeque};
use std::io::{BufWriter, ErrorKind, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{JoinHandle, Scope};
use std::time::{Duration, Instant};

/// Bounds [`Server::drain`]'s self-connect. A loopback connect completes
/// in the kernel without the accept thread's help; only a full backlog
/// can stall it, and then the accept thread is already returning from
/// `accept` for the pending connections and sees the drain there.
const WAKE_TIMEOUT: Duration = Duration::from_secs(1);

/// Pause after a failed `accept` (out of file descriptors, say), so an
/// error that persists does not spin a core.
const ACCEPT_ERROR_BACKOFF: Duration = Duration::from_millis(10);

/// Everything tunable about a [`Server`].
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Concurrent-connection limit; arrivals past it get `busy max=N`.
    pub max_connections: usize,
    /// Per-connection write timeout: a client that stops reading its
    /// responses is disconnected rather than wedging a decider.
    pub write_timeout: Duration,
    /// The ops envelope every request runs under: deadline and retry
    /// apply per request exactly as in file mode, and the admission
    /// capacity bounds the requests queued or deciding across the whole
    /// server (see the module docs). The server installs its own drain
    /// token as the cancellation handle, so leave [`BatchOptions::cancel`]
    /// unset.
    pub batch: BatchOptions,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 64,
            write_timeout: Duration::from_secs(5),
            batch: BatchOptions::default(),
        }
    }
}

/// Server-wide accounting: live in the `stats` verb's JSON, final from
/// [`Server::join`].
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerReport {
    /// Connections accepted (excluding `busy` rejections).
    pub connections: u64,
    /// Connections turned away at the limit.
    pub rejected: u64,
    /// Request lines answered with a verdict line (including parse
    /// errors, shed requests and cancelled in-flight requests).
    pub served: u64,
    /// Most requests queued or deciding at once, across all connections.
    pub peak_in_flight: u64,
    /// Most requests deciding at once (at most [`Solver::threads`]).
    pub peak_deciders: u64,
}

/// One request read off a socket: the connection to answer on, the wire
/// id, the decoded request, and the instant its line was read (where its
/// queue phase and wall clock start).
struct Job {
    conn: Arc<Conn>,
    id: u64,
    request: Request,
    read_at: Instant,
}

/// The decision pool's queue and counters.
#[derive(Default)]
struct Pool {
    /// Requests waiting for a decider, oldest first; only non-empty while
    /// every decider is busy.
    queue: VecDeque<Job>,
    /// Deciders waiting for work, by index, most recently idle last.
    idle: Vec<usize>,
    deciding: usize,
    peak_in_flight: usize,
    peak_deciders: usize,
}

/// A decider's hand-off slot: [`Shared::submit`] puts a job straight into
/// an idle decider's slot, so waking it touches only this slot's lock.
#[derive(Default)]
struct Slot {
    job: Mutex<Option<Job>>,
    filled: Condvar,
}

impl Slot {
    /// Waits for a handed-off job; `None` once the pool is closed.
    fn take(&self, closed: &AtomicBool) -> Option<Job> {
        let mut slot = lock(&self.job);
        loop {
            if let Some(job) = slot.take() {
                return Some(job);
            }
            if closed.load(Ordering::Acquire) {
                return None;
            }
            slot = self.filled.wait(slot).unwrap_or_else(|e| e.into_inner());
        }
    }
}

struct Shared {
    solver: Arc<Solver>,
    config: ServerConfig,
    /// `config.batch` with the drain token as its cancellation handle:
    /// what every decision runs under.
    batch: BatchOptions,
    drain: Cancel,
    draining: AtomicBool,
    /// Where the drain's self-connect reaches the listener.
    wake: SocketAddr,
    /// A handle on each live connection's socket, by connection number,
    /// for the drain to shut its read half down. Its size is the live
    /// connection count.
    streams: Mutex<HashMap<u64, TcpStream>>,
    pool: Mutex<Pool>,
    /// One per decider.
    slots: Vec<Slot>,
    /// Every reader has exited, so nothing more can be submitted:
    /// deciders exit once their work is done.
    closed: AtomicBool,
    connections: AtomicU64,
    rejected: AtomicU64,
    served: AtomicU64,
}

impl Shared {
    fn drain(&self) {
        if self.draining.swap(true, Ordering::AcqRel) {
            return;
        }
        self.drain.cancel();
        for stream in lock(&self.streams).values() {
            let _ = stream.shutdown(Shutdown::Read);
        }
        let _ = TcpStream::connect_timeout(&self.wake, WAKE_TIMEOUT);
    }

    fn draining(&self) -> bool {
        self.draining.load(Ordering::Acquire)
    }

    fn report(&self) -> ServerReport {
        let pool = lock(&self.pool);
        ServerReport {
            connections: self.connections.load(Ordering::Acquire),
            rejected: self.rejected.load(Ordering::Acquire),
            served: self.served.load(Ordering::Acquire),
            peak_in_flight: pool.peak_in_flight as u64,
            peak_deciders: pool.peak_deciders as u64,
        }
    }

    /// Gives `job` to the pool, or sheds under admission: past capacity,
    /// RejectNew sheds `job` itself and CancelOldest the oldest job still
    /// queued (`job` itself when none is).
    fn submit(&self, job: Job) {
        let mut pool = lock(&self.pool);
        let shed = match self.batch.admission {
            Some(adm) if pool.queue.len() + pool.deciding >= adm.capacity => {
                let oldest = match adm.policy {
                    ShedPolicy::CancelOldest => pool.queue.pop_front(),
                    ShedPolicy::RejectNew => None,
                };
                match oldest {
                    Some(oldest) => {
                        pool.queue.push_back(job);
                        Some((oldest, adm.capacity))
                    }
                    None => Some((job, adm.capacity)),
                }
            }
            _ => {
                pool.queue.push_back(job);
                None
            }
        };
        pool.peak_in_flight = pool.peak_in_flight.max(pool.queue.len() + pool.deciding);
        // With a decider idle the queue held nothing else: hand the job
        // over. Preferring the decider that took this connection's last
        // request keeps a connection's reader and decider waking each
        // other instead of bouncing between deciders; on a 2-vCPU host,
        // waking any idle decider cost 13-18% of closed-loop throughput.
        let handoff = if pool.idle.is_empty() {
            None
        } else {
            pool.queue.pop_front().map(|job| {
                let last = job.conn.decider.load(Ordering::Relaxed);
                let k = pool.idle.iter().position(|&d| d == last).unwrap_or(pool.idle.len() - 1);
                pool.deciding += 1;
                pool.peak_deciders = pool.peak_deciders.max(pool.deciding);
                (pool.idle.remove(k), job)
            })
        };
        drop(pool);
        if let Some((d, job)) = handoff {
            job.conn.decider.store(d, Ordering::Relaxed);
            let slot = &self.slots[d];
            *lock(&slot.job) = Some(job);
            slot.filled.notify_one();
        }
        if let Some((job, capacity)) = shed {
            let record = self.solver.shed_request(&job.request, capacity, job.read_at, job.id);
            self.answer(&job.conn, &record);
        }
    }

    /// Writes a request's record line to the connection that sent it.
    fn answer(&self, conn: &Conn, record: &RequestRecord) {
        self.served.fetch_add(1, Ordering::AcqRel);
        conn.send(&record.render());
    }
}

/// Locks a server mutex. Every critical section leaves its data valid,
/// so a guard poisoned by a panicking holder is still good.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Closes the pool when dropped: once every reader has exited, and also
/// when one panicked, so the deciders always finish and can be joined.
struct ClosePool<'a>(&'a Shared);

impl Drop for ClosePool<'_> {
    fn drop(&mut self) {
        self.0.closed.store(true, Ordering::Release);
        for slot in &self.0.slots {
            // Under the slot's lock, so a decider between its check of
            // `closed` and its wait cannot miss this wake-up.
            let _slot = lock(&slot.job);
            slot.filled.notify_one();
        }
    }
}

/// A running server. Dropping the handle drains and joins it; a clean
/// shutdown is [`Server::drain`] (or the wire verb `drain`) followed by
/// [`Server::join`].
pub struct Server {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<ServerReport>>,
}

impl Server {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// starts the accept thread and the decision pool. The solver is
    /// shared — its cache, stats and admission counters are one pool
    /// across all connections and any in-process callers holding the same
    /// `Arc`.
    pub fn start(
        solver: Arc<Solver>,
        addr: impl ToSocketAddrs,
        config: ServerConfig,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let mut wake = local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake {
                SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
            });
        }
        let drain = Cancel::new();
        let batch = BatchOptions { cancel: Some(drain.clone()), ..config.batch.clone() };
        let deciders = solver.threads();
        let shared = Arc::new(Shared {
            solver,
            config,
            batch,
            drain,
            draining: AtomicBool::new(false),
            wake,
            streams: Mutex::new(HashMap::new()),
            pool: Mutex::new(Pool { idle: (0..deciders).collect(), ..Pool::default() }),
            slots: (0..deciders).map(|_| Slot::default()).collect(),
            closed: AtomicBool::new(false),
            connections: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            served: AtomicU64::new(0),
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || {
                serve(listener, &shared);
                let report = shared.report();
                // The final stats line of a graceful shutdown, one
                // parseable JSON document like the `stats` verb's.
                eprintln!("stats: {}", stats_json(&shared.solver.stats(), &report));
                report
            })
        };
        Ok(Server { local_addr, shared, accept: Some(accept) })
    }

    /// The bound address — the way to learn the port after binding `:0`.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Initiates graceful shutdown (the SIGTERM-equivalent): stop
    /// accepting, cancel in-flight decisions via the shared [`Cancel`]
    /// token, flush every connection's responses. Idempotent; returns
    /// immediately — [`Server::join`] waits for completion.
    pub fn drain(&self) {
        self.shared.drain();
    }

    /// Waits for the accept thread, every connection and the decision
    /// pool to finish. Only returns after a drain (local or over the
    /// wire); a healthy server blocks here indefinitely.
    pub fn join(mut self) -> ServerReport {
        self.join_inner()
    }

    fn join_inner(&mut self) -> ServerReport {
        match self.accept.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => ServerReport::default(),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.shared.drain();
            let _ = self.join_inner();
        }
    }
}

/// The accept thread's body: the deciders, then the accept loop with its
/// readers; returns once all of them have finished.
fn serve(listener: TcpListener, shared: &Shared) {
    std::thread::scope(|scope| {
        for index in 0..shared.slots.len() {
            scope.spawn(move || decider(shared, index));
        }
        let _close = ClosePool(shared);
        std::thread::scope(|readers| accept_loop(listener, shared, readers));
    });
}

fn accept_loop<'scope>(
    listener: TcpListener,
    shared: &'scope Shared,
    readers: &'scope Scope<'scope, '_>,
) {
    loop {
        let accepted = listener.accept();
        if shared.draining() {
            return; // the drain's self-connect, or an arrival racing it
        }
        let Ok((stream, _)) = accepted else {
            // ECONNABORTED and friends: the listener is still good.
            std::thread::sleep(ACCEPT_ERROR_BACKOFF);
            continue;
        };
        let mut streams = lock(&shared.streams);
        if streams.len() >= shared.config.max_connections {
            drop(streams);
            shared.rejected.fetch_add(1, Ordering::AcqRel);
            reject_busy(stream, &shared.config);
            continue;
        }
        let key = shared.connections.fetch_add(1, Ordering::AcqRel);
        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
        let _ = stream.set_nodelay(true);
        let (Ok(handle), Ok(write_half)) = (stream.try_clone(), stream.try_clone()) else {
            continue;
        };
        streams.insert(key, handle);
        drop(streams);
        let conn = Arc::new(Conn {
            writer: Mutex::new(BufWriter::new(write_half)),
            decider: AtomicUsize::new(usize::MAX),
        });
        readers.spawn(move || {
            reader(stream, shared, conn);
            lock(&shared.streams).remove(&key);
        });
    }
}

/// Over-limit connections get one line and a close; no thread is spent.
fn reject_busy(stream: TcpStream, config: &ServerConfig) {
    let _ = stream.set_write_timeout(Some(config.write_timeout));
    let mut stream = stream;
    let _ = writeln!(stream, "busy max={}", config.max_connections);
    let _ = stream.shutdown(Shutdown::Both);
}

/// Decider `index` of the pool: decides the jobs handed to its slot, and
/// the queued ones it finds when it finishes.
fn decider(shared: &Shared, index: usize) {
    while let Some(mut job) = shared.slots[index].take(&shared.closed) {
        loop {
            let record =
                shared.solver.decide_request(&job.request, &shared.batch, job.read_at, job.id);
            // Back to the pool before writing the verdict: a client that
            // sends its next request as soon as it reads this one should
            // find this decider idle. A job handed over meanwhile waits
            // for the write — at most one write timeout per client that
            // stops reading, since a failed write closes its socket.
            let next = {
                let mut pool = lock(&shared.pool);
                let next = pool.queue.pop_front();
                if next.is_none() {
                    pool.deciding -= 1;
                    pool.idle.push(index);
                }
                next
            };
            shared.answer(&job.conn, &record);
            let Some(next) = next else { break };
            next.conn.decider.store(index, Ordering::Relaxed);
            job = next;
        }
    }
}

/// A connection's write half, shared by its reader (control replies,
/// parse errors) and its queued jobs (verdicts). Whoever lets go last —
/// the reader at end of input, or the decider answering the connection's
/// final request — flushes and closes the socket.
struct Conn {
    writer: Mutex<BufWriter<TcpStream>>,
    /// The decider that took this connection's last request (a hint for
    /// [`Shared::submit`]; `usize::MAX` before the first).
    decider: AtomicUsize,
}

impl Conn {
    /// Writes one response line, flushing so it streams.
    fn send(&self, line: &str) {
        let mut w = lock(&self.writer);
        if writeln!(w, "{line}").and_then(|_| w.flush()).is_err() {
            // The client stopped reading (the write timed out) or is
            // gone. Closing the socket makes every later write to it fail
            // at once, so no decider waits out the timeout again, and
            // ends the connection's reader.
            let _ = w.get_ref().shutdown(Shutdown::Both);
        }
    }
}

impl Drop for Conn {
    fn drop(&mut self) {
        let w = self.writer.get_mut().unwrap_or_else(|e| e.into_inner());
        let _ = w.flush();
        let _ = w.get_ref().shutdown(Shutdown::Both);
    }
}

/// The read half: byte-accurate line framing over a blocking read.
/// Partial lines persist in `pending` across reads; an oversized line is
/// answered immediately and then discarded up to its terminating newline,
/// so one hostile line never kills the connection or unboundedly grows
/// the buffer.
fn reader(mut stream: TcpStream, shared: &Shared, conn: Arc<Conn>) {
    let mut pending: Vec<u8> = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut discarding = false;
    let mut seq: u64 = 0;
    loop {
        while let Some(pos) = pending.iter().position(|&b| b == b'\n') {
            let mut line: Vec<u8> = pending.drain(..=pos).collect();
            line.pop();
            if line.last() == Some(&b'\r') {
                line.pop();
            }
            if std::mem::take(&mut discarding) {
                continue; // the tail of an already-answered oversized line
            }
            if handle_line(&line, shared, &conn, &mut seq) == Flow::Drain {
                return;
            }
        }
        if pending.len() > MAX_LINE_BYTES {
            let (id, _) = split_id(&pending);
            seq += 1;
            let e = Error::parse(format!("request line exceeds the {MAX_LINE_BYTES}-byte limit"));
            conn.send(&RequestRecord::unparsed(id.unwrap_or(seq), e).render());
            pending.clear();
            discarding = true;
        }
        // A drain that began before this connection was registered did
        // not shut its read half down: look before blocking.
        if shared.draining() {
            return;
        }
        match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => pending.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

#[derive(PartialEq)]
enum Flow {
    Continue,
    Drain,
}

fn handle_line(line: &[u8], shared: &Shared, conn: &Arc<Conn>, seq: &mut u64) -> Flow {
    let line = line.trim_ascii();
    if line.is_empty() || line.first() == Some(&b'#') {
        return Flow::Continue;
    }
    *seq += 1;
    let (tag, payload) = split_id(line);
    let id = tag.unwrap_or(*seq);
    if let Some(ctrl) = control(payload) {
        match ctrl {
            Control::Ping => conn.send(&format!("pong id={id}")),
            Control::Stats => {
                let json = stats_json(&shared.solver.stats(), &shared.report());
                conn.send(&format!("stats id={id} {json}"));
            }
            Control::Drain => {
                conn.send(&format!("draining id={id}"));
                shared.drain();
                return Flow::Drain;
            }
        }
        return Flow::Continue;
    }
    match eqsql_service::parse_request_line_bytes(payload, shared.solver.schema()) {
        Ok(request) => {
            shared.submit(Job { conn: Arc::clone(conn), id, request, read_at: Instant::now() })
        }
        Err(e) => shared.answer(conn, &RequestRecord::unparsed(id, Error::from(e))),
    }
    Flow::Continue
}
