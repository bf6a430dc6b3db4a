//! Per-request trace spans and pluggable event sinks.
//!
//! A [`TraceCtx`] rides through one request (one `Solver` decision,
//! including every retry attempt) and accumulates where the time went —
//! the [`Phase`] accumulators — plus attribution counters: engine steps
//! and scans, chase steps including cache-replayed ones, memory- vs
//! disk-tier cache hits, misses, attempts. At the end of the request the
//! owner renders it into **one structured event line** in a stable
//! `key=value` format and hands it to a [`TraceSink`].
//!
//! ## Reading an event line
//!
//! ```text
//! event=request req=7 verb=equivalent outcome=equivalent terminal=ok \
//!   attempts=1 wall_us=1840 queue_us=310 regularize_us=0 chase_us=1210 \
//!   cache_us=55 evidence_us=0 steps=44 engine_steps=44 scans=61 \
//!   mem_hits=0 disk_hits=0 misses=2
//! ```
//!
//! * `wall_us` counts from **batch intake** (or decision start for a
//!   direct `decide`) to event emission, so `queue_us` — the admission
//!   wait before a worker picked the request up — is inside it, and the
//!   phase accumulators always sum to ≤ `wall_us`.
//! * `chase_us` is time inside the chase engine; `cache_us` is probe and
//!   replay time in the chase cache; `evidence_us` is counterexample /
//!   certificate construction *excluding* the nested chases it issues
//!   (those are already counted under `chase_us`/`cache_us` — see
//!   [`TraceCtx::time_excluding`] — so no microsecond is counted twice).
//! * `steps` counts chase steps the decision consumed including replayed
//!   cached ones; `engine_steps`/`scans` count fresh engine work only.
//! * `terminal` marks how the request ended: `ok`, `error` (a decided
//!   negative outcome, e.g. budget exhaustion), `deadline`, `cancelled`,
//!   `shed`, or `panic`. A dead run still emits a complete event — torn
//!   telemetry would make exactly the interesting requests invisible.
//!
//! All accumulators are relaxed atomics: a `TraceCtx` is shared by
//! reference across the helper layers of one decision, never across
//! decisions.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The phases of one request's lifetime. Phases are disjoint: each
/// microsecond of a request is attributed to at most one phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Admission-queue wait: the request's arrival until a worker started
    /// the decision. Arrival is batch intake for a batch, and the socket
    /// read for the `eqsql_net` server, so there this phase — and the
    /// request's wall clock — starts at first receipt.
    Queue,
    /// Σ-regularization and context-key construction (only non-zero when
    /// a request overrides the chase budgets; the default-budget context
    /// is precomputed at solver build time).
    Regularize,
    /// Time inside the chase engine (fresh chases and instance repairs).
    Chase,
    /// Chase-cache probe and replay time (memory and disk tiers).
    Cache,
    /// Evidence construction — counterexample search and certificate
    /// assembly — excluding the nested chases it issues.
    Evidence,
}

/// Every phase, in rendering order.
pub const PHASES: [Phase; 5] =
    [Phase::Queue, Phase::Regularize, Phase::Chase, Phase::Cache, Phase::Evidence];

impl Phase {
    /// The event-line key of this phase's accumulator.
    pub fn key(self) -> &'static str {
        match self {
            Phase::Queue => "queue_us",
            Phase::Regularize => "regularize_us",
            Phase::Chase => "chase_us",
            Phase::Cache => "cache_us",
            Phase::Evidence => "evidence_us",
        }
    }

    fn index(self) -> usize {
        match self {
            Phase::Queue => 0,
            Phase::Regularize => 1,
            Phase::Chase => 2,
            Phase::Cache => 3,
            Phase::Evidence => 4,
        }
    }
}

/// The span of one request. See the module docs.
#[derive(Debug, Default)]
pub struct TraceCtx {
    phase_us: [AtomicU64; 5],
    steps: AtomicU64,
    engine_steps: AtomicU64,
    scans: AtomicU64,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    attempts: AtomicU64,
}

impl TraceCtx {
    /// A fresh, empty span.
    pub fn new() -> TraceCtx {
        TraceCtx::default()
    }

    /// Adds `us` microseconds to `phase`.
    pub fn add_us(&self, phase: Phase, us: u64) {
        self.phase_us[phase.index()].fetch_add(us, Ordering::Relaxed);
    }

    /// `phase`'s accumulated microseconds.
    pub fn phase_us(&self, phase: Phase) -> u64 {
        self.phase_us[phase.index()].load(Ordering::Relaxed)
    }

    /// Runs `f`, attributing its wall time to `phase`.
    pub fn time<R>(&self, phase: Phase, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.add_us(phase, start.elapsed().as_micros() as u64);
        r
    }

    /// Runs `f`, attributing its wall time to `phase` **minus** whatever
    /// `f` itself attributed to the `excluding` phases — the tool for
    /// phases that nest (evidence search issues chases): the outer phase
    /// gets only its own time, and phase sums stay ≤ wall time.
    pub fn time_excluding<R>(&self, phase: Phase, excluding: &[Phase], f: impl FnOnce() -> R) -> R {
        let before: u64 = excluding.iter().map(|&p| self.phase_us(p)).sum();
        let start = Instant::now();
        let r = f();
        let elapsed = start.elapsed().as_micros() as u64;
        let nested: u64 = excluding.iter().map(|&p| self.phase_us(p)).sum::<u64>() - before;
        self.add_us(phase, elapsed.saturating_sub(nested));
        r
    }

    /// Adds chase steps consumed (replayed cache hits included).
    pub fn add_steps(&self, n: u64) {
        self.steps.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds fresh engine work (committed steps, scans) from a probe.
    pub fn add_engine_work(&self, steps: u64, scans: u64) {
        self.engine_steps.fetch_add(steps, Ordering::Relaxed);
        self.scans.fetch_add(scans, Ordering::Relaxed);
    }

    /// One memory-tier cache hit.
    pub fn mem_hit(&self) {
        self.mem_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// One disk-tier cache hit.
    pub fn disk_hit(&self) {
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// One cache miss (a fresh chase ran).
    pub fn miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// One decision attempt started (retries call this again).
    pub fn attempt(&self) {
        self.attempts.fetch_add(1, Ordering::Relaxed);
    }

    /// Attempts recorded so far.
    pub fn attempts(&self) -> u64 {
        self.attempts.load(Ordering::Relaxed)
    }

    /// The sum of every phase accumulator, µs.
    pub fn phase_total_us(&self) -> u64 {
        self.phase_us.iter().map(|p| p.load(Ordering::Relaxed)).sum()
    }

    /// Renders the finished span as one `key=value` event line. The key
    /// set and order are stable — scripts parse this.
    pub fn render(
        &self,
        req: u64,
        verb: &str,
        outcome: &str,
        terminal: &str,
        wall_us: u64,
    ) -> String {
        let mut line = format!(
            "event=request req={req} verb={verb} outcome={outcome} terminal={terminal} \
             attempts={}",
            self.attempts.load(Ordering::Relaxed).max(1)
        );
        line.push_str(&format!(" wall_us={wall_us}"));
        for phase in PHASES {
            line.push_str(&format!(" {}={}", phase.key(), self.phase_us(phase)));
        }
        line.push_str(&format!(
            " steps={} engine_steps={} scans={} mem_hits={} disk_hits={} misses={}",
            self.steps.load(Ordering::Relaxed),
            self.engine_steps.load(Ordering::Relaxed),
            self.scans.load(Ordering::Relaxed),
            self.mem_hits.load(Ordering::Relaxed),
            self.disk_hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        ));
        line
    }
}

/// Where finished event lines go. Implementations must be cheap and
/// non-blocking-ish: sinks are called on worker threads.
pub trait TraceSink: Send + Sync {
    /// Consumes one event line (no trailing newline).
    fn emit(&self, line: &str);
}

/// A sink collecting lines in memory — for tests and small tools.
#[derive(Debug, Default)]
pub struct VecSink(Mutex<Vec<String>>);

impl VecSink {
    /// An empty sink.
    pub fn new() -> VecSink {
        VecSink::default()
    }

    /// Every line emitted so far, in emission order.
    pub fn lines(&self) -> Vec<String> {
        self.0.lock().expect("sink lock").clone()
    }
}

impl TraceSink for VecSink {
    fn emit(&self, line: &str) {
        self.0.lock().expect("sink lock").push(line.to_string());
    }
}

/// A sink appending one line per event to any writer (a `BufWriter<File>`
/// for `eqsql-serve --trace`). Errors are deliberately swallowed:
/// telemetry must never fail a request.
pub struct WriteSink<W: std::io::Write + Send>(Mutex<W>);

impl<W: std::io::Write + Send> WriteSink<W> {
    /// Wraps `w`.
    pub fn new(w: W) -> WriteSink<W> {
        WriteSink(Mutex::new(w))
    }
}

impl<W: std::io::Write + Send> TraceSink for WriteSink<W> {
    fn emit(&self, line: &str) {
        let mut w = self.0.lock().expect("sink lock");
        let _ = writeln!(w, "{line}");
        let _ = w.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_and_render_stably() {
        let t = TraceCtx::new();
        t.attempt();
        t.add_us(Phase::Queue, 10);
        t.add_us(Phase::Chase, 100);
        t.add_us(Phase::Chase, 50);
        t.add_steps(7);
        t.add_engine_work(5, 9);
        t.mem_hit();
        t.miss();
        assert_eq!(t.phase_us(Phase::Chase), 150);
        assert_eq!(t.phase_total_us(), 160);
        let line = t.render(3, "equivalent", "equivalent", "ok", 200);
        assert_eq!(
            line,
            "event=request req=3 verb=equivalent outcome=equivalent terminal=ok attempts=1 \
             wall_us=200 queue_us=10 regularize_us=0 chase_us=150 cache_us=0 evidence_us=0 \
             steps=7 engine_steps=5 scans=9 mem_hits=1 disk_hits=0 misses=1"
        );
    }

    #[test]
    fn time_excluding_subtracts_nested_phase_time() {
        let t = TraceCtx::new();
        t.time_excluding(Phase::Evidence, &[Phase::Chase, Phase::Cache], || {
            // A nested "chase" that itself takes wall time.
            t.time(Phase::Chase, || std::thread::sleep(std::time::Duration::from_millis(5)));
        });
        // Evidence got only the (tiny) non-chase remainder; the 5ms went
        // to Chase. Bound generously — this is an attribution test, not
        // a timing benchmark.
        assert!(t.phase_us(Phase::Chase) >= 4_000);
        assert!(t.phase_us(Phase::Evidence) < t.phase_us(Phase::Chase));
    }

    #[test]
    fn vec_sink_collects_lines() {
        let sink = VecSink::new();
        sink.emit("event=request req=0");
        sink.emit("event=request req=1");
        assert_eq!(sink.lines().len(), 2);
    }

    #[test]
    fn write_sink_appends_newline_terminated_lines() {
        let sink = WriteSink::new(Vec::<u8>::new());
        sink.emit("a=1");
        sink.emit("b=2");
        let WriteSink(m) = sink;
        let buf = m.into_inner().unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "a=1\nb=2\n");
    }
}
