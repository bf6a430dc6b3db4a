//! Per-request trace spans and pluggable line sinks.
//!
//! A [`TraceCtx`] rides through one request (one `Solver` decision,
//! including every retry attempt) and accumulates where the time went,
//! in one accumulator per [`Phase`]. The phases are disjoint:
//!
//! * `queue` runs from the request's arrival (batch intake, or the socket
//!   read) until a worker picked it up, so it is inside the request's
//!   wall time, and the phases always sum to at most that wall time;
//! * `chase` is time inside the chase engine and `cache` is probe and
//!   replay time in the chase cache;
//! * `evidence` is counterexample and certificate construction
//!   *excluding* the nested chases it issues (those are already counted
//!   under `chase`/`cache` — see [`TraceCtx::time_excluding`]), so no
//!   microsecond is counted twice.
//!
//! The span's owner closes the request and hands its one line to a
//! [`TraceSink`]; the span itself renders nothing. The accumulators are
//! relaxed atomics: a `TraceCtx` is shared by reference across the
//! helper layers of one decision, never across decisions.

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
    /// The line key of this phase's accumulator.
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
}

/// Where finished request lines go. Implementations must be cheap and
/// non-blocking-ish: sinks are called on worker threads.
pub trait TraceSink: Send + Sync {
    /// Consumes one line (no trailing newline).
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

/// A sink appending each line to any writer (a `BufWriter<File>`
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
    fn phases_accumulate() {
        let t = TraceCtx::new();
        t.add_us(Phase::Queue, 10);
        t.add_us(Phase::Chase, 100);
        t.add_us(Phase::Chase, 50);
        assert_eq!(PHASES.map(|p| t.phase_us(p)), [10, 0, 150, 0, 0]);
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
        sink.emit("verdict id=0");
        sink.emit("verdict id=1");
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
