//! # eqsql-obs — in-tree observability: counters, histograms, traces
//!
//! Chase cost under embedded dependencies is intrinsically spiky —
//! termination behavior varies wildly with Σ — so the serving layer's
//! ops knobs (shedding, deadlines, retry escalation) are tunable only
//! against *tail* latency, not averages. This crate is the zero-dependency
//! substrate for that visibility, built like the vendored shims: small,
//! API-compatible-in-spirit with `metrics`/`tracing`, no registry access
//! required.
//!
//! Two layers, each usable alone:
//!
//! * [`hist`] — [`Histogram`]: log-bucketed (octaves with linear
//!   sub-buckets), all-atomic, mergeable, with p50/p90/p99/max extraction
//!   whose error is bounded by the bucket width (≤ 1/16 relative).
//! * [`trace`] — [`TraceCtx`]: one per-request span accumulating phase
//!   timings (queue wait, Σ-regularization, engine time, cache probes,
//!   evidence construction), and the pluggable [`TraceSink`] that the
//!   owner of a finished request hands its one line to.
//!
//! ## The off switch
//!
//! Instrumentation must be free when nobody is looking. There is no
//! process-global gate: whoever owns the work holds the handles, and an
//! absent handle is the off switch. A solver observes exactly when it was
//! given a [`TraceSink`]; [`StepProbe::default`] holds no state and every
//! callback is a single `Option` test — the same pattern as the engine's
//! unguarded `RunGuard` — so the engine stays step-identical whether or
//! not anything observes it.
//!
//! Observation may never change *results*: every consumer of this crate
//! is pinned by a differential suite asserting verdicts, step counts and
//! cache attribution are bit-identical with instrumentation off and on.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod hist;
pub mod trace;

pub use hist::{Histogram, HistogramSummary};
pub use trace::{Phase, TraceCtx, TraceSink, VecSink, WriteSink, PHASES};

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct ProbeInner {
    steps: AtomicU64,
    scans: AtomicU64,
}

/// A chase-engine work probe: counts committed engine steps and
/// dependency scans (premise hom-searches issued).
///
/// The default probe is **disarmed** — no allocation, every callback one
/// `Option` test — so it can ride inside `EngineOpts` unconditionally,
/// exactly like the unguarded `RunGuard`. Clones share state, so one
/// armed probe aggregates across every chase of a decision. The probe
/// never influences the engine (it is pure accounting), so it is not
/// part of any cache key.
#[derive(Clone, Default)]
pub struct StepProbe(Option<Arc<ProbeInner>>);

impl std::fmt::Debug for StepProbe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.0 {
            None => f.write_str("StepProbe(disarmed)"),
            Some(i) => f
                .debug_struct("StepProbe")
                .field("steps", &i.steps.load(Ordering::Relaxed))
                .field("scans", &i.scans.load(Ordering::Relaxed))
                .finish(),
        }
    }
}

impl StepProbe {
    /// An armed probe: counts until dropped.
    pub fn armed() -> StepProbe {
        StepProbe(Some(Arc::new(ProbeInner { steps: AtomicU64::new(0), scans: AtomicU64::new(0) })))
    }

    /// Is this probe counting?
    pub fn is_armed(&self) -> bool {
        self.0.is_some()
    }

    /// One committed engine step (egd rewrite or tgd fire).
    #[inline]
    pub fn on_step(&self) {
        if let Some(i) = &self.0 {
            i.steps.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// One dependency scan against the current body.
    #[inline]
    pub fn on_scan(&self) {
        if let Some(i) = &self.0 {
            i.scans.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Committed steps seen so far (0 for a disarmed probe).
    pub fn steps(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.steps.load(Ordering::Relaxed))
    }

    /// Scans seen so far (0 for a disarmed probe).
    pub fn scans(&self) -> u64 {
        self.0.as_ref().map_or(0, |i| i.scans.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disarmed_probe_counts_nothing_and_clones_share_state() {
        let p = StepProbe::default();
        assert!(!p.is_armed());
        p.on_step();
        p.on_scan();
        assert_eq!((p.steps(), p.scans()), (0, 0));

        let p = StepProbe::armed();
        let q = p.clone();
        p.on_step();
        q.on_step();
        q.on_scan();
        p.on_scan();
        q.on_scan();
        assert_eq!((p.steps(), p.scans()), (2, 3));
    }
}
