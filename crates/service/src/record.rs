//! The [`RequestRecord`]: what one request came to, closed once by the
//! [`crate::Solver`] and rendered by one function.
//!
//! [`RequestRecord::render`] is the `eqsql_net` server's verdict
//! response line *and* the line a [`crate::SolverBuilder::trace_sink`]
//! receives, so the wire and the trace cannot disagree about a request.

use crate::error::Error;
use crate::evidence::{BagContainmentCertificate, ContainmentCertificate, EquivalenceCertificate};
use crate::solver::{Answer, DecisionStats, Verdict};
use eqsql_obs::PHASES;
use std::fmt::Write as _;

/// One request's record: its verdict and what it cost. Returned by
/// [`crate::Solver::decide_request`] and [`crate::Solver::shed_request`],
/// and handed to the [`crate::Solver::decide_all_streaming`] callback.
#[derive(Clone, Debug)]
pub struct RequestRecord {
    /// The request's index in a batch, or its wire id.
    pub id: u64,
    /// The request's [`crate::Request::label`], or `unparsed` for a line
    /// that never became a request.
    pub verb: &'static str,
    /// The verdict.
    pub verdict: Result<Verdict, Error>,
    /// Chase steps, cache hits and misses and decision time, summed over
    /// every attempt. An `Ok` verdict carries the same stats.
    pub stats: DecisionStats,
    /// Cache hits answered by the memory tier.
    pub mem_hits: u64,
    /// Cache hits answered by the disk tier.
    pub disk_hits: u64,
    /// Decision attempts: more than 1 after a budget-escalating retry, 0
    /// for a request that was shed or never parsed.
    pub attempts: u32,
    /// Fresh engine steps, counted only while the Solver observes.
    pub engine_steps: u64,
    /// Dependency scans, counted only while the Solver observes.
    pub scans: u64,
    /// Wall µs from the request's arrival to its close, so the queue wait
    /// is inside it.
    pub wall_us: u64,
    /// Per-phase µs in [`PHASES`] order, when the Solver observed the
    /// request (`None` on the timestamp-free fast path).
    pub phase_us: Option<[u64; 5]>,
}

impl RequestRecord {
    /// The record of a request line that failed to parse: nothing was
    /// attempted, and no time is reported.
    pub fn unparsed(id: u64, error: Error) -> RequestRecord {
        RequestRecord {
            id,
            verb: "unparsed",
            verdict: Err(error),
            stats: DecisionStats::default(),
            mem_hits: 0,
            disk_hits: 0,
            attempts: 0,
            engine_steps: 0,
            scans: 0,
            wall_us: 0,
            phase_us: None,
        }
    }

    /// Renders the record as one line of space-separated `key=value`
    /// fields, without a trailing newline:
    ///
    /// ```text
    /// verdict id=9 verb=equivalent outcome=cancelled terminal=cancelled positive=false
    ///   evidence=none steps=12 hits=3 misses=1 wall_us=7 msg=cancelled after 310 chase steps
    /// ```
    ///
    /// (Shown wrapped.) The fields come in this order:
    ///
    /// * always `id`, `verb`, `outcome` (the answer or error label),
    ///   `terminal` (`ok`, or how the request died: see
    ///   [`Error::labels`]), `positive`, `evidence` (one token naming the
    ///   certificate or witness the verdict carries), `steps`, `hits`,
    ///   `misses` and `wall_us`;
    /// * for an observed request, the phases `queue_us` … `evidence_us`,
    ///   then `attempts`, `engine_steps`, `scans`, `mem_hits` and
    ///   `disk_hits`;
    /// * for an error, `msg`, always last because it runs to end of line.
    ///   Its CR and LF characters are rendered as spaces, so a multi-line
    ///   message (a panic's `assert_eq!` report) stays on the one line.
    ///
    /// The order is part of the `eqsql_net` wire protocol: new fields go
    /// before `msg`.
    pub fn render(&self) -> String {
        let (outcome, terminal) = match &self.verdict {
            Ok(v) => (v.answer.label(), "ok"),
            Err(e) => e.labels(),
        };
        let positive = self.verdict.as_ref().is_ok_and(Verdict::is_positive);
        let mut line = format!(
            "verdict id={} verb={} outcome={outcome} terminal={terminal} positive={positive} \
             evidence={} steps={} hits={} misses={} wall_us={}",
            self.id,
            self.verb,
            evidence_summary(&self.verdict),
            self.stats.chase_steps,
            self.stats.cache_hits,
            self.stats.cache_misses,
            self.wall_us,
        );
        if let Some(phase_us) = self.phase_us {
            for (phase, us) in PHASES.iter().zip(phase_us) {
                let _ = write!(line, " {}={us}", phase.key());
            }
            let _ = write!(
                line,
                " attempts={} engine_steps={} scans={} mem_hits={} disk_hits={}",
                self.attempts, self.engine_steps, self.scans, self.mem_hits, self.disk_hits
            );
        }
        if let Err(e) = &self.verdict {
            line.push_str(" msg=");
            line.extend(
                e.to_string().chars().map(|c| if c == '\r' || c == '\n' { ' ' } else { c }),
            );
        }
        line
    }
}

/// One token summarizing the evidence a verdict carries — which
/// certificate shape certifies a positive answer, whether a negative one
/// found a materialized witness. Never contains spaces.
fn evidence_summary(verdict: &Result<Verdict, Error>) -> String {
    let Ok(v) = verdict else { return "none".into() };
    let witness = |found: bool| if found { "witness-db" } else { "none" };
    match &v.answer {
        Answer::Equivalent { certificate } => match certificate {
            EquivalenceCertificate::BothUnsatisfiable => "both-unsatisfiable".into(),
            EquivalenceCertificate::Set { .. } => "containment-homs".into(),
            EquivalenceCertificate::Iso { .. } => "isomorphism".into(),
        },
        Answer::NotEquivalent { counterexample } => witness(counterexample.is_some()).into(),
        Answer::Contained { certificate } => match certificate {
            ContainmentCertificate::EmptyLeft => "empty-left".into(),
            ContainmentCertificate::Mapping { .. } => "containment-hom".into(),
        },
        Answer::NotContained { counterexample } => witness(counterexample.is_some()).into(),
        Answer::BagContained { certificate } => match certificate {
            BagContainmentCertificate::EmptyLeft => "empty-left".into(),
            BagContainmentCertificate::OntoMapping { .. } => "onto-hom".into(),
        },
        Answer::BagNotContained { .. } => "witness-db".into(),
        Answer::BagContainmentOpen => "open".into(),
        Answer::Minimal => "no-witness".into(),
        Answer::NotMinimal { .. } => "reduction-witness".into(),
        Answer::Reformulated { reformulations, .. } => {
            format!("reformulations={}", reformulations.len())
        }
        Answer::Implied { vacuous: true, .. } => "vacuous".into(),
        Answer::Implied { .. } => "conclusion-hom".into(),
        Answer::NotImplied { counterexample, .. } => witness(counterexample.is_some()).into(),
        Answer::ChasedInstance { steps, .. } => format!("repaired={steps}"),
    }
}
