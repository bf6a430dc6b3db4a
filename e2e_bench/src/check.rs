//! Verdict checks, all outside the timed regions: every in-process verdict
//! replays its evidence, every socket verdict must carry the in-process
//! label of its request, and set-semantics `equivalent` verdicts must agree
//! with an oracle built only on the naive reference chase and matcher.

use crate::drive::Sample;
use eqsql_chase::{set_chase_reference, ChaseConfig};
use eqsql_cq::matcher::reference::extend_homomorphism;
use eqsql_cq::{CqQuery, Subst, Term};
use eqsql_deps::DependencySet;
use eqsql_relalg::Semantics;
use eqsql_service::{Error, Request, RequestFile, Solver, Verdict};
use std::collections::BTreeMap;

/// The in-process answer for each checked request: its verdict label, or
/// why the request failed its checks.
#[derive(Default)]
pub struct Expected(BTreeMap<usize, Result<String, String>>);

impl Expected {
    /// Checks one in-process verdict of `file.requests[request]` and
    /// records its label (the first verdict seen for a request wins; a
    /// later one with another label is itself a failure).
    pub fn record(&mut self, file: &RequestFile, request: usize, verdict: &Result<Verdict, Error>) {
        let checked = check_verdict(file, &file.requests[request], verdict);
        match (self.0.get(&request), checked) {
            (None, checked) => {
                self.0.insert(request, checked);
            }
            (Some(Ok(first)), Ok(label)) if *first != label => {
                let why = format!("in-process verdicts disagree: {first} then {label}");
                self.0.insert(request, Err(why));
            }
            (Some(Ok(_)), Err(why)) => {
                self.0.insert(request, Err(why));
            }
            _ => {}
        }
    }

    /// Decides `which` (distinct request indices) in process on two
    /// threads over a fresh memory cache, and checks every verdict.
    pub fn decide(file: &RequestFile, which: &[usize]) -> Expected {
        let solver = Solver::builder(file.sigma.clone(), file.schema.clone())
            .chase_config(file.config)
            .threads(2)
            .build();
        let requests: Vec<Request> = which.iter().map(|&i| file.requests[i].clone()).collect();
        let report = solver.decide_all(&requests);
        let mut expected = Expected::default();
        for (&i, verdict) in which.iter().zip(&report.verdicts) {
            expected.record(file, i, verdict);
        }
        expected
    }

    /// Socket samples that fail: transport errors, non-`ok` terminals,
    /// requests whose in-process checks failed, and labels that differ
    /// from the in-process label. Returns the count and a few reasons.
    pub fn failures(&self, samples: &[Sample]) -> (u64, Vec<String>) {
        let mut failed = 0;
        let mut reasons = Vec::new();
        for s in samples {
            let why = match (&s.verdict, self.0.get(&s.request)) {
                (Err(e), _) => Some(format!("transport: {e}")),
                (Ok((_, terminal)), _) if terminal != "ok" => Some(format!("terminal={terminal}")),
                (_, None) => Some("no in-process verdict".to_string()),
                (_, Some(Err(why))) => Some(why.clone()),
                (Ok((outcome, _)), Some(Ok(label))) if outcome != label => {
                    Some(format!("socket says {outcome}, in-process {label}"))
                }
                _ => None,
            };
            if let Some(why) = why {
                failed += 1;
                if reasons.len() < 5 {
                    reasons.push(format!("request {}: {why}", s.request));
                }
            }
        }
        (failed, reasons)
    }

    /// Requests whose in-process checks failed.
    pub fn bad(&self) -> Vec<String> {
        self.0
            .iter()
            .filter_map(|(i, r)| r.as_ref().err().map(|why| format!("request {i}: {why}")))
            .collect()
    }
}

/// Replays the verdict's evidence and, for a set-semantics `equivalent`
/// verdict, asks the reference oracle. Returns the verdict label.
fn check_verdict(
    file: &RequestFile,
    request: &Request,
    verdict: &Result<Verdict, Error>,
) -> Result<String, String> {
    let v = verdict.as_ref().map_err(|e| format!("in-process error: {e}"))?;
    v.verify(request, &file.sigma, &file.schema).map_err(|e| format!("evidence: {}", e.reason))?;
    let label = v.answer.label().to_string();
    if let Request::Equivalent { q1, q2, opts } = request {
        if opts.sem.unwrap_or(Semantics::Set) == Semantics::Set && label == "equivalent" {
            match oracle_set_equivalent(q1, q2, &file.sigma, &file.config) {
                Some(true) => {}
                Some(false) => return Err("reference oracle: not equivalent".into()),
                None => return Err("reference oracle: chase did not terminate".into()),
            }
        }
    }
    Ok(label)
}

/// Set-semantics Σ-equivalence from the naive reference chase and the
/// naive reference matcher only: containment mappings both ways between
/// the chased queries.
fn oracle_set_equivalent(
    q1: &CqQuery,
    q2: &CqQuery,
    sigma: &DependencySet,
    config: &ChaseConfig,
) -> Option<bool> {
    let c1 = set_chase_reference(q1, sigma, config).ok()?;
    let c2 = set_chase_reference(q2, sigma, config).ok()?;
    Some(match (c1.failed, c2.failed) {
        (true, true) => true,
        (true, false) | (false, true) => false,
        (false, false) => maps_into(&c2.query, &c1.query) && maps_into(&c1.query, &c2.query),
    })
}

/// Is there a containment mapping from `from` to `to` (body into body,
/// head onto head)?
fn maps_into(from: &CqQuery, to: &CqQuery) -> bool {
    if from.head.len() != to.head.len() {
        return false;
    }
    let mut seed = Subst::new();
    for (a, b) in from.head.iter().zip(&to.head) {
        match a {
            Term::Var(v) => match seed.get(*v) {
                Some(bound) if bound != b => return false,
                Some(_) => {}
                None => seed.set(*v, *b),
            },
            Term::Const(_) if a != b => return false,
            Term::Const(_) => {}
        }
    }
    extend_homomorphism(&from.body, &to.body, &seed).is_some()
}
