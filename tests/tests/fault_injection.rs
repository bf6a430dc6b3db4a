//! Fault-injection suite for the Solver's robustness layer: deterministic
//! cancellation/deadline/panic faults forced at the Nth guard poll
//! (`FaultPlan`), pinning the ISSUE's acceptance properties —
//!
//! (a) a cancellation or deadline signal aborts the decision within one
//!     engine step of the poll that observed it;
//! (b) a panicking request is isolated to an `Error::Internal` verdict
//!     while the rest of the batch completes;
//! (c) a timed-out/cancelled chase is never memoized: the cache, and the
//!     verdicts and per-decision accounting of every subsequent request,
//!     are identical to a fresh solver's;
//! (d) the bounded admission queue sheds per policy, deterministically,
//!     with accurate counters in `Solver::stats()`.

use eqsql_chase::ChaseConfig;
use eqsql_cq::parse_query;
use eqsql_deps::parse_dependencies;
use eqsql_relalg::{Schema, Semantics};
use eqsql_service::{
    AdmissionConfig, BatchOptions, Cancel, Error, Fault, FaultPlan, Request, RequestOpts,
    RetryPolicy, Solver,
};

/// A weakly acyclic Σ whose chases take a healthy number of steps, so a
/// fault at poll N lands strictly mid-chase.
fn chain_fixture() -> (eqsql_deps::DependencySet, Schema) {
    let sigma = parse_dependencies(
        "a(X) -> b(X).\n\
         b(X) -> c(X).\n\
         c(X) -> d(X).\n\
         d(X) -> e(X).\n\
         e(X) -> f(X).",
    )
    .unwrap();
    let schema = Schema::all_bags(&[("a", 1), ("b", 1), ("c", 1), ("d", 1), ("e", 1), ("f", 1)]);
    (sigma, schema)
}

fn equiv(q1: &str, q2: &str, opts: RequestOpts) -> Request {
    Request::Equivalent { q1: parse_query(q1).unwrap(), q2: parse_query(q2).unwrap(), opts }
}

/// (a) A forced cancellation at the Nth guard poll surfaces as
/// `Error::Cancelled` carrying a step count no greater than N: the
/// engine polls once per step, so the abort happens within one step of
/// the signal. Same for a forced deadline expiry.
#[test]
fn injected_faults_abort_within_one_step_of_the_signal() {
    let (sigma, schema) = chain_fixture();
    let solver = Solver::builder(sigma.clone(), schema.clone()).build();
    // Unguarded baseline: the full chase takes several steps.
    let baseline = solver
        .decide(&equiv("q(X) :- a(X)", "q(X) :- a(X), b(X)", RequestOpts::default()))
        .unwrap();
    assert!(baseline.is_positive());

    for (fault, n) in [(Fault::Cancel, 3), (Fault::Deadline, 2)] {
        // A fresh solver per fault: no warm cache, so the chase really runs.
        let solver = Solver::builder(sigma.clone(), schema.clone()).build();
        let opts = RequestOpts { fault: Some(FaultPlan::new(n, fault)), ..RequestOpts::default() };
        let err = solver.decide(&equiv("q(X) :- a(X)", "q(X) :- a(X), b(X)", opts)).unwrap_err();
        let steps = match (fault, &err) {
            (Fault::Cancel, Error::Cancelled { steps }) => *steps,
            (Fault::Deadline, Error::DeadlineExceeded { steps }) => *steps,
            _ => panic!("fault {fault:?} surfaced as {err:?}"),
        };
        assert!(steps as u64 <= n, "{fault:?} at poll {n} aborted only after {steps} steps");
        assert!(err.is_transient());
    }
}

/// (b) One request of a batch panics (forced via `Fault::Panic`); it
/// becomes an `Error::Internal` verdict carrying the panic message, every
/// other request completes normally, and the panic is counted.
#[test]
fn a_panicking_request_is_isolated_from_its_batch() {
    let (sigma, schema) = chain_fixture();
    let solver = Solver::builder(sigma, schema).threads(2).build();
    let poisoned =
        RequestOpts { fault: Some(FaultPlan::new(1, Fault::Panic)), ..RequestOpts::default() };
    let batch = vec![
        equiv("q(X) :- a(X)", "q(X) :- a(X), b(X)", RequestOpts::default()),
        equiv("q(X) :- a(X)", "q(X) :- a(X), c(X)", poisoned),
        equiv("q(X) :- b(X)", "q(X) :- b(X), c(X)", RequestOpts::default()),
    ];
    let report = solver.decide_all(&batch);
    assert!(report.verdicts[0].as_ref().unwrap().is_positive());
    assert!(report.verdicts[2].as_ref().unwrap().is_positive());
    match &report.verdicts[1] {
        Err(Error::Internal { message }) => {
            assert!(message.contains("fault injection"), "unexpected message {message:?}")
        }
        other => panic!("expected Internal, got {other:?}"),
    }
    assert_eq!(solver.stats().panics, 1);
    // The solver is still fully serviceable: the identical request,
    // without the fault plan, now succeeds.
    let retried = solver
        .decide(&equiv("q(X) :- a(X)", "q(X) :- a(X), c(X)", RequestOpts::default()))
        .unwrap();
    assert!(retried.is_positive());
}

/// (c) A cancelled (or timed-out) chase is never memoized. After the
/// faulted run, the solver's cache and every subsequent verdict — down to
/// the per-decision hit/miss/step accounting — are identical to a fresh
/// solver that never saw the fault.
#[test]
fn faulted_runs_leave_no_trace_in_the_cache() {
    let (sigma, schema) = chain_fixture();
    let requests = vec![
        equiv("q(X) :- a(X)", "q(X) :- a(X), b(X)", RequestOpts::default()),
        equiv("q(X) :- a(X), b(X)", "q(X) :- a(X), f(X)", RequestOpts::default()),
    ];

    let faulted = Solver::builder(sigma.clone(), schema.clone()).build();
    for fault in [Fault::Cancel, Fault::Deadline] {
        let opts = RequestOpts { fault: Some(FaultPlan::new(1, fault)), ..RequestOpts::default() };
        let err = faulted.decide(&equiv("q(X) :- a(X)", "q(X) :- a(X), b(X)", opts)).unwrap_err();
        assert!(err.is_transient(), "fault {fault:?} surfaced as {err:?}");
    }
    // Nothing was cached by the two dead runs.
    assert_eq!(faulted.stats().cache.entries, 0);

    let fresh = Solver::builder(sigma, schema).build();
    let from_faulted = faulted.decide_all(&requests);
    let from_fresh = fresh.decide_all(&requests);
    for (a, b) in from_faulted.verdicts.iter().zip(from_fresh.verdicts.iter()) {
        // Compare by answer kind (substitution maps inside certificates
        // Debug-print in nondeterministic order; the accounting equalities
        // below pin the computations themselves).
        let kind = |v: &Result<eqsql_service::Verdict, Error>| match v {
            Ok(v) => v.answer.label().to_string(),
            Err(e) => format!("{e:?}"),
        };
        assert_eq!(kind(a), kind(b));
    }
    assert_eq!(from_faulted.stats.chase_steps, from_fresh.stats.chase_steps);
    assert_eq!(from_faulted.stats.cache_hits, from_fresh.stats.cache_hits);
    assert_eq!(from_faulted.stats.cache_misses, from_fresh.stats.cache_misses);
    assert_eq!(faulted.stats().cache.entries, fresh.stats().cache.entries);
}

/// (c, continued) A `deadline_ms = 0` request — "already expired" — fails
/// before doing any work, for every verb; the identical request without
/// the deadline then succeeds against an untouched cache.
#[test]
fn an_expired_deadline_fails_everything_and_caches_nothing() {
    let (sigma, schema) = chain_fixture();
    let solver = Solver::builder(sigma, schema).build();
    let expired = RequestOpts::with_deadline_ms(0);
    let requests = vec![
        equiv("q(X) :- a(X)", "q(X) :- a(X), b(X)", expired),
        Request::Minimal { q: parse_query("q(X) :- a(X), b(X)").unwrap(), opts: expired },
        Request::Implies {
            dep: parse_dependencies("a(X) -> f(X).").unwrap().iter().next().unwrap().clone(),
            opts: expired,
        },
    ];
    for req in &requests {
        match solver.decide(req) {
            Err(Error::DeadlineExceeded { .. }) => {}
            other => panic!("expected DeadlineExceeded, got {other:?}"),
        }
    }
    assert_eq!(solver.stats().cache.entries, 0);
    let ok = solver
        .decide(&equiv("q(X) :- a(X)", "q(X) :- a(X), b(X)", RequestOpts::default()))
        .unwrap();
    assert!(ok.is_positive());
}

/// A batch whose `Cancel` handle is set before submission: every admitted
/// request is answered `Error::Cancelled` without chasing.
#[test]
fn a_pre_cancelled_batch_is_answered_without_work() {
    let (sigma, schema) = chain_fixture();
    let solver = Solver::builder(sigma, schema).threads(2).build();
    let cancel = Cancel::new();
    cancel.cancel();
    let batch = vec![
        equiv("q(X) :- a(X)", "q(X) :- a(X), b(X)", RequestOpts::default()),
        equiv("q(X) :- b(X)", "q(X) :- b(X), c(X)", RequestOpts::default()),
    ];
    let opts = BatchOptions { cancel: Some(cancel), ..BatchOptions::default() };
    let report = solver.decide_all_streaming(&batch, &opts, &|_| {});
    for v in &report.verdicts {
        assert!(matches!(v, Err(Error::Cancelled { .. })), "got {v:?}");
    }
    assert_eq!(report.stats.chase_steps, 0, "cancelled batch must not chase");
    assert_eq!(solver.stats().cache.entries, 0);
}

/// (d) Bounded admission sheds deterministically per policy — RejectNew
/// keeps the earliest arrivals, CancelOldest the latest — and the shed
/// counters in the report and in `Solver::stats()` are exact.
#[test]
fn admission_queue_sheds_per_policy_with_accurate_counters() {
    let (sigma, schema) = chain_fixture();
    let mk = |i: usize| {
        equiv(
            &format!("q{i}(X) :- a(X)"),
            &format!("q{i}(X) :- a(X), b(X)"),
            RequestOpts::default(),
        )
    };
    let batch: Vec<Request> = (0..5).map(mk).collect();

    let solver = Solver::builder(sigma.clone(), schema.clone()).build();
    let opts =
        BatchOptions { admission: Some(AdmissionConfig::reject_new(2)), ..BatchOptions::default() };
    let report = solver.decide_all_streaming(&batch, &opts, &|_| {});
    assert_eq!(report.shed, 3);
    assert_eq!(solver.stats().shed, 3);
    for v in &report.verdicts[..2] {
        assert!(v.as_ref().unwrap().is_positive());
    }
    for v in &report.verdicts[2..] {
        assert!(matches!(v, Err(Error::Shed { capacity: 2 })), "got {v:?}");
    }

    let solver = Solver::builder(sigma, schema).build();
    let opts = BatchOptions {
        admission: Some(AdmissionConfig::cancel_oldest(2)),
        ..BatchOptions::default()
    };
    let report = solver.decide_all_streaming(&batch, &opts, &|_| {});
    assert_eq!(report.shed, 3);
    assert_eq!(solver.stats().shed, 3);
    for v in &report.verdicts[..3] {
        assert!(matches!(v, Err(Error::Shed { capacity: 2 })), "got {v:?}");
    }
    for v in &report.verdicts[3..] {
        assert!(v.as_ref().unwrap().is_positive());
    }
}

/// Retry-with-escalated-budget: a request that exhausts a tiny step
/// budget is re-decided at `budget_multiplier`× and succeeds; the retry is
/// counted, and the memoized exhaustion at the smaller budget stays
/// intact (budgets are part of the cache context).
#[test]
fn budget_exhaustion_retries_with_an_escalated_budget() {
    let (sigma, schema) = chain_fixture();
    // Budget 2 exhausts (the chain needs 5 tgd steps per side); 2 × 4 = 8
    // completes it.
    let solver =
        Solver::builder(sigma, schema).chase_config(ChaseConfig::with_max_steps(2)).build();
    let batch = vec![equiv("q(X) :- a(X)", "q(X) :- a(X), f(X)", RequestOpts::default())];

    // Without retry: exhausted.
    let report = solver.decide_all(&batch);
    assert!(matches!(report.verdicts[0], Err(Error::BudgetExhausted { .. })));

    // With retry: the escalated attempt decides it.
    let opts = BatchOptions {
        retry: Some(RetryPolicy { max_attempts: 2, budget_multiplier: 4 }),
        ..BatchOptions::default()
    };
    let report = solver.decide_all_streaming(&batch, &opts, &|_| {});
    assert!(report.verdicts[0].as_ref().unwrap().is_positive(), "got {:?}", report.verdicts[0]);
    assert_eq!(solver.stats().retries, 1);

    // The small-budget exhaustion is still memoized (a stable fact): the
    // retry-free path keeps answering from cache.
    let hits_before = solver.stats().cache.hits;
    let report = solver.decide_all(&batch);
    assert!(matches!(report.verdicts[0], Err(Error::BudgetExhausted { .. })));
    assert!(solver.stats().cache.hits > hits_before);
}

/// A retried request reports one set of counts, summed over its attempts:
/// the callback's record, the trace line, the verdict's own stats and the
/// batch report agree, and the record and the trace line read one clock.
#[test]
fn a_retried_request_reports_one_set_of_counts() {
    use eqsql_net::{proto::parse_response, Response};
    use eqsql_service::{DecisionStats, TraceSink, VecSink};
    use std::sync::{Arc, Mutex};
    let (sigma, schema) = chain_fixture();
    let sink = Arc::new(VecSink::new());
    let solver = Solver::builder(sigma, schema)
        .chase_config(ChaseConfig::with_max_steps(2))
        .trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>)
        .build();
    let batch = vec![equiv("q(X) :- a(X)", "q(X) :- a(X), f(X)", RequestOpts::default())];
    let opts = BatchOptions {
        retry: Some(RetryPolicy { max_attempts: 2, budget_multiplier: 4 }),
        ..BatchOptions::default()
    };
    let records = Mutex::new(Vec::new());
    let report =
        solver.decide_all_streaming(&batch, &opts, &|r| records.lock().unwrap().push(r.clone()));
    let records = records.into_inner().unwrap();
    let lines = sink.lines();
    let ([record], [line]) = (&records[..], &lines[..]) else {
        panic!("one record and one trace line: {records:?} {lines:?}")
    };
    let Response::Verdict(traced) = parse_response(line) else { panic!("not a verdict: {line}") };
    let verdict = report.verdicts[0].as_ref().expect("the escalated attempt decides the pair");

    assert_eq!(record.attempts, 2);
    assert!(line.contains(" attempts=2 "), "{line}");
    let counts = |s: DecisionStats| (s.chase_steps, s.cache_hits, s.cache_misses);
    let want = counts(record.stats);
    assert_eq!((traced.steps, traced.hits, traced.misses), want, "{line}");
    assert_eq!(counts(verdict.stats), want);
    assert_eq!(counts(report.stats), want);
    assert_eq!(traced.wall_us, record.wall_us, "{line}");
    // The first attempt missed on the left query and exhausted its budget;
    // the second missed on both queries at the escalated budget.
    assert_eq!(record.stats.cache_misses, 3, "{line}");
}

/// `Error::BudgetExhausted` stays cacheable — the one stable error class —
/// while the guard errors are not; the request-level `is_transient`
/// mirrors the chase-level `is_cacheable` split.
#[test]
fn the_transient_stable_split_is_consistent_across_layers() {
    use eqsql_chase::ChaseError;
    assert!(ChaseError::BudgetExhausted { steps: 1 }.is_cacheable());
    assert!(ChaseError::QueryTooLarge { atoms: 1 }.is_cacheable());
    assert!(!ChaseError::DeadlineExceeded { steps: 1 }.is_cacheable());
    assert!(!ChaseError::Cancelled { steps: 1 }.is_cacheable());

    assert!(!Error::BudgetExhausted { steps: 1 }.is_transient());
    assert!(!Error::QueryTooLarge { atoms: 1 }.is_transient());
    assert!(Error::DeadlineExceeded { steps: 1 }.is_transient());
    assert!(Error::Cancelled { steps: 1 }.is_transient());
    assert!(Error::Shed { capacity: 1 }.is_transient());
    assert!(Error::internal("x").is_transient());

    // Round trips for the guard errors (the legacy EquivOutcome surface).
    assert_eq!(
        Error::DeadlineExceeded { steps: 4 }.as_chase_error(),
        Some(ChaseError::DeadlineExceeded { steps: 4 })
    );
    assert_eq!(
        Error::Cancelled { steps: 4 }.as_chase_error(),
        Some(ChaseError::Cancelled { steps: 4 })
    );
    assert_eq!(Error::Shed { capacity: 1 }.as_chase_error(), None);
}

/// The expired-deadline path reaches the instance chase and the request
/// file's `deadline_ms=` override too.
#[test]
fn deadlines_cover_instance_chases_and_the_request_format() {
    let sigma = parse_dependencies("p(X,Y) -> s(X,Z).").unwrap();
    let schema = Schema::all_bags(&[("p", 2), ("s", 2)]);
    let solver = Solver::builder(sigma, schema).build();
    let mut db = eqsql_relalg::Database::new();
    db.insert("p", eqsql_relalg::Tuple::ints([1, 2]), 1);
    let req = Request::ChaseInstance { db, opts: RequestOpts::with_deadline_ms(0) };
    assert!(matches!(solver.decide(&req), Err(Error::DeadlineExceeded { .. })));

    let file = eqsql_service::parse_request_file(
        "sigma: p(X,Y) -> s(X,Z).\n\
         pair: set deadline_ms=0 | q(X) :- p(X,Y) | q(X) :- p(X,Y), s(X,Z)",
    )
    .unwrap();
    let Request::Equivalent { opts, .. } = &file.requests[0] else { panic!("expected pair") };
    assert_eq!(opts.deadline_ms, Some(0));
    assert_eq!(opts.sem, Some(Semantics::Set));
}

/// A request killed before doing any useful work — expired at its deadline
/// or shed at admission — still emits a complete trace event with its
/// terminal phase marked: dead requests must be visible in the request
/// log, never silently absent from it.
#[test]
fn dead_requests_still_emit_complete_trace_events() {
    use eqsql_service::{TraceSink, VecSink};
    use std::sync::Arc;
    const PHASE_KEYS: [&str; 8] = [
        "wall_us=",
        "queue_us=",
        "regularize_us=",
        "chase_us=",
        "cache_us=",
        "evidence_us=",
        "attempts=",
        "mem_hits=",
    ];
    let (sigma, schema) = chain_fixture();

    // Deadline-killed: every request of the batch is already expired.
    let sink = Arc::new(VecSink::new());
    let solver = Solver::builder(sigma.clone(), schema.clone())
        .trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>)
        .build();
    let batch = vec![
        equiv("q(X) :- a(X)", "q(X) :- a(X), b(X)", RequestOpts::with_deadline_ms(0)),
        equiv("q(X) :- b(X)", "q(X) :- b(X), c(X)", RequestOpts::with_deadline_ms(0)),
    ];
    let report = solver.decide_all(&batch);
    assert!(report.verdicts.iter().all(|v| matches!(v, Err(Error::DeadlineExceeded { .. }))));
    let lines = sink.lines();
    assert_eq!(lines.len(), batch.len(), "every expired request is logged");
    for line in &lines {
        assert!(line.starts_with("verdict "), "{line}");
        assert!(line.contains(" outcome=deadline-exceeded "), "{line}");
        assert!(line.contains(" terminal=deadline "), "{line}");
        for key in PHASE_KEYS {
            assert!(line.contains(&format!(" {key}")), "{line} missing {key}");
        }
    }

    // Shed at admission: RejectNew(1) on a three-request batch sheds two.
    // A shed event's whole (short) life is admission-queue wait.
    let sink = Arc::new(VecSink::new());
    let solver =
        Solver::builder(sigma, schema).trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>).build();
    let batch: Vec<Request> = (0..3)
        .map(|i| {
            equiv(
                &format!("q{i}(X) :- a(X)"),
                &format!("q{i}(X) :- a(X), b(X)"),
                RequestOpts::default(),
            )
        })
        .collect();
    let opts =
        BatchOptions { admission: Some(AdmissionConfig::reject_new(1)), ..BatchOptions::default() };
    let report = solver.decide_all_streaming(&batch, &opts, &|_| {});
    assert_eq!(report.shed, 2);
    let lines = sink.lines();
    assert_eq!(lines.len(), batch.len(), "every request, shed or decided, is logged");
    let shed: Vec<_> = lines.iter().filter(|l| l.contains(" terminal=shed ")).collect();
    assert_eq!(shed.len(), 2);
    for line in &shed {
        assert!(line.starts_with("verdict "), "{line}");
        assert!(line.contains(" outcome=shed "), "{line}");
        for key in PHASE_KEYS {
            assert!(line.contains(&format!(" {key}")), "{line} missing {key}");
        }
    }
    assert_eq!(lines.iter().filter(|l| l.contains(" terminal=ok ")).count(), 1);
}
