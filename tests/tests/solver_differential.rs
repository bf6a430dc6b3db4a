//! Differential suite for the `eqsql_service::Solver` façade: on randomized
//! weakly acyclic inputs, Solver verdicts must agree with the legacy free
//! functions of `eqsql_core` for every request type and semantics, the
//! error taxonomy must map chase-level failures faithfully, and — the part
//! the legacy surface never had — every certificate a verdict carries must
//! replay against the original inputs.
// The deprecated convenience entry points are exactly the oracle this
// suite differentiates against.
#![allow(deprecated)]

use eqsql_chase::{ChaseConfig, ChaseError};
use eqsql_core::{cnb, is_sigma_minimal, sigma_equivalent, sigma_set_contained, EquivOutcome};
use eqsql_cq::{are_isomorphic, parse_query};
use eqsql_gen::queries::{random_query, QueryParams};
use eqsql_gen::random_weakly_acyclic_sigma;
use eqsql_gen::rename_isomorphic;
use eqsql_gen::sigma::SigmaParams;
use eqsql_relalg::{Schema, Semantics};
use eqsql_service::{Answer, Error, Request, RequestOpts, Solver};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn schema() -> Schema {
    let mut s = Schema::all_bags(&[("a", 2), ("b", 2), ("c", 3), ("d", 1)]);
    s.mark_set_valued(eqsql_cq::Predicate::new("b"));
    s.mark_set_valued(eqsql_cq::Predicate::new("c"));
    s
}

fn equiv_outcome(v: &Result<eqsql_service::Verdict, Error>) -> EquivOutcome {
    match v {
        Ok(verdict) => match &verdict.answer {
            Answer::Equivalent { .. } => EquivOutcome::Equivalent,
            Answer::NotEquivalent { .. } => EquivOutcome::NotEquivalent,
            other => panic!("equivalence request answered with {other:?}"),
        },
        Err(e) => {
            EquivOutcome::Unknown(e.as_chase_error().expect("equivalence errors are chase-level"))
        }
    }
}

/// 150 random weakly acyclic draws (the Σ generator guarantees chase
/// termination, Theorem H.1), three semantics each: the Solver's verdict
/// must equal the legacy `sigma_equivalent`, and every certificate must
/// replay. Every fifth round additionally differentiates set containment,
/// Σ-minimality and the C&B family against their legacy oracles.
#[test]
fn solver_agrees_with_legacy_functions_on_random_draws() {
    let schema = schema();
    let config = ChaseConfig::default();
    let mut rng = StdRng::seed_from_u64(0x501E);
    let mut decided = 0usize;
    let mut evidence_replayed = 0usize;
    for round in 0..150 {
        let sigma = random_weakly_acyclic_sigma(
            &mut rng,
            &schema,
            &SigmaParams { tgds: 3, egds: 2, reuse_prob: 0.6 },
        );
        let params = QueryParams {
            atoms: 2 + (round % 3),
            vars: 4,
            const_prob: 0.1,
            const_domain: 3,
            max_head: 2,
        };
        let q1 = random_query(&mut rng, &schema, &params);
        // Half the rounds compare against a perturbed α-copy of q1
        // (equivalence plausible), half against an independent draw.
        let q2 = if rng.gen_bool(0.5) {
            let mut q = rename_isomorphic(&mut rng, &q1);
            if rng.gen_bool(0.5) && q.body.len() > 1 {
                q.body.pop();
            }
            if !q.is_safe() {
                q = q1.clone();
            }
            q
        } else {
            random_query(&mut rng, &schema, &params)
        };
        let solver = Solver::builder(sigma.clone(), schema.clone()).build();
        for sem in [Semantics::Set, Semantics::Bag, Semantics::BagSet] {
            let req = Request::Equivalent {
                q1: q1.clone(),
                q2: q2.clone(),
                opts: RequestOpts::with_sem(sem),
            };
            let got = solver.decide(&req);
            let want = sigma_equivalent(sem, &q1, &q2, &sigma, &schema, &config);
            assert_eq!(
                equiv_outcome(&got),
                want,
                "round {round} ({sem}): {q1} vs {q2} under\n{sigma}"
            );
            if let Ok(v) = &got {
                v.verify(&req, solver.sigma(), solver.schema())
                    .unwrap_or_else(|e| panic!("round {round} ({sem}): {e}"));
                evidence_replayed += 1;
            }
            decided += 1;
        }
        // Set containment against its oracle (same chases, so cheap).
        let req =
            Request::Contained { q1: q1.clone(), q2: q2.clone(), opts: RequestOpts::default() };
        let got = solver.decide(&req);
        match sigma_set_contained(&q1, &q2, &sigma, &schema, &config) {
            Ok(want) => {
                let v = got.unwrap_or_else(|e| panic!("round {round}: containment errored {e}"));
                assert_eq!(
                    matches!(v.answer, Answer::Contained { .. }),
                    want,
                    "round {round}: containment disagrees on {q1} vs {q2}"
                );
                v.verify(&req, solver.sigma(), solver.schema())
                    .unwrap_or_else(|e| panic!("round {round} (containment): {e}"));
                evidence_replayed += 1;
            }
            Err(e) => {
                assert_eq!(got.unwrap_err().as_chase_error(), Some(e), "round {round}");
            }
        }
        decided += 1;
        // Minimality + C&B every fifth round, on a deliberately small
        // query (the Definition 3.1 search enumerates substitutions
        // exhaustively).
        if round % 5 == 0 {
            let small =
                QueryParams { atoms: 2, vars: 3, const_prob: 0.1, const_domain: 3, max_head: 1 };
            let q = random_query(&mut rng, &schema, &small);
            let sem = [Semantics::Set, Semantics::Bag, Semantics::BagSet][round % 3];
            let got =
                solver.decide(&Request::Minimal { q: q.clone(), opts: RequestOpts::with_sem(sem) });
            match is_sigma_minimal(&q, &sigma, &schema, sem, &config) {
                Ok(want) => {
                    let v = got.unwrap_or_else(|e| panic!("round {round}: minimality errored {e}"));
                    assert_eq!(
                        matches!(v.answer, Answer::Minimal),
                        want,
                        "round {round}: minimality disagrees on {q}"
                    );
                    // A non-minimality witness is itself replayable: the
                    // reduced query must be Σ-equivalent to q.
                    if let Answer::NotMinimal { witness } = &v.answer {
                        assert!(
                            sigma_equivalent(sem, &witness.reduced, &q, &sigma, &schema, &config)
                                .is_equivalent(),
                            "round {round}: witness.reduced is not Σ-equivalent to {q}"
                        );
                        assert!(witness.reduced.body.len() < witness.identified.body.len());
                        evidence_replayed += 1;
                    }
                }
                Err(e) => {
                    assert_eq!(got.unwrap_err().as_chase_error(), Some(e), "round {round}");
                }
            }
            decided += 1;
            let got = solver
                .decide(&Request::Reformulate { q: q.clone(), opts: RequestOpts::with_sem(sem) });
            match cnb(sem, &q, &sigma, &schema, &config, &Default::default()) {
                Ok(want) => {
                    let v = got.unwrap_or_else(|e| panic!("round {round}: cnb errored {e}"));
                    let Answer::Reformulated { reformulations, candidates_tested, .. } = &v.answer
                    else {
                        panic!("round {round}: Reformulate answered {:?}", v.answer)
                    };
                    assert_eq!(*candidates_tested, want.candidates_tested, "round {round}");
                    assert_eq!(reformulations.len(), want.reformulations.len(), "round {round}");
                    for w in &want.reformulations {
                        assert!(
                            reformulations.iter().any(|r| are_isomorphic(r, w)),
                            "round {round}: legacy reformulation {w} missing from solver's"
                        );
                    }
                }
                Err(e) => {
                    let got = got.unwrap_err();
                    assert_eq!(got, Error::from(e), "round {round}");
                }
            }
            decided += 1;
        }
    }
    assert!(decided >= 150 * 4, "decided only {decided}");
    assert!(evidence_replayed >= 150 * 3 / 2, "replayed only {evidence_replayed}");
}

/// The error taxonomy maps each failure class faithfully: budget
/// exhaustion, atom-budget overflow, parse errors (through the request
/// file), egd failure on an unrepairable instance, and unsupported
/// semantics — and `as_chase_error` round-trips the chase-level ones for
/// the legacy `EquivOutcome::Unknown` surface.
#[test]
fn error_taxonomy_maps_every_failure_class() {
    // Budget exhaustion: Σ not weakly acyclic.
    let sigma = eqsql_deps::parse_dependencies("e(X,Y) -> e(Y,Z).").unwrap();
    let schema = Schema::all_bags(&[("e", 2)]);
    let solver = Solver::builder(sigma.clone(), schema.clone())
        .chase_config(ChaseConfig::with_max_steps(15))
        .build();
    let q1 = parse_query("q(X) :- e(X,Y)").unwrap();
    let q2 = parse_query("q(X) :- e(X,Y), e(Y,Z)").unwrap();
    let req = Request::Equivalent { q1: q1.clone(), q2: q2.clone(), opts: RequestOpts::default() };
    let err = solver.decide(&req).unwrap_err();
    let Error::BudgetExhausted { steps } = err else {
        panic!("expected BudgetExhausted, got {err:?}")
    };
    // The legacy surface reports the identical chase error.
    let legacy = sigma_equivalent(
        Semantics::Set,
        &q1,
        &q2,
        &sigma,
        &schema,
        &ChaseConfig::with_max_steps(15),
    );
    assert_eq!(legacy, EquivOutcome::Unknown(ChaseError::BudgetExhausted { steps }));

    // Atom-budget overflow, reached through a per-request override.
    let sigma = eqsql_deps::parse_dependencies("a(X) -> b(X).").unwrap();
    let schema = Schema::all_bags(&[("a", 1), ("b", 1)]);
    let solver = Solver::builder(sigma, schema).build();
    let req = Request::Equivalent {
        q1: parse_query("q(X) :- a(X)").unwrap(),
        q2: parse_query("q(X) :- a(X), b(X)").unwrap(),
        opts: RequestOpts { max_atoms: Some(1), ..RequestOpts::default() },
    };
    assert!(matches!(solver.decide(&req), Err(Error::QueryTooLarge { .. })));

    // Parse failures, through the request-file boundary.
    let err: Error = eqsql_service::parse_request_file("pair: set | junk(((").unwrap_err().into();
    let Error::Parse { line, .. } = err else { panic!("expected Parse, got {err:?}") };
    assert_eq!(line, 1);

    // Egd failure: an unrepairable instance.
    let sigma = eqsql_deps::parse_dependencies("s(X,Y) & s(X,Z) -> Y = Z.").unwrap();
    let schema = Schema::all_bags(&[("s", 2)]);
    let solver = Solver::builder(sigma, schema).build();
    let mut db = eqsql_relalg::Database::new();
    db.insert("s", eqsql_relalg::Tuple::ints([1, 2]), 1);
    db.insert("s", eqsql_relalg::Tuple::ints([1, 3]), 1);
    let err =
        solver.decide(&Request::ChaseInstance { db, opts: RequestOpts::default() }).unwrap_err();
    assert_eq!(err, Error::EgdFailure { operation: "chase-instance" });
    assert_eq!(err.as_chase_error(), None);

    // Unsupported semantics: Chandra–Merlin containment under bag
    // semantics is open; the façade says so instead of guessing.
    let solver =
        Solver::builder(eqsql_deps::DependencySet::new(), Schema::all_bags(&[("p", 2)])).build();
    let q = parse_query("q(X) :- p(X,Y)").unwrap();
    let err = solver
        .decide(&Request::Contained {
            q1: q.clone(),
            q2: q.clone(),
            opts: RequestOpts::with_sem(Semantics::BagSet),
        })
        .unwrap_err();
    assert!(matches!(err, Error::UnsupportedSemantics { operation: "set-containment", .. }));
    // And the bag route refuses set semantics symmetrically.
    let err = solver
        .decide(&Request::BagContained {
            q1: q.clone(),
            q2: q,
            opts: RequestOpts::with_sem(Semantics::Set),
        })
        .unwrap_err();
    assert!(matches!(err, Error::UnsupportedSemantics { operation: "bag-containment", .. }));
}

/// Tampered certificates must fail replay: the verification helpers are a
/// real check, not a rubber stamp.
#[test]
fn tampered_certificates_fail_replay() {
    let sigma = eqsql_deps::parse_dependencies("a(X) -> b(X).").unwrap();
    let schema = Schema::all_bags(&[("a", 1), ("b", 1)]);
    let solver = Solver::builder(sigma, schema).build();
    // Disjoint variable names, so the empty substitution below really is
    // an invalid mapping (shared names could make it accidentally valid).
    let req = Request::Equivalent {
        q1: parse_query("q(X) :- a(X)").unwrap(),
        q2: parse_query("q(Y) :- a(Y), b(Y)").unwrap(),
        opts: RequestOpts::default(),
    };
    let v = solver.decide(&req).unwrap();
    let Answer::Equivalent { certificate } = &v.answer else {
        panic!("expected Equivalent, got {:?}", v.answer)
    };
    certificate.verify().unwrap();
    // Corrupt the forward mapping: replay must reject it.
    let eqsql_service::EquivalenceCertificate::Set { chased1, chased2, backward, .. } =
        certificate.clone()
    else {
        panic!("set-semantics certificates carry containment mappings")
    };
    let tampered = eqsql_service::EquivalenceCertificate::Set {
        chased1,
        chased2,
        forward: eqsql_cq::Subst::new(),
        backward,
    };
    assert!(tampered.verify().is_err());
}

/// The Solver's per-request budget overrides partition the cache exactly
/// like the legacy per-call configs did: an entry cached under one budget
/// is never replayed under another.
#[test]
fn per_request_budget_overrides_partition_the_cache() {
    let sigma = eqsql_deps::parse_dependencies("a(X) -> b(X).").unwrap();
    let schema = Schema::all_bags(&[("a", 1), ("b", 1)]);
    let solver = Solver::builder(sigma, schema).build();
    let q = parse_query("q(X) :- a(X)").unwrap();
    let mk = |max_steps: Option<usize>| Request::Equivalent {
        q1: q.clone(),
        q2: q.clone(),
        opts: RequestOpts { max_steps, ..RequestOpts::default() },
    };
    solver.decide(&mk(None)).unwrap();
    let misses_default = solver.stats().cache.misses;
    // Same budgets again: pure hits.
    solver.decide(&mk(None)).unwrap();
    assert_eq!(solver.stats().cache.misses, misses_default);
    // Overridden budget: a different context, so a fresh miss.
    solver.decide(&mk(Some(777))).unwrap();
    assert!(solver.stats().cache.misses > misses_default);
}

/// A guard that never fires is invisible: on the randomized suite, a
/// Solver run under an effectively infinite deadline (and a live, never-
/// cancelled handle) is *step-identical* to an unguarded Solver — same
/// verdicts, same total chase steps, same per-decision hit/miss
/// attribution, same resident cache entries. The guard only ever decides
/// whether a run finishes, never what it computes.
#[test]
fn an_idle_guard_is_step_identical_to_no_guard() {
    use eqsql_service::{BatchOptions, Cancel};
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(0x501E);
    let guarded_opts = BatchOptions {
        cancel: Some(Cancel::new()),
        deadline_ms: Some(1000 * 60 * 60 * 24),
        ..BatchOptions::default()
    };
    for round in 0..150 {
        let sigma = random_weakly_acyclic_sigma(
            &mut rng,
            &schema,
            &SigmaParams { tgds: 3, egds: 2, reuse_prob: 0.6 },
        );
        let params = QueryParams {
            atoms: 2 + (round % 3),
            vars: 4,
            const_prob: 0.1,
            const_domain: 3,
            max_head: 2,
        };
        let q1 = random_query(&mut rng, &schema, &params);
        let q2 = if rng.gen_bool(0.5) {
            rename_isomorphic(&mut rng, &q1)
        } else {
            random_query(&mut rng, &schema, &params)
        };
        let batch: Vec<Request> = [Semantics::Set, Semantics::Bag, Semantics::BagSet]
            .into_iter()
            .map(|sem| Request::Equivalent {
                q1: q1.clone(),
                q2: q2.clone(),
                opts: RequestOpts::with_sem(sem),
            })
            .collect();
        let plain = Solver::builder(sigma.clone(), schema.clone()).build();
        let guarded = Solver::builder(sigma, schema.clone()).build();
        let a = plain.decide_all(&batch);
        let b = guarded.decide_all_streaming(&batch, &guarded_opts, &|_| {});
        for (va, vb) in a.verdicts.iter().zip(b.verdicts.iter()) {
            // Compare by answer kind (substitution maps Debug-print in
            // nondeterministic order; the step/hit/miss equalities below
            // pin the computations themselves).
            let kind = |v: &Result<eqsql_service::Verdict, Error>| match v {
                Ok(v) => v.answer.label().to_string(),
                Err(e) => format!("{e:?}"),
            };
            assert_eq!(kind(va), kind(vb), "round {round}: verdicts diverge under an idle guard");
        }
        assert_eq!(a.stats.chase_steps, b.stats.chase_steps, "round {round}: step counts diverge");
        assert_eq!(a.stats.cache_hits, b.stats.cache_hits, "round {round}");
        assert_eq!(a.stats.cache_misses, b.stats.cache_misses, "round {round}");
        assert_eq!(
            plain.stats().cache.entries,
            guarded.stats().cache.entries,
            "round {round}: resident cache entries diverge"
        );
    }
}

/// The step probe is invisible too, and no engine hook is part of a cache
/// key: on the randomized suite, a Solver that observes (its trace sink
/// arms a probe on every decision) is step-identical to a plain Solver,
/// and a plain Solver sharing the observing one's cache answers the same
/// batch from it without a miss.
#[test]
fn an_armed_probe_is_step_identical_and_shares_cache_entries() {
    use eqsql_obs::{TraceSink, VecSink};
    use std::sync::Arc;
    let schema = schema();
    let mut rng = StdRng::seed_from_u64(0x9E0BE);
    for round in 0..60 {
        let sigma = random_weakly_acyclic_sigma(
            &mut rng,
            &schema,
            &SigmaParams { tgds: 3, egds: 2, reuse_prob: 0.6 },
        );
        let params = QueryParams {
            atoms: 2 + (round % 3),
            vars: 4,
            const_prob: 0.1,
            const_domain: 3,
            max_head: 2,
        };
        let q1 = random_query(&mut rng, &schema, &params);
        let q2 = if rng.gen_bool(0.5) {
            rename_isomorphic(&mut rng, &q1)
        } else {
            random_query(&mut rng, &schema, &params)
        };
        let batch: Vec<Request> = [Semantics::Set, Semantics::Bag, Semantics::BagSet]
            .into_iter()
            .map(|sem| Request::Equivalent {
                q1: q1.clone(),
                q2: q2.clone(),
                opts: RequestOpts::with_sem(sem),
            })
            .collect();
        let sink = Arc::new(VecSink::new());
        let observed = Solver::builder(sigma.clone(), schema.clone())
            .trace_sink(Arc::clone(&sink) as Arc<dyn TraceSink>)
            .build();
        let plain = Solver::builder(sigma.clone(), schema.clone()).build();
        let a = plain.decide_all(&batch);
        let b = observed.decide_all(&batch);
        assert_eq!(sink.lines().len(), batch.len(), "round {round}: one trace line per request");
        let kinds = |vs: &[Result<eqsql_service::Verdict, Error>]| -> Vec<EquivOutcome> {
            vs.iter().map(equiv_outcome).collect()
        };
        assert_eq!(kinds(&a.verdicts), kinds(&b.verdicts), "round {round}: verdicts diverge");
        assert_eq!(a.stats.chase_steps, b.stats.chase_steps, "round {round}: step counts diverge");
        assert_eq!(a.stats.cache_hits, b.stats.cache_hits, "round {round}");
        assert_eq!(a.stats.cache_misses, b.stats.cache_misses, "round {round}");

        let shared =
            Solver::builder(sigma, schema.clone()).cache(Arc::clone(observed.cache())).build();
        let c = shared.decide_all(&batch);
        assert_eq!(kinds(&c.verdicts), kinds(&b.verdicts), "round {round}: shared cache diverges");
        assert_eq!(c.stats.cache_misses, 0, "round {round}: {:?}", c.stats);
        assert_eq!(c.stats.cache_hits, b.stats.cache_hits + b.stats.cache_misses, "round {round}");
    }
}
