//! Differential tests: the incremental indexed chase engine against the
//! naive reference driver ([`eqsql_chase::reference`]).
//!
//! The engine is required to reproduce the reference's observable behavior
//! exactly: isomorphic terminal queries (the sound-chase uniqueness
//! theorems 5.1/G.1 make isomorphism the right equivalence; for raw set
//! chase the two drivers fire identical step sequences, so isomorphism
//! holds there too), identical step counts, identical firing orders (per
//! step: dependency index, body size and action kind — under the sound
//! chases too), identical `failed` flags, and identical `ChaseError`
//! variants on budget exhaustion. Families covered:
//! the Appendix H exponential lower-bound instances, chain queries,
//! egd-failure inputs, budget-exhaustion inputs, admission tests that
//! fail, and randomized weakly acyclic Σ / random queries from
//! `eqsql_gen`.

use eqsql_chase::reference::{chase_with_policy_reference, set_chase_reference};
use eqsql_chase::step::DedupPolicy;
use eqsql_chase::{
    chase_indexed, is_assignment_fixing, set_chase, sound_chase, Admission, ChaseConfig,
    ChaseError, Chased, EngineOpts, RunGuard, StepAction,
};
use eqsql_cq::{are_isomorphic, parse_query, Atom, CqQuery, Predicate, Term};
use eqsql_deps::regularize::regularize_set;
use eqsql_deps::{parse_dependencies, DependencySet};
use eqsql_gen::appendix_h::{appendix_h_instance, expected_chase_size};
use eqsql_gen::queries::{random_query, QueryParams};
use eqsql_gen::sigma::{random_weakly_acyclic_sigma, SigmaParams};
use eqsql_relalg::{Schema, Semantics};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A trace's per-step `(dep_index, body_size, action kind)` sequence:
/// the firing order, without the minted names the two drivers may choose
/// differently when the query's variables collide with Σ's.
fn step_kinds(c: &Chased) -> Vec<(usize, usize, &'static str)> {
    c.trace
        .entries()
        .iter()
        .map(|e| {
            let kind = match e.action {
                StepAction::Tgd { .. } => "tgd",
                StepAction::Egd { .. } => "egd",
                StepAction::Failed => "failed",
            };
            (e.dep_index, e.body_size, kind)
        })
        .collect()
}

/// Asserts that two chase outcomes agree observably.
fn assert_agree(
    label: &str,
    indexed: &Result<Chased, ChaseError>,
    reference: &Result<Chased, ChaseError>,
) {
    match (indexed, reference) {
        (Ok(a), Ok(b)) => {
            assert_eq!(a.failed, b.failed, "{label}: failed flags diverge");
            assert_eq!(a.steps, b.steps, "{label}: step counts diverge");
            assert_eq!(step_kinds(a), step_kinds(b), "{label}: firing orders diverge");
            assert_eq!(
                a.query.body.len(),
                b.query.body.len(),
                "{label}: body sizes diverge\nindexed:   {}\nreference: {}",
                a.query,
                b.query
            );
            if !a.failed {
                assert!(
                    are_isomorphic(&a.query, &b.query),
                    "{label}: terminal queries not isomorphic\nindexed:   {}\nreference: {}",
                    a.query,
                    b.query
                );
            }
        }
        (Err(ea), Err(eb)) => {
            assert_eq!(ea, eb, "{label}: error variants diverge");
        }
        (a, b) => {
            panic!("{label}: one engine erred, the other did not\nindexed: {a:?}\nreference: {b:?}")
        }
    }
}

fn run_set_both(q: &CqQuery, sigma: &DependencySet, cfg: &ChaseConfig, label: &str) {
    let indexed = set_chase(q, sigma, cfg);
    let reference = set_chase_reference(q, sigma, cfg);
    assert_agree(label, &indexed, &reference);
}

/// The sound chase re-run on the reference driver (mirrors
/// `eqsql_chase::sound::sound_chase`'s admission and dedup wiring).
fn sound_chase_reference(
    sem: Semantics,
    q: &CqQuery,
    sigma: &DependencySet,
    schema: &Schema,
    cfg: &ChaseConfig,
) -> Result<Chased, ChaseError> {
    let sigma_reg = regularize_set(sigma);
    let guard = RunGuard::unguarded();
    match sem {
        Semantics::Set => set_chase_reference(q, &sigma_reg, cfg),
        Semantics::BagSet => chase_with_policy_reference(
            q,
            &sigma_reg,
            cfg,
            &DedupPolicy::All,
            &mut |tgd, cur, h| is_assignment_fixing(cur, &sigma_reg, tgd, h, cfg, &guard),
        ),
        Semantics::Bag => {
            let set_preds: std::collections::HashSet<Predicate> =
                schema.set_valued_relations().into_iter().collect();
            chase_with_policy_reference(
                q,
                &sigma_reg,
                cfg,
                &DedupPolicy::SetValuedOnly(set_preds.clone()),
                &mut |tgd, cur, h| {
                    Ok(tgd.rhs.iter().all(|a| set_preds.contains(&a.pred))
                        && is_assignment_fixing(cur, &sigma_reg, tgd, h, cfg, &guard)?)
                },
            )
        }
    }
}

fn chain_query(n: usize) -> CqQuery {
    let body: Vec<Atom> = (0..n)
        .map(|i| {
            Atom::new("e", vec![Term::var(&format!("X{i}")), Term::var(&format!("X{}", i + 1))])
        })
        .collect();
    CqQuery::new("q", vec![Term::var("X0")], body)
}

#[test]
fn appendix_h_set_chase_agrees() {
    let cfg = ChaseConfig { max_steps: 20_000, max_atoms: 20_000 };
    for m in 2..=4 {
        let inst = appendix_h_instance(m);
        let indexed = set_chase(&inst.query, &inst.sigma, &cfg);
        let reference = set_chase_reference(&inst.query, &inst.sigma, &cfg);
        // Both match the closed form, not just each other.
        assert_eq!(indexed.as_ref().unwrap().query.body.len(), expected_chase_size(m));
        assert_agree(&format!("appendix_h m={m}"), &indexed, &reference);
    }
}

#[test]
fn appendix_h_sound_chase_agrees() {
    let cfg = ChaseConfig { max_steps: 20_000, max_atoms: 20_000 };
    for m in 2..=3 {
        let inst = appendix_h_instance(m);
        for sem in [Semantics::Bag, Semantics::BagSet] {
            let indexed =
                sound_chase(sem, &inst.query, &inst.sigma, &inst.schema, &cfg).map(|s| s.chased);
            let reference =
                sound_chase_reference(sem, &inst.query, &inst.sigma, &inst.schema, &cfg);
            assert_agree(&format!("appendix_h sound {sem} m={m}"), &indexed, &reference);
        }
    }
}

#[test]
fn chain_queries_agree() {
    let sigma = parse_dependencies(
        "e(X,Y) -> n(X).\n\
         e(X,Y) -> n(Y).\n\
         n(X) -> m(X,Z).\n\
         m(X,Z1) & m(X,Z2) -> Z1 = Z2.",
    )
    .unwrap();
    let cfg = ChaseConfig { max_steps: 50_000, max_atoms: 50_000 };
    for n in [2usize, 4, 8, 16] {
        run_set_both(&chain_query(n), &sigma, &cfg, &format!("chain n={n}"));
    }
}

#[test]
fn egd_failure_cases_agree() {
    let cfg = ChaseConfig::default();
    let cases = [
        // Direct constant clash.
        ("q(X) :- s(X,3), s(X,4)", "s(X,Y) & s(X,Z) -> Y = Z."),
        // Clash reached only after a tgd step introduces the witness.
        (
            "q(X) :- p(X,3), p(X,4)",
            "p(X,Y) -> t(X,Y).\n\
             t(X,Y) & t(X,Z) -> Y = Z.",
        ),
        // Clash via transitive variable merging.
        (
            "q(X) :- s(X,A), s(X,B), r(A,3), r(B,4), r(C,D)",
            "s(X,Y) & s(X,Z) -> Y = Z.\n\
             r(X,Y) & r(X,Z) -> Y = Z.",
        ),
    ];
    for (q, sigma) in cases {
        let q = parse_query(q).unwrap();
        let sigma = parse_dependencies(sigma).unwrap();
        let indexed = set_chase(&q, &sigma, &cfg);
        assert!(indexed.as_ref().unwrap().failed, "expected failure on {q}");
        run_set_both(&q, &sigma, &cfg, &format!("egd failure {q}"));
    }
}

#[test]
fn budget_exhaustion_agrees() {
    // Non-weakly-acyclic Σ: both drivers must report the same
    // BudgetExhausted { steps }.
    let sigma = parse_dependencies("e(X,Y) -> e(Y,Z).").unwrap();
    let q = parse_query("q(X) :- e(X,Y)").unwrap();
    for budget in [1usize, 5, 23, 50] {
        run_set_both(&q, &sigma, &ChaseConfig::with_max_steps(budget), "budget");
    }
    // Atom-budget exhaustion: same QueryTooLarge { atoms }.
    let wide = parse_dependencies("p(X) -> a(X,Z). a(X,Z) -> b(X,W). b(X,W) -> c(X,V).").unwrap();
    let qp = parse_query("q(X) :- p(X)").unwrap();
    run_set_both(&qp, &wide, &ChaseConfig { max_steps: 100, max_atoms: 2 }, "atom budget");
}

#[test]
fn example_4_1_all_semantics_agree() {
    let sigma = eqsql_integration_tests::sigma_4_1();
    let schema = eqsql_integration_tests::schema_4_1();
    let cfg = ChaseConfig::default();
    let queries = [
        "q4(X) :- p(X,Y)",
        "q(X) :- p(X,Y), u(X,Z)",
        "q(X,Y) :- p(X,Y), s(X,W)",
        "q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)",
    ];
    for q in queries {
        let q = parse_query(q).unwrap();
        for sem in [Semantics::Set, Semantics::Bag, Semantics::BagSet] {
            let indexed = sound_chase(sem, &q, &sigma, &schema, &cfg).map(|s| s.chased);
            let reference = sound_chase_reference(sem, &q, &sigma, &schema, &cfg);
            assert_agree(&format!("example 4.1 {sem} {q}"), &indexed, &reference);
        }
    }
}

/// An admission test that errors ends both drivers' sound chases with the
/// same error: each nested test-query chase here runs the non-terminating
/// `r(X,Y) -> r(Y,W)` into the budget.
#[test]
fn failing_admission_tests_agree() {
    let sigma = parse_dependencies("p(X) -> r(X,Z). r(X,Y) -> r(Y,W).").unwrap();
    let mut schema = Schema::all_bags(&[("p", 1), ("r", 2)]);
    schema.mark_set_valued(Predicate::new("r"));
    let q = parse_query("q(X) :- p(X), p(Y), p(Z)").unwrap();
    let cfg = ChaseConfig::with_max_steps(50);
    for sem in [Semantics::Bag, Semantics::BagSet] {
        let indexed = sound_chase(sem, &q, &sigma, &schema, &cfg).map(|s| s.chased);
        let reference = sound_chase_reference(sem, &q, &sigma, &schema, &cfg);
        assert_eq!(indexed.as_ref().unwrap_err(), &ChaseError::BudgetExhausted { steps: 50 });
        assert_agree(&format!("failing admission {sem}"), &indexed, &reference);
    }
}

#[test]
fn random_weakly_acyclic_families_agree() {
    // eqsql_gen's layered generator guarantees termination; sweep seeds
    // over schema shapes and compare engines on every draw.
    let schemas = [
        Schema::all_bags(&[("a", 2), ("b", 2), ("c", 2)]),
        Schema::all_bags(&[("a", 1), ("b", 2), ("c", 3), ("d", 2)]),
        Schema::all_bags(&[("a", 2), ("b", 1), ("c", 2), ("d", 1), ("e", 2)]),
    ];
    let cfg = ChaseConfig::default();
    let mut checked = 0usize;
    for (si, schema) in schemas.iter().enumerate() {
        for seed in 0..25u64 {
            let mut rng = StdRng::seed_from_u64(seed * 31 + si as u64);
            let sigma = random_weakly_acyclic_sigma(
                &mut rng,
                schema,
                &SigmaParams { tgds: 4, egds: 2, reuse_prob: 0.5 },
            );
            let q = random_query(
                &mut rng,
                schema,
                &QueryParams { atoms: 3, vars: 4, const_prob: 0.15, const_domain: 3, max_head: 2 },
            );
            run_set_both(&q, &sigma, &cfg, &format!("random schema{si} seed{seed}"));
            checked += 1;
        }
    }
    assert_eq!(checked, 75);
}

#[test]
fn random_dedup_policies_agree() {
    // The bag-semantics dedup policy (set-valued relations only) must
    // behave identically in the incremental fingerprint dedup and the
    // reference's whole-body re-canonicalization.
    let mut schema = Schema::all_bags(&[("a", 2), ("b", 2), ("c", 2)]);
    schema.mark_set_valued(Predicate::new("b"));
    let set_preds: std::collections::HashSet<Predicate> =
        schema.set_valued_relations().into_iter().collect();
    let cfg = ChaseConfig::default();
    for seed in 0..25u64 {
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let sigma = random_weakly_acyclic_sigma(&mut rng, &schema, &SigmaParams::default());
        let q = random_query(&mut rng, &schema, &QueryParams::default());
        for dedup in
            [DedupPolicy::All, DedupPolicy::None, DedupPolicy::SetValuedOnly(set_preds.clone())]
        {
            let indexed =
                chase_indexed(&q, &sigma, &cfg, &dedup, Admission::All, &EngineOpts::default());
            let reference =
                chase_with_policy_reference(&q, &sigma, &cfg, &dedup, &mut |_, _, _| Ok(true));
            assert_agree(&format!("dedup seed {seed}"), &indexed, &reference);
        }
    }
}
