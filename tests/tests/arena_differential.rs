//! 150-draw differential: arena-backed chase engine vs boxed reference.
//!
//! The arena refactor (columnar [`eqsql_cq::arena`] storage threaded
//! through `BodyIndex` and the indexed engine) must be **step-identical**
//! to the naive boxed oracle — not merely verdict-equivalent. Each draw
//! compares, between [`set_chase`] and [`set_chase_reference`]:
//!
//! * error variants (budget exhaustion / size blowup must agree),
//! * the `failed` flag and the step count,
//! * the full typed step trace (dependency index, body size after each
//!   step, and what the step did: a tgd's binding and minted
//!   existentials, an egd's replacement, a failure), compared with `==`,
//! * the terminal query rendering, and
//! * the renaming-invariant [`query_fingerprint`] of the terminal — the
//!   value the service layer caches under, so cache attribution stays
//!   bit-identical across the arena/boxed boundary.

use eqsql_chase::{set_chase, set_chase_reference, ChaseConfig};
use eqsql_gen::queries::{random_query, QueryParams};
use eqsql_gen::sigma::{random_weakly_acyclic_sigma, SigmaParams};
use eqsql_relalg::Schema;
use eqsql_service::query_fingerprint;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn schemas() -> Vec<Schema> {
    vec![
        Schema::all_bags(&[("a", 2), ("b", 2), ("c", 1)]),
        Schema::all_bags(&[("p", 2), ("s", 2), ("t", 3), ("r", 1)]),
        Schema::all_bags(&[("e", 2), ("f", 3), ("g", 2), ("h", 1), ("k", 2)]),
    ]
}

/// 150 random draws (3 schemas × 50 seeds): the arena engine and the
/// boxed reference agree on everything observable about the chase.
#[test]
fn arena_engine_matches_boxed_reference_on_150_draws() {
    let cfg = ChaseConfig { max_steps: 2_000, max_atoms: 2_000 };
    let sp = SigmaParams { tgds: 4, egds: 2, reuse_prob: 0.5 };
    let qp = QueryParams { atoms: 3, vars: 4, const_prob: 0.15, const_domain: 3, max_head: 2 };
    let mut draws = 0usize;
    let mut terminated = 0usize;
    for (si, schema) in schemas().iter().enumerate() {
        for seed in 0..50u64 {
            draws += 1;
            let mut rng = StdRng::seed_from_u64(0xA9E7_0000 + (si as u64) * 1_000 + seed);
            let sigma = random_weakly_acyclic_sigma(&mut rng, schema, &sp);
            let q = random_query(&mut rng, schema, &qp);
            let ctx = format!("schema {si} seed {seed}\nq: {q}\nsigma: {sigma}");

            let arena = set_chase(&q, &sigma, &cfg);
            let boxed = set_chase_reference(&q, &sigma, &cfg);
            match (arena, boxed) {
                (Ok(a), Ok(b)) => {
                    terminated += 1;
                    assert_eq!(a.failed, b.failed, "failed flag diverged\n{ctx}");
                    assert_eq!(a.steps, b.steps, "step count diverged\n{ctx}");
                    assert_eq!(a.trace, b.trace, "trace diverged\n{ctx}");
                    if !a.failed {
                        assert_eq!(
                            a.query.to_string(),
                            b.query.to_string(),
                            "terminal query diverged\n{ctx}"
                        );
                        assert_eq!(
                            query_fingerprint(&a.query),
                            query_fingerprint(&b.query),
                            "terminal cache fingerprint diverged\n{ctx}"
                        );
                    }
                }
                (Err(ea), Err(eb)) => {
                    assert_eq!(
                        std::mem::discriminant(&ea),
                        std::mem::discriminant(&eb),
                        "error variant diverged: arena={ea:?} boxed={eb:?}\n{ctx}"
                    );
                }
                (a, b) => panic!(
                    "termination diverged: arena={:?} boxed={:?}\n{ctx}",
                    a.map(|c| c.steps),
                    b.map(|c| c.steps)
                ),
            }
        }
    }
    assert_eq!(draws, 150);
    // Weakly acyclic Σ with these budgets should terminate on most draws;
    // if nearly everything errors the test is vacuous.
    assert!(terminated >= 100, "only {terminated}/150 draws terminated");
}
