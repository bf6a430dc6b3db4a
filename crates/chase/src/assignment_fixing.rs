//! Assignment-fixing tgds (Definition 4.3 of the paper).
//!
//! A regularized tgd `σ` applicable to `Q` with homomorphism `h` is
//! **assignment-fixing** w.r.t. `(Q, h)` when chasing the associated test
//! query `Q^{σ,h,θ}` under Σ (set semantics) forces, for every existential
//! `Z_i`, the two copies `Z_i` and `θ(Z_i)` to coincide — i.e. every
//! satisfying assignment of `Q` extends to *exactly one* satisfying
//! assignment of the chase-step result on every database satisfying Σ,
//! which is what keeps answer multiplicities intact under bag/bag-set
//! semantics (Theorems 4.1/4.3).
//!
//! ## Implementation note (naming-robustness)
//!
//! The paper phrases the condition as "`(Q^{σ,h,θ})_{Σ,S}` has at most one
//! of `Z_i` and `θ(Z_i)`". Egd chase steps may replace either side of an
//! equality, so the literal variable names surviving the chase depend on
//! tie-breaking; we instead track the accumulated renaming through the
//! chase and require the **final images** of `Z_i` and `θ(Z_i)` to be
//! equal. This is invariant under egd direction choices and agrees with
//! the paper on its examples (4.2 positive, 5.1 positive; for Example 4.3
//! see the erratum note on `example_4_2_and_4_3` in
//! `tests/tests/paper_examples.rs`).
//!
//! Full tgds are assignment-fixing w.r.t. every query they apply to
//! (Proposition 4.3).

use crate::engine::{chase_indexed, Admission, EngineOpts};
use crate::error::{ChaseConfig, ChaseError};
use crate::guard::RunGuard;
use crate::step::{applicable_tgd_homs, rename_dep_apart, DedupPolicy};
use crate::test_query::associated_test_query;
use eqsql_cq::{CqQuery, Subst, Term};
use eqsql_deps::{Dependency, DependencySet, Tgd};
use std::collections::HashSet;

/// Is `tgd` assignment-fixing w.r.t. `q` and the specific applicable
/// homomorphism `h`? The tgd must be renamed apart from `q` and `h` must
/// make the chase applicable. Σ should be regularized.
///
/// `guard` is polled by the nested test-query chase, so a deadline or
/// cancellation signalled mid-decision also aborts this (potentially
/// budget-sized) inner chase promptly; pass [`RunGuard::unguarded`]
/// outside a guarded decision. The inner chase always runs in reference
/// order — the guard never changes results, only whether the run
/// finishes.
pub fn is_assignment_fixing(
    q: &CqQuery,
    sigma: &DependencySet,
    tgd: &Tgd,
    h: &Subst,
    config: &ChaseConfig,
    guard: &RunGuard,
) -> Result<bool, ChaseError> {
    if tgd.is_full() {
        return Ok(true); // Proposition 4.3
    }
    let tq = associated_test_query(q, tgd, h);
    let opts = EngineOpts { guard: guard.clone(), ..EngineOpts::default() };
    let chased = chase_indexed(&tq.query, sigma, config, &DedupPolicy::All, Admission::All, &opts)?;
    if chased.failed {
        // The double-witness pattern is unsatisfiable under Σ: two distinct
        // extensions can never coexist, so the step fixes assignments
        // vacuously.
        return Ok(true);
    }
    for z in &tq.zs {
        let fz = chased.renaming.apply_term(&Term::Var(*z));
        let ftz = chased.renaming.apply_term(&tq.theta.apply_term(&Term::Var(*z)));
        if fz != ftz {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Is `tgd` assignment-fixing w.r.t. `q` (Definition 4.3's final clause):
/// does there exist an applicable homomorphism `h` such that
/// [`is_assignment_fixing`] holds? Returns `Ok(None)` when the chase of `q`
/// with the tgd is not applicable at all.
pub fn is_assignment_fixing_wrt_query(
    q: &CqQuery,
    sigma: &DependencySet,
    tgd: &Tgd,
    config: &ChaseConfig,
) -> Result<Option<bool>, ChaseError> {
    let avoid: HashSet<_> = q.all_vars().into_iter().collect();
    let mut supply = eqsql_cq::VarSupply::avoiding([q]);
    let renamed = rename_dep_apart(&Dependency::Tgd(tgd.clone()), &avoid, &mut supply);
    let tgd_r = renamed.as_tgd().expect("renaming preserves kind");
    let homs = applicable_tgd_homs(q, tgd_r);
    if homs.is_empty() {
        return Ok(None);
    }
    for h in &homs {
        if is_assignment_fixing(q, sigma, tgd_r, h, config, &RunGuard::unguarded())? {
            return Ok(Some(true));
        }
    }
    Ok(Some(false))
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_cq::parse_query;
    use eqsql_deps::parse_dependencies;

    fn cfg() -> ChaseConfig {
        ChaseConfig::default()
    }

    #[test]
    fn example_4_2_sigma1_is_assignment_fixing() {
        // Σ = {σ1, σ2 (key of R), σ3}; σ1 is assignment-fixing w.r.t.
        // Q(X) :- p(X,Y): the chased test query keeps only one of Z/Z1 and
        // one of W/W1.
        let sigma = parse_dependencies(
            "p(X,Y) -> r(X,Z) & s(Z,W).\n\
             r(X,Y) & r(X,Z) -> Y = Z.\n\
             r(X,Y) & s(Y,T) & r(X,Z) & s(Z,W) -> T = W.",
        )
        .unwrap();
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        let sigma1 = sigma.tgds().next().unwrap().clone();
        let verdict = is_assignment_fixing_wrt_query(&q, &sigma, &sigma1, &cfg()).unwrap();
        assert_eq!(verdict, Some(true));
    }

    #[test]
    fn example_4_3_variant_sigma4_is_not_assignment_fixing() {
        // σ4: p(X,Y) -> ∃Z,W,T r(X,Z) ∧ s(Z,W) ∧ s(X,T), with only the key
        // of R available: nothing forces the W/W1 (or T/T1) copies
        // together, so σ4 is not assignment-fixing w.r.t. Q.
        //
        // (The paper's Example 4.3 additionally includes egds σ5/σ6; as
        // printed, exhaustive chasing with σ5 merges the copies — see the
        // Example 4.3 erratum note on `example_4_2_and_4_3` in
        // `tests/tests/paper_examples.rs` — so we use the reduced Σ that
        // exhibits the intended behaviour.)
        let sigma = parse_dependencies(
            "p(X,Y) -> r(X,Z) & s(Z,W) & s(X,T).\n\
             r(X,Y) & r(X,Z) -> Y = Z.",
        )
        .unwrap();
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        let sigma4 = sigma.tgds().next().unwrap().clone();
        let verdict = is_assignment_fixing_wrt_query(&q, &sigma, &sigma4, &cfg()).unwrap();
        assert_eq!(verdict, Some(false));
    }

    #[test]
    fn example_5_1_sigma4_is_assignment_fixing_wrt_q_prime() {
        // Same Σ' as the paper's Example 4.3 (σ2, σ4, σ5, σ6) but the query
        // Q'(X) :- p(X,Y), r(A,X): now σ6 fires on the test query and the
        // copies collapse — σ4 IS assignment-fixing w.r.t. Q'
        // (query-dependence of the notion, Example 5.1).
        let sigma = parse_dependencies(
            "r(X,Y) & r(X,Z) -> Y = Z.\n\
             p(X,Y) -> r(X,Z) & s(Z,W) & s(X,T).\n\
             r(X,Z) & s(Z,W) & s(X,T) -> W = T.\n\
             p(X,Y) & r(A,X) & s(X,T) -> X = T.",
        )
        .unwrap();
        let q_prime = parse_query("q(X) :- p(X,Y), r(A,X)").unwrap();
        let sigma4 = sigma.tgds().next().unwrap().clone();
        let verdict = is_assignment_fixing_wrt_query(&q_prime, &sigma, &sigma4, &cfg()).unwrap();
        assert_eq!(verdict, Some(true));
    }

    #[test]
    fn full_tgds_are_always_fixing() {
        // Proposition 4.3.
        let sigma = parse_dependencies("p(X,Y) -> r(X).").unwrap();
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        let t = sigma.tgds().next().unwrap().clone();
        assert_eq!(is_assignment_fixing_wrt_query(&q, &sigma, &t, &cfg()).unwrap(), Some(true));
    }

    #[test]
    fn key_constrained_existential_is_fixing() {
        // p(X,Y) -> t(X,Y,W) with the first two attributes of T a key:
        // the two W-copies merge (this is σ2/σ8 of Example 4.1).
        let sigma = parse_dependencies(
            "p(X,Y) -> t(X,Y,W).\n\
             t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
        )
        .unwrap();
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        let t = sigma.tgds().next().unwrap().clone();
        assert_eq!(is_assignment_fixing_wrt_query(&q, &sigma, &t, &cfg()).unwrap(), Some(true));
    }

    #[test]
    fn unconstrained_existential_is_not_fixing() {
        // p(X,Y) -> u(X,Z) with no constraints on U: not fixing
        // (σ4's U-half in Example 4.1 / Note 1 on Example 4.5).
        let sigma = parse_dependencies("p(X,Y) -> u(X,Z).").unwrap();
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        let t = sigma.tgds().next().unwrap().clone();
        assert_eq!(is_assignment_fixing_wrt_query(&q, &sigma, &t, &cfg()).unwrap(), Some(false));
    }

    #[test]
    fn inapplicable_tgd_reports_none() {
        let sigma = parse_dependencies("a(X) -> b(X,Z).").unwrap();
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        let t = sigma.tgds().next().unwrap().clone();
        assert_eq!(is_assignment_fixing_wrt_query(&q, &sigma, &t, &cfg()).unwrap(), None);
    }

    #[test]
    fn example_4_6_nu1_is_assignment_fixing() {
        // ν1: p(X,Y) -> ∃Z s(X,Z) ∧ t(Z,Y); ν2: t(X,Y) & t(Z,Y) -> X = Z.
        // ν1 is regularized and assignment-fixing w.r.t. Q(X) :- p(X,Y),
        // s(X,Z) (Example 4.6/4.8).
        let sigma = parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(Z,Y).\n\
             t(X,Y) & t(Z,Y) -> X = Z.",
        )
        .unwrap();
        let q = parse_query("q(X) :- p(X,Y), s(X,Z)").unwrap();
        let nu1 = sigma.tgds().next().unwrap().clone();
        assert_eq!(is_assignment_fixing_wrt_query(&q, &sigma, &nu1, &cfg()).unwrap(), Some(true));
    }
}
