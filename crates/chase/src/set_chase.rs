//! The set-semantics chase to termination (§2.4 of the paper).
//!
//! Repeatedly applies tgd and egd steps until the canonical database of the
//! current query satisfies Σ (no step applicable), the query becomes
//! unsatisfiable (an egd equates distinct constants), or the budget runs
//! out. For weakly acyclic Σ termination is guaranteed (Theorem H.1) and
//! the result is unique up to set-equivalence in the absence of
//! dependencies \[10\].
//!
//! [`set_chase`] is the set-semantics convenience over the incremental
//! indexed engine ([`crate::engine::chase_indexed`], which takes a dedup
//! policy, an admission mode and [`EngineOpts`]); the original naive
//! driver survives as [`crate::reference`], the differential-testing
//! oracle.

use crate::engine::{chase_indexed, Admission, EngineOpts};
use crate::error::{ChaseConfig, ChaseError};
use crate::step::DedupPolicy;
use crate::trace::ChaseTrace;
use eqsql_cq::{CqQuery, Subst};
use eqsql_deps::DependencySet;

/// The outcome of a terminating chase.
#[derive(Clone, Debug)]
pub struct Chased {
    /// The terminal query `(Q)_{Σ,S}` (meaningless when `failed`).
    pub query: CqQuery,
    /// Did an egd equate two distinct constants? (`Q` is unsatisfiable
    /// under Σ; it returns the empty answer on every `D ⊨ Σ`.)
    pub failed: bool,
    /// Number of steps taken.
    pub steps: usize,
    /// Accumulated egd renaming: maps each original variable to its final
    /// image in the terminal query. Needed by the assignment-fixing test
    /// (see `crate::assignment_fixing`).
    pub renaming: Subst,
    /// The step trace: one typed record per step, plus a trailing
    /// failure record when `failed`. Render it with
    /// [`ChaseTrace::render`] against the Σ the chase ran on.
    pub trace: ChaseTrace,
}

/// Runs the chase of `q` with Σ under set semantics, deduplicating the body
/// after every step (set semantics treats bodies as sets).
pub fn set_chase(
    q: &CqQuery,
    sigma: &DependencySet,
    config: &ChaseConfig,
) -> Result<Chased, ChaseError> {
    chase_indexed(q, sigma, config, &DedupPolicy::All, Admission::All, &EngineOpts::default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::StepAction;
    use eqsql_cq::{are_isomorphic, parse_query, Term};
    use eqsql_deps::{parse_dependencies, satisfaction::query_satisfies_all};

    fn cfg() -> ChaseConfig {
        ChaseConfig::default()
    }

    /// Σ of Example 4.1 (tgds σ1–σ4 and key egds σ7, σ8).
    fn sigma_4_1() -> DependencySet {
        parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
             p(X,Y) -> t(X,Y,W).\n\
             p(X,Y) -> r(X).\n\
             p(X,Y) -> u(X,Z) & t(X,Y,W).\n\
             s(X,Y) & s(X,Z) -> Y = Z.\n\
             t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
        )
        .unwrap()
    }

    #[test]
    fn chase_terminates_when_satisfied() {
        // The terminal result's canonical database satisfies Σ.
        let q = parse_query("q4(X) :- p(X,Y)").unwrap();
        let sigma = sigma_4_1();
        let r = set_chase(&q, &sigma, &cfg()).unwrap();
        assert!(!r.failed);
        assert!(query_satisfies_all(&r.query, &sigma));
        assert!(r.steps > 0);
    }

    #[test]
    fn example_4_1_set_chase_of_q4_is_q1() {
        // (Q4)_{Σ,S} ≡_S Q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U).
        //
        // Raw set-chase results are unique only up to set-equivalence in
        // the absence of dependencies [10] — depending on the order in
        // which σ1/σ2 fire, a redundant t-subgoal may appear — so we assert
        // mutual containment (Chandra–Merlin), which is the paper's actual
        // claim Q1 ≡_{Σ,S} Q4.
        let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
        let q1 = parse_query("q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)").unwrap();
        let r = set_chase(&q4, &sigma_4_1(), &cfg()).unwrap();
        let c = eqsql_cq::canonical_representation(&r.query);
        assert!(
            eqsql_cq::containment_mapping(&c, &q1).is_some()
                && eqsql_cq::containment_mapping(&q1, &c).is_some(),
            "got {}",
            r.query
        );
        // Every Q1 subgoal predicate shows up in the chase result.
        for pred in ["p", "t", "s", "r", "u"] {
            assert!(r.query.count_pred(eqsql_cq::Predicate::new(pred)) >= 1);
        }
    }

    #[test]
    fn example_4_1_chasing_q1_is_fixpoint() {
        // (Q1)_{Σ,S} ≅ Q1: Q1 is already closed under Σ.
        let q1 = parse_query("q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)").unwrap();
        let r = set_chase(&q1, &sigma_4_1(), &cfg()).unwrap();
        assert!(are_isomorphic(&r.query, &q1), "got {}", r.query);
    }

    #[test]
    fn egd_only_chase_collapses_variables() {
        let q = parse_query("q(X) :- s(X,A), s(X,B), r(A,B)").unwrap();
        let sigma = parse_dependencies("s(X,Y) & s(X,Z) -> Y = Z.").unwrap();
        let r = set_chase(&q, &sigma, &cfg()).unwrap();
        assert!(!r.failed);
        // A and B collapse; dedup leaves s once, r's arguments equal.
        assert_eq!(r.query.body.len(), 2);
        let renamed_a = r.renaming.apply_term(&Term::var("A"));
        let renamed_b = r.renaming.apply_term(&Term::var("B"));
        assert_eq!(renamed_a, renamed_b);
    }

    #[test]
    fn chase_failure_detected() {
        let q = parse_query("q(X) :- s(X,3), s(X,4)").unwrap();
        let sigma = parse_dependencies("s(X,Y) & s(X,Z) -> Y = Z.").unwrap();
        let r = set_chase(&q, &sigma, &cfg()).unwrap();
        assert!(r.failed);
        // The trace ends with the failure record, which is not a step.
        assert_eq!(r.trace.len(), r.steps + 1);
        assert_eq!(r.trace.entries().last().map(|e| e.action), Some(StepAction::Failed));
    }

    #[test]
    fn non_terminating_chase_hits_budget() {
        // e(X,Y) -> e(Y,Z) is not weakly acyclic: infinite chase.
        let q = parse_query("q(X) :- e(X,Y)").unwrap();
        let sigma = parse_dependencies("e(X,Y) -> e(Y,Z).").unwrap();
        let err = set_chase(&q, &sigma, &ChaseConfig::with_max_steps(50)).unwrap_err();
        assert!(matches!(err, ChaseError::BudgetExhausted { .. }));
    }

    #[test]
    fn inclusion_dependency_chase() {
        let q = parse_query("q(X) :- a(X)").unwrap();
        let sigma = parse_dependencies("a(X) -> b(X). b(X) -> c(X,W).").unwrap();
        let r = set_chase(&q, &sigma, &cfg()).unwrap();
        assert_eq!(r.query.body.len(), 3);
        assert_eq!(r.steps, 2);
    }

    #[test]
    fn chase_is_idempotent() {
        let q = parse_query("q4(X) :- p(X,Y)").unwrap();
        let sigma = sigma_4_1();
        let r1 = set_chase(&q, &sigma, &cfg()).unwrap();
        let r2 = set_chase(&r1.query, &sigma, &cfg()).unwrap();
        assert_eq!(r2.steps, 0);
        assert!(are_isomorphic(&r1.query, &r2.query));
    }

    #[test]
    fn trace_records_steps() {
        let q = parse_query("q(X) :- a(X)").unwrap();
        let sigma = parse_dependencies("a(X) -> b(X).").unwrap();
        let r = set_chase(&q, &sigma, &cfg()).unwrap();
        assert_eq!(r.trace.len(), 1);
        let step = &r.trace.entries()[0];
        assert!(matches!(step.action, StepAction::Tgd { .. }), "got {step:?}");
        // The binding is the premise's X; b(X) mints no existential.
        assert_eq!(r.trace.binding(step), [Term::var("X")]);
    }

    #[test]
    fn example_4_6_chase_with_modified_egd() {
        // Q(X) :- p(X,Y), s(X,Z) with ν1: p(X,Y) -> ∃Z s(X,Z) ∧ t(Z,Y),
        // ν2: t(X,Y) & t(Z,Y) -> X = Z. The traditional chase adds BOTH a
        // fresh s-subgoal and a t-subgoal (Example 4.8's Q''), then ν2 has
        // nothing to merge.
        let q = parse_query("q(X) :- p(X,Y), s(X,Z)").unwrap();
        let sigma = parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(Z,Y).\n\
             t(X,Y) & t(Z,Y) -> X = Z.",
        )
        .unwrap();
        let r = set_chase(&q, &sigma, &cfg()).unwrap();
        // Q''(X) :- p(X,Y), s(X,Z), s(X,W), t(W,Y) — four subgoals.
        let expected = parse_query("qq(X) :- p(X,Y), s(X,Z), s(X,W), t(W,Y)").unwrap();
        assert!(are_isomorphic(&r.query, &expected), "got {}", r.query);
    }
}
