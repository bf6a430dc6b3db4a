//! Sound chase under bag and bag-set semantics (Theorems 4.1 and 4.3).
//!
//! The set-semantics chase is *unsound* under bag/bag-set semantics: a tgd
//! step can change answer multiplicities (Example 4.1). The paper's
//! repairs, implemented here:
//!
//! * Σ is **regularized** first (Definition 4.1 / Proposition 4.1);
//! * a tgd step `Q ⇒_σ Q'` fires only when it is **assignment-fixing**
//!   (Definition 4.4) — and, under bag semantics, only when every added
//!   subgoal's relation is set-valued on all instances (Theorem 4.1(1));
//! * egd steps always fire; after a step, duplicate subgoals are dropped
//!   for set-valued relations only under bag semantics (Theorem 4.1(2))
//!   and unconditionally under bag-set semantics (Theorem 4.3(2));
//! * the result is unique up to isomorphism after that normalization
//!   (Theorem 5.1 for bag, Theorem G.1 for bag-set) and the chase
//!   terminates whenever set-chase does (Proposition 5.1).

use crate::assignment_fixing::is_assignment_fixing;
use crate::engine::{chase_indexed, Admission, EngineOpts};
use crate::error::{ChaseConfig, ChaseError};
use crate::set_chase::Chased;
use crate::step::DedupPolicy;
use eqsql_cq::{CqQuery, Subst};
use eqsql_deps::regularize::regularize_set;
use eqsql_deps::{DependencySet, Tgd};
use eqsql_relalg::{Schema, Semantics};

/// The result of a sound chase.
#[derive(Clone, Debug)]
pub struct SoundChased {
    /// The normalized terminal result (`(Q)_{Σ,B}` or `(Q)_{Σ,BS}` or
    /// `(Q)_{Σ,S}`).
    pub query: CqQuery,
    /// Did the chase fail (egd equated distinct constants)?
    pub failed: bool,
    /// Steps taken.
    pub steps: usize,
    /// The regularized Σ actually used. Shared (`Arc`) so memoizing
    /// callers — the `eqsql_service` chase cache regularizes each Σ once
    /// and replays results — don't deep-copy Σ per chase.
    pub sigma_regularized: std::sync::Arc<DependencySet>,
    /// The underlying chase record (trace, renaming).
    pub chased: Chased,
}

/// Runs the sound chase of `q` with Σ under the given semantics.
///
/// Σ is regularized internally. The `schema` supplies the set-valuedness
/// flags (the paper's set-enforcing constraints of Appendix C); it is only
/// consulted under bag semantics.
///
/// ```
/// use eqsql_chase::{sound_chase, ChaseConfig};
/// use eqsql_cq::parse_query;
/// use eqsql_deps::parse_dependencies;
/// use eqsql_relalg::{Schema, Semantics};
///
/// let sigma = parse_dependencies(
///     "a(X) -> b(X,W). b(X,W1) & b(X,W2) -> W1 = W2. a(X) -> c(X).",
/// ).unwrap();
/// let mut schema = Schema::all_bags(&[("a", 1), ("b", 2), ("c", 1)]);
/// schema.mark_set_valued(eqsql_cq::Predicate::new("b"));
///
/// let q = parse_query("q(X) :- a(X)").unwrap();
/// // Bag semantics: only the keyed, set-valued b-atom may be added;
/// // the bag-valued c stays out (Theorem 4.1).
/// let bag = sound_chase(Semantics::Bag, &q, &sigma, &schema,
///                       &ChaseConfig::default()).unwrap();
/// assert_eq!(bag.query.body.len(), 2);
/// // Bag-set semantics additionally admits the full tgd a -> c
/// // (Theorem 4.3).
/// let bs = sound_chase(Semantics::BagSet, &q, &sigma, &schema,
///                      &ChaseConfig::default()).unwrap();
/// assert_eq!(bs.query.body.len(), 3);
/// ```
pub fn sound_chase(
    sem: Semantics,
    q: &CqQuery,
    sigma: &DependencySet,
    schema: &Schema,
    config: &ChaseConfig,
) -> Result<SoundChased, ChaseError> {
    sound_chase_prepared(sem, q, std::sync::Arc::new(regularize_set(sigma)), schema, config)
}

/// [`sound_chase`] over an **already regularized** Σ.
///
/// Regularization (Definition 4.1) depends only on Σ, so callers issuing
/// many chases over one fixed dependency set — the chase cache of
/// `eqsql_service`, the C&B backchase — compute
/// [`regularize_set`] once and feed the result here instead of paying for
/// it on every chase. Passing a non-regularized set is sound for set
/// semantics but loses completeness under bag/bag-set semantics
/// (Example 4.4), so only hand this the output of [`regularize_set`].
pub fn sound_chase_prepared(
    sem: Semantics,
    q: &CqQuery,
    sigma_reg: std::sync::Arc<DependencySet>,
    schema: &Schema,
    config: &ChaseConfig,
) -> Result<SoundChased, ChaseError> {
    sound_chase_prepared_opts(sem, q, sigma_reg, schema, config, &EngineOpts::default())
}

/// [`sound_chase_prepared`] with explicit [`EngineOpts`] — the run guard
/// and step probe a `Solver` in `eqsql_service` sets. With
/// [`EngineOpts::default`] this is exactly [`sound_chase_prepared`].
pub fn sound_chase_prepared_opts(
    sem: Semantics,
    q: &CqQuery,
    sigma_reg: std::sync::Arc<DependencySet>,
    schema: &Schema,
    config: &ChaseConfig,
    opts: &EngineOpts,
) -> Result<SoundChased, ChaseError> {
    let chased = match sem {
        Semantics::Set => {
            chase_indexed(q, &sigma_reg, config, &DedupPolicy::All, Admission::All, opts)?
        }
        Semantics::Bag | Semantics::BagSet => {
            // Duplicates drop over set-valued relations only under bag
            // semantics (Theorem 4.1(2)), everywhere under bag-set
            // semantics (Theorem 4.3(2)).
            let dedup = if sem == Semantics::Bag {
                DedupPolicy::SetValuedOnly(schema.set_valued_relations().into_iter().collect())
            } else {
                DedupPolicy::All
            };
            let set_valued = match &dedup {
                DedupPolicy::SetValuedOnly(preds) => Some(preds),
                _ => None,
            };
            let mut admit = |tgd: &Tgd, cur: &CqQuery, h: &Subst| {
                // Theorem 4.1(1): under bag semantics every added subgoal
                // must be set-valued.
                if set_valued.is_some_and(|s| !tgd.rhs.iter().all(|a| s.contains(&a.pred))) {
                    return Ok(false);
                }
                is_assignment_fixing(cur, &sigma_reg, tgd, h, config, &opts.guard)
            };
            chase_indexed(q, &sigma_reg, config, &dedup, Admission::Custom(&mut admit), opts)?
        }
    };
    Ok(SoundChased {
        query: chased.query.clone(),
        failed: chased.failed,
        steps: chased.steps,
        sigma_regularized: sigma_reg,
        chased,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::guard::RunGuard;
    use eqsql_cq::{are_isomorphic, parse_query, Predicate};
    use eqsql_deps::parse_dependencies;

    fn cfg() -> ChaseConfig {
        ChaseConfig::default()
    }

    /// Example 4.1: Σ = {σ1..σ4 tgds, σ7 key of S, σ8 key of T}; S and T
    /// set-valued (σ5/σ6 as schema flags per Appendix C).
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

    fn schema_4_1() -> Schema {
        let mut s = Schema::all_bags(&[("p", 2), ("r", 1), ("s", 2), ("t", 3), ("u", 2)]);
        s.mark_set_valued(eqsql_cq::Predicate::new("s"));
        s.mark_set_valued(eqsql_cq::Predicate::new("t"));
        s
    }

    #[test]
    fn example_4_1_bag_chase_of_q4_is_q3() {
        // (Q4)_{Σ,B} = Q3(X) :- p(X,Y), t(X,Y,W), s(X,Z):
        // σ3 (adds bag-valued R) and σ4's U-half are excluded; σ1's
        // t-half is not assignment-fixing; σ1's s-half and σ2 fire.
        let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
        let r = sound_chase(Semantics::Bag, &q4, &sigma_4_1(), &schema_4_1(), &cfg()).unwrap();
        let q3 = parse_query("q3(X) :- p(X,Y), t(X,Y,W), s(X,Z)").unwrap();
        assert!(are_isomorphic(&r.query, &q3), "got {}", r.query);
    }

    #[test]
    fn example_4_1_bag_set_chase_of_q4_is_q2() {
        // (Q4)_{Σ,BS} = Q2(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X):
        // σ3 (full tgd) is sound under bag-set semantics.
        let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
        let r = sound_chase(Semantics::BagSet, &q4, &sigma_4_1(), &schema_4_1(), &cfg()).unwrap();
        let q2 = parse_query("q2(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X)").unwrap();
        assert!(are_isomorphic(&r.query, &q2), "got {}", r.query);
    }

    #[test]
    fn example_4_1_set_chase_contains_everything() {
        let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
        let r = sound_chase(Semantics::Set, &q4, &sigma_4_1(), &schema_4_1(), &cfg()).unwrap();
        for pred in ["p", "t", "s", "r", "u"] {
            assert!(r.query.count_pred(Predicate::new(pred)) >= 1, "missing {pred}");
        }
    }

    #[test]
    fn sound_chase_fixpoints_match_paper_chain() {
        // Q3 is a fixpoint of sound bag chase; Q2 of sound bag-set chase.
        let q3 = parse_query("q3(X) :- p(X,Y), t(X,Y,W), s(X,Z)").unwrap();
        let q2 = parse_query("q2(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X)").unwrap();
        let rb = sound_chase(Semantics::Bag, &q3, &sigma_4_1(), &schema_4_1(), &cfg()).unwrap();
        assert!(are_isomorphic(&rb.query, &q3));
        let rbs = sound_chase(Semantics::BagSet, &q2, &sigma_4_1(), &schema_4_1(), &cfg()).unwrap();
        assert!(are_isomorphic(&rbs.query, &q2));
    }

    #[test]
    fn example_4_4_regularization_recovers_q3() {
        // Σ' = Σ - {σ2}. The non-regularized σ4 must be split so its
        // t-half can fire: sound bag chase of Q4 still reaches Q3
        // (Example 4.4/4.5 and Note 1).
        let sigma_prime = parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
             p(X,Y) -> r(X).\n\
             p(X,Y) -> u(X,Z) & t(X,Y,W).\n\
             s(X,Y) & s(X,Z) -> Y = Z.\n\
             t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
        )
        .unwrap();
        let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
        let r = sound_chase(Semantics::Bag, &q4, &sigma_prime, &schema_4_1(), &cfg()).unwrap();
        let q3 = parse_query("q3(X) :- p(X,Y), t(X,Y,W), s(X,Z)").unwrap();
        assert!(are_isomorphic(&r.query, &q3), "got {}", r.query);
    }

    #[test]
    fn example_4_8_sound_step_adds_both_subgoals() {
        // Q(X) :- p(X,Y), s(X,Z) with ν1/ν2 of Example 4.6: the sound
        // chase applies ν1 in its traditional form, adding a *fresh*
        // s-subgoal alongside the t-subgoal:
        // Q''(X) :- p(X,Y), s(X,Z), s(X,W), t(W,Y).
        let sigma = parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(Z,Y).\n\
             t(X,Y) & t(Z,Y) -> X = Z.",
        )
        .unwrap();
        let mut schema = Schema::all_bags(&[("p", 2), ("s", 2), ("t", 2)]);
        schema.mark_set_valued(Predicate::new("s"));
        schema.mark_set_valued(Predicate::new("t"));
        let q = parse_query("q(X) :- p(X,Y), s(X,Z)").unwrap();
        let r = sound_chase(Semantics::Bag, &q, &sigma, &schema, &cfg()).unwrap();
        let expected = parse_query("qq(X) :- p(X,Y), s(X,Z), s(X,W), t(W,Y)").unwrap();
        assert!(are_isomorphic(&r.query, &expected), "got {}", r.query);
        // Under bag-set semantics the same step fires (set-valuedness not
        // required).
        let schema_bags = Schema::all_bags(&[("p", 2), ("s", 2), ("t", 2)]);
        let r2 = sound_chase(Semantics::BagSet, &q, &sigma, &schema_bags, &cfg()).unwrap();
        assert!(are_isomorphic(&r2.query, &expected), "got {}", r2.query);
        // But under bag semantics with s,t bag-valued, the step may NOT
        // fire (Theorem 4.1's set-valuedness requirement).
        let r3 = sound_chase(Semantics::Bag, &q, &sigma, &schema_bags, &cfg()).unwrap();
        assert!(are_isomorphic(&r3.query, &q), "got {}", r3.query);
    }

    #[test]
    fn egds_fire_under_all_semantics_with_correct_dedup() {
        // Duplicate subgoals over a bag relation must survive bag-chase
        // dedup (Theorem 4.1(2)); set-valued duplicates are dropped.
        let sigma = parse_dependencies("s(X,Y) & s(X,Z) -> Y = Z.").unwrap();
        let mut schema = Schema::all_bags(&[("s", 2), ("u", 2)]);
        schema.mark_set_valued(Predicate::new("s"));
        let q = parse_query("q(X) :- s(X,A), s(X,B), u(X,C), u(X,C)").unwrap();
        let r = sound_chase(Semantics::Bag, &q, &sigma, &schema, &cfg()).unwrap();
        // A/B merge; the two s-atoms collapse (set-valued), the two
        // u-atoms stay (bag-valued).
        assert_eq!(r.query.count_pred(Predicate::new("s")), 1);
        assert_eq!(r.query.count_pred(Predicate::new("u")), 2);
        // Under bag-set semantics everything dedups.
        let r2 = sound_chase(Semantics::BagSet, &q, &sigma, &schema, &cfg()).unwrap();
        assert_eq!(r2.query.count_pred(Predicate::new("u")), 1);
    }

    #[test]
    fn sound_chase_terminates_whenever_set_chase_does() {
        // Proposition 5.1 on Example 4.1's input.
        let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
        for sem in [Semantics::Set, Semantics::Bag, Semantics::BagSet] {
            let r = sound_chase(sem, &q4, &sigma_4_1(), &schema_4_1(), &cfg());
            assert!(r.is_ok(), "{sem} chase failed");
        }
    }

    #[test]
    fn order_independence_of_sound_bag_chase() {
        // Theorem 5.1: permuting Σ yields isomorphic results.
        let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
        let sigma = sigma_4_1();
        let baseline =
            sound_chase(Semantics::Bag, &q4, &sigma, &schema_4_1(), &cfg()).unwrap().query;
        // Reverse the dependency order.
        let mut deps: Vec<_> = sigma.iter().cloned().collect();
        deps.reverse();
        let reversed = DependencySet::from_vec(deps);
        let alt = sound_chase(Semantics::Bag, &q4, &reversed, &schema_4_1(), &cfg()).unwrap().query;
        assert!(are_isomorphic(&baseline, &alt), "{baseline} vs {alt}");
    }

    /// The first failing assignment-fixing test ends the sound chase with
    /// its error. Every test here chases the non-terminating
    /// `r(X,Y) -> r(Y,W)` into the 50-step budget, so however many `p`
    /// atoms offer a test, the guard sees one budget-sized nested chase
    /// and a few outer polls.
    #[test]
    fn first_failing_admission_test_ends_the_chase() {
        let sigma = parse_dependencies("p(X) -> r(X,Z). r(X,Y) -> r(Y,W).").unwrap();
        let sigma = std::sync::Arc::new(regularize_set(&sigma));
        let schema = Schema::all_bags(&[("p", 1), ("r", 2)]);
        let config = ChaseConfig::with_max_steps(50);
        for q in ["q(X) :- p(X)", "q(X) :- p(X), p(Y)", "q(X) :- p(X), p(Y), p(Z)"] {
            let guard = RunGuard::with_deadline_ms(3_600_000);
            let opts = EngineOpts { guard: guard.clone(), ..EngineOpts::default() };
            let q = parse_query(q).unwrap();
            let r = sound_chase_prepared_opts(
                Semantics::BagSet,
                &q,
                std::sync::Arc::clone(&sigma),
                &schema,
                &config,
                &opts,
            );
            assert_eq!(r.unwrap_err(), ChaseError::BudgetExhausted { steps: 50 }, "{q}");
            assert!(guard.polls() <= 55, "{q}: {} guard polls", guard.polls());
        }
    }
}
