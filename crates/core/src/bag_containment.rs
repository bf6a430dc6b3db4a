//! Bag containment — the necessary condition the paper proves on its way
//! to Theorem 4.2.
//!
//! Deciding `Q1 ⊑_B Q2` is a long-standing open problem (not even known
//! decidable; undecidable with inequalities \[18\]). The paper re-proves,
//! adapted to its setting (Appendix D's Lemma D.1), the necessary
//! condition of Chaudhuri & Vardi \[4\]:
//!
//! > `Q1 ⊑_B Q2` only if, for each predicate used in `Q1`, `Q2` has at
//! > least as many subgoals with this predicate as `Q1` does —
//!
//! and its set-enforced refinement: only predicates over **bag-valued**
//! relations are counted (duplicates over set-valued relations never
//! change multiplicities, Theorem 4.2). This module implements those
//! checks plus known sufficient conditions and a bounded falsifier, giving
//! a sound three-valued procedure.

use crate::counterexample::{amplify, lemma_d1_database};
use eqsql_cq::matcher::{bucket_atoms, MatchPlan, Seed, Target};
use eqsql_cq::{CqQuery, Predicate, Subst};
use eqsql_relalg::eval::eval_bag;
use eqsql_relalg::{Database, Schema};
use std::collections::HashSet;

/// Three-valued verdict for bag containment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BagContainment {
    /// A sufficient condition certifies `Q1 ⊑_B Q2`.
    Contained,
    /// A necessary condition fails or a witness database was found.
    NotContained,
    /// Neither direction could be established (the general problem is
    /// open).
    Unknown,
}

/// The per-predicate subgoal-count necessary condition of \[4\] (proved in
/// the paper's Appendix D): `Q1 ⊑_B Q2` requires
/// `count_p(Q2) ≥ count_p(Q1)` for every predicate `p` of `Q1`.
pub fn subgoal_count_condition(q1: &CqQuery, q2: &CqQuery) -> bool {
    let preds: HashSet<Predicate> = q1.body.iter().map(|a| a.pred).collect();
    preds.into_iter().all(|p| q2.count_pred(p) >= q1.count_pred(p))
}

/// The set-enforced refinement (Theorem 4.2's view): only bag-valued
/// relations are counted, after dropping duplicate subgoals over
/// set-valued relations from both queries.
pub fn subgoal_count_condition_with_schema(q1: &CqQuery, q2: &CqQuery, schema: &Schema) -> bool {
    let d1 = eqsql_cq::iso::dedup_set_valued(q1, |p| schema.is_set_valued(p));
    let d2 = eqsql_cq::iso::dedup_set_valued(q2, |p| schema.is_set_valued(p));
    let preds: HashSet<Predicate> =
        d1.body.iter().map(|a| a.pred).filter(|p| !schema.is_set_valued(*p)).collect();
    preds.into_iter().all(|p| d2.count_pred(p) >= d1.count_pred(p))
}

/// A sufficient condition: a **multiset-injective** containment mapping
/// from `Q2` to `Q1` — a containment mapping under which `Q2`'s body
/// covers `Q1`'s as a multiset (every `Q1` atom is the image of at least
/// as many `Q2` atoms as its own multiplicity). In particular isomorphism
/// qualifies, as does `Q2 = Q1 ∧ extra atoms` (more subgoals only raise
/// multiplicities).
pub fn onto_containment_mapping_exists(q1: &CqQuery, q2: &CqQuery) -> bool {
    onto_containment_mapping(q1, q2).is_some()
}

/// [`onto_containment_mapping_exists`], returning the witnessing
/// substitution (a containment mapping from `q2` to `q1` under which
/// `q2`'s body covers `q1`'s as a multiset). The witness certifies
/// `q1 ⊑_B q2` and can be replayed with [`is_multiset_onto_mapping`].
pub fn onto_containment_mapping(q1: &CqQuery, q2: &CqQuery) -> Option<Subst> {
    if q1.head.len() != q2.head.len() {
        return None;
    }
    let mut seed = Subst::new();
    for (t2, t1) in q2.head.iter().zip(q1.head.iter()) {
        match t2 {
            eqsql_cq::Term::Const(c) => {
                if *t1 != eqsql_cq::Term::Const(*c) {
                    return None;
                }
            }
            eqsql_cq::Term::Var(v) => {
                if !seed.bind(*v, *t1) {
                    return None;
                }
            }
        }
    }
    // Stream homomorphisms Q2 -> Q1 extending the head seed off the
    // planned matcher, stopping at the first with the multiset-cover
    // property — the historical path materialized (and silently capped)
    // the whole homomorphism set first.
    let head_vars: Vec<eqsql_cq::Var> = q2.head.iter().filter_map(eqsql_cq::Term::as_var).collect();
    let plan = MatchPlan::optimized(&q2.body, &head_vars);
    let buckets = bucket_atoms(&q1.body);
    let mut witness: Option<Subst> = None;
    plan.search(Target::new(&q1.body, &buckets), &Seed::Subst(&seed), &mut |m| {
        // The head-seeded plan search only emits containment mappings, so
        // the loop checks nothing but the multiset-cover property; the
        // full mapping validity is re-checked only by external replays
        // ([`is_multiset_onto_mapping`]).
        let image: Vec<_> = q2.body.iter().map(|a| m.apply_atom(a)).collect();
        let covered = q1.body.iter().all(|atom| {
            let need = q1.body.iter().filter(|a| *a == atom).count();
            let have = image.iter().filter(|a| *a == atom).count();
            have >= need
        });
        if covered {
            witness = Some(m.to_subst());
            false // stop at the first multiset-onto mapping
        } else {
            true
        }
    });
    witness
}

/// Certificate replay for [`onto_containment_mapping`]: is `h` a
/// containment mapping from `q2` to `q1` whose image covers `q1`'s body as
/// a multiset (every `q1` atom is hit at least as often as its own
/// multiplicity)?
pub fn is_multiset_onto_mapping(q1: &CqQuery, q2: &CqQuery, h: &Subst) -> bool {
    if !eqsql_cq::is_containment_mapping(q2, q1, h) {
        return false;
    }
    let image: Vec<_> = q2.body.iter().map(|a| h.apply_atom(a)).collect();
    q1.body.iter().all(|atom| {
        let need = q1.body.iter().filter(|a| *a == atom).count();
        let have = image.iter().filter(|a| *a == atom).count();
        have >= need
    })
}

/// A bounded falsifier: evaluates both queries under bag semantics on
/// the canonical database of `q1`, then on copies amplified per relation,
/// looking for a tuple with `Q1`-multiplicity exceeding its
/// `Q2`-multiplicity. Each amplification is built only once every earlier
/// candidate has failed.
pub fn find_non_containment_witness(
    q1: &CqQuery,
    q2: &CqQuery,
    max_amplification: u64,
) -> Option<Database> {
    let gap = |db: &Database| {
        let a1 = eval_bag(q1, db);
        let a2 = eval_bag(q2, db);
        a1.sorted().iter().any(|(t, m)| a2.multiplicity(t) < *m)
    };
    let base = lemma_d1_database(q1, Predicate::new("__none__"), 1);
    if gap(&base) {
        return Some(base);
    }
    q1.predicates()
        .into_iter()
        .flat_map(|(pred, _)| [2u64, 3, max_amplification.max(2)].map(|m| (pred, m)))
        .map(|(pred, m)| amplify(&base, pred, m))
        .find(|db| gap(db))
}

/// The combined three-valued test.
pub fn bag_contained(q1: &CqQuery, q2: &CqQuery) -> BagContainment {
    if !subgoal_count_condition(q1, q2) {
        return BagContainment::NotContained;
    }
    if onto_containment_mapping_exists(q1, q2) {
        return BagContainment::Contained;
    }
    if find_non_containment_witness(q1, q2, 8).is_some() {
        return BagContainment::NotContained;
    }
    BagContainment::Unknown
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_cq::parse_query;
    use eqsql_relalg::Tuple;

    fn q(s: &str) -> CqQuery {
        parse_query(s).unwrap()
    }

    #[test]
    fn necessary_condition_counts_per_predicate() {
        let q1 = q("q(X) :- p(X,Y), p(X,Z), r(X)");
        let q2_ok = q("q(X) :- p(X,Y), p(Y,Z), r(X)");
        let q2_bad = q("q(X) :- p(X,Y), r(X)");
        assert!(subgoal_count_condition(&q1, &q2_ok));
        assert!(!subgoal_count_condition(&q1, &q2_bad));
    }

    #[test]
    fn schema_refinement_ignores_set_valued_duplicates() {
        let mut schema = Schema::all_bags(&[("p", 2), ("s", 2)]);
        schema.mark_set_valued(eqsql_cq::Predicate::new("s"));
        // Two s-subgoals vs one: fine when s is set-valued...
        let q1 = q("q(X) :- p(X,Y), s(X,Z), s(X,Z)");
        let q2 = q("q(X) :- p(X,Y), s(X,Z)");
        assert!(subgoal_count_condition_with_schema(&q1, &q2, &schema));
        // ...but two p-subgoals vs one is not.
        let q3 = q("q(X) :- p(X,Y), p(X,Z)");
        assert!(!subgoal_count_condition_with_schema(&q3, &q2, &schema));
    }

    #[test]
    fn isomorphic_queries_are_mutually_contained() {
        let a = q("q(X) :- p(X,Y), r(X)");
        let b = q("q(A) :- r(A), p(A,B)");
        assert_eq!(bag_contained(&a, &b), BagContainment::Contained);
        assert_eq!(bag_contained(&b, &a), BagContainment::Contained);
    }

    #[test]
    fn extra_subgoals_raise_multiplicities() {
        // Q2 = Q1 plus an extra p-atom: Q1 ⊑_B Q2 fails the other way
        // around but holds... careful: extra subgoals *multiply*, so
        // Q2's answers dominate only if the extra atom always matches.
        // For q2 = p(X,Y), p(X,Y): each answer of q1 = p(X,Y) with
        // multiplicity m appears in q2 with m². m² ≥ m, so q1 ⊑_B q2.
        let q1 = q("q(X) :- p(X,Y)");
        let q2 = q("q(X) :- p(X,Y), p(X,Y)");
        assert_eq!(bag_contained(&q1, &q2), BagContainment::Contained);
        // And NOT the other way: m² ≤ m fails for m ≥ 2 — the count
        // condition already rejects.
        assert_eq!(bag_contained(&q2, &q1), BagContainment::NotContained);
    }

    #[test]
    fn falsifier_finds_multiplicity_gaps() {
        // Same subgoal counts, different shape: q1 = p(X,Y), p(Y,Z) vs
        // q2 = p(X,Y), p(X,Y). On the canonical database of q1, q2 needs
        // p(x,y) twice — fine — but on amplified copies the counts
        // diverge per tuple.
        let q1 = q("q(X) :- p(X,Y), p(Y,Z)");
        let q2 = q("q(X) :- p(X,X), p(X,X)");
        // q2's answers require a self-loop; on D(q1) (no loop) q1 has an
        // answer q2 lacks.
        let w = find_non_containment_witness(&q1, &q2, 4);
        assert!(w.is_some());
        let db = w.unwrap();
        let a1 = eval_bag(&q1, &db);
        let a2 = eval_bag(&q2, &db);
        assert!(a1.iter().any(|(t, m)| a2.multiplicity(t) < m));
    }

    #[test]
    fn witness_semantics_check() {
        // Verify the witness database actually demonstrates the gap for
        // the canonical Example D.1 pair.
        let q7 = q("q(X) :- p(X,Y), r(X), r(X)");
        let q8 = q("q(X) :- p(X,Y), r(X)");
        assert_eq!(bag_contained(&q7, &q8), BagContainment::NotContained);
        // q8 ⊑_B q7? count condition holds (1 ≤ 2 for r, 1 ≤ 1 for p);
        // and indeed m ≤ m² always: the onto-mapping test certifies it
        // (r-atom image covers both copies? No — the mapping sends the
        // single r atom onto one; multiset cover needs 2 ≥ ... the q7
        // body has each atom once distinct... r(X) appears twice
        // *identically*, image covers it iff 2 q8... Expect Unknown or
        // Contained; assert it is not NotContained (m ≤ m² is true).
        let v = bag_contained(&q8, &q7);
        assert_ne!(v, BagContainment::NotContained);
        // Engine spot-check on an amplified database.
        let db = lemma_d1_database(&q8, Predicate::new("r"), 3);
        let a7 = eval_bag(&q7, &db);
        let a8 = eval_bag(&q8, &db);
        let t = Tuple::new(vec![a8.core_set().next().unwrap()[0]]);
        assert!(a8.multiplicity(&t) <= a7.multiplicity(&t));
    }
}
