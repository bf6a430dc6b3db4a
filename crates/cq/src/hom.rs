//! Homomorphisms between conjunctions of atoms and containment mappings
//! between conjunctive queries (Chandra–Merlin \[2\]).
//!
//! A homomorphism from conjunction `φ(U)` to conjunction `ψ(V)` maps the
//! variables of `φ` to terms of `ψ` such that constants are fixed and every
//! atom of `φ` lands on an atom of `ψ` (§2.1 of the paper). Containment-
//! mapping search is NP-complete in general; the inputs in this workspace
//! are small symbolic queries.
//!
//! [`containment_mapping`] runs on the planned, trail-based search in
//! [`crate::matcher`]; its plan preserves the source atom order, so the
//! mapping it returns is the one the naive backtracker
//! ([`crate::matcher::reference`]) finds first. Other homomorphism
//! searches compile a [`MatchPlan`] and search
//! it directly.

use crate::matcher::{bucket_atoms, MatchPlan, Seed, Target};
use crate::query::CqQuery;
use crate::subst::Subst;
use crate::term::Term;

/// Upper bound on the number of homomorphisms the reference chase driver
/// enumerates per premise before it reports truncation (a guard against
/// pathological inputs; the chase never comes close on paper-scale
/// inputs).
pub const MAX_HOMOMORPHISMS: usize = 200_000;

/// A containment mapping from `from` to `to`: a homomorphism between the
/// bodies that maps the head of `from` onto the head of `to`, position by
/// position (§2.1). By Chandra–Merlin, one exists iff `to ⊑_S from`.
pub fn containment_mapping(from: &CqQuery, to: &CqQuery) -> Option<Subst> {
    if from.head.len() != to.head.len() {
        return None;
    }
    let mut seed = Subst::new();
    for (ft, tt) in from.head.iter().zip(to.head.iter()) {
        match ft {
            Term::Const(c) => {
                if *tt != Term::Const(*c) {
                    return None;
                }
            }
            Term::Var(v) => {
                if !seed.bind(*v, *tt) {
                    return None;
                }
            }
        }
    }
    // Reference-order plan: containment checks run overwhelmingly on
    // small bodies (C&B subqueries, equivalence probes) where the O(n)
    // compile wins, and it keeps the historical first-match choice.
    let plan = MatchPlan::new(&from.body);
    let buckets = bucket_atoms(&to.body);
    plan.first_match(Target::new(&to.body, &buckets), &Seed::Subst(&seed))
}

/// Checks that `h` really is a containment mapping from `from` to `to`:
/// every head term of `from` maps onto the corresponding head term of `to`
/// and every body atom of `from` lands (under `h`) on some body atom of
/// `to`. Constants are fixed by construction ([`Subst`] maps variables
/// only).
///
/// This is the *certificate replay* half of [`containment_mapping`]: a
/// caller handed a witnessing substitution (e.g. out of a cached or
/// serialized verdict) can confirm it against the queries without trusting
/// the search that produced it.
pub fn is_containment_mapping(from: &CqQuery, to: &CqQuery, h: &Subst) -> bool {
    if from.head.len() != to.head.len() {
        return false;
    }
    if from.head.iter().zip(to.head.iter()).any(|(f, t)| h.apply_term(f) != *t) {
        return false;
    }
    from.body.iter().all(|a| to.body.contains(&h.apply_atom(a)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::matcher::reference;
    use crate::parser::parse_query;

    fn q(s: &str) -> CqQuery {
        parse_query(s).unwrap()
    }

    /// First homomorphism from `src`'s body into `dst`'s body extending
    /// `seed`, by the reference-order plan [`containment_mapping`] runs.
    fn extend(src: &str, dst: &str, seed: &Subst) -> Option<Subst> {
        let (src, dst) = (q(src).body, q(dst).body);
        let buckets = bucket_atoms(&dst);
        MatchPlan::new(&src).first_match(Target::new(&dst, &buckets), &Seed::Subst(seed))
    }

    fn find(src: &str, dst: &str) -> Option<Subst> {
        extend(src, dst, &Subst::new())
    }

    /// Every match of the reference-order plan, in emission order.
    fn all_planned(src: &str, dst: &str) -> Vec<Subst> {
        let (src, dst) = (q(src).body, q(dst).body);
        let buckets = bucket_atoms(&dst);
        let mut out = Vec::new();
        MatchPlan::new(&src).search(Target::new(&dst, &buckets), &Seed::Empty, &mut |m| {
            out.push(m.to_subst());
            true
        });
        out
    }

    /// The reference chase driver's enumeration, capped at `cap`.
    fn enumerate(src: &str, dst: &str, cap: usize) -> (Vec<Subst>, bool) {
        reference::enumerate_homomorphisms(&q(src).body, &q(dst).body, &Subst::new(), cap)
    }

    #[test]
    fn identity_homomorphism_exists() {
        assert!(find("q(X) :- p(X,Y), s(Y,Z)", "q(X) :- p(X,Y), s(Y,Z)").is_some());
    }

    #[test]
    fn homomorphism_can_collapse_variables() {
        let h = find("q(X) :- p(X,Y), p(Y,X)", "q(X) :- p(X,X)").unwrap();
        assert_eq!(h.apply_term(&Term::var("Y")), h.apply_term(&Term::var("X")));
    }

    #[test]
    fn no_homomorphism_on_missing_predicate() {
        assert!(find("q(X) :- p(X,Y), r(Y)", "q(X) :- p(X,Y)").is_none());
    }

    #[test]
    fn constants_must_match() {
        assert!(find("q(X) :- p(X, 3)", "q(X) :- p(X, 3)").is_some());
        assert!(find("q(X) :- p(X, 3)", "q(X) :- p(X, 4)").is_none());
    }

    #[test]
    fn all_homomorphisms_counts_targets() {
        let (src, dst) = ("q() :- p(X)", "q() :- p(A), p(B), p(C)");
        assert_eq!(all_planned(src, dst).len(), 3);
        assert_eq!(enumerate(src, dst, MAX_HOMOMORPHISMS).0.len(), 3);
    }

    #[test]
    fn all_homomorphisms_dedups_bindings() {
        // Duplicate target atoms yield the same variable mapping; the
        // reference driver's enumeration keeps it once.
        let (homs, _) = enumerate("q() :- p(X)", "q() :- p(A), p(A)", MAX_HOMOMORPHISMS);
        assert_eq!(homs.len(), 1);
    }

    #[test]
    fn enumeration_reports_truncation() {
        // Two independent atoms with two candidates each: 4 homomorphisms.
        // A cap of 4 is complete and unflagged; a cap of 3 flags the cut.
        let (src, dst) = ("q() :- p0(X0), p1(X1)", "q() :- p0(0), p0(1), p1(0), p1(1)");
        let (all, truncated) = enumerate(src, dst, 4);
        assert!(!truncated);
        assert_eq!(all, all_planned(src, dst), "emission order diverged from the plan");
        let (cut, truncated) = enumerate(src, dst, 3);
        assert!(truncated);
        assert_eq!(cut, all[..3]);
    }

    #[test]
    fn seeded_extension() {
        let seed = Subst::from_pairs([(crate::term::Var::new("X"), Term::int(3))]);
        let h = extend("q() :- p(X,Y)", "q() :- p(1,2), p(3,4)", &seed).unwrap();
        assert_eq!(h.apply_term(&Term::var("Y")), Term::int(4));
    }

    #[test]
    fn containment_mapping_is_the_reference_first_match() {
        // The module doc's promise: the plan keeps the source atom order,
        // so the mapping returned is the naive backtracker's first one
        // from the same head seed.
        let pairs = [
            ("q(X) :- p(X,Y), p(Y,Z), r(Z)", "q(1) :- p(1,2), p(2,3), p(2,2), r(3), r(2)"),
            ("q(X) :- p(X,Y), p(Y,X)", "q(A) :- p(A,B), p(B,A), p(A,A)"),
            ("q(X,Y) :- p(X,Z), p(Z,Y)", "q(A,B) :- p(A,C), p(C,B), p(A,A), p(A,B)"),
        ];
        for (from, to) in pairs {
            let (from, to) = (q(from), q(to));
            let seed = Subst::from_pairs(
                from.head.iter().zip(&to.head).filter_map(|(f, t)| Some((f.as_var()?, *t))),
            );
            let naive = reference::extend_homomorphism(&from.body, &to.body, &seed);
            assert!(naive.is_some(), "{to} ⊑ {from} should hold");
            assert_eq!(containment_mapping(&from, &to), naive, "{from} into {to}");
        }
    }

    #[test]
    fn containment_mapping_respects_head() {
        // Classic: q1(X) :- p(X,Y) contains q2(X) :- p(X,X)? A containment
        // mapping from q1 to q2 maps X->X, Y->X: exists, so q2 ⊑ q1.
        let q1 = q("q(X) :- p(X,Y)");
        let q2 = q("q(X) :- p(X,X)");
        assert!(containment_mapping(&q1, &q2).is_some());
        // The other direction requires mapping p(X,X) into p(X,Y) with
        // X->X: impossible since Y≠X.
        assert!(containment_mapping(&q2, &q1).is_none());
    }

    #[test]
    fn containment_mapping_head_constant() {
        let q1 = q("q(3) :- p(3,Y)");
        let q2 = q("q(3) :- p(3,4)");
        assert!(containment_mapping(&q1, &q2).is_some());
        let q3 = q("q(5) :- p(5,4)");
        assert!(containment_mapping(&q1, &q3).is_none());
    }

    #[test]
    fn containment_mapping_witness_replays() {
        let q1 = q("q(X) :- p(X,Y)");
        let q2 = q("q(X) :- p(X,X)");
        let h = containment_mapping(&q1, &q2).unwrap();
        assert!(is_containment_mapping(&q1, &q2, &h));
        // A corrupted witness is rejected.
        let mut bad = Subst::new();
        bad.set(crate::term::Var::new("X"), Term::var("Y"));
        assert!(!is_containment_mapping(&q1, &q2, &bad));
        // The empty substitution is not a containment mapping here either:
        // p(X,Y) is not an atom of q2.
        assert!(!is_containment_mapping(&q1, &q2, &Subst::new()));
    }
}
