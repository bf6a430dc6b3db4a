//! Query isomorphism and canonical representations.
//!
//! Theorem 2.1 of the paper (due to Chaudhuri & Vardi \[4\]):
//!
//! 1. `Q ≡_B Q'` iff `Q` and `Q'` are **isomorphic** — there is a bijective
//!    variable renaming carrying the head of `Q` onto the head of `Q'` and
//!    the body of `Q` onto the body of `Q'` *as multisets of atoms*;
//! 2. `Q ≡_BS Q'` iff their canonical representations (duplicate atoms
//!    removed) are isomorphic.

use crate::atom::Atom;
use crate::query::CqQuery;
use crate::term::{Term, Var};
use std::collections::HashMap;

/// Are `q1` and `q2` isomorphic (same query up to bijective variable
/// renaming, bodies compared as **multisets**)? This is the bag-equivalence
/// test of Theorem 2.1(1).
pub fn are_isomorphic(q1: &CqQuery, q2: &CqQuery) -> bool {
    find_isomorphism(q1, q2).is_some()
}

/// Like [`are_isomorphic`], but returns the witnessing bijection as a map
/// from `q1`'s variables onto `q2`'s variables. The chase-result cache uses
/// this to replay a cached terminal query for an α-equivalent probe.
///
/// The returned map is total on `q1.all_vars()` and injective; its image is
/// exactly `q2.all_vars()`.
///
/// After the cheap shape rejects, a trail-based backtracking search pairs
/// `q1`'s body atoms, in written order, with unused `q2` atoms under a
/// bijective variable pairing seeded by the heads.
pub fn find_isomorphism(q1: &CqQuery, q2: &CqQuery) -> Option<HashMap<Var, Var>> {
    // Equal body sizes are what make the injective atom matching below
    // surjective: without them an injective-but-not-surjective map would
    // pass for an isomorphism.
    if q1.head.len() != q2.head.len() || q1.body.len() != q2.body.len() {
        return None;
    }
    // Quick reject: per-predicate atom counts must agree.
    let mut counts: HashMap<_, i64> = HashMap::new();
    for a in &q1.body {
        *counts.entry(a.key()).or_default() += 1;
    }
    for a in &q2.body {
        *counts.entry(a.key()).or_default() -= 1;
    }
    if counts.values().any(|&c| c != 0) {
        return None;
    }
    let mut iso = IsoFrame {
        fwd: HashMap::new(),
        bwd: HashMap::new(),
        used: vec![false; q2.body.len()],
        trail: Vec::new(),
    };
    for (s, t) in q1.head.iter().zip(q2.head.iter()) {
        if !iso.pair_terms(s, t) {
            return None;
        }
    }
    iso.match_atoms(&q1.body, &q2.body, 0).then_some(iso.fwd)
}

/// The bijection search state: the forward and reverse variable pairing
/// and a used-target mask, all undone along a trail on backtracking.
struct IsoFrame {
    fwd: HashMap<Var, Var>,
    bwd: HashMap<Var, Var>,
    used: Vec<bool>,
    /// Source vars bound since the start, for undo.
    trail: Vec<Var>,
}

impl IsoFrame {
    /// Pairs `s ↔ t` under the bijection; records new pairs on the trail.
    /// On `false` the caller undoes to its mark.
    fn pair_terms(&mut self, s: &Term, t: &Term) -> bool {
        match (s, t) {
            (Term::Const(c), Term::Const(d)) => c == d,
            (Term::Var(a), Term::Var(b)) => match (self.fwd.get(a), self.bwd.get(b)) {
                (Some(b0), _) => b0 == b,
                (None, Some(_)) => false, // b already paired with another var
                (None, None) => {
                    self.fwd.insert(*a, *b);
                    self.bwd.insert(*b, *a);
                    self.trail.push(*a);
                    true
                }
            },
            _ => false,
        }
    }

    fn undo_to(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let a = self.trail.pop().expect("trail underflow");
            if let Some(b) = self.fwd.remove(&a) {
                self.bwd.remove(&b);
            }
        }
    }

    /// Matches `src[depth..]` injectively onto unused `dst` atoms.
    fn match_atoms(&mut self, src: &[Atom], dst: &[Atom], depth: usize) -> bool {
        let Some(atom) = src.get(depth) else {
            return true;
        };
        // Linear candidate scan with a key filter: iso targets are the
        // same (small) size as the source, so a bucket map would cost
        // more than it saves.
        for j in 0..dst.len() {
            if self.used[j] || dst[j].key() != atom.key() {
                continue;
            }
            let mark = self.trail.len();
            if atom.args.iter().zip(dst[j].args.iter()).all(|(s, t)| self.pair_terms(s, t)) {
                self.used[j] = true;
                if self.match_atoms(src, dst, depth + 1) {
                    return true;
                }
                self.used[j] = false;
            }
            self.undo_to(mark);
        }
        false
    }
}

/// Checks that `map` really is an isomorphism witness from `q1` onto `q2`:
/// total on `q1`'s variables, injective, image inside `q2`'s variables, and
/// applying it carries `q1`'s head onto `q2`'s head position by position
/// and `q1`'s body onto `q2`'s body as a multiset. The certificate-replay
/// counterpart of [`find_isomorphism`] — together with the size check this
/// implies the map is a genuine bijection between the variable sets.
pub fn is_isomorphism(q1: &CqQuery, q2: &CqQuery, map: &HashMap<Var, Var>) -> bool {
    let vars1 = q1.all_vars();
    if map.len() != vars1.len() || vars1.iter().any(|v| !map.contains_key(v)) {
        return false;
    }
    let image: std::collections::HashSet<Var> = map.values().copied().collect();
    let vars2: std::collections::HashSet<Var> = q2.all_vars().into_iter().collect();
    if image.len() != map.len() || image != vars2 {
        return false;
    }
    let s =
        crate::subst::Subst::from_pairs(map.iter().map(|(v, w)| (*v, crate::term::Term::Var(*w))));
    let mapped = q1.apply(&s);
    if mapped.head != q2.head || mapped.body.len() != q2.body.len() {
        return false;
    }
    // Multiset equality of the bodies.
    let mut remaining: Vec<&Atom> = q2.body.iter().collect();
    for a in &mapped.body {
        match remaining.iter().position(|b| *b == a) {
            Some(i) => {
                remaining.swap_remove(i);
            }
            None => return false,
        }
    }
    true
}

/// The canonical representation `Q_c` of `Q`: all duplicate body atoms
/// removed (first occurrences kept, in order). See §2.3 of the paper.
pub fn canonical_representation(q: &CqQuery) -> CqQuery {
    let mut seen = std::collections::HashSet::new();
    let body: Vec<Atom> = q.body.iter().filter(|a| seen.insert((*a).clone())).cloned().collect();
    CqQuery { name: q.name, head: q.head.clone(), body }
}

/// Removes duplicates only of atoms whose predicate satisfies `is_set`.
/// This is the normalization of Theorem 4.2: under bag semantics, duplicate
/// subgoals may be dropped exactly when their relations are set-valued on
/// every instance of the schema.
pub fn dedup_set_valued(q: &CqQuery, is_set: impl Fn(crate::atom::Predicate) -> bool) -> CqQuery {
    let mut seen = std::collections::HashSet::new();
    let body: Vec<Atom> = q
        .body
        .iter()
        .filter(|a| if is_set(a.pred) { seen.insert((*a).clone()) } else { true })
        .cloned()
        .collect();
    CqQuery { name: q.name, head: q.head.clone(), body }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atom::Predicate;
    use crate::parser::parse_query;

    fn q(s: &str) -> CqQuery {
        parse_query(s).unwrap()
    }

    #[test]
    fn renamed_queries_are_isomorphic() {
        let a = q("q(X) :- p(X,Y), s(Y,Z)");
        let b = q("q(A) :- p(A,B), s(B,C)");
        assert!(are_isomorphic(&a, &b));
        assert!(are_isomorphic(&b, &a));
    }

    #[test]
    fn atom_order_does_not_matter() {
        let a = q("q(X) :- p(X,Y), s(Y,Z)");
        let b = q("q(X) :- s(Y,Z), p(X,Y)");
        assert!(are_isomorphic(&a, &b));
    }

    #[test]
    fn duplicate_counts_matter() {
        // Bag equivalence distinguishes duplicate subgoals (Thm 2.1(1)).
        let a = q("q(X) :- p(X,Y)");
        let b = q("q(X) :- p(X,Y), p(X,Y)");
        assert!(!are_isomorphic(&a, &b));
    }

    #[test]
    fn collapse_is_not_isomorphism() {
        let a = q("q(X) :- p(X,Y), p(Y,X)");
        let b = q("q(X) :- p(X,X), p(X,X)");
        assert!(!are_isomorphic(&a, &b));
    }

    #[test]
    fn head_must_correspond() {
        let a = q("q(X) :- p(X,Y)");
        let b = q("q(Y) :- p(X,Y)");
        // In b, the head variable is the second argument of p: no bijection
        // can carry a's head onto b's head while matching bodies.
        assert!(!are_isomorphic(&a, &b));
    }

    #[test]
    fn constants_must_agree() {
        let a = q("q(X) :- p(X, 3)");
        let b = q("q(X) :- p(X, 4)");
        assert!(!are_isomorphic(&a, &b));
        let c = q("q(A) :- p(A, 3)");
        assert!(are_isomorphic(&a, &c));
    }

    #[test]
    fn canonical_representation_dedups() {
        let a = q("q(X) :- p(X,Y), p(X,Y), s(X)");
        let c = canonical_representation(&a);
        assert_eq!(c.body.len(), 2);
        // And the canonical representations of a and its dedup are iso.
        assert!(are_isomorphic(&c, &q("q(X) :- p(X,Y), s(X)")));
    }

    #[test]
    fn dedup_set_valued_is_selective() {
        // Example 4.9 flavour: duplicates of the set-valued s may go,
        // duplicates of the bag-valued r must stay.
        let a = q("q(X) :- s(X,Z), s(X,Z), r(X), r(X)");
        let s_pred = Predicate::new("s");
        let d = dedup_set_valued(&a, |p| p == s_pred);
        assert_eq!(d.body.len(), 3);
        assert_eq!(d.count_pred(Predicate::new("r")), 2);
        assert_eq!(d.count_pred(s_pred), 1);
    }

    #[test]
    fn find_isomorphism_returns_total_bijection() {
        let a = q("q(X) :- p(X,Y), s(Y,Z)");
        let b = q("q(A) :- s(B,C), p(A,B)");
        let m = find_isomorphism(&a, &b).expect("isomorphic");
        // Total on a's variables, image is exactly b's variables.
        let image: std::collections::HashSet<_> = m.values().copied().collect();
        assert_eq!(m.len(), a.all_vars().len());
        assert_eq!(image, b.all_vars().into_iter().collect());
        // The map really carries a onto b.
        let s = crate::subst::Subst::from_pairs(m.iter().map(|(v, w)| (*v, Term::Var(*w))));
        assert!(are_isomorphic(&a.apply(&s), &b));
        assert!(find_isomorphism(&a, &q("q(X) :- p(X,Y), p(Y,Z)")).is_none());
    }

    #[test]
    fn bijection_search_finds_renamings_only() {
        let a = q("q(X) :- p(X,Y), s(Y,Z)");
        let b = q("q(A) :- s(B,C), p(A,B)");
        let m = find_isomorphism(&a, &b).expect("isomorphic");
        assert_eq!(m.get(&Var::new("X")), Some(&Var::new("A")));
        assert_eq!(m.get(&Var::new("Y")), Some(&Var::new("B")));
        // Collapsing map is not a bijection.
        let c = q("q(X) :- p(X,X), s(X,X)");
        assert!(find_isomorphism(&a, &c).is_none());
    }

    #[test]
    fn bijection_search_walks_the_body_in_order() {
        // Both bodies have a non-trivial automorphism, so two bijections
        // exist; the search pairs q1's atoms, in body order, with the first
        // fitting target atom and returns X→A, Y→B, not X→B, Y→A.
        let c = q("q() :- e(X,Y), e(Y,X), f(X), f(Y)");
        let b = q("q() :- e(A,B), e(B,A), f(A), f(B)");
        let m = find_isomorphism(&c, &b).expect("isomorphic");
        assert_eq!(m.get(&Var::new("X")), Some(&Var::new("A")));
        assert_eq!(m.get(&Var::new("Y")), Some(&Var::new("B")));
        // Reordering the target's atoms moves the first fit.
        let b_swapped = q("q() :- e(B,A), e(A,B), f(A), f(B)");
        let m = find_isomorphism(&c, &b_swapped).expect("isomorphic");
        assert_eq!(m.get(&Var::new("X")), Some(&Var::new("B")));
        assert_eq!(m.get(&Var::new("Y")), Some(&Var::new("A")));
    }

    #[test]
    fn isomorphism_witness_replays() {
        let a = q("q(X) :- p(X,Y), s(Y,Z)");
        let b = q("q(A) :- s(B,C), p(A,B)");
        let m = find_isomorphism(&a, &b).unwrap();
        assert!(is_isomorphism(&a, &b, &m));
        // Swapping two images breaks the witness.
        let mut bad = m.clone();
        let keys: Vec<Var> = bad.keys().copied().collect();
        let (v0, v1) = (keys[0], keys[1]);
        let (w0, w1) = (bad[&v0], bad[&v1]);
        bad.insert(v0, w1);
        bad.insert(v1, w0);
        assert!(!is_isomorphism(&a, &b, &bad));
        // A partial map is rejected outright.
        let mut partial = m;
        let some_key = *partial.keys().next().unwrap();
        partial.remove(&some_key);
        assert!(!is_isomorphism(&a, &b, &partial));
    }

    #[test]
    fn isomorphism_is_an_equivalence_on_samples() {
        let qs = [
            q("q(X) :- p(X,Y), s(Y,Z)"),
            q("q(A) :- s(B,C), p(A,B)"),
            q("q(X) :- p(X,Y), s(Y,Z), s(Y,Z)"),
        ];
        // reflexive
        for x in &qs {
            assert!(are_isomorphic(x, x));
        }
        // symmetric on the pair that is iso
        assert!(are_isomorphic(&qs[0], &qs[1]) && are_isomorphic(&qs[1], &qs[0]));
        // qs[2] differs from both
        assert!(!are_isomorphic(&qs[0], &qs[2]));
    }
}
