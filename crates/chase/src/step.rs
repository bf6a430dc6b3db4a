//! Individual chase steps (§2.4 of the paper).
//!
//! * A **tgd step** `Q ⇒_σ Q'` applies when some homomorphism `h` from the
//!   premise into the body cannot be extended to the conclusion; it rewrites
//!   `Q` into `Q'(X̄) :- ξ(X̄, Ȳ) ∧ ψ(h(Ū), V̄)` with the existential
//!   variables `V̄` fresh.
//! * An **egd step** applies when some `h` from the premise into the body
//!   has `h(U1) ≠ h(U2)` with at least one side a variable; it replaces that
//!   variable by the other term *everywhere* in the query. Equating two
//!   distinct constants makes the query unsatisfiable under Σ (chase
//!   failure).

use eqsql_cq::matcher::reference;
use eqsql_cq::{CqQuery, Predicate, Subst, Term, Var, VarSupply};
use eqsql_deps::{Dependency, Egd, Tgd};
use std::collections::HashSet;

/// How duplicate body atoms are treated after an egd step.
///
/// * Set semantics: a query body is a set — drop all duplicates.
/// * Bag-set semantics: all stored relations are sets by definition, so
///   duplicates may always be dropped (Theorem 4.3(2)).
/// * Bag semantics: duplicates of a subgoal may be dropped **only** when
///   its relation is set-valued on every instance (Theorem 4.1(2)).
#[derive(Clone)]
pub enum DedupPolicy {
    /// Drop all duplicate atoms.
    All,
    /// Drop duplicates only over the given set-valued relations.
    SetValuedOnly(HashSet<Predicate>),
    /// Never drop duplicates.
    None,
}

impl DedupPolicy {
    /// Applies the policy to a query body.
    pub fn apply(&self, q: &CqQuery) -> CqQuery {
        match self {
            DedupPolicy::All => eqsql_cq::iso::canonical_representation(q),
            DedupPolicy::None => q.clone(),
            DedupPolicy::SetValuedOnly(set) => {
                eqsql_cq::iso::dedup_set_valued(q, |p| set.contains(&p))
            }
        }
    }

    /// Does the policy drop duplicate atoms of this predicate?
    pub fn dedups(&self, p: Predicate) -> bool {
        match self {
            DedupPolicy::All => true,
            DedupPolicy::None => false,
            DedupPolicy::SetValuedOnly(set) => set.contains(&p),
        }
    }
}

/// Renames a dependency's variables apart from `avoid`, drawing fresh names
/// from `supply` (the paper's "assume w.l.o.g. that Q has none of the
/// variables of σ").
pub fn rename_dep_apart(
    dep: &Dependency,
    avoid: &HashSet<Var>,
    supply: &mut VarSupply,
) -> Dependency {
    rename_dep_apart_with(dep, |v| avoid.contains(&v), supply)
}

/// [`rename_dep_apart`] against a membership predicate instead of a
/// materialized set — the incremental engine answers "is this variable
/// current?" straight from its index, never building the set.
pub fn rename_dep_apart_with(
    dep: &Dependency,
    avoid: impl Fn(Var) -> bool,
    supply: &mut VarSupply,
) -> Dependency {
    rename_dep_apart_mapped(dep, avoid, supply).0
}

/// [`rename_dep_apart_with`], also returning the renaming applied — the
/// engine's matcher plans search with the dependency's *original*
/// variables (plans are renaming-invariant) and use the map to translate
/// a found homomorphism into the renamed namespace the assignment-fixing
/// admission test expects.
pub fn rename_dep_apart_mapped(
    dep: &Dependency,
    avoid: impl Fn(Var) -> bool,
    supply: &mut VarSupply,
) -> (Dependency, Subst) {
    let mut s = Subst::new();
    for v in dep.all_vars() {
        if avoid(v) {
            s.set(v, Term::Var(supply.fresh(v.name())));
        }
    }
    let renamed = match dep {
        Dependency::Tgd(t) => {
            Dependency::Tgd(Tgd { lhs: s.apply_atoms(&t.lhs), rhs: s.apply_atoms(&t.rhs) })
        }
        Dependency::Egd(e) => Dependency::Egd(Egd {
            lhs: s.apply_atoms(&e.lhs),
            eq: (s.apply_term(&e.eq.0), s.apply_term(&e.eq.1)),
        }),
    };
    (renamed, s)
}

/// All homomorphisms from the tgd's premise into the query body that do
/// **not** extend to the conclusion — i.e. the `h`s making the chase of `Q`
/// with `σ` applicable. The tgd must already be renamed apart from `q`.
///
/// Deliberately runs on the naive [`mod@reference`] backtracker: this is the
/// oracle layer consumed by [`crate::reference`], kept independent of the
/// planned matcher it differentially tests. The enumeration cap is
/// surfaced as a panic rather than a silent truncation — the reference
/// driver's verdicts must never rest on a partial homomorphism set.
pub fn applicable_tgd_homs(q: &CqQuery, tgd: &Tgd) -> Vec<Subst> {
    let (homs, truncated) = reference::enumerate_homomorphisms(
        &tgd.lhs,
        &q.body,
        &Subst::new(),
        eqsql_cq::hom::MAX_HOMOMORPHISMS,
    );
    assert!(!truncated, "reference premise enumeration truncated at MAX_HOMOMORPHISMS");
    homs.into_iter()
        .filter(|h| reference::extend_homomorphism(&tgd.rhs, &q.body, h).is_none())
        .collect()
}

/// Applies a tgd chase step with homomorphism `h` (which must come from
/// [`applicable_tgd_homs`]). Returns the new query and the step's
/// assignment: `h` extended by the fresh existentials (its image of the
/// conclusion is the atoms added).
pub fn apply_tgd_step(
    q: &CqQuery,
    tgd: &Tgd,
    h: &Subst,
    supply: &mut VarSupply,
) -> (CqQuery, Subst) {
    let mut s = h.clone();
    for z in tgd.existential_vars() {
        s.set(z, Term::Var(supply.fresh(z.name())));
    }
    let mut out = q.clone();
    out.body.extend(s.apply_atoms(&tgd.rhs));
    (out, s)
}

/// Outcome of attempting an egd step.
#[derive(Clone, Debug, PartialEq)]
pub enum EgdOutcome {
    /// No homomorphism violates the equality: the egd is satisfied.
    NotApplicable,
    /// The step replaced variable `from` by `to` throughout the query.
    Applied {
        /// The rewritten query.
        query: CqQuery,
        /// The replaced variable.
        from: Var,
        /// Its replacement.
        to: Term,
    },
    /// The egd equated two distinct constants: `Q` is unsatisfiable under Σ.
    Failed,
}

/// Classifies the first violating homomorphism of an egd: the replacement
/// to perform, or `None` (satisfied), or `Err(())` on a constant-constant
/// violation (chase failure). Variable-variable collisions are resolved
/// deterministically (the lexicographically larger name is replaced), so
/// chase runs are reproducible.
pub(crate) fn classify_egd_violation(egd: &Egd, h: &Subst) -> Option<Result<(Var, Term), ()>> {
    classify_egd_images(h.apply_term(&egd.eq.0), h.apply_term(&egd.eq.1))
}

/// [`classify_egd_violation`] on the already-computed images of the
/// equated terms (the engine reads them straight off a matcher frame).
pub(crate) fn classify_egd_images(a: Term, b: Term) -> Option<Result<(Var, Term), ()>> {
    if a == b {
        return None;
    }
    Some(match (a, b) {
        (Term::Const(_), Term::Const(_)) => Err(()),
        (Term::Var(v), t @ Term::Const(_)) => Ok((v, t)),
        (t @ Term::Const(_), Term::Var(v)) => Ok((v, t)),
        (Term::Var(v), Term::Var(w)) => {
            if v.name() > w.name() {
                Ok((v, Term::Var(w)))
            } else {
                Ok((w, Term::Var(v)))
            }
        }
    })
}

/// Finds one violating homomorphism for the egd and applies the step.
///
/// The search short-circuits at the **first** violating homomorphism — the
/// backtracking enumeration is pruned by the violation test itself, so a
/// satisfied egd costs one full (fruitless) search but an applicable one
/// stops as soon as a violation is reachable, instead of materializing
/// every homomorphism of the premise first.
pub fn apply_egd_step(q: &CqQuery, egd: &Egd) -> EgdOutcome {
    let mut verdict: Option<Result<(Var, Term), ()>> = None;
    reference::find_homomorphism_where(&egd.lhs, &q.body, &Subst::new(), &mut |h| {
        verdict = classify_egd_violation(egd, h);
        verdict.is_some()
    });
    match verdict {
        None => EgdOutcome::NotApplicable,
        Some(Err(())) => EgdOutcome::Failed,
        Some(Ok((from, to))) => {
            let s = Subst::from_pairs([(from, to)]);
            EgdOutcome::Applied { query: q.apply(&s), from, to }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_cq::parse_query;
    use eqsql_deps::parse_dependency;

    fn tgd(s: &str) -> Tgd {
        parse_dependency(s).unwrap().as_tgd().unwrap().clone()
    }
    fn egd(s: &str) -> Egd {
        parse_dependency(s).unwrap().as_egd().unwrap().clone()
    }

    #[test]
    fn tgd_applicability() {
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        let t = tgd("p(A,B) -> t(A,B,W)");
        let homs = applicable_tgd_homs(&q, &t);
        assert_eq!(homs.len(), 1);
        // Once the conclusion is present, no applicable hom remains.
        let q2 = parse_query("q(X) :- p(X,Y), t(X,Y,V)").unwrap();
        assert!(applicable_tgd_homs(&q2, &t).is_empty());
    }

    #[test]
    fn tgd_step_adds_fresh_existentials() {
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        let t = tgd("p(A,B) -> t(A,B,W)");
        let mut supply = VarSupply::avoiding([&q]);
        let homs = applicable_tgd_homs(&q, &t);
        let (q2, step) = apply_tgd_step(&q, &t, &homs[0], &mut supply);
        assert_eq!(q2.body.len(), 2);
        assert_eq!(step.apply_atoms(&t.rhs), q2.body[1..]);
        let w = step.apply_term(&Term::var("W")).as_var().unwrap();
        assert_ne!(w, Var::new("W")); // fresh, not the tgd's own name
        assert_ne!(w, Var::new("Y"));
    }

    #[test]
    fn two_applications_use_distinct_existentials() {
        let q = parse_query("q(X) :- p(X,Y), p(Y,X)").unwrap();
        let t = tgd("p(A,B) -> s(A,Z)");
        let mut supply = VarSupply::avoiding([&q]);
        let homs = applicable_tgd_homs(&q, &t);
        assert_eq!(homs.len(), 2);
        let (q2, s1) = apply_tgd_step(&q, &t, &homs[0], &mut supply);
        let (q3, s2) = apply_tgd_step(&q2, &t, &homs[1], &mut supply);
        assert_eq!(q3.body.len(), 4);
        let z = Term::var("Z");
        assert_ne!(s1.apply_term(&z), s2.apply_term(&z));
    }

    #[test]
    fn egd_step_replaces_variable() {
        let q = parse_query("q(X) :- s(X,A), s(X,B), r(A)").unwrap();
        let e = egd("s(U,V) & s(U,W) -> V = W");
        match apply_egd_step(&q, &e) {
            EgdOutcome::Applied { query, .. } => {
                // A and B collapse; r's argument follows.
                assert_eq!(query.body.len(), 3);
                let vars: HashSet<Var> = query.body_vars().into_iter().collect();
                assert_eq!(vars.len(), 2);
            }
            other => panic!("expected Applied, got {other:?}"),
        }
    }

    #[test]
    fn egd_prefers_constants() {
        let q = parse_query("q(X) :- s(X,A), s(X,3)").unwrap();
        let e = egd("s(U,V) & s(U,W) -> V = W");
        match apply_egd_step(&q, &e) {
            EgdOutcome::Applied { from, to, query } => {
                assert_eq!(from, Var::new("A"));
                assert_eq!(to, Term::int(3));
                assert_eq!(query.to_string(), "q(X) :- s(X, 3), s(X, 3)");
            }
            other => panic!("expected Applied, got {other:?}"),
        }
    }

    #[test]
    fn egd_failure_on_distinct_constants() {
        let q = parse_query("q(X) :- s(X,3), s(X,4)").unwrap();
        let e = egd("s(U,V) & s(U,W) -> V = W");
        assert_eq!(apply_egd_step(&q, &e), EgdOutcome::Failed);
    }

    #[test]
    fn egd_not_applicable_when_satisfied() {
        let q = parse_query("q(X) :- s(X,A)").unwrap();
        let e = egd("s(U,V) & s(U,W) -> V = W");
        assert_eq!(apply_egd_step(&q, &e), EgdOutcome::NotApplicable);
    }

    #[test]
    fn rename_apart_leaves_disjoint_vars() {
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        let d = parse_dependency("p(X,Y) -> t(X,Y,W)").unwrap();
        let avoid: HashSet<Var> = q.all_vars().into_iter().collect();
        let mut supply = VarSupply::avoiding([&q]);
        let r = rename_dep_apart(&d, &avoid, &mut supply);
        let rvars = r.all_vars();
        assert!(rvars.is_disjoint(&avoid));
        // W was not in q, so it may stay.
        assert!(rvars.contains(&Var::new("W")));
    }

    #[test]
    fn dedup_policy_variants() {
        let q = parse_query("q(X) :- s(X,Z), s(X,Z), u(X), u(X)").unwrap();
        assert_eq!(DedupPolicy::All.apply(&q).body.len(), 2);
        assert_eq!(DedupPolicy::None.apply(&q).body.len(), 4);
        let set: HashSet<Predicate> = [Predicate::new("s")].into_iter().collect();
        let d = DedupPolicy::SetValuedOnly(set).apply(&q);
        assert_eq!(d.body.len(), 3);
    }
}
