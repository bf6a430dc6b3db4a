//! Differential tests: both compiled matchers — the boxed
//! [`eqsql_cq::MatchPlan`] and the arena [`eqsql_cq::ArenaPlan`] the chase
//! engines search — against the naive backtracking oracle
//! ([`eqsql_cq::matcher::reference`]).
//!
//! Two contracts, each over randomized conjunctions:
//!
//! 1. **Hom sets agree modulo order** — plan-ordered trail search
//!    (reference-order and selectivity-optimized plans alike, boxed and
//!    arena) enumerates exactly the homomorphism set the naive
//!    backtracker does, seeds included.
//! 2. **First match agrees exactly** — wherever the engine requires the
//!    reference emission order (reference-order plans), the first
//!    homomorphism is bit-identical to the oracle's, with and without
//!    filter predicates.
//!
//! Plus the bijection search behind `find_isomorphism`: constructed
//! renamings must be found (and verified to carry q1 onto q2), mutations
//! must be rejected.

use eqsql_cq::matcher::{bucket_atoms, reference, MatchPlan, Seed, Target};
use eqsql_cq::{
    find_isomorphism, ArenaFrame, ArenaPlan, Atom, CqQuery, Subst, Term, TermArena, Var,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

const PREDS: &[(&str, usize)] = &[("p", 2), ("r", 1), ("s", 2), ("t", 3)];
const VARS: &[&str] = &["X", "Y", "Z", "U", "V", "W"];

fn random_term(rng: &mut StdRng, const_prob: f64) -> Term {
    if rng.gen_bool(const_prob) {
        Term::int(rng.gen_range(0..3i64))
    } else {
        Term::var(VARS[rng.gen_range(0..VARS.len())])
    }
}

fn random_conjunction(rng: &mut StdRng, atoms: usize, const_prob: f64) -> Vec<Atom> {
    (0..atoms)
        .map(|_| {
            let (name, arity) = PREDS[rng.gen_range(0..PREDS.len())];
            Atom::new(name, (0..arity).map(|_| random_term(rng, const_prob)).collect())
        })
        .collect()
}

/// Ground-ish target: constants only, small domain, so hom sets are
/// non-trivial but bounded.
fn random_target(rng: &mut StdRng, atoms: usize) -> Vec<Atom> {
    (0..atoms)
        .map(|_| {
            let (name, arity) = PREDS[rng.gen_range(0..PREDS.len())];
            Atom::new(name, (0..arity).map(|_| Term::int(rng.gen_range(0..4i64))).collect())
        })
        .collect()
}

fn random_seed(rng: &mut StdRng) -> Subst {
    let mut s = Subst::new();
    if rng.gen_bool(0.4) {
        s.set(Var::new(VARS[rng.gen_range(0..VARS.len())]), Term::int(rng.gen_range(0..4i64)));
    }
    if rng.gen_bool(0.2) {
        // An out-of-plan binding that must ride through to the output.
        s.set(Var::new("Q_out_of_plan"), Term::int(77));
    }
    s
}

fn hom_set(homs: &[Subst]) -> HashSet<Vec<(Var, Term)>> {
    homs.iter().map(Subst::sorted_pairs).collect()
}

fn search_all(plan: &MatchPlan, dst: &[Atom], seed: &Subst) -> Vec<Subst> {
    let buckets = bucket_atoms(dst);
    let mut out = Vec::new();
    let mut seen: HashSet<Vec<(Var, Term)>> = HashSet::new();
    plan.search(Target::new(dst, &buckets), &Seed::Subst(seed), &mut |m| {
        let h = m.to_subst();
        if seen.insert(h.sorted_pairs()) {
            out.push(h);
        }
        true
    });
    out
}

/// Loads `dst` into a fresh arena, rows in slot order (as the chase
/// engine's body index appends them).
fn load_arena(dst: &[Atom]) -> TermArena {
    let mut arena = TermArena::new();
    for a in dst {
        let t = arena.table_id(a.key());
        let ids: Vec<_> = a.args.iter().map(|arg| arena.intern(*arg)).collect();
        arena.push_row(t, &ids);
    }
    arena
}

/// Searches an arena plan with `seed` planted, handing each match to
/// `emit` as a `Subst` (the seed plus the plan's bindings — the boxed
/// `Match::to_subst` contract).
fn arena_search(
    plan: &ArenaPlan,
    arena: &mut TermArena,
    seed: &Subst,
    emit: &mut dyn FnMut(Subst) -> bool,
) {
    let mut frame = ArenaFrame::for_plan(plan);
    for (v, t) in seed.iter() {
        if let Some(s) = plan.slot(v) {
            let id = arena.intern(*t);
            frame.seed(s, id);
        }
    }
    let arena = &*arena;
    plan.search(arena, &mut frame, &mut |slots| {
        let mut h = seed.clone();
        plan.bind_subst(arena, slots, &mut h);
        emit(h)
    });
}

fn arena_search_all(plan: &ArenaPlan, arena: &mut TermArena, seed: &Subst) -> Vec<Subst> {
    let mut out = Vec::new();
    arena_search(plan, arena, seed, &mut |h| {
        out.push(h);
        true
    });
    out
}

#[test]
fn hom_sets_agree_modulo_order() {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    for round in 0..300 {
        let n_src = rng.gen_range(1..=4);
        let src = random_conjunction(&mut rng, n_src, 0.15);
        let n_dst = rng.gen_range(1..=8);
        let dst = random_target(&mut rng, n_dst);
        let seed = random_seed(&mut rng);
        let (oracle, truncated) = reference::enumerate_homomorphisms(&src, &dst, &seed, 1_000_000);
        assert!(!truncated, "round {round}: oracle truncated");
        let oracle_set = hom_set(&oracle);
        let by_ref_order = search_all(&MatchPlan::new(&src), &dst, &seed);
        assert_eq!(
            hom_set(&by_ref_order),
            oracle_set,
            "round {round}: reference-order plan diverged"
        );
        let seeded: Vec<Var> = seed.iter().map(|(v, _)| v).collect();
        let by_optimized = search_all(&MatchPlan::optimized(&src, &seeded), &dst, &seed);
        assert_eq!(hom_set(&by_optimized), oracle_set, "round {round}: optimized plan diverged");

        let mut arena = load_arena(&dst);
        let arena_plans = [
            ("new", ArenaPlan::new(&src, &mut arena)),
            ("optimized", ArenaPlan::optimized(&src, &seeded, &mut arena)),
            ("optimized_with_stats", ArenaPlan::optimized_with_stats(&src, &seeded, &mut arena)),
        ];
        for (name, plan) in &arena_plans {
            assert_eq!(
                hom_set(&arena_search_all(plan, &mut arena, &seed)),
                oracle_set,
                "round {round}: arena {name} plan diverged"
            );
        }
    }
}

#[test]
fn first_match_is_identical_in_reference_order() {
    let mut rng = StdRng::seed_from_u64(0xB0B);
    for round in 0..300 {
        let n_src = rng.gen_range(1..=4);
        let src = random_conjunction(&mut rng, n_src, 0.15);
        let n_dst = rng.gen_range(1..=8);
        let dst = random_target(&mut rng, n_dst);
        let seed = random_seed(&mut rng);
        let planned = MatchPlan::new(&src)
            .first_match(Target::new(&dst, &bucket_atoms(&dst)), &Seed::Subst(&seed));
        let oracle = reference::extend_homomorphism(&src, &dst, &seed);
        assert_eq!(planned, oracle, "round {round}: first match diverged");

        // With a filter predicate (the engine's applicability pruning):
        // accept only homs whose X-image is even.
        let pred = |h: &Subst| match h.get(Var::new("X")) {
            Some(Term::Const(eqsql_cq::Value::Int(i))) => i % 2 == 0,
            _ => true,
        };
        let mut planned_where: Option<Subst> = None;
        MatchPlan::new(&src).search(
            Target::new(&dst, &bucket_atoms(&dst)),
            &Seed::Subst(&seed),
            &mut |m| {
                let h = m.to_subst();
                if pred(&h) {
                    planned_where = Some(h);
                    false
                } else {
                    true
                }
            },
        );
        let oracle_where = reference::find_homomorphism_where(&src, &dst, &seed, &mut |h| pred(h));
        assert_eq!(planned_where, oracle_where, "round {round}: filtered first match diverged");

        // The arena plan the engine fires from, under the same contract.
        let mut arena = load_arena(&dst);
        let plan = ArenaPlan::new(&src, &mut arena);
        let mut arena_first: Option<Subst> = None;
        arena_search(&plan, &mut arena, &seed, &mut |h| {
            arena_first = Some(h);
            false
        });
        assert_eq!(arena_first, oracle, "round {round}: arena first match diverged");
        let mut arena_where: Option<Subst> = None;
        arena_search(&plan, &mut arena, &seed, &mut |h| {
            if pred(&h) {
                arena_where = Some(h);
                false
            } else {
                true
            }
        });
        assert_eq!(arena_where, oracle_where, "round {round}: arena filtered first match diverged");
    }
}

#[test]
fn bijection_search_finds_constructed_isomorphisms() {
    use rand::seq::SliceRandom;
    let mut rng = StdRng::seed_from_u64(0x150);
    for round in 0..200 {
        let n_body = rng.gen_range(1..=5);
        let body = random_conjunction(&mut rng, n_body, 0.1);
        let mut head_vars: Vec<Var> = {
            let mut vs: Vec<Var> = Vec::new();
            for a in &body {
                for v in a.vars() {
                    if !vs.contains(&v) {
                        vs.push(v);
                    }
                }
            }
            vs
        };
        head_vars.truncate(2);
        let q1 = CqQuery::new("q", head_vars.iter().map(|v| Term::Var(*v)).collect(), body.clone());
        // Rename bijectively and shuffle the body: must be found.
        let renaming = Subst::from_pairs(
            VARS.iter().enumerate().map(|(i, v)| (Var::new(v), Term::var(&format!("N{i}")))),
        );
        let mut shuffled = renaming.apply_atoms(&q1.body);
        shuffled.shuffle(&mut rng);
        let q2 =
            CqQuery::new("q", q1.head.iter().map(|t| renaming.apply_term(t)).collect(), shuffled);
        let m = find_isomorphism(&q1, &q2)
            .unwrap_or_else(|| panic!("round {round}: renamed copy not isomorphic"));
        // The witness really carries q1 onto q2.
        let as_subst = Subst::from_pairs(m.iter().map(|(v, w)| (*v, Term::Var(*w))));
        let image = q1.apply(&as_subst);
        assert!(
            eqsql_cq::are_isomorphic(&image, &q2),
            "round {round}: witness map does not carry q1 onto q2"
        );
        // A mutated copy (one atom's predicate swapped) must be rejected.
        if !q2.body.is_empty() {
            let mut broken = q2.clone();
            let j = rng.gen_range(0..broken.body.len());
            let old = broken.body[j].clone();
            broken.body[j] = Atom::new("zz", old.args.clone());
            assert!(
                find_isomorphism(&q1, &broken).is_none(),
                "round {round}: predicate-mutated copy accepted"
            );
        }
    }
}
