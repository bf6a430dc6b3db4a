//! Constructing witness databases for non-equivalence.
//!
//! The paper's impossibility arguments are all constructive; this module
//! packages them as a search for a **separating database**: given queries
//! `Q1 ≢_{Σ,X} Q2`, find a database `D ⊨ Σ` (set-valued where the
//! semantics or schema requires) on which the answers differ.
//!
//! Candidate constructions, in order:
//!
//! 1. canonical databases of the set-chased queries, `Q1`'s then `Q2`'s
//!    (the generic witness — e.g. Example 4.7 uses the canonical database
//!    of the chased test query, which is the chased unsound-step result);
//! 2. **m-copy amplification** (Lemma D.1): multiply the tuples of one
//!    bag-valued relation `m` times; with `m` past the lemma's bound the
//!    subgoal-count difference dominates every other effect (only
//!    meaningful — and only attempted — under bag semantics);
//! 3. **doubled** canonical databases of the set-chased queries (each
//!    frozen twice, sharing the head), repaired by the instance chase;
//! 4. canonical databases of the *unchased* queries, repaired by the
//!    instance chase.
//!
//! Families 3 and 4 try each repair set-flattened, then raw. Candidates
//! are built lazily: each is tested as soon as it exists, and the first
//! that separates wins, so a search that succeeds early never pays for
//! the later chases.
//!
//! The search is sound (every returned database passes
//! [`check_separating`]: it satisfies Σ and separates the queries) but not
//! complete; `None` means "no witness found among the candidates", not a
//! proof of equivalence.

use eqsql_chase::instance::chase_database;
use eqsql_chase::ChaseConfig;
use eqsql_cq::{CqQuery, Predicate};
use eqsql_deps::satisfaction::db_satisfies_all;
use eqsql_deps::DependencySet;
use eqsql_relalg::eval::{eval, Semantics};
use eqsql_relalg::{canonical_database, Database, Schema};

/// Lemma D.1's amplification: the canonical database of (the canonical
/// representation of) `q`, with every tuple of `rel` given multiplicity
/// `m`.
pub fn lemma_d1_database(q: &CqQuery, rel: Predicate, m: u64) -> Database {
    let frozen = canonical_database(&eqsql_cq::canonical_representation(q), 0);
    let mut db = Database::new();
    for (p, r) in frozen.db.iter() {
        let target = db.get_or_create(p, r.arity());
        for (t, _) in r.iter() {
            target.insert(t.clone(), if p == rel { m } else { 1 });
        }
    }
    db
}

/// The explicit bound `m*` from the proof of Lemma D.1, for queries `q1`
/// (with `n1` subgoals on `rel`) and `q2` (with `n2 < n1`): past this
/// multiplicity, `q1`'s answer bag must outgrow `q2`'s.
pub fn lemma_d1_m_star(q1: &CqQuery, q2: &CqQuery, rel: Predicate) -> u64 {
    let n1 = q1.count_pred(rel) as u64;
    let n2 = q2.count_pred(rel) as u64;
    let n3 = q2.body.len() as u64;
    let n4 = (q1.body.len() as u64).saturating_sub(n1).max(1);
    if n3 > n2 {
        1 + n1.pow(2 * n2 as u32) * n4.pow((n3 - n2) as u32)
    } else {
        1 + n1.pow(2 * n2 as u32)
    }
}

/// Does `db` separate `q1` from `q2` under `sem`? It must satisfy Σ, be
/// set-valued where the semantics (or, under bag semantics, the schema)
/// requires, and give the two queries different answers. `Err` names the
/// first requirement that fails.
pub fn check_separating(
    db: &Database,
    sem: Semantics,
    q1: &CqQuery,
    q2: &CqQuery,
    sigma: &DependencySet,
    schema: &Schema,
) -> Result<(), &'static str> {
    if !db_satisfies_all(db, sigma) {
        return Err("witness database does not satisfy Σ");
    }
    let admissible = match sem {
        Semantics::Set | Semantics::BagSet => db.is_set_valued(),
        Semantics::Bag => db.are_set_valued(&schema.set_valued_relations()),
    };
    if !admissible {
        return Err("witness database violates the schema's set-valuedness flags");
    }
    match (eval(q1, db, sem), eval(q2, db, sem)) {
        (Ok(a), Ok(b)) if a != b => Ok(()),
        (Ok(_), Ok(_)) => Err("queries agree on the witness database"),
        _ => Err("queries could not be evaluated on the witness database"),
    }
}

/// Searches for a database `D ⊨ Σ` separating `q1` from `q2` under `sem`.
pub fn separating_database(
    sem: Semantics,
    q1: &CqQuery,
    q2: &CqQuery,
    sigma: &DependencySet,
    schema: &Schema,
    config: &ChaseConfig,
) -> Option<Database> {
    separating_database_via(&crate::sigma_equiv::DirectChaser, sem, q1, q2, sigma, schema, config)
}

/// [`separating_database`] with the *query* chases (families 1–3) routed
/// through `chaser`, so a memoizing chaser — the `eqsql_service` cache —
/// can serve them. Under set semantics the decision that preceded this
/// search has just chased both queries and the probes hit; under bag and
/// bag-set semantics the decision chased under a different context, so
/// these Set chases can miss. `q2` is chased only if `q1`'s first-family
/// candidate fails. The instance-repair chases of families 3–4 are
/// database-level and not cacheable through this interface.
pub fn separating_database_via<C: crate::sigma_equiv::SoundChaser + ?Sized>(
    chaser: &C,
    sem: Semantics,
    q1: &CqQuery,
    q2: &CqQuery,
    sigma: &DependencySet,
    schema: &Schema,
    config: &ChaseConfig,
) -> Option<Database> {
    // The search runs after the negative verdict and can be the longest
    // phase of a decision; abort it (returning "no witness") as soon as
    // the chaser's guard signals. The query chases poll the guard inside
    // the engine, the instance repairs inside the instance chase, and the
    // candidate test here.
    let guard = chaser.run_guard();
    let separates = |db: &Database| {
        guard.check(0).is_ok() && check_separating(db, sem, q1, q2, sigma, schema).is_ok()
    };

    // (1) Canonical databases of the chased queries. The set-semantics
    // chase is the right one regardless of `sem`: it produces the most
    // saturated canonical databases, and every candidate is re-verified
    // against Σ and the semantics' set-valuedness rules before use.
    let mut chased: Vec<CqQuery> = Vec::new();
    for q in [q1, q2] {
        if let Ok(c) = chaser.sound_chase(Semantics::Set, q, sigma, schema, config) {
            if !c.failed {
                let db = canonical_database(&c.query, 0).db;
                if separates(&db) {
                    return Some(db);
                }
                chased.push(c.query);
            }
        }
    }

    // (2) Lemma D.1 amplifications on every bag-valued relation used.
    if sem == Semantics::Bag {
        for base in &chased {
            for rel in base.predicates() {
                if schema.is_set_valued(rel.0) {
                    continue;
                }
                let m_star = lemma_d1_m_star(q1, q2, rel.0).min(64);
                for m in [2u64, 3, m_star.max(2)] {
                    let db = lemma_d1_database(base, rel.0, m);
                    if separates(&db) {
                        return Some(db);
                    }
                }
            }
        }
    }

    // (3) Doubled canonical databases: freeze the chased query twice,
    //     sharing the head variables. This realizes "two satisfying
    //     assignments per head tuple" — the shape of the paper's bag-set
    //     counterexamples (Example 4.1's D with two u-tuples; the
    //     canonical database of the chased test query in Example 4.7) —
    //     unless Σ forces the copies to collapse, in which case the
    //     queries really are equivalent along this axis.
    // (4) Canonical databases of the raw queries.
    // Each is repaired by the instance chase. Null merges during a repair
    // can leave multiplicity-2 tuples, so the set-valued flattening (the
    // candidate the set-based semantics need) is tried before the raw one.
    let doubled = chased.iter().map(doubled_database);
    let raw = [q1, q2]
        .into_iter()
        .map(|q| canonical_database(&eqsql_cq::canonical_representation(q), 1000).db);
    doubled
        .chain(raw)
        .filter_map(|db| match chase_database(&db, sigma, config, &guard) {
            Ok(r) if !r.failed => Some(r.db),
            _ => None,
        })
        .flat_map(|db| [db.to_set(), db])
        .find(|db| separates(db))
}

/// Freezes `q` twice — the second copy with all non-head variables renamed
/// fresh — into one canonical database. Every head tuple then has (at
/// least) two satisfying assignments, which is what separates queries with
/// different subgoal structure under bag-set semantics.
fn doubled_database(q: &CqQuery) -> Database {
    use eqsql_cq::{Subst, Term, VarSupply};
    let head_vars: std::collections::HashSet<_> = q.head_vars().into_iter().collect();
    let mut supply = VarSupply::avoiding([q]);
    let mut s = Subst::new();
    for v in q.all_vars() {
        if !head_vars.contains(&v) {
            s.set(v, Term::Var(supply.fresh(v.name())));
        }
    }
    let copy = q.apply(&s);
    let mut merged = q.clone();
    merged.body.extend(copy.body);
    canonical_database(&eqsql_cq::canonical_representation(&merged), 500).db
}

/// Amplify one relation of an existing database by `m` (testing helper
/// mirroring the Example D.1/D.2 constructions).
pub fn amplify(db: &Database, rel: Predicate, m: u64) -> Database {
    let mut out = Database::new();
    for (p, r) in db.iter() {
        let target = out.get_or_create(p, r.arity());
        for (t, mult) in r.iter() {
            target.insert(t.clone(), if p == rel { mult * m } else { mult });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_cq::parse_query;
    use eqsql_deps::parse_dependencies;
    use eqsql_relalg::eval::eval_bag;
    use eqsql_relalg::Tuple;

    fn cfg() -> ChaseConfig {
        ChaseConfig::default()
    }

    #[test]
    fn example_d2_amplification_separates_q7_q8() {
        // Q7(X) :- p(X,Y), r(X), r(X) vs Q8(X) :- p(X,Y), r(X): with m
        // copies of R's tuple, Q7 yields m², Q8 yields m.
        let q7 = parse_query("q7(X) :- p(X,Y), r(X), r(X)").unwrap();
        let q8 = parse_query("q8(X) :- p(X,Y), r(X)").unwrap();
        let r = Predicate::new("r");
        let m_star = lemma_d1_m_star(&q7, &q8, r);
        assert!(m_star > 4, "paper computes the bound 4m < m² for m > 4");
        let db = lemma_d1_database(&q8, r, 5);
        let a7 = eval_bag(&q7, &db);
        let a8 = eval_bag(&q8, &db);
        let t = a8.core_set().next().unwrap().clone();
        assert_eq!(a7.multiplicity(&t), 25);
        assert_eq!(a8.multiplicity(&t), 5);
    }

    #[test]
    fn separating_database_for_example_4_1() {
        // Q1 ≢_{Σ,B} Q4: the search must produce a witness.
        let sigma = parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
             p(X,Y) -> t(X,Y,W).\n\
             p(X,Y) -> r(X).\n\
             p(X,Y) -> u(X,Z) & t(X,Y,W).\n\
             s(X,Y) & s(X,Z) -> Y = Z.\n\
             t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
        )
        .unwrap();
        let mut schema = Schema::all_bags(&[("p", 2), ("r", 1), ("s", 2), ("t", 3), ("u", 2)]);
        schema.mark_set_valued(Predicate::new("s"));
        schema.mark_set_valued(Predicate::new("t"));
        let q1 = parse_query("q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)").unwrap();
        let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
        let witness = separating_database(Semantics::Bag, &q1, &q4, &sigma, &schema, &cfg());
        let db = witness.expect("a separating database must exist");
        assert_eq!(check_separating(&db, Semantics::Bag, &q1, &q4, &sigma, &schema), Ok(()));
        // The same pair is separable under bag-set semantics too.
        let witness_bs = separating_database(Semantics::BagSet, &q1, &q4, &sigma, &schema, &cfg());
        assert!(witness_bs.is_some());
        // But NOT under set semantics (they are set-equivalent):
        // the search comes back empty-handed.
        assert!(separating_database(Semantics::Set, &q1, &q4, &sigma, &schema, &cfg()).is_none());
    }

    #[test]
    fn example_4_7_style_witness_from_chased_canonical_db() {
        // Q vs the unsound chase-step result Q'' (non-assignment-fixing σ4
        // with only the key of R): separable under BS via the canonical
        // database of the chased query.
        let sigma = parse_dependencies(
            "p(X,Y) -> r(X,Z) & s(Z,W) & s(X,T).\n\
             r(X,Y) & r(X,Z) -> Y = Z.",
        )
        .unwrap();
        let schema = Schema::all_bags(&[("p", 2), ("r", 2), ("s", 2)]);
        let q = parse_query("q(X) :- p(X,Y)").unwrap();
        let qpp = parse_query("qq(X) :- p(X,Y), r(X,Z), s(Z,W), s(X,T)").unwrap();
        let witness = separating_database(Semantics::BagSet, &q, &qpp, &sigma, &schema, &cfg());
        let db = witness.expect("Example 4.7's construction must find a witness");
        let a = eval(&q, &db, Semantics::BagSet).unwrap();
        let b = eval(&qpp, &db, Semantics::BagSet).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn no_witness_for_equivalent_queries() {
        let q1 = parse_query("q(X) :- p(X,Y)").unwrap();
        let q2 = parse_query("q(A) :- p(A,B)").unwrap();
        let schema = Schema::all_bags(&[("p", 2)]);
        assert!(separating_database(
            Semantics::Bag,
            &q1,
            &q2,
            &DependencySet::new(),
            &schema,
            &cfg()
        )
        .is_none());
    }

    #[test]
    fn bag_witnesses_amplify_the_first_relation_on_every_call() {
        // Amplifying any one of a–d separates this pair; both bag-semantics
        // witness searches must pick the same relation, the first in body
        // order, on every call in one process.
        let q1 = parse_query("q(X) :- a(X), a(X), b(X), b(X), c(X), c(X), d(X), d(X)").unwrap();
        let q2 = parse_query("q(X) :- a(X), b(X), c(X), d(X)").unwrap();
        let schema = Schema::all_bags(&[("a", 1), ("b", 1), ("c", 1), ("d", 1)]);
        let amplified = |db: &Database| -> Vec<Predicate> {
            db.iter().filter(|(_, r)| r.iter().any(|(_, m)| m > 1)).map(|(p, _)| p).collect()
        };
        let a = vec![Predicate::new("a")];
        for call in 0..40 {
            let lemma_d1 = separating_database(
                Semantics::Bag,
                &q1,
                &q2,
                &DependencySet::new(),
                &schema,
                &cfg(),
            )
            .expect("an amplification separates the pair");
            assert_eq!(amplified(&lemma_d1), a, "separating_database, call {call}");
            let bounded = crate::bag_containment::find_non_containment_witness(&q1, &q2, 8)
                .expect("an amplification separates the pair");
            assert_eq!(amplified(&bounded), a, "find_non_containment_witness, call {call}");
        }
    }

    #[test]
    fn amplify_multiplies_one_relation() {
        let mut db = Database::new();
        db.insert("r", Tuple::ints([1]), 2);
        db.insert("p", Tuple::ints([1]), 1);
        let a = amplify(&db, Predicate::new("r"), 3);
        assert_eq!(a.get_str("r").unwrap().multiplicity(&Tuple::ints([1])), 6);
        assert_eq!(a.get_str("p").unwrap().multiplicity(&Tuple::ints([1])), 1);
    }
}
