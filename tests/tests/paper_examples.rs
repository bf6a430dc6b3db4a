//! Every worked example of the paper, end to end. Each test carries an
//! experiment id (E1–E7, E10, E14, E16) in its doc line, exercises the
//! public API across crates and cross-validates decision-procedure
//! verdicts against the evaluation engine on concrete databases.

// The deprecated convenience entry points remain the differential oracle
// for the Solver suite; this legacy-surface test keeps exercising them.
#![allow(deprecated)]

use eqsql_chase::assignment_fixing::is_assignment_fixing_wrt_query;
use eqsql_chase::{max_bag_set_sigma_subset, max_bag_sigma_subset, sound_chase, ChaseConfig};
use eqsql_core::counterexample::{amplify, lemma_d1_database, lemma_d1_m_star};
use eqsql_core::equiv::bag_equivalent_with_set_relations;
use eqsql_core::{bag_equivalent, sigma_equivalent, EquivOutcome, Semantics};
use eqsql_cq::{are_isomorphic, parse_query, Predicate};
use eqsql_deps::regularize::{is_regularized, regularize_tgd};
use eqsql_deps::satisfaction::db_satisfies_all;
use eqsql_deps::{parse_dependencies, set_enforcing};
use eqsql_integration_tests::{schema_4_1, sigma_4_1};
use eqsql_relalg::eval::{eval_bag, eval_bag_set, eval_set};
use eqsql_relalg::{Database, Schema, Tuple};

fn cfg() -> ChaseConfig {
    ChaseConfig::default()
}

/// E1 — Example 4.1 in full.
#[test]
fn example_4_1_complete() {
    let sigma = sigma_4_1();
    let schema = schema_4_1();
    let q1 = parse_query("q1(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X), u(X,U)").unwrap();
    let q2 = parse_query("q2(X) :- p(X,Y), t(X,Y,W), s(X,Z), r(X)").unwrap();
    let q3 = parse_query("q3(X) :- p(X,Y), t(X,Y,W), s(X,Z)").unwrap();
    let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();

    // The sound chase chain: (Q4)Σ,B = Q3, (Q4)Σ,BS = Q2.
    let b = sound_chase(Semantics::Bag, &q4, &sigma, &schema, &cfg()).unwrap();
    assert!(are_isomorphic(&b.query, &q3), "(Q4)Σ,B = {}", b.query);
    let bs = sound_chase(Semantics::BagSet, &q4, &sigma, &schema, &cfg()).unwrap();
    assert!(are_isomorphic(&bs.query, &q2), "(Q4)Σ,BS = {}", bs.query);

    // Q1 ≡_{Σ,S} Q4 but not under B/BS.
    assert!(sigma_equivalent(Semantics::Set, &q1, &q4, &sigma, &schema, &cfg()).is_equivalent());
    assert_eq!(
        sigma_equivalent(Semantics::Bag, &q1, &q4, &sigma, &schema, &cfg()),
        EquivOutcome::NotEquivalent
    );
    assert_eq!(
        sigma_equivalent(Semantics::BagSet, &q1, &q4, &sigma, &schema, &cfg()),
        EquivOutcome::NotEquivalent
    );

    // The paper's counterexample database, evaluated by the engine.
    let db = Database::new()
        .with_ints("p", &[[1, 2]])
        .with_ints("r", &[[1]])
        .with_ints("s", &[[1, 3]])
        .with_ints("t", &[[1, 2, 4]])
        .with_ints("u", &[[1, 5], [1, 6]]);
    assert!(db_satisfies_all(&db, &sigma));
    assert_eq!(eval_bag(&q4, &db).multiplicity(&Tuple::ints([1])), 1);
    assert_eq!(eval_bag(&q1, &db).multiplicity(&Tuple::ints([1])), 2);
    assert_eq!(eval_bag_set(&q1, &db).unwrap().multiplicity(&Tuple::ints([1])), 2);
    // Under set semantics the two agree on this database.
    assert_eq!(eval_set(&q1, &db).unwrap(), eval_set(&q4, &db).unwrap());

    // And the *sound* results ARE equivalent at their own semantics.
    assert!(sigma_equivalent(Semantics::Bag, &q3, &q4, &sigma, &schema, &cfg()).is_equivalent());
    assert!(sigma_equivalent(Semantics::BagSet, &q2, &q4, &sigma, &schema, &cfg()).is_equivalent());
    // Verified by the engine on the counterexample database:
    assert_eq!(eval_bag(&q3, &db), eval_bag(&q4, &db));
    assert_eq!(eval_bag_set(&q2, &db).unwrap(), eval_bag_set(&q4, &db).unwrap());
}

/// E2 — Examples 4.2/4.3: assignment-fixing verdicts.
///
/// **Example 4.3 erratum.** The paper prints Σ′ = {σ2, σ4, σ5, σ6}:
/// σ2 the key of R, σ4 `p(X,Y) -> ∃Z,W,T r(X,Z) ∧ s(Z,W) ∧ s(X,T)`,
/// σ5 `r(X,Z) ∧ s(Z,W) ∧ s(X,T) -> W = T` and σ6
/// `p(X,Y) ∧ r(A,X) ∧ s(X,T) -> X = T`. It then says σ4 is *not*
/// assignment-fixing w.r.t. `Q(X) :- p(X,Y)`, because nothing forces the
/// copies of `W` and `T` together. The chase of the test query disagrees:
/// σ2 merges `Z` with its copy `θ(Z)`, and σ5 then equates `W`, `T` and
/// their copies, so under Σ′ as printed σ4 *is* assignment-fixing w.r.t.
/// Q. This test pins that verdict. The behaviour the example means to
/// show needs the reduced Σ {σ4, σ2}, where only R's key is available and
/// the copies of `W` and `T` stay apart. That is why every test of a
/// non-assignment-fixing σ4 step (here, `example_4_7_and_4_8` and the
/// unit tests of `eqsql_chase::assignment_fixing`) uses the reduced Σ.
/// Example 5.1 keeps Σ′ as printed: there the verdict is positive, as the
/// paper says.
#[test]
fn example_4_2_and_4_3() {
    // Example 4.2: σ1 IS assignment-fixing w.r.t. Q.
    let sigma_42 = parse_dependencies(
        "p(X,Y) -> r(X,Z) & s(Z,W).\n\
         r(X,Y) & r(X,Z) -> Y = Z.\n\
         r(X,Y) & s(Y,T) & r(X,Z) & s(Z,W) -> T = W.",
    )
    .unwrap();
    let q = parse_query("q(X) :- p(X,Y)").unwrap();
    let sigma1 = sigma_42.tgds().next().unwrap().clone();
    assert_eq!(is_assignment_fixing_wrt_query(&q, &sigma_42, &sigma1, &cfg()).unwrap(), Some(true));

    // Example 4.3 as printed, Σ′ = {σ2, σ4, σ5, σ6}: σ4 IS
    // assignment-fixing w.r.t. Q (see the erratum note above).
    let sigma_43_printed = parse_dependencies(
        "r(X,Y) & r(X,Z) -> Y = Z.\n\
         p(X,Y) -> r(X,Z) & s(Z,W) & s(X,T).\n\
         r(X,Z) & s(Z,W) & s(X,T) -> W = T.\n\
         p(X,Y) & r(A,X) & s(X,T) -> X = T.",
    )
    .unwrap();
    let sigma4 = sigma_43_printed.tgds().next().unwrap().clone();
    assert_eq!(
        is_assignment_fixing_wrt_query(&q, &sigma_43_printed, &sigma4, &cfg()).unwrap(),
        Some(true)
    );

    // Example 4.3 reduced per the erratum note above, Σ = {σ4, σ2}: σ4 is
    // NOT assignment-fixing w.r.t. Q with only the key of R available.
    let sigma_43 = parse_dependencies(
        "p(X,Y) -> r(X,Z) & s(Z,W) & s(X,T).\n\
         r(X,Y) & r(X,Z) -> Y = Z.",
    )
    .unwrap();
    let sigma4 = sigma_43.tgds().next().unwrap().clone();
    assert_eq!(
        is_assignment_fixing_wrt_query(&q, &sigma_43, &sigma4, &cfg()).unwrap(),
        Some(false)
    );
}

/// E3 — Examples 4.4/4.5: regularization is load-bearing.
#[test]
fn example_4_4_and_4_5() {
    // σ4 of Example 4.1 is not regularized; its regularized set is
    // {p -> u(X,Z), p -> t(X,Y,W)}.
    let sigma = sigma_4_1();
    let sigma4 = sigma.tgds().nth(3).unwrap().clone();
    assert!(!is_regularized(&sigma4));
    let reg = regularize_tgd(&sigma4);
    assert_eq!(reg.len(), 2);

    // Example 4.5's unsound whole-σ4 application: Q4' = Q4 + u + t is NOT
    // equivalent to Q4 under Σ' = Σ - {σ2} at bag-set semantics; witness
    // D = {P(1,2), T(1,2,3), U(1,4), U(1,5)}.
    let sigma_prime = parse_dependencies(
        "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
         p(X,Y) -> r(X).\n\
         p(X,Y) -> u(X,Z) & t(X,Y,W).\n\
         s(X,Y) & s(X,Z) -> Y = Z.\n\
         t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
    )
    .unwrap();
    let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
    let q4p = parse_query("q4p(X) :- p(X,Y), t(X,Y,W), u(X,Z)").unwrap();
    // The paper lists D = {P(1,2), T(1,2,3), U(1,4), U(1,5)}; σ'1 and σ3
    // additionally force S- and R-facts, which the paper leaves implicit —
    // we add single tuples (they do not affect the counted answers).
    let db = Database::new()
        .with_ints("p", &[[1, 2]])
        .with_ints("t", &[[1, 2, 3]])
        .with_ints("u", &[[1, 4], [1, 5]])
        .with_ints("s", &[[1, 9]])
        .with_ints("r", &[[1]]);
    assert!(db_satisfies_all(&db, &sigma_prime));
    assert_eq!(eval_bag_set(&q4, &db).unwrap().multiplicity(&Tuple::ints([1])), 1);
    assert_eq!(eval_bag_set(&q4p, &db).unwrap().multiplicity(&Tuple::ints([1])), 2);
    // While with the regularized t-half only, sound bag chase reaches Q3
    // and the equivalence holds (Example 4.4 / Note 1).
    let q3 = parse_query("q3(X) :- p(X,Y), t(X,Y,W), s(X,Z)").unwrap();
    assert!(sigma_equivalent(Semantics::Bag, &q3, &q4, &sigma_prime, &schema_4_1(), &cfg())
        .is_equivalent());
    assert!(sigma_equivalent(Semantics::BagSet, &q3, &q4, &sigma_prime, &schema_4_1(), &cfg())
        .is_equivalent());
}

/// E4 — Example 4.6: the PODS-version "modified chase" result Q' is not
/// equivalent to Q; the engine confirms on the paper's witness D.
#[test]
fn example_4_6() {
    let sigma = parse_dependencies(
        "p(X,Y) -> s(X,Z) & t(Z,Y).\n\
         t(X,Y) & t(Z,Y) -> X = Z.",
    )
    .unwrap();
    let q = parse_query("q(X) :- p(X,Y), s(X,Z)").unwrap();
    let qp = parse_query("qp(X) :- p(X,Y), s(X,Z), t(Z,Y)").unwrap();
    // D = {P(1,2), S(1,1), S(1,3), T(3,2)}.
    let db = Database::new()
        .with_ints("p", &[[1, 2]])
        .with_ints("s", &[[1, 1], [1, 3]])
        .with_ints("t", &[[3, 2]]);
    assert!(db_satisfies_all(&db, &sigma));
    assert_eq!(eval_bag_set(&q, &db).unwrap().multiplicity(&Tuple::ints([1])), 2);
    assert_eq!(eval_bag_set(&qp, &db).unwrap().multiplicity(&Tuple::ints([1])), 1);
    let mut schema = Schema::all_bags(&[("p", 2), ("s", 2), ("t", 2)]);
    schema.mark_set_valued(Predicate::new("s"));
    schema.mark_set_valued(Predicate::new("t"));
    assert_eq!(
        sigma_equivalent(Semantics::BagSet, &q, &qp, &sigma, &schema, &cfg()),
        EquivOutcome::NotEquivalent
    );
}

/// E5 — Examples 4.7/4.8: unsound vs sound chase steps, verified on data.
#[test]
fn example_4_7_and_4_8() {
    // 4.7 (reduced Σ, see the Example 4.3 erratum note on
    // `example_4_2_and_4_3`): the chase step with the
    // non-assignment-fixing σ4 is unsound; witness = canonical database of
    // the chased test query, here hand-rolled following the paper:
    // D = {P(1,2), R(1,3), S(1,4), S(1,5), S(3,4), S(3,5)}.
    let sigma = parse_dependencies(
        "p(X,Y) -> r(X,Z) & s(Z,W) & s(X,T).\n\
         r(X,Y) & r(X,Z) -> Y = Z.",
    )
    .unwrap();
    let q = parse_query("q(X) :- p(X,Y)").unwrap();
    let qpp = parse_query("qq(X) :- p(X,Y), r(X,Z), s(Z,W), s(X,T)").unwrap();
    let db = Database::new()
        .with_ints("p", &[[1, 2]])
        .with_ints("r", &[[1, 3]])
        .with_ints("s", &[[1, 4], [1, 5], [3, 4], [3, 5]]);
    assert!(db_satisfies_all(&db, &sigma));
    assert_eq!(eval_bag_set(&q, &db).unwrap().multiplicity(&Tuple::ints([1])), 1);
    assert_eq!(eval_bag_set(&qpp, &db).unwrap().multiplicity(&Tuple::ints([1])), 4);

    // 4.8: the sound chase step with ν1 adds a FRESH s-subgoal; the result
    // Q'' is equivalent to Q under both semantics — engine-checked on a
    // family of Σ-models.
    let sigma2 = parse_dependencies(
        "p(X,Y) -> s(X,Z) & t(Z,Y).\n\
         t(X,Y) & t(Z,Y) -> X = Z.",
    )
    .unwrap();
    let q2 = parse_query("q(X) :- p(X,Y), s(X,Z)").unwrap();
    let q2pp = parse_query("qq(X) :- p(X,Y), s(X,Z), s(X,W), t(W,Y)").unwrap();
    let mut schema = Schema::all_bags(&[("p", 2), ("s", 2), ("t", 2)]);
    schema.mark_set_valued(Predicate::new("s"));
    schema.mark_set_valued(Predicate::new("t"));
    assert!(sigma_equivalent(Semantics::Bag, &q2, &q2pp, &sigma2, &schema, &cfg()).is_equivalent());
    // Engine check on the model D2 = Example 4.6's D extended to satisfy
    // ν1 for every p-assignment.
    let db2 = Database::new()
        .with_ints("p", &[[1, 2]])
        .with_ints("s", &[[1, 1], [1, 3]])
        .with_ints("t", &[[3, 2]]);
    assert!(db_satisfies_all(&db2, &sigma2));
    assert_eq!(eval_bag(&q2, &db2), eval_bag(&q2pp, &db2));
}

/// E6 — Example 4.9 / Theorem 4.2 / Examples D.1–D.2.
#[test]
fn example_4_9_and_d1_d2() {
    let schema = schema_4_1();
    let q3 = parse_query("q3(X) :- p(X,Y), t(X,Y,W), s(X,Z)").unwrap();
    let q5 = parse_query("q5(X) :- p(X,Y), t(X,Y,W), s(X,Z), s(X,Z)").unwrap();
    // Not bag-equivalent outright, but bag-equivalent once S is a set.
    assert!(!bag_equivalent(&q3, &q5));
    assert!(bag_equivalent_with_set_relations(&q3, &q5, &schema));

    // Example D.1's witness: S a bag with a duplicated tuple.
    let mut db = Database::new().with_ints("p", &[[1, 2]]).with_ints("t", &[[1, 2, 5]]);
    db.insert("s", Tuple::ints([1, 3]), 2);
    assert_eq!(eval_bag(&q3, &db).multiplicity(&Tuple::ints([1])), 2);
    assert_eq!(eval_bag(&q5, &db).multiplicity(&Tuple::ints([1])), 4);

    // Example D.2: Q7/Q8 over the bag relation R; m = 5 > m* = 4 separates
    // quadratically vs linearly.
    let q7 = parse_query("q7(X) :- p(X,Y), r(X), r(X)").unwrap();
    let q8 = parse_query("q8(X) :- p(X,Y), r(X)").unwrap();
    assert!(lemma_d1_m_star(&q7, &q8, Predicate::new("r")) > 4);
    let base = lemma_d1_database(&q8, Predicate::new("r"), 1);
    for m in [2u64, 5, 9] {
        let amp = amplify(&base, Predicate::new("r"), m);
        let t = eval_bag(&q8, &amp);
        let t7 = eval_bag(&q7, &amp);
        let tuple = t.core_set().next().unwrap().clone();
        assert_eq!(t.multiplicity(&tuple), m);
        assert_eq!(t7.multiplicity(&tuple), m * m);
    }
}

/// E7 — Example 5.1: assignment-fixing is query-dependent.
#[test]
fn example_5_1() {
    let sigma = parse_dependencies(
        "r(X,Y) & r(X,Z) -> Y = Z.\n\
         p(X,Y) -> r(X,Z) & s(Z,W) & s(X,T).\n\
         r(X,Z) & s(Z,W) & s(X,T) -> W = T.\n\
         p(X,Y) & r(A,X) & s(X,T) -> X = T.",
    )
    .unwrap();
    let sigma4 = sigma.tgds().next().unwrap().clone();
    let q_prime = parse_query("q(X) :- p(X,Y), r(A,X)").unwrap();
    assert_eq!(
        is_assignment_fixing_wrt_query(&q_prime, &sigma, &sigma4, &cfg()).unwrap(),
        Some(true)
    );
}

/// E10 — Theorem 5.3 / Proposition 5.2: the Max-Σ-Subset chain.
#[test]
fn max_subset_chain() {
    let q4 = parse_query("q4(X) :- p(X,Y)").unwrap();
    let sigma = sigma_4_1();
    let schema = schema_4_1();
    let b = max_bag_sigma_subset(&q4, &sigma, &schema, &cfg()).unwrap();
    let bs = max_bag_set_sigma_subset(&q4, &sigma, &schema, &cfg()).unwrap();
    assert_eq!(b.subset.len(), 4); // σ1, σ2, σ7, σ8
    assert_eq!(bs.subset.len(), 5); // + σ3
    for d in b.subset.iter() {
        assert!(bs.subset.contains(d));
    }
}

/// E14 — Examples E.1/E.2: key-based steps can still be unsound.
#[test]
fn example_e1_e2() {
    // E.1 (bag): σ2: r(X,Y) -> p(X,Y) with key egd on P, but P is a bag.
    // D with duplicated P-tuple separates Q and Q'.
    let q = parse_query("q(A) :- r(A,B)").unwrap();
    let qp = parse_query("qp(A) :- r(A,B), p(A,B)").unwrap();
    let mut db = Database::new().with_ints("r", &[[7, 8]]);
    db.insert("p", Tuple::ints([7, 8]), 2);
    let sigma = parse_dependencies(
        "p(X,Y) & p(X,Z) -> Y = Z.\n\
         r(X,Y) -> p(X,Y).",
    )
    .unwrap();
    assert!(db_satisfies_all(&db, &sigma));
    assert_eq!(eval_bag(&q, &db).multiplicity(&Tuple::ints([7])), 1);
    assert_eq!(eval_bag(&qp, &db).multiplicity(&Tuple::ints([7])), 2);
    // The sound bag chase must therefore refuse the step when P is a bag:
    let schema = Schema::all_bags(&[("r", 2), ("p", 2)]);
    let chased = sound_chase(Semantics::Bag, &q, &sigma, &schema, &cfg()).unwrap();
    assert!(are_isomorphic(&chased.query, &q), "got {}", chased.query);

    // E.2 (bag-set): non-key-based σ: r(X,Y) -> p(X,Z). Witness
    // D = {R(a,b), P(a,c), P(a,d)}.
    let sigma2 = parse_dependencies("r(X,Y) -> p(X,Z).").unwrap();
    let q2 = parse_query("q(A) :- r(A,B)").unwrap();
    let q2p = parse_query("qp(A) :- r(A,B), p(A,C)").unwrap();
    let db2 = Database::new().with_ints("r", &[[1, 2]]).with_ints("p", &[[1, 3], [1, 4]]);
    assert!(db_satisfies_all(&db2, &sigma2));
    assert_eq!(eval_bag_set(&q2, &db2).unwrap().multiplicity(&Tuple::ints([1])), 1);
    assert_eq!(eval_bag_set(&q2p, &db2).unwrap().multiplicity(&Tuple::ints([1])), 2);
    // And the sound bag-set chase refuses it (not assignment-fixing):
    let schema2 = Schema::all_bags(&[("r", 2), ("p", 2)]);
    let chased2 = sound_chase(Semantics::BagSet, &q2, &sigma2, &schema2, &cfg()).unwrap();
    assert!(are_isomorphic(&chased2.query, &q2));
}

/// E16 — Appendix C: the tuple-ID set-enforcement framework.
#[test]
fn tuple_id_framework() {
    use eqsql_deps::satisfaction::db_satisfies_egd;
    let schema = Schema::all_bags(&[("s", 2)]);
    let (wide_schema, sigma_tid) = set_enforcing::with_tuple_ids(&schema, &[Predicate::new("s")]);
    assert_eq!(wide_schema.arity(Predicate::new("s")), Some(3));
    assert!(wide_schema.is_set_valued(Predicate::new("s")));
    let egd = sigma_tid.egds().next().unwrap();

    // A bag instance widened with unique tids violates σ_tid; a set
    // instance satisfies it, and Q_vals is then set-valued.
    let mut bag_db = Database::new();
    bag_db.insert("s", Tuple::ints([1, 3]), 2);
    let wide = set_enforcing::assign_tids(&bag_db, Predicate::new("s"), 100);
    assert!(!db_satisfies_egd(&wide, egd));

    let set_db = Database::new().with_ints("s", &[[1, 3], [2, 4]]);
    let wide2 = set_enforcing::assign_tids(&set_db, Predicate::new("s"), 0);
    assert!(db_satisfies_egd(&wide2, egd));
    assert!(set_enforcing::q_vals(&wide2, Predicate::new("s")).is_set_valued());
}
