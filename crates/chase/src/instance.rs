//! Instance-level chase with labelled nulls (the data-exchange-style chase
//! of \[14\], used here as a substrate).
//!
//! Repairs a database into a model of Σ: tgd violations add tuples whose
//! existential positions hold fresh labelled nulls ([`Value::Labeled`]);
//! egd violations merge a labelled null into the other value (failing when
//! two distinct non-null constants are equated). The result, when the
//! chase terminates, satisfies Σ — this is how `eqsql-gen` turns random
//! databases into Σ-satisfying test instances for the cross-validation
//! suites.
//!
//! ## Search
//!
//! [`chase_database`] searches with the query chase engine's own
//! machinery ([`crate::engine`]): the database is interned once into a
//! flat [`eqsql_cq::TermArena`] (one columnar table per relation, `u32`
//! ids), Σ compiles once per run into the engine's per-dependency plans,
//! and each scan is the engine's first-match search. A tgd scan stops at
//! the first premise match whose conclusion has no extension (every match
//! is admitted); an egd scan stops at the first match whose equated terms
//! have unequal images, which `egd_merge` turns into a null merge or a
//! failure. A fired tgd's conclusion is grounded off the engine's
//! conclusion template with its existentials left as variables, and
//! `insert_conclusion` mints one labelled null per existential. The
//! arena's rows are refilled (terms and tables kept) only after a step
//! mutates the database.
//!
//! Rows are interned relation by relation in ascending tuple order, the
//! order every [`Relation`] scan runs in, and the premise plans keep the
//! written atom order. So the engine's first match is the naive
//! evaluator's first assignment, both drivers repair the same violation
//! first and allocate identical labelled nulls, and a repeated call
//! repeats the run exactly. The naive [`assignments`]-based step
//! functions survive privately for [`chase_database_reference`], the
//! oracle.
//!
//! ## Scheduling
//!
//! [`chase_database`] uses the query chase engine's delta-driven worklist:
//! a dependency found satisfied retires until a step changes one of its
//! **premise** relations. That is sound here because steps only ever
//! *add* witnesses elsewhere —
//!
//! * tgd steps insert tuples and remove nothing, so a satisfied
//!   dependency's extensions survive;
//! * an egd step applies a value replacement `ρ` to the whole database;
//!   for any premise assignment whose tuples `ρ` leaves unchanged, its
//!   assigned values contain no replaced value, so a conclusion witness
//!   `T` maps to the still-present `ρ(T)` (and an egd's satisfied
//!   equality stays satisfied). Any premise tuple `ρ` *does* change lives
//!   in a changed relation, which re-arms the dependency.
//!
//! The worklist pops the lowest queued index, so the engine fires the
//! same dependency sequence as the naive restart-from-σ₀ scan — kept as
//! [`chase_database_reference`], the differential oracle.

use crate::engine::{egd_violation, scan_tgd, DepFrames, DepPlans, Scan, Worklist};
use crate::error::{ChaseConfig, ChaseError};
use crate::guard::RunGuard;
use eqsql_cq::{Atom, Predicate, Term, TermArena, TermId, Value, Var};
use eqsql_deps::{Dependency, DependencySet, Egd, Tgd};
use eqsql_relalg::eval::{assignments, Assignment};
use eqsql_relalg::{Database, Relation, Tuple};
use std::collections::HashMap;

/// Result of an instance chase.
#[derive(Clone, Debug)]
pub struct InstanceChased {
    /// The repaired database (meaningless when `failed`).
    pub db: Database,
    /// Did an egd equate two distinct non-null constants?
    pub failed: bool,
    /// Number of chase steps applied.
    pub steps: usize,
}

fn max_label(db: &Database) -> u64 {
    db.active_domain()
        .into_iter()
        .filter_map(|v| match v {
            Value::Labeled(n) => Some(n),
            _ => None,
        })
        .max()
        .map_or(0, |n| n + 1)
}

fn ground_with(atoms: &[Atom], asg: &Assignment) -> Vec<Atom> {
    atoms
        .iter()
        .map(|a| Atom {
            pred: a.pred,
            args: a
                .args
                .iter()
                .map(|t| match t {
                    Term::Var(v) => match asg.get(v) {
                        Some(val) => Term::Const(*val),
                        None => *t,
                    },
                    Term::Const(_) => *t,
                })
                .collect(),
        })
        .collect()
}

/// Replaces every occurrence of `from` by `to` throughout the database,
/// merging multiplicities of tuples that collide. Returns the rewritten
/// database plus the predicates whose relations actually changed (had at
/// least one tuple containing `from`) — the delta the worklist wakes on.
fn replace_value(db: &Database, from: Value, to: Value) -> (Database, Vec<Predicate>) {
    let mut out = Database::new();
    let mut changed = Vec::new();
    for (p, r) in db.iter() {
        let target = out.get_or_create(p, r.arity());
        let mut touched = false;
        for (t, m) in r.iter() {
            touched |= t.iter().any(|v| *v == from);
            let vals: Vec<Value> = t.iter().map(|v| if *v == from { to } else { *v }).collect();
            target.insert(Tuple::new(vals), m);
        }
        if touched {
            changed.push(p);
        }
    }
    (out, changed)
}

/// Interns the database's tuples into `arena`'s tables, relation by
/// relation in ascending tuple order (the naive evaluator's scan order).
/// Refill after a step with [`TermArena::clear_rows`] first: interned
/// ids and tables survive, so compiled plans stay valid and a refill
/// interns nothing new except freshly minted nulls.
fn fill(arena: &mut TermArena, db: &Database) {
    let mut row: Vec<TermId> = Vec::new();
    for (p, r) in db.iter() {
        let t = arena.table_id((p, r.arity()));
        for tup in r.core_set() {
            row.clear();
            row.extend(tup.iter().map(|v| arena.intern(Term::Const(*v))));
            arena.push_row(t, &row);
        }
    }
}

/// Inserts the grounded conclusion atoms, minting fresh labelled nulls
/// for the variables the premise match left free (shared across the
/// conclusion atoms). Returns the predicates that received a new tuple.
fn insert_conclusion(db: &mut Database, rhs: &[Atom], next_null: &mut u64) -> Vec<Predicate> {
    let mut nulls: HashMap<Var, Value> = HashMap::new();
    let mut added = Vec::new();
    for atom in rhs {
        let vals: Vec<Value> = atom
            .args
            .iter()
            .map(|t| match t {
                Term::Const(c) => *c,
                Term::Var(v) => *nulls.entry(*v).or_insert_with(|| {
                    let val = Value::Labeled(*next_null);
                    *next_null += 1;
                    val
                }),
            })
            .collect();
        let rel: &mut Relation = db.get_or_create(atom.pred, vals.len());
        let tup = Tuple::new(vals);
        if !rel.contains(&tup) {
            rel.insert(tup, 1);
            if !added.contains(&atom.pred) {
                added.push(atom.pred);
            }
        }
    }
    added
}

enum EgdInstanceOutcome {
    NoViolation,
    /// A value was merged.
    Applied,
    Failed,
}

/// The merge direction for an egd violation `a ≠ b` (nulls merge into
/// the other side, higher null into lower), or `None` on a
/// constant/constant clash.
fn egd_merge(a: Value, b: Value) -> Option<(Value, Value)> {
    match (a, b) {
        (Value::Labeled(x), Value::Labeled(y)) => {
            if x > y {
                Some((Value::Labeled(x), Value::Labeled(y)))
            } else {
                Some((Value::Labeled(y), Value::Labeled(x)))
            }
        }
        (Value::Labeled(_), other) => Some((a, other)),
        (other, Value::Labeled(_)) => Some((b, other)),
        _ => None,
    }
}

/// The naive tgd step: materializes every premise assignment through the
/// relational evaluator. Kept for [`chase_database_reference`], the
/// oracle — do not "optimize".
fn apply_tgd_instance_reference(
    db: &mut Database,
    tgd: &Tgd,
    next_null: &mut u64,
) -> Option<Vec<Predicate>> {
    let lhs_assignments = assignments(&tgd.lhs, db);
    for asg in &lhs_assignments {
        let rhs = ground_with(&tgd.rhs, asg);
        if assignments(&rhs, db).is_empty() {
            return Some(insert_conclusion(db, &rhs, next_null));
        }
    }
    None
}

/// The naive egd step, for the oracle driver.
fn apply_egd_instance_reference(db: &mut Database, egd: &Egd) -> EgdInstanceOutcome {
    let lhs_assignments = assignments(&egd.lhs, db);
    for asg in &lhs_assignments {
        let a = match &egd.eq.0 {
            Term::Const(c) => *c,
            Term::Var(v) => asg[v],
        };
        let b = match &egd.eq.1 {
            Term::Const(c) => *c,
            Term::Var(v) => asg[v],
        };
        if a == b {
            continue;
        }
        let Some((from, to)) = egd_merge(a, b) else {
            return EgdInstanceOutcome::Failed;
        };
        *db = replace_value(db, from, to).0;
        return EgdInstanceOutcome::Applied;
    }
    EgdInstanceOutcome::NoViolation
}

/// Chases `db` with Σ until it satisfies every dependency, fails, or the
/// budget runs out.
///
/// Scheduling is delta-driven (see the module docs): each dependency
/// subscribes to its premise predicates, a satisfied dependency retires
/// until one of them changes, and the lowest queued index fires — the
/// identical step sequence to [`chase_database_reference`] without the
/// per-step rescan of all of Σ.
///
/// `guard` is polled at every step, so instance chases issued inside a
/// deadlined or cancellable decision (database repair in the
/// counterexample search, `Request::ChaseInstance`) abort within one step
/// of the signal; pass [`RunGuard::unguarded`] otherwise. The guard never
/// changes the step sequence.
pub fn chase_database(
    db: &Database,
    sigma: &DependencySet,
    config: &ChaseConfig,
    guard: &RunGuard,
) -> Result<InstanceChased, ChaseError> {
    let mut cur = db.clone();
    let mut next_null = max_label(db);
    let mut steps = 0usize;
    let mut worklist = Worklist::new(sigma);
    // Plans compile once per run against the arena; its rows are refilled
    // only after a step actually mutates the database — satisfied checks
    // reuse them.
    let mut arena = TermArena::new();
    fill(&mut arena, &cur);
    let plans: Vec<DepPlans> = sigma.iter().map(|d| DepPlans::compile(d, &mut arena)).collect();
    let mut frames: Vec<DepFrames> = sigma.iter().map(|_| DepFrames::new()).collect();
    loop {
        guard.poll(steps)?;
        if steps >= config.max_steps {
            return Err(ChaseError::BudgetExhausted { steps });
        }
        let Some(i) = worklist.pop_min() else {
            return Ok(InstanceChased { db: cur, failed: false, steps });
        };
        let DepFrames { premise: pf, ext: ef } = &mut frames[i];
        // The relations a step changed: new tuples, or rewritten ones.
        let changed = match sigma.as_slice()[i] {
            Dependency::Tgd(_) => {
                // A database holds no duplicate rows, and every premise
                // match is admitted.
                let Scan::TgdFire(slots) =
                    scan_tgd(&plans[i], &arena, pf, ef, false, &mut |_| Ok(true))?
                else {
                    worklist.retire(i, false);
                    continue;
                };
                let rhs = plans[i].ground_conclusion(&arena, &slots);
                insert_conclusion(&mut cur, &rhs, &mut next_null)
            }
            Dependency::Egd(_) => {
                let Some((a, b)) = egd_violation(&plans[i], &arena, pf) else {
                    worklist.retire(i, false);
                    continue;
                };
                let value = |t: Term| t.as_const().expect("a database binds every egd term");
                let Some((from, to)) = egd_merge(value(a), value(b)) else {
                    return Ok(InstanceChased { db: cur, failed: true, steps });
                };
                let (next, changed) = replace_value(&cur, from, to);
                cur = next;
                changed
            }
        };
        steps += 1;
        arena.clear_rows();
        fill(&mut arena, &cur);
        worklist.wake_subscribers(&changed);
        // Another premise match of the same dependency may still be
        // violated even if nothing it listens on changed.
        worklist.rearm(i);
    }
}

/// The naive restart-scan driver [`chase_database`] replaced: rescans Σ
/// from σ₀ after every step. Kept as the differential-testing oracle — the
/// worklist engine must fire the identical step sequence.
pub fn chase_database_reference(
    db: &Database,
    sigma: &DependencySet,
    config: &ChaseConfig,
) -> Result<InstanceChased, ChaseError> {
    let mut cur = db.clone();
    let mut next_null = max_label(db);
    let mut steps = 0usize;
    'outer: loop {
        if steps >= config.max_steps {
            return Err(ChaseError::BudgetExhausted { steps });
        }
        for dep in sigma.iter() {
            match dep {
                Dependency::Tgd(t) => {
                    if apply_tgd_instance_reference(&mut cur, t, &mut next_null).is_some() {
                        steps += 1;
                        continue 'outer;
                    }
                }
                Dependency::Egd(e) => match apply_egd_instance_reference(&mut cur, e) {
                    EgdInstanceOutcome::NoViolation => {}
                    EgdInstanceOutcome::Applied => {
                        steps += 1;
                        continue 'outer;
                    }
                    EgdInstanceOutcome::Failed => {
                        return Ok(InstanceChased { db: cur, failed: true, steps });
                    }
                },
            }
        }
        return Ok(InstanceChased { db: cur, failed: false, steps });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eqsql_deps::parse_dependencies;
    use eqsql_deps::satisfaction::db_satisfies_all;

    fn cfg() -> ChaseConfig {
        ChaseConfig::default()
    }

    #[test]
    fn tgd_repair_adds_tuples_with_nulls() {
        let sigma = parse_dependencies("p(X,Y) -> t(X,Y,W).").unwrap();
        let db = Database::new().with_ints("p", &[[1, 2]]);
        let r = chase_database(&db, &sigma, &cfg(), &RunGuard::unguarded()).unwrap();
        assert!(!r.failed);
        assert!(db_satisfies_all(&r.db, &sigma));
        let t = r.db.get_str("t").unwrap();
        assert_eq!(t.len(), 1);
        let tup = t.core_set().next().unwrap();
        assert_eq!(tup[0], Value::Int(1));
        assert_eq!(tup[1], Value::Int(2));
        assert!(tup[2].is_labeled());
    }

    #[test]
    fn egd_repair_merges_nulls_into_constants() {
        let sigma = parse_dependencies(
            "p(X,Y) -> t(X,W).\n\
             t(X,W) & t(X,V) -> W = V.",
        )
        .unwrap();
        let mut db = Database::new().with_ints("p", &[[1, 2]]);
        db.insert_ints("t", [1, 9]);
        let r = chase_database(&db, &sigma, &cfg(), &RunGuard::unguarded()).unwrap();
        assert!(!r.failed);
        assert!(db_satisfies_all(&r.db, &sigma));
        // No null survives: the tgd's witness merged into the constant 9.
        let t = r.db.get_str("t").unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.core_set().next().unwrap()[1], Value::Int(9));
    }

    #[test]
    fn egd_failure_on_constants() {
        let sigma = parse_dependencies("t(X,W) & t(X,V) -> W = V.").unwrap();
        let db = Database::new().with_ints("t", &[[1, 3], [1, 4]]);
        let r = chase_database(&db, &sigma, &cfg(), &RunGuard::unguarded()).unwrap();
        assert!(r.failed);
    }

    #[test]
    fn shared_existentials_get_one_null() {
        let sigma = parse_dependencies("p(X) -> a(X,Z) & b(Z,X).").unwrap();
        let db = Database::new().with_ints("p", &[[7]]);
        let r = chase_database(&db, &sigma, &cfg(), &RunGuard::unguarded()).unwrap();
        let a = r.db.get_str("a").unwrap().core_set().next().unwrap().clone();
        let b = r.db.get_str("b").unwrap().core_set().next().unwrap().clone();
        assert_eq!(a[1], b[0], "the shared existential Z must be one null");
    }

    #[test]
    fn example_4_1_repair() {
        let sigma = parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
             p(X,Y) -> t(X,Y,W).\n\
             p(X,Y) -> r(X).\n\
             p(X,Y) -> u(X,Z) & t(X,Y,W).\n\
             s(X,Y) & s(X,Z) -> Y = Z.\n\
             t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
        )
        .unwrap();
        let db = Database::new().with_ints("p", &[[1, 2], [5, 6]]);
        let r = chase_database(&db, &sigma, &cfg(), &RunGuard::unguarded()).unwrap();
        assert!(!r.failed);
        assert!(db_satisfies_all(&r.db, &sigma));
        // Two p-rows mean (at least) two r-, s-, t- and u-rows.
        for rel in ["r", "s", "u"] {
            assert!(r.db.get_str(rel).unwrap().len() >= 2, "{rel} not repaired");
        }
    }

    #[test]
    fn budget_guard_on_non_terminating_sigma() {
        let sigma = parse_dependencies("e(X,Y) -> e(Y,Z).").unwrap();
        let db = Database::new().with_ints("e", &[[1, 2]]);
        let err =
            chase_database(&db, &sigma, &ChaseConfig::with_max_steps(30), &RunGuard::unguarded())
                .unwrap_err();
        assert!(matches!(err, ChaseError::BudgetExhausted { .. }));
        // And the reference driver exhausts the identical budget.
        let err_ref =
            chase_database_reference(&db, &sigma, &ChaseConfig::with_max_steps(30)).unwrap_err();
        assert_eq!(err, err_ref);
    }

    /// xorshift64*, so the differential draws need no external rng crate.
    struct XorShift(u64);

    impl XorShift {
        fn next(&mut self) -> u64 {
            let mut x = self.0;
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            self.0 = x;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n.max(1)
        }
    }

    fn outcome(
        r: &Result<InstanceChased, ChaseError>,
    ) -> Result<(bool, usize, &Database), &ChaseError> {
        r.as_ref().map(|c| (c.failed, c.steps, &c.db))
    }

    /// The worklist engine must be step-for-step identical to the naive
    /// restart-scan driver: same repaired database (null allocation
    /// included), same step count, same failure flag — across random
    /// databases and dependency sets mixing tgd chains and key egds. A
    /// second call on the same input must repeat the first exactly.
    #[test]
    fn worklist_matches_reference_on_random_draws() {
        let sigmas = [
            // Layered tgds + keys (weakly acyclic, egd merges nulls).
            "a(X,Y) -> b(Y,Z).\n\
             b(X,Y) -> c(X).\n\
             b(X,Y1) & b(X,Y2) -> Y1 = Y2.",
            // Key first, then tgds that listen on each other.
            "a(X,Y1) & a(X,Y2) -> Y1 = Y2.\n\
             a(X,Y) -> b(X,Z).\n\
             b(X,Y) -> a(Y,W).\n\
             b(X,Y1) & b(X,Y2) -> Y1 = Y2.",
            // Constant-equating key: failure paths must agree too.
            "a(X,Y) -> b(X,Y).\n\
             b(X,Y1) & b(X,Y2) -> Y1 = Y2.\n\
             c(X) -> a(X,X).",
            // A constant in a conclusion, and an existential shared by two
            // conclusion atoms.
            "c(X) -> a(X,7) & b(Z,X).\n\
             a(X,Y) -> b(X,Z) & b(Z,Y).\n\
             b(X,Y1) & b(X,Y2) -> Y1 = Y2.",
        ];
        let mut rng = XorShift(0x9E37_79B9_7F4A_7C15);
        for round in 0..40 {
            let sigma = parse_dependencies(sigmas[round % sigmas.len()]).unwrap();
            let mut db = Database::new();
            for _ in 0..rng.below(5) {
                db.insert_ints("a", [rng.below(4) as i64, rng.below(4) as i64]);
            }
            for _ in 0..rng.below(4) {
                db.insert_ints("b", [rng.below(4) as i64, rng.below(4) as i64]);
            }
            for _ in 0..rng.below(3) {
                db.insert_ints("c", [rng.below(3) as i64]);
            }
            let cfg = ChaseConfig::with_max_steps(200);
            let fast = chase_database(&db, &sigma, &cfg, &RunGuard::unguarded());
            let again = chase_database(&db, &sigma, &cfg, &RunGuard::unguarded());
            assert_eq!(outcome(&again), outcome(&fast), "round {round}: a repeat call diverges");
            let slow = chase_database_reference(&db, &sigma, &cfg);
            match (fast, slow) {
                (Ok(f), Ok(s)) => {
                    assert_eq!(f.failed, s.failed, "round {round}: failure flags diverge");
                    assert_eq!(f.steps, s.steps, "round {round}: step counts diverge");
                    assert_eq!(f.db, s.db, "round {round}: repaired databases diverge");
                }
                (Err(f), Err(s)) => {
                    assert_eq!(f, s, "round {round}: error variants diverge")
                }
                (f, s) => panic!("round {round}: outcomes diverge: {f:?} vs {s:?}"),
            }
        }
    }
}
