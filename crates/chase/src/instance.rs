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
//! [`chase_database`]'s violation search runs on the flat arena
//! ([`eqsql_cq::arena`]): the database is interned once into columnar
//! per-relation tables (`u32` ids, one contiguous column per argument
//! position) and refilled — terms and table registry kept — only when a
//! step mutates it (satisfied checks reuse the view). Per-dependency
//! [`eqsql_cq::ArenaPlan`]s compile once per run against that arena, and
//! the dependency premise streams over it first-match with the tgd
//! conclusion check threaded in as a pruning predicate through a
//! precompiled seed map — no assignment set is ever collected, where the
//! naive path materialized *every* premise assignment before looking at
//! one. Rows are appended in the naive evaluator's per-relation tuple
//! order, so both drivers repair the same violation first and allocate
//! identical labelled nulls — which the differential suite asserts
//! tuple-for-tuple. The naive [`assignments`]-based step functions
//! survive privately for [`chase_database_reference`], the oracle.
//!
//! ## Scheduling
//!
//! [`chase_database`] uses the same delta-driven worklist as the query
//! chase engine ([`crate::engine`]): a dependency found satisfied retires
//! until a step changes one of its **premise** relations. That is sound
//! here because steps only ever *add* witnesses elsewhere —
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

use crate::error::{ChaseConfig, ChaseError};
use crate::guard::RunGuard;
use eqsql_cq::{
    ArenaFrame, ArenaPlan, Atom, EqOp, Predicate, SeedMap, Term, TermArena, TermId, Value, Var,
};
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

/// The database interned into a columnar [`TermArena`] — the search
/// target. Per relation, rows are appended in core-set order, so the
/// arena's candidate order equals the naive evaluator's.
struct GroundView {
    arena: TermArena,
}

impl GroundView {
    fn of(db: &Database) -> GroundView {
        let mut gv = GroundView { arena: TermArena::new() };
        gv.fill(db);
        gv
    }

    fn fill(&mut self, db: &Database) {
        let mut scratch: Vec<TermId> = Vec::new();
        for (p, r) in db.iter() {
            let t = self.arena.table_id((p, r.arity()));
            for tup in r.core_set() {
                scratch.clear();
                for v in tup.iter() {
                    scratch.push(self.arena.intern(Term::Const(*v)));
                }
                self.arena.push_row(t, &scratch);
            }
        }
    }

    /// Re-interns the database after a mutating step. Interned term ids
    /// and the table registry survive ([`TermArena::clear_rows`]), so
    /// compiled plans stay valid and steady-state refills intern nothing
    /// new except freshly minted nulls.
    fn refill(&mut self, db: &Database) {
        self.arena.clear_rows();
        self.fill(db);
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

/// A dependency's compiled plans, built once per chase run against the
/// ground view's arena (the premise keeps the written atom order so the
/// first violation found matches the naive oracle's).
struct InstancePlans {
    premise: ArenaPlan,
    /// Tgd conclusion; `None` for egds.
    conclusion: Option<ArenaPlan>,
    /// Conclusion slot ← premise slot, for the shared universals.
    con_seed: SeedMap,
    /// Tgd rhs template: per atom, its predicate and how each argument
    /// reads off a premise match (`Free` = existential, minted as a null).
    rhs_tmpl: Vec<(Predicate, Vec<EqOp>)>,
    /// Egd equality sides, resolved against the premise plan.
    egd_eq: Option<(EqOp, EqOp)>,
}

impl InstancePlans {
    fn compile(dep: &Dependency, arena: &mut TermArena) -> InstancePlans {
        let premise = ArenaPlan::new(dep.lhs(), arena);
        match dep {
            Dependency::Tgd(t) => {
                let conclusion = ArenaPlan::new(&t.rhs, arena);
                let con_seed = conclusion.seed_map_from(&premise);
                let rhs_tmpl = t
                    .rhs
                    .iter()
                    .map(|a| (a.pred, a.args.iter().map(|arg| premise.eq_op(arg, arena)).collect()))
                    .collect();
                InstancePlans {
                    premise,
                    conclusion: Some(conclusion),
                    con_seed,
                    rhs_tmpl,
                    egd_eq: None,
                }
            }
            Dependency::Egd(e) => {
                let egd_eq = Some((premise.eq_op(&e.eq.0, arena), premise.eq_op(&e.eq.1, arena)));
                InstancePlans {
                    premise,
                    conclusion: None,
                    con_seed: SeedMap::new(),
                    rhs_tmpl: Vec::new(),
                    egd_eq,
                }
            }
        }
    }
}

/// A dependency's reusable search frames, allocated once per run.
struct InstanceFrames {
    premise: ArenaFrame,
    con: ArenaFrame,
}

impl InstanceFrames {
    fn new() -> InstanceFrames {
        InstanceFrames { premise: ArenaFrame::new(), con: ArenaFrame::new() }
    }
}

/// Repairs the first tgd violation found, if any. Returns the predicates
/// that received a new tuple, or `None` when the tgd is satisfied.
///
/// First-match arena search over the caller's [`GroundView`] with the
/// conclusion check threaded in as a pruning predicate (seeded through
/// the precompiled map): no assignment set is materialized, and a
/// satisfied premise match costs one existence probe instead of a full
/// enumeration of the conclusion's assignments.
fn apply_tgd_instance(
    db: &mut Database,
    gv: &GroundView,
    plans: &InstancePlans,
    frames: &mut InstanceFrames,
    next_null: &mut u64,
) -> Option<Vec<Predicate>> {
    let conclusion = plans.conclusion.as_ref().expect("tgd has a conclusion plan");
    let InstanceFrames { premise: pf, con: cf } = frames;
    pf.reset(plans.premise.slot_count());
    let mut violating: Option<Box<[TermId]>> = None;
    plans.premise.search(&gv.arena, pf, &mut |slots| {
        cf.reset(conclusion.slot_count());
        cf.seed_from(&plans.con_seed, slots);
        if conclusion.has_match(&gv.arena, cf) {
            true // conclusion witnessed; keep scanning
        } else {
            violating = Some(slots.into());
            false
        }
    });
    let slots = violating?;
    // Ground the rhs template off the match (boundary conversion):
    // premise-bound variables resolve to their matched constants, free
    // (existential) variables stay variables for the null minting below.
    let rhs: Vec<Atom> = plans
        .rhs_tmpl
        .iter()
        .map(|(pred, ops)| Atom {
            pred: *pred,
            args: ops.iter().map(|op| op.resolve(&gv.arena, &slots)).collect(),
        })
        .collect();
    Some(insert_conclusion(db, &rhs, next_null))
}

enum EgdInstanceOutcome {
    NoViolation,
    /// A value was merged; the listed relations had tuples rewritten.
    Applied(Vec<Predicate>),
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

fn egd_image(op: &EqOp, gv: &GroundView, slots: &[TermId]) -> Value {
    match op.resolve(&gv.arena, slots) {
        Term::Const(c) => c,
        Term::Var(v) => panic!("egd equates unbound variable {v}"),
    }
}

fn apply_egd_instance(
    db: &mut Database,
    gv: &GroundView,
    plans: &InstancePlans,
    frames: &mut InstanceFrames,
) -> EgdInstanceOutcome {
    let (lhs, rhs) = plans.egd_eq.as_ref().expect("egd has compiled equality sides");
    let pf = &mut frames.premise;
    pf.reset(plans.premise.slot_count());
    let mut violation: Option<(Value, Value)> = None;
    plans.premise.search(&gv.arena, pf, &mut |slots| {
        let a = egd_image(lhs, gv, slots);
        let b = egd_image(rhs, gv, slots);
        if a == b {
            true
        } else {
            violation = Some((a, b));
            false
        }
    });
    let Some((a, b)) = violation else {
        return EgdInstanceOutcome::NoViolation;
    };
    let Some((from, to)) = egd_merge(a, b) else {
        return EgdInstanceOutcome::Failed;
    };
    let (next, changed) = replace_value(db, from, to);
    *db = next;
    EgdInstanceOutcome::Applied(changed)
}

/// Naive twin of [`apply_tgd_instance`]: materializes every premise
/// assignment through the relational evaluator. Kept for
/// [`chase_database_reference`], the oracle — do not "optimize".
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

/// Naive twin of [`apply_egd_instance`], for the oracle driver.
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
        let (next, changed) = replace_value(db, from, to);
        *db = next;
        return EgdInstanceOutcome::Applied(changed);
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
    let n = sigma.len();
    // Premise predicate → dependencies listening on it.
    let mut subscribers: HashMap<Predicate, Vec<usize>> = HashMap::new();
    for (i, dep) in sigma.iter().enumerate() {
        let mut seen: Vec<Predicate> = Vec::new();
        for atom in dep.lhs() {
            if !seen.contains(&atom.pred) {
                seen.push(atom.pred);
                subscribers.entry(atom.pred).or_default().push(i);
            }
        }
    }
    let mut queued = vec![true; n];
    let wake = |queued: &mut Vec<bool>, preds: &[Predicate]| {
        for p in preds {
            if let Some(subs) = subscribers.get(p) {
                for &i in subs {
                    queued[i] = true;
                }
            }
        }
    };
    // Plans compile once per run against the ground view's arena; the
    // view is refilled only after a step actually mutates the database —
    // satisfied checks reuse it.
    let mut gv = GroundView::of(&cur);
    let plans: Vec<InstancePlans> =
        sigma.iter().map(|d| InstancePlans::compile(d, &mut gv.arena)).collect();
    let mut frames: Vec<InstanceFrames> = sigma.iter().map(|_| InstanceFrames::new()).collect();
    loop {
        guard.poll(steps)?;
        if steps >= config.max_steps {
            return Err(ChaseError::BudgetExhausted { steps });
        }
        let Some(i) = queued.iter().position(|&q| q) else {
            return Ok(InstanceChased { db: cur, failed: false, steps });
        };
        match sigma.as_slice()[i] {
            Dependency::Tgd(ref _t) => {
                match apply_tgd_instance(&mut cur, &gv, &plans[i], &mut frames[i], &mut next_null) {
                    Some(added) => {
                        steps += 1;
                        gv.refill(&cur);
                        wake(&mut queued, &added);
                        // Another premise assignment of the same tgd may still
                        // be violated even if nothing it listens on changed.
                        queued[i] = true;
                    }
                    None => queued[i] = false,
                }
            }
            Dependency::Egd(ref _e) => {
                match apply_egd_instance(&mut cur, &gv, &plans[i], &mut frames[i]) {
                    EgdInstanceOutcome::NoViolation => queued[i] = false,
                    EgdInstanceOutcome::Applied(changed) => {
                        steps += 1;
                        gv.refill(&cur);
                        wake(&mut queued, &changed);
                        // The violating premise tuples contained the replaced
                        // value, so `changed` re-arms this egd via its own
                        // subscription; keep it queued explicitly regardless.
                        queued[i] = true;
                    }
                    EgdInstanceOutcome::Failed => {
                        return Ok(InstanceChased { db: cur, failed: true, steps });
                    }
                }
            }
        }
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
                    EgdInstanceOutcome::Applied(_) => {
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

    /// The worklist engine must be step-for-step identical to the naive
    /// restart-scan driver: same repaired database (null allocation
    /// included), same step count, same failure flag — across random
    /// databases and dependency sets mixing tgd chains and key egds.
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
