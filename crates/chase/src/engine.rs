//! The incremental indexed chase engine — arena-backed.
//!
//! The naive driver (kept as [`crate::reference`], the differential-testing
//! oracle) restarts the Σ scan from σ₀ after every step and re-derives all
//! of its working state — variable set, homomorphism buckets, deduplicated
//! body — from scratch each time. With chase results exponential in the
//! schema size (Appendix H of the paper), those per-step constants multiply
//! an already-exponential object. This engine eliminates them:
//!
//! 1. **Persistent [`BodyIndex`]** — the body lives in a flat
//!    [`eqsql_cq::TermArena`]: terms interned to `u32` ids once, atoms as
//!    rows of per-predicate columnar tables, occurrence fingerprints and
//!    variable lists keyed on ids. Tgd appends and egd substitutions
//!    mutate columns in place; nothing is rebuilt, re-sorted, re-cloned —
//!    or even *allocated* — per step (the warm no-fire step is
//!    allocation-free; see `tests/tests/alloc_regression.rs`).
//! 2. **Compiled per-dependency arena plans** — each dependency's premise
//!    (and, for tgds, conclusion) is compiled once into an
//!    [`eqsql_cq::ArenaPlan`] whose candidate scans are linear integer
//!    sweeps over contiguous columns; searches bind `u32`s into reusable
//!    [`eqsql_cq::ArenaFrame`]s. Plans are renaming-invariant (variables
//!    are dense slots), so the per-step rename-apart of the naive path
//!    happens only where an admission predicate demands the renamed
//!    dependency (the sound chase). The premise plan keeps the written
//!    atom order and table rows are appended in body-slot order, so the
//!    first homomorphism found is the one the reference driver would fire;
//!    the conclusion-extension check is seeded through a precompiled
//!    [`eqsql_cq::SeedMap`] (no closures, no `Subst`), and the search
//!    stops at the first admissible match. Egd search stops at the first
//!    violating match the same way, its equality sides precompiled to
//!    [`eqsql_cq::EqOp`]s. Conclusion plans are ordered by the **live**
//!    initial-body cardinalities ([`eqsql_cq::ArenaPlan::optimized_with_stats`],
//!    Selinger-lite) — safe because existence checks are order-insensitive.
//! 3. **Delta-driven scheduling** — a worklist of dependency indices,
//!    re-armed only for dependencies whose premise predicates intersect
//!    the atoms just added or rewritten (semi-naive evaluation). A
//!    dependency checked satisfied stays retired until a relevant delta:
//!    a homomorphism that avoids every changed atom existed before the
//!    step, with its conclusion extension intact, so its verdict carries
//!    over (see `docs` on `fire_order_matches_reference` in the tests).
//!
//! Boxed values appear only at observable boundaries: the materialized
//! terminal query and the `Subst`s handed to custom admission predicates
//! — the boxed↔arena contract documented in [`eqsql_cq::arena`]. The step
//! trace is a [`ChaseTrace`] of typed records (dependency index, body
//! size, the fired binding's terms), so committing a step builds no
//! string; rendering waits for a reader.
//!
//! Each step pops the lowest queued dependency, searches its premise over
//! the whole body up to the first admissible homomorphism, and fires at
//! most that one. So the engine fires, at every step, the same dependency
//! the reference driver would (the lowest-indexed applicable one, with the
//! first admissible homomorphism in the shared deterministic search
//! order), and the two produce isomorphic terminal queries, identical step
//! counts, identical failure flags and identical error variants — which
//! the differential suite in `tests/tests/engine_differential.rs` checks.
//!
//! One deliberate divergence from semi-naive purity: a *custom* admission
//! predicate (the sound chase's assignment-fixing test) depends on the
//! whole current query, not just the premise image — Example 5.1 of the
//! paper is exactly a query whose growth flips a verdict. Dependencies
//! rejected only by admission are therefore re-armed after **every**
//! step, preserving the reference semantics; dependencies with no
//! applicable homomorphism at all still enjoy delta scheduling.

use crate::error::{ChaseConfig, ChaseError};
use crate::guard::RunGuard;
use crate::index::BodyIndex;
use crate::set_chase::Chased;
use crate::step::{classify_egd_images, rename_dep_apart_mapped, DedupPolicy};
use crate::trace::ChaseTrace;
use eqsql_cq::{
    ArenaFrame, ArenaPlan, Atom, CqQuery, EqOp, Predicate, SeedMap, Subst, Term, TermArena, TermId,
    Var, VarSupply,
};
use eqsql_deps::{Dependency, DependencySet, Tgd};
use eqsql_obs::StepProbe;
use std::collections::HashMap;

/// How tgd steps are admitted.
pub enum Admission<'a> {
    /// Every applicable step fires (the classical set chase).
    All,
    /// `admit(tgd, cur, hom)` decides (the sound chase's assignment-fixing
    /// filter). The tgd is renamed apart, `hom` maps its premise into
    /// `cur`'s body. Because the verdict may depend on the whole current
    /// query, rejected dependencies are re-armed after every step. The
    /// first `Err` stops the search and ends the chase with that error.
    Custom(&'a mut dyn FnMut(&Tgd, &CqQuery, &Subst) -> Result<bool, ChaseError>),
}

/// Per-run hooks for [`chase_indexed`]: a run guard and a step probe.
/// Neither changes a result, so neither is part of any cache key.
#[derive(Clone, Debug, Default)]
pub struct EngineOpts {
    /// Cooperative deadline/cancellation guard, polled once per engine
    /// step alongside the budget checks. The default (unguarded) guard
    /// costs one `Option` test per step and never aborts. The guard never
    /// changes firing order or results, only whether the run finishes.
    pub guard: RunGuard,
    /// Work-attribution probe ([`eqsql_obs::StepProbe`]): counts committed
    /// steps and dependency scans. Pure accounting — the default disarmed
    /// probe costs one `Option` test per callback, and an armed probe
    /// never changes firing order or results, so like `guard` it is not
    /// part of any cache key.
    pub probe: StepProbe,
}

/// The per-run scheduler state: which dependencies might act. Shared by
/// the query chase and the instance chase ([`crate::instance`]).
pub(crate) struct Worklist {
    /// `queued[i]`: dependency `i` must be (re-)checked.
    queued: Vec<bool>,
    /// `blocked_on_admit[i]`: last check found applicable homomorphisms
    /// but the admission predicate rejected all of them — re-arm after
    /// any step (admission is a whole-query property).
    blocked_on_admit: Vec<bool>,
    /// Premise predicate → dependencies listening on it.
    subscribers: HashMap<Predicate, Vec<usize>>,
}

impl Worklist {
    pub(crate) fn new(sigma: &DependencySet) -> Worklist {
        let n = sigma.len();
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
        Worklist { queued: vec![true; n], blocked_on_admit: vec![false; n], subscribers }
    }

    /// The lowest queued dependency — the same one the reference driver's
    /// restart-from-σ₀ scan would reach first.
    pub(crate) fn pop_min(&self) -> Option<usize> {
        self.queued.iter().position(|&q| q)
    }

    pub(crate) fn retire(&mut self, i: usize, blocked_on_admit: bool) {
        self.queued[i] = false;
        self.blocked_on_admit[i] = blocked_on_admit;
    }

    /// Keeps dependency `i` queued after it fired: another homomorphism
    /// of it may still apply although none of its premise predicates
    /// changed.
    pub(crate) fn rearm(&mut self, i: usize) {
        self.queued[i] = true;
    }

    /// Re-arms every dependency whose premise mentions one of `preds`.
    pub(crate) fn wake_subscribers(&mut self, preds: &[Predicate]) {
        for p in preds {
            if let Some(subs) = self.subscribers.get(p) {
                for &i in subs {
                    self.queued[i] = true;
                }
            }
        }
    }

    /// Re-arms dependencies whose only obstacle was the admission
    /// predicate; called after every step when admission is custom
    /// (admission verdicts do not persist across steps).
    fn wake_admission_blocked(&mut self) {
        for i in 0..self.queued.len() {
            if self.blocked_on_admit[i] {
                self.queued[i] = true;
                self.blocked_on_admit[i] = false;
            }
        }
    }
}

/// One argument of a compiled tgd-conclusion template: where the interned
/// id of the fired atom's argument comes from.
#[derive(Copy, Clone, Debug)]
enum ConOp {
    /// A constant, interned at compile time.
    Const(TermId),
    /// Read the premise match's dense slot.
    Prem(u32),
    /// The `i`-th freshly minted existential of this fire.
    Exist(u32),
}

/// A dependency's compiled, run-long search machinery. Plans are built on
/// the dependency's *original* variables (dense slots make them
/// renaming-invariant) against the run's arena, so one compilation serves
/// every step and searches never touch a boxed value. The instance chase
/// ([`crate::instance`]) compiles the same plans against its database.
pub(crate) struct DepPlans {
    /// Premise conjunction, original atom order — emission order equals
    /// the reference backtracker's, so "first admissible" agrees.
    premise: ArenaPlan,
    /// Tgd conclusion, ordered by live initial-body cardinality
    /// (existence-only search), seeded from the premise frame through
    /// `ext_seed`.
    extension: Option<ArenaPlan>,
    /// Extension slot ← premise slot, for every shared universal.
    ext_seed: SeedMap,
    /// Egd equality sides, resolved against the premise plan.
    egd_eq: Option<(EqOp, EqOp)>,
    /// Tgd conclusion template: per rhs atom, its table and argument ops.
    conclusion: Vec<(u32, Vec<ConOp>)>,
    /// The tgd's existential variables, in declaration order (fresh-name
    /// minting must follow it to stay identical to the reference).
    existentials: Vec<Var>,
}

impl DepPlans {
    pub(crate) fn compile(dep: &Dependency, arena: &mut TermArena) -> DepPlans {
        let premise = ArenaPlan::new(dep.lhs(), arena);
        match dep {
            Dependency::Tgd(t) => {
                // Duplicates are harmless: the plan order only tests
                // membership. No hash sets for a handful of variables.
                let universal: Vec<Var> = t.lhs.iter().flat_map(Atom::vars).collect();
                let extension = ArenaPlan::optimized_with_stats(&t.rhs, &universal, arena);
                let ext_seed = extension.seed_map_from(&premise);
                let mut existentials: Vec<Var> = Vec::new();
                let conclusion = t
                    .rhs
                    .iter()
                    .map(|atom| {
                        let table = arena.table_id(atom.key());
                        let ops = atom
                            .args
                            .iter()
                            .map(|arg| match arg {
                                Term::Const(_) => ConOp::Const(arena.intern(*arg)),
                                Term::Var(v) => match premise.slot(*v) {
                                    Some(s) => ConOp::Prem(s),
                                    // Numbered in order of first occurrence,
                                    // as `Tgd::existential_vars` lists them.
                                    None => {
                                        let e = existentials
                                            .iter()
                                            .position(|z| z == v)
                                            .unwrap_or_else(|| {
                                                existentials.push(*v);
                                                existentials.len() - 1
                                            });
                                        ConOp::Exist(e as u32)
                                    }
                                },
                            })
                            .collect();
                        (table, ops)
                    })
                    .collect();
                DepPlans {
                    premise,
                    extension: Some(extension),
                    ext_seed,
                    egd_eq: None,
                    conclusion,
                    existentials,
                }
            }
            Dependency::Egd(e) => {
                let egd_eq = Some((premise.eq_op(&e.eq.0, arena), premise.eq_op(&e.eq.1, arena)));
                DepPlans {
                    premise,
                    extension: None,
                    ext_seed: SeedMap::new(),
                    egd_eq,
                    conclusion: Vec::new(),
                    existentials: Vec::new(),
                }
            }
        }
    }

    /// The tgd's conclusion atoms under the premise match `slots`, with
    /// each existential left as the tgd's own variable (the instance
    /// chase mints a labelled null for it).
    pub(crate) fn ground_conclusion(&self, arena: &TermArena, slots: &[TermId]) -> Vec<Atom> {
        self.conclusion
            .iter()
            .map(|(table, ops)| Atom {
                pred: arena.table(*table).key().0,
                args: ops
                    .iter()
                    .map(|op| match op {
                        ConOp::Const(id) => arena.term(*id),
                        ConOp::Prem(s) => arena.term(slots[*s as usize]),
                        ConOp::Exist(e) => Term::Var(self.existentials[*e as usize]),
                    })
                    .collect(),
            })
            .collect()
    }
}

/// A dependency's reusable search frames (premise + extension), allocated
/// once per run — warm steps reuse them allocation-free.
pub(crate) struct DepFrames {
    pub(crate) premise: ArenaFrame,
    pub(crate) ext: ArenaFrame,
}

impl DepFrames {
    pub(crate) fn new() -> DepFrames {
        DepFrames { premise: ArenaFrame::new(), ext: ArenaFrame::new() }
    }
}

/// Outcome of scanning one dependency against the current body.
pub(crate) enum Scan {
    /// Nothing to do; `saw_applicable` = applicable homomorphisms existed
    /// but a custom admission predicate rejected all of them.
    Idle { saw_applicable: bool },
    /// An egd equated two distinct constants.
    EgdFailed,
    /// First violating egd homomorphism: replace `from` by `to`.
    EgdFire(Var, Term),
    /// The first admitted applicable tgd homomorphism, as a premise slot
    /// array.
    TgdFire(Box<[TermId]>),
}

/// Searches the egd premise for the first homomorphism under which the
/// equated terms have unequal images, and returns those images.
/// Allocation-free on the no-violation path once `frame` is warm.
pub(crate) fn egd_violation(
    plans: &DepPlans,
    arena: &TermArena,
    frame: &mut ArenaFrame,
) -> Option<(Term, Term)> {
    let (lhs, rhs) = plans.egd_eq.expect("egd has compiled equality sides");
    frame.reset(plans.premise.slot_count());
    let mut images = None;
    plans.premise.search(arena, frame, &mut |slots| {
        let (a, b) = (lhs.resolve(arena, slots), rhs.resolve(arena, slots));
        if a == b {
            return true; // keep searching until a violation
        }
        images = Some((a, b));
        false
    });
    images
}

/// [`egd_violation`], classified as a query-chase step.
fn scan_egd(plans: &DepPlans, arena: &TermArena, frame: &mut ArenaFrame) -> Scan {
    match egd_violation(plans, arena, frame).and_then(|(a, b)| classify_egd_images(a, b)) {
        None => Scan::Idle { saw_applicable: false },
        Some(Err(())) => Scan::EgdFailed,
        Some(Ok((from, to))) => Scan::EgdFire(from, to),
    }
}

/// Searches the tgd premise for the first admissible applicable
/// homomorphism: the conclusion-extension check and the admission
/// predicate prune the search in flight. The predicate's first `Err`
/// stops the search and is returned. Allocation-free on the
/// all-satisfied path once the frames are warm.
pub(crate) fn scan_tgd(
    plans: &DepPlans,
    arena: &TermArena,
    pf: &mut ArenaFrame,
    ef: &mut ArenaFrame,
    dedup_hom_bindings: bool,
    admit: &mut dyn FnMut(&[TermId]) -> Result<bool, ChaseError>,
) -> Result<Scan, ChaseError> {
    let extension = plans.extension.as_ref().expect("tgd has an extension plan");
    let mut fire: Option<Result<Box<[TermId]>, ChaseError>> = None;
    let mut saw_applicable = false;
    // Under lenient dedup policies distinct target choices can yield the
    // same premise bindings; dedup by the dense slot values so the
    // extension/admission work per binding runs once.
    let mut seen: std::collections::HashSet<Box<[TermId]>> = std::collections::HashSet::new();
    pf.reset(plans.premise.slot_count());
    plans.premise.search(arena, pf, &mut |slots| {
        if dedup_hom_bindings {
            if seen.contains(slots) {
                return true; // same bindings already examined
            }
            seen.insert(slots.into());
        }
        ef.reset(extension.slot_count());
        ef.seed_from(&plans.ext_seed, slots);
        if extension.has_match(arena, ef) {
            return true; // conclusion already witnessed
        }
        saw_applicable = true;
        match admit(slots) {
            Ok(false) => true,
            verdict => {
                fire = Some(verdict.map(|_| slots.into()));
                false // stop at the first admitted match or the first error
            }
        }
    });
    Ok(match fire.transpose()? {
        Some(slots) => Scan::TgdFire(slots),
        None => Scan::Idle { saw_applicable },
    })
}

/// Runs the chase with the incremental indexed engine. Its semantics
/// (firing order, budgets, trace, renaming bookkeeping, and the error of
/// the first failing admission test) match
/// [`crate::reference::chase_with_policy_reference`] exactly, up to the
/// names of chase-minted variables when the query's variables collide
/// with Σ's; see the module docs for why. `admission` is
/// [`Admission::All`] or a fallible [`Admission::Custom`] predicate;
/// `opts` carries a run guard and a step probe.
pub fn chase_indexed(
    q: &CqQuery,
    sigma: &DependencySet,
    config: &ChaseConfig,
    dedup: &DedupPolicy,
    mut admission: Admission<'_>,
    opts: &EngineOpts,
) -> Result<Chased, ChaseError> {
    // Normalize up front, as the reference does: dropping duplicates per
    // the policy is equivalence-preserving before any step fires.
    let normalized = dedup.apply(q);
    let name = normalized.name;
    let mut head: Vec<Term> = normalized.head.clone();
    let mut index = BodyIndex::new(&normalized.body);

    let mut supply = VarSupply::avoiding([q]);
    for d in sigma.iter() {
        for v in d.all_vars() {
            supply.record_var(v);
        }
    }

    let deps: Vec<&Dependency> = sigma.iter().collect();
    // Compile every plan against the body's arena: constants and tables
    // from Σ are interned/registered up front, so searches and fires never
    // miss a table and the steady state interns nothing.
    let plans: Vec<DepPlans> =
        deps.iter().map(|d| DepPlans::compile(d, index.arena_mut())).collect();
    let mut frames: Vec<DepFrames> = deps.iter().map(|_| DepFrames::new()).collect();
    let mut worklist = Worklist::new(sigma);
    let custom_admission = matches!(admission, Admission::Custom(_));
    // With a policy that never drops some duplicate atoms, distinct target
    // choices can yield the same premise bindings; see `scan_tgd`.
    let dedup_hom_bindings = !matches!(dedup, DedupPolicy::All);
    // Scratch buffers for the fire path, reused across steps.
    let mut exist_ids: Vec<TermId> = Vec::new();
    let mut arg_ids: Vec<TermId> = Vec::new();

    let mut steps = 0usize;
    let mut renaming = Subst::new();
    let mut trace = ChaseTrace::new();

    macro_rules! terminal {
        ($failed:expr) => {
            Ok(Chased {
                query: index.to_query(name, head),
                failed: $failed,
                steps,
                renaming,
                trace,
            })
        };
    }

    loop {
        opts.guard.poll(steps)?;
        if steps >= config.max_steps {
            return Err(ChaseError::BudgetExhausted { steps });
        }
        if index.len() >= config.max_atoms {
            return Err(ChaseError::QueryTooLarge { atoms: index.len() });
        }
        let Some(i) = worklist.pop_min() else {
            // Worklist drained: no dependency applicable — terminal.
            return terminal!(false);
        };
        opts.probe.on_scan();
        let DepFrames { premise: pf, ext: ef } = &mut frames[i];
        let scan = match (deps[i], &mut admission) {
            (Dependency::Egd(_), _) => Ok(scan_egd(&plans[i], index.arena(), pf)),
            // Custom admission: rename the dependency apart from the
            // current query lazily (only this mode needs the renamed
            // namespace) and consult the predicate with the homomorphism
            // translated into it.
            (Dependency::Tgd(_), Admission::Custom(admit)) => {
                let head_ref = &head;
                let (renamed, map) = rename_dep_apart_mapped(
                    deps[i],
                    |v| index.contains_var(v) || head_ref.contains(&Term::Var(v)),
                    &mut supply,
                );
                let tgd_r = renamed.as_tgd().expect("renaming preserves kind");
                let mut cur_cache: Option<CqQuery> = None;
                let premise_plan = &plans[i].premise;
                let index_ref = &index;
                scan_tgd(&plans[i], index.arena(), pf, ef, dedup_hom_bindings, &mut |slots| {
                    // Boundary conversion: materialize the match as a
                    // Subst in the renamed namespace for the predicate.
                    let mut h = Subst::new();
                    premise_plan.bind_subst(index_ref.arena(), slots, &mut h);
                    let h_r = Subst::from_pairs(h.iter().map(|(v, t)| {
                        let Term::Var(v_r) = map.apply_term(&Term::Var(v)) else {
                            unreachable!("vars rename to vars")
                        };
                        (v_r, *t)
                    }));
                    let cur =
                        cur_cache.get_or_insert_with(|| index_ref.to_query(name, head_ref.clone()));
                    admit(tgd_r, cur, &h_r)
                })
            }
            (Dependency::Tgd(_), Admission::All) => {
                scan_tgd(&plans[i], index.arena(), pf, ef, dedup_hom_bindings, &mut |_| Ok(true))
            }
        };

        match scan? {
            Scan::Idle { saw_applicable } => {
                worklist.retire(i, saw_applicable);
                continue;
            }
            Scan::EgdFailed => {
                trace.push_failed(i, index.len());
                return terminal!(true);
            }
            Scan::EgdFire(from, to) => {
                renaming.rewrite(from, to);
                let changed = index.apply_rewrite(from, &to, dedup);
                for t in &mut head {
                    if *t == Term::Var(from) {
                        *t = to;
                    }
                }
                steps += 1;
                opts.probe.on_step();
                trace.push_egd(i, index.len(), from, to);
                // The substitution rewrote at least one atom of the egd's
                // own premise image, so `changed` re-arms it along with
                // every other listener.
                worklist.wake_subscribers(&changed);
            }
            Scan::TgdFire(slots) => {
                let dp = &plans[i];
                // Mint the existentials in declaration order (the
                // fresh-name sequence must match the reference).
                exist_ids.clear();
                for z in &dp.existentials {
                    let fresh = Term::Var(supply.fresh(z.name()));
                    exist_ids.push(index.arena_mut().intern(fresh));
                }
                let mut added_preds: Vec<Predicate> = Vec::new();
                for (table, ops) in &dp.conclusion {
                    arg_ids.clear();
                    for op in ops {
                        arg_ids.push(match op {
                            ConOp::Const(id) => *id,
                            ConOp::Prem(s) => slots[*s as usize],
                            ConOp::Exist(e) => exist_ids[*e as usize],
                        });
                    }
                    let pred = index.arena().table(*table).key().0;
                    if index.insert_ids(*table, &arg_ids, dedup) && !added_preds.contains(&pred) {
                        added_preds.push(pred);
                    }
                }
                steps += 1;
                opts.probe.on_step();
                // The binding in premise slot order, then the minted
                // existentials: the record layout of `binding_vars`.
                let arena = index.arena();
                trace.push_tgd(
                    i,
                    index.len(),
                    slots.iter().chain(&exist_ids).map(|&id| arena.term(id)),
                );
                worklist.wake_subscribers(&added_preds);
                // The same tgd may be applicable through another
                // homomorphism whose premise predicates are not among the
                // added atoms — stay armed.
                worklist.rearm(i);
            }
        }
        // A step committed: admission verdicts do not carry across steps.
        if custom_admission {
            worklist.wake_admission_blocked();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::set_chase_reference;
    use eqsql_cq::{are_isomorphic, parse_query};
    use eqsql_deps::parse_dependencies;

    fn run_both(
        q: &str,
        sigma: &str,
        config: &ChaseConfig,
    ) -> (Result<Chased, ChaseError>, Result<Chased, ChaseError>) {
        run_both_opts(q, sigma, config, &EngineOpts::default())
    }

    fn run_both_opts(
        q: &str,
        sigma: &str,
        config: &ChaseConfig,
        opts: &EngineOpts,
    ) -> (Result<Chased, ChaseError>, Result<Chased, ChaseError>) {
        let q = parse_query(q).unwrap();
        let sigma = parse_dependencies(sigma).unwrap();
        let indexed = chase_indexed(&q, &sigma, config, &DedupPolicy::All, Admission::All, opts);
        (indexed, set_chase_reference(&q, &sigma, config))
    }

    /// The `(dep_index, body_size)` sequence of a chase's trace.
    fn step_seq(c: &Chased) -> Vec<(usize, usize)> {
        c.trace.entries().iter().map(|e| (e.dep_index, e.body_size)).collect()
    }

    /// The scheduling argument in the module docs, exercised: on inputs
    /// mixing tgds and egds the engine fires the same dependency sequence
    /// as the reference (same step count, same per-step dep indices and
    /// body sizes). The queries share variable names with Σ, so the
    /// reference renames apart on every scan and mints other names
    /// (Example 4.1: `Z_3` where the engine mints `Z_1`); the bindings
    /// agree only up to those names and are not compared.
    #[test]
    fn fire_order_matches_reference() {
        let cases = [
            (
                "q4(X) :- p(X,Y)",
                "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
                 p(X,Y) -> t(X,Y,W).\n\
                 p(X,Y) -> r(X).\n\
                 p(X,Y) -> u(X,Z) & t(X,Y,W).\n\
                 s(X,Y) & s(X,Z) -> Y = Z.\n\
                 t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.",
            ),
            (
                "q(X) :- p(X,Y), s(X,Z)",
                "p(X,Y) -> s(X,Z) & t(Z,Y).\n\
                 t(X,Y) & t(Z,Y) -> X = Z.",
            ),
            ("q(X) :- a(X)", "a(X) -> b(X). b(X) -> c(X,W)."),
        ];
        for (q, sigma) in cases {
            let (a, b) = run_both(q, sigma, &ChaseConfig::default());
            let (a, b) = (a.unwrap(), b.unwrap());
            assert_eq!(a.steps, b.steps, "step counts diverged on {q}");
            assert_eq!(step_seq(&a), step_seq(&b), "dependency firing order diverged on {q}");
            assert!(are_isomorphic(&a.query, &b.query), "{} vs {}", a.query, b.query);
        }
    }

    #[test]
    fn failure_and_budget_agree_with_reference() {
        let (a, b) = run_both(
            "q(X) :- s(X,3), s(X,4)",
            "s(X,Y) & s(X,Z) -> Y = Z.",
            &ChaseConfig::default(),
        );
        let (a, b) = (a.unwrap(), b.unwrap());
        assert!(a.failed && b.failed);
        assert_eq!(a.steps, b.steps);

        let (a, b) =
            run_both("q(X) :- e(X,Y)", "e(X,Y) -> e(Y,Z).", &ChaseConfig::with_max_steps(17));
        assert_eq!(a.unwrap_err(), b.unwrap_err());
    }

    /// A step fires one homomorphism, the first admissible one in body
    /// order: a tgd with four unsatisfied premise matches takes four
    /// steps, each adding one conclusion atom, and one scan per step plus
    /// the scan that retires it.
    #[test]
    fn each_tgd_step_fires_one_homomorphism() {
        let probe = StepProbe::armed();
        let opts = EngineOpts { probe: probe.clone(), ..EngineOpts::default() };
        let (a, b) = run_both_opts(
            "q(X) :- p(X,Y), p(Y,Z), p(Z,W), p(W,V)",
            "p(A,B) -> s(B,C).",
            &ChaseConfig::default(),
            &opts,
        );
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.steps, 4);
        assert_eq!((probe.steps(), probe.scans()), (4, 5));
        assert_eq!(step_seq(&a), vec![(0, 5), (0, 6), (0, 7), (0, 8)]);
        assert_eq!(step_seq(&a), step_seq(&b));
        let premises: Vec<Vec<Term>> =
            a.trace.entries().iter().map(|e| a.trace.binding(e)[..2].to_vec()).collect();
        let v = |n: &str| Term::var(n);
        assert_eq!(
            premises,
            vec![
                vec![v("X"), v("Y")],
                vec![v("Y"), v("Z")],
                vec![v("Z"), v("W")],
                vec![v("W"), v("V")]
            ]
        );
    }

    /// A non-terminating Σ exhausts the budget one fire at a time: after
    /// `n` steps the run stops before its next scan, with the reference's
    /// error.
    #[test]
    fn budget_exhaustion_counts_one_scan_per_step() {
        for n in [1, 5, 17] {
            let probe = StepProbe::armed();
            let opts = EngineOpts { probe: probe.clone(), ..EngineOpts::default() };
            let (a, b) = run_both_opts(
                "q(X) :- e(X,Y)",
                "e(X,Y) -> e(Y,Z).",
                &ChaseConfig::with_max_steps(n),
                &opts,
            );
            assert_eq!(a.unwrap_err(), ChaseError::BudgetExhausted { steps: n });
            assert_eq!(b.unwrap_err(), ChaseError::BudgetExhausted { steps: n });
            assert_eq!((probe.steps(), probe.scans()), (n as u64, n as u64));
        }
    }

    #[test]
    fn multiple_homs_of_one_tgd_all_fire() {
        // Premise pred of the fired tgd is NOT among its added atoms: the
        // self-re-arm path must keep it queued for the second hom.
        let (a, b) =
            run_both("q(X) :- p(X,Y), p(Y,X)", "p(A,B) -> s(A,Z).", &ChaseConfig::default());
        let (a, b) = (a.unwrap(), b.unwrap());
        assert_eq!(a.steps, 2);
        assert_eq!(a.steps, b.steps);
        assert!(are_isomorphic(&a.query, &b.query));
    }

    /// The loop scans one popped dependency at a time: an armed
    /// `StepProbe` counts one scan per pop and one step per commit, and
    /// arming it leaves the step sequence unchanged.
    #[test]
    fn step_probe_counts_one_scan_per_pop() {
        // Pop a→b: one scan, one fire; it stays queued, so pop it again:
        // a second scan finds b(X) present and retires it. Terminal.
        let probe = StepProbe::armed();
        let opts = EngineOpts { probe: probe.clone(), ..EngineOpts::default() };
        let (a, _) = run_both_opts("q(X) :- a(X)", "a(X) -> b(X).", &ChaseConfig::default(), &opts);
        assert_eq!(a.unwrap().steps, 1);
        assert_eq!((probe.steps(), probe.scans()), (1, 2));

        let sigma = "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
                     p(X,Y) -> t(X,Y,W).\n\
                     s(X,Y) & s(X,Z) -> Y = Z.\n\
                     t(X,Y,W1) & t(X,Y,W2) -> W1 = W2.";
        let probe = StepProbe::armed();
        let opts = EngineOpts { probe: probe.clone(), ..EngineOpts::default() };
        let (armed, reference) =
            run_both_opts("q4(X) :- p(X,Y)", sigma, &ChaseConfig::default(), &opts);
        let (armed, reference) = (armed.unwrap(), reference.unwrap());
        assert_eq!(armed.steps, reference.steps);
        assert_eq!(
            step_seq(&armed),
            step_seq(&reference),
            "an armed probe changed the firing order"
        );
        assert_eq!(probe.steps(), armed.steps as u64);
        // Every dependency is scanned at least once before the worklist
        // drains.
        assert!(probe.scans() >= 4, "only {} scans", probe.scans());
    }

    #[test]
    fn terminal_state_is_sigma_satisfying() {
        let q = parse_query("q4(X) :- p(X,Y)").unwrap();
        let sigma = parse_dependencies(
            "p(X,Y) -> s(X,Z) & t(X,V,W).\n\
             s(X,Y) & s(X,Z) -> Y = Z.",
        )
        .unwrap();
        let r = crate::set_chase(&q, &sigma, &ChaseConfig::default()).unwrap();
        assert!(eqsql_deps::satisfaction::query_satisfies_all(&r.query, &sigma));
    }
}
